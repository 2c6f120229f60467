(** Wire protocol of the [bagcqc serve] daemon.

    Newline-delimited JSON over a stream socket: each request is one
    JSON object on one line, each reply is one JSON object on one line,
    and replies echo the request's ["id"] verbatim (or [null] when the
    request carried none / was unparseable).  The JSON dialect is the
    in-tree {!Bagcqc_obs.Json} — no external dependency.

    {2 Requests}

    {v
    {"id":ID, "op":"check", "q1":"R(x,y),R(y,z)", "q2":"R(x,y)",
     "max_factors":14?, "certificate":false?, "deadline_ms":MS?}
    {"id":ID, "op":"stats"}
    {"id":ID, "op":"ping"}
    {"id":ID, "op":"shutdown"}
    v}

    [deadline_ms] is a relative budget: a [check] still queued when it
    expires is answered with a [deadline_exceeded] error instead of
    being solved (admission-time and dequeue-time checks; a request
    whose deadline passes {e mid-solve} is completed and answered — the
    deadline sheds queued load, it does not abort exponential work
    already running).

    {2 Replies}

    {v
    {"id":ID, "ok":true,  ...verb-specific fields}
    {"id":ID, "ok":false, "error":{"kind":KIND, "message":MSG}}
    v}

    Error kinds: ["parse"] (line is not a JSON object),
    ["bad_request"] (unknown op, missing field, query syntax; head
    lengths that differ or a relation used at two arities, answered by
    the dispatcher), ["deadline_exceeded"], ["overloaded"] (admission
    queue full while the dispatcher works on a batch),
    ["shutting_down"] (request arrived during drain), and ["internal"]
    (a typed {!Bagcqc_num.Bagcqc_error} from the decision pipeline). *)

open Bagcqc_cq
open Bagcqc_core
module Json = Bagcqc_obs.Json

(** Where a server listens / a client connects. *)
type addr =
  | Unix_path of string  (** Unix-domain stream socket at this path *)
  | Tcp of string * int  (** TCP on (host, port) *)

val pp_addr : Format.formatter -> addr -> unit

type error_kind =
  | Parse
  | Bad_request
  | Deadline_exceeded
  | Overloaded
  | Shutting_down
  | Internal

val kind_name : error_kind -> string
val kind_of_name : string -> error_kind option

type request =
  | Check of {
      q1 : Query.t;
      q2 : Query.t;
      max_factors : int;
      want_certificate : bool;
    }
  | Stats
  | Ping
  | Shutdown

type envelope = {
  id : Json.t;  (** echoed verbatim in the reply; [Null] when absent *)
  deadline_ms : float option;  (** relative budget, milliseconds *)
  request : request;
}

type error = { id : Json.t; kind : error_kind; message : string }

val parse_line : string -> (envelope, error) result
(** Total: every malformed input becomes a typed [error] (with the
    request id when one could still be extracted), never an exception. *)

(** {2 Reply construction} *)

val ok : Json.t -> (string * Json.t) list -> Json.t
(** [ok id fields] is [{"id":id,"ok":true,...fields}]. *)

val error_reply : error -> Json.t

val internal_error : id:Json.t -> Bagcqc_num.Bagcqc_error.t -> Json.t
(** Map a typed pipeline error onto an ["internal"] protocol error. *)

val verdict_name : Containment.verdict -> string
(** ["contained"], ["not_contained"] or ["unknown"] — the same string
    the ["verdict"] field of a reply carries. *)

val verdict_fields :
  want_certificate:bool -> Containment.verdict -> (string * Json.t) list
(** The verb-specific fields of a [check] reply: ["verdict"] of
    ["contained"] (with ["certificate_size"], plus the pretty-printed
    certificate when asked — re-verified with {!Bagcqc_entropy.Certificate.check}
    before printing), ["not_contained"] (with the witness counts), or
    ["unknown"] (with the reason). *)
