(** Nested timed spans with attributes, recorded into a bounded ring.

    [with_span] is safe on hot paths: with tracing disabled it is a
    single branch around the thunk.  Enabled, it assigns the span an id
    and a parent (the innermost open span), timestamps it with the
    monotonic trace clock, and on close pushes the completed record into
    a fixed-capacity ring buffer (oldest spans are overwritten first).
    Spans nested deeper than {!Runtime.max_depth} run uninstrumented and
    are counted, not recorded.

    Invariant on every completed span: [self sp +. sp.children = sp.dur]
    exactly (self-time is inclusive time minus the sum of direct
    children's inclusive times). *)

type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  id : int;
  parent : int;  (** id of the enclosing span, [-1] for a root *)
  depth : int;
  name : string;
  mutable attrs : (string * attr) list;
  start : float;  (** absolute seconds; subtract {!Runtime.epoch} to export *)
  mutable dur : float;  (** inclusive wall-clock seconds *)
  mutable children : float;  (** Σ inclusive durations of direct children *)
}

val with_span : name:string -> ?attrs:(string * attr) list -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  Exceptions propagate; the span closes
    regardless.  Disabled: calls the thunk directly. *)

val add_attr : string -> attr -> unit
(** Attach an attribute to the innermost open span (no-op when disabled
    or when no span is open).  Use for facts only known mid-span:
    pivot counts, cache hit/miss, verdicts. *)

val self : t -> float
(** Self-time: inclusive duration minus children's inclusive durations. *)

val on_close : (t -> unit) -> unit
(** Subscribe to span completions (called, newest subscriber first, each
    time a span closes while tracing is enabled). *)

val closed : unit -> t list
(** Completed spans still in the ring, oldest first. *)

val subtree : int -> t list
(** [subtree id]: the completed span [id] and its completed descendants
    still in the rings, by ascending id; [[]] once [id] has left its
    ring (or for [id < 0]).  The same spans as following parent links
    through {!closed}, but the walk reads only the spans that closed
    since span [id] opened. *)

val dropped : unit -> int
(** Completed spans overwritten by ring wrap-around since the last reset. *)

val depth_dropped : unit -> int
(** Spans skipped because they exceeded {!Runtime.max_depth}. *)

val open_depth : unit -> int
(** Number of currently open spans (0 between top-level operations). *)

val current_id : unit -> int
(** Id of this domain's innermost open span, [-1] when none is open or
    tracing is disabled.  Lets a caller remember which span covered a
    piece of work and later collect that span's subtree with
    {!subtree} (slow-request capture). *)

val reset : unit -> unit
(** Clear the ring, the open stack, and ids; re-arm the trace epoch.
    Idempotent.  Does not clear subscribers. *)
