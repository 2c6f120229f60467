(** Seeded, stratified evaluation corpora (ROADMAP item 5).

    A corpus is a list of labeled decision instances — bag-containment
    pairs or Max-IIP inequalities — generated deterministically from an
    integer seed and stratified along the axes the sweep harness reports
    on: instance size [n], relation arity, acyclicity of the containing
    query, and the {e expected verdict} as labeled by the production
    oracle ({!Bagcqc_core.Containment.decide} /
    {!Bagcqc_entropy.Maxii.decide}) at generation time.

    Determinism is byte-level: the same [(kind, seed, total)] triple
    produces the identical serialized file, so checked-in corpora are
    regenerable and diffable ([bench/sweep.exe gen]).  Each stratum is
    filled by rejection sampling from a generator biased toward that
    stratum, with the oracle supplying the label; a stratum that cannot
    be filled within its attempt budget fails loudly rather than
    silently under-filling.

    The declared verdict makes every corpus double as a correctness
    audit: a run that disagrees with the label on any instance is a
    bug — [sweep audit] checks exactly that, at jobs 1 and 4, and
    re-checks every certificate exactly. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_cq

type kind = Check | Iip

val kind_name : kind -> string
val kind_of_name : string -> kind option

type payload =
  | Check_pair of { q1 : Query.t; q2 : Query.t }
      (** a Boolean bag-containment instance [Q1 ⊑? Q2] *)
  | Iip_sides of { n : int; sides : (Varset.t * Rat.t) list list }
      (** a Max-IIP [0 ≤? max sides] over [n] variables, sides as raw
          [(mask, coeff)] term lists (the {!Gen} cone encoding) *)

type instance = {
  id : int;            (** position in the corpus, 0-based *)
  stratum : string;    (** e.g. ["chk/contained/acyclic/small"] *)
  n : int;             (** [Q1]'s variable count, resp. the IIP's [n] *)
  arity : int;         (** max relation arity, resp. max side length *)
  acyclic : bool;      (** [Treedec.is_acyclic q2]; always false for IIP *)
  verdict : string;    (** oracle label: [contained]/[not_contained],
                           resp. [valid]/[invalid] *)
  payload : payload;
}

val strata : kind -> (string * int) list
(** The stratum names and their full-profile weights, in generation
    order.  Quotas for a [total] below the weight sum scale down
    proportionally (each stratum keeps at least one instance). *)

val quotas : kind -> total:int -> (string * int) list
(** The actual per-stratum quotas used for a given [total]
    (@raise Invalid_argument if [total < 1]). *)

val build_side : (Varset.t * Rat.t) list -> Linexpr.t
(** Fold a raw term list into the linear expression it denotes — the
    bridge from [Iip_sides] payloads to {!Bagcqc_entropy.Maxii.general}. *)

val oracle : payload -> string
(** The production decision procedure's verdict tag for this payload.
    [unknown] is possible but never appears in a generated corpus (such
    candidates are rejected). *)

val generate : kind -> seed:int -> total:int -> instance list
(** Generate a corpus: [total] instances distributed over {!strata},
    ids [0 .. total-1] in stratum order.  Pure function of its
    arguments.
    @raise Invalid_argument if [total < 1].
    @raise Failure if a stratum exhausts its rejection budget. *)

(** {2 Serialization}

    One JSON object per line in the repo's one JSON dialect
    ({!Bagcqc_obs.Json}): a header line carrying [(kind, seed, count)]
    and the stratum table, then one line per instance.  Queries are
    serialized with {!Query.to_string} (print/reparse stability is
    fuzz-verified); rationals as exact [Rat.to_string] strings. *)

type header = { h_kind : kind; h_seed : int; h_count : int }

val header_line : kind -> seed:int -> count:int -> string
val instance_line : instance -> string

val write : out_channel -> kind -> seed:int -> instance list -> unit
(** Header plus one line per instance, ['\n']-terminated (write through
    a binary channel for byte-stable output). *)

val load : string -> (header * instance list, string) result
(** Parse a corpus file back.  Total: malformed lines produce [Error]
    with the offending line number, never an exception. *)
