(** Farkas certificates for (max-)information-inequality validity, and
    their independent exact verifier.

    A {e Contained}/{e Valid} verdict in this repro ultimately rests on a
    claim of the form "[0 ≤ max_ℓ Eℓ(h)] is valid over the Shannon cone
    [Γn]" (paper Theorem 4.2 via Theorem 6.1).  The LP that establishes
    it also produces a proof object: convex weights [μℓ ≥ 0, Σμ = 1] and
    non-negative multipliers [λᵢ] over elemental Shannon inequalities,
    each cited by its descriptor ({!Elemental.desc}: [I(i;j|W)] or
    [h(i|V−i)], the terms Shannon proofs are written in), with

    {[ Σᵢ λᵢ · elemᵢ  =  Σℓ μℓ · Eℓ      (exact, coordinate by coordinate) ]}

    Any [h ∈ Γn] satisfies every [elemᵢ(h) ≥ 0], hence
    [Σℓ μℓ·Eℓ(h) ≥ 0], hence [max_ℓ Eℓ(h) ≥ 0] — soundness needs only
    the identity above, checked by exact rational arithmetic.  {!check}
    performs exactly that: it checks in O(1) that each descriptor names
    an elemental inequality over [n] variables, derives each row's
    (at most 4) terms itself, and requires [Σλ·elem − Σμ·E] to vanish
    on one dense vector of the [2ⁿ] coordinates [h(S)].  It never
    touches the simplex, so a verdict can be audited without trusting
    the solver (or the cache) that produced it. *)

open Bagcqc_num

type t

val make :
  n:int ->
  cone:string ->
  sides:Linexpr.t list ->
  lambda:(Elemental.desc * Rat.t) list ->
  mu:Rat.t list ->
  t
(** Package a certificate; no validation beyond length agreement between
    [mu] and [sides] — {!check} is the judge.
    @raise Invalid_argument if [List.length mu <> List.length sides]. *)

val n_vars : t -> int
val cone_name : t -> string
(** The backend that produced it (e.g. ["gamma"]). *)

val sides : t -> Linexpr.t list
val lambda : t -> (Elemental.desc * Rat.t) list
(** Elemental inequality / multiplier pairs, positive multipliers only;
    {!Elemental.expr_of_desc} materializes a row. *)

val convex_weights : t -> Rat.t list
(** The [μℓ], one per side in order. *)

val size : t -> int
(** Number of elemental inequalities cited. *)

val check : t -> bool
(** Exact re-verification as described above; no LP solve. *)

val check_explain : t -> (unit, string) result
(** Like {!check} but says which clause failed — for diagnostics and the
    tamper-detection tests. *)

val proves : t -> n:int -> Linexpr.t list -> bool
(** [proves c ~n es]: [c] checks {e and} certifies exactly the
    max-inequality [0 ≤ max es] over [n] variables (sides matched as a
    multiset, so side order is irrelevant). *)

val pp : ?names:(int -> string) -> unit -> Format.formatter -> t -> unit
(** One line per convex weight, then one per cited inequality,
    materialized as a [Linexpr] only here. *)
