(** Lazy constraint generation + symmetry reduction for the Shannon
    cone — the production Γn driver behind {!Cones} (DESIGN.md §4i).

    Instead of materializing all [n + C(n,2)·2^(n−2)] elemental
    inequalities into every Γn LP, the instance is canonicalized modulo
    variable permutation ({!Symmetry.analyze}) and decided by a
    cutting-plane loop: solve the refutation LP over a small working
    set W of elemental inequalities (seeded with the [n] monotonicity
    rows; submodularity enters only as cuts), separate over the
    {e implicit} family
    ({!Elemental.eval_desc} — exact rationals, nothing materialized),
    add the most-violated cut orbit-at-a-time, and re-solve.  The
    rounds run on one incremental float tableau per decision
    ({!Bagcqc_lp.Fsimplex.Tableau}: cuts appended in place, dual
    simplex from the previous basis).

    A valid decision normally ends on the tableau's Farkas row: its
    multipliers are repaired exactly on their own support
    ({!Bagcqc_lp.Repair.farkas}) and assembled into the certificate, so
    no LP is solved at all.  Only a declined repair (counted in
    [cone.lazy.probe_cert_fallbacks], its reason on the
    [cone.lazy.probe_cert] span) pays for the restricted Farkas LP, and
    only a probe without a usable answer pays for an exact refutation
    round; those LPs are solved exactly by
    {!Bagcqc_lp.Simplex.feasible}, so they are counted in
    [lp.solves]/[lp.pivots].

    Soundness does not rest on the cutting-plane loop or on the floats:
    "valid" carries a Farkas certificate over W ⊆ elemental family that
    the unchanged exact {!Certificate.check} judges; "refuted" returns a
    point that passed the full separation scan, i.e. satisfies {e every}
    elemental inequality.  The full-materialization driver
    {!Cones.Oracle} stays as the cross-checked reference. *)

val valid_max_cert :
  n:int -> Linexpr.t list -> (Certificate.t, Polymatroid.t) result
(** Decide [∀h ∈ Γn. 0 ≤ max_ℓ es_ℓ(h)] for a non-empty [es] whose
    variables all lie below [n] (the {!Cones} driver enforces both).
    [Ok cert] proves validity — [cert] passes {!Certificate.check} and
    cites the caller's expressions verbatim; [Error h] is a polymatroid
    with [es_ℓ(h) < 0] for all ℓ. *)

val valid_max_quick : n:int -> Linexpr.t list -> bool
(** Verdict only: runs the separation loop, and on the valid side
    accepts an exact repair of the probe's Farkas row without
    assembling a certificate. *)

(** The certificate path's internals, exposed for the tests. *)
module Probe : sig
  type row =
    | Target of int  (** side [ℓ] of the canonical instance *)
    | Cut of Elemental.desc  (** a working-set inequality *)

  val terminal_claim : n:int -> Linexpr.t list -> (row * float) list option
  (** Run the loop on the canonical form of [es] up to its first
      float-infeasible probe and return that probe's Farkas row, as
      (row, float multiplier) pairs; [None] if the loop ends another
      way. *)

  val repairs : n:int -> Linexpr.t list -> (row * float) list -> bool
  (** Whether {!Bagcqc_lp.Repair.farkas} accepts the claim. *)

  val certify :
    n:int -> Linexpr.t list -> (row * float) list -> Certificate.t option
  (** The production certificate step for a claim on [es]: the exact
      repair, or on a decline the restricted Farkas LP over the claim's
      cuts.  [None]: neither certifies. *)
end
