(** Lazy constraint generation + symmetry reduction for the Shannon
    cone — the production Γn driver behind {!Cones} (DESIGN.md §4i).

    Instead of materializing all [n + C(n,2)·2^(n−2)] elemental
    inequalities into every Γn LP, the instance is canonicalized modulo
    variable permutation ({!Symmetry.analyze}) and decided by a
    cutting-plane loop: solve the refutation LP over a small working
    set W of elemental inequalities (monotonicity + two submodularity
    slices), separate over the {e implicit} family
    ({!Elemental.eval_desc} — exact rationals, nothing materialized),
    add the most-violated cut orbit-at-a-time, and re-solve.  The
    intermediate rounds run on one incremental float tableau per
    decision ({!Bagcqc_lp.Fsimplex.Tableau}: cuts appended in place,
    dual simplex from the previous basis); exact rounds warm-start from
    the previous exact round's basis ({!Bagcqc_lp.Simplex.solve_warm})
    and are routed through {!Bagcqc_engine.Solver.solve_using}, so they
    hit the sharded cache and the persistent store — across restarts
    {e and} across symmetric instances.

    Soundness does not rest on the cutting-plane loop: "valid" means the refutation LP
    over W ⊇'s cone is infeasible (a cone {e containing} Γn, so the
    verdict transfers), and carries a Farkas certificate over W ⊆
    elemental family that the unchanged exact
    {!Certificate.check} judges; "refuted" returns a point that passed
    the full separation scan, i.e. satisfies {e every} elemental
    inequality.  The full-materialization driver {!Cones.Oracle} stays
    as the cross-checked reference. *)

val valid_max_cert :
  n:int -> Linexpr.t list -> (Certificate.t, Polymatroid.t) result
(** Decide [∀h ∈ Γn. 0 ≤ max_ℓ es_ℓ(h)] for a non-empty [es] whose
    variables all lie below [n] (the {!Cones} driver enforces both).
    [Ok cert] proves validity — [cert] passes {!Certificate.check} and
    cites the caller's expressions verbatim; [Error h] is a polymatroid
    with [es_ℓ(h) < 0] for all ℓ. *)

val valid_max_quick : n:int -> Linexpr.t list -> bool
(** Verdict only: runs the separation loop but skips the Farkas solve
    and certificate packaging on the valid side. *)
