(** Memoizing LP solver: the single chokepoint between the decision
    procedures and the simplex.

    Every solve is keyed on the canonical {!Problem} IR; structurally
    identical systems (the same cone check reached through renamed
    homomorphism sides, repeated [decide] calls on the same pair, …) are
    answered from the memo table without touching the simplex.  Counters
    flow into {!Stats} either way.

    Cached solutions are returned as fresh copies, so callers may treat
    the arrays as their own.

    The table is sharded by problem hash (per-shard mutex), so [solve]
    is safe from pool workers; racing solves of the same problem are
    deduplicated in-flight, keeping hit/miss counters exactly equal to a
    sequential run.  Lifecycle mutation ({!clear}) must happen between
    parallel regions — see the initialization order in
    {!Bagcqc_par.Pool}.

    The sharded table is {e tier 0}.  When a persistent {!Store} is
    attached ({!Store.attach}, [check --store], [serve]), a tier-0 miss
    consults it before running the simplex, and fresh [Optimal] solves
    are appended to it — restarts and sibling processes start warm.
    Store entries are re-verified in exact arithmetic on load, so the
    cache never trusts the disk (see {!Store}). *)

open Bagcqc_num
open Bagcqc_lp

val caching : bool ref
(** Memoization switch, on by default.  Benchmarks that want to time the
    underlying simplex (not the table lookup) flip it off around the
    measured region and restore it with [Fun.protect]; library code
    never writes here. *)

val solve : Problem.t -> Simplex.outcome
(** Cached {!Simplex.solve} on the lowered problem. *)

val solve_using :
  Problem.t -> solver:(Problem.t -> Simplex.outcome) -> Simplex.outcome
(** {!solve} with a caller-supplied solving function, run only on a
    genuine miss of both cache tiers — the lazy cone driver routes its
    warm-started per-round LPs through this so they share the memo
    table, the persistent store, in-flight dedup and the [Stats]
    pivot accounting with every other solve.  The function must return
    an outcome valid for the problem {e as given} (same variable
    order); warm-start state may live in its closure. *)

val solve_result : Problem.t -> (Simplex.outcome, Bagcqc_error.t) result
(** {!solve} with internal invariant violations reified as a typed
    [Error] (see {!Simplex.solve_result}). *)

val feasible : Problem.t -> Rat.t array option
(** Cached feasibility: [Some x] is a point of the polyhedron.  The
    problem's objective is ignored (pass a pure feasibility problem). *)

val clear : unit -> unit
(** Drop every memoized solve from tier 0 (does not touch {!Stats} or an
    attached {!Store}).
    @raise Invalid_argument when called inside a parallel region. *)

val cache_size : unit -> int
(** Number of distinct problems currently memoized. *)

val publish_gauges : unit -> unit
(** Refresh the [solver.cache.size] gauge from {!cache_size} — called by
    the serving layer's ticker and metrics scrape, not per solve. *)
