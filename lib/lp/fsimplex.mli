(** Floating-point simplex: a basis proposer for exact repair, and the
    incremental probe tableau of the lazy Γn loop ({!Tableau}).

    {!propose} is the "float" half of the hybrid LP pipeline (DESIGN.md
    §4f): it runs the same two-phase primal simplex as the exact
    engines — same
    {!Lp_layout} column layout, same pricing and ratio rules — over
    machine floats with tolerance-based comparisons, and returns only a
    {e basis proposal}.  {!Repair} reconstructs the exact rational
    solution for that basis and verifies it; this module therefore
    affects performance and the fallback rate, never correctness. *)

type proposal =
  | Optimal_basis of int array
      (** Phase-2 terminated optimal; [basis.(r)] is the column basic in
          row [r] of the proposed optimal basis. *)
  | Infeasible_basis of int array
      (** Phase-1 terminated with a clearly positive artificial sum; the
          phase-1 basis supports an exact dual infeasibility proof. *)
  | Unbounded_direction
      (** Phase 2 found no blocking row.  Unboundedness is not repaired
          (there is no finite basis to certify); callers fall back to the
          exact engine. *)

val propose :
  ?warm:int array ->
  Lp_layout.problem -> Lp_layout.layout -> (proposal, Bagcqc_num.Bagcqc_error.t) result
(** [propose p (Lp_layout.layout_of p)] runs the float simplex.

    [?warm] is a basis (column indices) from a previous solve of a
    related problem under the {e same column layout} (e.g. the previous
    round of a cutting-plane loop, whose old rows kept their structural
    and slack columns).  Before phase 1 each warm column is crashed into
    the basis by a guided minimum-ratio pivot, which preserves phase-1
    feasibility; unusable hints are skipped.  Warm-starting affects only
    how many pivots the search needs — never which verdict is proposed,
    and {!Repair} re-verifies whatever basis comes out.

    Returns [Error] with kind [Overflow] — never a silent NaN/inf
    propagated into pricing — when float arithmetic fails: a coefficient
    of [p] overflows to infinity on lowering ([Rat.to_float] of a huge
    rational), a pivot produces a non-finite tableau entry, or the pivot
    budget is exhausted (tolerance-masked cycling).  Callers treat any
    [Error] as "fall back to the exact engine". *)

(** Incremental float feasibility tableau: the probe of the lazy Γn
    loop (DESIGN.md §4i).

    Holds the system [{x ≥ 0, A·x ≤ b}] with one slack per row and no
    artificial columns, grows it a row at a time, and re-solves it by
    the dual simplex from the current basis.  It is kept in dictionary
    form: only the [num_vars] nonbasic columns are stored, so every row
    is [num_vars] floats wide however many rows there are.  Its answers
    are heuristic data for a cutting-plane loop, {e never a verdict}:
    points steer which cuts are added, and the multipliers of an
    infeasibility claim only choose the structure an exact Farkas repair
    ({!Repair.farkas}) is attempted on. *)
module Tableau : sig
  type t

  type claim =
    | Point of float array
        (** A basic point [x ≥ 0] of length [num_vars] satisfying every
            row to within [1e-9]. *)
    | Infeasible of (int * float) list
        (** The Farkas row that proves infeasibility in floats: one
            [(i, y_i)] per row with a nonzero multiplier, ascending in
            the row index [i] (append order).  In floats [y ≥ 0],
            [y·A ≥ 0] and [y·b < 0]; {!Repair.farkas} turns the pairs
            into an exact certificate or declines. *)
    | Unknown
        (** Pivot budget exhausted or a non-finite entry.  The tableau
            stays [Unknown] from then on; rebuild it. *)

  val create : num_vars:int -> t
  (** The empty system over [num_vars] nonnegative variables. *)

  val add_le : t -> int array -> float array -> float -> unit
  (** [add_le t cols vals rhs] appends [Σ_k vals.(k)·x_{cols.(k)} ≤ rhs]
      ([cols] distinct, each below [num_vars]).  The row is written in
      the current dictionary — a nonbasic variable's coefficient lands in
      its column, a basic one is substituted by its row, so one row
      operation per basic variable it mentions — and its slack enters
      the basis, so the previous basis stays dual feasible and the next
      {!reoptimize} starts from it. *)

  val reoptimize : t -> claim
  (** Dual simplex from the current basis until every row holds (a
      [Point]) or a row proves infeasibility.  The leaving row is the
      most violated one and the entering column its most negative entry,
      ties to the smallest variable id.  There is no anti-cycling rule:
      the pivot budget is the only guard, and exhausting it gives
      [Unknown].  Bumps the [lp.float.probes] counter once, adds its
      pivots to [lp.float.pivots] and observes them once in the
      [lp.float.probe_pivots] histogram. *)
end
