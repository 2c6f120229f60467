(** Floating-point simplex: the incremental probe tableau of the lazy
    Γn loop ({!Tableau}).  Its answers steer a cutting-plane loop and
    never decide a query; every LP a verdict rests on is solved by the
    exact {!Simplex.solve}. *)

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
