(** Exact linear programming over rationals.

    Two-phase primal simplex with Bland's anti-cycling fallback, computing
    over {!Bagcqc_num.Rat} so every answer is exact — the decidability
    results of the paper (Theorem 3.1, Theorem 3.6) reduce validity of
    (max-)information inequalities to LPs over the polyhedral cones Γn,
    Nn, Mn, and a floating-point solver could misclassify inequalities
    that hold with slack 0 (most interesting ones do).

    One engine (DESIGN.md §4f): {!solve} is a sparse exact simplex.  It
    ingests constraints as [(column, coefficient)] pairs, pivots only
    over the nonzero columns of the pivot row, and finds entering
    columns by block partial pricing — built for the entropic LPs of
    this project, whose elemental rows have at most 4 nonzeros.

    All variables are implicitly constrained to be non-negative; callers
    model free variables by splitting into differences (none of the cones
    used in this project need that). *)

open Bagcqc_num

type op = Lp_layout.op = Le | Ge | Eq

type constr = Lp_layout.constr
(** One linear constraint [row · x op rhs].  Stored sparsely regardless of
    how it was built. *)

type problem = Lp_layout.problem = {
  num_vars : int;
  (** Objective to {b minimize}. *)
  objective : Rat.t array;
  constraints : constr list;
}

type outcome =
  | Optimal of Rat.t * Rat.t array  (** optimal value and a primal solution *)
  | Unbounded
  | Infeasible

val constr : Rat.t array -> op -> Rat.t -> constr
(** Full-width row of length [num_vars]; zero coefficients are dropped on
    ingestion. *)

val sparse_constr : (int * Rat.t) list -> op -> Rat.t -> constr
(** Sparse row as [(column, coefficient)] pairs in any order; columns not
    mentioned are zero.
    @raise Invalid_argument on a negative or duplicated column. *)

val solve : problem -> outcome
(** Minimizes the objective over [{x >= 0 | constraints}], exactly.
    @raise Invalid_argument if a full-width row length differs from
    [num_vars] or a sparse row mentions a column [>= num_vars]. *)

val feasible : num_vars:int -> constr list -> Rat.t array option
(** [feasible ~num_vars cs] is a point of the polyhedron
    [{x >= 0 | cs}] if one exists. *)

val maximize : problem -> outcome
(** Same problem record, but the objective is maximized.  The reported
    optimal value is the maximum. *)

val pivot_count : unit -> int
(** Monotonically increasing count of Gaussian pivots performed by
    {!solve} and the float probe ({!Fsimplex.Tableau}) {e on the calling
    domain} since that domain started.
    Instrumentation reads deltas around a solve; the odometer is
    per-domain ([Domain.DLS]) and never reset, so a delta window is never
    polluted by another domain's pivots. *)
