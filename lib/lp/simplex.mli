(** Exact linear programming over rationals.

    Two-phase primal simplex with Bland's anti-cycling fallback, computing
    over {!Bagcqc_num.Rat} so every answer is exact — the decidability
    results of the paper (Theorem 3.1, Theorem 3.6) reduce validity of
    (max-)information inequalities to LPs over the polyhedral cones Γn,
    Nn, Mn, and a floating-point solver could misclassify inequalities
    that hold with slack 0 (most interesting ones do).

    One production path: {!solve} runs the float-first hybrid (DESIGN.md
    §4f) — a floating-point simplex proposes a basis, the exact solution
    for it is rebuilt and verified in rationals, and any failure falls
    back to {!solve_exact}.  Every outcome is therefore exact; the float
    front end only changes which (equally optimal) vertex is reported and
    how fast.  {!solve_exact} is the sparse exact simplex: it ingests
    constraints as [(column, coefficient)] pairs, pivots only over the
    nonzero columns of the pivot row, and finds entering columns by block
    partial pricing — built for the entropic LPs of this project, whose
    elemental rows have at most 4 nonzeros.

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
(** Solves through the float-first hybrid with exact fallback.
    @raise Invalid_argument if a full-width row length differs from
    [num_vars] or a sparse row mentions a column [>= num_vars]. *)

val solve_exact : problem -> outcome
(** The exact sparse simplex alone, no float front end: the hybrid's
    fallback, and the re-solve the cone drivers use when a certificate
    fails the exact [Certificate.check].  Same preconditions as
    {!solve}. *)

val solve_warm : ?warm:int array -> problem -> outcome * int array option
(** {!solve} extended for cutting-plane loops: [?warm] is the basis
    returned by a previous [solve_warm] on a related problem sharing
    the column layout of its common rows (see {!Fsimplex.propose}), and
    the returned basis is the one the hybrid pipeline accepted after
    exact repair ([None] on an exact fallback, which exposes no basis).
    Verdicts are identical to {!solve}. *)

val solve_result : problem -> (outcome, Bagcqc_error.t) result
(** {!solve} with internal invariant violations (a pivoting bug making a
    bounded phase-1 objective look unbounded, …) reified as a typed
    [Error] instead of an exception.  Caller-precondition violations
    still raise [Invalid_argument]. *)

val feasible : num_vars:int -> constr list -> Rat.t array option
(** [feasible ~num_vars cs] is a point of the polyhedron
    [{x >= 0 | cs}] if one exists. *)

val maximize : problem -> outcome
(** Same problem record, but the objective is maximized.  The reported
    optimal value is the maximum. *)

val pivot_count : unit -> int
(** Monotonically increasing count of Gaussian pivots performed by any
    solver {e on the calling domain} since that domain started.
    Instrumentation reads deltas around a solve; the odometer is
    per-domain ([Domain.DLS]) and never reset, so a delta window is never
    polluted by another domain's pivots. *)
