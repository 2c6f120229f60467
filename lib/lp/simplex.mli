(** Exact linear programming over rationals: the one LP layer.

    Two-phase primal simplex with Bland's anti-cycling fallback, computing
    over {!Bagcqc_num.Rat} so every answer is exact — the decidability
    results of the paper (Theorem 3.1, Theorem 3.6) reduce validity of
    (max-)information inequalities to LPs over the polyhedral cones Γn,
    Nn, Mn, and a floating-point solver could misclassify inequalities
    that hold with slack 0 (most interesting ones do).

    One representation and one engine (DESIGN.md §4f): the cone builders
    emit {!sparse_constr} rows into a {!problem}, and {!solve} runs a
    sparse exact simplex on it.  It pivots only over the nonzero columns
    of the pivot row and finds entering columns by block partial pricing
    — built for the entropic LPs of this project, whose elemental rows
    have at most 4 nonzeros.

    {b Ingestion order is a pivoting policy.}  {!solve} does not take the
    rows in the order the builder listed them: {!layout_of} first sorts
    them — [Le] rows, then [Ge], then [Eq]; within one op by right-hand
    side, then by column pattern (shorter first, then lexicographic),
    then by coefficients.  Row order fixes the slack/artificial column
    assignment and with it the pivot path, so two problems that list the
    same rows in different orders take the same pivots and report the
    same point, and a builder is free to list its rows however is
    convenient.

    Every solve is one [simplex.solve] span (attributes [rows], [vars],
    [cache:"miss"], and when tracing [pivots] and [outcome]) and is
    counted in [lp.solves]/[lp.pivots].

    All variables are implicitly constrained to be non-negative; callers
    model free variables by splitting into differences (none of the cones
    used in this project need that). *)

open Bagcqc_num

type op = Le | Ge | Eq

type constr = {
  cols : int array;  (** strictly increasing column indices *)
  vals : Rat.t array;  (** matching nonzero coefficients *)
  width : int;  (** declared dense width, [-1] if built sparsely *)
  op : op;
  rhs : Rat.t;
}
(** One linear constraint [row · x op rhs], stored sparsely regardless of
    how it was built.  Build it with {!constr} or {!sparse_constr}. *)

type problem = {
  num_vars : int;
  objective : Rat.t array;  (** objective to {b minimize} *)
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
    mentioned are zero, zero coefficients are dropped.
    @raise Invalid_argument on a negative or duplicated column. *)

val solve : problem -> outcome
(** Minimizes the objective over [{x >= 0 | constraints}], exactly.  A
    maximization is a solve of the negated objective.
    @raise Invalid_argument if a full-width row length differs from
    [num_vars] or a sparse row mentions a column [>= num_vars]. *)

val feasibility : num_vars:int -> constr list -> problem
(** [feasibility ~num_vars cs]: the pure feasibility problem over [cs],
    with a zero objective. *)

val feasible : problem -> Rat.t array option
(** The one feasibility entry point: [feasible p] is a point of the
    polyhedron [{x >= 0 | p.constraints}] if one exists.  [p] must be a
    pure feasibility problem (see {!feasibility}); it is solved as given.
    @raise Bagcqc_num.Bagcqc_error.Error if the simplex reports it
    unbounded, which a zero objective rules out (an invariant
    violation). *)

val pivot_count : unit -> int
(** Monotonically increasing count of Gaussian pivots performed by
    {!solve} and the float probe ({!Fsimplex.Tableau}) {e on the calling
    domain} since that domain started.
    Instrumentation reads deltas around a solve; the odometer is
    per-domain ([Domain.DLS]) and never reset, so a delta window is never
    polluted by another domain's pivots. *)

(** {2 Ingestion, for the float probe and the dense reference} *)

val note_pivot : unit -> unit
(** Advance {!pivot_count} by one: called once per pivot by every
    simplex that reports into the odometer. *)

val validate : problem -> unit
(** The row checks {!solve} runs first.
    @raise Invalid_argument as {!solve}. *)

type layout = {
  m : int;  (** number of rows *)
  ncols : int;  (** structural + slack + artificial columns *)
  art_start : int;  (** first artificial column *)
  num_art : int;
  rows_data : (int array * Rat.t array * op * Rat.t) array;
      (** per row, in ingestion order: sparse structural coefficients,
          op, rhs ([rhs >= 0]) *)
}
(** The column layout every exact tableau shares:
    - columns [0, num_vars) are the structural variables;
    - then one slack/surplus column per inequality row ([Le]: +1 slack,
      [Ge]: −1 surplus), assigned in row order;
    - then, starting at [art_start], one artificial column per [Ge]/[Eq]
      row, in row order;
    - rows are flipped to a non-negative right-hand side ([Le] ↔ [Ge]
      under negation) after they are sorted and before columns are
      assigned. *)

val layout_of : problem -> layout
(** Sort the rows into the ingestion order (above), flip them and lay
    out the columns. *)
