(** Shared LP ingestion for the solvers of this library.

    {!Simplex} (exact sparse), {!Fsimplex} (floating-point basis
    proposer) and {!Repair} (exact basis repair) all normalize problems
    through this one module, so a simplex {e basis} — an array mapping
    each row to the column basic in it — means exactly the same thing to
    all of them.  The column layout contract:

    - columns [0, num_vars) are the structural variables;
    - then one slack/surplus column per inequality row ([Le]: +1 slack,
      [Ge]: −1 surplus), assigned in row order;
    - then, starting at [art_start], one artificial column per [Ge]/[Eq]
      row, in row order;
    - rows are flipped to a non-negative right-hand side before columns
      are assigned ([Le] ↔ [Ge] under negation).

    Callers outside [lib/lp] should use the re-exports in {!Simplex};
    this interface exists for the solver implementations (and for test
    oracles that must lay problems out the same way). *)

open Bagcqc_num

type op = Le | Ge | Eq

val pivot_count : unit -> int
(** Per-domain pivot odometer shared by every solver; see
    {!Simplex.pivot_count} for the public contract. *)

val note_pivot : unit -> unit

type constr = {
  cols : int array;  (** strictly increasing column indices *)
  vals : Rat.t array;  (** matching nonzero coefficients *)
  width : int;  (** declared dense width, [-1] if built sparsely *)
  op : op;
  rhs : Rat.t;
}

type problem = {
  num_vars : int;
  objective : Rat.t array;  (** objective to {b minimize} *)
  constraints : constr list;
}

val constr : Rat.t array -> op -> Rat.t -> constr
(** Full-width row; zero coefficients are dropped on ingestion. *)

val sparse_constr : (int * Rat.t) list -> op -> Rat.t -> constr
(** Sparse row as [(column, coefficient)] pairs in any order.
    @raise Invalid_argument on a negative or duplicated column. *)

val validate : problem -> unit
(** @raise Invalid_argument if a dense row length differs from
    [num_vars] or a sparse row mentions a column [>= num_vars]. *)

type layout = {
  m : int;  (** number of rows *)
  ncols : int;  (** structural + slack + artificial columns *)
  art_start : int;  (** first artificial column *)
  num_art : int;
  rows_data : (int array * Rat.t array * op * Rat.t) array;
      (** per row: sparse structural coefficients, op, rhs ([rhs >= 0]) *)
}

val layout_of : problem -> layout

val columns : layout -> num_vars:int -> (int * Rat.t) list array
(** Sparse column view of the full constraint matrix (structural, slack
    and artificial columns), indexed by column per the layout contract.
    Used by the repair step's reduced-cost checks. *)
