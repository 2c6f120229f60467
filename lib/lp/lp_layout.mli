(** LP ingestion for the exact simplex: the problem representation,
    its normalized row/column layout, and the per-domain pivot odometer
    the float probe ({!Fsimplex}) feeds as well.  The column layout
    contract:

    - columns [0, num_vars) are the structural variables;
    - then one slack/surplus column per inequality row ([Le]: +1 slack,
      [Ge]: −1 surplus), assigned in row order;
    - then, starting at [art_start], one artificial column per [Ge]/[Eq]
      row, in row order;
    - rows are flipped to a non-negative right-hand side before columns
      are assigned ([Le] ↔ [Ge] under negation).

    Callers outside [lib/lp] should use the re-exports in {!Simplex}. *)

open Bagcqc_num

type op = Le | Ge | Eq

val pivot_count : unit -> int
(** Per-domain pivot odometer shared by the exact simplex and the float
    probe; see {!Simplex.pivot_count} for the public contract. *)

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
