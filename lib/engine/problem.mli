(** Canonical LP problem IR of the solver engine.

    Every decision procedure in this repro bottoms out in "is this
    polyhedron empty / what is this optimum".  This module gives those
    systems one normal form, so a system's row order does not depend on
    how its builder happened to list the constraints:

    - rows are sparse [(column, coefficient)] forms with zero
      coefficients dropped, columns strictly increasing, and duplicate
      columns summed;
    - the row {e set} is sorted under a total order, so two problems that
      list the same constraints in different orders have the same
      {!rows_list};
    - every problem is a pure feasibility system (zero objective);
    - a [tag] names the cone/backend family that built the problem (it
      labels the [solver.solve] span). *)

open Bagcqc_num
open Bagcqc_lp

type row

val row : (int * Rat.t) list -> Simplex.op -> Rat.t -> row
(** Sparse row [pairs · x op rhs]; pairs may arrive unsorted, duplicate
    columns are summed, zero coefficients dropped.
    @raise Invalid_argument on a negative column. *)

type t

val make : tag:string -> num_vars:int -> row list -> t
(** Canonicalize.
    @raise Invalid_argument if a row column is [>= num_vars]. *)

val tag : t -> string
val num_vars : t -> int
val num_rows : t -> int

val rows_list : t -> ((int * Rat.t) list * Simplex.op * Rat.t) list
(** The canonical rows as [(pairs, op, rhs)] triples, in row order. *)

val to_simplex : t -> Simplex.problem
(** Lower to the solver's representation (zero objective, sparse
    constraints). *)
