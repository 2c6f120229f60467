(** Exact Farkas rows from float multipliers: the repair step that turns
    an infeasibility claim of the float probe ({!Fsimplex.Tableau}) into
    an exact proof, or declines (DESIGN.md §4i). *)

open Bagcqc_num

type farkas_reject =
  | Rank_deficient
      (** The support rows do not pin the multipliers down uniquely. *)
  | Inconsistent
      (** No exact multipliers make the float-vanishing columns vanish
          with [y·b = −1]. *)
  | Negative_multiplier  (** The unique solution has some [y_i < 0]. *)
  | Negative_combination  (** The unique solution has some [(y·A)_j < 0]. *)

val farkas :
  num_vars:int ->
  ((int * Rat.t) list * Rat.t) array ->
  float array ->
  (Rat.t array * (int * Rat.t) list, farkas_reject) result
(** [farkas ~num_vars rows ys] repairs a float Farkas row of the system
    [{x ≥ 0, a_i·x ≤ b_i}] — for instance an
    {!Fsimplex.Tableau.Infeasible} claim — where [rows.(i) = (a_i, b_i)]
    (sparse, columns below [num_vars]) are the support rows and [ys.(i)]
    their float multipliers.  The columns where [Σ ys.(i)·a_i] vanishes
    in floats become exact equations [(y·A)_j = 0]; with [y·b = −1] they
    must determine [y] uniquely.

    [Ok (y, combination)]: exact [y ≥ 0] aligned with [rows], with
    [y·b = −1] and [combination], the nonzero entries of [y·A] in
    ascending column order, all positive — an exact proof that the
    system is infeasible.  Every clause is re-derived from [rows] in
    [Rat]; no tolerance decides acceptance. *)

val farkas_reject_name : farkas_reject -> string
(** Stable tag: ["rank_deficient"], ["inconsistent"],
    ["negative_multiplier"], ["negative_combination"]. *)
