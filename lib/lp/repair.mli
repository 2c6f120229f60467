(** Exact repair of a float-proposed simplex basis.

    The "exact" half of the hybrid LP pipeline (DESIGN.md §4f): given a
    basis proposed by {!Fsimplex}, reconstruct the exact rational basic
    solution [x_B = B⁻¹b] and dual multipliers [y = B⁻ᵀc_B] (one
    Gaussian solve each, no pivoting) and accept the proposed verdict
    only if it verifies in exact arithmetic:

    - an optimal basis must have [x_B ≥ 0], every basic artificial at 0,
      and all nonbasic reduced costs [c_j − y·A_j ≥ 0] — then the value
      and point returned are the exact optimum, with [y] the optimality
      proof;
    - an infeasible (phase-1) basis must yield a [y] that is
      dual-feasible for the phase-1 LP over every column with [y·b > 0]
      — an exact Farkas certificate of infeasibility.

    No tolerances: every comparison is on [Rat].  A rejected repair
    costs the caller one exact fallback solve, never a wrong answer. *)

open Bagcqc_num

type verdict =
  | Repaired_optimal of Rat.t * Rat.t array
      (** exact optimal value and structural solution, interchangeable
          with an exact engine's [Optimal] *)
  | Repaired_infeasible
  | Rejected of string
      (** stable reason tag for the fallback taxonomy: ["unbounded"],
          ["bad_basis"], ["singular_basis"], ["infeasible_point"],
          ["artificial_nonzero"], ["dual_infeasible"],
          ["not_infeasible"] *)

val repair :
  Lp_layout.problem -> Lp_layout.layout -> Fsimplex.proposal -> verdict
(** [repair p (Lp_layout.layout_of p) proposal] — the layout must be the
    one the proposal's basis indices refer to. *)

(** {1 Exact Farkas rows from float multipliers} *)

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
