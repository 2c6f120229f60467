(** The elemental Shannon inequalities generating [Γn].

    Monotonicity [h(V) − h(V∖i) ≥ 0] and elemental submodularity
    [I(i;j|W) ≥ 0]; every Shannon inequality is a non-negative
    combination of these (paper Sec. 3.2).  The family has
    [n + C(n,2)·2^(n−2)] members.

    A {!desc} names one member without materializing its expression,
    and {!eval_desc} evaluates it against a set function with at most 4
    lookups.  The lazy-separation cone driver ({!Separation}) scans the
    descriptors to find violated cuts, so it never pays for the
    [n²·2^(n−2)] expressions the full driver builds, and certificates
    ({!Certificate}) cite their inequalities by descriptor.  Only the
    reference oracle and the input generators materialize the family
    ({!list}, memoized per [n]). *)

open Bagcqc_num

(** {1 Descriptors} *)

type desc =
  | Mono of int  (** [h(V) − h(V∖i) ≥ 0] *)
  | Submod of int * int * Varset.t
      (** [I(i;j|W) ≥ 0] with [i < j] and [W ⊆ V∖{i,j}]. *)

val well_formed : n:int -> desc -> bool
(** [well_formed ~n d] iff [d] names a member of the family over [n]
    variables: [0 ≤ i < n] for [Mono i]; [0 ≤ i < j < n], [W ⊆ V] and
    [i, j ∉ W] for [Submod (i, j, W)].  O(1) — the certificate
    checker's ground truth that a cited inequality really is
    elemental. *)

val desc_compare : desc -> desc -> int
(** Total order on descriptors (for deterministic worklists). *)

val iter_descs : n:int -> (desc -> unit) -> unit
(** Iterate the family in a fixed deterministic order without
    materializing any expression.
    @raise Invalid_argument if [n] is negative or exceeds
    {!Varset.max_vars}. *)

val desc_count : n:int -> int
(** [n + C(n,2)·2^(n−2)] in O(1) — the number of descriptors
    {!iter_descs} visits. *)

val expr_of_desc : n:int -> desc -> Linexpr.t
(** Materialize one member. *)

val eval_desc : n:int -> (Varset.t -> Rat.t) -> desc -> Rat.t
(** [eval_desc ~n h d = Linexpr.eval h (expr_of_desc ~n d)] without
    allocating the expression — the separation oracle's inner loop. *)

(** {1 Building certificates} *)

val nonneg_decomp : n:int -> Varset.t -> desc list
(** [h(S) ≥ 0] as a unit-coefficient sum of elemental rows: the chain
    [h(S) = Σ_t h(i_t | i_1..i_{t−1})], each conditional entropy
    [h(i | B) = h(i | V∖i) + Σ_j I(i; j | B_j)] for [j] ascending over
    [V∖B∖{i}] and [B_j] growing.  A descriptor may repeat; empty for
    [S = ∅]. *)

val merge_descs : (desc * Rat.t) list -> (desc * Rat.t) list
(** Sort by {!desc_compare} and sum the multipliers of a repeated
    descriptor: the deterministic λ of a certificate. *)

(** {1 The family in order} *)

val descs : n:int -> desc list
(** The family in its one fixed order: monotonicity ascending in [i],
    then the submodularity block (memoized per [n]).
    @raise Invalid_argument like {!iter_descs}. *)

val list : n:int -> Linexpr.t list
(** [List.map (expr_of_desc ~n) (descs ~n)], memoized with it. *)
