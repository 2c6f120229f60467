(** Rational-valued set functions [h : 2^V → Q] with [h(∅) = 0], and the
    cone structure of Section 3.2 of the paper.

    The chain studied by the paper is [Mn ⊊ Nn ⊊ Γ*n ⊊ Γn]:
    modular functions, normal functions (non-negative I-measure), entropic
    functions, polymatroids.  [Γ*n] is not computable; everything here
    concerns the three polyhedral members of the chain plus constructions
    of specific entropic points (step functions, parity). *)

open Bagcqc_num

type t

val make : int -> (Varset.t -> Rat.t) -> t
(** [make n f] tabulates [f] on all subsets of [full n].  [f empty] is
    forced to zero. *)

val n_vars : t -> int
val value : t -> Varset.t -> Rat.t
val cond : t -> Varset.t -> Varset.t -> Rat.t
(** [cond h y x = h(y ∪ x) − h(x)]. *)

val mutual : t -> Varset.t -> Varset.t -> Varset.t -> Rat.t
(** [mutual h a b x = I(a; b | x)]. *)

val equal : t -> t -> bool
val zero : int -> t
val add : t -> t -> t
val scale : Rat.t -> t -> t

val dominates : t -> t -> bool
(** [dominates g h] iff [g(X) ≥ h(X)] for every [X]. *)

(** {2 Constructions} *)

val step : int -> Varset.t -> t
(** The step function [h_W] at [W ⊊ V] (paper Sec. 3.2): 0 on subsets of
    [W], 1 elsewhere.  @raise Invalid_argument if [W] is the full set. *)

val modular_of_weights : Rat.t array -> t
(** [h(X) = Σ_{i∈X} wᵢ] for non-negative weights.
    @raise Invalid_argument on a negative weight. *)

val normal_of_steps : int -> (Varset.t * Rat.t) list -> t
(** Non-negative combination [Σ c_W · h_W] of step functions.
    @raise Invalid_argument on a negative coefficient or [W = V]. *)

val parity : t
(** The parity function on 3 variables (paper Example B.4): the entropy of
    [{(x,y,z) ∈ {0,1}³ | x ⊕ y ⊕ z = 0}] — entropic but not normal. *)

val uniform_step_max : Rat.t array -> t
(** The max-construction of Lemma C.2: [h(X) = max{aᵢ | i ∈ X}] for
    non-negative [aᵢ]; always a normal polymatroid. *)

(** {2 Predicates} *)

val is_polymatroid : t -> bool
(** Monotone and submodular (Shannon's basic inequalities, Eq. 5),
    checked on the elemental inequalities. *)

val is_modular : t -> bool
val is_normal : t -> bool
(** Non-negative I-measure; equivalently the Möbius inverse [g] satisfies
    [g(X) ≤ 0] for every [X ≠ V] (paper Fact B.7).  All of [g] comes
    from one superset Möbius transform: [n·2^(n−1)] subtractions, where
    {!mobius} on every set would take [O(3^n)]. *)

val is_entropic_known : t -> bool
(** Sound, incomplete membership test for [Γ*n]: true iff the function is
    normal (every normal function is entropic, Sec. 3.2).  Deciding
    membership in [Γ*n] in general is precisely the open problem the paper
    studies, so no complete test exists. *)

(** {2 Möbius / I-measure} *)

val mobius : t -> Varset.t -> Rat.t
(** The Möbius inverse [g(X) = Σ_{Y ⊇ X} (−1)^#(Y−X) h(Y)] (Eq. 33),
    by its definition: [2^(n−|X|)] terms. *)

val of_mobius : int -> (Varset.t -> Rat.t) -> t
(** Inverse transform: [h(X) = Σ_{Y ⊇ X} g(Y)]. *)

val normal_decomposition : t -> (Varset.t * Rat.t) list option
(** If [h] is normal, the canonical step decomposition
    [h = Σ_W c_W h_W] with [c_W = −g(W) ≥ 0] for [W ⊊ V], listing the
    [W] with [c_W > 0] in ascending mask order; [None] otherwise.  One
    transform, as for {!is_normal}. *)

(** {2 Interplay with expressions} *)

val eval : t -> Linexpr.t -> Rat.t
val eval_cexpr : t -> Cexpr.t -> Rat.t

val pp : ?names:(int -> string) -> unit -> Format.formatter -> t -> unit
