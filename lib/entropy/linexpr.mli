(** Linear expressions over entropic terms: [E(h) = Σ_X c_X · h(X)].

    These are the objects on both sides of every information inequality in
    the paper (Eq. 2, Eq. 3), the tree-decomposition expression [E_T]
    (Eq. 7), and the building blocks of the reductions of Sections 4–5.
    Coefficients are exact rationals; terms are variable sets ({!Varset}). *)

open Bagcqc_num

type t

val zero : t

val term : ?coeff:Rat.t -> Varset.t -> t
(** [term x] is [h(x)]; [term ~coeff x] is [coeff · h(x)].  The [h(∅)]
    term is identically 0 and never stored. *)

val cond : ?coeff:Rat.t -> Varset.t -> Varset.t -> t
(** [cond y x] is the conditional entropy [h(y | x) = h(y ∪ x) − h(x)]
    (paper Sec. 3.2). *)

val mutual : ?coeff:Rat.t -> Varset.t -> Varset.t -> Varset.t -> t
(** [mutual a b x] is the conditional mutual information
    [I(a; b | x) = h(ax) + h(bx) − h(abx) − h(x)]. *)

val add_term : Varset.t -> Rat.t -> t -> t
(** [add_term x c e] is [e + c·h(x)]. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rat.t -> t -> t
val sum : t list -> t

val coeff : t -> Varset.t -> Rat.t
val support : t -> Varset.t list
(** Sets with nonzero coefficient, ascending mask order. *)

val terms : t -> (Varset.t * Rat.t) list

val iter : (Varset.t -> Rat.t -> unit) -> t -> unit
(** [iter f e] calls [f] on each term of {!terms}, in the same order,
    without building the list. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash consistent with {!equal} (expressions are stored
    canonically), suitable for [Hashtbl.Make]. *)

val eval : (Varset.t -> Rat.t) -> t -> Rat.t
(** [eval h e] is [e(h)] for a rational-valued set function. *)

val eval_general : zero:'a -> add:('a -> 'a -> 'a) -> scale:(Rat.t -> 'a -> 'a) ->
  (Varset.t -> 'a) -> t -> 'a
(** Evaluation into any module over the rationals (used with {!Logint}
    values for exact entropies of uniform relations). *)

val rename : (int -> int) -> t -> t
(** [rename f e] applies the variable substitution [f] to every term:
    [h(X) ↦ h(f(X))].  This is the paper's [E ∘ φ] (Sec. 4, Example 4.1);
    [f] need not be injective — collapsed variables merge, and terms
    mapped to [∅] vanish. *)

val max_var : t -> int
(** Largest variable index occurring (-1 for the zero expression). *)

val to_dense : n:int -> t -> Rat.t array
(** Coefficient vector indexed by mask, length [2^n]. *)

val pp : ?names:(int -> string) -> unit -> Format.formatter -> t -> unit
