(** Finite relations (sets of fixed-arity tuples) and the special relation
    classes of the paper.

    A {e V-relation} [P ⊆ D^V] (Section 3.1) is a relation whose columns
    are indexed by the variables of a query; we index columns by integers
    [0 .. arity-1], matching {!Bagcqc_entropy.Varset} masks.  The classes
    from Definition 3.3 / Appendix B (Table 1):

    - {e product} relations [∏ₓ Sₓ] — entropy is modular;
    - {e step} relations [P_W] (two rows) — entropy is the step function [h_W];
    - {e normal} relations — domain products of step relations,
      equivalently [{ψ·f}] images of products — entropy is normal;
    - {e domain products} [P₁ ⊗ P₂] — entropies add;
    - {e totally uniform} relations (Definition 4.5) — every marginal of
      the uniform distribution is uniform. *)

open Bagcqc_num
open Bagcqc_entropy

type t

val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val of_list : arity:int -> Value.t array list -> t
(** @raise Invalid_argument if some row has the wrong length. *)

val of_int_rows : arity:int -> int list list -> t
(** Convenience: rows of machine integers. *)

val to_list : t -> Value.t array list
(** Rows in a deterministic (lexicographic) order, as fresh arrays:
    mutating one does not change the relation. *)

val add : Value.t array -> t -> t
val mem : Value.t array -> t -> bool
val equal : t -> t -> bool
val union : t -> t -> t
(** @raise Invalid_argument on arity mismatch. *)

val project : int array -> t -> t
(** Generalized projection [Π_φ] (Section 3.1): [project phi p] has arity
    [Array.length phi] and rows [fun j -> row.(phi.(j))].  Repeated and
    permuted columns are allowed, e.g. [Π_{xxy}].
    @raise Invalid_argument if an index is out of range. *)

val project_set : Varset.t -> t -> t
(** Standard projection [Π_X] onto the columns in [X], in increasing
    column order. *)

(** {2 Constructions (Definition 3.3, Definition B.1, Section 3.2)} *)

val product : Value.t list list -> t
(** [product [s0; s1; ...]] is the product relation [S₀ × S₁ × ...]. *)

val product_of_sizes : int list -> t
(** [product_of_sizes [n0; ...]] is [[n0] × [n1] × ...] over integer
    domains [{0..nᵢ-1}]. *)

val step_relation : n:int -> Varset.t -> t
(** The two-row relation [P_W] realizing the step function [h_W]: rows
    agree on the columns in [W] and differ elsewhere.
    @raise Invalid_argument if [W] is the full column set. *)

val domain_product : t -> t -> t
(** [P₁ ⊗ P₂] (Definition B.1): rows [{f ⊗ g}], entropies add.
    @raise Invalid_argument on arity mismatch. *)

val of_normal_steps : n:int -> (Varset.t * int) list -> t
(** The normal relation [P_{W₁} ⊗ ... ⊗ P_{Wₘ}] realizing the normal
    entropic function [Σ cᵢ·h_{Wᵢ}] with positive integer multiplicities
    [cᵢ] (each [Wᵢ] repeated [cᵢ] times).
    @raise Invalid_argument on non-positive multiplicities. *)

val normal_of_map : psi:Varset.t array -> t -> t
(** [normal_of_map ~psi p] is [{ψ·f | f ∈ p}] (Definition 3.3): output
    column [j] holds the tuple of [f]'s values on the columns [psi.(j)].
    Applied to a product relation this produces a normal relation. *)

(** {2 Statistics (Definition 4.5, Lemma 4.6)} *)

val marginal_counts : t -> Varset.t -> (Value.t array * int) list
(** Fiber sizes of the projection onto [X]. *)

val is_totally_uniform : t -> bool
(** Every marginal of the uniform distribution on [P] is uniform. *)

val degree : t -> y:Varset.t -> x:Varset.t -> int option
(** [degree p ~y ~x] is the common degree [deg_P(Y|X)] when it is
    well-defined (all [X]-fibers have the same number of distinct
    [Y]-projections — guaranteed for totally uniform [P] by Lemma 4.6),
    [None] otherwise.  [deg_P(Y|X) = |Π_{XY}(P)| / |Π_X(P)|] then. *)

(** {2 Entropy} *)

val entropy_float : t -> Varset.t -> float
(** Entropy in bits of the [X]-marginal of the uniform distribution on
    the relation (Section 3.1: "the entropy of a relation"). *)

val entropy_exact : t -> Varset.t -> Logint.t option
(** Exact entropy [log |Π_X(P)|], available when the [X]-marginal is
    uniform (in particular for every [X] when the relation is totally
    uniform). *)

val entropy_logint : t -> Varset.t -> Logint.t
(** Exact marginal entropy of the uniform distribution on any relation:
    [H(X) = log|P| − (1/|P|)·Σ_t c_t·log c_t] over the [X]-marginal fiber
    sizes [c_t] — a formal sum of logarithms, comparable exactly.  Agrees
    with {!entropy_exact} when that is defined and with {!entropy_float}
    up to rounding. *)

val pp : Format.formatter -> t -> unit
