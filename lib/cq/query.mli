(** Conjunctive queries over arbitrary relational vocabularies
    (paper Section 2.2).

    A query [Q(x) = A₁ ∧ ... ∧ A_k] has variables indexed [0 .. nvars-1];
    each atom [A_j = R(x_j)] carries a relation name and a function from
    attribute positions to variables (repeated variables are allowed, as
    the paper requires — its reduction in Section 5 constructs atoms such
    as [R₂(X₁,X₂,X₁,X₂,X₃)]).  Head variables are kept so that the
    Appendix A reduction to Boolean queries can be exercised; the core
    containment algorithms work on Boolean queries, as in the paper. *)

open Bagcqc_entropy

type atom = {
  rel : string;          (** relation symbol *)
  args : int array;      (** position [i] holds variable [args.(i)] *)
}
(** Queries are values: an atom's [args] must not be mutated once the
    atom has been passed to {!make} or returned by {!atoms} (decided
    pairs are memo keys, see {!Bagcqc_core.Containment.decide}). *)

type t

val make : ?head:int list -> nvars:int -> ?names:string array -> atom list -> t
(** [names] defaults to [X1, X2, …].
    @raise Invalid_argument if an argument or head variable is out of
    range, if [names] has the wrong length or names two variables alike,
    or if two atoms share a relation name with different arities. *)

val atom : string -> int list -> atom

val nvars : t -> int
val atoms : t -> atom list
val head : t -> int list
val is_boolean : t -> bool
val var_name : t -> int -> string
val var_names : t -> string array

val vocabulary : t -> (string * int) list
(** Relation symbols with arities, sorted by name. *)

val atom_vars : atom -> Varset.t
val all_vars : t -> Varset.t
(** [full (nvars q)] — every variable must occur in the body. *)

val dedup_atoms : t -> t
(** Remove duplicate atoms (sound under bag-set semantics, Sec. 2.2),
    keeping each first occurrence in order; [q] itself when nothing
    repeats.  Linear expected time. *)

val connected_components : t -> Varset.t list
(** Variable sets of the connected components of the query's hypergraph
    (isolated components of the paper's Section 5 construction). *)

val fresh_names : taken:string array -> string array -> string array
(** [fresh_names ~taken names] renames [names] apart from [taken] and
    from one another, appending primes where needed: [x] becomes [x'],
    [x''], …  Names already apart are kept. *)

val disjoint_union : t -> t -> t
(** Conjunction with disjoint variables: the paper's [n · A] construction
    ([Q₁ ∧ Q₂] after shifting [Q₂]'s variables); heads concatenate.
    [Q₂]'s variables are primed, with as many primes as it takes to keep
    every name distinct ({!fresh_names}). *)

val power : int -> t -> t
(** [power k q]: [k] disjoint copies of [q] (Lemma 2.2 of [21], used to
    reduce exponent-domination to domination).
    @raise Invalid_argument if [k < 1]. *)

val arity_clash : t -> t -> (string * int * int) option
(** A relation symbol that [a] and [b] use with different arities, with
    its arity in [a] and in [b]; [None] if their vocabularies agree.
    The first atom of [a] that clashes is reported.  Linear expected
    time. *)

val equal : t -> t -> bool
(** Structural equality (same indices, names ignored). *)

val identical : t -> t -> bool
(** Structural equality {e including} variable names: the queries print
    the same and build the same (name-annotated) databases. *)

val hash : t -> int
(** Non-negative hash over the variable count, relation names and
    argument indices, consistent with {!equal} and {!identical}. *)

val pp : Format.formatter -> t -> unit
(** Datalog-ish rendering, e.g. [Q(x) :- R(x,y), S(y,y)]. *)

val to_string : t -> string
