(** Tree decompositions, junction trees, and the expression [E_T].

    Definitions from the paper (Definition 2.6, Section 3.1):
    a tree decomposition of a query is a forest of bags satisfying running
    intersection and atom coverage; a query is {e acyclic} if some tree
    decomposition uses only atom variable-sets as bags; a {e junction
    tree} of a chordal query is a tree decomposition whose bags are the
    maximal cliques of the Gaifman graph; a decomposition is {e simple} if
    adjacent bags share at most one variable, {e totally disconnected} if
    they share none.

    [E_T] is the paper's "remarkable formula" (Eq. 7):
    [E_T(h) = Σ_t h(χ(t) | χ(t) ∩ χ(parent t))], independent of the
    choice of roots; equivalently
    [Σ_t h(χ(t)) − Σ_{(t,t')∈edges} h(χ(t) ∩ χ(t'))]. *)

open Bagcqc_entropy

type t

val make : bags:Varset.t array -> edges:(int * int) list -> t
(** @raise Invalid_argument if [edges] mention nodes out of range or
    contain a cycle (the node graph must be a forest). *)

val bags : t -> Varset.t array
val tree_edges : t -> (int * int) list
val n_nodes : t -> int
val width : t -> int
(** Max bag size minus one. *)

val is_valid_for : Query.t -> t -> bool
(** Running intersection + coverage of every atom (Definition 2.6). *)

val is_simple : t -> bool
val is_totally_disconnected : t -> bool

val et : t -> Cexpr.t
(** Eq. 7, rooting each forest component at its smallest node.  The
    result is a conditional linear expression; it is {e simple} in the
    Theorem 3.6 sense exactly when the decomposition is simple. *)

val et_via_separators : t -> Linexpr.t
(** The root-free form [Σ_t h(χ(t)) − Σ_{edges} h(χ(t)∩χ(t'))]; equal to
    the flattening of {!et} (checked by tests). *)

val et_inclusion_exclusion : t -> Linexpr.t
(** Lee's inclusion–exclusion form, Eq. (32) of the paper:
    [E_T = Σ_{∅≠S⊆nodes} (−1)^(1+#S) · CC(T∩S) · h(χ(S))] where
    [χ(S) = ⋂_{t∈S} χ(t)] and [CC(T∩S)] counts the connected components
    of the subgraph of [T] induced by the nodes whose bag meets
    [⋃_{t∈S} χ(t)].  Exponential in the number of nodes; equal to {!et}
    on valid tree decompositions (checked by tests). *)

(** {2 Construction} *)

val prune : t -> t
(** Remove redundant nodes: while some bag is contained in an adjacent
    bag, contract it into that neighbour.  Preserves validity, [E_T]
    evaluates the same on the pruned decomposition (the removed node
    contributes [h(χ(t)|χ(t)) = 0]). *)

val junction_tree : Graph.t -> t option
(** Maximal cliques of a chordal graph, joined by a maximum-weight
    spanning forest on separator sizes (only positive separators are
    joined, so distinct connected components stay distinct trees).
    [None] if the graph is not chordal.  A reference for {!of_query}. *)

val join_tree : Query.t -> t option
(** GYO reduction: [Some] of a tree decomposition whose bags are atom
    variable-sets iff the query is α-acyclic.  A reference for
    {!is_acyclic}. *)

val clique_tree : Query.t -> (t * bool) option
(** The one decomposition pass: a maximum-cardinality search over the
    Gaifman graph ({!Graph.clique_tree}).  [None] if the query is not
    chordal; else [Some (t, acyclic)], where [t] is a junction tree (its
    bags the maximal cliques in ascending mask order, one tree per
    connected component) and [acyclic] tells whether every maximal
    clique lies inside an atom, which for a chordal query is
    α-acyclicity (Beeri et al. 1983).  An acyclic query's maximal
    cliques are its maximal atoms, the bags [prune] leaves of
    {!join_tree}.  [E_T] reads the same on every clique tree of a
    chordal graph, since they share their bags and, with multiplicity,
    their separators. *)

val is_acyclic : Query.t -> bool

val of_query : Query.t -> t
(** A valid tree decomposition for any query: the clique tree of the
    Gaifman graph, after a min-fill triangulation if the graph is not
    chordal. *)

val pp : Format.formatter -> t -> unit
