(** Undirected graphs on integer vertices, and the chordality toolkit.

    The paper's second main result hinges on graph structure: a query is
    {e chordal} if its Gaifman graph is chordal, and a {e junction tree}
    is a tree decomposition whose bags are the maximal cliques
    (Section 3.1).  Chordality is decided by maximum-cardinality search:
    a graph is chordal iff the MCS order reversed is a perfect
    elimination order. *)

open Bagcqc_entropy

type t

val make : int -> (int * int) list -> t
(** [make n edges]; self-loops are ignored, duplicates merged.
    @raise Invalid_argument on vertices outside [0..n-1]. *)

val n_vertices : t -> int
val neighbours : t -> int -> Varset.t
val has_edge : t -> int -> int -> bool
val edges : t -> (int * int) list

val gaifman : Query.t -> t
(** Vertices = query variables; edges join co-occurring variables.  Built
    from the atoms' variable masks, with no edge list. *)

val mcs_order : t -> int array
(** A maximum-cardinality search order (position [k] holds the k-th
    visited vertex). *)

val perfect_elimination_order : t -> int array option
(** A PEO if the graph is chordal ([Some] of an order [v₀.. v_{n-1}] where
    each [vᵢ]'s later neighbours form a clique), [None] otherwise. *)

val is_chordal : t -> bool

val maximal_cliques_chordal : t -> Varset.t list
(** The maximal cliques of a {e chordal} graph (linearly many), derived
    from a PEO.  @raise Invalid_argument if the graph is not chordal. *)

val clique_tree : t -> (Varset.t array * (int * int) list) option
(** One maximum-cardinality search: [None] if the graph is not chordal
    (Tarjan–Yannakakis zero fill-in test), else its maximal cliques in
    ascending mask order and the edges [(a, b)], [a < b], sorted, of a
    clique tree over them (Blair–Peyton).  Each connected component is
    its own tree: no edge has an empty separator.  Every clique tree of
    a chordal graph has the same separators, with multiplicity. *)

val is_clique : t -> Varset.t -> bool

val min_fill_triangulation : t -> t
(** A chordal supergraph via the min-fill heuristic (used to build valid —
    not necessarily optimal — tree decompositions of arbitrary queries). *)

val connected_components : t -> Varset.t list
