(** The Eq. 8 front end as it was built before the one-pass
    decomposition, kept as the reference that the production path is
    held to (the [eq8] fuzz suite and the tests).

    - The decomposition: the GYO join tree if the query is α-acyclic,
      else the Kruskal junction tree of the Gaifman graph, after a
      min-fill triangulation if the graph is not chordal.
    - Eq. 8's plain sides: [E_T] renamed per homomorphism as a [Cexpr],
      deduplicated on its flattened [Linexpr], then flattened again
      with [− h(V)] by {!Bagcqc_entropy.Maxii.conditional}.
    - The witness count: [Hom.count] on the annotated database built
      from the relation [P] itself. *)

open Bagcqc_entropy
open Bagcqc_cq

val of_query : Query.t -> Treedec.t
val is_acyclic : Query.t -> bool
(** GYO: {!Bagcqc_cq.Treedec.join_tree} succeeds. *)

val classify : Query.t -> Bagcqc_core.Containment.query_class
(** Three passes: GYO, {!Bagcqc_cq.Graph.is_chordal}, and {!of_query}'s
    simplicity. *)

val applicable : Query.t -> Bagcqc_core.Witness.kind option
(** Theorem 3.4's witness class from the join tree, else the junction
    tree of a chordal Gaifman graph. *)

val sides : Query.t -> Query.t -> Linexpr.t list
(** The plain sides of Eq. 8 for [q1 ⊑ q2], in order, over {!of_query}'s
    decomposition of [q2].  @raise Invalid_argument as
    {!Bagcqc_core.Containment.eq8}. *)

val count_normal :
  ?limit:int -> Query.t -> Query.t -> (Varset.t * int) list -> int
(** [Hom.count ?limit q2] on [Database.of_vrelation ~annotate:true q1]
    of [Relation.of_normal_steps ~n:(Query.nvars q1) steps]. *)
