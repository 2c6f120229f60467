(** Conjunctive query containment under bag-set semantics via information
    inequalities — the paper's core contribution.

    The pipeline, following Sections 3–4 and Appendix E:

    + associate to [(Q₁, Q₂)] the max-information inequality of Eq. (8),
      [h(vars Q₁) ≤ max_{T ∈ TD(Q₂)} max_{φ ∈ hom(Q₂,Q₁)} (E_T ∘ φ)(h)];
    + if the inequality is valid over the Shannon cone [Γn] it is valid
      over [Γ*n], hence [Q₁ ⊑ Q₂] (Theorem 4.2) — answer {e contained};
    + if it is refuted by a {e normal} entropic function, realize that
      function as a normal relation [P] (a domain product of two-row step
      relations), project to the annotated database [Π_Q₁(P)] (Eq. 4 +
      Theorem 4.4's annotation), take enough domain-product copies, and
      {e verify} [|P| > |hom(Q₂, Π_Q₁(P))|] by explicit counting —
      answer {e not contained} with a checked witness (Fact 3.2);
    + otherwise answer {e unknown}.

    When [Q₂] is chordal with a simple junction tree, Theorem 3.6(ii)
    guarantees step 3 succeeds whenever step 2 fails, so the procedure is
    a decision procedure (Theorem 3.1).  Soundness of both definitive
    answers is unconditional. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq

type witness = {
  p : Relation.t;
      (** the witnessing V-relation; its database [Π_Q₁(P)] is
          {!witness_db} *)
  card_p : int;     (** [|P| ≤ |hom(Q₁, Π_Q₁(P))|] *)
  hom2 : int;       (** [|hom(Q₂, Π_Q₁(P))| < card_p] — verified by
                        counting *)
}

type verdict =
  | Contained of Certificate.t
      (** proved by Theorem 4.2 over the Shannon cone; the certificate
          re-derives Eq. 8's validity by exact arithmetic alone
          ({!Bagcqc_entropy.Certificate.check}), independent of the LP
          solver and the engine cache *)
  | Not_contained of witness  (** explicit counterexample, verified *)
  | Unknown of { reason : string; refuter : Polymatroid.t option }

type query_class =
  | Acyclic_simple   (** acyclic with a simple join tree: decidable *)
  | Chordal_simple   (** chordal with a simple junction tree: decidable
                         (Theorem 3.1) *)
  | Acyclic          (** acyclic, junction tree not simple: Eq. 8 is
                         necessary and sufficient (Theorem 2.7) but its
                         validity over [Γ*n] is open *)
  | Chordal          (** chordal, not simple *)
  | General          (** tree decompositions come from a triangulation;
                         Eq. 8 is only a sufficient condition *)

val classify : Query.t -> query_class
(** Classification of the {e containing} query [Q₂]. *)

val eq8 : ?dedup:bool -> ?decs:Treedec.t list -> Query.t -> Query.t -> Maxii.t
(** The max-information inequality of Eq. (8) for [Q₁ ⊑ Q₂], with one side
    [(E_T ∘ φ)] per tree decomposition [T] and homomorphism
    [φ : Q₂ → Q₁].  [decs] defaults to the canonical decomposition of
    [Q₂] ({!Bagcqc_cq.Treedec.of_query}); per the paper's remark after
    Theorem 4.4, a single junction tree suffices for the necessity
    direction, and fewer decompositions only make the sufficient test
    more conservative.  [dedup] (default true) removes syntactically equal
    sides — an optimization only, the max is insensitive to duplicates.
    @raise Invalid_argument if either query is not Boolean. *)

val decide : ?max_factors:int -> Query.t -> Query.t -> verdict
(** [decide q1 q2] checks [q1 ⊑ q2] (both Boolean; duplicate atoms are
    removed first, which is sound under bag-set semantics).
    [max_factors] (default 14) bounds the witness search: the candidate
    relation is a domain product of at most that many two-row step
    relations, i.e. at most [2^max_factors] rows.

    A fresh decision enumerates hom([q2], [q1]) once.  When there is no
    homomorphism ([k = 0] sides in Eq. 8), the max is empty, the zero
    function refutes it, and neither cone nor the witness search runs:
    the answer is [Not_contained] with the witness
    {!witness_from_normal} realizes from that zero refuter, the
    one-row [P] with [card_p = 1] and [hom2 = 0], and no database is
    built.  [Π_q1(P)] is [q1]'s
    canonical database with its values renamed, so [hom(q2, Π_q1(P))]
    is empty because [hom(q2, q1)] is (Chandra–Merlin); [hom2] is
    recorded without a count.  Such a decision opens the stage spans
    [eq8] and [witness] under [containment.decide]; a decision with
    [k > 0] opens [eq8], [maxii] and, on a normal refuter, [witness].

    Verdicts are memoized in the engine's decision memo
    ({!Bagcqc_engine.Solver.Memo}) under [(max_factors, q1, q2)] after
    de-duplication, variable names included: a repeated check returns
    the same (immutable) verdict without Eq. 8 or either cone, and
    counts a [solver.cache.hits].  {!Bagcqc_engine.Solver.clear} empties
    the memo; a decision that raises caches nothing.
    @raise Invalid_argument if either query is not Boolean, or if a
    relation has one arity in [q1] and another in [q2]
    ({!Query.arity_clash}). *)

val decide_result :
  ?max_factors:int -> Query.t -> Query.t -> (verdict, Bagcqc_error.t) result
(** {!decide} with internal invariant violations anywhere in the pipeline
    (simplex phase-1 anomalies, LP-duality disagreements, junction-tree
    failures on chordal graphs) reified as a typed [Error].
    Caller-side precondition failures still raise [Invalid_argument]. *)

val decide_many : ?max_factors:int -> (Query.t * Query.t) list -> verdict list
(** Decide a batch of containment instances concurrently over the domain
    pool ({!Bagcqc_par.Pool}); order is preserved and each verdict equals
    what {!decide} returns on that pair (per-instance solver counters
    included — each instance runs the sequential pipeline on one
    worker, and repeated pairs are decided once through the memo's
    in-flight dedup).  This is the engine behind [check --batch]. *)

val decide_with_heads : ?max_factors:int -> Query.t -> Query.t -> verdict
(** Containment for queries with head variables, via the Boolean
    reduction of Lemma A.1.
    @raise Invalid_argument if head lengths differ. *)

val contained_set : Query.t -> Query.t -> bool
(** Containment under classical {e set} semantics (Chandra–Merlin 1977):
    [Q₁ ⊑_set Q₂] iff a homomorphism [Q₂ → Q₁] exists.  Provided for
    contrast — set containment is NP-complete and decidable, bag
    containment is the paper's open problem; e.g. [R(x,y)] and
    [R(x,y),R(x,z)] are set-equivalent but bag-incomparable one way. *)

val decide_bag_bag : ?max_factors:int -> Query.t -> Query.t -> verdict
(** Containment under {e bag-bag} semantics (duplicate tuples in the
    database), via the id-attribute reduction to bag-set semantics
    (Section 2.2 / {!Bagcqc_cq.Bagdb.lift_query}).  Note duplicate atoms
    are {e not} removed here — they matter under bag-bag semantics. *)

val witness_from_normal :
  ?max_factors:int -> Query.t -> Query.t -> Polymatroid.t -> witness option
(** Realize a normal refuter of Eq. 8 as a verified witness: scale its
    step decomposition to integers, realize [k] domain-product copies for
    growing [k], and stop at the first [k] whose induced database
    verifies [|P| > |hom(Q₂, Π_Q₁(P))|] ({!count_normal}); [P] itself
    is built only for that [k].  [None] if the bound [max_factors] is
    exhausted (or the function is not normal). *)

val witness_db : Query.t -> witness -> Database.t
(** [witness_db q1 w] is [Π_q1(P)] for [P = w.p], with Theorem 4.4's
    value annotation: the database on which [w]'s counts were taken. *)

val count_normal :
  ?limit:int -> Query.t -> Query.t -> (Varset.t * int) list -> int
(** [count_normal q1 q2 steps] is [|hom(q2, Π_q1(P))|] (annotated) for
    [P = Relation.of_normal_steps ~n:(Query.nvars q1) steps], capped at
    [limit] as in {!Bagcqc_cq.Hom.count}: the count
    {!witness_from_normal} takes, on integer codes, with neither [P] nor
    the database built.
    @raise Invalid_argument as {!Bagcqc_relation.Relation.of_normal_steps},
    or if a relation has one arity in [q1] and another in [q2]. *)

val verify_witness :
  ?annotate:bool -> Query.t -> Query.t -> Relation.t -> (int * int) option
(** [verify_witness q1 q2 p] checks Fact 3.2 directly: [Some (|P|, m)]
    with [m = |hom(q2, Π_q1(P))| < |P|] if [p] witnesses non-containment,
    [None] otherwise.  [annotate] (default true) applies Theorem 4.4's
    value annotation first — itself sound, since the annotated relation is
    also a V-relation; pass [false] to test the plain projection the
    examples of the paper compute by hand.
    @raise Invalid_argument if [p]'s arity differs from [q1]'s variable
    count. *)

val scale_steps : (Varset.t * Rat.t) list -> (Varset.t * int) list
(** Clear denominators: multiply a rational step decomposition by the
    least common denominator, returning positive integer multiplicities
    (dropping zero terms).  Refutation is scale-invariant, so the scaled
    function refutes whatever the original refuted. *)
