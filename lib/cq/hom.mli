(** Homomorphism enumeration and counting — the semantics side of the
    paper.

    [hom(Q, D)] is the set of assignments [vars(Q) → dom(D)] mapping every
    atom into the database; its cardinality is the bag-set answer of the
    Boolean query (Section 2.2).  [hom(Q₂, Q₁)] between queries (viewed as
    structures) drives both directions of the paper's main reduction.

    The implementation is a backtracking join that always expands a
    most-constrained atom next (maximal number of already-bound variables,
    then smallest relation).

    When the pool ({!Bagcqc_par.Pool}) is sized above 1, full
    enumerations ([count] without [~limit], [answers], [contained_on])
    partition the root atom's candidate rows across worker domains —
    root selection is deterministic, so the slices partition the search
    space exactly and the parallel results equal the sequential ones. *)

open Bagcqc_relation

val count : ?limit:int -> Query.t -> Database.t -> int
(** Number of homomorphisms from the query's {e body} to the database
    (head variables are ignored; this is [|hom(Q,D)|] for the Boolean
    version of [Q]).  With [~limit], stops early and returns [limit] once
    that many are found — use for existence checks on large instances. *)

val exists : Query.t -> Database.t -> bool

val enumerate : Query.t -> Database.t -> Value.t array list
(** All homomorphisms, each an array indexed by query variable. *)

val answers : Query.t -> Database.t -> (Value.t array * int) list
(** Bag-set semantics (Section 2.2): the function [d ↦ |Q(D)[d]|],
    restricted to its (finite) support, as pairs of head-tuple and
    multiplicity. *)

val contained_on : Query.t -> Query.t -> Database.t -> bool
(** [contained_on q1 q2 d]: does [q1(d) ≤ q2(d)] hold pointwise under
    bag-set semantics on this particular database?  (Used to refute
    containment with explicit witnesses, and in randomized tests.)
    @raise Invalid_argument if head lengths differ. *)

val count_coded : ?limit:int -> Query.t -> int array array array -> int
(** [count_coded q rows] is [|hom(Q, D)|] (head variables ignored) for
    the database [D] given on integer codes: [rows.(i)] is the relation
    of [q]'s [i]-th atom, its tuples over codes [≥ 0], equal codes for
    equal values; atoms of one relation share one array.  [~limit] as
    in {!count}.  The search is {!enumerate_between}'s, with an index on
    one bound position for atoms with many rows; it counts one
    [hom.enumerations] and opens one [hom.enumerate] span, and never
    fans out over the pool.
    @raise Invalid_argument if [rows] does not have one entry per atom,
    or a row's length is not its atom's arity. *)

(** {2 Homomorphisms between queries}

    Eq. 8 needs [hom(Q₂, Q₁)] with both queries as structures (heads
    ignored).  These two functions search it directly on variable
    indices, with no database: [qb]'s domain is its variables, as in
    [Database.canonical qb] (which names each by its distinct name,
    see {!Query.make}).  Each call
    counts one [hom.enumerations] and opens one [hom.enumerate] span;
    it never fans out over the pool. *)

val count_between : Query.t -> Query.t -> int
(** [count_between qa qb] is [|hom(Qa, Qb)|], counted through the same
    search as {!enumerate_between} without building the list.
    @raise Invalid_argument as {!enumerate_between}. *)

val enumerate_between : Query.t -> Query.t -> int array list
(** The homomorphisms themselves, as variable maps
    [vars(qa) → vars(qb)], in the order {!enumerate} lists them for
    [qa] on [Database.canonical qb]: an atom of [qa] takes [qb]'s atoms
    of its relation in order of their argument names, position by
    position, and the atom expanded next is the one with the most bound
    positions (ties to fewer candidate atoms, then to the earlier atom).
    Eq. 8's sides follow this order.
    @raise Invalid_argument if a relation of [qa] occurs in [qb] with
    another arity. *)
