(** The differential suites: each cross-checks a fast production path
    against an independent oracle.

    - [logint]: the three-stage exact {!Bagcqc_num.Logint.sign} against a
      slow common-denominator [Bigint.pow] oracle (when the exponents
      permit one — the seed algorithm, kept here as the reference),
      against the float-interval screen whenever it is decisive, and
      against algebraic sign laws (negation, cancellation, doubling,
      positive scaling).
    - [simplex]: the exact sparse simplex vs the dense oracle
      ({!Dense_simplex}) on random LPs — same status, equal optimal
      value, and each solver's point checked feasible and on-objective by
      exact arithmetic.
    - [float_vs_exact]: the production Γn, Nn and Mn decisions (Γn
      certificates from the float probe, repaired exactly) vs
      {!Bagcqc_entropy.Cones.Oracle} on cone instances (at Nn/Mn its
      exact LP over the generator rows, every refuter re-checked in the
      cone with every side at most −1).
    - [lazy_vs_full]: the production Γn decision (a cover side's
      certificate, else the lazy driver) and the lazy driver alone
      ({!Bagcqc_entropy.Separation}) vs {!Bagcqc_entropy.Cones.Oracle},
      on both the certificate and the quick path, with certificates and
      refuters checked exactly and every certificate corrupted once.
    - [decide]: the full containment pipeline at [jobs = 1] vs
      [jobs = 2] (sequential vs speculative-parallel control flow), plus
      the internal soundness oracles: a [Contained] certificate must
      re-verify ({!Bagcqc_entropy.Certificate.check}) and a
      [Not_contained] witness must actually separate the counts.
    - [parser]: {!Bagcqc_cq.Parser.parse_result} vs
      {!Reference_parser.parse_result} on near-grammar strings: the same
      query (heads, atoms in order, variable names) or the same error
      message; and accepted queries survive a print/reparse round trip.
    - [hom_between]: {!Bagcqc_cq.Hom.enumerate_between} (a search on
      variable indices) vs {!reference_between}: the same homomorphisms
      in the same order, [count_between] equal to their number, and
      [Invalid_argument] when a relation is used at two arities.
    - [eq8]: the Eq. 8 front end vs {!Reference_eq8} on the
      [hom_between] pairs, read as [(Q₂, Q₁)], with a random normal
      relation [P]: see {!check_eq8}. *)

open Bagcqc_cq

val all : Runner.t list
(** In fixed order: logint, simplex, float_vs_exact, lazy_vs_full,
    decide, parser, hom_between, eq8. *)

val reference_between : Query.t -> Query.t -> int array list
(** [Hom.enumerate] of [qa], as a Boolean query, on
    [Database.canonical qb], each homomorphism decoded back to [qb]'s
    variables by name: the general engine's answer that
    {!Bagcqc_cq.Hom.enumerate_between} must reproduce, order included. *)

val check_hom_between : Query.t * Query.t -> (unit, string) result
(** The [hom_between] check on one pair [(qa, qb)]. *)

val check_eq8 :
  ?steps:(Bagcqc_entropy.Varset.t * int) list ->
  Query.t -> Query.t -> (unit, string) result
(** The [eq8] check on [q1 ⊑ q2]: [q2]'s {!Bagcqc_cq.Treedec.of_query}
    is valid and has {!Reference_eq8.of_query}'s bags, flattened [E_T],
    simplicity and total disconnection; {!Bagcqc_cq.Treedec.is_acyclic},
    [Containment.classify] and [Witness.applicable] agree with the
    references; Eq. 8's plain sides equal {!Reference_eq8.sides} in
    order (or both queries' relations clash in arity and [eq8] raises);
    with [steps], {!Bagcqc_core.Containment.count_normal} equals
    {!Reference_eq8.count_normal}, both capped at [|P|]. *)

val check_parser : string -> (unit, string) result
(** The [parser] check on one string. *)

val find : string -> Runner.t option
