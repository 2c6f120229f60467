(** Variable-permutation symmetry of cone queries.

    A max-inequality over [Γn] (or [Nn]/[Mn]) is invariant under
    renaming the [n] variables: the elemental family is closed under
    permutation.  {!analyze} finds the canonical representative of an
    instance's orbit together with the stabilizer of that
    representative ([n ≤ 8]), sweeping only the renamings that order
    variables by a permutation-invariant signature — a product of
    block factorials, usually one candidate, at most [n!].  The lazy cone driver ({!Separation}) solves the
    canonical instance — so symmetric variants take the same path —
    and uses the stabilizer to add separation cuts
    orbit-at-a-time. *)

type perm = int array
(** [p.(i)] is the image of variable [i]; a bijection on [0..n-1]. *)

val max_vars : int
(** Largest [n] the candidate sweep runs at (8; at most [8! = 40320]
    candidates, when every variable has the same signature).  Above it
    {!analyze} returns the trivial analysis — only the orbit cuts are
    lost. *)

val identity : int -> perm
val is_identity : perm -> bool
val inverse : perm -> perm

val apply_mask : perm -> Varset.t -> Varset.t
val apply_expr : perm -> Linexpr.t -> Linexpr.t
val apply_desc : perm -> Elemental.desc -> Elemental.desc
(** Image of an elemental descriptor; the family is closed under
    permutation, so the result names an elemental inequality (with the
    [Submod] endpoints re-normalized to [i < j]). *)

val orbit_desc : cap:int -> perm list -> Elemental.desc -> Elemental.desc list option
(** Deduplicated orbit of a descriptor, in {!Elemental.desc_compare}
    order, or [None] as soon as it has more than [cap] members (the
    walk stops there). *)

type analysis = {
  n : int;
  to_canon : perm;  (** [π]: original variables → canonical variables *)
  canonical : Linexpr.t list;
      (** [π·es], side order preserved — the instance actually solved *)
  stabilizer : perm list;
      (** permutations fixing the canonical side multiset (≥ the
          identity); used for orbit cuts *)
}

val analyze : n:int -> Linexpr.t list -> analysis
(** Canonicalize an instance.  Deterministic: the canonical image is
    the least side-multiset under an exact term-list order
    ({!Bagcqc_num.Rat.compare} on coefficients), and ties pick the
    first minimizing permutation in a fixed enumeration.  Validity is
    preserved: [valid ~n es ⇔ valid ~n (analyze ~n es).canonical]. *)
