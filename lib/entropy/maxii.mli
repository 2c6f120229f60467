(** Max-information inequalities (Max-II, paper Eq. 3) and their decision
    problems (IIP, Max-IIP — Problems 2.4 and 2.5).

    A Max-II over [n] variables is [0 ≤ max_{ℓ∈[k]} Eℓ(h)]; it is valid
    if it holds for every entropic [h ∈ Γ*n].  Validity over [Γ*n] is not
    known to be decidable — that is the paper's central open problem — but:

    - validity over the Shannon cone [Γn] implies validity (soundness);
    - invalidity over the normal cone [Nn] implies invalidity, because
      every normal function is entropic (refutation soundness);
    - for the {e conditional} forms of Theorem 3.6
      ([q·h(V) ≤ max_ℓ Eℓ] with every [Eℓ] unconditioned, resp. simple)
      the two tests coincide and {!decide} is a decision procedure. *)

open Bagcqc_num

type t

type form =
  | General of Linexpr.t list
      (** arbitrary sides [Eℓ]; the inequality is [0 ≤ max_ℓ Eℓ(h)] *)
  | Conditional of { q : Rat.t; sides : Cexpr.t list }
      (** the Theorem 3.6 shape [q·h(V) ≤ max_ℓ Eℓ(h)] with conditional
          linear expressions [Eℓ] *)

val make : n:int -> form -> t
(** @raise Invalid_argument if a side mentions a variable [≥ n], or if a
    conditional form has [q ≤ 0]. *)

val general : n:int -> Linexpr.t list -> t
val conditional : ?plain:Linexpr.t list -> n:int -> q:Rat.t -> Cexpr.t list -> t
(** [plain], when given, is taken as the sides [to_linexpr e − q·h(V)]
    of the [Cexpr] sides, in order, so that they are not built twice
    (Eq. 8 builds them on integer terms).  The cones decide — and a
    certificate proves — the plain sides; the [Cexpr] sides only give
    {!shape}.
    @raise Invalid_argument as {!make}, or if the two lists differ in
    length. *)

val n_vars : t -> int
val form : t -> form

val sides : t -> Linexpr.t list
(** The sides as plain linear expressions ([Eℓ − q·h(V)] for the
    conditional form), so that the inequality is always [0 ≤ max_ℓ sideℓ].
    They are computed once, by {!make}. *)

val is_iip : t -> bool
(** Exactly one side ([k = 1]): an ordinary information inequality. *)

type shape = Unconditioned | Simple | Conditional_general | Unrestricted

val shape : t -> shape
(** Syntactic classification against Theorem 3.6's hypotheses.  Only
    [Conditional] forms can be [Unconditioned] or [Simple]. *)

type verdict =
  | Valid of Certificate.t
      (** valid over [Γn], hence over [Γ*n]; the attached Farkas
          certificate re-proves it by exact arithmetic alone
          ({!Certificate.check}) — no trust in the LP solver needed *)
  | Invalid of Polymatroid.t
      (** refuted by an explicitly {e entropic} function (a point of [Nn]
          or [Mn]); the attached function is normal *)
  | Unknown of Polymatroid.t
      (** refuted over [Γn] but not over [Nn]: the attached polymatroid
          counterexample may fail to be entropic, and the instance is
          outside the classes known to be decidable *)

val decide : t -> verdict
(** Sound decision procedure, complete on the Theorem 3.6 fragments: an
    [Unknown] verdict is impossible when {!shape} is [Unconditioned] or
    [Simple] (that is Theorem 3.6), and also whenever the refutation
    search over [Nn] happens to succeed.

    With the pool sized above 1 ({!Bagcqc_par.Pool.jobs}), the [Nn]
    refutation and the [Γn] certificate LPs run concurrently; the verdict
    is identical to the sequential path (only solver-effort counters may
    differ, because the [Γn] side is speculative). *)

val decide_result : t -> (verdict, Bagcqc_error.t) result
(** {!decide} with internal invariant violations (broken LP duality,
    Theorem 3.6 contradictions) reified as a typed [Error] instead of an
    exception. *)

val decide_many : t list -> verdict list
(** Decide a batch concurrently over the pool, each instance on the
    sequential path.  Equals [List.map decide] run at [jobs = 1] —
    verdicts {e and} per-instance solver counters included. *)

val valid_over : Cones.cone -> t -> (unit, Polymatroid.t) result
(** Validity over a single polyhedral cone. *)

val is_valid_over : Cones.cone -> t -> bool
(** Boolean-only validity; over [Γn] this avoids the expensive refuter
    extraction ({!Cones.valid_max_quick}). *)

val pp : ?names:(int -> string) -> unit -> Format.formatter -> t -> unit
