(** Deciding (max-)information inequalities over polyhedral cones
    [Γn ⊇ Nn ⊇ Mn] by exact linear programming — LPs built as sparse
    rows and handed straight to {!Bagcqc_lp.Simplex} — instrumented
    through named {!Bagcqc_obs.Metrics} counters ([lp.*], [cone.*]).

    This is the computational engine behind the paper's decidability
    results: Theorem 3.6 shows certain max-inequalities are "essentially
    Shannon" — valid over the entropic cone [Γ*n] iff valid over the
    Shannon cone [Γn] (or valid over [Nn] / [Mn] iff over [Γn]) — and
    "any essentially Shannon class is decidable, because [Γn] is
    polyhedral".

    A max-inequality [0 ≤ max_ℓ Eℓ(h)] is valid over a closed convex cone
    [K] iff the LP [{h ∈ K, Eℓ(h) ≤ −1 ∀ℓ}] is infeasible (by scale
    invariance, a point with [max_ℓ Eℓ < 0] can be scaled to gap 1).
    Failures return the witnessing point of [K]; for [Γn], successes
    additionally return a Farkas {!Certificate.t} that can be re-verified
    without the solver.

    One production path per cone, and one exact LP engine
    ({!Bagcqc_lp.Simplex.solve}, DESIGN.md §4f) under all of them: [Γn]
    is decided by the lazy separation driver ({!Separation}, DESIGN.md
    §4i), whose float probe only steers it, unless a cover side gets
    its certificate by construction first ({!Cover}, counted in
    [cone.cover.certs]).  [Nn] and [Mn] are conic hulls of finitely
    many generators (the step functions, the basic modular functions),
    so they are decided
    on the side-by-generator matrix: exact sign tests settle a side
    that is non-negative on every generator (valid) and a generator on
    which every side is negative (refuted by a multiple of it); only
    the rest solve the small refutation LP built from the same rows
    (counters [cone.presolve.valid], [cone.presolve.refuted],
    [cone.presolve.lp]).  The materialized Γn driver survives only as
    the reference {!Oracle} for the fuzz suites and the corpus audit. *)

open Bagcqc_lp

type cone =
  | Gamma   (** the Shannon cone [Γn] of all polymatroids *)
  | Normal  (** [Nn]: non-negative combinations of step functions *)
  | Modular (** [Mn]: non-negative modular functions *)

val elemental : n:int -> Linexpr.t list
(** The elemental Shannon inequalities generating [Γn] (see
    {!Elemental.list}, which memoizes the family per [n]). *)

(** {1 Decision procedures} *)

val valid_max_cert :
  cone -> n:int -> Linexpr.t list ->
  (Certificate.t option, Polymatroid.t) result
(** [valid_max_cert k ~n es] decides [∀h ∈ K. 0 ≤ max_ℓ es_ℓ(h)].
    [Ok (Some c)] proves validity with a Farkas certificate (always, for
    [Gamma]); [Ok None] states validity over [Normal] or [Modular],
    which carry no certificate.  [Error h] carries a point of [K] with
    [es_ℓ(h) < 0] for all [ℓ].  The empty max is (vacuously) invalid,
    witnessed by the zero function.
    @raise Invalid_argument if an expression mentions a variable [≥ n]. *)

val valid_max : cone -> n:int -> Linexpr.t list -> (unit, Polymatroid.t) result
(** {!valid_max_cert} with the certificate dropped. *)

val valid_max_quick : cone -> n:int -> Linexpr.t list -> bool
(** Like {!valid_max} but boolean only: no certificate packaging, and
    over [Γn] no refuter extraction. *)

val valid : cone -> n:int -> Linexpr.t -> (unit, Polymatroid.t) result
(** Validity of a single linear inequality [0 ≤ E(h)] over the cone. *)

val valid_shannon : n:int -> Linexpr.t -> bool
(** [valid_shannon ~n e] iff [0 ≤ e(h)] is a Shannon inequality (valid over
    [Γn]); a sound (and, for non-max linear inequalities with at most
    3 variables, complete) test of information-inequality validity. *)

val valid_shannon_many : n:int -> Linexpr.t list -> bool list
(** {!valid_shannon} on each expression, fanned out over the domain pool
    ({!Bagcqc_par.Pool}); results are in input order and identical to
    [List.map (valid_shannon ~n) es].  Structurally identical
    expressions are deduplicated before the fan-out, so a batch with
    repeats solves each distinct inequality once. *)

val normal_sparse : n:int -> Linexpr.t -> (int * Bagcqc_num.Rat.t) list
(** The [Nn] generator row of an expression: [(W, E(h_W))] for every
    step function [h_W], [W ⊊ V] indexed by its mask, zero coefficients
    dropped, ascending in [W]. *)

val max_to_convex : n:int -> Linexpr.t list -> Bagcqc_num.Rat.t array option
(** Theorem 6.1 of the paper, instantiated at the Shannon cone: a
    max-linear inequality [0 ≤ max_ℓ Eℓ] is valid over [Γn] iff there are
    [λℓ ≥ 0] with [Σλℓ = 1] such that the single {e linear} inequality
    [0 ≤ Σ λℓ·Eℓ] is valid over [Γn].  Returns those convex weights when
    they exist, [None] otherwise.  (Over [Γn] the weights are rational —
    the paper leaves rationality over [Γ*n] open.) *)

val shannon_certificate :
  n:int -> Linexpr.t -> (Elemental.desc * Bagcqc_num.Rat.t) list option
(** If [0 ≤ e(h)] is valid over [Γn], a Farkas certificate: pairs of
    elemental inequalities (by descriptor) and non-negative multipliers
    with [Σ λᵢ·elemᵢ = e] exactly, proving the inequality is Shannon.
    [None] if the inequality is not Shannon. *)

(** {1 Reference oracle}

    The materialized Γn driver: every LP carries the whole elemental
    family and is solved by {!Bagcqc_lp.Simplex.feasible}, counted
    in [lp.*] like every other solve.  Too slow for production from n ≈ 6 up; kept as the
    independent reference the [lazy_vs_full] fuzz suite and the tests
    compare the production driver against.  {!refute_small} is the
    LP-only reference for the [Nn]/[Mn] generator presolve. *)
module Oracle : sig
  val farkas : n:int -> Linexpr.t list -> Simplex.problem * Linexpr.t list
  (** The validity-certificate LP, a pure feasibility problem: feasible
      iff the max-inequality is valid over Γn, with solutions laid out as
      multipliers [λ] over the returned elemental list followed by one
      convex weight [μℓ] per side. *)

  val valid_max_cert :
    n:int -> Linexpr.t list -> (Certificate.t, Polymatroid.t) result
  (** {!valid_max_cert} at [Gamma], decided over the full family. *)

  val valid_max_quick : n:int -> Linexpr.t list -> bool
  (** {!valid_max_quick} at [Gamma]: the Farkas feasibility solve alone. *)

  val refute_small : cone -> n:int -> Linexpr.t list -> Polymatroid.t option
  (** [Nn] or [Mn] without the generator presolve: the refutation LP
      over the same generator rows, solved by the exact simplex.
      [Some h] is the refuter read off the LP point, [None] means the
      max-inequality is valid over the cone.
      @raise Invalid_argument at [Gamma] or on an out-of-range
      variable. *)
end
