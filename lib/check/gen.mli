(** Seeded case generators (and their shrinkers and printers) for the
    differential fuzzing suites.

    Each case is a plain recipe — term lists, sparse rows, atom lists,
    raw strings — rather than the built value, so a failing case can be
    printed as a reproducer and shrunk structurally before being
    rebuilt. *)

open Bagcqc_num
open Bagcqc_lp
open Bagcqc_cq

(** {2 Logint terms} *)

type logint_case = (int * Rat.t) list
(** Raw [(base, coefficient)] terms: bases [>= 2], possibly composite and
    repeated; coefficients possibly huge (to push cleared-denominator
    exponents past native-int range). *)

val logint_case : Rng.t -> logint_case
val build_logint : logint_case -> Logint.t
val shrink_logint : logint_case -> logint_case list
val show_logint : logint_case -> string

(** {2 LP problems} *)

type lp_case = {
  nv : int;
  obj : Rat.t list;  (** dense objective, length [nv] *)
  rows : ((int * Rat.t) list * Simplex.op * Rat.t) list;
      (** sparse row, relation, right-hand side *)
}

val lp_case : Rng.t -> lp_case
val build_lp : lp_case -> Simplex.problem
val shrink_lp : lp_case -> lp_case list
val show_lp : lp_case -> string

(** {2 Cone cases} *)

type cone_case = {
  cone : Bagcqc_entropy.Cones.cone;
  n : int;
  sides : (int * Rat.t) list list;
}
(** A max-inequality as raw [(mask, coeff)] sides, decided by
    [Cones.valid_max_cert] and, at [Gamma],
    [Cones.Oracle.valid_max_cert]; at [Normal] and [Modular],
    [Cones.Oracle.refute_small]. *)

val cone_case : Rng.t -> cone_case
val shrink_cone : cone_case -> cone_case list
val show_cone : cone_case -> string

(** {2 Lazy vs full Γn driver cases} *)

type lazy_case = { n : int; sides : (int * Rat.t) list list }
(** A Γn max-inequality as raw [(mask, coeff)] sides, decided by both the
    production lazy driver and the materialized oracle in the
    [lazy_vs_full] suite.  Sized n = 2..4 — large
    enough that the separation loop does real work,
    small enough for tens of thousands of iterations. *)

val lazy_case : Rng.t -> lazy_case
(** About one case in four has a cover side ({!cover_side}) in place of
    one of its sides, so the suite reaches the Γn cover certificates. *)

val cover_side : Rng.t -> n:int -> (int * Rat.t) list
(** A raw side that {!Bagcqc_entropy.Cover} certifies by construction
    ([n ≥ 1]): non-negative coefficients off [V], and either
    [c_V ≥ 0] or sets of weight [≥ m = −c_V] covering [V]; masks may
    repeat (their weights add up). *)

val shrink_lazy : lazy_case -> lazy_case list
val show_lazy : lazy_case -> string

(** {2 Boolean query pairs} *)

val compact_atoms : (string * int list) list -> Query.t
(** Build a Boolean query from raw [(rel, args)] atoms, remapping the
    variables actually used onto [0 .. n-1] so [Query.make]'s
    every-variable-occurs rule holds by construction.  Shared with the
    stratified corpus generator ({!Corpus}). *)

val query : Rng.t -> Query.t
(** Small random Boolean query over the vocabulary
    [R/2, S/2, T/1] — sized for full [Containment.decide] pipelines. *)

val query_pair : Rng.t -> Query.t * Query.t
val shrink_query_pair : Query.t * Query.t -> (Query.t * Query.t) list
val show_query_pair : Query.t * Query.t -> string

(** {2 Homomorphisms between queries} *)

type hom_case = {
  source : (string * int list) list;  (** [Qa]'s raw atoms *)
  target : (string * int list) list;  (** [Qb]'s raw atoms *)
  target_names : string list option;
      (** [Qb]'s variable names by index (defaults past the list's end),
          distinct and ordered unlike the indices, primed ones among
          them; [None] keeps the default names *)
}
(** A pair for [Hom.enumerate_between]: at most 5 atoms a side over at
    most 3 relations of arity at most 3, with repeated variables,
    relations missing from the target, and now and then a relation the
    target uses at another arity. *)

val hom_case : Rng.t -> hom_case
val build_hom : hom_case -> Query.t * Query.t
(** [(Qa, Qb)], each through {!compact_atoms}. *)

val shrink_hom : hom_case -> hom_case list
val show_hom : hom_case -> string

(** {2 Parser inputs} *)

val parser_case : Rng.t -> string
(** A mix of unconstrained strings over a query-ish alphabet and
    well-formed queries damaged by a few random edits — the latter sit
    near the grammar's boundary where partial-parse bugs live. *)

val shrink_string : string -> string list
val show_string : string -> string
