(* Lazy constraint generation for the Shannon cone (DESIGN.md §4i).

   The full Γn driver ([Cones.Oracle]) materializes all n + C(n,2)·2^(n−2)
   elemental inequalities into every LP — which is exactly why exact
   decisions stopped at n ≈ 5–6.  This driver solves the same two LPs
   over a small *working set* W of elemental inequalities and grows W
   on demand:

     loop:
       solve  R(W) = { elem_d(h) ≥ 0 ∀d ∈ W,  Eℓ(h) ≤ −1 ∀ℓ }
       infeasible ⇒ the max-inequality is valid over the W-cone, a
         superset of Γn, hence valid over Γn.  Certificate: a Farkas
         combination of R(W)'s rows — λ over W ⊆ elemental family, μ
         over the targets — assembled into a [Certificate.t] that
         passes the unchanged exact [Certificate.check].
       feasible at x ⇒ scan the *implicit* elemental family for the
         most-violated inequality (≤ 4 lookups per member, nothing
         materialized; float evaluation on probe points, exact Rat
         evaluation on exact points).  No violation on an *exact* point
         ⇒ x lies in Γn itself and genuinely refutes — refuters are
         only ever emitted from exact rounds.  Otherwise add a batch of
         the most-violated cuts to W and to the float tableau, and
         re-solve.

   Rounds run in pure floats on one incremental tableau per decision
   ([Fsimplex.Tableau]): every cut is appended to it as it is admitted
   and the dual simplex re-solves from the previous basis, so a round
   costs the pivots its new rows need rather than a cold solve.  The
   per-round point only steers which cuts enter W, so it needs no exact
   repair.  Exact arithmetic appears only at terminal rounds:
     - float probe infeasible ⇒ the tableau's violated row *is* a
       Farkas combination: its slack columns hold one multiplier y_i per
       row — targets (→ μ) and working-set rows (→ λ) — and its
       structural part is the combination's value ν_S ≥ 0 on each
       coordinate h(S).  [Repair.farkas] repairs y exactly on that
       support (equations ν_S = 0 wherever the float combination
       vanishes, plus Σμ = 1) and accepts only a unique, consistent,
       nonnegative solution with ν ≥ 0.  The certificate path then
       assembles the certificate over elemental descriptors (no row is
       materialized) and accepts it only if the exact
       [Certificate.check] passes; the quick path needs only the
       repair, which is itself an exact proof.  No LP is solved.  A
       declined repair falls back to the restricted Farkas LP F(W′)
       over the support's working-set rows W′ (certificate path), and
       from there — or straight away on the quick path — to one exact
       R(W) round on a rebuilt tableau.
     - float probe optimal with no float-violated cut ⇒ one exact R(W)
       round: its exact point either passes the exact
       separation scan (genuine refuter) or yields exact cuts the float
       scan missed.

   One subtlety in every Farkas form here: the LPs keep their variables
   implicitly nonnegative, so R(W)'s feasible region is {h ≥ 0} ∩
   W-cone ∩ {E ≤ −1} — still a superset of Γn (h(S) ≥ 0 is a Shannon
   consequence), so verdicts are sound, but the h ≥ 0 facets can be
   load-bearing for infeasibility while not lying in the cone spanned
   by W.  The true Farkas dual therefore carries one extra multiplier
   ν_S ≥ 0 per coordinate axiom h(S) ≥ 0:  Σλ·W + Σν_S·e_S = Σμ·E.
   Certificates must cite only elemental inequalities, and h(S) ≥ 0 is
   exactly the chain expansion  h(S) = Σ_t h(i_t | {i_1..i_{t−1}}),
   h(i|B) = h(i|V∖i) + Σ_j I(i;j|·)  — a unit-coefficient sum of
   elemental rows ([Elemental.nonneg_decomp]).  So F(W) gets the ν
   columns, the probe's ν is its combination's coordinate part, and
   certificate assembly expands each positive ν_S into those elemental
   axioms, keeping the assembled certificate inside the contract of the
   unchanged exact [Certificate.check].

   Every exact round that continues adds a cut (its point satisfies W
   exactly, so a violated member cannot already be in W), and a float
   round that fails to add one escalates to an exact round, so at most
   two rounds are spent per cut and the loop terminates within
   2·|family| rounds; a defensive invariant enforces the bound.

   The loop solves the caller's sides exactly as given: the refuter is
   the LP point itself, and the certificate cites the caller's sides.

   Trust model: unchanged.  Float probes decide nothing — their points
   choose cuts, their Farkas rows choose the structure of an exact
   repair.  Every LP a verdict rests on is solved by the exact simplex;
   validity carries a Farkas
   certificate judged by the same LP-independent [Certificate.check] as
   the full driver (the quick path's verdict rests on the same exact
   Farkas identity, re-derived in [Rat]), and refuters satisfy every
   elemental inequality by exact evaluation (the exact separation scan
   found no violation).  The full-materialization driver remains as the
   cross-checked reference ([Cones.Oracle], the lazy_vs_full fuzz suite
   and the corpus audit). *)

open Bagcqc_num
open Bagcqc_lp
module Obs = Bagcqc_obs

let where = "Separation"

let c_solves = Obs.Metrics.counter "cone.lazy.solves"
let c_rounds = Obs.Metrics.counter "cone.lazy.rounds"
let c_cuts = Obs.Metrics.counter "cone.lazy.cuts"
let c_probe_certs = Obs.Metrics.counter "cone.lazy.probe_certs"
let c_probe_cert_fallbacks = Obs.Metrics.counter "cone.lazy.probe_cert_fallbacks"

(* Same mask−1 variable indexing as the full gamma backend. *)
let gamma_sparse e = List.map (fun (s, c) -> (s - 1, c)) (Linexpr.terms e)

(* Cone rows enter R(W) as [−a·h ≤ 0] rather than [a·h ≥ 0].  The
   polyhedron is identical, but the Le form with a zero right-hand side
   starts slack-basic: in an exact round only the k target rows carry
   phase-1 artificial columns, so phase 1 walks a handful of pivots
   instead of one per working-set row, and the float tableau, all Le
   rows, needs no artificial columns at all. *)
let cone_row_sparse e =
  List.map (fun (s, c) -> (s - 1, Rat.neg c)) (Linexpr.terms e)

(* Per-descriptor row constructions, memoized across decides: the same
   Mono/Submod rows recur in every working set at a given n, and once
   the solves are warm, rebuilding them (expr_of_desc, negation, sparse
   normalization) is a visible slice of a decide.  Rows and constraints
   are immutable once built, so sharing is safe; the keyspace is the
   elemental family itself (≤ a few thousand entries across all n ≤ 8).
   Same mutex discipline as the [Elemental] table. *)
let row_memo_mutex = Mutex.create ()

let memo_row (tbl : (int * Elemental.desc, 'a) Hashtbl.t) ~n d
    (build : unit -> 'a) =
  Mutex.lock row_memo_mutex;
  let cached = Hashtbl.find_opt tbl (n, d) in
  Mutex.unlock row_memo_mutex;
  match cached with
  | Some v -> v
  | None ->
    let v = build () in
    Mutex.lock row_memo_mutex;
    Hashtbl.replace tbl (n, d) v;
    Mutex.unlock row_memo_mutex;
    v

let cone_sparse_tbl : (int * Elemental.desc, (int * Rat.t) list) Hashtbl.t =
  Hashtbl.create 2048

let cone_sparse ~n d =
  memo_row cone_sparse_tbl ~n d (fun () ->
      cone_row_sparse (Elemental.expr_of_desc ~n d))

let cone_prow_tbl : (int * Elemental.desc, Simplex.constr) Hashtbl.t =
  Hashtbl.create 2048

let cone_prow ~n d =
  memo_row cone_prow_tbl ~n d (fun () ->
      Simplex.sparse_constr (cone_sparse ~n d) Simplex.Le Rat.zero)

(* A sparse row in the float probe's form: column indices and values
   for [Fsimplex.Tableau.add_le]. *)
let float_row pairs =
  ( Array.of_list (List.map fst pairs),
    Array.of_list (List.map (fun (_, c) -> Rat.to_float c) pairs) )

let cone_frow_tbl : (int * Elemental.desc, int array * float array) Hashtbl.t =
  Hashtbl.create 2048

let cone_frow ~n d =
  memo_row cone_frow_tbl ~n d (fun () -> float_row (cone_sparse ~n d))

(* ---------------- seed ----------------

   The n monotonicity rows h(V) ≥ h(V∖i) only; submodularity is left
   to the scan.  Under the incremental probe a seeded row the targets do
   not need is a slack row that every pivot must still update, and the
   scan admits the slices a target does need within a round or two. *)
let seed_descs ~n = List.init n (fun i -> Elemental.Mono i)

(* ---------------- restricted Farkas ----------------

   [Cones.Oracle.farkas] with the axiom columns drawn from W instead of
   the full family (and with the ν columns below).

   Column layout: λ over the W axioms, then the k convex weights μ,
   then one ν_S per coordinate mask S — the dual multipliers of the
   simplex's implicit h(S) ≥ 0 (see the header):
     Σλ·W + Σ ν_S·e_S = Σμ·E,  Σμ = 1,  everything ≥ 0. *)
let farkas_of_axioms ~n axioms es =
  let n_ax = List.length axioms in
  let k = List.length es in
  let nv = (1 lsl n) - 1 in
  let num_vars = n_ax + k + nv in
  let buckets = Array.make nv [] in
  List.iteri
    (fun i e ->
      List.iter (fun (s, c) -> buckets.(s) <- (i, c) :: buckets.(s))
        (gamma_sparse e))
    axioms;
  List.iteri
    (fun l e ->
      List.iter
        (fun (s, c) -> buckets.(s) <- (n_ax + l, Rat.neg c) :: buckets.(s))
        (gamma_sparse e))
    es;
  Simplex.feasibility ~num_vars
    (List.init nv (fun s ->
         Simplex.sparse_constr ((n_ax + k + s, Rat.one) :: buckets.(s))
           Simplex.Eq Rat.zero)
     @ [ Simplex.sparse_constr
           (List.init k (fun l -> (n_ax + l, Rat.one)))
           Simplex.Eq Rat.one ])

(* ---------------- the separation loop ---------------- *)

(* A row of the float probe, as a Farkas row names it: target ℓ or a
   working-set cut. *)
type claim_row = Target of int | Cut of Elemental.desc

type 'a verdict =
  | Valid of Elemental.desc list  (* W at termination, reverse add order *)
  | Certified of 'a  (* [certify] accepted a float-infeasible probe *)
  | Refuted_at of Rat.t array

(* A float probe must clear this to count as a violation.  Pure
   heuristic: too tight admits noise cuts (W grows a little), too loose
   defers real cuts to the exact round — never a soundness input. *)
let float_eps = 1e-7

(* Flattened per-n scan table: descriptor idx scores
   h(s1) + h(s2) − h(s3) − h(s4) with the four masks at [masks.(4·idx)..],
   mask 0 standing for the empty set (h = 0).  Mono i is
   (full, ∅, full∖i, ∅); Submod (i,j,b) is (b∪i, b∪j, b∪i∪j, b).  Built
   once per n: the float scan runs on every optimal probe and must not
   re-allocate the descriptor stream each round. *)
let scan_tbl_mutex = Mutex.create ()

let scan_tbls : (int, Elemental.desc array * int array) Hashtbl.t =
  Hashtbl.create 8

let scan_table ~n =
  Mutex.lock scan_tbl_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock scan_tbl_mutex) @@ fun () ->
  match Hashtbl.find_opt scan_tbls n with
  | Some t -> t
  | None ->
    let ds = ref [] in
    Elemental.iter_descs ~n (fun d -> ds := d :: !ds);
    let descs = Array.of_list (List.rev !ds) in
    let masks = Array.make (4 * Array.length descs) 0 in
    Array.iteri
      (fun idx d ->
        let o = 4 * idx in
        match d with
        | Elemental.Mono i ->
          let full = Varset.full n in
          masks.(o) <- full;
          masks.(o + 2) <- Varset.remove i full
        | Elemental.Submod (i, j, b) ->
          masks.(o) <- Varset.add i b;
          masks.(o + 1) <- Varset.add j b;
          masks.(o + 2) <- Varset.add j (Varset.add i b);
          masks.(o + 3) <- b)
      descs;
    let t = (descs, masks) in
    Hashtbl.add scan_tbls n t;
    t

(* Run the loop on the sides [es].  Returns the witness point
   (refutation), the final working set (validity, from an exact R(W)
   round), or whatever [certify] returned for a float-infeasible probe's
   Farkas row, given as (row, float multiplier) pairs.  [certify] must
   prove validity on its own authority; [None] drops the tableau and
   sends the loop into an exact round instead of trusting the probe. *)
let run ~n ~certify es =
  let num_vars = (1 lsl n) - 1 in
  (* Exact-round rows only, which most decisions never reach. *)
  let target_rows =
    lazy
      (List.map
         (fun e -> Simplex.sparse_constr (gamma_sparse e) Simplex.Le Rat.minus_one)
         es)
  in
  let k_targets = List.length es in
  let seen : (Elemental.desc, unit) Hashtbl.t = Hashtbl.create 64 in
  let w = ref [] in
  (* The float probe: one tableau per decision holding the targets (rows
     [0, k)) and then W in add order, so row [k + i] is the i-th
     descriptor added.  Every admitted cut is appended as it arrives;
     [None] marks a tableau dropped after an unreliable claim, rebuilt
     cold from W at the next float round. *)
  let append_cut t d =
    let cols, vals = cone_frow ~n d in
    Fsimplex.Tableau.add_le t cols vals 0.0
  in
  let fresh_tableau () =
    let t = Fsimplex.Tableau.create ~num_vars in
    List.iter
      (fun e ->
        let cols, vals = float_row (gamma_sparse e) in
        Fsimplex.Tableau.add_le t cols vals (-1.0))
      es;
    List.iter (append_cut t) (List.rev !w);
    t
  in
  let tab = ref None in
  let add_desc d =
    if Hashtbl.mem seen d then false
    else begin
      Hashtbl.add seen d ();
      w := d :: !w;
      Option.iter (fun t -> append_cut t d) !tab;
      true
    end
  in
  List.iter (fun d -> ignore (add_desc d)) (seed_descs ~n);
  (* Add the [cut_batch] most-violated of [ranked] (pre-sorted by
     violation, ties broken by descriptor order, so the cut sequence —
     and with it every per-round system — is deterministic per build). *)
  let cut_batch = 2 * n in
  let add_ranked ranked =
    let added = ref 0 in
    (try
       List.iter
         (fun (d, _) ->
           if !added >= cut_batch then raise Exit;
           if add_desc d then incr added)
         ranked
     with Exit -> ());
    Obs.Metrics.add c_cuts !added;
    !added
  in
  (* Each exact round that continues adds a cut; a float round either
     adds one or escalates to an exact round — at most two rounds per
     cut, so 2·|family| bounds the loop. *)
  let limit = (2 * Elemental.desc_count ~n) + 6 in
  let check_limit round =
    if round > limit then
      Bagcqc_error.invariant ~where
        (Printf.sprintf
           "separation failed to terminate within %d rounds at n=%d" limit n)
  in
  (* Name the rows of the probe's Farkas row: a Farkas proof over
     [num_vars] unknowns needs at most [num_vars + 1] rows, so this is
     usually a small fraction of W. *)
  let claim_of ys =
    let w_arr = Array.of_list (List.rev !w) in
    List.map
      (fun (i, y) ->
        ((if i < k_targets then Target i else Cut w_arr.(i - k_targets)), y))
      ys
  in
  let rec loop round =
    check_limit round;
    Obs.Metrics.bump c_rounds;
    let t =
      match !tab with
      | Some t -> t
      | None ->
        let t = fresh_tableau () in
        tab := Some t;
        t
    in
    match Fsimplex.Tableau.reoptimize t with
    | Fsimplex.Tableau.Unknown ->
      tab := None;
      exact_round round
    | Fsimplex.Tableau.Infeasible ys ->
      (match certify (claim_of ys) with
       | Some c -> Certified c
       | None ->
         (* The probe's claim did not certify — an exact round settles
            what is actually true of R(W), and the drifted tableau is
            rebuilt. *)
         tab := None;
         exact_round round)
    | Fsimplex.Tableau.Point xf ->
      let violated = ref [] in
      let descs, masks = scan_table ~n in
      let g m = if m = 0 then 0.0 else Array.unsafe_get xf (m - 1) in
      for idx = 0 to Array.length descs - 1 do
        let o = 4 * idx in
        let v =
          g (Array.unsafe_get masks o)
          +. g (Array.unsafe_get masks (o + 1))
          -. g (Array.unsafe_get masks (o + 2))
          -. g (Array.unsafe_get masks (o + 3))
        in
        if v < -.float_eps then violated := (descs.(idx), v) :: !violated
      done;
      let ranked =
        List.sort
          (fun (d1, v1) (d2, v2) ->
            let c = Float.compare v1 v2 in
            if c <> 0 then c else Elemental.desc_compare d1 d2)
          !violated
      in
      if ranked <> [] && add_ranked ranked > 0 then loop (round + 1)
      else
        (* No float-violated cut (or only noise already in W): the probe
           cannot distinguish a genuine Γn refuter from tolerance slack —
           only an exact point can. *)
        exact_round round
  and exact_round round =
    check_limit round;
    Obs.Metrics.bump c_rounds;
    let prob =
      Simplex.feasibility ~num_vars
        (List.map (cone_prow ~n) !w @ Lazy.force target_rows)
    in
    match Simplex.feasible prob with
    | None -> Valid !w
    | Some x ->
      let h m = if m = 0 then Rat.zero else x.(m - 1) in
      let violated = ref [] in
      Elemental.iter_descs ~n (fun d ->
          let v = Elemental.eval_desc ~n h d in
          if Rat.sign v < 0 then violated := (d, v) :: !violated);
      (match !violated with
       | [] ->
         (* x satisfies every elemental inequality: a genuine point of
            Γn refuting the max-inequality. *)
         Refuted_at x
       | vs ->
         let ranked =
           List.sort
             (fun (d1, v1) (d2, v2) ->
               let c = Rat.compare v1 v2 in
               if c <> 0 then c else Elemental.desc_compare d1 d2)
             vs
         in
         if add_ranked ranked = 0 then
           (* The exact LP point satisfies W exactly, so a violated
              inequality cannot already be in W. *)
           Bagcqc_error.invariant ~where "separation cut made no progress";
         loop (round + 1))
  in
  loop 1

let with_span ~n ~kind es f =
  Obs.Span.with_span ~name:"cone.lazy"
    ~attrs:
      [ ("kind", Obs.Span.Str kind);
        ("n", Obs.Span.Int n);
        ("sides", Obs.Span.Int (List.length es)) ]
    f

let refuter_of_point ~n x = Polymatroid.make n (fun s -> x.(s - 1))

(* ---------------- certificates ---------------- *)

(* The certificate for the sides [es]: λ accumulates per elemental
   *descriptor* — the cited rows directly, and each positive ν_S
   expanded through the chain decomposition of h(S) ≥ 0 — sorted in
   descriptor order for a deterministic rendering.  No row is
   materialized. *)
let assemble ~n ~es ~lambda ~nu ~mu =
  let cited =
    List.fold_left
      (fun acc (s, v) ->
        if Rat.sign v > 0 then
          List.fold_left (fun acc d -> (d, v) :: acc) acc
            (Elemental.nonneg_decomp ~n s)
        else acc)
      (List.filter (fun (_, c) -> Rat.sign c > 0) lambda)
      nu
  in
  Certificate.make ~n ~cone:"gamma" ~sides:es
    ~lambda:(Elemental.merge_descs cited) ~mu

(* Prove validity of [es] over the working set [w_descs] (add order):
   solve the restricted Farkas system and return its certificate, which
   must pass the exact [Certificate.check].  [None] means F(W) is
   infeasible — the caller's infeasibility claim for R(W) was wrong (or,
   from an exact round, genuinely contradictory). *)
let certify_working_set ~n ~es w_descs =
  let axioms = List.map (Elemental.expr_of_desc ~n) w_descs in
  let n_ax = List.length axioms in
  let k = List.length es in
  let nv = (1 lsl n) - 1 in
  let fprob = farkas_of_axioms ~n axioms es in
  let assemble x =
    assemble ~n ~es
      ~lambda:(List.mapi (fun i d -> (d, x.(i))) w_descs)
      ~nu:(List.init nv (fun s -> (s + 1, x.(n_ax + k + s))))
      ~mu:(List.init k (fun l -> x.(n_ax + l)))
  in
  Option.map
    (fun x ->
      let cert = assemble x in
      (* Defense in depth (DESIGN.md §4i): an exact solve of F(W) yields
         a certificate by construction, so a rejection is a bug in the
         solver or the assembly — never an uncertified answer. *)
      if not (Certificate.check cert) then
        Bagcqc_error.invariant ~where
          "restricted Farkas point rejected by Certificate.check";
      cert)
    (Simplex.feasible fprob)

(* ---------------- certificate from the probe ----------------

   The float probe's Farkas row, repaired exactly on its own support
   ([Repair.farkas]): targets carry μ, cuts carry λ, and the
   combination's coordinate part is ν.  Why a repair can decline, as
   the fallback span's [fallback] attribute reports it. *)
type decline = Repair_declined of Repair.farkas_reject | Check_failed

let decline_name = function
  | Repair_declined Repair.Negative_combination -> "negative_nu"
  | Repair_declined r -> Repair.farkas_reject_name r
  | Check_failed -> "check_failed"

(* Exact (μ, λ, ν) for a claim over the sides [es]: μ one per side
   (zero off the support), λ per cited cut, ν per coordinate mask. *)
let repair_claim ~n es claim =
  let es_a = Array.of_list es in
  let rows =
    Array.of_list
      (List.map
         (fun (r, _) ->
           match r with
           | Target l -> (gamma_sparse es_a.(l), Rat.minus_one)
           | Cut d -> (cone_sparse ~n d, Rat.zero))
         claim)
  in
  let ys = Array.of_list (List.map snd claim) in
  match Repair.farkas ~num_vars:((1 lsl n) - 1) rows ys with
  | Error r -> Error (Repair_declined r)
  | Ok (y, combination) ->
    let mu = Array.make (Array.length es_a) Rat.zero in
    let lambda = ref [] in
    List.iteri
      (fun i (r, _) ->
        match r with
        | Target l -> mu.(l) <- y.(i)
        | Cut d -> lambda := (d, y.(i)) :: !lambda)
      claim;
    Ok
      ( Array.to_list mu,
        !lambda,
        List.map (fun (j, v) -> (j + 1, v)) combination )

(* One probe-repair attempt, counted and spanned: [attempt] either
   proves validity or names why it declined. *)
let probe_attempt claim attempt =
  Obs.Span.with_span ~name:"cone.lazy.probe_cert"
    ~attrs:[ ("rows", Obs.Span.Int (List.length claim)) ]
  @@ fun () ->
  match attempt () with
  | Ok _ as ok ->
    Obs.Metrics.bump c_probe_certs;
    ok
  | Error r as e ->
    Obs.Metrics.bump c_probe_cert_fallbacks;
    if !Obs.Runtime.enabled then
      Obs.Span.add_attr "fallback" (Obs.Span.Str (decline_name r));
    e

let claim_cuts claim =
  List.filter_map (function Cut d, _ -> Some d | Target _, _ -> None) claim

(* Certify a float-infeasible probe: the repaired multipliers, assembled
   and accepted only if [Certificate.check] passes; on a decline, the
   restricted Farkas LP F(W′) over the claim's cuts. *)
let certify_claim ~n ~es claim =
  match
    probe_attempt claim (fun () ->
        match repair_claim ~n es claim with
        | Error _ as e -> e
        | Ok (mu, lambda, nu) ->
          let cert = assemble ~n ~es ~lambda ~nu ~mu in
          if Certificate.check cert then Ok cert else Error Check_failed)
  with
  | Ok cert -> Some cert
  | Error _ -> certify_working_set ~n ~es (claim_cuts claim)

(* ---------------- entry points ---------------- *)

let valid_max_quick ~n es =
  with_span ~n ~kind:"quick" es @@ fun () ->
  Obs.Metrics.bump c_solves;
  (* Verdict only: an accepted repair is an exact Farkas proof by
     itself, so no certificate is assembled. *)
  let certify claim =
    Result.to_option
      (probe_attempt claim (fun () ->
           Result.map ignore (repair_claim ~n es claim)))
  in
  match run ~n ~certify es with
  | Valid _ | Certified () -> true
  | Refuted_at _ -> false

let valid_max_cert ~n es =
  with_span ~n ~kind:"cert" es @@ fun () ->
  Obs.Metrics.bump c_solves;
  match run ~n ~certify:(certify_claim ~n ~es) es with
  | Refuted_at x -> Error (refuter_of_point ~n x)
  | Certified cert -> Ok cert
  | Valid w_rev ->
    (* Reached only through an exact round's infeasibility (a probe that
       came back Unknown, or with a point but no new cut, or whose
       claim did not certify).  F(W) is then feasible by duality over
       the W-cone; both empty means the two independently-built LPs
       disagree. *)
    (match certify_working_set ~n ~es (List.rev w_rev) with
     | Some cert -> Ok cert
     | None ->
       Bagcqc_error.invariant ~where
         "restricted Farkas LP infeasible though the restricted \
          refutation LP was infeasible too (duality violated)")

(* ---------------- test surface ---------------- *)

module Probe = struct
  type row = claim_row = Target of int | Cut of Elemental.desc

  let terminal_claim ~n es =
    match run ~n ~certify:Option.some es with
    | Certified claim -> Some claim
    | Valid _ | Refuted_at _ -> None

  let repairs ~n es claim = Result.is_ok (repair_claim ~n es claim)

  let certify ~n es claim = certify_claim ~n ~es claim
end
