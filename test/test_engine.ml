(* The solver-engine layer: the decision memo and its
   shared-immutable-verdict discipline, instrumentation counters, the
   independent certificate verifier, and the cone backends. *)

open Bagcqc_num
open Bagcqc_lp
open Bagcqc_engine
open Bagcqc_entropy

let q = Rat.of_int
let vs = Varset.of_list

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ---------------- LP row validation ---------------- *)

(* The cone backends hand their rows to the simplex as sparse rows; a
   malformed column is rejected where the row is built (negative) or
   where the problem is solved (beyond num_vars), never solved around. *)
let test_problem_validation () =
  Alcotest.(check bool) "negative column rejected" true
    (raises_invalid (fun () -> Simplex.sparse_constr [ (-1, q 1) ] Simplex.Le (q 0)));
  let r = Simplex.sparse_constr [ (3, q 1) ] Simplex.Le (q 0) in
  Alcotest.(check bool) "column beyond num_vars rejected" true
    (raises_invalid (fun () ->
         Simplex.feasible (Simplex.feasibility ~num_vars:3 [ r ])))

(* ---------------- decision memo ---------------- *)

module Containment = Bagcqc_core.Containment
module Parser = Bagcqc_cq.Parser
module Relation = Bagcqc_relation.Relation
module Value = Bagcqc_relation.Value

let count name = Bagcqc_obs.Metrics.count (Bagcqc_obs.Metrics.counter name)
let homs () = count "hom.enumerations"

let witness_of = function
  | Containment.Not_contained w -> w
  | _ -> Alcotest.fail "expected Not_contained"

let test_solver_cache () =
  Solver.clear ();
  Bagcqc_obs.Metrics.reset ();
  let q1 = Parser.parse "R(x,y), R(x,z)" and q2 = Parser.parse "R(u,v), R(w,v)" in
  let w1 = witness_of (Containment.decide q1 q2) in
  Alcotest.(check int) "first decision misses" 1 (count "solver.cache.misses");
  Alcotest.(check int) "no hit yet" 0 (count "solver.cache.hits");
  let homs1 = homs () in
  Alcotest.(check bool) "a real decision happened" true (homs1 >= 1);
  (* The same pair parsed again, with a duplicate atom that decide drops
     before the lookup, must hit without Eq. 8. *)
  let q1' = Parser.parse "R(x,y), R(x,z), R(x,y)"
  and q2' = Parser.parse "R(u,v), R(w,v)" in
  let w2 = witness_of (Containment.decide q1' q2') in
  Alcotest.(check int) "second decision hits" 1 (count "solver.cache.hits");
  Alcotest.(check int) "no extra miss" 1 (count "solver.cache.misses");
  Alcotest.(check int) "no hom enumeration on a hit" homs1 (homs ());
  Alcotest.(check int) "one entry" 1 (Solver.cache_size ());
  let hits = count "solver.cache.hits" in
  let lookups = hits + count "solver.cache.misses" in
  Alcotest.(check bool) "hit rate is 1/2" true
    (abs_float ((float_of_int hits /. float_of_int lookups) -. 0.5) < 1e-9);
  Alcotest.(check bool) "the hit shares the verdict" true (w1 == w2);
  (* A verdict is immutable through its interface: mutating the rows a
     caller got out of the witness must not poison later hits. *)
  let rows = Relation.to_list w1.Containment.p in
  List.iter (fun row -> row.(0) <- Value.Int 99) rows;
  let w3 = witness_of (Containment.decide q1 q2) in
  Alcotest.(check bool) "cache not poisoned" false
    (Relation.mem (List.hd rows) w3.Containment.p);
  Alcotest.(check (option (pair int int))) "memoized witness still verifies"
    (Some (w3.Containment.card_p, w3.Containment.hom2))
    (Containment.verify_witness q1 q2 w3.Containment.p);
  (* After a clear the pair is decided afresh. *)
  Solver.clear ();
  Alcotest.(check int) "clear empties the memo" 0 (Solver.cache_size ());
  let before = homs () in
  ignore (Containment.decide q1 q2);
  Alcotest.(check int) "decided afresh after clear" 2
    (count "solver.cache.misses");
  Alcotest.(check bool) "Eq. 8 ran again" true (homs () > before)

let test_entry_points_share_memo () =
  (* The same pair reached through different entry points (decide_result,
     a batch, a repeated batch element) is answered from the memo; a
     renamed pair is a different key, because its witness database is
     annotated with its own variable names. *)
  Solver.clear ();
  Bagcqc_obs.Metrics.reset ();
  let q1 = Parser.parse "R(x,y), R(x,z)" and q2 = Parser.parse "R(u,v), R(w,v)" in
  (match Containment.decide_result q1 q2 with
   | Ok (Containment.Not_contained _) -> ()
   | _ -> Alcotest.fail "expected Not_contained");
  Alcotest.(check int) "cold run misses" 1 (count "solver.cache.misses");
  let vs = Containment.decide_many [ (q1, q2); (q1, q2) ] in
  Alcotest.(check int) "warm batch adds no miss" 1
    (count "solver.cache.misses");
  Alcotest.(check int) "warm batch hits twice" 2 (count "solver.cache.hits");
  Alcotest.(check bool) "batch verdicts are the memoized one" true
    (match vs with [ a; b ] -> a == b | _ -> false);
  let r1 = Parser.parse "R(a,b), R(a,c)" in
  let w = witness_of (Containment.decide r1 q2) in
  Alcotest.(check int) "renamed pair misses" 2 (count "solver.cache.misses");
  let tagged_with name =
    List.exists
      (fun (_, rel) ->
        List.exists
          (Array.exists (function Value.Tag (v, _) -> v = name | _ -> false))
          (Relation.to_list rel))
      (Bagcqc_cq.Database.relations (Containment.witness_db r1 w))
  in
  Alcotest.(check bool) "renamed witness carries its own names" true
    (tagged_with "a" && not (tagged_with "x"))

let test_memo_budget_is_keyed () =
  (* The witness budget is part of the key: one factor cannot realize
     this pair's normal refuter, the default budget can. *)
  Solver.clear ();
  Bagcqc_obs.Metrics.reset ();
  let q1 = Parser.parse "R(x,y), R(x,z)" and q2 = Parser.parse "R(u,v), R(w,v)" in
  (match Containment.decide ~max_factors:1 q1 q2 with
   | Containment.Unknown { refuter = Some _; _ } -> ()
   | _ -> Alcotest.fail "one factor: expected Unknown (budget)");
  let w = witness_of (Containment.decide q1 q2) in
  Alcotest.(check (option (pair int int))) "default budget: verified witness"
    (Some (w.Containment.card_p, w.Containment.hom2))
    (Containment.verify_witness q1 q2 w.Containment.p);
  ignore (Containment.decide ~max_factors:14 q1 q2);
  Alcotest.(check (pair int int)) "two keys; the explicit default hits" (2, 1)
    (count "solver.cache.misses", count "solver.cache.hits");
  Alcotest.(check int) "two entries" 2 (Solver.cache_size ())

(* The check-10k corpus holds 5101 distinct pairs.  Deciding all of them
   must leave 5101 entries, each stored without meeting a resident key
   of the same hash: the hash-collision histogram stays at 0. *)
let test_memo_hash_quality () =
  let insts =
    match Bagcqc_check.Corpus.load "../corpus/check-10k.jsonl" with
    | Ok (_, insts) -> insts
    | Error msg -> Alcotest.fail msg
  in
  let was = Bagcqc_obs.enabled () in
  if not was then Bagcqc_obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Bagcqc_obs.disable ())
  @@ fun () ->
  Solver.clear ();
  Bagcqc_obs.Metrics.reset ();
  List.iter
    (fun inst ->
      match inst.Bagcqc_check.Corpus.payload with
      | Bagcqc_check.Corpus.Check_pair { q1; q2 } ->
        ignore (Containment.decide q1 q2)
      | Bagcqc_check.Corpus.Iip_sides _ -> Alcotest.fail "not a containment pair")
    insts;
  Alcotest.(check int) "distinct pairs memoized" 5101 (Solver.cache_size ());
  let h =
    List.assoc "solver.cache.hash_collisions"
      (Bagcqc_obs.Metrics.snapshot ()).Bagcqc_obs.Metrics.histograms
  in
  Alcotest.(check (pair int int)) "5101 stores, no colliding hash" (5101, 0)
    (h.Bagcqc_obs.Metrics.count, h.Bagcqc_obs.Metrics.max_value);
  Solver.clear ()

module Flaky =
  Solver.Memo
    (struct
      type t = int

      let equal = Int.equal
      let hash = Hashtbl.hash
    end)
    (struct
      type t = int
    end)

let test_memo_exception_not_cached () =
  (* A decision that raises leaves no entry: the arity clash between the
     two queries' R fails inside the pipeline, after the lookup. *)
  Solver.clear ();
  let q1 = Parser.parse "R(x)" and q2 = Parser.parse "R(u,v)" in
  for _ = 1 to 2 do
    Alcotest.(check bool) "the decision raises" true
      (match Containment.decide q1 q2 with
       | _ -> false
       | exception Invalid_argument _ -> true);
    Alcotest.(check int) "no entry left behind" 0 (Solver.cache_size ())
  done;
  (* The same at the table: the next call computes afresh and caches. *)
  Alcotest.(check bool) "raising compute propagates" true
    (match Flaky.find_or_compute 1 (fun () -> failwith "boom") with
     | _ -> false
     | exception Failure _ -> true);
  Alcotest.(check int) "nothing memoized" 0 (Solver.cache_size ());
  Alcotest.(check int) "retry computes" 7 (Flaky.find_or_compute 1 (fun () -> 7));
  Alcotest.(check int) "then hits" 7 (Flaky.find_or_compute 1 (fun () -> 8));
  Solver.clear ()

(* ---------------- stage spans ---------------- *)

(* The report tree of the live obs state, as [--stats] prints it. *)
let live_report () = Bagcqc_obs.Report.of_json (Bagcqc_obs.Export.chrome ())

let test_stage_spans () =
  let module Obs = Bagcqc_obs in
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let r =
    Obs.Span.with_span ~name:"outer" (fun () ->
        Obs.Span.with_span ~name:"inner" (fun () -> 7))
  in
  Alcotest.(check int) "stage result threads through" 7 r;
  (* Exceptions still close the stage's span. *)
  (try Obs.Span.with_span ~name:"boom" (fun () -> failwith "x")
   with Failure _ -> ());
  Alcotest.(check int) "no span left open" 0 (Obs.Span.open_depth ());
  let rec preorder nodes =
    List.concat_map (fun nd -> nd :: preorder nd.Obs.Report.kids) nodes
  in
  let nodes = preorder (live_report ()).Obs.Report.roots in
  Alcotest.(check (list string)) "stages in first-use order"
    [ "outer"; "inner"; "boom" ]
    (List.map (fun nd -> nd.Obs.Report.name) nodes);
  List.iter
    (fun nd ->
      Alcotest.(check bool) "non-negative time" true (nd.Obs.Report.dur_us >= 0.))
    nodes;
  (* A reset zeroes counters and clears the spans. *)
  Solver.clear ();
  let q1 = Parser.parse "R(x,y), R(x,z)" and q2 = Parser.parse "R(u,v), R(w,v)" in
  ignore (Containment.decide q1 q2);
  ignore (Containment.decide q1 q2);
  Alcotest.(check int) "a hit before the reset" 1 (count "solver.cache.hits");
  Obs.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (count "solver.cache.hits");
  Alcotest.(check int) "reset clears spans" 0
    (Obs.Report.span_count (live_report ()))

(* ---------------- certificates ---------------- *)

let submod01 =
  (* 0 <= h(X1) + h(X2) - h(X1X2): elemental at n = 2. *)
  Linexpr.sub
    (Linexpr.add (Linexpr.term (vs [ 0 ])) (Linexpr.term (vs [ 1 ])))
    (Linexpr.term (vs [ 0; 1 ]))

let test_certificate_check_and_tamper () =
  let cert =
    match Cones.valid_max_cert Cones.Gamma ~n:2 [ submod01 ] with
    | Ok (Some c) -> c
    | _ -> Alcotest.fail "submodularity is valid over Γ2"
  in
  Alcotest.(check bool) "genuine certificate verifies" true
    (Certificate.check cert);
  Alcotest.(check bool) "proves its own statement" true
    (Certificate.proves cert ~n:2 [ submod01 ]);
  Alcotest.(check bool) "does not prove a different statement" false
    (Certificate.proves cert ~n:2 [ Linexpr.neg submod01 ]);
  (* Tampering with any component must be caught. *)
  let rebuild ~lambda ~mu ~sides =
    Certificate.make ~n:2 ~cone:"gamma" ~sides ~lambda ~mu
  in
  let lambda = Certificate.lambda cert
  and mu = Certificate.convex_weights cert
  and sides = Certificate.sides cert in
  let doubled =
    rebuild ~mu ~sides
      ~lambda:(List.map (fun (e, l) -> (e, Rat.add l l)) lambda)
  in
  let rejected name reason c =
    Alcotest.(check (result unit string)) name (Error reason)
      (Certificate.check_explain c)
  in
  let identity_fails =
    "multipliers do not reproduce the convex combination of the sides"
  in
  rejected "scaled multipliers rejected" identity_fails doubled;
  let negated =
    rebuild ~lambda ~sides ~mu:(List.map Rat.neg mu)
  in
  rejected "negative convex weights rejected" "negative convex weight" negated;
  (* A descriptor that names no elemental inequality over n = 2, cited
     next to the genuine rows, in each malformed form. *)
  let w = Varset.singleton in
  List.iter
    (fun (name, d) ->
      rejected
        ("non-elemental axiom rejected: " ^ name)
        "cited inequality is not elemental"
        (rebuild ~mu ~sides ~lambda:((d, Rat.one) :: lambda)))
    [ ("Submod (i, i, K)", Elemental.Submod (0, 0, Varset.empty));
      ("i > j", Elemental.Submod (1, 0, Varset.empty));
      ("i in K", Elemental.Submod (0, 1, w 0));
      ("j >= n", Elemental.Submod (0, 2, Varset.empty));
      ("K not within V", Elemental.Submod (0, 1, w 3));
      ("Mono n", Elemental.Mono 2);
      ("negative index", Elemental.Mono (-1));
      ("negative Submod index", Elemental.Submod (-1, 1, Varset.empty)) ];
  let wrong_side = rebuild ~lambda ~mu ~sides:(List.map Linexpr.neg sides) in
  rejected "altered sides rejected" identity_fails wrong_side;
  Alcotest.(check bool) "mu length mismatch rejected at construction" true
    (raises_invalid (fun () -> rebuild ~lambda ~mu:(Rat.one :: mu) ~sides))

let test_certificate_multi_side () =
  (* A genuinely max certificate: 0 <= max(h(1)-h(2), h(2)-h(1)). *)
  let d = Linexpr.sub (Linexpr.term (vs [ 0 ])) (Linexpr.term (vs [ 1 ])) in
  let sides = [ d; Linexpr.neg d ] in
  match Cones.valid_max_cert Cones.Gamma ~n:2 sides with
  | Ok (Some c) ->
    Alcotest.(check bool) "verifies" true (Certificate.check c);
    Alcotest.(check bool) "proves sides in any order" true
      (Certificate.proves c ~n:2 (List.rev sides));
    let total = List.fold_left Rat.add Rat.zero (Certificate.convex_weights c) in
    Alcotest.(check bool) "weights sum to one" true (Rat.equal total Rat.one)
  | _ -> Alcotest.fail "opposite differences are valid over Γ2"

(* The rendering behind `check --certificate` and the serve
   [certificate] field, pinned for triangle ⊑ vee (the flagship pair of
   scripts/serve_smoke.sh): rows are cited by descriptor and
   materialized only to print, so this text must not move. *)
let test_certificate_rendering_golden () =
  let q1 = Parser.parse "R(x,y), R(y,z), R(z,x)"
  and q2 = Parser.parse "R(u,v), R(u,w)" in
  match Containment.decide q1 q2 with
  | Containment.Contained cert ->
    Alcotest.(check string) "Certificate.pp text"
      "Farkas certificate over gamma (n=3): 3 elemental inequalities\n\
      \  mu_1 = 1/3\n\
      \  mu_2 = 1/3\n\
      \  mu_3 = 1/3\n\
      \  1/3 * [0 <= -h(X3) + h(X1X3) + h(X2X3) - h(X1X2X3)]\n\
      \  1/3 * [0 <= -h(X2) + h(X1X2) + h(X2X3) - h(X1X2X3)]\n\
      \  1/3 * [0 <= -h(X1) + h(X1X2) + h(X1X3) - h(X1X2X3)]\n"
      (Format.asprintf "%a" (Certificate.pp ()) cert)
  | _ -> Alcotest.fail "triangle is contained in vee"

(* ---------------- cone backends ---------------- *)

let test_cone_backends () =
  (* Every cone decides a valid and a refuted inequality; only Γn carries
     a certificate. *)
  let h1 = Linexpr.term (vs [ 0 ]) in
  List.iter
    (fun (name, cone, certifies) ->
      (match Cones.valid_max_cert cone ~n:2 [ h1 ] with
       | Ok cert ->
         Alcotest.(check bool) (name ^ ": certificate iff Γn") certifies
           (Option.is_some cert)
       | Error _ -> Alcotest.failf "%s: 0 <= h(X1) refuted" name);
      Alcotest.(check bool) (name ^ ": 0 <= -h(X1) refuted") true
        (Result.is_error (Cones.valid cone ~n:2 (Linexpr.neg h1))))
    [ ("gamma", Cones.Gamma, true);
      ("normal", Cones.Normal, false);
      ("modular", Cones.Modular, false) ];
  Alcotest.(check bool) "out-of-range variable rejected" true
    (raises_invalid (fun () -> Cones.valid Cones.Normal ~n:1 (Linexpr.term (vs [ 1 ]))))

let suite =
  [ ("problem validation", `Quick, test_problem_validation);
    ("solve cache", `Quick, test_solver_cache);
    ("entry points share the memo", `Quick, test_entry_points_share_memo);
    ("memo keys the witness budget", `Quick, test_memo_budget_is_keyed);
    ("a raising decision caches nothing", `Quick, test_memo_exception_not_cached);
    ("memo keys of check-10k hash apart", `Quick, test_memo_hash_quality);
    ("stage spans", `Quick, test_stage_spans);
    ("certificate check and tamper", `Quick, test_certificate_check_and_tamper);
    ("multi-side certificate", `Quick, test_certificate_multi_side);
    ("certificate rendering golden", `Quick, test_certificate_rendering_golden);
    ("cone backends", `Quick, test_cone_backends) ]
