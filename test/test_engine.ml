(* The solver-engine layer: canonical problem IR, the LP solve cache and
   its copy-on-hit discipline, instrumentation counters, the independent
   certificate verifier, and the cone backends. *)

open Bagcqc_num
open Bagcqc_lp
open Bagcqc_engine
open Bagcqc_entropy

let q = Rat.of_int
let vs = Varset.of_list

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ---------------- Problem IR ---------------- *)

let test_problem_canonical () =
  (* Row order, term order, duplicate columns and zero coefficients all
     normalize away; the memo table must see one key. *)
  let r1 = Problem.row [ (0, q 1); (1, q 2) ] Simplex.Le (q 3) in
  let r1' =
    Problem.row [ (1, q 1); (0, q 1); (1, q 1); (2, q 0) ] Simplex.Le (q 3)
  in
  let r2 = Problem.row [ (2, q 1) ] Simplex.Ge (q 0) in
  let p1 = Problem.make ~tag:"t" ~num_vars:3 [ r1; r2 ] in
  let p2 = Problem.make ~tag:"t" ~num_vars:3 [ r2; r1' ] in
  Alcotest.(check bool) "structurally equal" true (Problem.equal p1 p2);
  Alcotest.(check int) "hashes agree" (Problem.hash p1) (Problem.hash p2);
  Alcotest.(check int) "compare agrees" 0 (Problem.compare p1 p2);
  Alcotest.(check int) "rows counted" 2 (Problem.num_rows p1);
  (* The tag keeps distinct encodings apart even on equal matrices. *)
  let p3 = Problem.make ~tag:"u" ~num_vars:3 [ r1; r2 ] in
  Alcotest.(check bool) "tag distinguishes" false (Problem.equal p1 p3);
  (* And so does the objective. *)
  let p4 =
    Problem.make ~tag:"t" ~num_vars:3 ~objective:[ (0, q 1) ] [ r1; r2 ]
  in
  Alcotest.(check bool) "objective distinguishes" false (Problem.equal p1 p4)

let test_problem_validation () =
  Alcotest.(check bool) "negative column rejected" true
    (raises_invalid (fun () -> Problem.row [ (-1, q 1) ] Simplex.Le (q 0)));
  let r = Problem.row [ (3, q 1) ] Simplex.Le (q 0) in
  Alcotest.(check bool) "column beyond num_vars rejected" true
    (raises_invalid (fun () -> Problem.make ~tag:"t" ~num_vars:3 [ r ]));
  Alcotest.(check bool) "objective beyond num_vars rejected" true
    (raises_invalid (fun () ->
         Problem.make ~tag:"t" ~num_vars:1 ~objective:[ (5, q 1) ] []))

(* ---------------- solve cache ---------------- *)

let test_solver_cache () =
  Solver.clear ();
  Stats.reset ();
  let p =
    Problem.make ~tag:"test/cache" ~num_vars:2
      [ Problem.row [ (0, q 1); (1, q 1) ] Simplex.Ge (q 1);
        Problem.row [ (0, q 1) ] Simplex.Le (q 2) ]
  in
  let x1 =
    match Solver.feasible p with
    | Some x -> x
    | None -> Alcotest.fail "system is feasible"
  in
  let s1 = Stats.snapshot () in
  Alcotest.(check int) "first solve misses" 1 s1.Stats.cache_misses;
  Alcotest.(check int) "no hit yet" 0 s1.Stats.cache_hits;
  Alcotest.(check bool) "a real solve happened" true (s1.Stats.lp_solves >= 1);
  (* A structurally equal problem built independently must hit. *)
  let p' =
    Problem.make ~tag:"test/cache" ~num_vars:2
      [ Problem.row [ (0, q 1) ] Simplex.Le (q 2);
        Problem.row [ (1, q 1); (0, q 1) ] Simplex.Ge (q 1) ]
  in
  ignore (Solver.feasible p');
  let s2 = Stats.snapshot () in
  Alcotest.(check int) "second solve hits" 1 s2.Stats.cache_hits;
  Alcotest.(check int) "no extra miss" 1 s2.Stats.cache_misses;
  Alcotest.(check int) "one entry" 1 (Solver.cache_size ());
  Alcotest.(check bool) "hit rate is 1/2" true
    (abs_float (Stats.cache_hit_rate s2 -. 0.5) < 1e-9);
  (* Copy-on-hit: mutating a returned solution must not poison the
     table. *)
  x1.(0) <- q 99;
  (match Solver.feasible p with
   | Some x3 ->
     Alcotest.(check bool) "cache not poisoned" false (Rat.equal x3.(0) (q 99))
   | None -> Alcotest.fail "still feasible");
  (* With caching off, solves bypass the table entirely. *)
  let saved = !Solver.caching in
  Solver.caching := false;
  Fun.protect ~finally:(fun () -> Solver.caching := saved) @@ fun () ->
  let before = (Stats.snapshot ()).Stats.lp_solves in
  ignore (Solver.feasible p);
  let s4 = Stats.snapshot () in
  Alcotest.(check int) "uncached solve went to the simplex" (before + 1)
    s4.Stats.lp_solves;
  Alcotest.(check int) "hits unchanged" 2 s4.Stats.cache_hits

let test_cones_share_cache () =
  (* The same cone check issued twice — e.g. across repeated decide calls
     — must be answered from the cache the second time.  A valid Γn check
     is certified from the float probe without any LP, so the shared LP
     is a refutation's exact round: reversed monotonicity. *)
  Solver.clear ();
  Stats.reset ();
  let e = Linexpr.sub (Linexpr.term (vs [ 0 ])) (Linexpr.term (vs [ 0; 1 ])) in
  Alcotest.(check bool) "reversed monotonicity is not Shannon" false
    (Cones.valid_shannon ~n:2 e);
  let s1 = Stats.snapshot () in
  Alcotest.(check bool) "cold run misses" true (s1.Stats.cache_misses >= 1);
  Alcotest.(check bool) "renamed copy also refuted" false
    (Cones.valid_shannon ~n:2 (Linexpr.rename (fun v -> v) e));
  let s2 = Stats.snapshot () in
  Alcotest.(check int) "warm run adds no miss" s1.Stats.cache_misses
    s2.Stats.cache_misses;
  Alcotest.(check bool) "warm run hits" true
    (s2.Stats.cache_hits > s1.Stats.cache_hits)

(* ---------------- stats ---------------- *)

let test_stats_stages () =
  Stats.reset ();
  let r = Stats.time_stage "outer" (fun () -> Stats.time_stage "inner" (fun () -> 7)) in
  Alcotest.(check int) "stage result threads through" 7 r;
  let s = Stats.snapshot () in
  let names = List.map fst s.Stats.stages in
  Alcotest.(check (list string)) "buckets in first-use order"
    [ "outer"; "inner" ] names;
  List.iter
    (fun (_, dt) -> Alcotest.(check bool) "non-negative time" true (dt >= 0.))
    s.Stats.stages;
  (* Exceptions still record the stage. *)
  (try Stats.time_stage "boom" (fun () -> failwith "x") with Failure _ -> ());
  let s' = Stats.snapshot () in
  Alcotest.(check bool) "exceptional stage recorded" true
    (List.mem_assoc "boom" s'.Stats.stages);
  Stats.reset ();
  let z = Stats.snapshot () in
  Alcotest.(check int) "reset zeroes counters" 0 z.Stats.cache_hits;
  Alcotest.(check int) "reset clears stages" 0 (List.length z.Stats.stages)

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
  Alcotest.(check bool) "scaled multipliers rejected" false
    (Certificate.check doubled);
  let negated =
    rebuild ~lambda ~sides ~mu:(List.map Rat.neg mu)
  in
  Alcotest.(check bool) "negative convex weights rejected" false
    (Certificate.check negated);
  let non_elemental =
    rebuild ~mu ~sides
      ~lambda:(List.map (fun (e, l) -> (Linexpr.scale (q 2) e, l)) lambda)
  in
  Alcotest.(check bool) "non-elemental axiom rejected" false
    (Certificate.check non_elemental);
  let wrong_side = rebuild ~lambda ~mu ~sides:(List.map Linexpr.neg sides) in
  Alcotest.(check bool) "altered sides rejected" false
    (Certificate.check wrong_side);
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

(* ---------------- cone backends ---------------- *)

let test_cone_backends () =
  (* Every cone decides a valid and a refuted inequality; only Γn carries
     a certificate, and the reference oracle's Farkas LP keeps the tag the
     store verifier is registered under. *)
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
  Alcotest.(check string) "oracle Farkas tag" "gamma/farkas"
    (Problem.tag (fst (Cones.Oracle.farkas ~n:2 [ h1 ])));
  Alcotest.(check bool) "out-of-range variable rejected" true
    (raises_invalid (fun () -> Cones.valid Cones.Normal ~n:1 (Linexpr.term (vs [ 1 ]))))

let suite =
  [ ("problem canonicalization", `Quick, test_problem_canonical);
    ("problem validation", `Quick, test_problem_validation);
    ("solve cache", `Quick, test_solver_cache);
    ("cone checks share the cache", `Quick, test_cones_share_cache);
    ("stats stages", `Quick, test_stats_stages);
    ("certificate check and tamper", `Quick, test_certificate_check_and_tamper);
    ("multi-side certificate", `Quick, test_certificate_multi_side);
    ("cone backends", `Quick, test_cone_backends) ]
