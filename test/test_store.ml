(* The persistent solver-cache tier: append-only log round-trips, crash
   tolerance (truncated tails), verify-on-load (corrupt and forged
   entries rejected, never served), the optimality policy (entries with
   a real objective need a semantic verifier), and the wiring through
   Solver — a warm store answers LP solves without touching the
   simplex. *)

open Bagcqc_num
open Bagcqc_lp
open Bagcqc_engine
open Bagcqc_entropy
module Obs = Bagcqc_obs

let q = Rat.of_int
let count name = Obs.Metrics.count (Obs.Metrics.counter name)

let with_temp_store f =
  let path = Filename.temp_file "bagcqc_store" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A tiny feasibility problem with a unique enough solution space; the
   tag carries no registered verifier, so acceptance rides on the
   generic exact point check (complete for empty objectives). *)
let feas_problem () =
  Problem.make ~tag:"test/store" ~num_vars:2
    [ Problem.row [ (0, q 1); (1, q 1) ] Simplex.Ge (q 2);
      Problem.row [ (0, q 1) ] Simplex.Le (q 1) ]

let outcome_testable =
  let pp fmt = function
    | Simplex.Optimal (v, x) ->
      Format.fprintf fmt "Optimal(%a,[%s])" Rat.pp v
        (String.concat ";" (Array.to_list (Array.map Rat.to_string x)))
    | Simplex.Unbounded -> Format.fprintf fmt "Unbounded"
    | Simplex.Infeasible -> Format.fprintf fmt "Infeasible"
  in
  let eq a b =
    match (a, b) with
    | Simplex.Optimal (v, x), Simplex.Optimal (w, y) ->
      Rat.equal v w
      && Array.length x = Array.length y
      && Array.for_all2 Rat.equal x y
    | Simplex.Unbounded, Simplex.Unbounded
    | Simplex.Infeasible, Simplex.Infeasible -> true
    | _ -> false
  in
  Alcotest.testable pp eq

let test_roundtrip () =
  with_temp_store @@ fun path ->
  let p = feas_problem () in
  let outcome = Solver.solve p in
  let st = Store.open_ path in
  Store.record st p outcome;
  Alcotest.(check int) "indexed after record" 1 (Store.size st);
  Store.close st;
  (* Restart: the entry must re-verify exactly and come back intact. *)
  let st2 = Store.open_ path in
  Alcotest.(check int) "loaded on reopen" 1 (Store.loaded st2);
  Alcotest.(check int) "nothing rejected" 0 (Store.rejected st2);
  (match Store.lookup st2 p with
   | Some o -> Alcotest.check outcome_testable "outcome survives" outcome o
   | None -> Alcotest.fail "warm entry missing");
  (* Served outcomes are fresh copies: mutating one cannot poison the
     index. *)
  (match Store.lookup st2 p with
   | Some (Simplex.Optimal (_, x)) -> x.(0) <- q 999
   | _ -> Alcotest.fail "expected Optimal");
  (match Store.lookup st2 p with
   | Some (Simplex.Optimal (_, x)) ->
     Alcotest.(check bool) "copy-on-lookup" false (Rat.equal x.(0) (q 999))
   | _ -> Alcotest.fail "expected Optimal");
  Store.close st2

let test_infeasible_not_persisted () =
  with_temp_store @@ fun path ->
  let p =
    Problem.make ~tag:"test/store_infeas" ~num_vars:1
      [ Problem.row [ (0, q 1) ] Simplex.Le (q (-1)) ]
  in
  let outcome = Solver.solve p in
  Alcotest.check outcome_testable "infeasible" Simplex.Infeasible outcome;
  let st = Store.open_ path in
  Store.record st p outcome;
  Alcotest.(check int) "not indexed" 0 (Store.size st);
  Store.close st;
  let st2 = Store.open_ path in
  Alcotest.(check int) "nothing on disk" 0 (Store.loaded st2);
  Store.close st2

let test_truncated_tail_ignored () =
  with_temp_store @@ fun path ->
  let p = feas_problem () in
  let st = Store.open_ path in
  Store.record st p (Solver.solve p);
  Store.close st;
  (* Simulate a crash mid-append: garbage with no trailing newline. *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "{\"v\":1,\"problem\":{\"tag\":\"test/st";
  close_out oc;
  let st2 = Store.open_ path in
  Alcotest.(check int) "good prefix loads" 1 (Store.loaded st2);
  Alcotest.(check int) "tail is a crash artifact, not corruption" 0
    (Store.rejected st2);
  Alcotest.(check int) "truncation counted" 1 (Store.truncated st2);
  (* The next append terminates the garbage line first, so the file
     heals: everything (old entry + new entry) loads on the next open. *)
  let p2 =
    Problem.make ~tag:"test/store2" ~num_vars:1
      [ Problem.row [ (0, q 1) ] Simplex.Ge (q 1) ]
  in
  Store.record st2 p2 (Solver.solve p2);
  Store.close st2;
  let st3 = Store.open_ path in
  Alcotest.(check int) "healed file loads both entries" 2 (Store.loaded st3);
  Alcotest.(check int) "garbage line rejected, counted" 1 (Store.rejected st3);
  Store.close st3

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_corrupt_entry_rejected () =
  with_temp_store @@ fun path ->
  let p = feas_problem () in
  let st = Store.open_ path in
  Store.record st p (Solver.solve p);
  Store.close st;
  (* Flip bytes inside the record (a digit in the point), keeping the
     line syntactically plausible: verification must catch it. *)
  let text = read_file path in
  let idx = ref (-1) in
  String.iteri
    (fun i c -> if !idx < 0 && (c = '1' || c = '2') then idx := i)
    text;
  Alcotest.(check bool) "found a digit to corrupt" true (!idx >= 0);
  let corrupted = Bytes.of_string text in
  Bytes.set corrupted !idx '7';
  write_file path (Bytes.to_string corrupted);
  let st2 = Store.open_ path in
  Alcotest.(check int) "corrupt entry rejected" 1 (Store.rejected st2);
  Alcotest.(check int) "nothing served" 0 (Store.loaded st2);
  Alcotest.(check bool) "lookup misses" true (Store.lookup st2 p = None);
  Store.close st2

let test_forged_point_rejected () =
  with_temp_store @@ fun path ->
  (* A syntactically perfect record whose point violates a row: the
     exact re-verification must drop it even though parsing succeeds. *)
  write_file path
    ("{\"v\":1,\"problem\":{\"tag\":\"test/store\",\"vars\":2,\"obj\":[],"
     ^ "\"rows\":[[[[0,\"1\"],[1,\"1\"]],\"ge\",\"2\"],[[[0,\"1\"]],\"le\",\"1\"]]},"
     ^ "\"outcome\":{\"value\":\"0\",\"point\":[\"0\",\"0\"]}}\n");
  let st = Store.open_ path in
  Alcotest.(check int) "forged point rejected" 1 (Store.rejected st);
  Alcotest.(check int) "never indexed" 0 (Store.size st);
  Store.close st

let test_objective_needs_verifier () =
  with_temp_store @@ fun path ->
  (* Feasibility of the point proves nothing about *optimality* when the
     problem has a real objective; with no semantic verifier registered
     for the tag, the entry must be refused on load. *)
  let p =
    Problem.make ~tag:"test/store_obj" ~num_vars:1
      ~objective:[ (0, q 1) ]
      [ Problem.row [ (0, q 1) ] Simplex.Ge (q 1) ]
  in
  let outcome = Solver.solve p in
  (match outcome with
   | Simplex.Optimal (v, _) ->
     Alcotest.(check bool) "solver found the optimum" true
       (Rat.equal v (q 1))
   | _ -> Alcotest.fail "expected Optimal");
  let st = Store.open_ path in
  Store.record st p outcome;
  Store.close st;
  let st2 = Store.open_ path in
  Alcotest.(check int) "unprovable optimality rejected" 1 (Store.rejected st2);
  Alcotest.(check int) "not loaded" 0 (Store.loaded st2);
  Store.close st2

(* ---------------- store wiring through Solver ---------------- *)

let with_attached path f =
  let st = Store.open_ path in
  Store.attach st;
  Fun.protect
    ~finally:(fun () ->
      Store.detach ();
      Store.close st)
    (fun () -> f st)

let test_solver_warm_start () =
  with_temp_store @@ fun path ->
  let p = feas_problem () in
  (* Cold run with the store attached: miss the store, solve, append. *)
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun _ ->
      ignore (Solver.solve p);
      Alcotest.(check int) "cold: one real solve" 1 (count "lp.solves");
      Alcotest.(check int) "cold: store consulted, missed" 1
        (count "solver.store.misses");
      Alcotest.(check int) "cold: solve appended" 1
        (count "solver.store.appends"));
  (* Warm restart: reopen the store; the solve must be served from disk
     without touching the simplex. *)
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun st ->
      Alcotest.(check int) "warm: entry re-verified on load" 1
        (Store.loaded st);
      let outcome = Solver.solve p in
      (match outcome with
       | Simplex.Optimal _ -> ()
       | _ -> Alcotest.fail "expected Optimal");
      Alcotest.(check int) "warm: zero simplex runs" 0 (count "lp.solves");
      Alcotest.(check int) "warm: one store hit" 1 (count "solver.store.hits");
      (* LPs are not memoized in memory: a second solve is answered by
         the store again, still without the simplex, and appends
         nothing. *)
      ignore (Solver.solve p);
      Alcotest.(check int) "warm: second solve from the store" 2
        (count "solver.store.hits");
      Alcotest.(check int) "warm: still zero simplex runs" 0
        (count "lp.solves");
      Alcotest.(check int) "warm: nothing appended" 0
        (count "solver.store.appends"));
  Solver.clear ();
  Obs.Metrics.reset ()

(* The two Farkas roundtrip tests below exercise the full-family
   "gamma/farkas" store verifier, which only the reference oracle's
   Farkas LP carries; the production lazy driver gets its own roundtrip
   test. *)
let test_farkas_certificate_verified_roundtrip () =
  with_temp_store @@ fun path ->
  (* End-to-end over the oracle's Farkas solve: it lands in the store,
     survives a restart only because its reconstructed certificate passes
     Certificate.check, and then answers the warm run with zero LP
     solves. *)
  let n = 2 in
  let es = [ Linexpr.mutual (Varset.singleton 0) (Varset.singleton 1) Varset.empty ] in
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun _ ->
      match Cones.Oracle.valid_max_cert ~n es with
      | Ok cert ->
        Alcotest.(check bool) "certificate checks" true (Certificate.check cert)
      | Error _ -> Alcotest.fail "I(0;1) >= 0 must be Shannon-valid");
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun st ->
      Alcotest.(check int) "farkas entry re-verified via Certificate.check" 1
        (Store.loaded st);
      Alcotest.(check int) "nothing rejected" 0 (Store.rejected st);
      (match Cones.Oracle.valid_max_cert ~n es with
       | Ok cert ->
         Alcotest.(check bool) "warm certificate checks" true
           (Certificate.check cert)
       | Error _ -> Alcotest.fail "warm verdict flipped");
      Alcotest.(check int) "warm verdict with zero simplex runs" 0
        (count "lp.solves");
      Alcotest.(check bool) "served from the store" true
        (count "solver.store.hits" >= 1));
  Solver.clear ();
  Obs.Metrics.reset ()

let test_farkas_tampered_entry_dropped () =
  with_temp_store @@ fun path ->
  let n = 2 in
  let es = [ Linexpr.mutual (Varset.singleton 0) (Varset.singleton 1) Varset.empty ] in
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun _ -> ignore (Cones.Oracle.valid_max_cert ~n es));
  (* Tamper with the recorded Farkas point (first rational in the point
     array): the entry must be dropped on load and the warm run must
     fall back to a real solve with the correct verdict. *)
  let text = read_file path in
  let marker = "\"point\":[\"" in
  let at =
    let rec find i =
      if i + String.length marker > String.length text then -1
      else if String.sub text i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "found the point" true (at >= 0);
  let b = Bytes.of_string text in
  Bytes.set b at (if Bytes.get b at = '9' then '8' else '9');
  write_file path (Bytes.to_string b);
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun st ->
      Alcotest.(check int) "tampered entry rejected" 1 (Store.rejected st);
      Alcotest.(check int) "nothing loaded" 0 (Store.loaded st);
      (match Cones.Oracle.valid_max_cert ~n es with
       | Ok cert ->
         Alcotest.(check bool) "verdict re-derived correctly" true
           (Certificate.check cert)
       | Error _ -> Alcotest.fail "verdict flipped after tampering");
      Alcotest.(check bool) "re-solved for real" true (count "lp.solves" >= 1));
  Solver.clear ();
  Obs.Metrics.reset ()

let test_lazy_store_roundtrip () =
  with_temp_store @@ fun path ->
  (* A valid Γn decision is certified from the float probe's Farkas row
     with no LP at all, so it leaves the store untouched.  A Γn
     refutation still settles on exact rounds, and those Optimal
     per-round solves persist under the lazy driver's pure-feasibility
     tag: a warm restart must re-verify them, serve them from disk, and
     reach the same refuted verdict. *)
  let n = 4 in
  let i a b c =
    Linexpr.mutual (Varset.singleton a) (Varset.singleton b) (Varset.of_list c)
  in
  let valid = [ i 0 1 [ 2 ] ] in
  let ingleton =
    [ Linexpr.sub
        (Linexpr.sum [ i 0 1 [ 2 ]; i 0 1 [ 3 ]; i 2 3 [] ])
        (i 0 1 []) ]
  in
  let refuted () =
    match Cones.valid_max_cert Cones.Gamma ~n ingleton with
    | Error h ->
      Alcotest.(check bool) "refuter violates Ingleton" true
        (Rat.sign (Linexpr.eval (Polymatroid.value h) (List.hd ingleton)) < 0)
    | Ok _ -> Alcotest.fail "Ingleton is not a Shannon inequality"
  in
  Solver.clear ();
  Obs.Metrics.reset ();
  let cold_solves =
    with_attached path (fun _ ->
        (match Cones.valid_max_cert Cones.Gamma ~n valid with
         | Ok (Some cert) ->
           Alcotest.(check bool) "certificate checks" true
             (Certificate.check cert)
         | Ok None | Error _ -> Alcotest.fail "I(0;1|2) >= 0 must be valid");
        Alcotest.(check int) "valid: no LP solved" 0 (count "lp.solves");
        Alcotest.(check int) "valid: nothing appended" 0
          (count "solver.store.appends");
        refuted ();
        Alcotest.(check bool) "refutation appended its rounds" true
          (count "solver.store.appends" >= 1);
        count "lp.solves")
  in
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun st ->
      Alcotest.(check int) "lazy entries re-verified on load" 0
        (Store.rejected st);
      Alcotest.(check bool) "something persisted" true (Store.loaded st >= 1);
      refuted ();
      Alcotest.(check bool) "warm run solves less than cold" true
        (count "lp.solves" < cold_solves);
      Alcotest.(check bool) "served from the store" true
        (count "solver.store.hits" >= 1));
  Solver.clear ();
  Obs.Metrics.reset ()

(* The serve smoke's store steps rest on the Not-contained pair
   R(x,y), R(x,z) ⊑? R(u,v), R(w,v) still solving its Nn LP: its two
   Eq. 8 sides defeat the generator presolve, so the refutation LP runs
   and its Optimal point is appended, then served from disk after a
   restart. *)
let test_nn_fallback_appends () =
  with_temp_store @@ fun path ->
  let module Parser = Bagcqc_cq.Parser in
  let module Containment = Bagcqc_core.Containment in
  let ineq =
    Containment.eq8 (Parser.parse "R(x,y), R(x,z)") (Parser.parse "R(u,v), R(w,v)")
  in
  let lp_fallbacks () = count "cone.presolve.lp" in
  let refuted () =
    Alcotest.(check bool) "refuted over Nn" true
      (Result.is_error (Maxii.valid_over Cones.Normal ineq))
  in
  Solver.clear ();
  Obs.Metrics.reset ();
  let before = lp_fallbacks () in
  with_attached path (fun _ ->
      refuted ();
      Alcotest.(check int) "presolve fell back to the LP" (before + 1)
        (lp_fallbacks ());
      Alcotest.(check int) "one LP solved" 1 (count "lp.solves");
      Alcotest.(check int) "its point appended" 1
        (count "solver.store.appends"));
  Solver.clear ();
  Obs.Metrics.reset ();
  with_attached path (fun st ->
      Alcotest.(check int) "entry re-verified on load" 1 (Store.loaded st);
      refuted ();
      Alcotest.(check int) "warm: no LP solved" 0 (count "lp.solves");
      Alcotest.(check int) "warm: served from the store" 1
        (count "solver.store.hits"));
  Solver.clear ();
  Obs.Metrics.reset ()

(* ---------------- compaction ---------------- *)

let test_compact_dedups_and_drops () =
  with_temp_store @@ fun path ->
  let p = feas_problem () in
  let p2 =
    Problem.make ~tag:"test/store2" ~num_vars:1
      [ Problem.row [ (0, q 1) ] Simplex.Ge (q 1) ]
  in
  let st = Store.open_ path in
  Store.record st p (Solver.solve p);
  Store.record st p2 (Solver.solve p2);
  Store.close st;
  (* Cross-process duplication plus on-disk rot: double the log, add an
     unparseable line and a crash-truncated tail. *)
  let text = read_file path in
  write_file path (text ^ text ^ "garbage\n{\"v\":1,\"probl");
  let c = Store.compact path in
  Alcotest.(check int) "kept one entry per key" 2 c.Store.kept;
  Alcotest.(check int) "duplicates counted" 2 c.Store.duplicates;
  Alcotest.(check int) "garbage dropped" 1 c.Store.dropped;
  Alcotest.(check bool) "truncated tail seen" true c.Store.had_truncated_tail;
  (* The compacted file is pristine: everything loads, nothing rejected,
     and lookups still serve. *)
  let st2 = Store.open_ path in
  Alcotest.(check int) "compacted file loads clean" 2 (Store.loaded st2);
  Alcotest.(check int) "nothing rejected after compaction" 0
    (Store.rejected st2);
  Alcotest.(check int) "no tail after compaction" 0 (Store.truncated st2);
  Alcotest.(check bool) "entry still served" true (Store.lookup st2 p <> None);
  Store.close st2

let test_compact_last_wins () =
  with_temp_store @@ fun path ->
  (* Two verified records for the same canonical problem with different
     (equally feasible) points: compaction must keep the later one —
     the same last-wins rule the loader's Table.replace applies. *)
  let entry point =
    "{\"v\":1,\"problem\":{\"tag\":\"test/store\",\"vars\":2,\"obj\":[],"
    ^ "\"rows\":[[[[0,\"1\"],[1,\"1\"]],\"ge\",\"2\"],[[[0,\"1\"]],\"le\",\"1\"]]},"
    ^ "\"outcome\":{\"value\":\"0\",\"point\":[" ^ point ^ "]}}\n"
  in
  write_file path (entry "\"1\",\"1\"" ^ entry "\"0\",\"2\"");
  let c = Store.compact path in
  Alcotest.(check int) "one survivor" 1 c.Store.kept;
  Alcotest.(check int) "one superseded" 1 c.Store.duplicates;
  let st = Store.open_ path in
  (match Store.lookup st (feas_problem ()) with
   | Some (Simplex.Optimal (_, x)) ->
     Alcotest.(check bool) "the later point won" true
       (Rat.equal x.(0) (q 0) && Rat.equal x.(1) (q 2))
   | _ -> Alcotest.fail "expected the compacted entry");
  Store.close st

let test_compact_idempotent_and_missing () =
  with_temp_store @@ fun path ->
  Sys.remove path;
  (* Compacting a missing store creates an empty, valid one. *)
  let c0 = Store.compact path in
  Alcotest.(check int) "nothing kept from nothing" 0 c0.Store.kept;
  Alcotest.(check bool) "file exists afterwards" true (Sys.file_exists path);
  let st = Store.open_ path in
  Store.record st (feas_problem ()) (Solver.solve (feas_problem ()));
  Store.close st;
  let c1 = Store.compact path in
  let once = read_file path in
  let c2 = Store.compact path in
  Alcotest.(check int) "stable entry count" c1.Store.kept c2.Store.kept;
  Alcotest.(check int) "second pass finds no duplicates" 0 c2.Store.duplicates;
  Alcotest.(check int) "second pass drops nothing" 0 c2.Store.dropped;
  Alcotest.(check string) "compaction is idempotent byte-for-byte" once
    (read_file path)

let suite =
  [ Alcotest.test_case "store: record/reopen round-trip" `Quick test_roundtrip;
    Alcotest.test_case "store: infeasible never persisted" `Quick
      test_infeasible_not_persisted;
    Alcotest.test_case "store: truncated tail ignored and healed" `Quick
      test_truncated_tail_ignored;
    Alcotest.test_case "store: corrupted entry rejected" `Quick
      test_corrupt_entry_rejected;
    Alcotest.test_case "store: forged point rejected" `Quick
      test_forged_point_rejected;
    Alcotest.test_case "store: real objective needs a verifier" `Quick
      test_objective_needs_verifier;
    Alcotest.test_case "solver: cold run appends, warm run skips simplex"
      `Quick test_solver_warm_start;
    Alcotest.test_case "farkas: store entry verified via Certificate.check"
      `Quick test_farkas_certificate_verified_roundtrip;
    Alcotest.test_case "farkas: tampered store entry dropped, verdict intact"
      `Quick test_farkas_tampered_entry_dropped;
    Alcotest.test_case "lazy: per-round entries persist and re-verify"
      `Quick test_lazy_store_roundtrip;
    Alcotest.test_case "Nn fallback: serve-smoke pair appends its LP" `Quick
      test_nn_fallback_appends;
    Alcotest.test_case "compact: dedups, drops rot, survives reopen" `Quick
      test_compact_dedups_and_drops;
    Alcotest.test_case "compact: last verified entry per key wins" `Quick
      test_compact_last_wins;
    Alcotest.test_case "compact: idempotent; missing file becomes empty store"
      `Quick test_compact_idempotent_and_missing ]
