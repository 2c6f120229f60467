(* Tests for the domain pool and the parallel execution paths layered on
   it: combinator semantics (ordering, exceptions, nesting), lifecycle
   guards, and the contract the wire-ins advertise — results AND
   deterministic solver counters of the parallel paths are identical to
   the sequential ones. *)

open Bagcqc_relation
open Bagcqc_cq
open Bagcqc_core
module Pool = Bagcqc_par.Pool
module Obs = Bagcqc_obs
open Bagcqc_engine

let count name = Obs.Metrics.count (Obs.Metrics.counter name)

let with_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* ------------------------------------------------------------------ *)
(* Pool combinators                                                    *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  with_jobs 4 @@ fun () ->
  List.iter
    (fun n ->
      let xs = Array.init n (fun i -> i) in
      let expect = Array.map (fun x -> (x * x) + 1) xs in
      Alcotest.(check (array int))
        (Printf.sprintf "parallel_map n=%d" n)
        expect
        (Pool.parallel_map (fun x -> (x * x) + 1) xs);
      let expect_f = Array.to_list expect |> List.filter (fun x -> x mod 3 = 0) in
      Alcotest.(check (list int))
        (Printf.sprintf "parallel_filter_map n=%d" n)
        expect_f
        (Array.to_list
           (Pool.parallel_filter_map
              (fun x ->
                let y = (x * x) + 1 in
                if y mod 3 = 0 then Some y else None)
              xs)))
    [ 0; 1; 2; 3; 7; 64; 257 ];
  let l = List.init 33 (fun i -> i) in
  Alcotest.(check (list int)) "parallel_map_list"
    (List.map (fun x -> x * 2) l)
    (Pool.parallel_map_list (fun x -> x * 2) l)

let test_both () =
  with_jobs 4 @@ fun () ->
  let a, b = Pool.both (fun () -> 6 * 7) (fun () -> "ok") in
  Alcotest.(check int) "both fst" 42 a;
  Alcotest.(check string) "both snd" "ok" b

exception Boom of int

let test_exception_propagation () =
  with_jobs 4 @@ fun () ->
  (* Elements 3 and 17 both raise; chunks are contiguous ranges, so the
     failure from the smallest index must win deterministically. *)
  let xs = Array.init 40 (fun i -> i) in
  for _ = 1 to 5 do
    match
      Pool.parallel_map (fun i -> if i = 3 || i = 17 then raise (Boom i) else i) xs
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> Alcotest.(check int) "smallest failing index" 3 i
  done

let test_nested_runs_sequentially () =
  with_jobs 4 @@ fun () ->
  (* Assertions stay on the calling domain: Alcotest's formatter is not
     domain-safe, so checking inside a task can crash the reporter. *)
  let results =
    Pool.parallel_map
      (fun i ->
        (* A nested combinator must fall back to sequential execution
           instead of deadlocking the pool, and still be correct. *)
        ( Pool.inside_task (),
          Array.fold_left ( + ) 0
            (Pool.parallel_map (fun j -> (i * 10) + j) (Array.init 5 Fun.id)) ))
      (Array.init 8 Fun.id)
  in
  Alcotest.(check bool) "task sees inside_task" true
    (Array.for_all fst results);
  let rows = Array.map snd results in
  Alcotest.(check (array int)) "nested results"
    (Array.init 8 (fun i -> (i * 50) + 10))
    rows

let test_lifecycle_guards () =
  with_jobs 4 @@ fun () ->
  (* Pool sizing, obs recording flips, and decision-memo clears must all
     refuse to run inside a parallel region. *)
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  let results =
    Pool.parallel_map
      (fun i ->
        if i = 0 then
          ( raises (fun () -> Pool.set_jobs 2),
            raises (fun () -> Obs.enable ()),
            raises (fun () -> Solver.clear ()) )
        else (true, true, true))
      (Array.init 8 Fun.id)
  in
  let set_jobs_r, enable_r, clear_r = results.(0) in
  Alcotest.(check bool) "set_jobs refused in region" true set_jobs_r;
  Alcotest.(check bool) "Obs.enable refused in region" true enable_r;
  Alcotest.(check bool) "Solver.clear refused in region" true clear_r;
  (* And all three work again once the region is over. *)
  Alcotest.(check bool) "region over" false (Pool.in_parallel_region ());
  Solver.clear ()

(* ------------------------------------------------------------------ *)
(* Parallel = sequential for the wired-in paths                        *)
(* ------------------------------------------------------------------ *)

let verdict_tag = function
  | Containment.Contained _ -> "contained"
  | Containment.Not_contained _ -> "not_contained"
  | Containment.Unknown _ -> "unknown"

(* Same random query pairs as the containment suite: small binary
   queries over R/S with a covering chain so every variable occurs. *)
let arb_pair =
  let gen =
    QCheck.Gen.(
      let* nv = int_range 1 3 in
      let gen_query =
        let* natoms = int_range 1 3 in
        let* atoms =
          list_repeat natoms
            (let* rel = int_range 0 1 in
             let* a = int_range 0 (nv - 1) in
             let* b = int_range 0 (nv - 1) in
             return (Query.atom (if rel = 0 then "R" else "S") [ a; b ]))
        in
        let chain = List.init nv (fun v -> Query.atom "R" [ v; (v + 1) mod nv ]) in
        return (Query.dedup_atoms (Query.make ~nvars:nv (atoms @ chain)))
      in
      pair gen_query gen_query)
  in
  QCheck.make
    ~print:(fun (a, b) -> Query.to_string a ^ "  vs  " ^ Query.to_string b)
    gen

let random_db seed =
  let st = Random.State.make [| seed |] in
  List.fold_left
    (fun db rel ->
      List.fold_left
        (fun db _ ->
          let a = Random.State.int st 4 and b = Random.State.int st 4 in
          Database.add_row rel [| Value.Int a; Value.Int b |] db)
        db
        (List.init (4 + Random.State.int st 12) Fun.id))
    Database.empty [ "R"; "S" ]

let prop_maxii_par_eq_seq =
  QCheck.Test.make ~name:"Maxii.decide: jobs=4 verdict equals jobs=1" ~count:30
    arb_pair (fun (q1, q2) ->
      let ineq = Containment.eq8 q1 q2 in
      let tag d =
        match d with
        | Bagcqc_entropy.Maxii.Valid _ -> "valid"
        | Bagcqc_entropy.Maxii.Invalid _ -> "invalid"
        | Bagcqc_entropy.Maxii.Unknown _ -> "unknown"
      in
      Solver.clear ();
      let seq = with_jobs 1 (fun () -> Bagcqc_entropy.Maxii.decide ineq) in
      Solver.clear ();
      let par = with_jobs 4 (fun () -> Bagcqc_entropy.Maxii.decide ineq) in
      tag seq = tag par)

let prop_hom_count_par_eq_seq =
  QCheck.Test.make ~name:"Hom.count: jobs=4 equals jobs=1" ~count:40
    (QCheck.pair arb_pair QCheck.small_int) (fun ((q, _), seed) ->
      let db = random_db seed in
      let seq = with_jobs 1 (fun () -> Hom.count q db) in
      let par = with_jobs 4 (fun () -> Hom.count q db) in
      seq = par)

let prop_contained_on_par_eq_seq =
  QCheck.Test.make ~name:"Hom.contained_on: jobs=4 equals jobs=1" ~count:40
    (QCheck.pair arb_pair QCheck.small_int) (fun ((q1, q2), seed) ->
      let db = random_db seed in
      let seq = with_jobs 1 (fun () -> Hom.contained_on q1 q2 db) in
      let par = with_jobs 4 (fun () -> Hom.contained_on q1 q2 db) in
      seq = par)

let prop_batch_par_eq_seq =
  QCheck.Test.make ~name:"decide_many: jobs=4 equals one-by-one jobs=1"
    ~count:15
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) arb_pair)
    (fun pairs ->
      Solver.clear ();
      let seq =
        with_jobs 1 (fun () ->
            List.map
              (fun (q1, q2) -> Containment.decide ~max_factors:8 q1 q2)
              pairs)
      in
      Solver.clear ();
      let par =
        with_jobs 4 (fun () -> Containment.decide_many ~max_factors:8 pairs)
      in
      List.for_all2
        (fun a b ->
          verdict_tag a = verdict_tag b
          &&
          match a, b with
          | Containment.Not_contained wa, Containment.Not_contained wb ->
            wa.Containment.card_p = wb.Containment.card_p
            && wa.Containment.hom2 = wb.Containment.hom2
          | _ -> true)
        seq par)

(* The serve daemon's concurrency contract, at the decision memo: N
   identical requests landing together are decided once — one memo miss,
   N − 1 hits, exactly as many LP solves as one request (the memo's
   in-flight dedup) — and every caller gets byte-identical,
   certificate-verified verdicts, under both the sequential and the
   parallel scheduler. *)
let prop_identical_requests_one_solve =
  QCheck.Test.make
    ~name:"decide_many: N identical requests, one solve, identical verdicts"
    ~count:10 arb_pair (fun (q1, q2) ->
      let pairs = List.init 6 (fun _ -> (q1, q2)) in
      let cert_str c = Format.asprintf "%a" (Bagcqc_entropy.Certificate.pp ()) c in
      let was = Obs.enabled () in
      if not was then Obs.enable ();
      Fun.protect ~finally:(fun () -> if not was then Obs.disable ())
      @@ fun () ->
      Obs.Metrics.reset ();
      Solver.clear ();
      let single = with_jobs 1 (fun () -> Containment.decide ~max_factors:8 q1 q2) in
      let single_solves = count "lp.solves" in
      List.for_all
        (fun jobs ->
          Obs.Metrics.reset ();
          Solver.clear ();
          let verdicts =
            with_jobs jobs (fun () ->
                Containment.decide_many ~max_factors:8 pairs)
          in
          count "lp.solves" = single_solves
          && count "solver.cache.misses" = 1
          && count "solver.cache.hits" = List.length pairs - 1
          && List.for_all
               (fun v ->
                 verdict_tag v = verdict_tag single
                 &&
                 match (v, single) with
                 | Containment.Contained c, Containment.Contained c0 ->
                   Bagcqc_entropy.Certificate.check c
                   && cert_str c = cert_str c0
                 | Containment.Not_contained w, Containment.Not_contained w0 ->
                   w.Containment.card_p = w0.Containment.card_p
                   && w.Containment.hom2 = w0.Containment.hom2
                 | _ -> true)
               verdicts)
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Deterministic counters: merged snapshots equal sequential counts    *)
(* ------------------------------------------------------------------ *)

(* The batch and Hom paths promise exact counter parity: each instance
   runs the sequential pipeline on one worker, and the decision memo
   dedups in-flight pairs so (hits, misses) match a one-by-one run — the
   batch repeats its first pair, which must be one hit either way.  (Maxii's speculative Normal∥Gamma path is exempt by design: it
   may solve LPs the sequential short-circuit skips.) *)
let batch_pairs =
  let q s = Parser.parse s in
  [ (q "R(x,y), R(y,z), R(z,x)", q "R(x,y), R(x,z)");
    (q "R(x,y)", q "R(x,y), R(x,z)");
    (q "R(x,y), R(y,z)", q "R(x,y)");
    (q "R(x,y), R(y,z), R(z,x)", q "R(x,y), R(x,z)");
    (q "R(x,y), R(y,z), R(z,w)", q "R(x,y), R(y,z)") ]

let counters_of f =
  Obs.Metrics.reset ();
  Solver.clear ();
  ignore (f ());
  ( count "lp.solves",
    (count "solver.cache.hits"),
    (count "solver.cache.misses"),
    (count "hom.enumerations") )

let with_obs_enabled f =
  let was = Obs.enabled () in
  if not was then Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) f

let test_batch_counter_parity () =
  with_obs_enabled @@ fun () ->
  let seq =
    counters_of (fun () ->
        with_jobs 1 (fun () ->
            List.map (fun (a, b) -> Containment.decide a b) batch_pairs))
  in
  let par =
    counters_of (fun () ->
        with_jobs 4 (fun () -> Containment.decide_many batch_pairs))
  in
  let _, seq_hits, _, _ = seq in
  Alcotest.(check int) "the repeated pair is one memo hit" 1 seq_hits;
  let pp (s, h, m, e) = Printf.sprintf "solves=%d hits=%d misses=%d homs=%d" s h m e in
  Alcotest.(check string) "lp_solves / cache hits+misses / hom_enumerations"
    (pp seq) (pp par)

let test_hom_counter_parity () =
  with_obs_enabled @@ fun () ->
  let tri = Parser.parse "R(x,y), R(y,z), R(z,x)" in
  let db = random_db 1234 in
  let seq = counters_of (fun () -> with_jobs 1 (fun () -> Hom.count tri db)) in
  let par = counters_of (fun () -> with_jobs 4 (fun () -> Hom.count tri db)) in
  let _, _, _, seq_homs = seq and _, _, _, par_homs = par in
  Alcotest.(check int) "one enumeration regardless of slicing" seq_homs
    par_homs;
  Alcotest.(check int) "exactly one enumeration" 1 par_homs

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_maxii_par_eq_seq; prop_hom_count_par_eq_seq;
      prop_contained_on_par_eq_seq; prop_batch_par_eq_seq;
      prop_identical_requests_one_solve ]

let suite =
  [ ("parallel_map matches sequential", `Quick, test_map_matches_sequential);
    ("both", `Quick, test_both);
    ("deterministic exception propagation", `Quick, test_exception_propagation);
    ("nested combinators run sequentially", `Quick, test_nested_runs_sequentially);
    ("lifecycle guards inside regions", `Quick, test_lifecycle_guards);
    ("batch counter parity", `Quick, test_batch_counter_parity);
    ("hom counter parity", `Quick, test_hom_counter_parity) ]
  @ qtests
