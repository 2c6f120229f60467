(* The Eq. 8 front end — the one-pass decomposition, the sides built on
   integer terms and the witness count on integer codes — held to the
   multi-pass reference ([Bagcqc_check.Reference_eq8], through
   [Suites.check_eq8]) on check-10k, on a seed-7 generated corpus, and
   on generated queries with 4- and 5-cycles with and without chords,
   isolated variables, disconnected, nullary and empty queries. *)

open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_core
open Bagcqc_check

let expect_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let pair_name q1 q2 = Query.to_string q1 ^ " ; " ^ Query.to_string q2

(* [Suites.check_eq8] on every pair, and every Not_contained verdict's
   counts re-taken by [verify_witness] on the database built from [P];
   the number of Not_contained verdicts. *)
let check_pairs pairs =
  let not_contained = ref 0 in
  List.iter
    (fun (q1, q2) ->
      expect_ok (pair_name q1 q2) (Suites.check_eq8 q1 q2);
      Bagcqc_engine.Solver.clear ();
      match Containment.decide q1 q2 with
      | Containment.Not_contained w ->
        incr not_contained;
        if
          Containment.verify_witness q1 q2 w.Containment.p
          <> Some (w.Containment.card_p, w.Containment.hom2)
        then Alcotest.failf "%s: the witness does not recount" (pair_name q1 q2)
      | Containment.Contained _ | Containment.Unknown _ -> ())
    pairs;
  Bagcqc_engine.Solver.clear ();
  !not_contained

let check_pairs_of insts =
  List.filter_map
    (fun inst ->
      match inst.Corpus.payload with
      | Corpus.Check_pair { q1; q2 } -> Some (q1, q2)
      | Corpus.Iip_sides _ -> None)
    insts

let test_check10k () =
  match Corpus.load "../corpus/check-10k.jsonl" with
  | Error msg -> Alcotest.fail msg
  | Ok (_, insts) ->
    Alcotest.(check int) "Not_contained pairs" 5000 (check_pairs (check_pairs_of insts))

let test_generated_seed7 () =
  let pairs = check_pairs_of (Corpus.generate Corpus.Check ~seed:7 ~total:10_000) in
  Alcotest.(check int) "pairs" 10_000 (List.length pairs);
  Alcotest.(check bool) "some Not_contained pairs" true (check_pairs pairs > 0)

let p = Parser.parse

(* Shapes where a decomposition rule can go wrong. *)
let shapes =
  [ ("C4", p "R(a,b), R(b,c), R(c,d), R(d,a)");
    ("C4 with a chord", p "R(a,b), R(b,c), R(c,d), R(d,a), R(a,c)");
    ("C5", p "R(a,b), R(b,c), R(c,d), R(d,e), R(e,a)");
    ("C5 with one chord", p "R(a,b), R(b,c), R(c,d), R(d,e), R(e,a), R(a,c)");
    ("C5 triangulated", p "R(a,b), R(b,c), R(c,d), R(d,e), R(e,a), R(a,c), R(a,d)");
    ("triangle", p "R(a,b), R(b,c), R(c,a)");
    ("triangle inside an atom", p "T(a,b,c), R(a,b), R(b,c), R(c,a)");
    ("isolated variables", p "S(a), R(b,c), S(d)");
    ("disconnected", p "R(a,b), R(b,c), R(d,e), T(f,g,h)");
    ("disconnected cycles", p "R(a,b), R(b,c), R(c,a), R(d,e), R(e,f), R(f,g), R(g,d)");
    ("empty", Query.make ~nvars:0 []);
    ("nullary", Query.make ~nvars:0 [ Query.atom "N" [] ]);
    ("nullary and a variable", Query.make ~nvars:1 [ Query.atom "N" []; Query.atom "S" [ 0 ] ]) ]

let test_shapes () =
  List.iter
    (fun (name, q) -> expect_ok name (Suites.check_eq8 ~steps:[] q q))
    shapes;
  let acyclic name = Treedec.is_acyclic (List.assoc name shapes) in
  Alcotest.(check (list bool)) "α-acyclicity"
    [ false; false; true; true; true; true ]
    (List.map acyclic
       [ "C4"; "triangle"; "triangle inside an atom"; "isolated variables";
         "disconnected"; "nullary" ]);
  Alcotest.(check int) "a nullary query has one empty bag" 1
    (Treedec.n_nodes (Treedec.of_query (List.assoc "nullary" shapes)));
  Alcotest.(check int) "the empty query has no bag" 0
    (Treedec.n_nodes (Treedec.of_query (List.assoc "empty" shapes)))

(* Q2 and Q1 each a shape or a random query (over R/2, S/2, T/1, so some
   pairs clash in arity), with a random normal relation P over Q1. *)
let prop_front_end =
  let case seed =
    let rng = Rng.create seed in
    let query () =
      if Rng.bool rng then snd (Rng.choose rng shapes) else Gen.query rng
    in
    let q2 = query () in
    let q1 = query () in
    let full = Varset.full (Query.nvars q1) in
    let steps =
      List.filter_map
        (fun (w, k) -> if w = full then None else Some (w, k))
        (List.init (Rng.int rng 4) (fun _ -> (Rng.bits rng land full, Rng.range rng 1 2)))
    in
    (q1, q2, steps)
  in
  QCheck.Test.make ~name:"front end matches the multi-pass reference" ~count:300
    (QCheck.make
       ~print:(fun seed ->
         let q1, q2, steps = case seed in
         Printf.sprintf "%s  steps [%s]" (pair_name q1 q2)
           (String.concat "; "
              (List.map (fun (w, k) -> Printf.sprintf "%d x%d" w k) steps)))
       QCheck.Gen.int)
    (fun seed ->
      let q1, q2, steps = case seed in
      match Suites.check_eq8 ~steps q1 q2 with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let suite =
  [ ("check-10k against the reference", `Quick, test_check10k);
    ("generated seed-7 corpus against the reference", `Quick, test_generated_seed7);
    ("cycles, chords, isolated, nullary and empty", `Quick, test_shapes) ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_front_end ]
