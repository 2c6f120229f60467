(* Tests for the conjunctive-query substrate: parser, homomorphism
   counting, Gaifman graphs, chordality, junction trees, tree
   decompositions, E_T, GYO acyclicity, Appendix A reductions. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq

let vs = Varset.of_list

let triangle = Parser.parse "R(x,y), R(y,z), R(z,x)"
let vee = Parser.parse "R(y1,y2), R(y1,y3)"

(* ------------------------------------------------------------------ *)
(* Parser / Query                                                      *)
(* ------------------------------------------------------------------ *)

let test_parser () =
  let q = Parser.parse "Q(x,z) :- R(x,y), S(y,z), T(z,z)." in
  Alcotest.(check int) "nvars" 3 (Query.nvars q);
  (* Head variables are indexed first: x=0, z=1, then y=2. *)
  Alcotest.(check (list int)) "head" [ 0; 1 ] (Query.head q);
  Alcotest.(check int) "atoms" 3 (List.length (Query.atoms q));
  Alcotest.(check string) "var names" "x" (Query.var_name q 0);
  let voc = Query.vocabulary q in
  Alcotest.(check (list (pair string int))) "vocabulary"
    [ ("R", 2); ("S", 2); ("T", 2) ] voc;
  (* Headless form *)
  let b = Parser.parse "R(x,y), R(y,x)" in
  Alcotest.(check bool) "boolean" true (Query.is_boolean b);
  (* Empty head *)
  let b2 = Parser.parse "Q() :- R(x)" in
  Alcotest.(check bool) "boolean with empty head" true (Query.is_boolean b2);
  (* Repeated variables in an atom *)
  let r = Parser.parse "R(x,x,y)" in
  (match Query.atoms r with
   | [ a ] -> Alcotest.(check bool) "repeated var" true (a.Query.args = [| 0; 0; 1 |])
   | _ -> Alcotest.fail "expected one atom")

let test_parser_errors () =
  let bad s =
    match Parser.parse_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "R(x,";
  bad "R(x))";
  bad "Q(w) :- R(x,y)";
  (* head var not in body *)
  bad "R(x,y) extra";
  (* unbalanced parens, both directions *)
  bad "R(x";
  bad "R x,y)";
  (* a body atom with no arguments constrains nothing *)
  bad "R()";
  bad "R(x,y), S()";
  (* trailing garbage after a complete query *)
  bad "R(x,y).)";
  bad "R(x,y), ";
  (* grammar-valid but Query.make-invalid inputs must come back as
     Error, not escape as Invalid_argument: inconsistent arities and a
     variable count past Varset.max_vars *)
  bad "R(x), R(x,y)";
  bad
    ("R("
    ^ String.concat "," (List.init 70 (fun i -> Printf.sprintf "v%d" i))
    ^ ")");
  (* duplicate head variables are legal output tuples, not errors *)
  (match Parser.parse_result "Q(x,x) :- R(x,y)" with
   | Ok q -> Alcotest.(check (list int)) "head repeats" [ 0; 0 ] (Query.head q)
   | Error msg -> Alcotest.failf "Q(x,x) should parse: %s" msg)

(* Each case pinned, and equal to the two-pass reference parser
   (Suites.check_parser: the same query and names, or the same message). *)
let test_parser_edge_cases () =
  let ok s printed = (s, Ok printed) and err s msg = (s, Error msg) in
  List.iter
    (fun (s, expected) ->
      (match Bagcqc_check.Suites.check_parser s with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "%S: %s" s msg);
      Alcotest.(check (result string string))
        s expected
        (Result.map Query.to_string (Parser.parse_result s)))
    [ ok "" "Q() :- true";
      ok "." "Q() :- true";
      ok "true" "Q() :- true";
      ok "true." "Q() :- true";
      ok "Q() :- true" "Q() :- true";
      ok "Q() :- true." "Q() :- true";
      ok "true(x)" "Q() :- true(x)";
      ok "true(x) :- R(x)" "Q(x) :- R(x)";
      ok "R() :- S(x)" "Q() :- S(x)";
      err "Q() , R(x)" "atom Q() has no arguments";
      err "Q(x) :- R(y)" "head variable does not occur in the body";
      err "Q(x) :- true" "head variable does not occur in the body";
      ok "Q(x,x) :- R(x,y)" "Q(x,x) :- R(x,y)";
      err "R(x,)" "expected a variable name";
      err "R(x" "expected ')'";
      err "R(x), true" "expected '('";
      err " ( " "expected an atom";
      err "true , R(x)" "trailing input after query";
      err "Q(x) :- R(x) :- S(x)" "trailing input after query";
      err "R(x):S(x)" "at offset 4: expected ':-'";
      (* a grammar error before a lexical one: the lexical one is reported *)
      err "R(x,,y) $" "at offset 8: unexpected character '$'";
      err "R(x)) $" "at offset 6: unexpected character '$'";
      (* two arity clashes: the first atom whose arity differs from its
         relation's first use is named *)
      err "R(x,y), S(x), S(x,y), R(x)" "Query.make: inconsistent arity for S" ];
  (* head variables first, then the body's in order of first occurrence *)
  Alcotest.(check (array string))
    "numbering" [| "z"; "x"; "y" |]
    (Query.var_names (Parser.parse "Q(z,x) :- R(x,y), S(y,z)"))

(* [Query.make]'s rejections, pinned to the messages of the table-based
   check it replaced: the first atom whose arity differs from an earlier
   atom of its relation is named, below and above the 32-atom pairwise
   limit, and the checks keep their order. *)
let test_query_make_messages () =
  let filler k = String.concat ", " (List.init k (Printf.sprintf "T%d(x)")) in
  let arity r = Error ("Query.make: inconsistent arity for " ^ r) in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check (result reject string)) s expected
        (Result.map ignore (Parser.parse_result s)))
    [ ("R(x,y), S(x), S(x,y), R(x)", arity "S");
      ("R(x), S(x,y), R(x,y), S(x)", arity "R");
      ("R(x,y), S(x), R(x), S(x,y)", arity "R");
      ("R(x,y), R(y,z,w)", arity "R");
      ("R(x,y), S(x), " ^ filler 35 ^ ", S(x,y), R(x)", arity "S");
      ("S(x), R(x,y), " ^ filler 35 ^ ", R(x), S(x,y)", arity "R");
      (filler 31 ^ ", R(x), R(x,y)", arity "R");
      (filler 32 ^ ", R(x), R(x,y)", arity "R");
      ( "R(" ^ String.concat "," (List.init 70 (Printf.sprintf "v%d")) ^ "), R(x)",
        Error "Query.make: variable count out of range" ) ];
  let r = Query.atom "R" in
  List.iter
    (fun (msg, f) ->
      Alcotest.check_raises msg (Invalid_argument ("Query.make: " ^ msg)) (fun () ->
          ignore (f ())))
    [ ("atom argument out of range", fun () ->
          Query.make ~nvars:2 [ r [ 0; 2 ]; r [ 0 ]; Query.atom "S" [ 1 ] ]);
      ("head variable out of range", fun () ->
          Query.make ~head:[ 3 ] ~nvars:2 [ r [ 0; 1 ]; r [ 0 ] ]);
      ("every variable must occur in some atom", fun () ->
          Query.make ~nvars:3 [ r [ 0; 1 ]; r [ 0 ] ]);
      ("names length mismatch", fun () -> Query.make ~nvars:2 ~names:[| "a" |] [ r [ 0; 1 ] ]);
      ("duplicate variable name a", fun () ->
          Query.make ~nvars:2 ~names:[| "a"; "a" |] [ r [ 0; 1 ]; r [ 0 ] ]);
      ("variable count out of range", fun () -> Query.make ~nvars:(-1) []);
      ("inconsistent arity for R", fun () -> Query.make ~nvars:2 [ r [ 0; 1 ]; r [ 0 ] ]) ]

(* Both sides of every check-10k pair, rendered as the benchmark feeds
   them to the parser. *)
let test_parser_check10k () =
  match Bagcqc_check.Corpus.load "../corpus/check-10k.jsonl" with
  | Error msg -> Alcotest.fail msg
  | Ok (_, insts) ->
    List.iter
      (fun inst ->
        match inst.Bagcqc_check.Corpus.payload with
        | Bagcqc_check.Corpus.Check_pair { q1; q2 } ->
          List.iter
            (fun q ->
              let s = Query.to_string q in
              match Bagcqc_check.Suites.check_parser s with
              | Ok () -> ()
              | Error msg -> Alcotest.failf "%S: %s" s msg)
            [ q1; q2 ]
        | Bagcqc_check.Corpus.Iip_sides _ -> Alcotest.fail "not a containment pair")
      insts

(* Interning and the arity check are linear: 50,000 atoms over 50,000
   relations (or 50,000 variables) take tens of milliseconds; a scan per
   atom takes seconds. *)
let test_parser_linear_time () =
  let n = 50_000 in
  let body atom = String.concat ", " (List.init n atom) in
  let timed what s =
    let t0 = Unix.gettimeofday () in
    let r = Parser.parse_result s in
    let dt = Unix.gettimeofday () -. t0 in
    if dt > 2.0 then Alcotest.failf "%s: %.2f s" what dt;
    (match Bagcqc_check.Suites.check_parser s with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "%s: %s" what msg);
    r
  in
  let distinct = body (fun i -> Printf.sprintf "R%d(x%d,x%d)" i (i mod 8) ((i + 1) mod 8)) in
  (match timed "distinct relations" distinct with
   | Ok q -> Alcotest.(check int) "atoms" n (List.length (Query.atoms q))
   | Error msg -> Alcotest.failf "distinct relations rejected: %s" msg);
  Alcotest.(check (result reject string))
    "arity clash" (Error "Query.make: inconsistent arity for R0")
    (Result.map ignore (timed "arity clash" (distinct ^ ", R0(x0)")));
  Alcotest.(check (result reject string))
    "too many variables" (Error "Query.make: variable count out of range")
    (Result.map ignore (timed "distinct variables" (body (Printf.sprintf "R(v%d)"))))

let test_query_helpers_linear_time () =
  let n = 50_000 in
  let timed what f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt > 1.0 then Alcotest.failf "%s: %.2f s" what dt;
    r
  in
  let edge i = Query.atom (Printf.sprintf "R%d" i) [ i mod 8; (i + 1) mod 8 ] in
  let distinct = Query.make ~nvars:8 (List.init n edge) in
  Alcotest.(check bool) "no duplicate: the query itself" true
    (timed "dedup, distinct" (fun () -> Query.dedup_atoms distinct) == distinct);
  (* Every atom twice, the copies interleaved: the first occurrences are
     kept, in order. *)
  let doubled =
    Query.make ~nvars:8 (List.init (2 * n) (fun i -> edge (if i < n then i else (i - n) * 7 mod n)))
  in
  let deduped = timed "dedup, duplicates" (fun () -> Query.dedup_atoms doubled) in
  Alcotest.(check bool) "duplicates: first occurrences" true
    (Query.equal deduped distinct);
  (* Two large queries that agree on every relation but the last. *)
  let with_last last = Query.make ~nvars:8 (List.init (n - 1) edge @ [ last ]) in
  let q1 = with_last (Query.atom "C" [ 0 ]) and q2 = with_last (Query.atom "C" [ 0; 1 ]) in
  Alcotest.(check (option (triple string int int))) "clash found" (Some ("C", 1, 2))
    (timed "arity clash" (fun () -> Query.arity_clash q1 q2));
  Alcotest.(check (option (triple string int int))) "no clash" None
    (timed "no arity clash" (fun () -> Query.arity_clash q1 q1))

let prop_parse_result_never_raises =
  (* Totality of the parser on genuinely arbitrary bytes — printable or
     not.  Any exception (including Invalid_argument out of Query.make)
     fails the property. *)
  QCheck.Test.make ~name:"parse_result never raises" ~count:2000
    QCheck.(string_gen Gen.char)
    (fun s ->
      match Parser.parse_result s with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "parse_result %S raised %s" s
          (Printexc.to_string e))

let test_query_ops () =
  Alcotest.(check int) "triangle components" 1
    (List.length (Query.connected_components triangle));
  let two = Query.disjoint_union triangle triangle in
  Alcotest.(check int) "union nvars" 6 (Query.nvars two);
  Alcotest.(check int) "union components" 2
    (List.length (Query.connected_components two));
  let p3 = Query.power 3 vee in
  Alcotest.(check int) "power nvars" 9 (Query.nvars p3);
  Alcotest.(check int) "power atoms" 6 (List.length (Query.atoms p3));
  (* dedup *)
  let d = Parser.parse "R(x,y), R(x,y), S(y)" in
  Alcotest.(check int) "dedup" 2 (List.length (Query.atoms (Query.dedup_atoms d)));
  Alcotest.check_raises "unused variable rejected"
    (Invalid_argument "Query.make: every variable must occur in some atom")
    (fun () -> ignore (Query.make ~nvars:2 [ Query.atom "R" [ 0 ] ]))

(* ------------------------------------------------------------------ *)
(* Hom counting                                                        *)
(* ------------------------------------------------------------------ *)

let test_hom_count () =
  (* Directed triangle into itself: the 3 rotations. *)
  Alcotest.(check int) "triangle self-homs" 3
    (Hom.count triangle (Database.canonical triangle));
  (* Vee into triangle: Example 4.3 says there are 3. *)
  Alcotest.(check int) "vee -> triangle" 3 (Hom.count_between vee triangle);
  (* Triangle into vee: none (vee has no cycle). *)
  Alcotest.(check int) "triangle -> vee" 0 (Hom.count_between triangle vee);
  (* Vee on a complete binary digraph K2: 2 choices for y1, 2 for y2, 2 for y3. *)
  let k2 = Database.of_int_rows [ ("R", [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]) ] in
  Alcotest.(check int) "vee on K2" 8 (Hom.count vee k2);
  Alcotest.(check int) "triangle on K2" 8 (Hom.count triangle k2);
  (* Early exit *)
  Alcotest.(check int) "limit" 5 (Hom.count ~limit:5 vee k2);
  Alcotest.(check bool) "exists" true (Hom.exists vee k2);
  let empty_db = Database.empty in
  Alcotest.(check bool) "no hom into empty" false (Hom.exists vee empty_db)

let test_hom_repeated_vars () =
  (* R(x,x) only matches loops. *)
  let q = Parser.parse "R(x,x)" in
  let db = Database.of_int_rows [ ("R", [ [ 0; 0 ]; [ 0; 1 ]; [ 2; 2 ] ]) ] in
  Alcotest.(check int) "loops only" 2 (Hom.count q db)

let test_answers_bagset () =
  (* Q(x) :- R(x,y): multiplicity of x = out-degree. *)
  let q = Parser.parse "Q(x) :- R(x,y)" in
  let db = Database.of_int_rows [ ("R", [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]) ] in
  let ans = Hom.answers q db in
  let find v =
    match List.find_opt (fun (k, _) -> k = [| Value.Int v |]) ans with
    | Some (_, c) -> c
    | None -> 0
  in
  Alcotest.(check int) "deg 0" 2 (find 0);
  Alcotest.(check int) "deg 1" 1 (find 1);
  Alcotest.(check int) "deg 2" 0 (find 2);
  (* contained_on *)
  let q2 = Parser.parse "Q(x) :- R(x,y), R(x,z)" in
  Alcotest.(check bool) "Q <= Q^2 on db" true (Hom.contained_on q q2 db);
  Alcotest.(check bool) "Q^2 </= Q on db" false (Hom.contained_on q2 q db)

(* [enumerate_between] searches on variable indices; the general engine
   on the canonical database is its reference, order included (the order
   of Eq. 8's sides). *)
let test_hom_between () =
  Alcotest.(check (list (array int))) "vee -> triangle, in order"
    (Bagcqc_check.Suites.reference_between vee triangle)
    (Hom.enumerate_between vee triangle);
  Alcotest.(check (list (array int))) "empty query: one empty map" [ [||] ]
    (Hom.enumerate_between (Query.make ~nvars:0 []) triangle);
  (* Names, not indices, order the candidate rows. *)
  let named = Query.make ~nvars:2 ~names:[| "b"; "a" |] [ Query.atom "R" [ 0; 1 ]; Query.atom "R" [ 1; 0 ] ] in
  Alcotest.(check (list (array int))) "rows sorted by name"
    [ [| 1; 0 |]; [| 0; 1 |] ]
    (Hom.enumerate_between (Parser.parse "R(x,y)") named);
  let clash () = Hom.count_between (Parser.parse "R(x)") vee in
  Alcotest.(check bool) "arity clash raises" true
    (match clash () with _ -> false | exception Invalid_argument _ -> true)

(* Variable names are distinct, so databases built from a query by name
   (the canonical database, witness annotations) keep its variables
   apart; [Query.power] primes each copy's names until they are fresh. *)
let test_distinct_names () =
  Alcotest.check_raises "duplicate names rejected"
    (Invalid_argument "Query.make: duplicate variable name a") (fun () ->
      ignore
        (Query.make ~nvars:2 ~names:[| "a"; "a" |] [ Query.atom "R" [ 0; 1 ] ]));
  let q = Parser.parse "R(x,x')" in
  Alcotest.(check string) "power 3 names"
    "Q() :- R(x,x'), R(x'',x'''), R(x'''',x''''')"
    (Query.to_string (Query.power 3 q));
  let p2 = Query.power 2 q in
  let path = Parser.parse "R(a,b), R(b,c)" in
  Alcotest.(check (list (array int))) "R(a,b), R(b,c) into R(x,x')^2: none" []
    (Hom.enumerate_between path p2);
  Alcotest.(check int) "reference agrees" 0
    (Hom.count path (Database.canonical p2));
  Alcotest.(check (option (triple string int int))) "arity clash"
    (Some ("R", 1, 2)) (Query.arity_clash (Parser.parse "R(x)") q);
  Alcotest.(check (option (triple string int int))) "no clash" None
    (Query.arity_clash path q)

let prop_hom_between =
  QCheck.Test.make ~name:"enumerate_between = canonical-database reference"
    ~count:2000
    (QCheck.make ~print:Bagcqc_check.Gen.show_hom (fun st ->
         Bagcqc_check.Gen.hom_case (Bagcqc_check.Rng.create (Random.State.bits st))))
    (fun c ->
      match Bagcqc_check.Suites.check_hom_between (Bagcqc_check.Gen.build_hom c) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Both directions and the self-maps of every check-10k pair. *)
let test_hom_between_check10k () =
  let insts =
    match Bagcqc_check.Corpus.load "../corpus/check-10k.jsonl" with
    | Ok (_, insts) -> insts
    | Error msg -> Alcotest.fail msg
  in
  let homs = ref 0 in
  List.iter
    (fun inst ->
      match inst.Bagcqc_check.Corpus.payload with
      | Bagcqc_check.Corpus.Check_pair { q1; q2 } ->
        List.iter
          (fun (qa, qb) ->
            (match Bagcqc_check.Suites.check_hom_between (qa, qb) with
             | Ok () -> ()
             | Error msg ->
               Alcotest.failf "%s ; %s: %s" (Query.to_string qa)
                 (Query.to_string qb) msg);
            homs := !homs + Hom.count_between qa qb)
          [ (q2, q1); (q1, q2); (q1, q1); (q2, q2) ]
      | Bagcqc_check.Corpus.Iip_sides _ -> Alcotest.fail "not a containment pair")
    insts;
  Alcotest.(check bool) "homomorphisms were compared" true (!homs > 40_000)

let test_empty_query () =
  let q = Query.make ~nvars:0 [] in
  Alcotest.(check int) "one empty hom" 1 (Hom.count q Database.empty)

(* ------------------------------------------------------------------ *)
(* Graph: chordality etc.                                              *)
(* ------------------------------------------------------------------ *)

let test_gaifman () =
  let g = Graph.gaifman triangle in
  Alcotest.(check int) "K3 edges" 3 (List.length (Graph.edges g));
  Alcotest.(check bool) "K3 chordal" true (Graph.is_chordal g);
  let q = Parser.parse "R(w,x), S(x,y), T(y,z), U(z,w)" in
  let c4 = Graph.gaifman q in
  Alcotest.(check bool) "C4 not chordal" false (Graph.is_chordal c4);
  let q' = Parser.parse "R(w,x), S(x,y), T(y,z), U(z,w), V(w,y)" in
  Alcotest.(check bool) "C4+chord chordal" true (Graph.is_chordal (Graph.gaifman q'))

let test_maximal_cliques () =
  let g = Graph.gaifman triangle in
  Alcotest.(check int) "one clique" 1 (List.length (Graph.maximal_cliques_chordal g));
  let path = Graph.gaifman (Parser.parse "R(a,b), S(b,c)") in
  let cliques = Graph.maximal_cliques_chordal path in
  Alcotest.(check int) "two cliques" 2 (List.length cliques);
  Alcotest.(check bool) "cliques correct" true
    (List.sort compare cliques = List.sort compare [ vs [ 0; 1 ]; vs [ 1; 2 ] ])

let test_triangulation () =
  let q = Parser.parse "R(w,x), S(x,y), T(y,z), U(z,w)" in
  let g = Graph.gaifman q in
  let tg = Graph.min_fill_triangulation g in
  Alcotest.(check bool) "triangulated is chordal" true (Graph.is_chordal tg);
  (* Original edges preserved *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "edge kept" true (Graph.has_edge tg a b))
    (Graph.edges g)

(* ------------------------------------------------------------------ *)
(* Treedec                                                             *)
(* ------------------------------------------------------------------ *)

let test_acyclicity () =
  Alcotest.(check bool) "vee acyclic" true (Treedec.is_acyclic vee);
  Alcotest.(check bool) "triangle not acyclic" false (Treedec.is_acyclic triangle);
  let path = Parser.parse "R(a,b), S(b,c), T(c,d)" in
  Alcotest.(check bool) "path acyclic" true (Treedec.is_acyclic path);
  (* A cyclic query that IS chordal: triangle with ternary atom is acyclic. *)
  let tri3 = Parser.parse "R(x,y,z), S(x,y), T(y,z)" in
  Alcotest.(check bool) "covered triangle acyclic" true (Treedec.is_acyclic tri3);
  (* Example 3.5's Q2 is acyclic. *)
  let q2 = Parser.parse "A(y1,y2), B(y1,y3), C(y4,y2)" in
  Alcotest.(check bool) "Ex 3.5 Q2 acyclic" true (Treedec.is_acyclic q2)

let test_join_tree_example_3_5 () =
  (* The paper gives the simple junction tree {y1,y3}-{y1,y2}-{y2,y4}. *)
  let q2 = Parser.parse "A(y1,y2), B(y1,y3), C(y4,y2)" in
  match Treedec.join_tree q2 with
  | None -> Alcotest.fail "expected a join tree"
  | Some t ->
    Alcotest.(check bool) "valid" true (Treedec.is_valid_for q2 t);
    Alcotest.(check bool) "simple" true (Treedec.is_simple t);
    Alcotest.(check int) "three bags" 3 (Treedec.n_nodes t);
    Alcotest.(check int) "two edges" 2 (List.length (Treedec.tree_edges t))

let test_junction_tree () =
  let g = Graph.gaifman triangle in
  (match Treedec.junction_tree g with
   | None -> Alcotest.fail "K3 is chordal"
   | Some t ->
     Alcotest.(check int) "single bag" 1 (Treedec.n_nodes t);
     Alcotest.(check bool) "valid" true (Treedec.is_valid_for triangle t));
  let c4 = Graph.gaifman (Parser.parse "R(w,x), S(x,y), T(y,z), U(z,w)") in
  Alcotest.(check bool) "no junction tree for C4" true
    (Treedec.junction_tree c4 = None)

let test_et_vee () =
  (* Example 4.3: E_T = h(Y1Y2) + h(Y3|Y1) = h(Y1Y2) + h(Y1Y3) - h(Y1). *)
  let t = Option.get (Treedec.join_tree vee) in
  let e = Cexpr.to_linexpr (Treedec.et t) in
  let q = Rat.of_int in
  Alcotest.(check bool) "coeff Y1Y2" true (Rat.equal (Linexpr.coeff e (vs [ 0; 1 ])) (q 1));
  Alcotest.(check bool) "coeff Y1Y3" true (Rat.equal (Linexpr.coeff e (vs [ 0; 2 ])) (q 1));
  Alcotest.(check bool) "coeff Y1" true (Rat.equal (Linexpr.coeff e (vs [ 0 ])) (q (-1)));
  Alcotest.(check bool) "et = separators form" true
    (Linexpr.equal e (Treedec.et_via_separators t));
  Alcotest.(check bool) "simple as Cexpr" true (Cexpr.is_simple (Treedec.et t))

let test_treedec_validity_checks () =
  (* A bogus decomposition violating running intersection. *)
  let bags = [| vs [ 0; 1 ]; vs [ 1; 2 ]; vs [ 0; 2 ] |] in
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Treedec.make: edges contain a cycle") (fun () ->
      ignore (Treedec.make ~bags ~edges:[ (0, 1); (1, 2); (2, 0) ]));
  let path = Parser.parse "R(a,b), S(b,c)" in
  let bad = Treedec.make ~bags:[| vs [ 0; 1 ]; vs [ 2 ] |] ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "coverage fails" false (Treedec.is_valid_for path bad);
  let disconnected =
    Treedec.make ~bags:[| vs [ 0; 1 ]; vs [ 2 ]; vs [ 1; 2 ] |] ~edges:[ (0, 1); (1, 2) ]
  in
  (* Variable 1 appears in bags 0 and 2, which are separated by bag 1
     that does not contain it: running intersection fails. *)
  Alcotest.(check bool) "running intersection fails" false
    (Treedec.is_valid_for path disconnected)

let test_prune () =
  let bags = [| vs [ 0; 1 ]; vs [ 0 ]; vs [ 1; 2 ] |] in
  let t = Treedec.make ~bags ~edges:[ (0, 1); (0, 2) ] in
  let p = Treedec.prune t in
  Alcotest.(check int) "pruned to 2 nodes" 2 (Treedec.n_nodes p);
  (* E_T unchanged by pruning. *)
  Alcotest.(check bool) "E_T preserved" true
    (Linexpr.equal
       (Cexpr.to_linexpr (Treedec.et t))
       (Cexpr.to_linexpr (Treedec.et p)))

let test_totally_disconnected () =
  let t = Treedec.make ~bags:[| vs [ 0; 1 ]; vs [ 2; 3 ] |] ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "totally disconnected" true (Treedec.is_totally_disconnected t);
  Alcotest.(check bool) "also simple" true (Treedec.is_simple t)

(* Random queries: of_query always produces a valid decomposition, and the
   two E_T forms agree. *)
let arb_query =
  let gen =
    QCheck.Gen.(
      let* nv = int_range 1 5 in
      let* natoms = int_range 1 5 in
      let* atoms =
        list_repeat natoms
          (let* arity = int_range 1 3 in
           let* rel = int_range 0 2 in
           let* args = list_repeat arity (int_range 0 (nv - 1)) in
           (* Encode the arity in the name so vocabularies stay consistent. *)
           return (Query.atom (Printf.sprintf "R%d_%d" arity rel) args))
      in
      (* Make sure every variable occurs: append a covering atom. *)
      let cover = Query.atom "COV" (List.init nv Fun.id) in
      return (Query.make ~nvars:nv (cover :: atoms)))
  in
  QCheck.make ~print:Query.to_string gen

let prop_of_query_valid =
  QCheck.Test.make ~name:"of_query yields a valid tree decomposition" ~count:200
    arb_query
    (fun q ->
      let t = Treedec.of_query q in
      Treedec.is_valid_for q t
      && Linexpr.equal (Cexpr.to_linexpr (Treedec.et t)) (Treedec.et_via_separators t))

let prop_et_on_modular =
  (* On a modular h, E_T(h) >= h(V) for every valid decomposition (each
     variable is counted at least once across the bags). *)
  QCheck.Test.make ~name:"E_T(h) >= h(V) on modular h" ~count:100 arb_query
    (fun q ->
      let t = Treedec.of_query q in
      let n = Query.nvars q in
      let h = Polymatroid.modular_of_weights (Array.make n Rat.one) in
      Rat.compare
        (Polymatroid.eval_cexpr h (Treedec.et t))
        (Polymatroid.value h (Varset.full n))
      >= 0)

(* ------------------------------------------------------------------ *)
(* Reductions (Appendix A)                                             *)
(* ------------------------------------------------------------------ *)

let test_booleanize_example_a2 () =
  let q1 = Parser.parse "Q(x,z) :- P(x), S(u,x), S(v,z), R(z)" in
  let q2 = Parser.parse "Q(x,z) :- P(x), S(u,y), S(v,y), R(z)" in
  let b1, b2 = Reductions.booleanize q1 q2 in
  Alcotest.(check bool) "b1 boolean" true (Query.is_boolean b1);
  Alcotest.(check int) "b1 two extra atoms" 6 (List.length (Query.atoms b1));
  Alcotest.(check int) "b2 two extra atoms" 6 (List.length (Query.atoms b2));
  (* Acyclicity is preserved (Lemma A.1). *)
  Alcotest.(check bool) "q2 acyclic" true (Treedec.is_acyclic q2);
  Alcotest.(check bool) "b2 acyclic" true (Treedec.is_acyclic b2)

let test_atom_closure () =
  let q = Parser.parse "R(x,y,z)" in
  let c = Reductions.atom_closure q in
  (* 2^3 - 2 = 6 proper nonempty subsets. *)
  Alcotest.(check int) "closure adds projections" 7 (List.length (Query.atoms c));
  (* Closure + closed database preserves hom counts. *)
  let db = Database.of_int_rows [ ("R", [ [ 0; 1; 2 ]; [ 0; 0; 1 ]; [ 2; 1; 0 ] ]) ] in
  let db' = Reductions.close_database q db in
  Alcotest.(check int) "hom count preserved" (Hom.count q db) (Hom.count c db')

let prop_closure_preserves_homs =
  QCheck.Test.make ~name:"atom closure preserves hom counts" ~count:100
    (QCheck.pair arb_query
       (QCheck.make
          QCheck.Gen.(list_size (int_range 0 6) (list_repeat 5 (int_range 0 2)))))
    (fun (q, raw_rows) ->
      let db =
        List.fold_left
          (fun db (rel, arity) ->
            let rows = List.map (fun r -> List.filteri (fun i _ -> i < arity) r) raw_rows in
            List.fold_left
              (fun db row ->
                Database.add_row rel (Array.of_list (List.map (fun i -> Value.Int i) row)) db)
              db rows)
          Database.empty (Query.vocabulary q)
      in
      let qc = Reductions.atom_closure q in
      let dbc = Reductions.close_database q db in
      Hom.count q db = Hom.count qc dbc)

(* The hashed paths of [dedup_atoms] and [arity_clash] (above 32 atoms)
   agree with the pairwise definitions on queries of either size. *)
let prop_query_helpers_match_pairwise =
  let gen_query =
    QCheck.Gen.(
      let* arity = array_repeat 3 (int_range 1 2) in
      let* len = int_range 0 80 in
      let+ body =
        list_repeat len
          (let* r = int_range 0 2 in
           let+ args = list_repeat arity.(r) (int_range 0 2) in
           Query.atom (String.make 1 "RST".[r]) args)
      in
      Query.make ~nvars:3 (Query.atom "V" [ 0; 1; 2 ] :: body))
  in
  let same a b =
    String.equal a.Query.rel b.Query.rel && a.Query.args = b.Query.args
  in
  let pairwise_dedup atoms =
    List.rev
      (List.fold_left
         (fun seen a -> if List.exists (same a) seen then seen else a :: seen)
         [] atoms)
  in
  let pairwise_clash a b =
    List.find_map
      (fun x ->
        List.find_map
          (fun y ->
            if x.Query.rel = y.Query.rel && Array.length x.args <> Array.length y.args
            then Some (x.rel, Array.length x.args, Array.length y.args)
            else None)
          (Query.atoms b))
      (Query.atoms a)
  in
  QCheck.Test.make ~name:"dedup_atoms/arity_clash match the pairwise scans"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> Query.to_string a ^ " ; " ^ Query.to_string b)
       QCheck.Gen.(pair gen_query gen_query))
    (fun (a, b) ->
      let d = Query.dedup_atoms a in
      List.equal same (Query.atoms d) (pairwise_dedup (Query.atoms a))
      && (d == a) = (List.length (Query.atoms d) = List.length (Query.atoms a))
      && Query.arity_clash a b = pairwise_clash a b)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_of_query_valid; prop_et_on_modular; prop_closure_preserves_homs;
      prop_parse_result_never_raises; prop_hom_between;
      prop_query_helpers_match_pairwise ]

let suite =
  [ ("parser", `Quick, test_parser);
    ("parser errors", `Quick, test_parser_errors);
    ("parser edge cases vs reference", `Quick, test_parser_edge_cases);
    ("Query.make messages", `Quick, test_query_make_messages);
    ("parser vs reference on check-10k", `Quick, test_parser_check10k);
    ("parser linear time", `Quick, test_parser_linear_time);
    ("dedup_atoms/arity_clash linear time", `Quick, test_query_helpers_linear_time);
    ("query ops", `Quick, test_query_ops);
    ("hom count", `Quick, test_hom_count);
    ("hom repeated vars", `Quick, test_hom_repeated_vars);
    ("bag-set answers", `Quick, test_answers_bagset);
    ("empty query", `Quick, test_empty_query);
    ("hom between queries", `Quick, test_hom_between);
    ("distinct variable names", `Quick, test_distinct_names);
    ("hom between on check-10k", `Quick, test_hom_between_check10k);
    ("gaifman/chordality", `Quick, test_gaifman);
    ("maximal cliques", `Quick, test_maximal_cliques);
    ("triangulation", `Quick, test_triangulation);
    ("acyclicity (GYO)", `Quick, test_acyclicity);
    ("join tree Ex 3.5", `Quick, test_join_tree_example_3_5);
    ("junction tree", `Quick, test_junction_tree);
    ("E_T for vee (Ex 4.3)", `Quick, test_et_vee);
    ("treedec validity", `Quick, test_treedec_validity_checks);
    ("prune", `Quick, test_prune);
    ("totally disconnected", `Quick, test_totally_disconnected);
    ("booleanize (Ex A.2)", `Quick, test_booleanize_example_a2);
    ("atom closure (Fact A.3)", `Quick, test_atom_closure) ]
  @ qtests
