(* End-to-end tests of the core containment procedure: the paper's
   Examples 3.5 and 4.3, class detection, witness machinery, domination,
   and a randomized soundness property. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq
open Bagcqc_core

let triangle = Parser.parse "R(x,y), R(y,z), R(z,x)"
let vee = Parser.parse "R(y1,y2), R(y1,y3)"

(* Every definitive Contained verdict must survive the independent
   certificate verifier — exact arithmetic only, no LP re-solve. *)
let cert_ok cert =
  Alcotest.(check bool) "Farkas certificate re-verifies" true
    (Certificate.check cert)

let test_classify () =
  let check msg q expected =
    Alcotest.(check bool) msg true (Containment.classify q = expected)
  in
  check "vee acyclic simple" vee Containment.Acyclic_simple;
  check "triangle chordal simple" triangle Containment.Chordal_simple;
  check "C4 general" (Parser.parse "R(w,x), S(x,y), T(y,z), U(z,w)")
    Containment.General;
  (* Acyclic but with a 2-variable separator: R(x,y,z), S(y,z,w). *)
  check "acyclic non-simple" (Parser.parse "R(x,y,z), S(y,z,w)") Containment.Acyclic;
  (* Chordal, not acyclic, not simple: K4 minus an edge as binary atoms,
     separator {y,z} has two variables. *)
  check "chordal non-simple"
    (Parser.parse "R(x,y), R(x,z), R(y,z), R(y,w), R(z,w)")
    Containment.Chordal

let test_example_4_3_vee () =
  (* Example 4.3 (Eric Vee): triangle ⊑ vee. *)
  (match Containment.decide triangle vee with
   | Containment.Contained cert -> cert_ok cert
   | _ -> Alcotest.fail "triangle must be contained in vee");
  (* The reverse fails: no homomorphism vee <- ... triangle has no hom into
     vee, so already hom(Q2,Q1) = ∅. *)
  (match Containment.decide vee triangle with
   | Containment.Not_contained w ->
     Alcotest.(check bool) "witness verified" true (w.Containment.hom2 < w.Containment.card_p)
   | _ -> Alcotest.fail "vee must not be contained in triangle")

let ex35_q1 =
  Parser.parse
    "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')"

let ex35_q2 = Parser.parse "A(y1,y2), B(y1,y3), C(y4,y2)"

let test_example_3_5 () =
  (* Example 3.5: Q1 ⋢ Q2, with a normal witness but no product witness. *)
  (match Containment.decide ex35_q1 ex35_q2 with
   | Containment.Not_contained w ->
     Alcotest.(check bool) "|P| > hom2" true (w.Containment.hom2 < w.Containment.card_p);
     (* The database also carries at least |P| homomorphisms of Q1. *)
     let db = Containment.witness_db ex35_q1 w in
     let hom1 = Hom.count ~limit:w.Containment.card_p ex35_q1 db in
     Alcotest.(check bool) "hom1 >= |P|" true (hom1 >= w.Containment.card_p)
   | Containment.Contained _ -> Alcotest.fail "Example 3.5 is a non-containment"
   | Containment.Unknown { reason; _ } -> Alcotest.failf "unexpected Unknown: %s" reason);
  (* The paper's hand witness P = {(u,u,v,v) | u,v ∈ [n]} for n = 3:
     |P| = 9 > n = hom(Q2, Π_Q1(P)). *)
  let p =
    Relation.of_int_rows ~arity:4
      (List.concat_map (fun u -> List.map (fun v -> [ u; u; v; v ]) [ 0; 1; 2 ]) [ 0; 1; 2 ])
  in
  (match Containment.verify_witness ex35_q1 ex35_q2 p with
   | Some (card, hom2) ->
     Alcotest.(check int) "|P| = 9" 9 card;
     Alcotest.(check bool) "hom2 < 9" true (hom2 < 9)
   | None -> Alcotest.fail "paper witness must verify");
  (* No product witness: over the modular cone the inequality is valid
     (Theorem 3.4(i) machinery; Q2's junction tree is simple but not
     totally disconnected). *)
  let ineq = Containment.eq8 ex35_q1 ex35_q2 in
  Alcotest.(check bool) "valid over Mn (no product witness)" true
    (Result.is_ok (Maxii.valid_over Cones.Modular ineq));
  Alcotest.(check bool) "invalid over Nn (normal witness exists)" true
    (Result.is_error (Maxii.valid_over Cones.Normal ineq))

let test_reflexive_and_trivial () =
  (match Containment.decide triangle triangle with
   | Containment.Contained cert -> cert_ok cert
   | _ -> Alcotest.fail "Q ⊑ Q must hold");
  (* Dropping an atom breaks containment in general: R(x,y),S(y,z) vs
     R(x,y): S can multiply counts. *)
  let q1 = Parser.parse "R(x,y), S(y,z)" in
  let q2 = Parser.parse "R(x,y)" in
  (match Containment.decide q1 q2 with
   | Containment.Not_contained w ->
     Alcotest.(check bool) "verified" true (w.Containment.hom2 < w.Containment.card_p)
   | _ -> Alcotest.fail "R,S ⋢ R");
  (* And adding an atom also breaks it (extra atom may be empty). *)
  (match Containment.decide q2 q1 with
   | Containment.Not_contained _ -> ()
   | _ -> Alcotest.fail "R ⋢ R,S")

let test_contained_with_extra_join () =
  (* Q1 = R(x,y) ⊑ Q2 = R(x,y),R(x,z): counts are deg vs Σ deg², and
     pointwise hom(Q1) = Σ_x deg(x) ≤ Σ_x deg(x)² = hom(Q2). *)
  let q1 = Parser.parse "R(x,y)" in
  let q2 = Parser.parse "R(x,y), R(x,z)" in
  (match Containment.decide q1 q2 with
   | Containment.Contained cert -> cert_ok cert
   | _ -> Alcotest.fail "deg ≤ deg² containment must be proved");
  (match Containment.decide q2 q1 with
   | Containment.Not_contained _ -> ()
   | _ -> Alcotest.fail "deg² ⋢ deg")

let test_decide_with_heads () =
  let q1 = Parser.parse "Q(x) :- R(x,y)" in
  let q2 = Parser.parse "Q(x) :- R(x,y), R(x,z)" in
  (match Containment.decide_with_heads q1 q2 with
   | Containment.Contained cert -> cert_ok cert
   | _ -> Alcotest.fail "head version: deg ≤ deg²");
  (match Containment.decide_with_heads q2 q1 with
   | Containment.Not_contained _ -> ()
   | _ -> Alcotest.fail "head version: deg² ⋢ deg");
  Alcotest.check_raises "head mismatch"
    (Invalid_argument "Reductions.booleanize: head arity mismatch") (fun () ->
      ignore
        (Containment.decide_with_heads (Parser.parse "Q(x) :- R(x,y)")
           (Parser.parse "Q() :- R(x,y)")))

let test_eq8_requires_boolean () =
  Alcotest.check_raises "boolean required"
    (Invalid_argument "Containment: queries must be Boolean (use decide_with_heads)")
    (fun () -> ignore (Containment.eq8 (Parser.parse "Q(x) :- R(x,y)") vee))

let test_scale_steps () =
  let vs = Varset.of_list in
  let scaled =
    Containment.scale_steps
      [ (vs [ 0 ], Rat.of_ints 1 2); (vs [ 1 ], Rat.of_ints 2 3); (vs [], Rat.zero) ]
  in
  Alcotest.(check (list (pair int int))) "lcm scaling"
    [ (vs [ 0 ], 3); (vs [ 1 ], 4) ]
    scaled

let test_witness_from_normal_direct () =
  (* Feed the paper's Example 3.5 refuter shape by hand: the normal
     function h = h_W1 + h_W2 with W1 = {x1,x2}, W2 = {x1',x2'}
     (independent pairs, each pair perfectly correlated). *)
  let vs = Varset.of_list in
  let h =
    Polymatroid.normal_of_steps 4 [ (vs [ 0; 1 ], Rat.one); (vs [ 2; 3 ], Rat.one) ]
  in
  (* This h refutes Eq. 8 for Example 3.5 (it is the entropy, in bits, of
     P = {(u,u,v,v)}). *)
  let sides = Maxii.sides (Containment.eq8 ex35_q1 ex35_q2) in
  Alcotest.(check bool) "h refutes all sides" true
    (List.for_all (fun e -> Rat.sign (Polymatroid.eval h e) < 0) sides);
  match Containment.witness_from_normal ex35_q1 ex35_q2 h with
  | Some w ->
    Alcotest.(check bool) "witness verified" true (w.Containment.hom2 < w.Containment.card_p)
  | None -> Alcotest.fail "witness construction must succeed"

let test_witness_theorem_3_4 () =
  (* applicable: which witness class Theorem 3.4 guarantees. *)
  Alcotest.(check bool) "loop atom: product" true
    (Witness.applicable (Parser.parse "R(u,u)") = Some Witness.Product);
  Alcotest.(check bool) "two unary atoms: product" true
    (Witness.applicable (Parser.parse "A(y1), B(y2)") = Some Witness.Product);
  Alcotest.(check bool) "vee: normal" true
    (Witness.applicable vee = Some Witness.Normal);
  Alcotest.(check bool) "Ex 3.5 Q2: normal" true
    (Witness.applicable ex35_q2 = Some Witness.Normal);
  Alcotest.(check bool) "C4: none" true
    (Witness.applicable (Parser.parse "R(w,x), S(x,y), T(y,z), U(z,w)") = None);
  (* R(x,y) ⋢ R(u,u): witnessed by a PRODUCT relation (Thm 3.4(i)). *)
  let q1 = Parser.parse "R(x,y)" and q2 = Parser.parse "R(u,u)" in
  (match Witness.product_witness q1 q2 with
   | Some (p, card, hom2) ->
     Alcotest.(check bool) "product verifies" true (hom2 < card);
     Alcotest.(check bool) "really is a product" true
       (Relation.cardinal p = card)
   | None -> Alcotest.fail "product witness must exist");
  (* Example 3.5 has a normal witness but NO product witness. *)
  Alcotest.(check bool) "Ex 3.5: no product witness" true
    (Witness.product_witness ex35_q1 ex35_q2 = None);
  (match Witness.normal_witness ex35_q1 ex35_q2 with
   | Some w -> Alcotest.(check bool) "normal verifies" true
                 (w.Containment.hom2 < w.Containment.card_p)
   | None -> Alcotest.fail "Ex 3.5 normal witness must exist");
  (* Contained pairs admit no witness of either kind. *)
  Alcotest.(check bool) "no witness when contained" true
    (Witness.normal_witness triangle vee = None
     && Witness.product_witness triangle vee = None)

let test_set_semantics_contrast () =
  (* R(x,y) and R(x,y),R(x,z) are set-equivalent but bag-incomparable one
     way: exactly the Chaudhuri-Vardi phenomenon. *)
  let q1 = Parser.parse "R(x,y)" in
  let q2 = Parser.parse "R(x,y), R(x,z)" in
  Alcotest.(check bool) "set: q1 in q2" true (Containment.contained_set q1 q2);
  Alcotest.(check bool) "set: q2 in q1" true (Containment.contained_set q2 q1);
  (match Containment.decide q2 q1 with
   | Containment.Not_contained _ -> ()
   | _ -> Alcotest.fail "bag: q2 not in q1");
  (* Triangle vs vee: no hom triangle <- vee ... vee -> triangle exists, so
     set-containment triangle in vee holds; and no hom triangle -> vee. *)
  Alcotest.(check bool) "set: triangle in vee" true
    (Containment.contained_set triangle vee);
  Alcotest.(check bool) "set: vee not in triangle" false
    (Containment.contained_set vee triangle);
  (* With heads. *)
  Alcotest.(check bool) "set with heads" true
    (Containment.contained_set
       (Parser.parse "Q(x) :- R(x,y)")
       (Parser.parse "Q(u) :- R(u,v)"))

let test_locality_property () =
  (* Example E.2: the parity relation violates locality for the triangle
     query (Q1 = Q2, phi = identity). *)
  let q = Parser.parse "R(x1,x2), S(x2,x3), T(x3,x1)" in
  let parity =
    Relation.of_int_rows ~arity:3
      [ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 1 ]; [ 1; 1; 0 ] ]
  in
  Alcotest.(check bool) "parity breaks locality (Ex E.2)" false
    (Witness.locality_holds q q parity ~phi:[| 0; 1; 2 |]);
  (* Lemma E.1: normal relations satisfy locality for chordal Q2. *)
  let vsl = Varset.of_list in
  let normal = Relation.of_normal_steps ~n:3 [ (vsl [ 0 ], 1); (vsl [ 1; 2 ], 1) ] in
  Alcotest.(check bool) "normal relation satisfies locality" true
    (Witness.locality_holds q q normal ~phi:[| 0; 1; 2 |]);
  (* Acyclic Q2: locality holds for ANY relation (each bag = one atom) —
     the proof of Theorem 4.4. *)
  let q2 = Parser.parse "R(y1,y2), S(y2,y3)" in
  let q1 = Parser.parse "R(x1,x2), S(x2,x3)" in
  Alcotest.(check bool) "acyclic: locality for parity too" true
    (Witness.locality_holds q1 q2 parity ~phi:[| 0; 1; 2 |])

(* Lemma E.1's locality property as a qcheck property: random normal
   relations vs the chordal triangle query. *)
let prop_locality_normal =
  let gen =
    QCheck.Gen.(list_size (int_range 1 3) (int_range 0 6))
  in
  QCheck.Test.make ~name:"Lemma E.1: normal relations satisfy locality" ~count:60
    (QCheck.make ~print:(fun l -> String.concat "," (List.map string_of_int l)) gen)
    (fun ws ->
      let q = Parser.parse "R(x1,x2), S(x2,x3), T(x3,x1)" in
      let steps = List.sort_uniq compare (List.map (fun w -> (w land 6, 1)) ws) in
      let p = Relation.of_normal_steps ~n:3 steps in
      Witness.locality_holds q q p ~phi:[| 0; 1; 2 |])

let test_domination () =
  (* DOM: triangle ⪯ vee (Example 4.3 again through the DOM lens). *)
  (match Domination.dominates triangle vee with
   | Containment.Contained cert -> cert_ok cert
   | _ -> Alcotest.fail "triangle ⪯ vee");
  (* Exponent domination: hom(vee) ≤ hom(edge)²  (Cauchy–Schwarz-ish). *)
  let edge = Parser.parse "R(x,y)" in
  (match Domination.exponent_dominates ~num:1 ~den:2 vee edge with
   | Containment.Contained cert -> cert_ok cert
   | _ -> Alcotest.fail "hom(vee) ≤ hom(edge)^2");
  (* But hom(edge)² ≤ hom(vee) fails. *)
  (match Domination.exponent_dominates ~num:2 ~den:1 edge vee with
   | Containment.Not_contained _ -> ()
   | _ -> Alcotest.fail "hom(edge)^2 ≰ hom(vee)");
  Alcotest.check_raises "bad exponent" (Invalid_argument "Domination.exponent_dominates")
    (fun () -> ignore (Domination.exponent_dominates ~num:0 ~den:1 edge vee))

(* Randomized soundness: whatever `decide` answers definitively must agree
   with brute-force bag-set evaluation on random small databases /
   explicit witnesses. *)
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
        (* Ensure all variables occur. *)
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
          let a = Random.State.int st 3 and b = Random.State.int st 3 in
          Database.add_row rel [| Value.Int a; Value.Int b |] db)
        db
        (List.init (1 + Random.State.int st 5) Fun.id))
    Database.empty [ "R"; "S" ]

let prop_decide_sound =
  QCheck.Test.make ~name:"decide is sound vs brute-force evaluation" ~count:40
    (QCheck.pair arb_pair QCheck.small_int)
    (fun ((q1, q2), seed) ->
      match Containment.decide ~max_factors:10 q1 q2 with
      | Containment.Contained cert ->
        (* The proof object must re-verify, and the verdict must
           spot-check on several random databases. *)
        Certificate.check cert
        && List.for_all
          (fun i ->
            let db = random_db (seed + i) in
            Hom.count q1 db <= Hom.count q2 db)
          [ 0; 1; 2; 3; 4 ]
      | Containment.Not_contained w ->
        let db = Containment.witness_db q1 w in
        Hom.count ~limit:w.Containment.card_p q2 db = w.Containment.hom2
        && w.Containment.hom2 < w.Containment.card_p
        && Hom.count ~limit:w.Containment.card_p q1 db >= w.Containment.card_p
      | Containment.Unknown _ -> true)

(* Random acyclic (path-shaped) and chordal (triangle-closed) containing
   queries: every Contained verdict's Farkas certificate must pass the
   independent exact-arithmetic verifier, and must certify exactly the
   Eq. 8 sides it claims to. *)
let arb_acyclic_or_chordal_pair =
  let gen =
    QCheck.Gen.(
      let* nv = int_range 2 3 in
      let* chordal = bool in
      let q2 =
        if chordal then
          (* Triangle on the first three variables (or an edge at nv=2):
             chordal, simple junction tree. *)
          Query.make ~nvars:nv
            (List.init nv (fun v -> Query.atom "R" [ v; (v + 1) mod nv ]))
        else
          (* A path: acyclic with a simple join tree. *)
          Query.make ~nvars:nv
            (List.init (nv - 1) (fun v -> Query.atom "R" [ v; v + 1 ]))
      in
      let* extra = int_range 0 2 in
      let* atoms =
        list_repeat extra
          (let* a = int_range 0 (nv - 1) in
           let* b = int_range 0 (nv - 1) in
           return (Query.atom "R" [ a; b ]))
      in
      let chain = List.init nv (fun v -> Query.atom "R" [ v; (v + 1) mod nv ]) in
      let q1 = Query.dedup_atoms (Query.make ~nvars:nv (atoms @ chain)) in
      return (q1, q2))
  in
  QCheck.make
    ~print:(fun (a, b) -> Query.to_string a ^ "  vs  " ^ Query.to_string b)
    gen

let prop_certificates_verify =
  QCheck.Test.make
    ~name:"Contained certificates re-verify on acyclic/chordal instances"
    ~count:60 arb_acyclic_or_chordal_pair (fun (q1, q2) ->
      match Containment.decide ~max_factors:8 q1 q2 with
      | Containment.Contained cert ->
        Certificate.check cert
        && Certificate.proves cert ~n:(Query.nvars q1)
             (Maxii.sides (Containment.eq8 q1 q2))
      | Containment.Not_contained _ | Containment.Unknown _ -> true)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_decide_sound; prop_locality_normal; prop_certificates_verify ]

(* ---------------- Nn on its generators ---------------- *)

let counter name = Bagcqc_obs.Metrics.count (Bagcqc_obs.Metrics.counter name)

(* One decision's path through the Nn generator presolve: the number of
   Eq. 8 sides, and the (valid, refuted, lp) counter deltas.  The memo is
   cleared first (earlier tests may have decided the pair), and a repeat
   must then be a memo hit that touches no cone. *)
let presolve_path q1 q2 =
  let names = [ "cone.presolve.valid"; "cone.presolve.refuted"; "cone.presolve.lp" ] in
  let deltas_of f =
    let before = List.map counter names in
    let v = f () in
    (v, List.map2 (fun name b -> counter name - b) names before)
  in
  Bagcqc_engine.Solver.clear ();
  let verdict, deltas = deltas_of (fun () -> Containment.decide q1 q2) in
  let hits = counter "solver.cache.hits" in
  let again, repeat_deltas = deltas_of (fun () -> Containment.decide q1 q2) in
  Alcotest.(check bool) "repeat is a memo hit" true
    (again == verdict && counter "solver.cache.hits" = hits + 1);
  Alcotest.(check (list int)) "repeat touches no cone" [ 0; 0; 0 ] repeat_deltas;
  (List.length (Maxii.sides (Containment.eq8 q1 q2)), deltas, verdict)

let test_presolve_outcomes () =
  let p = Parser.parse in
  let not_contained name ~card_p ~hom2 = function
    | Containment.Not_contained w ->
      Alcotest.(check (pair int int)) (name ^ ": witness counts") (card_p, hom2)
        (w.Containment.card_p, w.Containment.hom2)
    | _ -> Alcotest.failf "%s: expected Not_contained" name
  in
  let contained name = function
    | Containment.Contained cert -> cert_ok cert
    | _ -> Alcotest.failf "%s: expected Contained" name
  in
  let path = Alcotest.(pair int (list int)) in
  (* Refuted by one generator: T(x), S(x,y) is not contained in T(u). *)
  let q1 = p "T(x), S(x,y)" and q2 = p "T(u)" in
  let k, deltas, v = presolve_path q1 q2 in
  Alcotest.check path "one-generator refutation" (1, [ 0; 1; 0 ]) (k, deltas);
  not_contained "T,S vs T" ~card_p:2 ~hom2:1 v;
  (match Maxii.valid_over Cones.Normal (Containment.eq8 q1 q2) with
   | Error h ->
     Alcotest.(check (option int)) "refuter is one step function" (Some 1)
       (Option.map List.length (Polymatroid.normal_decomposition h))
   | Ok () -> Alcotest.fail "T,S vs T must be refuted over Nn");
  (* Valid by one side: edge ⊑ vee. *)
  let k, deltas, v = presolve_path (p "R(x,y)") vee in
  Alcotest.check path "one-side validity" (1, [ 1; 0; 0 ]) (k, deltas);
  contained "edge vs vee" v;
  (* LP fallbacks, verdicts as before the presolve. *)
  let k, deltas, v = presolve_path (p "R(x,y), R(x,z)") (p "R(u,v), R(w,v)") in
  Alcotest.check path "serve-smoke pair falls back" (2, [ 0; 0; 1 ]) (k, deltas);
  not_contained "R(x,y),R(x,z) vs R(u,v),R(w,v)" ~card_p:16 ~hom2:8 v;
  (* Nn alone on that pair's Eq. 8 (a decision may also run Γn
     speculatively when jobs > 1): the fallback is exactly one LP. *)
  let lp_before = counter "cone.presolve.lp" and solves = counter "lp.solves" in
  Alcotest.(check bool) "serve-smoke pair refuted over Nn" true
    (Result.is_error
       (Maxii.valid_over Cones.Normal
          (Containment.eq8 (p "R(x,y), R(x,z)") (p "R(u,v), R(w,v)"))));
  Alcotest.(check (pair int int)) "one Nn LP" (lp_before + 1, solves + 1)
    (counter "cone.presolve.lp", counter "lp.solves");
  let k, deltas, v = presolve_path triangle vee in
  Alcotest.check path "triangle vs vee falls back" (3, [ 0; 0; 1 ]) (k, deltas);
  contained "triangle vs vee" v;
  let k, deltas, v = presolve_path ex35_q1 ex35_q2 in
  Alcotest.check path "Example 3.5 falls back" (2, [ 0; 0; 1 ]) (k, deltas);
  not_contained "Example 3.5" ~card_p:16 ~hom2:8 v

let check10k_pairs () =
  match Bagcqc_check.Corpus.load "../corpus/check-10k.jsonl" with
  | Ok (_, insts) ->
    List.map
      (fun inst ->
        match inst.Bagcqc_check.Corpus.payload with
        | Bagcqc_check.Corpus.Check_pair { q1; q2 } -> (q1, q2)
        | Bagcqc_check.Corpus.Iip_sides _ -> Alcotest.fail "not a containment pair")
      insts
  | Error msg -> Alcotest.fail msg

(* Eq. 8's sides, in order, equal the same construction over the
   reference enumerator (the general engine on Q1's canonical database)
   on every check-10k pair. *)
let test_eq8_sides_check10k () =
  let reference_sides q1 q2 =
    let q1 = Query.dedup_atoms q1 and q2 = Query.dedup_atoms q2 in
    let et = Treedec.et (Treedec.of_query q2) in
    let seen = Hashtbl.create 16 in
    let sides =
      List.filter_map
        (fun phi ->
          let cx = Cexpr.rename (fun v -> phi.(v)) et in
          let key = Linexpr.terms (Cexpr.to_linexpr cx) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some cx
          end)
        (Bagcqc_check.Suites.reference_between q2 q1)
    in
    Maxii.sides (Maxii.conditional ~n:(Query.nvars q1) ~q:Rat.one sides)
  in
  let nonempty = ref 0 in
  List.iter
    (fun (q1, q2) ->
      let sides = Maxii.sides (Containment.eq8 q1 q2) in
      if sides <> [] then incr nonempty;
      if not (List.equal Linexpr.equal sides (reference_sides q1 q2)) then
        Alcotest.failf "Eq. 8 sides differ on %s ; %s" (Query.to_string q1)
          (Query.to_string q2))
    (check10k_pairs ());
  (* 4452 of the 10k pairs have no homomorphism Q2 -> Q1. *)
  Alcotest.(check int) "pairs with sides" (10_000 - 4452) !nonempty

(* A pair without a homomorphism Q2 -> Q1 (k = 0) takes its witness
   straight from the empty list: on every such check-10k pair it equals
   what [witness_from_normal] realizes from the zero refuter, it
   re-verifies by counting, and the decision enumerates hom(Q2, Q1) once
   and runs no cone. *)
let test_k0_witness_check10k () =
  let cones = [ "cone.presolve.valid"; "cone.presolve.refuted"; "cone.presolve.lp" ] in
  let k0 = ref 0 in
  List.iter
    (fun (q1, q2) ->
      let d1 = Query.dedup_atoms q1 and d2 = Query.dedup_atoms q2 in
      if Hom.enumerate_between d2 d1 = [] then begin
        incr k0;
        let fail fmt =
          Alcotest.failf ("%s ; %s: " ^^ fmt) (Query.to_string q1) (Query.to_string q2)
        in
        (* Pairs that differ only in duplicate atoms share a memo entry. *)
        Bagcqc_engine.Solver.clear ();
        let homs = counter "hom.enumerations" and before = List.map counter cones in
        let w =
          match Containment.decide q1 q2 with
          | Containment.Not_contained w -> w
          | _ -> fail "expected Not_contained"
        in
        let homs = counter "hom.enumerations" - homs in
        if homs <> 1 then fail "%d hom enumerations" homs;
        if List.map counter cones <> before then fail "a cone ran";
        (match
           Containment.witness_from_normal d1 d2 (Polymatroid.zero (Query.nvars d1))
         with
         | None -> fail "the zero refuter gives no witness"
         | Some r ->
           if not (Relation.equal w.Containment.p r.Containment.p) then fail "P differs";
           if (w.card_p, w.hom2) <> (r.card_p, r.hom2) then
             fail "counts (%d, %d), expected (%d, %d)" w.card_p w.hom2 r.card_p
               r.hom2;
           if
             Format.asprintf "%a" Database.pp (Containment.witness_db d1 w)
             <> Format.asprintf "%a" Database.pp (Containment.witness_db d1 r)
           then fail "databases print differently");
        if Containment.verify_witness q1 q2 w.p <> Some (w.card_p, w.hom2) then
          fail "verify_witness rejects the witness"
      end)
    (check10k_pairs ());
  Bagcqc_engine.Solver.clear ();
  Alcotest.(check int) "pairs with k = 0" 4452 !k0

(* Which Γn path settles check-10k's Contained pairs: 4504 have an Eq. 8
   cover side and get their certificate by construction ([Cover]), the
   other 496 from the lazy driver's float probe.  Every certificate
   proves its pair's Eq. 8 exactly, and the exact LPs (Nn fallbacks and
   the rare exact round) are as many as before the cover path: 38.
   Sequential, so the speculative Γn solve of a parallel
   [Maxii.decide] does not enter the counts. *)
let test_cover_paths_check10k () =
  let saved = Bagcqc_par.Pool.jobs () in
  Bagcqc_par.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Bagcqc_par.Pool.set_jobs saved) @@ fun () ->
  let names = [ "cone.cover.certs"; "cone.lazy.probe_certs"; "cone.lazy.solves"; "lp.solves" ] in
  let before = List.map counter names and contained = ref 0 in
  List.iter
    (fun (q1, q2) ->
      Bagcqc_engine.Solver.clear ();
      match Containment.decide q1 q2 with
      | Containment.Contained cert ->
        incr contained;
        let ineq = Containment.eq8 q1 q2 in
        if not (Certificate.proves cert ~n:(Maxii.n_vars ineq) (Maxii.sides ineq))
        then
          Alcotest.failf "%s ; %s: the certificate does not prove Eq. 8"
            (Query.to_string q1) (Query.to_string q2)
      | Containment.Not_contained _ | Containment.Unknown _ -> ())
    (check10k_pairs ());
  Bagcqc_engine.Solver.clear ();
  Alcotest.(check int) "Contained pairs" 5000 !contained;
  Alcotest.(check (list (pair string int)))
    "cover certificates, probe certificates, lazy solves, exact LPs"
    [ ("cone.cover.certs", 4504); ("cone.lazy.probe_certs", 496);
      ("cone.lazy.solves", 496); ("lp.solves", 38) ]
    (List.map2 (fun name c -> (name, counter name - c)) names before)

let suite =
  [ ("classify", `Quick, test_classify);
    ("Example 4.3 (vee)", `Quick, test_example_4_3_vee);
    ("Example 3.5 (normal witness)", `Quick, test_example_3_5);
    ("reflexive and trivial", `Quick, test_reflexive_and_trivial);
    ("contained with extra join", `Quick, test_contained_with_extra_join);
    ("decide with heads", `Quick, test_decide_with_heads);
    ("eq8 requires boolean", `Quick, test_eq8_requires_boolean);
    ("Eq. 8 sides on check-10k", `Quick, test_eq8_sides_check10k);
    ("k = 0 witnesses on check-10k", `Quick, test_k0_witness_check10k);
    ("cover and probe certificates on check-10k", `Quick, test_cover_paths_check10k);
    ("scale_steps", `Quick, test_scale_steps);
    ("witness from normal (Ex 3.5)", `Quick, test_witness_from_normal_direct);
    ("Nn presolve outcomes", `Quick, test_presolve_outcomes);
    ("domination", `Quick, test_domination); ("witness theory (Thm 3.4)", `Quick, test_witness_theorem_3_4); ("set semantics contrast", `Quick, test_set_semantics_contrast); ("locality (Ex E.2, Lemma E.1)", `Quick, test_locality_property) ]
  @ qtests
