(* Benchmark & experiment harness.

   The paper (PODS 2020) is a theory paper whose "evaluation" consists of
   worked examples, one figure, one table, and complexity claims.  This
   harness regenerates all of them (experiment ids E1-E12, see DESIGN.md
   and EXPERIMENTS.md):

     E1  Example 4.3/3.8      triangle ⊑ vee, and its Max-II
     E2  Example 3.5          normal witness exists, no product witness
     E3  Example 5.2          reduction IIP → BagCQC-A
     E4  Example B.4          parity is entropic but not normal
     E5  Figure 1 / Ex C.4    Theorem C.3 normalization of parity
     E6  Table 1              database ↔ information-theory dictionary
     E7  Example E.2          locality failure for non-normal entropies
     E8  Theorem 3.1          decision-procedure scaling (exponential in n)
     E9  Lemma 5.3/5.4        reduction output sizes (polynomial)
     E10 Lemma A.1            Boolean reduction preserves containment
     E11 Shannon-oracle       Γn LP scaling
     E12 Theorem 3.4          witness search scaling
     E13 Section 6 / Lee      FD/MVD/lossless-join entropy characterizations
     E14 Lemma 4.8            group-characterizable entropies (Chan-Yeung)
     E15 Section 2.2          bag-bag semantics and its reduction
     E16 Theorem 3.4          product vs normal witnesses
     A1/A2                    ablations (side dedup; certificate vs primal LP)

   Part 1 prints the experiment tables (deterministic reproductions);
   part 2 runs Bechamel timings for the scaling experiments. *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq
open Bagcqc_core

let vs = Varset.of_list
let q = Rat.of_int

let section title =
  Format.printf "@.==== %s ====@." title

(* ------------------------------------------------------------------ *)
(* E1: Example 4.3 — triangle ⊑ vee                                    *)
(* ------------------------------------------------------------------ *)

let triangle = Parser.parse "R(x,y), R(y,z), R(z,x)"
let vee = Parser.parse "R(y1,y2), R(y1,y3)"

let e1 () =
  section "E1: Example 4.3 — #triangles <= #vees";
  let verdict =
    match Containment.decide triangle vee with
    | Containment.Contained _ -> "CONTAINED"
    | Containment.Not_contained _ -> "NOT CONTAINED"
    | Containment.Unknown _ -> "UNKNOWN"
  in
  Format.printf "paper: Q1 ⊑ Q2 holds | measured: %s@." verdict;
  Format.printf "homomorphisms Q2→Q1: paper 3 | measured %d@."
    (Hom.count_between vee triangle);
  (* Cross-check on random graphs. *)
  let ok = ref true in
  for seed = 0 to 19 do
    let st = Random.State.make [| seed |] in
    let db =
      List.fold_left
        (fun db _ ->
          Database.add_row "R"
            [| Value.Int (Random.State.int st 5); Value.Int (Random.State.int st 5) |]
            db)
        Database.empty
        (List.init 12 Fun.id)
    in
    if Hom.count triangle db > Hom.count vee db then ok := false
  done;
  Format.printf "spot-check on 20 random digraphs: %s@."
    (if !ok then "all satisfy #triangles <= #vees" else "VIOLATION (bug!)")

(* ------------------------------------------------------------------ *)
(* E2: Example 3.5 — normal witness, no product witness                *)
(* ------------------------------------------------------------------ *)

let ex35_q1 =
  Parser.parse
    "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')"

let ex35_q2 = Parser.parse "A(y1,y2), B(y1,y3), C(y4,y2)"

let e2 () =
  section "E2: Example 3.5 — normal witness P = {(u,u,v,v)}";
  Format.printf "  n |  |P| = n^2 | hom(Q2,Pi_Q1(P)) (paper: n) | witness?@.";
  List.iter
    (fun n ->
      let p =
        Relation.of_int_rows ~arity:4
          (List.concat_map
             (fun u -> List.map (fun v -> [ u; u; v; v ]) (List.init n Fun.id))
             (List.init n Fun.id))
      in
      match Containment.verify_witness ~annotate:false ex35_q1 ex35_q2 p with
      | Some (card, hom2) ->
        Format.printf "%3d | %9d | %10d | yes@." n card hom2
      | None -> Format.printf "%3d | %9d | %10s | NO@." n (n * n) "-")
    [ 2; 3; 4; 6; 8 ];
  let ineq = Containment.eq8 ex35_q1 ex35_q2 in
  Format.printf "no product witness (valid over Mn): paper yes | measured %b@."
    (Result.is_ok (Maxii.valid_over Cones.Modular ineq));
  Format.printf "normal witness exists (invalid over Nn): paper yes | measured %b@."
    (Result.is_error (Maxii.valid_over Cones.Normal ineq))

(* ------------------------------------------------------------------ *)
(* E3: Example 5.2 — the reduction                                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3: Example 5.2 — reduction IIP -> BagCQC-A";
  (* Verbatim queries of the example. *)
  let q1 =
    Parser.parse
      "S1(x1a), S2(x2a), S3(x2a), S4(x3a), R1(x1a,x2a,x3a), \
       R2(x1a,x2a,x1a,x2a,x3a), R3(x2a,x3a,x1a,x2a,x3a), \
       S1(x1b), S2(x2b), S3(x2b), S4(x3b), R1(x1b,x2b,x3b), \
       R2(x1b,x2b,x1b,x2b,x3b), R3(x2b,x3b,x1b,x2b,x3b), \
       S1(x1c), S2(x2c), S3(x2c), S4(x3c), R1(x1c,x2c,x3c), \
       R2(x1c,x2c,x1c,x2c,x3c), R3(x2c,x3c,x1c,x2c,x3c)"
  in
  let q2 =
    Parser.parse
      "S1(u1), S2(u2), S3(u3), S4(u4), R1(y01,y02,y03), \
       R2(y01,y02,y11,y12,y13), R3(y12,y13,y21,y22,y23)"
  in
  Format.printf "Q1 variables: paper 9 | measured %d@." (Query.nvars q1);
  Format.printf "Q2 variables: paper 13 | measured %d@." (Query.nvars q2);
  Format.printf "Q2 acyclic: paper yes | measured %b@." (Treedec.is_acyclic q2);
  Format.printf "homs Q2->Q1: paper 3^5 = 243 | measured %d@."
    (Hom.count_between q2 q1);
  (* General construction on the same inequality. *)
  let e =
    Linexpr.sum
      [ Linexpr.term (vs [ 0 ]); Linexpr.term ~coeff:(q 2) (vs [ 1 ]);
        Linexpr.term (vs [ 2 ]);
        Linexpr.term ~coeff:(q (-1)) (vs [ 0; 1 ]);
        Linexpr.term ~coeff:(q (-1)) (vs [ 1; 2 ]) ]
  in
  let u = Reduction.uniformize (Maxii.general ~n:3 [ e ]) in
  let c = Reduction.to_queries u in
  Format.printf
    "general construction: n=%d p=%d q=%d | Q1 vars %d, Q2 vars %d, Q2 acyclic %b, homs %d (q^n*qk = %d)@."
    u.Reduction.n u.Reduction.p u.Reduction.q
    (Query.nvars c.Reduction.q1) (Query.nvars c.Reduction.q2)
    (Treedec.is_acyclic c.Reduction.q2)
    (Hom.count_between c.Reduction.q2 c.Reduction.q1)
    (int_of_float (float_of_int u.Reduction.q ** float_of_int u.Reduction.n)
     * u.Reduction.q * 1)

(* ------------------------------------------------------------------ *)
(* E4: Example B.4 — the parity function                               *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4: Example B.4 — parity is entropic, not normal";
  let h = Polymatroid.parity in
  Format.printf "h = %a@." (Polymatroid.pp ()) h;
  Format.printf "is polymatroid: paper yes | measured %b@."
    (Polymatroid.is_polymatroid h);
  Format.printf "is normal: paper NO | measured %b@." (Polymatroid.is_normal h);
  Format.printf "Mobius inverse g: paper (+1,-1,-1,-1,0,0,0,+2) | measured (";
  let full = Varset.full 3 in
  let order =
    [ Varset.empty; vs [ 0 ]; vs [ 1 ]; vs [ 2 ]; vs [ 0; 1 ]; vs [ 0; 2 ];
      vs [ 1; 2 ]; full ]
  in
  List.iteri
    (fun i s ->
      if i > 0 then Format.printf ",";
      Format.printf "%a" Rat.pp (Polymatroid.mobius h s))
    order;
  Format.printf ")@.";
  (* The parity relation realizes h exactly (2 bits at the top). *)
  let p =
    Relation.of_int_rows ~arity:3
      [ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 1 ]; [ 1; 1; 0 ] ]
  in
  Format.printf "realizing relation totally uniform: %b; H(XYZ) = %.1f bits (paper 2)@."
    (Relation.is_totally_uniform p)
    (Relation.entropy_float p full)

(* ------------------------------------------------------------------ *)
(* E5: Figure 1 — Theorem C.3 normalization of parity                  *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: Figure 1 / Example C.4 — normalize(parity)";
  let h = Polymatroid.parity in
  let h' = Normalize.normalize h in
  Format.printf " set  | h | h' (paper bottom-left) | g'@.";
  let full = Varset.full 3 in
  Varset.iter_subsets full (fun s ->
      if not (Varset.is_empty s) then
        Format.printf " %-12s | %a | %a | %a@."
          (Format.asprintf "%a" (Varset.pp ()) s)
          Rat.pp (Polymatroid.value h s) Rat.pp (Polymatroid.value h' s)
          Rat.pp (Polymatroid.mobius h' s));
  Format.printf
    "h' normal: %b; h' <= h: %b; h'(V) = h(V): %b; singletons preserved: %b@."
    (Polymatroid.is_normal h')
    (Polymatroid.dominates h h')
    (Rat.equal (Polymatroid.value h full) (Polymatroid.value h' full))
    (List.for_all
       (fun i ->
         Rat.equal
           (Polymatroid.value h (Varset.singleton i))
           (Polymatroid.value h' (Varset.singleton i)))
       [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* E6: Table 1 — the DB ↔ IT dictionary, machine-checked               *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6: Table 1 — database/information-theory translation";
  let n = 3 in
  let full = Varset.full n in
  let logi k = Logint.log_int k in
  let check name b = Format.printf "%-58s %s@." name (if b then "OK" else "FAIL") in
  (* Product relation ↔ modular function. *)
  let p = Relation.product_of_sizes [ 2; 4; 8 ] in
  let hm = Polymatroid.modular_of_weights [| q 1; q 2; q 3 |] in
  let matches p h =
    let ok = ref true in
    Varset.iter_subsets full (fun x ->
        match Relation.entropy_exact p x with
        | None -> ok := false
        | Some e ->
          if not (Logint.equal e (Logint.scale (Polymatroid.value h x) (logi 2)))
          then ok := false);
    !ok
  in
  check "product relation has modular entropy" (matches p hm);
  (* Step relation ↔ step function. *)
  let w = vs [ 0; 2 ] in
  check "step relation P_W has entropy h_W"
    (matches (Relation.step_relation ~n w) (Polymatroid.step n w));
  (* Domain product ↔ sum. *)
  let p1 = Relation.step_relation ~n (vs [ 0 ]) in
  let p2 = Relation.step_relation ~n (vs [ 1 ]) in
  check "domain product adds entropies"
    (matches (Relation.domain_product p1 p2)
       (Polymatroid.add (Polymatroid.step n (vs [ 0 ])) (Polymatroid.step n (vs [ 1 ]))));
  (* Normal relation ↔ normal function. *)
  let coeffs = [ (vs [ 0; 1 ], 2); (vs [ 2 ], 1) ] in
  check "normal relation has normal entropy"
    (matches
       (Relation.of_normal_steps ~n coeffs)
       (Polymatroid.normal_of_steps n
          (List.map (fun (w, c) -> (w, q c)) coeffs)));
  (* Mn ⊊ Nn ⊊ Γn strictness witnesses. *)
  check "step at |V-W|>=2 is normal but not modular"
    (Polymatroid.is_normal (Polymatroid.step n Varset.empty)
     && not (Polymatroid.is_modular (Polymatroid.step n Varset.empty)));
  check "parity is a polymatroid but not normal"
    (Polymatroid.is_polymatroid Polymatroid.parity
     && not (Polymatroid.is_normal Polymatroid.parity))

(* ------------------------------------------------------------------ *)
(* E7: Example E.2 — locality fails for non-normal entropies           *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: Example E.2 — parity relation breaks locality";
  (* Q1 = Q2 = R(X1,X2), S(X2,X3), T(X3,X1); P = parity. *)
  let q1 = Parser.parse "R(x1,x2), S(x2,x3), T(x3,x1)" in
  let p =
    Relation.of_int_rows ~arity:3
      [ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 1 ]; [ 1; 1; 0 ] ]
  in
  let db = Database.of_vrelation q1 p in
  (* Each projected relation is all of {0,1}²: 4 rows. *)
  List.iter
    (fun (name, r) ->
      Format.printf "%s has %d rows (paper: 4)@." name (Relation.cardinal r))
    (Database.relations db);
  (* hom(Q2, D) picks up the extra triangle (1,1,1): 8 homs > |P| = 4. *)
  let homs = Hom.count q1 db in
  Format.printf "hom(Q2,D) = %d > |P| = %d: paper notes the extra tuple (1,1,1)@."
    homs (Relation.cardinal p);
  let extra = [| Value.Int 1; Value.Int 1; Value.Int 1 |] in
  Format.printf "(1,1,1) in hom(Q2,D) but in no row of P: %b@."
    (List.exists (fun h -> h = extra) (Hom.enumerate q1 db)
     && not (Relation.mem extra p))

(* ------------------------------------------------------------------ *)
(* E10: Lemma A.1 cross-validation                                     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10: Lemma A.1 — Boolean reduction, randomized cross-check";
  let q1 = Parser.parse "Q(x) :- R(x,y)" in
  let q2 = Parser.parse "Q(x) :- R(x,y), R(x,z)" in
  let b1, b2 = Reductions.booleanize q1 q2 in
  let agree = ref 0 and total = 20 in
  for seed = 1 to total do
    let st = Random.State.make [| seed |] in
    let db =
      List.fold_left
        (fun db _ ->
          Database.add_row "R"
            [| Value.Int (Random.State.int st 3); Value.Int (Random.State.int st 3) |]
            db)
        Database.empty
        (List.init (2 + Random.State.int st 6) Fun.id)
    in
    (* Extend db with the head relations over the active domain. *)
    let dom = List.init 3 (fun i -> Value.Int i) in
    let db' =
      List.fold_left
        (fun db v -> Database.add_row "__head_0" [| v |] db)
        db dom
    in
    let lhs = Hom.contained_on q1 q2 db in
    let rhs = Hom.count b1 db' <= Hom.count b2 db' in
    if lhs = rhs then incr agree
  done;
  Format.printf "per-database agreement on %d random instances: %d/%d@."
    total !agree total;
  Format.printf "decide_with_heads(Q1,Q2): %s (expected CONTAINED)@."
    (match Containment.decide_with_heads q1 q2 with
     | Containment.Contained _ -> "CONTAINED"
     | Containment.Not_contained _ -> "NOT CONTAINED"
     | Containment.Unknown _ -> "UNKNOWN")

(* ------------------------------------------------------------------ *)
(* E8/E9/E11/E12 tables: scaling measurements                          *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let path k =
  (* R(x1,x2), R(x2,x3), ..., k atoms, k+1 variables. *)
  Query.make ~nvars:(k + 1)
    (List.init k (fun i -> Query.atom "R" [ i; i + 1 ]))

let e8 () =
  section "E8: Theorem 3.1 scaling — decide(path_k ⊑ path_k), n = k+1 vars";
  Format.printf "  n | verdict   | seconds (expect exponential growth)@.";
  List.iter
    (fun n ->
      let p = path (n - 1) in
      let v, dt = time_it (fun () -> Containment.decide p p) in
      Format.printf "%3d | %-9s | %.3f@." n
        (match v with
         | Containment.Contained _ -> "contained"
         | Containment.Not_contained _ -> "not-cont"
         | Containment.Unknown _ -> "unknown")
        dt)
    [ 3; 4; 5; 6 ]

let e9 () =
  section "E9: reduction output size vs input size (Lemma 5.3: polynomial)";
  Format.printf " #terms | Q1 vars | Q2 vars | Q1 atoms | Q2 atoms | seconds@.";
  List.iter
    (fun t ->
      (* Alternate non-overlapping masks so terms accumulate instead of
         cancelling: positives on singletons, negatives on pairs. *)
      let side =
        Linexpr.sum
          (List.init t (fun i ->
               if i mod 2 = 0 then
                 Linexpr.term ~coeff:(q 1) (Varset.singleton (i / 2 mod 3))
               else
                 Linexpr.term ~coeff:(q (-1))
                   (Varset.union
                      (Varset.singleton (i / 2 mod 3))
                      (Varset.singleton ((i / 2 + 1) mod 3)))))
      in
      let m = Maxii.general ~n:3 [ side ] in
      let c, dt = time_it (fun () -> Reduction.reduce m) in
      Format.printf "%7d | %7d | %7d | %8d | %8d | %.4f@." t
        (Query.nvars c.Reduction.q1) (Query.nvars c.Reduction.q2)
        (List.length (Query.atoms c.Reduction.q1))
        (List.length (Query.atoms c.Reduction.q2))
        dt)
    [ 2; 4; 6; 8; 10 ]

let e11 () =
  section "E11: Shannon-oracle scaling — monotonicity h(V) >= h(X1) over Γn";
  Format.printf "  n | LP vars | valid | seconds@.";
  List.iter
    (fun n ->
      let e =
        Linexpr.sub (Linexpr.term (Varset.full n)) (Linexpr.term (vs [ 0 ]))
      in
      let v, dt = time_it (fun () -> Cones.valid_shannon ~n e) in
      Format.printf "%3d | %7d | %5b | %.3f@." n ((1 lsl n) - 1) v dt)
    [ 2; 3; 4; 5; 6 ]

let e12 () =
  section "E12: witness-search scaling (Example 3.5's refuter, k copies)";
  let h =
    Polymatroid.normal_of_steps 4
      [ (vs [ 0; 1 ], Rat.one); (vs [ 2; 3 ], Rat.one) ]
  in
  Format.printf " max_factors | found | |P| | seconds@.";
  List.iter
    (fun mf ->
      let r, dt =
        time_it (fun () ->
            Containment.witness_from_normal ~max_factors:mf ex35_q1 ex35_q2 h)
      in
      match r with
      | Some w -> Format.printf "%12d | yes   | %3d | %.4f@." mf w.Containment.card_p dt
      | None -> Format.printf "%12d | no    |   - | %.4f@." mf dt)
    [ 2; 4; 8; 12 ]

(* ------------------------------------------------------------------ *)
(* E13: Section 6 — Lee's dependency characterizations                 *)
(* ------------------------------------------------------------------ *)

let parity_rel =
  Relation.of_int_rows ~arity:3
    [ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 1 ]; [ 1; 1; 0 ] ]

let e13 () =
  section "E13: Lee [22] — FD/MVD/lossless-join via entropy, on parity";
  let b = string_of_bool in
  let agree rel_def ent_def = if rel_def = ent_def then "agree" else "DISAGREE (bug!)" in
  let fd_r = Dependencies.fd_holds parity_rel ~x:(vs [ 0; 1 ]) ~y:(vs [ 2 ]) in
  let fd_e = Dependencies.fd_holds_entropy parity_rel ~x:(vs [ 0; 1 ]) ~y:(vs [ 2 ]) in
  Format.printf "FD XY->Z:   relational %-5s | h(Z|XY)=0 %-5s | %s@."
    (b fd_r) (b fd_e) (agree fd_r fd_e);
  let fd2_r = Dependencies.fd_holds parity_rel ~x:(vs [ 0 ]) ~y:(vs [ 2 ]) in
  let fd2_e = Dependencies.fd_holds_entropy parity_rel ~x:(vs [ 0 ]) ~y:(vs [ 2 ]) in
  Format.printf "FD X->Z:    relational %-5s | h(Z|X)=0  %-5s | %s@."
    (b fd2_r) (b fd2_e) (agree fd2_r fd2_e);
  let mvd_r = Dependencies.mvd_holds parity_rel ~x:(vs [ 0 ]) ~y:(vs [ 1 ]) in
  let mvd_e = Dependencies.mvd_holds_entropy parity_rel ~x:(vs [ 0 ]) ~y:(vs [ 1 ]) in
  Format.printf "MVD X->>Y:  relational %-5s | I=0       %-5s | %s@."
    (b mvd_r) (b mvd_e) (agree mvd_r mvd_e);
  let t = Treedec.make ~bags:[| vs [ 0; 1 ]; vs [ 1; 2 ] |] ~edges:[ (0, 1) ] in
  let lj_r = Dependencies.lossless_join parity_rel t in
  let lj_e = Dependencies.lossless_join_entropy parity_rel t in
  Format.printf "lossless {01}-{12}: relational %-5s | E_T(h)=h(V) %-5s | %s@."
    (b lj_r) (b lj_e) (agree lj_r lj_e)

(* ------------------------------------------------------------------ *)
(* E14: Chan–Yeung group characterization (Lemma 4.8)                  *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14: group-characterizable entropies (Lemma 4.8)";
  let g, subs = Group.klein_parity in
  Format.printf "Klein four-group, 3 subgroups of order 2:@.";
  let p = Group.coset_relation g subs in
  Format.printf "coset relation rows: %d (paper: the parity relation, 4)@."
    (Relation.cardinal p);
  Format.printf "totally uniform: %b (Lemma 4.8 requires it)@."
    (Relation.is_totally_uniform p);
  let matches = ref true in
  Varset.iter_subsets (Varset.full 3) (fun x ->
      if
        not
          (Logint.equal (Relation.entropy_logint p x) (Group.entropy g subs x))
      then matches := false);
  Format.printf "relation entropies = log(|G|/|∩Gᵢ|) closed form: %b@." !matches;
  Format.printf "h(single)=%.0f h(pair)=%.0f h(triple)=%.0f bits (parity: 1/2/2)@."
    (Logint.to_float (Group.entropy g subs (vs [ 0 ])))
    (Logint.to_float (Group.entropy g subs (vs [ 0; 1 ])))
    (Logint.to_float (Group.entropy g subs (Varset.full 3)))

(* ------------------------------------------------------------------ *)
(* E15: bag-bag semantics reduction (Section 2.2)                      *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15: bag-bag vs bag-set (Section 2.2)";
  let dup = Parser.parse "R(x,y), R(x,y)" in
  let single = Parser.parse "R(x,y)" in
  let verdict v =
    match v with
    | Containment.Contained _ -> "contained"
    | Containment.Not_contained _ -> "not contained"
    | Containment.Unknown _ -> "unknown"
  in
  Format.printf "R(x,y),R(x,y) vs R(x,y) under bag-set (dup atoms collapse): %s@."
    (verdict (Containment.decide (Query.dedup_atoms dup) single));
  Format.printf "R(x,y),R(x,y) vs R(x,y) under bag-bag (paper: differ!): %s@."
    (verdict (Containment.decide_bag_bag dup single));
  Format.printf "R(x,y) vs R(x,y),R(x,y) under bag-bag: %s@."
    (verdict (Containment.decide_bag_bag single dup));
  (* Reduction identity spot check. *)
  let db = Bagdb.of_int_rows [ ("R", [ ([ 0; 1 ], 3); ([ 1; 2 ], 2) ]) ] in
  Format.printf "count_bag(dup) = %d = lifted bag-set count %d@."
    (Bagdb.count_bag dup db)
    (Hom.count (Bagdb.lift_query dup) (Bagdb.to_set_database db))

(* ------------------------------------------------------------------ *)
(* E16: Theorem 3.4 — witness structure                                *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16: Theorem 3.4 — product vs normal witnesses";
  let loopq = Parser.parse "R(u,u)" and edgeq = Parser.parse "R(x,y)" in
  Format.printf "Q2 = R(u,u): class %s@."
    (match Witness.applicable loopq with
     | Some Witness.Product -> "totally disconnected: product witnesses suffice"
     | Some Witness.Normal -> "simple: normal witnesses suffice"
     | None -> "no guarantee");
  (match Witness.product_witness edgeq loopq with
   | Some (_, card, hom2) ->
     Format.printf "R(x,y) vs R(u,u): product witness |P|=%d > hom=%d@." card hom2
   | None -> Format.printf "R(x,y) vs R(u,u): no product witness (unexpected)@.");
  Format.printf "Example 3.5: product witness exists: %b (paper: no)@."
    (Witness.product_witness ex35_q1 ex35_q2 <> None);
  Format.printf "Example 3.5: normal witness exists: %b (paper: yes)@."
    (Witness.normal_witness ex35_q1 ex35_q2 <> None)

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablation A1: deduplicating Eq. 8 sides";
  let pairs =
    [ ("triangle/vee", triangle, vee); ("Ex 3.5", ex35_q1, ex35_q2);
      (* Q1 with an automorphism: both homs induce the same side. *)
      ("2cycle/edge", Parser.parse "R(x,y), R(y,x)", Parser.parse "R(u,v)") ]
  in
  Format.printf "%-14s | sides (dedup) | sides (raw) | t dedup | t raw@." "instance";
  List.iter
    (fun (name, q1, q2) ->
      let timed dedup =
        let t0 = Unix.gettimeofday () in
        let m = Containment.eq8 ~dedup q1 q2 in
        let n = List.length (Maxii.sides m) in
        let _ = Maxii.is_valid_over Cones.Gamma m in
        (n, Unix.gettimeofday () -. t0)
      in
      let nd, td = timed true in
      let nr, tr = timed false in
      Format.printf "%-14s | %13d | %11d | %.3fs | %.3fs@." name nd nr td tr)
    pairs;
  section "Ablation A2: Farkas certificate vs primal feasibility (Γ4, Ingleton)";
  let i_pair a b x = Linexpr.mutual (vs [ a ]) (vs [ b ]) (vs x) in
  let ingleton =
    Linexpr.sub
      (Linexpr.sum [ i_pair 0 1 [ 2 ]; i_pair 0 1 [ 3 ]; i_pair 2 3 [] ])
      (i_pair 0 1 [])
  in
  let t0 = Unix.gettimeofday () in
  let quick = Cones.valid_max_quick Cones.Gamma ~n:4 [ ingleton ] in
  let t_quick = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let full = Result.is_ok (Cones.valid Cones.Gamma ~n:4 ingleton) in
  let t_full = Unix.gettimeofday () -. t0 in
  Format.printf "certificate-only: %.4fs | with refuter extraction: %.4fs (verdict %b=%b)@."
    t_quick t_full quick full

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let test_e1 =
    Test.make ~name:"e1_vee_decide" (Staged.stage (fun () ->
        ignore (Containment.decide triangle vee)))
  in
  let test_e2 =
    Test.make ~name:"e2_normal_witness" (Staged.stage (fun () ->
        let h =
          Polymatroid.normal_of_steps 4
            [ (vs [ 0; 1 ], Rat.one); (vs [ 2; 3 ], Rat.one) ]
        in
        ignore (Containment.witness_from_normal ~max_factors:4 ex35_q1 ex35_q2 h)))
  in
  let test_e3 =
    Test.make ~name:"e3_reduce_ex52" (Staged.stage (fun () ->
        let e =
          Linexpr.sum
            [ Linexpr.term (vs [ 0 ]); Linexpr.term ~coeff:(q 2) (vs [ 1 ]);
              Linexpr.term (vs [ 2 ]);
              Linexpr.term ~coeff:(q (-1)) (vs [ 0; 1 ]);
              Linexpr.term ~coeff:(q (-1)) (vs [ 1; 2 ]) ]
        in
        ignore (Reduction.reduce (Maxii.general ~n:3 [ e ]))))
  in
  let test_e5 =
    Test.make ~name:"e5_normalize_parity" (Staged.stage (fun () ->
        ignore (Normalize.normalize Polymatroid.parity)))
  in
  let test_e6 =
    Test.make ~name:"e6_table1_checks" (Staged.stage (fun () ->
        ignore (Relation.is_totally_uniform (Relation.of_normal_steps ~n:3 [ (vs [ 0 ], 2) ]))))
  in
  let test_e7 =
    Test.make ~name:"e7_parity_locality" (Staged.stage (fun () ->
        let q1 = Parser.parse "R(x1,x2), S(x2,x3), T(x3,x1)" in
        let p =
          Relation.of_int_rows ~arity:3
            [ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 1 ]; [ 1; 1; 0 ] ]
        in
        ignore (Hom.count q1 (Database.of_vrelation q1 p))))
  in
  let test_e8 n =
    Test.make ~name:(Printf.sprintf "e8_decide_path_n%d" n)
      (Staged.stage (fun () -> ignore (Containment.decide (path (n - 1)) (path (n - 1)))))
  in
  let test_e10 =
    Test.make ~name:"e10_booleanize" (Staged.stage (fun () ->
        ignore
          (Reductions.booleanize
             (Parser.parse "Q(x) :- R(x,y)")
             (Parser.parse "Q(x) :- R(x,y), R(x,z)"))))
  in
  let test_e11 n =
    Test.make ~name:(Printf.sprintf "e11_shannon_n%d" n)
      (Staged.stage (fun () ->
           let e =
             Linexpr.sub (Linexpr.term (Varset.full n)) (Linexpr.term (vs [ 0 ]))
           in
           ignore (Cones.valid_shannon ~n e)))
  in
  let test_e12 =
    Test.make ~name:"e12_verify_witness" (Staged.stage (fun () ->
        let p =
          Relation.of_int_rows ~arity:4
            (List.concat_map
               (fun u -> List.map (fun v -> [ u; u; v; v ]) [ 0; 1; 2 ])
               [ 0; 1; 2 ])
        in
        ignore (Containment.verify_witness ex35_q1 ex35_q2 p)))
  in
  let test_e9 =
    Test.make ~name:"e9_uniformize" (Staged.stage (fun () ->
        let side =
          Linexpr.sum
            (List.init 8 (fun i ->
                 Linexpr.term
                   ~coeff:(q (if i mod 2 = 0 then 1 else -1))
                   (Varset.singleton (i mod 3))))
        in
        ignore (Reduction.uniformize (Maxii.general ~n:3 [ side ]))))
  in
  let tests =
    [ test_e1; test_e2; test_e3; test_e5; test_e6; test_e7;
      test_e8 4; test_e8 5; test_e8 6;
      test_e9; test_e10;
      test_e11 3; test_e11 4; test_e11 5; test_e11 6;
      test_e12 ]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  Format.printf "@.==== Bechamel timings (ns/run, OLS estimate) ====@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.printf "%-32s %12.0f ns/run@." name est
          | Some _ | None -> Format.printf "%-32s (no estimate)@." name)
        analyzed)
    tests

(* `--json FILE [--only lp|hom|par] [--smoke] [--jobs N] [--trace FILE]`:
   skip the experiment tables and write wall-clock medians for the scaling
   suites to FILE (see Bench_json); `compare.exe` diffs two such files.
   `--jobs N` sizes the domain pool (the par suite overrides it per point;
   everything else runs at this setting, default 1 in this harness for
   reproducible sequential baselines).  `--trace` additionally records the
   whole bench run as a span trace (readable with `bin/main.exe report`) —
   note the timed medians then include tracing overhead, so don't gate
   regressions on a traced run. *)
let json_mode () =
  let usage () =
    prerr_endline
      "usage: main.exe [--json FILE [--only lp|hom|par] [--smoke] [--jobs N] \
       [--trace FILE]]";
    exit 2
  in
  let path = ref None
  and only = ref Bench_json.All
  and smoke = ref false
  and jobs = ref None
  and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest -> path := Some file; parse rest
    | "--only" :: "lp" :: rest -> only := Bench_json.Lp; parse rest
    | "--only" :: "hom" :: rest -> only := Bench_json.Hom; parse rest
    | "--only" :: "par" :: rest -> only := Bench_json.Par; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 1 -> jobs := Some n; parse rest
       | _ -> prerr_endline "main.exe: bad --jobs"; exit 2)
    | "--trace" :: file :: rest -> trace := Some file; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  Option.iter Bagcqc_par.Pool.set_jobs !jobs;
  match !path with
  | Some path ->
    let module Obs = Bagcqc_obs in
    (match !trace with
     | Some _ ->
       Obs.enable ();
       Obs.reset ()
     | None -> ());
    Obs.Span.with_span ~name:"bench.json" (fun () ->
        Bench_json.run ~path ~only:!only ~smoke:!smoke);
    (match !trace with Some f -> Obs.Export.write f | None -> ());
    true
  | None ->
    if !only <> Bench_json.All || !smoke || !trace <> None || !jobs <> None
    then usage ()
    else false

let () =
  if json_mode () then exit 0;
  Format.printf "bagcqc experiment harness (see DESIGN.md / EXPERIMENTS.md)@.";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  ablations ();
  bechamel_suite ();
  Format.printf "@.done.@."
