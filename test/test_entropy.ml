(* Tests for the entropy substrate: Varset, Linexpr, Cexpr, Polymatroid,
   Cones, Normalize, Maxii.  Includes the paper's Examples 3.8, B.4, C.4
   (Figure 1) and a property-test of Theorem 3.6 itself. *)

open Bagcqc_num
open Bagcqc_entropy

let q = Rat.of_int
let qf = Rat.of_ints
let rt = Alcotest.testable Rat.pp Rat.equal
let vs = Varset.of_list

(* ------------------------------------------------------------------ *)
(* Varset                                                              *)
(* ------------------------------------------------------------------ *)

let test_varset_basic () =
  Alcotest.(check int) "cardinal full 5" 5 (Varset.cardinal (Varset.full 5));
  Alcotest.(check int) "cardinal empty" 0 (Varset.cardinal Varset.empty);
  Alcotest.(check (list int)) "to_list" [ 0; 2; 4 ] (Varset.to_list (vs [ 4; 0; 2 ]));
  Alcotest.(check bool) "subset yes" true (Varset.subset (vs [ 1 ]) (vs [ 0; 1 ]));
  Alcotest.(check bool) "subset no" false (Varset.subset (vs [ 2 ]) (vs [ 0; 1 ]));
  Alcotest.(check bool) "mem" true (Varset.mem 3 (vs [ 3 ]));
  Alcotest.(check int) "union" 7 (Varset.union (vs [ 0; 1 ]) (vs [ 2 ]));
  Alcotest.(check int) "inter" 2 (Varset.inter (vs [ 0; 1 ]) (vs [ 1; 2 ]));
  Alcotest.(check int) "diff" 1 (Varset.diff (vs [ 0; 1 ]) (vs [ 1; 2 ]))

let test_varset_subsets () =
  let count = ref 0 in
  Varset.iter_subsets (vs [ 0; 2; 5 ]) (fun _ -> incr count);
  Alcotest.(check int) "8 subsets of a 3-set" 8 !count;
  let supers = ref [] in
  Varset.iter_supersets ~n:3 (vs [ 0 ]) (fun s -> supers := s :: !supers);
  Alcotest.(check int) "4 supersets of {0} in [3]" 4 (List.length !supers);
  List.iter
    (fun s -> Alcotest.(check bool) "superset contains 0" true (Varset.mem 0 s))
    !supers

let prop_subset_enum_complete =
  QCheck.Test.make ~name:"varset: subset enumeration is exhaustive" ~count:200
    (QCheck.int_range 0 1023)
    (fun mask ->
      let seen = Hashtbl.create 16 in
      Varset.iter_subsets mask (fun s ->
          if Hashtbl.mem seen s then failwith "duplicate";
          Hashtbl.add seen s ());
      Hashtbl.length seen = 1 lsl Varset.cardinal mask
      && Hashtbl.fold (fun s () acc -> acc && Varset.subset s mask) seen true)

(* ------------------------------------------------------------------ *)
(* Linexpr / Cexpr                                                     *)
(* ------------------------------------------------------------------ *)

let test_linexpr_algebra () =
  let e1 = Linexpr.term (vs [ 0; 1 ]) in
  let e2 = Linexpr.term ~coeff:(q 2) (vs [ 1 ]) in
  let s = Linexpr.add e1 e2 in
  Alcotest.check rt "coeff 01" Rat.one (Linexpr.coeff s (vs [ 0; 1 ]));
  Alcotest.check rt "coeff 1" (q 2) (Linexpr.coeff s (vs [ 1 ]));
  Alcotest.check rt "coeff absent" Rat.zero (Linexpr.coeff s (vs [ 0 ]));
  Alcotest.(check bool) "cancellation" true
    (Linexpr.is_zero (Linexpr.sub s s));
  (* cond: h(Y|X) = h(YX) - h(X) *)
  let c = Linexpr.cond (vs [ 1 ]) (vs [ 0 ]) in
  Alcotest.check rt "cond +" Rat.one (Linexpr.coeff c (vs [ 0; 1 ]));
  Alcotest.check rt "cond -" Rat.minus_one (Linexpr.coeff c (vs [ 0 ]));
  (* h(∅) is never stored *)
  let m = Linexpr.mutual (vs [ 0 ]) (vs [ 1 ]) Varset.empty in
  Alcotest.(check int) "mutual support size" 3 (List.length (Linexpr.support m))

let test_linexpr_eval_rename () =
  let h x = q (Varset.cardinal x) in
  (* |X| is (the rank function of the free matroid) a modular h. *)
  let e =
    Linexpr.sum
      [ Linexpr.term ~coeff:(q 3) (vs [ 0 ]);
        Linexpr.term ~coeff:(q 4) (vs [ 1; 2 ]);
        Linexpr.term ~coeff:(q (-6)) (vs [ 2 ]) ]
  in
  Alcotest.check rt "eval" (q 5) (Linexpr.eval h e);
  (* Example 4.1: rename Y1↦X1, Y2,Y3↦X2 on 3h(Y1)+4h(Y2Y3)-6h(Y3)
     gives 3h(X1)+4h(X2)-6h(X2) = 3h(X1)-2h(X2). *)
  let e' = Linexpr.rename (fun i -> if i = 0 then 0 else 1) e in
  Alcotest.check rt "rename merge +" (q 3) (Linexpr.coeff e' (vs [ 0 ]));
  Alcotest.check rt "rename merge -" (q (-2)) (Linexpr.coeff e' (vs [ 1 ]))

let test_cexpr () =
  let e =
    Cexpr.sum
      [ Cexpr.entropy (vs [ 0; 1 ]);
        Cexpr.part (vs [ 1 ]) (vs [ 0 ]) ]
  in
  Alcotest.(check bool) "simple" true (Cexpr.is_simple e);
  Alcotest.(check bool) "not unconditioned" false (Cexpr.is_unconditioned e);
  let flat = Cexpr.to_linexpr e in
  (* h(X1X2) + h(X2|X1) = 2h(X1X2) - h(X1) *)
  Alcotest.check rt "flat 01" (q 2) (Linexpr.coeff flat (vs [ 0; 1 ]));
  Alcotest.check rt "flat 0" Rat.minus_one (Linexpr.coeff flat (vs [ 0 ]));
  (* |x| = 2 conditioning is neither simple nor unconditioned *)
  let e2 = Cexpr.part (vs [ 2 ]) (vs [ 0; 1 ]) in
  Alcotest.(check bool) "not simple" false (Cexpr.is_simple e2);
  Alcotest.check_raises "negative coeff"
    (Invalid_argument "Cexpr.part: negative coefficient") (fun () ->
      ignore (Cexpr.part ~coeff:Rat.minus_one (vs [ 0 ]) Varset.empty))

(* ------------------------------------------------------------------ *)
(* Polymatroid                                                         *)
(* ------------------------------------------------------------------ *)

let test_step_function () =
  (* Paper Sec. 3.2: h_W(X) = 0 if X ⊆ W else 1. *)
  let h = Polymatroid.step 3 (vs [ 0 ]) in
  Alcotest.check rt "inside W" Rat.zero (Polymatroid.value h (vs [ 0 ]));
  Alcotest.check rt "outside W" Rat.one (Polymatroid.value h (vs [ 1 ]));
  Alcotest.check rt "mixed" Rat.one (Polymatroid.value h (vs [ 0; 1 ]));
  Alcotest.(check bool) "step is polymatroid" true (Polymatroid.is_polymatroid h);
  Alcotest.(check bool) "step is normal" true (Polymatroid.is_normal h);
  Alcotest.check_raises "full W rejected"
    (Invalid_argument "Polymatroid.step: W must be proper") (fun () ->
      ignore (Polymatroid.step 2 (Varset.full 2)))

let test_parity_example_b4 () =
  (* Example B.4: h(X)=h(Y)=h(Z)=1, all pairs and triple = 2. *)
  let h = Polymatroid.parity in
  Alcotest.check rt "h(X)" Rat.one (Polymatroid.value h (vs [ 0 ]));
  Alcotest.check rt "h(XY)" (q 2) (Polymatroid.value h (vs [ 0; 1 ]));
  Alcotest.check rt "h(XYZ)" (q 2) (Polymatroid.value h (Varset.full 3));
  Alcotest.(check bool) "parity is polymatroid" true (Polymatroid.is_polymatroid h);
  (* Corollary B.8: parity is not normal. *)
  Alcotest.(check bool) "parity not normal" false (Polymatroid.is_normal h);
  Alcotest.(check bool) "no decomposition" true
    (Polymatroid.normal_decomposition h = None);
  (* Möbius inverse table from Appendix B:
     g(∅)=+1 g(X)=g(Y)=g(Z)=-1 g(pairs)=0 g(XYZ)=+2. *)
  Alcotest.check rt "g(empty)" Rat.one (Polymatroid.mobius h Varset.empty);
  Alcotest.check rt "g(X)" Rat.minus_one (Polymatroid.mobius h (vs [ 0 ]));
  Alcotest.check rt "g(XY)" Rat.zero (Polymatroid.mobius h (vs [ 0; 1 ]));
  Alcotest.check rt "g(XYZ)" (q 2) (Polymatroid.mobius h (Varset.full 3))

let test_modular () =
  let h = Polymatroid.modular_of_weights [| q 1; q 2; q 3 |] in
  Alcotest.check rt "h(02)" (q 4) (Polymatroid.value h (vs [ 0; 2 ]));
  Alcotest.(check bool) "modular" true (Polymatroid.is_modular h);
  Alcotest.(check bool) "modular is normal" true (Polymatroid.is_normal h);
  Alcotest.(check bool) "modular is polymatroid" true (Polymatroid.is_polymatroid h);
  Alcotest.(check bool) "parity not modular" false
    (Polymatroid.is_modular Polymatroid.parity)

let test_mobius_roundtrip () =
  let h = Polymatroid.parity in
  let h' = Polymatroid.of_mobius 3 (Polymatroid.mobius h) in
  Alcotest.(check bool) "mobius roundtrip" true (Polymatroid.equal h h')

let test_normal_decomposition () =
  let coeffs = [ (vs [ 0 ], qf 3 2); (vs [ 1; 2 ], q 2); (Varset.empty, Rat.one) ] in
  let h = Polymatroid.normal_of_steps 3 coeffs in
  Alcotest.(check bool) "normal" true (Polymatroid.is_normal h);
  (match Polymatroid.normal_decomposition h with
   | None -> Alcotest.fail "expected decomposition"
   | Some d ->
     let h' = Polymatroid.normal_of_steps 3 d in
     Alcotest.(check bool) "decomposition reconstructs" true (Polymatroid.equal h h'))

let test_cond_mutual () =
  let h = Polymatroid.parity in
  (* Functional dependency XY -> Z: h(Z|XY) = 0. *)
  Alcotest.check rt "h(Z|XY)=0" Rat.zero (Polymatroid.cond h (vs [ 2 ]) (vs [ 0; 1 ]));
  (* Pairwise independence: I(X;Y) = 0. *)
  Alcotest.check rt "I(X;Y)=0" Rat.zero
    (Polymatroid.mutual h (vs [ 0 ]) (vs [ 1 ]) Varset.empty);
  (* But I(X;Y|Z) = 1. *)
  Alcotest.check rt "I(X;Y|Z)=1" Rat.one
    (Polymatroid.mutual h (vs [ 0 ]) (vs [ 1 ]) (vs [ 2 ]))

(* Sums of truncated modular functions: a rich polymatroid generator
   (includes parity = trunc(2, 1+1+1)). *)
let arb_polymatroid n =
  let gen =
    QCheck.Gen.(
      let* pieces =
        list_size (int_range 1 3)
          (pair (int_range 1 6) (list_repeat n (int_range 0 4)))
      in
      let trunc (cap, ws) =
        let ws = Array.of_list (List.map q ws) in
        Polymatroid.make n (fun x ->
            let s =
              Varset.fold_elements (fun i acc -> Rat.add acc ws.(i)) x Rat.zero
            in
            Rat.min (q cap) s)
      in
      return (List.fold_left (fun acc p -> Polymatroid.add acc (trunc p)) (Polymatroid.zero n) pieces))
  in
  QCheck.make ~print:(Format.asprintf "%a" (Polymatroid.pp ())) gen

(* The Möbius predicates against the definition: [is_normal] and
   [normal_decomposition] take one superset transform, the reference
   one [Polymatroid.mobius] sweep per set (the option and the list, in
   ascending mask order, must be the same). *)
let reference_decomposition h =
  let n = Polymatroid.n_vars h in
  let full = Varset.full n in
  let gs = List.init full (fun w -> (w, Polymatroid.mobius h w)) in
  if
    Rat.is_zero (Polymatroid.value h Varset.empty)
    && List.for_all (fun (_, g) -> Rat.sign g <= 0) gs
  then Some (List.filter_map (fun (w, g) -> if Rat.sign g < 0 then Some (w, Rat.neg g) else None) gs)
  else None

let mobius_matches_reference h =
  let expected = reference_decomposition h in
  Polymatroid.is_normal h = Option.is_some expected
  && Option.equal
       (List.equal (fun (w, c) (w', c') -> Varset.equal w w' && Rat.equal c c'))
       (Polymatroid.normal_decomposition h) expected

let arb_mobius_case =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 6 in
      let full = Varset.full n in
      let rat = map2 (fun a b -> Rat.div (q a) (q b)) (int_range (-3) 4) (int_range 1 3) in
      let* normal =
        if n = 0 then return (Polymatroid.zero 0)
        else
          map (Polymatroid.normal_of_steps n)
            (list_size (int_range 0 5)
               (pair (int_range 0 (full - 1)) (map Rat.abs rat)))
      in
      (* Non-normal vectors: arbitrary values, or a normal function
         nudged at one set. *)
      oneof
        [ return normal;
          map (fun vs -> Polymatroid.make n (fun x -> vs.(x))) (array_repeat (full + 1) rat);
          map2
            (fun x d ->
              Polymatroid.make n (fun y ->
                  let v = Polymatroid.value normal y in
                  if y = x then Rat.add v d else v))
            (int_range 0 full) rat ])
  in
  QCheck.make ~print:(Format.asprintf "%a" (Polymatroid.pp ())) gen

let prop_mobius_matches_reference =
  QCheck.Test.make ~name:"is_normal/normal_decomposition match per-set mobius"
    ~count:500 arb_mobius_case mobius_matches_reference

(* Every Nn refuter the corpora produce decomposes as the definition
   says: iip-2k's Max-IIPs and check-10k's Eq. 8 inequalities. *)
let test_mobius_corpus_refuters () =
  let load path =
    match Bagcqc_check.Corpus.load path with
    | Ok (_, insts) -> insts
    | Error msg -> Alcotest.fail msg
  in
  let refuters = ref 0 in
  let check what ineq =
    match Maxii.valid_over Cones.Normal ineq with
    | Ok () -> ()
    | Error h ->
      incr refuters;
      if not (mobius_matches_reference h) then
        Alcotest.failf "%s: Möbius predicates differ from the reference" what
  in
  List.iter
    (fun inst ->
      let what = string_of_int inst.Bagcqc_check.Corpus.id in
      match inst.Bagcqc_check.Corpus.payload with
      | Bagcqc_check.Corpus.Iip_sides { n; sides } ->
        check ("iip-2k " ^ what)
          (Maxii.general ~n (List.map Bagcqc_check.Corpus.build_side sides))
      | Bagcqc_check.Corpus.Check_pair { q1; q2 } ->
        check ("check-10k " ^ what) (Bagcqc_core.Containment.eq8 q1 q2))
    (load "../corpus/iip-2k.jsonl" @ load "../corpus/check-10k.jsonl");
  if !refuters = 0 then Alcotest.fail "no Nn refuter on either corpus"

let prop_truncated_modular_is_polymatroid =
  QCheck.Test.make ~name:"sum of truncated modulars is a polymatroid" ~count:100
    (arb_polymatroid 4) Polymatroid.is_polymatroid

(* ------------------------------------------------------------------ *)
(* Cones: Shannon validity                                             *)
(* ------------------------------------------------------------------ *)

let i_pair a b x = Linexpr.mutual (vs [ a ]) (vs [ b ]) (vs x)

let test_shannon_basic () =
  (* Submodularity h(1)+h(2) >= h(12) is Shannon. *)
  let e =
    Linexpr.sub
      (Linexpr.add (Linexpr.term (vs [ 0 ])) (Linexpr.term (vs [ 1 ])))
      (Linexpr.term (vs [ 0; 1 ]))
  in
  Alcotest.(check bool) "submodularity" true (Cones.valid_shannon ~n:2 e);
  (* Monotonicity composite h(123) >= h(1). *)
  let e2 = Linexpr.sub (Linexpr.term (Varset.full 3)) (Linexpr.term (vs [ 0 ])) in
  Alcotest.(check bool) "monotonicity" true (Cones.valid_shannon ~n:3 e2);
  (* h(2) - h(1) >= 0 is false. *)
  let e3 = Linexpr.sub (Linexpr.term (vs [ 1 ])) (Linexpr.term (vs [ 0 ])) in
  Alcotest.(check bool) "false inequality" false (Cones.valid_shannon ~n:2 e3)

let test_shannon_certificate () =
  let e =
    Linexpr.sub
      (Linexpr.add (Linexpr.term (vs [ 0 ])) (Linexpr.term (vs [ 1 ])))
      (Linexpr.term (vs [ 0; 1 ]))
  in
  (match Cones.shannon_certificate ~n:2 e with
   | None -> Alcotest.fail "expected certificate"
   | Some cert ->
     let recombined =
       Linexpr.sum
         (List.map
            (fun (d, l) -> Linexpr.scale l (Elemental.expr_of_desc ~n:2 d))
            cert)
     in
     Alcotest.(check bool) "certificate recombines exactly" true
       (Linexpr.equal recombined e));
  let bad = Linexpr.sub (Linexpr.term (vs [ 1 ])) (Linexpr.term (vs [ 0 ])) in
  Alcotest.(check bool) "no certificate for invalid" true
    (Cones.shannon_certificate ~n:2 bad = None)

let test_zhang_yeung_not_shannon () =
  (* Zhang-Yeung 1998: 2I(C;D) <= I(A;B) + I(A;CD) + 3I(C;D|A) + I(C;D|B)
     is valid over Γ*4 but NOT a Shannon inequality; the Γ4 test must
     refute it, and the refuting polymatroid must not be normal
     (it is not entropic). Variables: A=0 B=1 C=2 D=3. *)
  let lhs = Linexpr.scale (q 2) (i_pair 2 3 []) in
  let rhs =
    Linexpr.sum
      [ i_pair 0 1 [];
        Linexpr.mutual (vs [ 0 ]) (vs [ 2; 3 ]) Varset.empty;
        Linexpr.scale (q 3) (i_pair 2 3 [ 0 ]);
        i_pair 2 3 [ 1 ] ]
  in
  let e = Linexpr.sub rhs lhs in
  (match Cones.valid Cones.Gamma ~n:4 e with
   | Ok () -> Alcotest.fail "Zhang-Yeung must not be Shannon"
   | Error h ->
     Alcotest.(check bool) "witness is a polymatroid" true
       (Polymatroid.is_polymatroid h);
     Alcotest.(check bool) "witness violates" true
       (Rat.sign (Polymatroid.eval h e) < 0));
  (* But it does hold over the normal cone (normal functions are entropic). *)
  Alcotest.(check bool) "valid over Nn" true
    (Result.is_ok (Cones.valid Cones.Normal ~n:4 e))

let test_ingleton_unknown_path () =
  (* Ingleton: I(A;B) <= I(A;B|C) + I(A;B|D) + I(C;D): fails over Γ*4 and
     over Γ4, but holds over Nn — exercising Maxii's Unknown verdict. *)
  let e =
    Linexpr.sub
      (Linexpr.sum [ i_pair 0 1 [ 2 ]; i_pair 0 1 [ 3 ]; i_pair 2 3 [] ])
      (i_pair 0 1 [])
  in
  let t = Maxii.general ~n:4 [ e ] in
  (match Maxii.decide t with
   | Maxii.Unknown h ->
     Alcotest.(check bool) "refuter is polymatroid" true (Polymatroid.is_polymatroid h);
     Alcotest.(check bool) "refuter not normal" false (Polymatroid.is_normal h)
   | Maxii.Valid _ -> Alcotest.fail "Ingleton is not valid over Γ4"
   | Maxii.Invalid _ -> Alcotest.fail "Ingleton holds over N4, cannot be Invalid")

let test_example_3_8 () =
  (* Example 3.8: h(X1X2X3) <= max(E1, E2, E3) with
     E1 = h(X1X2)+h(X2|X1), E2 = h(X2X3)+h(X3|X2), E3 = h(X1X3)+h(X1|X3). *)
  let e1 = Cexpr.add (Cexpr.entropy (vs [ 0; 1 ])) (Cexpr.part (vs [ 1 ]) (vs [ 0 ])) in
  let e2 = Cexpr.add (Cexpr.entropy (vs [ 1; 2 ])) (Cexpr.part (vs [ 2 ]) (vs [ 1 ])) in
  let e3 = Cexpr.add (Cexpr.entropy (vs [ 0; 2 ])) (Cexpr.part (vs [ 0 ]) (vs [ 2 ])) in
  let t = Maxii.conditional ~n:3 ~q:Rat.one [ e1; e2; e3 ] in
  Alcotest.(check bool) "simple shape" true (Maxii.shape t = Maxii.Simple);
  (match Maxii.decide t with
   | Maxii.Valid cert ->
     Alcotest.(check bool) "certificate proves exactly these sides" true
       (Certificate.proves cert ~n:3 (Maxii.sides t))
   | _ -> Alcotest.fail "Example 3.8 inequality must be valid");
  (* Any single side alone is NOT sufficient: h(X1X2X3) <= E1 fails. *)
  let t1 = Maxii.conditional ~n:3 ~q:Rat.one [ e1 ] in
  (match Maxii.decide t1 with
   | Maxii.Invalid h ->
     Alcotest.(check bool) "normal refuter" true (Polymatroid.is_normal h);
     let side = List.hd (Maxii.sides t1) in
     Alcotest.(check bool) "refutes" true (Rat.sign (Polymatroid.eval h side) < 0)
   | _ -> Alcotest.fail "single side must be refuted with a normal witness")

let test_max_needs_all_sides () =
  (* 0 <= max(h(1)-h(2), h(2)-h(1)) is valid over every cone, while each
     side alone is invalid: the genuinely "max" part of Max-IIP. *)
  let d12 = Linexpr.sub (Linexpr.term (vs [ 0 ])) (Linexpr.term (vs [ 1 ])) in
  let t = Maxii.general ~n:2 [ d12; Linexpr.neg d12 ] in
  (match Maxii.decide t with
   | Maxii.Valid cert ->
     Alcotest.(check bool) "certificate proves exactly these sides" true
       (Certificate.proves cert ~n:2 (Maxii.sides t))
   | _ -> Alcotest.fail "max of opposite differences is valid");
  (match Maxii.decide (Maxii.general ~n:2 [ d12 ]) with
   | Maxii.Invalid _ -> ()
   | _ -> Alcotest.fail "one side alone is invalid")

(* Theorem 3.6 (ii) as a property: for random SIMPLE conditional
   max-inequalities, validity over Nn coincides with validity over Γn. *)
let prop_theorem_3_6 =
  let n = 3 in
  let gen_cexpr =
    QCheck.Gen.(
      let gen_part =
        let* y = int_range 1 ((1 lsl n) - 1) in
        let* x = oneof [ return Varset.empty; map Varset.singleton (int_range 0 (n - 1)) ] in
        return (Cexpr.part (Varset.diff y x) x)
      in
      let* parts = list_size (int_range 1 3) gen_part in
      return (Cexpr.sum parts))
  in
  let gen =
    QCheck.Gen.(
      let* k = int_range 1 3 in
      let* sides = list_repeat k gen_cexpr in
      let* qv = int_range 1 2 in
      return (Maxii.conditional ~n ~q:(q qv) sides))
  in
  QCheck.Test.make
    ~name:"Theorem 3.6(ii): simple max-inequalities are essentially Shannon"
    ~count:150
    (QCheck.make ~print:(Format.asprintf "%a" (Maxii.pp ())) gen)
    (fun t ->
      QCheck.assume (Maxii.shape t = Maxii.Simple || Maxii.shape t = Maxii.Unconditioned);
      Result.is_ok (Maxii.valid_over Cones.Normal t)
      = Result.is_ok (Maxii.valid_over Cones.Gamma t))

(* Soundness of counterexamples: whenever a cone check fails, the witness
   really is in the cone and really violates all sides. *)
let prop_counterexample_sound =
  let n = 3 in
  let gen_expr =
    QCheck.Gen.(
      let* terms =
        list_size (int_range 1 4)
          (pair (int_range 1 ((1 lsl n) - 1)) (int_range (-3) 3))
      in
      return
        (Linexpr.sum
           (List.map (fun (m, c) -> Linexpr.term ~coeff:(q c) m) terms)))
  in
  let gen = QCheck.Gen.(list_size (int_range 1 2) gen_expr) in
  QCheck.Test.make ~name:"cone counterexamples are sound" ~count:100
    (QCheck.make
       ~print:(fun es -> String.concat " | " (List.map (Format.asprintf "%a" (Linexpr.pp ())) es))
       gen)
    (fun es ->
      List.for_all
        (fun cone ->
          match Cones.valid_max cone ~n es with
          | Ok () -> true
          | Error h ->
            Polymatroid.is_polymatroid h
            && (match cone with
                | Cones.Gamma -> true
                | Cones.Normal -> Polymatroid.is_normal h
                | Cones.Modular -> Polymatroid.is_modular h)
            && List.for_all (fun e -> Rat.sign (Polymatroid.eval h e) < 0) es)
        [ Cones.Gamma; Cones.Normal; Cones.Modular ])

(* Cone containment Mn ⊆ Nn ⊆ Γn at the level of validity:
   valid over Γn ⇒ valid over Nn ⇒ valid over Mn. *)
let prop_cone_chain =
  let n = 3 in
  let gen_expr =
    QCheck.Gen.(
      let* terms =
        list_size (int_range 1 4)
          (pair (int_range 1 ((1 lsl n) - 1)) (int_range (-3) 3))
      in
      return
        (Linexpr.sum
           (List.map (fun (m, c) -> Linexpr.term ~coeff:(q c) m) terms)))
  in
  QCheck.Test.make ~name:"validity is monotone along Mn ⊆ Nn ⊆ Γn" ~count:100
    (QCheck.make ~print:(Format.asprintf "%a" (Linexpr.pp ())) gen_expr)
    (fun e ->
      let v cone = Result.is_ok (Cones.valid cone ~n e) in
      (not (v Cones.Gamma) || v Cones.Normal)
      && (not (v Cones.Normal) || v Cones.Modular))

(* ------------------------------------------------------------------ *)
(* Normalize: Lemma 3.7 / Theorem C.3 / Figure 1                       *)
(* ------------------------------------------------------------------ *)

let test_figure_1 () =
  (* Example C.4 / Figure 1: normalizing the parity function gives
     h'(1)=h'(2)=h'(3)=1, h'(12)=1, h'(13)=h'(23)=2, h'(123)=2. *)
  let h' = Normalize.normalize Polymatroid.parity in
  let v l = Polymatroid.value h' (vs l) in
  Alcotest.check rt "h'(1)" Rat.one (v [ 0 ]);
  Alcotest.check rt "h'(2)" Rat.one (v [ 1 ]);
  Alcotest.check rt "h'(3)" Rat.one (v [ 2 ]);
  Alcotest.check rt "h'(12)" Rat.one (v [ 0; 1 ]);
  Alcotest.check rt "h'(13)" (q 2) (v [ 0; 2 ]);
  Alcotest.check rt "h'(23)" (q 2) (v [ 1; 2 ]);
  Alcotest.check rt "h'(123)" (q 2) (v [ 0; 1; 2 ]);
  Alcotest.(check bool) "h' is normal" true (Polymatroid.is_normal h');
  (* Möbius inverse of h' per Figure 1 (bottom-left): g'(3) = -1,
     g'(12) = -1, g'(123) = +2, rest 0. *)
  Alcotest.check rt "g'(3)" Rat.minus_one (Polymatroid.mobius h' (vs [ 2 ]));
  Alcotest.check rt "g'(12)" Rat.minus_one (Polymatroid.mobius h' (vs [ 0; 1 ]));
  Alcotest.check rt "g'(123)" (q 2) (Polymatroid.mobius h' (Varset.full 3));
  Alcotest.check rt "g'(1)" Rat.zero (Polymatroid.mobius h' (vs [ 0 ]))

let test_modularize_basic () =
  let h = Polymatroid.parity in
  let h' = Normalize.modularize h in
  Alcotest.(check bool) "modular" true (Polymatroid.is_modular h');
  Alcotest.(check bool) "dominated" true (Polymatroid.dominates h h');
  Alcotest.check rt "top preserved"
    (Polymatroid.value h (Varset.full 3))
    (Polymatroid.value h' (Varset.full 3))

let prop_normalize_lemma_3_7 =
  QCheck.Test.make ~name:"Lemma 3.7(2): normalize gives normal h' ≤ h, same top & singletons"
    ~count:60 (arb_polymatroid 4)
    (fun h ->
      let h' = Normalize.normalize h in
      let n = Polymatroid.n_vars h in
      Polymatroid.is_polymatroid h'
      && Polymatroid.is_normal h'
      && Polymatroid.dominates h h'
      && Rat.equal (Polymatroid.value h (Varset.full n)) (Polymatroid.value h' (Varset.full n))
      && List.for_all
           (fun i ->
             Rat.equal
               (Polymatroid.value h (Varset.singleton i))
               (Polymatroid.value h' (Varset.singleton i)))
           (Varset.to_list (Varset.full n)))

let prop_modularize_lemma_3_7 =
  QCheck.Test.make ~name:"Lemma 3.7(1): modularize gives modular h' ≤ h, same top"
    ~count:60 (arb_polymatroid 4)
    (fun h ->
      let h' = Normalize.modularize h in
      let n = Polymatroid.n_vars h in
      Polymatroid.is_modular h'
      && Polymatroid.dominates h h'
      && Rat.equal (Polymatroid.value h (Varset.full n)) (Polymatroid.value h' (Varset.full n)))

(* ------------------------------------------------------------------ *)
(* Lazy Shannon engine: membership, symmetry, lazy-vs-full (ISSUE 9)   *)
(* ------------------------------------------------------------------ *)

let test_elemental_membership () =
  let n = 4 in
  let fam = Elemental.descs ~n in
  Alcotest.(check int) "family size n=4" (Elemental.desc_count ~n)
    (List.length fam);
  Alcotest.(check bool) "materialized family follows the same order" true
    (List.equal Linexpr.equal (Elemental.list ~n)
       (List.map (Elemental.expr_of_desc ~n) fam));
  (* [well_formed] is exactly membership in the family, over every
     descriptor with indices in [-1, n] and masks one bit past V. *)
  let member d = List.exists (fun d' -> Elemental.desc_compare d d' = 0) fam in
  let agrees d =
    Alcotest.(check bool)
      (Format.asprintf "well_formed agrees with membership at %s"
         (match d with
          | Elemental.Mono i -> Printf.sprintf "Mono %d" i
          | Elemental.Submod (i, j, w) -> Printf.sprintf "Submod (%d, %d, %d)" i j w))
      (member d) (Elemental.well_formed ~n d)
  in
  for i = -1 to n do
    agrees (Elemental.Mono i);
    for j = -1 to n do
      for w = 0 to (1 lsl (n + 1)) - 1 do
        agrees (Elemental.Submod (i, j, w))
      done;
      agrees (Elemental.Submod (i, j, -1))
    done
  done

let test_symmetry_canonicalization () =
  let n = 3 in
  (* I(0;1) and I(1;2) are renamings of each other: same canonical form. *)
  let e1 = i_pair 0 1 [] and e2 = i_pair 1 2 [] in
  let a1 = Symmetry.analyze ~n [ e1 ] and a2 = Symmetry.analyze ~n [ e2 ] in
  Alcotest.(check bool) "orbit members share a canonical instance" true
    (List.equal Linexpr.equal a1.Symmetry.canonical a2.Symmetry.canonical);
  Alcotest.(check bool) "to_canon maps the instance to its canonical form"
    true
    (List.equal Linexpr.equal
       (List.map (Symmetry.apply_expr a1.Symmetry.to_canon) [ e1 ])
       a1.Symmetry.canonical);
  (* The stabilizer fixes the canonical multiset and contains id. *)
  Alcotest.(check bool) "stabilizer contains the identity" true
    (List.exists Symmetry.is_identity a1.Symmetry.stabilizer);
  List.iter
    (fun s ->
      Alcotest.(check bool) "stabilizer element fixes the canonical form"
        true
        (List.equal Linexpr.equal
           (List.map (Symmetry.apply_expr s) a1.Symmetry.canonical)
           a1.Symmetry.canonical))
    a1.Symmetry.stabilizer;
  (* I(i;j) fixes the pair {i,j} setwise: stabilizer has order 2 here. *)
  Alcotest.(check int) "stabilizer order of I(i;j) at n=3" 2
    (List.length a1.Symmetry.stabilizer)

(* The orbit walk stops once the orbit passes the cap: under all of
   S_3, Mono 1 has the 3-member orbit {Mono 0, Mono 1, Mono 2}. *)
let test_symmetry_orbit_cap () =
  let s3 =
    [ [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |];
      [| 2; 1; 0 |] ]
  in
  let orbit cap = Symmetry.orbit_desc ~cap s3 (Elemental.Mono 1) in
  Alcotest.(check bool) "cap 3 keeps the orbit, sorted" true
    (orbit 3 = Some [ Elemental.Mono 0; Elemental.Mono 1; Elemental.Mono 2 ]);
  Alcotest.(check bool) "cap 2 rejects it" true (orbit 2 = None)

(* Reference for the signature-restricted sweep: the stabilizer of the
   canonical side multiset by brute force over all n! renamings. *)
let rec all_perms = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        List.map (fun rest -> x :: rest)
          (all_perms (List.filter (fun y -> y <> x) xs)))
      xs

let compare_terms a b =
  List.compare
    (fun (m1, c1) (m2, c2) ->
      let c = compare (m1 : int) m2 in
      if c <> 0 then c else Rat.compare c1 c2)
    a b

let side_multiset es = List.sort compare_terms (List.map Linexpr.terms es)

let same_multiset a b =
  List.equal (fun x y -> compare_terms x y = 0) (side_multiset a)
    (side_multiset b)

let brute_stabilizer_order ~n es =
  List.length
    (List.filter
       (fun p ->
         let p = Array.of_list p in
         same_multiset (List.map (Symmetry.apply_expr p) es) es)
       (all_perms (List.init n Fun.id)))

(* Random instances over n ≤ [max_n] variables with a random renaming:
   a few sides, each a handful of random terms, half of them symmetrized
   over a random variable subset so that non-trivial stabilizers and tied
   signatures occur. *)
let gen_sym_instance ~max_n =
  QCheck.Gen.(
    int_range 2 max_n >>= fun n ->
    let full = (1 lsl n) - 1 in
    let term = pair (int_range 1 full) (int_range (-2) 2) in
    let side =
      pair (list_size (int_range 1 4) term) (pair bool (int_range 0 full))
      >|= fun (ts, (symm, sub)) ->
      let base =
        Linexpr.sum
          (List.map (fun (m, c) -> Linexpr.term ~coeff:(q c) m) ts)
      in
      let vars = List.filter (fun i -> Varset.mem i sub) (List.init n Fun.id) in
      if symm && List.length vars <= 3 then
        Linexpr.sum
          (List.map
             (fun img ->
               let p = Array.init n Fun.id in
               List.iter2 (fun v w -> p.(v) <- w) vars img;
               Symmetry.apply_expr p base)
             (all_perms vars))
      else base
    in
    pair (list_size (int_range 1 3) side) (shuffle_l (List.init n Fun.id))
    >|= fun (es, pi) -> (n, es, Array.of_list pi))

let print_sym_instance (n, es, pi) =
  Format.asprintf "n=%d pi=[%s] sides=[%a]" n
    (String.concat ";" (Array.to_list (Array.map string_of_int pi)))
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
       (Linexpr.pp ()))
    es

let prop_symmetry_canonical_invariant =
  QCheck.Test.make ~name:"symmetry: canonical form is orbit-invariant"
    ~count:300
    (QCheck.make ~print:print_sym_instance (gen_sym_instance ~max_n:6))
    (fun (n, es, pi) ->
      let a = Symmetry.analyze ~n es in
      let b = Symmetry.analyze ~n (List.map (Symmetry.apply_expr pi) es) in
      same_multiset a.Symmetry.canonical b.Symmetry.canonical
      && List.length a.Symmetry.stabilizer = List.length b.Symmetry.stabilizer
      && List.for_all
           (fun s ->
             same_multiset
               (List.map (Symmetry.apply_expr s) a.Symmetry.canonical)
               a.Symmetry.canonical)
           a.Symmetry.stabilizer)

let prop_symmetry_stabilizer_complete =
  QCheck.Test.make ~name:"symmetry: stabilizer order matches an n! sweep"
    ~count:200
    (* n ≤ 5 keeps the 5! brute-force sweep cheap. *)
    (QCheck.make ~print:print_sym_instance (gen_sym_instance ~max_n:5))
    (fun (n, es, _) ->
      let a = Symmetry.analyze ~n es in
      List.length a.Symmetry.stabilizer
      = brute_stabilizer_order ~n a.Symmetry.canonical)

(* The decisions the production driver and the oracle must agree on: a valid submodularity,
   a valid monotonicity, Zhang-Yeung (refuted over Γ4) and Ingleton
   (refuted over Γ4). *)
let lazy_vs_full_instances () =
  let submod =
    Linexpr.sub
      (Linexpr.add (Linexpr.term (vs [ 0 ])) (Linexpr.term (vs [ 1 ])))
      (Linexpr.term (vs [ 0; 1 ]))
  in
  let mono =
    Linexpr.sub (Linexpr.term (vs [ 0; 1; 2; 3 ])) (Linexpr.term (vs [ 0; 2 ]))
  in
  let zy =
    Linexpr.sub
      (Linexpr.sum
         [ i_pair 0 1 [];
           Linexpr.mutual (vs [ 0 ]) (vs [ 2; 3 ]) Varset.empty;
           Linexpr.scale (q 3) (i_pair 2 3 [ 0 ]);
           i_pair 2 3 [ 1 ] ])
      (Linexpr.scale (q 2) (i_pair 2 3 []))
  in
  let ingleton =
    Linexpr.sub
      (Linexpr.sum [ i_pair 0 1 [ 2 ]; i_pair 0 1 [ 3 ]; i_pair 2 3 [] ])
      (i_pair 0 1 [])
  in
  [ (submod, true); (mono, true); (zy, false); (ingleton, false) ]

let test_lazy_engine_agrees_with_full () =
  List.iter
    (fun (e, expected) ->
      let lz = Cones.valid_shannon ~n:4 e in
      let fl = Cones.Oracle.valid_max_quick ~n:4 [ e ] in
      Alcotest.(check bool) "lazy verdict" expected lz;
      Alcotest.(check bool) "full verdict" expected fl)
    (lazy_vs_full_instances ())

let test_lazy_certificates_check () =
  List.iter
    (fun (e, expected) ->
      match Cones.valid_max_cert Cones.Gamma ~n:4 [ e ] with
      | Ok (Some cert) ->
        Alcotest.(check bool) "instance expected valid" true expected;
        Alcotest.(check bool) "lazy certificate passes Certificate.check"
          true (Certificate.check cert)
      | Ok None -> Alcotest.fail "Gamma must produce certificates"
      | Error h ->
        Alcotest.(check bool) "instance expected refuted" false expected;
        Alcotest.(check bool) "refuter is a polymatroid" true
          (Polymatroid.is_polymatroid h);
        Alcotest.(check bool) "refuter violates the inequality" true
          (Rat.sign (Polymatroid.eval h e) < 0))
    (lazy_vs_full_instances ())

let test_valid_shannon_many_dedup () =
  let instances = List.map fst (lazy_vs_full_instances ()) in
  (* A batch with heavy repetition must equal the per-element map. *)
  let batch = instances @ List.rev instances @ instances in
  Alcotest.(check (list bool)) "batched = mapped"
    (List.map (Cones.valid_shannon ~n:4) batch)
    (Cones.valid_shannon_many ~n:4 batch)

(* ------------------------------------------------------------------ *)
(* Certificates from the probe's Farkas row                             *)
(* ------------------------------------------------------------------ *)

let counter name = Bagcqc_obs.Metrics.count (Bagcqc_obs.Metrics.counter name)

(* Two-sided Max-IIPs valid by construction: side 1 a positive
   combination of 3–6 elemental rows, side 2 another combination minus
   h(V), which need not hold on its own. *)
let valid_by_construction ~n st =
  let family = Array.of_list (Elemental.list ~n) in
  let combo rows =
    Linexpr.sum
      (List.init rows (fun _ ->
           Linexpr.scale
             (Rat.of_ints (1 + Random.State.int st 3) (1 + Random.State.int st 2))
             family.(Random.State.int st (Array.length family))))
  in
  [ combo (3 + Random.State.int st 4);
    Linexpr.sub (combo (3 + Random.State.int st 4)) (Linexpr.term (Varset.full n)) ]

let test_probe_certificates_solve_no_lp () =
  let certified_without_lp ~n es =
    Bagcqc_engine.Solver.clear ();
    let solves = counter "lp.solves"
    and lookups = counter "solver.cache.hits" + counter "solver.cache.misses"
    and declined = counter "cone.lazy.probe_cert_fallbacks" in
    (match Cones.valid_max_cert Cones.Gamma ~n es with
     | Ok (Some cert) ->
       Alcotest.(check bool) "certificate proves the instance" true
         (Certificate.proves cert ~n es)
     | Ok None | Error _ -> Alcotest.fail "valid by construction");
    Alcotest.(check int) "no LP solved" solves (counter "lp.solves");
    Alcotest.(check int) "solver cache untouched" lookups
      (counter "solver.cache.hits" + counter "solver.cache.misses");
    Alcotest.(check int) "no repair declined" declined
      (counter "cone.lazy.probe_cert_fallbacks")
  in
  (* A single elemental inequality, I(0;1|2) ≥ 0 at n = 4. *)
  certified_without_lp ~n:4
    [ Linexpr.mutual (Varset.singleton 0) (Varset.singleton 1)
        (Varset.singleton 2) ];
  let st = Random.State.make [| 2026 |] in
  List.iter
    (fun (n, count) ->
      for _ = 1 to count do
        certified_without_lp ~n (valid_by_construction ~n st)
      done)
    [ (5, 12); (6, 6) ]

let test_probe_repair_declines_to_fallback () =
  let n = 4 in
  let es = valid_by_construction ~n (Random.State.make [| 11 |]) in
  let claim =
    match Separation.Probe.terminal_claim ~n es with
    | Some c -> c
    | None -> Alcotest.fail "expected a float-infeasible probe"
  in
  Alcotest.(check bool) "the probe's own row repairs" true
    (Separation.Probe.repairs ~n es claim);
  (* Scaling every multiplier keeps the vanishing pattern: same repair. *)
  Alcotest.(check bool) "scale-free" true
    (Separation.Probe.repairs ~n es
       (List.map (fun (r, y) -> (r, 3.0 *. y)) claim));
  let declines name bad =
    Alcotest.(check bool) (name ^ ": repair declines") false
      (Separation.Probe.repairs ~n es bad);
    let before = counter "cone.lazy.probe_cert_fallbacks" in
    (match Separation.Probe.certify ~n es bad with
     | Some cert ->
       Alcotest.(check bool) (name ^ ": F(W') fallback proves the instance")
         true (Certificate.proves cert ~n es)
     | None -> Alcotest.failf "%s: the fallback did not certify" name);
    Alcotest.(check int) (name ^ ": one fallback counted") (before + 1)
      (counter "cone.lazy.probe_cert_fallbacks")
  in
  (* A multiplier knocked off its value no longer cancels on its row's
     coordinates, so those equations are lost. *)
  declines "perturbed multiplier"
    (List.mapi (fun i (r, y) -> (r, if i = 1 then y +. 0.75 else y)) claim);
  (* Without one of its rows the combination cannot vanish where the
     floats said it does. *)
  declines "dropped row" (List.filteri (fun i _ -> i <> 0) claim)

(* The seeded two-sided Max-IIPs of perfbench's shannon workload
   ([Inputs.shannon]), copied because perfbench is not a library: side 1
   a positive combination of 3–6 elemental rows, side 2 another such
   combination minus h(V), row counts cycling with the index. *)
let shannon_family ~seed ~n ~count =
  let module Rng = Bagcqc_check.Rng in
  let elems = Cones.elemental ~n in
  let hv = Linexpr.term (Varset.full n) in
  List.init count (fun i ->
      let rng = Rng.derive seed i in
      let combo rows =
        List.fold_left
          (fun acc _ ->
            let c = Rat.of_ints (Rng.range rng 1 3) (Rng.range rng 1 2) in
            Linexpr.add acc (Linexpr.scale c (Rng.choose rng elems)))
          Linexpr.zero
          (List.init rows Fun.id)
      in
      let side1 = combo (3 + (i mod 4)) in
      let side2 = Linexpr.sub (combo (3 + (i / 4 mod 4))) hv in
      [ side1; side2 ])

let decides_valid_with_checked_cert ~n es =
  match Maxii.decide (Maxii.general ~n es) with
  | Maxii.Valid cert ->
    Alcotest.(check bool) "certificate checks" true (Certificate.check cert);
    Alcotest.(check bool) "certificate proves the instance" true
      (Certificate.proves cert ~n es)
  | Maxii.Invalid _ | Maxii.Unknown _ -> Alcotest.fail "valid by construction"

(* The largest single reoptimize since the last [Metrics.reset]. *)
let max_probe_pivots () =
  match
    List.assoc_opt "lp.float.probe_pivots"
      (Bagcqc_obs.Metrics.snapshot ()).Bagcqc_obs.Metrics.histograms
  with
  | Some h -> h.Bagcqc_obs.Metrics.max_value
  | None -> 0

(* The float probe has no anti-cycling rule, only its pivot budget: a
   stall shows as one reoptimize running to thousands of pivots.  The
   cap is twice the largest reoptimize measured on this family (106). *)
let test_probe_no_stall_n7 () =
  Bagcqc_obs.Metrics.reset ();
  List.iter
    (fun es ->
      Bagcqc_engine.Solver.clear ();
      decides_valid_with_checked_cert ~n:7 es)
    (shannon_family ~seed:42 ~n:7 ~count:40);
  let worst = max_probe_pivots () in
  if worst > 212 then Alcotest.failf "a reoptimize took %d pivots (cap 212)" worst

(* The Γn refutation path ends on exact R(W) rounds, solved cold by the
   exact simplex.  Ingleton is refuted over Γn for every n ≥ 4; the
   caps are twice the solves and pivots measured at n = 4, 5, 6
   (1/23, 2/88, 1/118), so a pivoting or separation regression that
   multiplies the exact work fails here. *)
let test_ingleton_refutation_cost () =
  let ingleton =
    Linexpr.sub
      (Linexpr.sum [ i_pair 0 1 [ 2 ]; i_pair 0 1 [ 3 ]; i_pair 2 3 [] ])
      (i_pair 0 1 [])
  in
  List.iter
    (fun (n, max_solves, max_pivots) ->
      let solves = counter "lp.solves" and pivots = counter "lp.pivots" in
      (match Cones.valid Cones.Gamma ~n ingleton with
       | Error h ->
         Alcotest.(check bool) "refuter is a polymatroid" true
           (Polymatroid.is_polymatroid h);
         Alcotest.(check bool) "refuter violates Ingleton" true
           (Rat.sign (Polymatroid.eval h ingleton) < 0)
       | Ok () -> Alcotest.failf "Ingleton is not valid over Γ%d" n);
      let solves = counter "lp.solves" - solves
      and pivots = counter "lp.pivots" - pivots in
      if solves > max_solves || pivots > max_pivots then
        Alcotest.failf "n=%d: %d solves / %d pivots (cap %d / %d)" n solves
          pivots max_solves max_pivots)
    [ (4, 2, 46); (5, 4, 176); (6, 2, 236) ]

let test_first_n8_decision () =
  Bagcqc_engine.Solver.clear ();
  decides_valid_with_checked_cert ~n:8
    (List.hd (shannon_family ~seed:42 ~n:8 ~count:1))

(* The Nn row build before the zeta transform, one pass over the terms
   per mask: the reference the transform must match bit for bit. *)
let normal_sparse_reference ~n e =
  let terms = Linexpr.terms e in
  List.concat
    (List.init ((1 lsl n) - 1) (fun w ->
         let coeff =
           List.fold_left
             (fun acc (s, c) -> if Varset.subset s w then acc else Rat.add acc c)
             Rat.zero terms
         in
         if Rat.is_zero coeff then [] else [ (w, coeff) ]))

let prop_normal_sparse_matches_reference =
  QCheck.Test.make ~name:"cones: zeta-transform Nn rows equal the per-mask sums"
    ~count:300
    QCheck.(pair (int_range 1 7) (small_list (triple small_nat (int_range (-5) 5) (int_range 1 4))))
    (fun (n, raw) ->
      let full = (1 lsl n) - 1 in
      let e =
        Linexpr.sum
          (List.map
             (fun (m, c, d) -> Linexpr.term ~coeff:(Rat.of_ints c d) (1 + (m mod full)))
             raw)
      in
      List.equal
        (fun (w1, c1) (w2, c2) ->
          w1 = w2 && Rat.equal c1 c2 && Rat.to_string c1 = Rat.to_string c2)
        (Cones.normal_sparse ~n e) (normal_sparse_reference ~n e))

(* ------------------------------------------------------------------ *)
(* Nn and Mn on their generators                                        *)
(* ------------------------------------------------------------------ *)

(* The generator presolve settles an Nn/Mn decision without an LP when
   one side is non-negative on every generator or one generator makes
   every side negative; the production verdict must equal the exact LP
   over the same rows either way, and every refuter must lie in the
   cone with every side at most −1 exactly.  The solver cache is off so
   the reference cannot be answered from the production path's solve. *)
let prop_small_cones_match_lp =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let term = pair (int_range 1 ((1 lsl n) - 1)) (pair (int_range (-4) 4) (int_range 1 3)) in
      let* sides = list_size (int_range 1 4) (list_size (int_range 1 4) term) in
      return (n, sides))
  in
  let side terms =
    Linexpr.sum (List.map (fun (m, (c, d)) -> Linexpr.term ~coeff:(qf c d) m) terms)
  in
  QCheck.Test.make ~name:"cones: Nn/Mn generator presolve agrees with the exact LP"
    ~count:300
    (QCheck.make
       ~print:(fun (n, sides) ->
         Printf.sprintf "n=%d %s" n
           (String.concat " | "
              (List.map (fun t -> Format.asprintf "%a" (Linexpr.pp ()) (side t)) sides)))
       gen)
    (fun (n, sides) ->
      let es = List.map side sides in
      List.for_all
        (fun (cone, in_cone) ->
          let reference = Cones.Oracle.refute_small cone ~n es in
          let quick = Cones.valid_max_quick cone ~n es in
          let refutes h =
            in_cone h
            && List.for_all
                 (fun e -> Rat.compare (Polymatroid.eval h e) Rat.minus_one <= 0)
                 es
          in
          quick = Option.is_none reference
          &&
          match Cones.valid_max cone ~n es, reference with
          | Ok (), None -> true
          | Error h, Some h_ref -> refutes h && refutes h_ref
          | Ok (), Some _ | Error _, None -> false)
        [ (Cones.Normal, Polymatroid.is_normal);
          (Cones.Modular, Polymatroid.is_modular) ])

(* A reference checker in [Linexpr] form: every cited row materialized
   with [expr_of_desc], membership read off the family list, and
   Σλ·row compared with Σμ·side by [Linexpr.equal].  The dense
   descriptor-form [Certificate.check] must agree with it on genuine
   certificates and on corrupted copies of them. *)
let reference_check c =
  let n = Certificate.n_vars c
  and lambda = Certificate.lambda c
  and mu = Certificate.convex_weights c
  and sides = Certificate.sides c in
  let fam = Elemental.descs ~n in
  List.for_all (fun m -> Rat.sign m >= 0) mu
  && Rat.equal (List.fold_left Rat.add Rat.zero mu) Rat.one
  && List.for_all (fun (_, l) -> Rat.sign l >= 0) lambda
  && List.for_all
       (fun (d, _) -> List.exists (fun d' -> Elemental.desc_compare d d' = 0) fam)
       lambda
  && List.for_all (fun e -> Linexpr.max_var e < n) sides
  && Linexpr.equal
       (Linexpr.sum
          (List.map
             (fun (d, l) -> Linexpr.scale l (Elemental.expr_of_desc ~n d))
             lambda))
       (Linexpr.sum (List.map2 Linexpr.scale mu sides))

type corruption = Genuine | Scale_one | Drop_one | Swap_one | Perturb_mu | Malformed

let corruptions = [ Genuine; Scale_one; Drop_one; Swap_one; Perturb_mu; Malformed ]

(* The corruptions that edit one cited row: none applies to a
   certificate with an empty λ, which a valid side that cancels to 0
   produces. *)
let edits_lambda = function
  | Scale_one | Drop_one | Swap_one -> true
  | Genuine | Perturb_mu | Malformed -> false

let corruption_name = function
  | Genuine -> "genuine"
  | Scale_one -> "one multiplier scaled"
  | Drop_one -> "one row dropped"
  | Swap_one -> "one descriptor swapped"
  | Perturb_mu -> "mu perturbed"
  | Malformed -> "malformed descriptor"

let corrupt st how c =
  let n = Certificate.n_vars c
  and lambda = Certificate.lambda c
  and mu = Certificate.convex_weights c
  and sides = Certificate.sides c in
  let pick l = Random.State.int st (List.length l) in
  let at () = pick lambda in
  let lambda, mu =
    match how with
    | Genuine -> (lambda, mu)
    | Scale_one ->
      let at = at () in
      let f = Rat.of_ints (3 + Random.State.int st 3) (1 + Random.State.int st 2) in
      (List.mapi (fun i (d, l) -> (d, if i = at then Rat.mul f l else l)) lambda, mu)
    | Drop_one ->
      let at = at () in
      (List.filteri (fun i _ -> i <> at) lambda, mu)
    | Swap_one ->
      (* Draw the replacement from the family without [d], so a
         one-member family cannot loop: there the swap is a no-op. *)
      let at = at () in
      let d = List.nth lambda at |> fst in
      (match
         List.filter (fun d' -> Elemental.desc_compare d d' <> 0) (Elemental.descs ~n)
       with
       | [] -> (lambda, mu)
       | others ->
         let d' = List.nth others (pick others) in
         (List.mapi (fun i (d, l) -> ((if i = at then d' else d), l)) lambda, mu))
    | Perturb_mu ->
      (* Half of one weight moves to another, keeping Σμ = 1. *)
      let from = pick mu and into = pick mu in
      let moved = Rat.mul Rat.half (List.nth mu from) in
      ( lambda,
        List.mapi
          (fun l m ->
            let m = if l = from then Rat.sub m moved else m in
            if l = into then Rat.add m moved else m)
          mu )
    | Malformed ->
      let bad =
        match Random.State.int st 4 with
        | 0 -> Elemental.Mono n
        | 1 -> Elemental.Submod (0, 0, Varset.empty)
        | 2 -> Elemental.Submod (0, 1, Varset.singleton 0)
        | _ -> Elemental.Submod (0, n, Varset.empty)
      in
      ((bad, Rat.one) :: lambda, mu)
  in
  Certificate.make ~n ~cone:(Certificate.cone_name c) ~sides ~lambda ~mu

(* The genuine Γn certificate of a valid-by-construction instance, and
   whether [Certificate.check] agrees with [reference_check] on it and
   on each applicable corruption. *)
let check_matches_reference (n, seed) =
  let st = Random.State.make [| n; seed |] in
  let es = valid_by_construction ~n st in
  match Cones.valid_max_cert Cones.Gamma ~n es with
  | Ok (Some c) ->
    ( c,
      Certificate.check c
      && List.for_all
           (fun how ->
             (edits_lambda how && Certificate.lambda c = [])
             ||
             let c' = corrupt st how c in
             Certificate.check c' = reference_check c'
             || QCheck.Test.fail_reportf "%s: check %b, reference %b"
                  (corruption_name how) (Certificate.check c')
                  (reference_check c'))
           corruptions )
  | Ok None | Error _ -> QCheck.Test.fail_report "valid by construction"

let prop_check_matches_linexpr_reference =
  QCheck.Test.make
    ~name:"certificates: descriptor-form check agrees with the Linexpr form"
    ~count:60
    (* Shrinking must stay in range: below n = 2 the family is too small
       for the instances this property is about. *)
    QCheck.(add_shrink_invariant (fun (n, _) -> 2 <= n && n <= 5)
              (pair (int_range 2 5) small_nat))
    (fun ns -> snd (check_matches_reference ns))

(* At (n = 2, seed = 77) one side cancels to 0, so the genuine
   certificate cites no row at all: the λ corruptions are skipped and
   the genuine, μ and malformed cases still run. *)
let test_check_matches_reference_empty_lambda () =
  let c, agrees = check_matches_reference (2, 77) in
  Alcotest.(check int) "empty λ" 0 (List.length (Certificate.lambda c));
  Alcotest.(check bool) "check agrees with the Linexpr form" true agrees

(* ------------------------------------------------------------------ *)
(* Cover sides: certificates by construction                          *)
(* ------------------------------------------------------------------ *)

let cover_side ~n seed =
  Bagcqc_check.Corpus.build_side
    (Bagcqc_check.Gen.cover_side (Bagcqc_check.Rng.create seed) ~n)

let print_sides es =
  String.concat " | " (List.map (Format.asprintf "%a" (Linexpr.pp ())) es)

(* Behind a side that is never a cover side (−h(V)), a random cover side
   gets μ = 1 and a certificate that proves the instance, through
   [Cones] without a lazy solve. *)
let prop_cover_certifies =
  QCheck.Test.make ~name:"cover sides: the built certificate checks" ~count:200
    QCheck.(add_shrink_invariant (fun (n, _) -> 1 <= n && n <= 6)
              (pair (int_range 1 6) small_nat))
    (fun (n, seed) ->
      let es = [ Linexpr.term ~coeff:Rat.minus_one (Varset.full n); cover_side ~n seed ] in
      let solves = counter "cone.lazy.solves" in
      match Cover.certificate ~n es, Cones.valid_max_cert Cones.Gamma ~n es with
      | Some c, Ok (Some c') ->
        (Certificate.check c && Certificate.proves c ~n es
         && Certificate.convex_weights c = [ Rat.zero; Rat.one ]
         && Certificate.lambda c' = Certificate.lambda c
         && counter "cone.lazy.solves" = solves)
        || QCheck.Test.fail_reportf "%s" (print_sides es)
      | _ -> QCheck.Test.fail_reportf "not certified: %s" (print_sides es))

(* One coefficient off V pushed below zero: the builder declines without
   raising, and the lazy driver's verdict agrees with the oracle's. *)
let prop_cover_declines_negative =
  QCheck.Test.make ~name:"cover sides: a negative coefficient off V declines"
    ~count:60
    QCheck.(add_shrink_invariant (fun (n, _) -> 2 <= n && n <= 5)
              (pair (int_range 2 5) small_nat))
    (fun (n, seed) ->
      let e = cover_side ~n seed in
      let full = Varset.full n in
      let x = 1 + (seed mod (full - 1)) in
      let e =
        Linexpr.sub e
          (Linexpr.term ~coeff:(Rat.add (Linexpr.coeff e x) (qf 1 2)) x)
      in
      let es = [ e ] in
      Cover.certificate ~n es = None
      && (match Cones.valid_max_cert Cones.Gamma ~n es, Cones.Oracle.valid_max_cert ~n es with
          | Ok (Some c), Ok _ -> Certificate.proves c ~n es
          | Error _, Error _ -> true
          | _ -> QCheck.Test.fail_reportf "verdicts differ: %s" (print_sides es)))

let test_cover_pinned () =
  let h l = Linexpr.term (vs l) and hc c l = Linexpr.term ~coeff:(q c) (vs l) in
  let e1 = Linexpr.sum [ h [ 0; 1 ]; h [ 1; 2 ]; hc (-1) [ 0; 1; 2 ] ] in
  (* h(12) + h(23) − h(123) = I(1;3|2) + h(2), h(2) by its chain. *)
  (match Cover.certificate ~n:3 [ e1 ] with
   | Some c ->
     Alcotest.(check bool) "proves" true (Certificate.proves c ~n:3 [ e1 ]);
     Alcotest.(check (list (pair string rt)))
       "λ"
       (List.map
          (fun d -> (Format.asprintf "%a" (Linexpr.pp ()) (Elemental.expr_of_desc ~n:3 d), Rat.one))
          Elemental.[ Mono 1; Submod (0, 1, vs []); Submod (0, 2, vs [ 1 ]);
                      Submod (1, 2, vs [ 0 ]) ])
       (List.map
          (fun (d, l) -> (Format.asprintf "%a" (Linexpr.pp ()) (Elemental.expr_of_desc ~n:3 d), l))
          (Certificate.lambda c))
   | None -> Alcotest.fail "h(12) + h(23) − h(123) is a cover side");
  (* The first cover side in side order carries μ. *)
  let uncovered = Linexpr.sub (h [ 0; 1 ]) (h [ 0; 1; 2 ]) in
  (match Cover.certificate ~n:3 [ uncovered; e1; e1 ] with
   | Some c ->
     Alcotest.(check (list rt)) "μ" [ Rat.zero; Rat.one; Rat.zero ]
       (Certificate.convex_weights c)
   | None -> Alcotest.fail "the second side covers");
  (* Declined: h(12) − h(123) covers nothing, and Γn refutes it. *)
  Alcotest.(check bool) "uncovered declines" true (Cover.certificate ~n:3 [ uncovered ] = None);
  Alcotest.(check bool) "uncovered refuted" true
    (Result.is_error (Cones.valid_max_cert Cones.Gamma ~n:3 [ uncovered ]));
  (* Declined, yet valid: the 2-fold cover h(12) + h(23) + h(13) − 2h(123)
     (fractional Shearer) and I(1;3|2), whose h(2) is negative.  The
     probe certifies both. *)
  let twofold = Linexpr.sum [ h [ 0; 1 ]; h [ 1; 2 ]; h [ 0; 2 ]; hc (-2) [ 0; 1; 2 ] ] in
  let mutual = Linexpr.mutual (vs [ 0 ]) (vs [ 2 ]) (vs [ 1 ]) in
  List.iter
    (fun (name, e) ->
      Alcotest.(check bool) (name ^ " declines") true (Cover.certificate ~n:3 [ e ] = None);
      let covers = counter "cone.cover.certs" and probes = counter "cone.lazy.probe_certs" in
      (match Cones.valid_max_cert Cones.Gamma ~n:3 [ e ] with
       | Ok (Some c) -> Alcotest.(check bool) (name ^ " proved") true (Certificate.proves c ~n:3 [ e ])
       | Ok None | Error _ -> Alcotest.failf "%s is valid" name);
      Alcotest.(check (pair int int)) (name ^ ": the probe certifies") (covers, probes + 1)
        (counter "cone.cover.certs", counter "cone.lazy.probe_certs"))
    [ ("2-fold cover", twofold); ("I(1;3|2)", mutual) ];
  (* Non-negative sums, h(V) included, and the zero side. *)
  List.iter
    (fun e ->
      match Cover.certificate ~n:3 [ e ] with
      | Some c -> Alcotest.(check bool) "non-negative sum" true (Certificate.proves c ~n:3 [ e ])
      | None -> Alcotest.fail "a non-negative sum is a cover side")
    [ Linexpr.zero; Linexpr.sum [ hc 2 [ 1 ]; Linexpr.term ~coeff:(qf 1 2) (vs [ 0; 1; 2 ]) ] ];
  (* Through [Cones]: counted, and no lazy solve. *)
  let covers = counter "cone.cover.certs" and solves = counter "cone.lazy.solves" in
  Alcotest.(check bool) "quick" true (Cones.valid_max_quick Cones.Gamma ~n:3 [ e1 ]);
  Alcotest.(check (pair int int)) "counted, no lazy solve" (covers + 1, solves)
    (counter "cone.cover.certs", counter "cone.lazy.solves")

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_subset_enum_complete; prop_truncated_modular_is_polymatroid;
      prop_theorem_3_6; prop_counterexample_sound; prop_cone_chain;
      prop_normalize_lemma_3_7; prop_modularize_lemma_3_7;
      prop_symmetry_canonical_invariant; prop_symmetry_stabilizer_complete;
      prop_normal_sparse_matches_reference; prop_small_cones_match_lp;
      prop_check_matches_linexpr_reference; prop_mobius_matches_reference;
      prop_cover_certifies; prop_cover_declines_negative ]

let suite =
  [ ("varset basic", `Quick, test_varset_basic);
    ("varset subsets", `Quick, test_varset_subsets);
    ("linexpr algebra", `Quick, test_linexpr_algebra);
    ("linexpr eval/rename (Ex 4.1)", `Quick, test_linexpr_eval_rename);
    ("cexpr", `Quick, test_cexpr);
    ("step function", `Quick, test_step_function);
    ("parity (Ex B.4)", `Quick, test_parity_example_b4);
    ("modular", `Quick, test_modular);
    ("mobius roundtrip", `Quick, test_mobius_roundtrip);
    ("normal decomposition", `Quick, test_normal_decomposition);
    ("cond/mutual on parity", `Quick, test_cond_mutual);
    ("shannon basic", `Quick, test_shannon_basic);
    ("shannon certificate", `Quick, test_shannon_certificate);
    ("Zhang-Yeung not Shannon", `Quick, test_zhang_yeung_not_shannon);
    ("Ingleton: Unknown path", `Quick, test_ingleton_unknown_path);
    ("Example 3.8", `Quick, test_example_3_8);
    ("max needs all sides", `Quick, test_max_needs_all_sides);
    ("Figure 1 (Ex C.4)", `Quick, test_figure_1);
    ("modularize basic", `Quick, test_modularize_basic);
    ("elemental membership", `Quick, test_elemental_membership);
    ("symmetry canonicalization", `Quick, test_symmetry_canonicalization);
    ("symmetry orbit cap", `Quick, test_symmetry_orbit_cap);
    ("lazy engine agrees with full", `Quick, test_lazy_engine_agrees_with_full);
    ("lazy certificates check", `Quick, test_lazy_certificates_check);
    ("valid_shannon_many dedup", `Quick, test_valid_shannon_many_dedup);
    ("probe certificates solve no LP", `Quick, test_probe_certificates_solve_no_lp);
    ("probe repair declines to F(W')", `Quick, test_probe_repair_declines_to_fallback);
    ("probe does not stall at n=7", `Quick, test_probe_no_stall_n7);
    ("Ingleton refutation: exact rounds capped", `Quick, test_ingleton_refutation_cost);
    ("first exact n=8 decision", `Quick, test_first_n8_decision);
    ("cert check on an empty λ", `Quick, test_check_matches_reference_empty_lambda);
    ("Möbius on corpus refuters", `Quick, test_mobius_corpus_refuters);
    ("cover sides: pinned cases", `Quick, test_cover_pinned) ]
  @ qtests
