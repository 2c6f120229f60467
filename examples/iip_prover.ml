(* Scenario: an information-inequality prover.

   The flip side of the paper's equivalence: use the library as a prover /
   refuter for (max-)information inequalities, including the machinery the
   paper builds - Shannon certificates, normal-cone refutation, the
   Lemma 3.7 constructions, and the reduction to query containment.

   Run with:  dune exec examples/iip_prover.exe *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_core

let vs = Varset.of_list
let q = Rat.of_int
let i_pair a b x = Linexpr.mutual (vs [ a ]) (vs [ b ]) (vs x)

let show name m =
  Format.printf "@.%s:@.  %a@." name (Maxii.pp ()) m;
  match Maxii.decide m with
  | Maxii.Valid _ -> Format.printf "  => VALID (Shannon)@."
  | Maxii.Invalid h ->
    Format.printf "  => INVALID, refuted by the normal entropic function@.     %a@."
      (Polymatroid.pp ()) h
  | Maxii.Unknown h ->
    Format.printf
      "  => NOT derivable from Shannon inequalities, yet valid on all normal \
       functions:@.     open territory (c.f. Zhang-Yeung). Polymatroid refuter:@.     %a@."
      (Polymatroid.pp ()) h

let () =
  Format.printf "information-inequality prover@.";

  (* Shannon: submodularity. *)
  show "submodularity h(X)+h(Y) >= h(XY)"
    (Maxii.general ~n:2
       [ Linexpr.sum
           [ Linexpr.term (vs [ 0 ]); Linexpr.term (vs [ 1 ]);
             Linexpr.term ~coeff:(q (-1)) (vs [ 0; 1 ]) ] ]);

  (* Example 3.8 from the paper: a genuinely max-linear Shannon fact. *)
  let e1 = Cexpr.add (Cexpr.entropy (vs [ 0; 1 ])) (Cexpr.part (vs [ 1 ]) (vs [ 0 ])) in
  let e2 = Cexpr.add (Cexpr.entropy (vs [ 1; 2 ])) (Cexpr.part (vs [ 2 ]) (vs [ 1 ])) in
  let e3 = Cexpr.add (Cexpr.entropy (vs [ 0; 2 ])) (Cexpr.part (vs [ 0 ]) (vs [ 2 ])) in
  show "Example 3.8: h(X1X2X3) <= max(E1,E2,E3)"
    (Maxii.conditional ~n:3 ~q:Rat.one [ e1; e2; e3 ]);
  show "...but no single side suffices"
    (Maxii.conditional ~n:3 ~q:Rat.one [ e1 ]);

  (* Ingleton: fails over Gamma_4, holds over N_4: genuinely open region. *)
  show "Ingleton I(A;B) <= I(A;B|C)+I(A;B|D)+I(C;D)"
    (Maxii.general ~n:4
       [ Linexpr.sub
           (Linexpr.sum [ i_pair 0 1 [ 2 ]; i_pair 0 1 [ 3 ]; i_pair 2 3 [] ])
           (i_pair 0 1 []) ]);

  (* Zhang-Yeung 1998: valid over Gamma*, not Shannon. *)
  show "Zhang-Yeung: 2I(C;D) <= I(A;B)+I(A;CD)+3I(C;D|A)+I(C;D|B)"
    (Maxii.general ~n:4
       [ Linexpr.sub
           (Linexpr.sum
              [ i_pair 0 1 [];
                Linexpr.mutual (vs [ 0 ]) (vs [ 2; 3 ]) Varset.empty;
                Linexpr.scale (q 3) (i_pair 2 3 [ 0 ]);
                i_pair 2 3 [ 1 ] ])
           (Linexpr.scale (q 2) (i_pair 2 3 [])) ]);

  (* A Shannon certificate, printed. *)
  Format.printf "@.Farkas certificate that h(X)+h(Y) >= h(XY):@.";
  let e =
    Linexpr.sum
      [ Linexpr.term (vs [ 0 ]); Linexpr.term (vs [ 1 ]);
        Linexpr.term ~coeff:(q (-1)) (vs [ 0; 1 ]) ]
  in
  (match Cones.shannon_certificate ~n:2 e with
   | Some cert ->
     List.iter
       (fun (d, lambda) ->
         Format.printf "  %a * [ %a >= 0 ]@." Rat.pp lambda (Linexpr.pp ())
           (Elemental.expr_of_desc ~n:2 d))
       cert
   | None -> Format.printf "  (not Shannon)@.");

  (* Lemma 3.7 in action on the parity function. *)
  Format.printf "@.Lemma 3.7 on the parity function (Example B.4):@.";
  let h = Polymatroid.parity in
  Format.printf "  h  = %a (normal: %b)@." (Polymatroid.pp ()) h (Polymatroid.is_normal h);
  let h' = Normalize.normalize h in
  Format.printf "  h' = %a (normal: %b)  -- Figure 1@."
    (Polymatroid.pp ()) h' (Polymatroid.is_normal h');

  (* And the reduction: turn an invalid IIP into a non-containment. *)
  Format.printf "@.Reduction (Theorem 5.1): 0 <= -h(X1) becomes:@.";
  let c =
    Reduction.reduce
      (Maxii.general ~n:1 [ Linexpr.term ~coeff:(q (-1)) (vs [ 0 ]) ])
  in
  Format.printf "  Q1 = %a@.  Q2 = %a@." Bagcqc_cq.Query.pp c.Reduction.q1
    Bagcqc_cq.Query.pp c.Reduction.q2;
  (match Containment.decide ~max_factors:16 c.Reduction.q1 c.Reduction.q2 with
   | Containment.Not_contained w ->
     Format.printf "  decided NOT CONTAINED (witness %d > %d), as the IIP is invalid@."
       w.Containment.card_p w.Containment.hom2
   | Containment.Contained _ -> Format.printf "  unexpectedly contained?!@."
   | Containment.Unknown { reason; _ } -> Format.printf "  unknown: %s@." reason)
