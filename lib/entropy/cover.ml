(* Cover sides: a Shannon certificate by construction (DESIGN.md §4i).

   A side Σ c_X·h(X) − m·h(V) with every c_X ≥ 0 (X ≠ V) whose sets with
   c_X ≥ m cover V is valid over Γn by subadditivity alone (the paper's
   Theorem 4.2 argument for a totally disconnected decomposition; the
   integral case of Shearer's lemma).  Chain the kept sets X_1..X_k,
   U_0 = ∅ and U_j = U_{j−1} ∪ X_j; the sum telescopes:

     Σ_j h(X_j) − h(V) = Σ_j [h(U_{j−1}) + h(X_j) − h(U_j)]
                       = Σ_j [I(U_{j−1}∖C_j; X_j∖C_j | C_j) + h(C_j)]

   with C_j = U_{j−1} ∩ X_j.  Each I term splits by the chain rule into
   elemental I(p_s; q_t | C p_<s q_<t), each h(C) and every surplus
   term through [Elemental.nonneg_decomp]; λ is integral whenever the
   side is.  Nothing here is trusted: [Certificate.check] judges the
   result, and a rejected construction is simply not returned. *)

open Bagcqc_num

let c_certs = Bagcqc_obs.Metrics.counter "cone.cover.certs"

exception Decline

(* The test: [Some (m, chain)] with the kept sets in [Linexpr.iter]
   order ([] when m ≤ 0: the side is a non-negative sum), [None] when a
   coefficient off V is negative or the kept sets miss a variable. *)
let chain ~n e =
  let full = Varset.full n in
  let m = Rat.neg (Linexpr.coeff e full) in
  let covering = Rat.sign m > 0 in
  let kept = ref [] and covered = ref Varset.empty in
  match
    Linexpr.iter
      (fun x c ->
        if x <> full then begin
          if Rat.sign c < 0 then raise_notrace Decline;
          if covering && (not (Varset.subset x !covered)) && Rat.compare c m >= 0
          then begin
            kept := x :: !kept;
            covered := Varset.union !covered x
          end
        end)
      e
  with
  | exception Decline -> None
  | () ->
    if not covering then Some (m, [])
    else if !covered = full then Some (m, List.rev !kept)
    else None

(* λ for one side that passes the test, before sorting. *)
let lambda ~n e m sets =
  let acc = ref [] in
  let decomp w s =
    if Rat.sign w > 0 then
      List.iter (fun d -> acc := (d, w) :: !acc) (Elemental.nonneg_decomp ~n s)
  in
  let u = ref Varset.empty in
  List.iter
    (fun x ->
      let c = Varset.inter !u x in
      let qs = Varset.diff x c in
      (* I(U∖C; X∖C | C) = Σ_{s,t} I(p_s; q_t | C p_<s q_<t). *)
      ignore
        (Varset.fold_elements
           (fun p cp ->
             ignore
               (Varset.fold_elements
                  (fun q w ->
                    acc := (Elemental.Submod (min p q, max p q, w), m) :: !acc;
                    Varset.add q w)
                  qs cp);
             Varset.add p cp)
           (Varset.diff !u c) c);
      decomp m c;
      u := Varset.union !u x)
    sets;
  (* Surpluses: c_X − m on a chain set, c_X elsewhere; h(V)'s own
     coefficient −m is negative and skipped unless m ≤ 0. *)
  Linexpr.iter
    (fun x cx -> decomp (if List.mem x sets then Rat.sub cx m else cx) x)
    e;
  !acc

let certificate ~n es =
  let rec first l = function
    | [] -> None
    | e :: rest ->
      (match chain ~n e with
       | None -> first (l + 1) rest
       | Some (m, sets) ->
         let cert =
           Certificate.make ~n ~cone:"gamma" ~sides:es
             ~lambda:(Elemental.merge_descs (lambda ~n e m sets))
             ~mu:(List.mapi (fun i _ -> if i = l then Rat.one else Rat.zero) es)
         in
         if Certificate.check cert then begin
           Bagcqc_obs.Metrics.bump c_certs;
           Some cert
         end
         else None)
  in
  first 0 es
