(* Sparse linear expressions over entropic terms: mask -> rational. *)

open Bagcqc_num

module IMap = Map.Make (Int)

type t = Rat.t IMap.t
(* Invariant: no zero coefficients; no binding for the empty set. *)

let zero = IMap.empty

let add_term x c e =
  if Varset.is_empty x || Rat.is_zero c then e
  else
    IMap.update x
      (function
        | None -> Some c
        | Some c0 ->
          let c' = Rat.add c0 c in
          if Rat.is_zero c' then None else Some c')
      e

let term ?(coeff = Rat.one) x = add_term x coeff zero

let cond ?(coeff = Rat.one) y x =
  add_term (Varset.union y x) coeff (add_term x (Rat.neg coeff) zero)

let mutual ?(coeff = Rat.one) a b x =
  let open Varset in
  add_term (union a x) coeff
    (add_term (union b x) coeff
       (add_term (union (union a b) x) (Rat.neg coeff)
          (add_term x (Rat.neg coeff) zero)))

let add a b = IMap.fold add_term b a
let neg e = IMap.map Rat.neg e
let sub a b = add a (neg b)
let scale c e = if Rat.is_zero c then zero else IMap.map (Rat.mul c) e
let sum = List.fold_left add zero

let coeff e x = match IMap.find_opt x e with Some c -> c | None -> Rat.zero
let support e = List.map fst (IMap.bindings e)
let terms e = IMap.bindings e
let iter f e = IMap.iter f e
let is_zero e = IMap.is_empty e
let equal a b = IMap.equal Rat.equal a b

(* FNV-style mixing over the canonical bindings (ascending masks, no
   zeros), consistent with [equal] because [Rat.hash] is structural. *)
let hash e =
  IMap.fold
    (fun x c acc -> ((acc * 16777619) lxor x) * 16777619 lxor Rat.hash c)
    e 0x811c9dc5
  land max_int

let eval h e =
  IMap.fold (fun x c acc -> Rat.add acc (Rat.mul c (h x))) e Rat.zero

let eval_general ~zero:z ~add:( +! ) ~scale:( *! ) h e =
  IMap.fold (fun x c acc -> acc +! (c *! h x)) e z

let rename f e =
  IMap.fold
    (fun x c acc ->
      let x' = Varset.fold_elements (fun i s -> Varset.add (f i) s) x Varset.empty in
      add_term x' c acc)
    e zero

let max_var e =
  IMap.fold
    (fun x _ acc ->
      Varset.fold_elements (fun i m -> if i > m then i else m) x acc)
    e (-1)

let to_dense ~n e =
  let a = Array.make (1 lsl n) Rat.zero in
  IMap.iter
    (fun x c ->
      if x >= Array.length a then invalid_arg "Linexpr.to_dense: variable out of range";
      a.(x) <- c)
    e;
  a

let pp ?(names = Varset.default_name) () fmt e =
  if IMap.is_empty e then Format.pp_print_string fmt "0"
  else begin
    let first = ref true in
    IMap.iter
      (fun x c ->
        let s = Rat.sign c in
        if !first then begin
          if s < 0 then Format.pp_print_string fmt "-"
        end
        else Format.pp_print_string fmt (if s < 0 then " - " else " + ");
        first := false;
        let a = Rat.abs c in
        if not (Rat.equal a Rat.one) then Format.fprintf fmt "%a*" Rat.pp a;
        Format.fprintf fmt "h(%s)"
          (String.concat "" (List.map names (Varset.to_list x))))
      e
  end
