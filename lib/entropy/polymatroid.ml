open Bagcqc_num
open Rat.Infix

type t = { n : int; v : Rat.t array } (* v.(mask) = h(mask); v.(0) = 0 *)

let make n f =
  if n < 0 || n > Varset.max_vars then invalid_arg "Polymatroid.make";
  let size = 1 lsl n in
  let v = Array.init size (fun m -> if m = 0 then Rat.zero else f m) in
  { n; v }

let n_vars h = h.n
let value h x =
  if x < 0 || x >= Array.length h.v then invalid_arg "Polymatroid.value: set out of range";
  h.v.(x)

let cond h y x = value h (Varset.union y x) -/ value h x

let mutual h a b x =
  value h (Varset.union a x) +/ value h (Varset.union b x)
  -/ value h (Varset.union (Varset.union a b) x)
  -/ value h x

let equal a b = a.n = b.n && Array.for_all2 Rat.equal a.v b.v

let zero n = make n (fun _ -> Rat.zero)

let add a b =
  if a.n <> b.n then invalid_arg "Polymatroid.add: arity mismatch";
  { n = a.n; v = Array.map2 Rat.add a.v b.v }

let scale c h = { h with v = Array.map (Rat.mul c) h.v }

let dominates g h =
  g.n = h.n && Array.for_all2 (fun a b -> a >=/ b) g.v h.v

let step n w =
  let full = Varset.full n in
  if Varset.equal w full then invalid_arg "Polymatroid.step: W must be proper";
  make n (fun x -> if Varset.subset x w then Rat.zero else Rat.one)

let modular_of_weights weights =
  Array.iter
    (fun w -> if Rat.sign w < 0 then invalid_arg "Polymatroid.modular_of_weights: negative weight")
    weights;
  let n = Array.length weights in
  make n (fun x ->
      Varset.fold_elements (fun i acc -> acc +/ weights.(i)) x Rat.zero)

let normal_of_steps n coeffs =
  List.iter
    (fun (w, c) ->
      if Rat.sign c < 0 then invalid_arg "Polymatroid.normal_of_steps: negative coefficient";
      if Varset.equal w (Varset.full n) then
        invalid_arg "Polymatroid.normal_of_steps: W must be proper")
    coeffs;
  make n (fun x ->
      List.fold_left
        (fun acc (w, c) -> if Varset.subset x w then acc else acc +/ c)
        Rat.zero coeffs)

let parity =
  make 3 (fun x -> if Varset.cardinal x = 1 then Rat.one else Rat.two)

let uniform_step_max weights =
  Array.iter
    (fun w -> if Rat.sign w < 0 then invalid_arg "Polymatroid.uniform_step_max: negative weight")
    weights;
  let n = Array.length weights in
  make n (fun x ->
      Varset.fold_elements (fun i acc -> Rat.max acc weights.(i)) x Rat.zero)

let is_polymatroid h =
  let full = Varset.full h.n in
  (* Elemental monotonicity: h(V) >= h(V \ {i}). *)
  let mono =
    List.for_all
      (fun i -> value h full >=/ value h (Varset.remove i full))
      (Varset.to_list full)
  in
  (* Elemental submodularity: for i <> j, W ⊆ V \ {i,j}:
     h(iW) + h(jW) >= h(ijW) + h(W). *)
  let submod = ref true in
  for i = 0 to h.n - 1 do
    for j = i + 1 to h.n - 1 do
      let rest = Varset.diff full (Varset.of_list [ i; j ]) in
      Varset.iter_subsets rest (fun w ->
          let iw = Varset.add i w and jw = Varset.add j w in
          let ijw = Varset.add j iw in
          if not (value h iw +/ value h jw >=/ (value h ijw +/ value h w)) then
            submod := false)
    done
  done;
  Rat.is_zero h.v.(0) && mono && !submod

let is_modular h =
  let full = Varset.full h.n in
  let ok = ref true in
  Varset.iter_subsets full (fun x ->
      let expected =
        Varset.fold_elements
          (fun i acc -> acc +/ value h (Varset.singleton i))
          x Rat.zero
      in
      if not (Rat.equal (value h x) expected) then ok := false);
  !ok
  && Varset.to_list full
     |> List.for_all (fun i -> Rat.sign (value h (Varset.singleton i)) >= 0)

let mobius h x =
  let acc = ref Rat.zero in
  Varset.iter_supersets ~n:h.n x (fun y ->
      let d = Varset.cardinal (Varset.diff y x) in
      let v = value h y in
      acc := !acc +/ (if d land 1 = 0 then v else Rat.neg v));
  !acc

let of_mobius n g =
  make n (fun x ->
      let acc = ref Rat.zero in
      Varset.iter_supersets ~n x (fun y -> acc := !acc +/ g y);
      !acc)

(* All 2ⁿ Möbius coefficients at once: the superset transform subtracts
   g(X ∪ {i}) from g(X) for each variable i in turn, n·2ⁿ⁻¹ subtractions
   in place of a 2^(n−|X|) sweep per set. *)
let mobius_all h =
  let g = Array.copy h.v in
  let size = Array.length g in
  for i = 0 to h.n - 1 do
    let bit = 1 lsl i in
    for x = 0 to size - 1 do
      if x land bit = 0 then g.(x) <- g.(x) -/ g.(x lor bit)
    done
  done;
  g

let is_normal h =
  let g = mobius_all h in
  let full = Varset.full h.n in
  let rec nonpositive x = x >= full || (Rat.sign g.(x) <= 0 && nonpositive (x + 1)) in
  nonpositive 0 && Rat.is_zero h.v.(0)

let is_entropic_known = is_normal

let normal_decomposition h =
  let g = mobius_all h in
  let full = Varset.full h.n in
  let rec collect acc w =
    if w < 0 then Some acc
    else
      let s = Rat.sign g.(w) in
      if s > 0 then None
      else collect (if s < 0 then (w, Rat.neg g.(w)) :: acc else acc) (w - 1)
  in
  if Rat.is_zero h.v.(0) then collect [] (full - 1) else None

let eval h e = Linexpr.eval (value h) e
let eval_cexpr h e = eval h (Cexpr.to_linexpr e)

let pp ?(names = Varset.default_name) () fmt h =
  let full = Varset.full h.n in
  Format.pp_print_char fmt '[';
  let first = ref true in
  (* Print by increasing cardinality then mask, matching hand conventions. *)
  let subsets = Varset.fold_subsets full (fun s acc -> s :: acc) [] in
  let subsets =
    List.sort
      (fun a b ->
        let c = compare (Varset.cardinal a) (Varset.cardinal b) in
        if c <> 0 then c else compare a b)
      subsets
  in
  List.iter
    (fun s ->
      if not (Varset.is_empty s) then begin
        if not !first then Format.pp_print_string fmt ", ";
        first := false;
        Format.fprintf fmt "h(%s)=%a"
          (String.concat "" (List.map names (Varset.to_list s)))
          Rat.pp (value h s)
      end)
    subsets;
  Format.pp_print_char fmt ']'
