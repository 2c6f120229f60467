open Bagcqc_num
open Bagcqc_entropy

module Row = struct
  type t = Value.t array

  let compare (a : t) (b : t) =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else
      let rec loop i =
        if i >= la then 0
        else
          let c = Value.compare a.(i) b.(i) in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0
end

module RSet = Set.Make (Row)

type t = { arity : int; rows : RSet.t }

let arity p = p.arity
let cardinal p = RSet.cardinal p.rows
let is_empty p = RSet.is_empty p.rows

let check_row ~arity row =
  if Array.length row <> arity then
    invalid_arg "Relation: row arity mismatch"

let of_list ~arity rows =
  List.iter (check_row ~arity) rows;
  { arity; rows = RSet.of_list rows }

let of_int_rows ~arity rows =
  of_list ~arity
    (List.map (fun r -> Array.of_list (List.map (fun i -> Value.Int i) r)) rows)

(* Rows are copied out: a relation is a value, and one held by a cached
   verdict must not change under a caller that mutates a row it got. *)
let to_list p = List.map Array.copy (RSet.elements p.rows)

let add row p =
  check_row ~arity:p.arity row;
  { p with rows = RSet.add row p.rows }

let mem row p = Array.length row = p.arity && RSet.mem row p.rows

let equal a b = a.arity = b.arity && RSet.equal a.rows b.rows

let union a b =
  if a.arity <> b.arity then invalid_arg "Relation.union: arity mismatch";
  { arity = a.arity; rows = RSet.union a.rows b.rows }

let project phi p =
  Array.iter
    (fun i ->
      if i < 0 || i >= p.arity then
        invalid_arg "Relation.project: column index out of range")
    phi;
  let rows =
    RSet.fold
      (fun row acc -> RSet.add (Array.map (fun i -> row.(i)) phi) acc)
      p.rows RSet.empty
  in
  { arity = Array.length phi; rows }

let project_set x p = project (Array.of_list (Varset.to_list x)) p

let product columns =
  let arity = List.length columns in
  let rec build prefix = function
    | [] -> [ Array.of_list (List.rev prefix) ]
    | col :: rest ->
      List.concat_map (fun v -> build (v :: prefix) rest) col
  in
  if List.exists (fun c -> c = []) columns then { arity; rows = RSet.empty }
  else of_list ~arity (build [] columns)

let product_of_sizes sizes =
  product (List.map (fun n -> List.init n (fun i -> Value.Int i)) sizes)

let step_relation ~n w =
  if Varset.equal w (Varset.full n) then
    invalid_arg "Relation.step_relation: W must be proper";
  let f1 = Array.make n (Value.Int 1) in
  let f2 = Array.init n (fun i -> if Varset.mem i w then Value.Int 1 else Value.Int 2) in
  of_list ~arity:n [ f1; f2 ]

let domain_product a b =
  if a.arity <> b.arity then
    invalid_arg "Relation.domain_product: arity mismatch";
  let rows =
    RSet.fold
      (fun fa acc ->
        RSet.fold
          (fun fb acc ->
            RSet.add (Array.map2 (fun x y -> Value.Pair (x, y)) fa fb) acc)
          b.rows acc)
      a.rows RSet.empty
  in
  { arity = a.arity; rows }

let of_normal_steps ~n coeffs =
  List.iter
    (fun (_, c) ->
      if c <= 0 then
        invalid_arg "Relation.of_normal_steps: multiplicities must be positive")
    coeffs;
  let factors =
    List.concat_map (fun (w, c) -> List.init c (fun _ -> step_relation ~n w)) coeffs
  in
  match factors with
  | [] ->
    (* Empty product: the single constant row. *)
    of_list ~arity:n [ Array.make n (Value.Int 0) ]
  | first :: rest -> List.fold_left domain_product first rest

let normal_of_map ~psi p =
  let rows =
    RSet.fold
      (fun row acc ->
        let out =
          Array.map
            (fun w ->
              Value.Tuple (List.map (fun i -> row.(i)) (Varset.to_list w)))
            psi
        in
        RSet.add out acc)
      p.rows RSet.empty
  in
  { arity = Array.length psi; rows }

let marginal_counts p x =
  let phi = Array.of_list (Varset.to_list x) in
  let tbl = Hashtbl.create 64 in
  RSet.iter
    (fun row ->
      let key = Array.map (fun i -> row.(i)) phi in
      let prev = try Hashtbl.find tbl key with Not_found -> 0 in
      Hashtbl.replace tbl key (prev + 1))
    p.rows;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let marginal_uniform p x =
  match marginal_counts p x with
  | [] -> true
  | (_, c0) :: rest -> List.for_all (fun (_, c) -> c = c0) rest

let is_totally_uniform p =
  let full = Varset.full p.arity in
  let ok = ref true in
  Varset.iter_subsets full (fun x ->
      if not (Varset.is_empty x) && not (marginal_uniform p x) then ok := false);
  !ok

let distinct_projection_count p x =
  cardinal (project_set x p)

let degree p ~y ~x =
  (* deg_P(Y|X=f0) = number of distinct Y-projections within the fiber at
     f0; well-defined when this count is the same for all fibers. *)
  let phi_x = Array.of_list (Varset.to_list x) in
  let phi_y = Array.of_list (Varset.to_list y) in
  let tbl : (Row.t, RSet.t) Hashtbl.t = Hashtbl.create 64 in
  RSet.iter
    (fun row ->
      let kx = Array.map (fun i -> row.(i)) phi_x in
      let ky = Array.map (fun i -> row.(i)) phi_y in
      let prev = try Hashtbl.find tbl kx with Not_found -> RSet.empty in
      Hashtbl.replace tbl kx (RSet.add ky prev))
    p.rows;
  let degrees = Hashtbl.fold (fun _ s acc -> RSet.cardinal s :: acc) tbl [] in
  match degrees with
  | [] -> Some 0
  | d :: rest -> if List.for_all (( = ) d) rest then Some d else None

let entropy_float p x =
  if Varset.is_empty x || is_empty p then 0.0
  else begin
    let total = float_of_int (cardinal p) in
    List.fold_left
      (fun acc (_, c) ->
        let pr = float_of_int c /. total in
        acc -. (pr *. (Float.log pr /. Float.log 2.0)))
      0.0 (marginal_counts p x)
  end

let entropy_exact p x =
  if Varset.is_empty x || is_empty p then Some Logint.zero
  else if marginal_uniform p x then
    Some (Logint.log (Bigint.of_int (distinct_projection_count p x)))
  else None

let entropy_logint p x =
  if Varset.is_empty x || is_empty p then Logint.zero
  else begin
    let total = cardinal p in
    (* H(X) = log N - (1/N) Σ c_t log c_t  with N = |P|. *)
    let sum_c_log_c =
      List.fold_left
        (fun acc (_, c) ->
          Logint.add acc (Logint.scale (Rat.of_int c) (Logint.log_int c)))
        Logint.zero (marginal_counts p x)
    in
    Logint.sub
      (Logint.log (Bigint.of_int total))
      (Logint.scale (Rat.of_ints 1 total) sum_c_log_c)
  end

let pp fmt p =
  Format.fprintf fmt "{";
  let first = ref true in
  RSet.iter
    (fun row ->
      if not !first then Format.pp_print_string fmt "; ";
      first := false;
      Format.pp_print_char fmt '(';
      Array.iteri
        (fun i v ->
          if i > 0 then Format.pp_print_char fmt ',';
          Value.pp fmt v)
        row;
      Format.pp_print_char fmt ')')
    p.rows;
  Format.fprintf fmt "}"
