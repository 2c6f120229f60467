type t =
  | Int of int
  | Str of string
  | Pair of t * t
  | Tag of string * t
  | Tuple of t list

let rec compare a b =
  match a, b with
  | Int x, Int y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Str x, Str y -> Stdlib.compare x y
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Pair (x1, y1), Pair (x2, y2) ->
    let c = compare x1 x2 in
    if c <> 0 then c else compare y1 y2
  | Pair _, _ -> -1
  | _, Pair _ -> 1
  | Tag (s1, v1), Tag (s2, v2) ->
    let c = Stdlib.compare s1 s2 in
    if c <> 0 then c else compare v1 v2
  | Tag _, _ -> -1
  | _, Tag _ -> 1
  | Tuple l1, Tuple l2 -> compare_list l1 l2

and compare_list l1 l2 =
  match l1, l2 with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: r1, y :: r2 ->
    let c = compare x y in
    if c <> 0 then c else compare_list r1 r2

let equal a b = compare a b = 0

(* FNV-1a-style mixing.  Each constructor contributes a tag before its
   payload, so structurally different nestings mix different sequences —
   the previous additive scheme was symmetric enough that
   [Tag ("a", Tag ("b", v))]
   and [Tag ("b", Tag ("a", v))] always collided — and the final
   [land max_int] keeps the result non-negative after multiplication
   overflow. *)
let hash v =
  let mix h x = (h * 16777619) lxor x in
  let rec go h = function
    | Int x -> mix (mix h 1) x
    | Str s -> mix (mix h 2) (Hashtbl.hash s)
    | Pair (a, b) -> go (go (mix h 3) a) b
    | Tag (s, v) -> go (mix (mix h 4) (Hashtbl.hash s)) v
    | Tuple l -> List.fold_left go (mix (mix h 5) (List.length l)) l
  in
  go 0x811c9dc5 v land max_int

let rec pp fmt = function
  | Int x -> Format.pp_print_int fmt x
  | Str s -> Format.pp_print_string fmt s
  | Pair (a, b) -> Format.fprintf fmt "(%a,%a)" pp a pp b
  | Tag (s, v) -> Format.fprintf fmt "%s:%a" s pp v
  | Tuple l ->
    Format.pp_print_char fmt '<';
    List.iteri
      (fun i v ->
        if i > 0 then Format.pp_print_char fmt ',';
        pp fmt v)
      l;
    Format.pp_print_char fmt '>'

let to_string v = Format.asprintf "%a" pp v
