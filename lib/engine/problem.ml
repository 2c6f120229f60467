open Bagcqc_num
open Bagcqc_lp

(* Sparse canonical row: columns strictly increasing, no zero coefficients. *)
type row = {
  cols : int array;
  vals : Rat.t array;
  op : Simplex.op;
  rhs : Rat.t;
}

type t = {
  tag : string;
  num_vars : int;
  rows : row array;
}

let canonical_pairs pairs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  (* Sum duplicate columns, drop zeros. *)
  let rec merge = function
    | (j, _) :: _ when j < 0 -> invalid_arg "Engine.Problem: negative column"
    | (j, c) :: (j', c') :: rest when j = j' -> merge ((j, Rat.add c c') :: rest)
    | (_, c) :: rest when Rat.is_zero c -> merge rest
    | p :: rest -> p :: merge rest
    | [] -> []
  in
  merge sorted

let row pairs op rhs =
  let pairs = canonical_pairs pairs in
  let n = List.length pairs in
  let cols = Array.make n 0 and vals = Array.make n Rat.zero in
  List.iteri
    (fun k (j, c) ->
      cols.(k) <- j;
      vals.(k) <- c)
    pairs;
  { cols; vals; op; rhs }

let op_rank = function Simplex.Le -> 0 | Simplex.Ge -> 1 | Simplex.Eq -> 2

let compare_row a b =
  let c = compare (op_rank a.op) (op_rank b.op) in
  if c <> 0 then c
  else
    let c = Rat.compare a.rhs b.rhs in
    if c <> 0 then c
    else
      let c = compare a.cols b.cols in
      if c <> 0 then c
      else
        let rec vals i =
          if i >= Array.length a.vals then 0
          else
            let c = Rat.compare a.vals.(i) b.vals.(i) in
            if c <> 0 then c else vals (i + 1)
        in
        let c = compare (Array.length a.vals) (Array.length b.vals) in
        if c <> 0 then c else vals 0

let make ~tag ~num_vars rows =
  let check_col j =
    if j >= num_vars then invalid_arg "Engine.Problem: column out of range"
  in
  List.iter (fun r -> Array.iter check_col r.cols) rows;
  { tag; num_vars; rows = Array.of_list (List.sort compare_row rows) }

let tag p = p.tag
let num_vars p = p.num_vars
let num_rows p = Array.length p.rows

let rows_list p =
  Array.to_list
    (Array.map
       (fun r ->
         (Array.to_list (Array.mapi (fun k j -> (j, r.vals.(k))) r.cols),
          r.op, r.rhs))
       p.rows)

let to_simplex p =
  let constraints =
    Array.to_list
      (Array.map
         (fun r ->
           Simplex.sparse_constr
             (Array.to_list (Array.mapi (fun k j -> (j, r.vals.(k))) r.cols))
             r.op r.rhs)
         p.rows)
  in
  { Simplex.num_vars = p.num_vars;
    objective = Array.make p.num_vars Rat.zero;
    constraints }
