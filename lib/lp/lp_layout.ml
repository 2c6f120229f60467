(* LP ingestion: the problem representation and the normalized
   row/column layout of the exact simplex ({!Simplex}), plus the
   per-domain pivot odometer that the float probe ({!Fsimplex}) feeds
   too.  The layout contract:

   - columns [0, num_vars) are the structural variables;
   - then one slack/surplus column per inequality row ([Le]: +1 slack,
     [Ge]: -1 surplus), assigned in row order;
   - then, starting at [art_start], one artificial column per [Ge]/[Eq]
     row, assigned in row order;
   - every row is flipped to a non-negative right-hand side before any
     column is assigned ([Le] becomes [Ge] and vice versa). *)

open Bagcqc_num

type op = Le | Ge | Eq

(* Per-domain pivot odometer, shared by the exact simplex and the float
   probe: bumped once per Gaussian pivot.  Callers read it as a delta
   around a solve, which only stays exact if no other domain's pivots
   leak into the window — hence one cell per domain rather than one
   shared counter.  Lives here (not in Simplex) so {!Fsimplex} can feed
   it without depending on the exact simplex. *)
let pivots_key = Domain.DLS.new_key (fun () -> ref 0)
let pivot_count () = !(Domain.DLS.get pivots_key)
let note_pivot () = incr (Domain.DLS.get pivots_key)

(* Constraints are stored sparsely: parallel arrays of strictly increasing
   column indices and their (nonzero) coefficients.  [width] remembers the
   declared row length for constraints built from dense arrays ([-1] for
   natively sparse ones), so [validate] can reproduce the historical
   dimension check. *)
type constr = {
  cols : int array;
  vals : Rat.t array;
  width : int;
  op : op;
  rhs : Rat.t;
}

type problem = {
  num_vars : int;
  objective : Rat.t array;
  constraints : constr list;
}

let constr coeffs op rhs =
  let nnz = Array.fold_left (fun n c -> if Rat.is_zero c then n else n + 1) 0 coeffs in
  let cols = Array.make nnz 0 and vals = Array.make nnz Rat.zero in
  let k = ref 0 in
  Array.iteri
    (fun j c ->
      if not (Rat.is_zero c) then begin
        cols.(!k) <- j;
        vals.(!k) <- c;
        incr k
      end)
    coeffs;
  { cols; vals; width = Array.length coeffs; op; rhs }

let sparse_constr pairs op rhs =
  let pairs =
    List.filter (fun (_, c) -> not (Rat.is_zero c)) pairs
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let n = List.length pairs in
  let cols = Array.make n 0 and vals = Array.make n Rat.zero in
  List.iteri
    (fun k (j, c) ->
      if j < 0 then invalid_arg "Simplex.sparse_constr: negative column";
      if k > 0 && cols.(k - 1) = j then
        invalid_arg "Simplex.sparse_constr: duplicate column";
      cols.(k) <- j;
      vals.(k) <- c)
    pairs;
  { cols; vals; width = -1; op; rhs }

let validate { num_vars; objective; constraints } =
  if Array.length objective <> num_vars then
    invalid_arg "Simplex.solve: objective length mismatch";
  List.iter
    (fun c ->
      if c.width >= 0 then begin
        if c.width <> num_vars then
          invalid_arg "Simplex.solve: constraint length mismatch"
      end
      else if Array.length c.cols > 0 && c.cols.(Array.length c.cols - 1) >= num_vars
      then invalid_arg "Simplex.solve: constraint column out of range")
    constraints

(* Normalized ingestion: flip rows to non-negative rhs and compute the
   column layout — [0, num_vars) structural, then one slack/surplus
   column per inequality, then one artificial column per Ge/Eq row. *)
type layout = {
  m : int;
  ncols : int;
  art_start : int;
  num_art : int;
  (* per row: sparse structural coefficients, op, rhs (rhs >= 0) *)
  rows_data : (int array * Rat.t array * op * Rat.t) array;
}

let layout_of { num_vars; constraints; _ } =
  let rows_data =
    Array.of_list constraints
    |> Array.map (fun { cols; vals; op; rhs; _ } ->
           if Rat.sign rhs < 0 then
             ( cols,
               Array.map Rat.neg vals,
               (match op with Le -> Ge | Ge -> Le | Eq -> Eq),
               Rat.neg rhs )
           else (cols, Array.copy vals, op, rhs))
  in
  let m = Array.length rows_data in
  let num_slack =
    Array.fold_left
      (fun acc (_, _, op, _) -> match op with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows_data
  in
  let num_art =
    Array.fold_left
      (fun acc (_, _, op, _) -> match op with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows_data
  in
  let ncols = num_vars + num_slack + num_art in
  { m; ncols; art_start = num_vars + num_slack; num_art; rows_data }
