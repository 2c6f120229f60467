(* Exact repair of a float-proposed simplex basis (DESIGN.md §4f).

   Given a basis B (as column indices, one per row) proposed by
   {!Fsimplex}, reconstruct in exact rational arithmetic everything the
   verdict depends on — one linear solve per side, no pivoting:

   - the primal basic solution   x_B = B⁻¹ b,
   - the dual multipliers        y   = B⁻ᵀ c_B,

   and accept only if the (x, y) pair verifies the claim exactly:

   {e Optimality} (phase-2 basis): x_B ≥ 0; every basic artificial is 0
   (so x solves the original system, not the phase-1 relaxation); and
   every nonbasic non-artificial column j has reduced cost
   c_j − y·A_j ≥ 0.  Then x is feasible, y proves no descent direction
   exists, and c·x = y·b is the exact optimum.

   {e Infeasibility} (phase-1 basis): y is dual-feasible for the phase-1
   LP over {b all} columns (y·A_j ≤ 1 for artificials, ≤ 0 otherwise)
   and y·b > 0.  Then for any x ≥ 0 over the original columns with
   Ax = b we would get 0 ≥ Σ (y·A_j)x_j = y·b > 0 — a Farkas
   contradiction, so the original system is infeasible.

   Every check is an exact [Rat] comparison; no tolerance anywhere.  Any
   failure — singular basis, negative basic variable, nonzero basic
   artificial, negative reduced cost, non-positive phase-1 dual value —
   is reported as [Rejected reason] and costs the caller one exact solve
   (the fallback), never a wrong answer.  The reason strings are stable
   tags, surfaced as span attributes for the fallback taxonomy. *)

open Bagcqc_num
open Rat.Infix

type verdict =
  | Repaired_optimal of Rat.t * Rat.t array
      (** exact optimal value and structural solution *)
  | Repaired_infeasible
  | Rejected of string  (** stable reason tag, e.g. ["dual_infeasible"] *)

(* Solve the square system [a · x = b] by Gaussian elimination with
   first-nonzero pivoting, destructively on copies.  Returns [None] when
   [a] is singular.  Exactness makes partial pivoting for stability
   unnecessary; any nonzero pivot is as good as any other. *)
let solve_square a b =
  let m = Array.length b in
  let a = Array.init m (fun i -> Array.copy a.(i)) in
  let b = Array.copy b in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       (* Find a row with a nonzero entry in column k. *)
       let piv = ref (-1) in
       (try
          for i = k to m - 1 do
            if not (Rat.is_zero a.(i).(k)) then begin
              piv := i;
              raise Exit
            end
          done
        with Exit -> ());
       if !piv < 0 then begin
         ok := false;
         raise Exit
       end;
       if !piv <> k then begin
         let t = a.(k) in
         a.(k) <- a.(!piv);
         a.(!piv) <- t;
         let t = b.(k) in
         b.(k) <- b.(!piv);
         b.(!piv) <- t
       end;
       let inv_p = Rat.inv a.(k).(k) in
       for j = k to m - 1 do
         a.(k).(j) <- a.(k).(j) */ inv_p
       done;
       b.(k) <- b.(k) */ inv_p;
       for i = 0 to m - 1 do
         if i <> k then begin
           let f = a.(i).(k) in
           if not (Rat.is_zero f) then begin
             for j = k to m - 1 do
               a.(i).(j) <- a.(i).(j) -/ (f */ a.(k).(j))
             done;
             b.(i) <- b.(i) -/ (f */ b.(k))
           end
         end
       done
     done
   with Exit -> ());
  if !ok then Some b else None

let dot_col y entries =
  List.fold_left (fun acc (i, v) -> acc +/ (y.(i) */ v)) Rat.zero entries

let repair (p : Lp_layout.problem) (lay : Lp_layout.layout) proposal =
  let { Lp_layout.m; ncols; art_start; rows_data; _ } = lay in
  let num_vars = p.Lp_layout.num_vars in
  match (proposal : Fsimplex.proposal) with
  | Fsimplex.Unbounded_direction -> Rejected "unbounded"
  | Fsimplex.Optimal_basis basis | Fsimplex.Infeasible_basis basis ->
    let phase1 =
      match proposal with Fsimplex.Infeasible_basis _ -> true | _ -> false
    in
    (* Defensive shape check: the basis came from the float world. *)
    let shape_ok =
      Array.length basis = m
      && Array.for_all (fun c -> c >= 0 && c < ncols) basis
      &&
      let seen = Array.make ncols false in
      Array.for_all
        (fun c ->
          if seen.(c) then false
          else begin
            seen.(c) <- true;
            true
          end)
        basis
    in
    if not shape_ok then Rejected "bad_basis"
    else begin
      let cols = Lp_layout.columns lay ~num_vars in
      (* B in row-major (bm.(i).(r) = entry of basis column r in row i)
         and its transpose, plus rhs and the basic cost vector. *)
      let bm = Array.init m (fun _ -> Array.make m Rat.zero) in
      let bt = Array.init m (fun _ -> Array.make m Rat.zero) in
      Array.iteri
        (fun r c ->
          List.iter
            (fun (i, v) ->
              bm.(i).(r) <- v;
              bt.(r).(i) <- v)
            cols.(c))
        basis;
      let b_rhs = Array.map (fun (_, _, _, rhs) -> rhs) rows_data in
      let cost j =
        if phase1 then if j >= art_start then Rat.one else Rat.zero
        else if j < num_vars then p.Lp_layout.objective.(j)
        else Rat.zero
      in
      let c_b = Array.map cost basis in
      match solve_square bt c_b with
      | None -> Rejected "singular_basis"
      | Some y ->
        if phase1 then begin
          (* Dual feasibility over every column, basic ones included
             (for those the reduced cost is 0 by construction; checking
             them costs little and catches solve bugs). *)
          let dual_ok = ref true in
          for j = 0 to ncols - 1 do
            if !dual_ok && Rat.sign (cost j -/ dot_col y cols.(j)) < 0 then
              dual_ok := false
          done;
          if not !dual_ok then Rejected "dual_infeasible"
          else begin
            let value = ref Rat.zero in
            for i = 0 to m - 1 do
              value := !value +/ (y.(i) */ b_rhs.(i))
            done;
            let value = !value in
            (* y·b is the exact phase-1 dual objective; the Farkas
               argument needs it strictly positive. *)
            if Rat.sign value > 0 then Repaired_infeasible
            else Rejected "not_infeasible"
          end
        end
        else begin
          match solve_square bm b_rhs with
          | None -> Rejected "singular_basis"
          | Some x_b ->
            if Array.exists (fun v -> Rat.sign v < 0) x_b then
              Rejected "infeasible_point"
            else begin
              let art_zero = ref true in
              Array.iteri
                (fun r c ->
                  if c >= art_start && not (Rat.is_zero x_b.(r)) then
                    art_zero := false)
                basis;
              if not !art_zero then Rejected "artificial_nonzero"
              else begin
                let basic = Array.make ncols false in
                Array.iter (fun c -> basic.(c) <- true) basis;
                let dual_ok = ref true in
                for j = 0 to art_start - 1 do
                  if (not basic.(j)) && !dual_ok
                     && Rat.sign (cost j -/ dot_col y cols.(j)) < 0
                  then dual_ok := false
                done;
                if not !dual_ok then Rejected "dual_infeasible"
                else begin
                  let value = ref Rat.zero in
                  let x = Array.make num_vars Rat.zero in
                  Array.iteri
                    (fun r c ->
                      value := !value +/ (c_b.(r) */ x_b.(r));
                      if c < num_vars then x.(c) <- x_b.(r))
                    basis;
                  Repaired_optimal (!value, x)
                end
              end
            end
        end
    end

(* ---------------- exact Farkas rows from float multipliers ----------------

   The float tableau of the lazy Γn loop ends an infeasible probe on a
   row that is a Farkas combination y of the system {x ≥ 0, A·x ≤ b}:
   y ≥ 0, y·A ≥ 0, y·b < 0 — in floats.  The floats choose the
   structure, exact arithmetic decides, as for a proposed basis above:
   the unknowns are y on the claimed support, the equations are
   (y·A)_j = 0 on every column where the float combination vanishes,
   plus the normalization y·b = −1.  The system is solved exactly and
   accepted only if its solution is unique and consistent, y ≥ 0 and
   y·A ≥ 0 — then y is an exact infeasibility proof. *)

type farkas_reject =
  | Rank_deficient
  | Inconsistent
  | Negative_multiplier
  | Negative_combination

(* A float combination entry this small relative to the magnitudes that
   produced it is cancellation residue: the column becomes an equation.
   Only structure depends on it — a wrong call makes the exact system
   inconsistent or its solution negative, never a wrong proof. *)
let eps_vanish = 1e-9

(* Reduce [eqs] (each [coefficients | rhs], [p] unknowns) in place and
   read off the unique solution.  Full column rank is required, and
   every row left over after elimination must read 0 = 0. *)
let solve_unique eqs p =
  let neq = Array.length eqs in
  let exception Reject of farkas_reject in
  try
    for k = 0 to p - 1 do
      let piv = ref (-1) in
      for i = neq - 1 downto k do
        if not (Rat.is_zero eqs.(i).(k)) then piv := i
      done;
      if !piv < 0 then raise (Reject Rank_deficient);
      let t = eqs.(k) in
      eqs.(k) <- eqs.(!piv);
      eqs.(!piv) <- t;
      let row = eqs.(k) in
      let inv_p = Rat.inv row.(k) in
      for j = k to p do
        row.(j) <- row.(j) */ inv_p
      done;
      for i = 0 to neq - 1 do
        let f = eqs.(i).(k) in
        if i <> k && not (Rat.is_zero f) then begin
          let target = eqs.(i) in
          for j = k to p do
            if not (Rat.is_zero row.(j)) then
              target.(j) <- target.(j) -/ (f */ row.(j))
          done
        end
      done
    done;
    for i = p to neq - 1 do
      if not (Rat.is_zero eqs.(i).(p)) then raise (Reject Inconsistent)
    done;
    Ok (Array.init p (fun k -> eqs.(k).(p)))
  with Reject r -> Error r

let farkas ~num_vars rows ys =
  let p = Array.length rows in
  let comb = Array.make num_vars 0.0 and mag = Array.make num_vars 0.0 in
  let touched = Array.make num_vars false in
  Array.iteri
    (fun i (pairs, _) ->
      List.iter
        (fun (j, a) ->
          let v = ys.(i) *. Rat.to_float a in
          comb.(j) <- comb.(j) +. v;
          mag.(j) <- mag.(j) +. Float.abs v;
          touched.(j) <- true)
        pairs)
    rows;
  (* Column index → equation, for the columns the floats call zero. *)
  let eq_of = Array.make num_vars (-1) and neq = ref 0 in
  for j = 0 to num_vars - 1 do
    if touched.(j)
       && Float.abs comb.(j) <= eps_vanish *. Float.max 1.0 mag.(j)
    then begin
      eq_of.(j) <- !neq;
      incr neq
    end
  done;
  let eqs = Array.init (!neq + 1) (fun _ -> Array.make (p + 1) Rat.zero) in
  Array.iteri
    (fun i (pairs, b) ->
      List.iter
        (fun (j, a) ->
          let e = eq_of.(j) in
          if e >= 0 then eqs.(e).(i) <- eqs.(e).(i) +/ a)
        pairs;
      eqs.(!neq).(i) <- b)
    rows;
  eqs.(!neq).(p) <- Rat.minus_one;
  match solve_unique eqs p with
  | Error _ as e -> e
  | Ok y ->
    if Array.exists (fun v -> Rat.sign v < 0) y then Error Negative_multiplier
    else begin
      (* Re-derive y·A and y·b from the rows rather than trusting the
         elimination: the proof is whatever these sums say. *)
      let exact = Array.make num_vars Rat.zero and yb = ref Rat.zero in
      Array.iteri
        (fun i (pairs, b) ->
          if not (Rat.is_zero y.(i)) then begin
            List.iter (fun (j, a) -> exact.(j) <- exact.(j) +/ (y.(i) */ a)) pairs;
            yb := !yb +/ (y.(i) */ b)
          end)
        rows;
      if Array.exists (fun v -> Rat.sign v < 0) exact then
        Error Negative_combination
      else if Rat.sign !yb >= 0 then Error Inconsistent
      else begin
        let combination = ref [] in
        for j = num_vars - 1 downto 0 do
          if not (Rat.is_zero exact.(j)) then
            combination := (j, exact.(j)) :: !combination
        done;
        Ok (y, !combination)
      end
    end

let farkas_reject_name = function
  | Rank_deficient -> "rank_deficient"
  | Inconsistent -> "inconsistent"
  | Negative_multiplier -> "negative_multiplier"
  | Negative_combination -> "negative_combination"
