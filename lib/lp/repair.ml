(* Exact Farkas rows from float multipliers (DESIGN.md §4i).

   The float tableau of the lazy Γn loop ends an infeasible probe on a
   row that is a Farkas combination y of the system {x ≥ 0, A·x ≤ b}:
   y ≥ 0, y·A ≥ 0, y·b < 0 — in floats.  The floats choose the
   structure, exact arithmetic decides: the unknowns are y on the
   claimed support, the equations are (y·A)_j = 0 on every column where
   the float combination vanishes, plus the normalization y·b = −1.
   The system is solved exactly and accepted only if its solution is
   unique and consistent, y ≥ 0 and y·A ≥ 0 — then y is an exact
   infeasibility proof.  No tolerance decides acceptance. *)

open Bagcqc_num
open Rat.Infix

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
