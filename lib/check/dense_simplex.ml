(* Dense two-phase primal simplex over exact rationals: the original
   reference implementation, kept as the correctness oracle for the
   production sparse engine ([Simplex.solve]) in the [simplex] fuzz
   suite and the LP agreement tests.

   [m] rows of length [ncols + 1] (column [ncols] is the right-hand side),
   Gaussian pivots touching every column of every affected row, Dantzig
   pricing with Bland's anti-cycling fallback after a long run of
   degenerate pivots.  [basis.(r)] is the column basic in row [r]; row
   operations keep basic columns at identity.  Ingestion goes through
   the same {!Bagcqc_lp.Simplex.layout_of} as the production solver, so
   both see the same row order and column layout. *)

open Bagcqc_num
open Bagcqc_lp
open Simplex
open Rat.Infix

type tableau = {
  rows : Rat.t array array;
  mutable obj : Rat.t array;
  basis : int array;
  ncols : int;
}

let rhs_col t = t.ncols

let pivot t r c =
  note_pivot ();
  let row = t.rows.(r) in
  let p = row.(c) in
  assert (not (Rat.is_zero p));
  let inv_p = Rat.inv p in
  for j = 0 to t.ncols do
    row.(j) <- row.(j) */ inv_p
  done;
  let eliminate target =
    let f = target.(c) in
    if not (Rat.is_zero f) then
      for j = 0 to t.ncols do
        target.(j) <- target.(j) -/ (f */ row.(j))
      done
  in
  Array.iteri (fun i target -> if i <> r then eliminate target) t.rows;
  eliminate t.obj;
  t.basis.(r) <- c

(* One phase of simplex: minimize the current objective row over the
   columns [allowed].  Dantzig pricing with a permanent fallback to
   Bland's rule once a long degenerate run suggests cycling. *)
let degenerate_limit = 60

let run_phase t ~allowed =
  let m = Array.length t.rows in
  let bland = ref false in
  let degenerate_run = ref 0 in
  let rec iterate () =
    let entering = ref (-1) in
    if !bland then begin
      (try
         for j = 0 to t.ncols - 1 do
           if allowed j && Rat.sign t.obj.(j) < 0 then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ())
    end
    else begin
      let best = ref Rat.zero in
      for j = 0 to t.ncols - 1 do
        if allowed j && Rat.compare t.obj.(j) !best < 0 then begin
          best := t.obj.(j);
          entering := j
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let c = !entering in
      (* Leaving: min ratio rhs/coeff over rows with coeff > 0; ties
         broken by the smallest basis column. *)
      let best_row = ref (-1) in
      let best_ratio = ref Rat.zero in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(c) in
        if Rat.sign a > 0 then begin
          let ratio = t.rows.(i).(rhs_col t) // a in
          if !best_row < 0
             || Rat.compare ratio !best_ratio < 0
             || (Rat.equal ratio !best_ratio && t.basis.(i) < t.basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        if Rat.is_zero !best_ratio then begin
          incr degenerate_run;
          if !degenerate_run > degenerate_limit then bland := true
        end
        else degenerate_run := 0;
        pivot t !best_row c;
        iterate ()
      end
    end
  in
  iterate ()

let solution_of t ~num_vars =
  let x = Array.make num_vars Rat.zero in
  Array.iteri
    (fun r c -> if c < num_vars then x.(c) <- t.rows.(r).(rhs_col t))
    t.basis;
  x

let solve_tableau ({ num_vars; objective; _ } as p) =
  let { m; ncols; art_start; num_art; rows_data } = layout_of p in
  let rows = Array.init m (fun _ -> Array.make (ncols + 1) Rat.zero) in
  let basis = Array.make m (-1) in
  let next_slack = ref num_vars and next_art = ref art_start in
  Array.iteri
    (fun i (cols, vals, op, rhs) ->
      Array.iteri (fun k j -> rows.(i).(j) <- vals.(k)) cols;
      rows.(i).(ncols) <- rhs;
      (match op with
       | Le ->
         rows.(i).(!next_slack) <- Rat.one;
         basis.(i) <- !next_slack;
         incr next_slack
       | Ge ->
         rows.(i).(!next_slack) <- Rat.minus_one;
         incr next_slack;
         rows.(i).(!next_art) <- Rat.one;
         basis.(i) <- !next_art;
         incr next_art
       | Eq ->
         rows.(i).(!next_art) <- Rat.one;
         basis.(i) <- !next_art;
         incr next_art))
    rows_data;
  let t = { rows; obj = Array.make (ncols + 1) Rat.zero; basis; ncols } in
  (* ---------------- Phase 1: minimize the sum of artificials. ------- *)
  if num_art > 0 then begin
    let obj = Array.make (ncols + 1) Rat.zero in
    for j = art_start to ncols - 1 do
      obj.(j) <- Rat.one
    done;
    t.obj <- obj;
    (* Price out: artificials are basic, so subtract their rows. *)
    Array.iteri
      (fun i c ->
        if c >= art_start then
          for j = 0 to ncols do
            obj.(j) <- obj.(j) -/ t.rows.(i).(j)
          done)
      t.basis;
    (match run_phase t ~allowed:(fun _ -> true) with
     | `Unbounded ->
       (* The phase-1 objective (a sum of non-negative artificials) is
          bounded below by 0; an unbounded verdict means a pivoting bug. *)
       Bagcqc_error.invariant ~where:"Dense_simplex.solve"
         "phase-1 objective reported unbounded"
     | `Optimal -> ());
    (* obj.(ncols) holds -(phase-1 value). *)
    if Rat.sign t.obj.(ncols) < 0 then raise Exit
  end;
  (* Drive remaining artificials out of the basis where possible; rows
     where it is impossible are redundant (all-zero) and harmless. *)
  Array.iteri
    (fun r c ->
      if c >= art_start then begin
        let found = ref (-1) in
        (try
           for j = 0 to art_start - 1 do
             if not (Rat.is_zero t.rows.(r).(j)) then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then pivot t r !found
      end)
    t.basis;
  (* ---------------- Phase 2: the real objective. --------------------- *)
  let obj = Array.make (ncols + 1) Rat.zero in
  Array.blit objective 0 obj 0 num_vars;
  t.obj <- obj;
  Array.iteri
    (fun i c ->
      if c < ncols && not (Rat.is_zero obj.(c)) then begin
        let f = obj.(c) in
        for j = 0 to ncols do
          obj.(j) <- obj.(j) -/ (f */ t.rows.(i).(j))
        done
      end)
    t.basis;
  let allowed j = j < art_start in
  match run_phase t ~allowed with
  | `Unbounded -> Unbounded
  | `Optimal ->
    (* obj.(ncols) = -(objective value). *)
    Optimal (Rat.neg t.obj.(ncols), solution_of t ~num_vars)

let solve p =
  validate p;
  try solve_tableau p with Exit -> Infeasible
