(* Floating-point simplex, in two forms that never answer a query by
   themselves: {!propose}, the "float-first" half of the hybrid LP
   pipeline (DESIGN.md §4f), and {!Tableau}, the incremental probe of
   the lazy Γn loop (§4i, at the end of this file).

   {!propose} is a cold solve: the same two-phase primal simplex as the
   exact engines — same column layout
   (via {!Lp_layout}), same Dantzig-with-Bland-fallback pricing, same
   minimum-ratio leaving rule with smallest-basis-column tie-break — but
   over machine floats with tolerance-based comparisons, and returns only
   the final {e basis} (an array of column indices).  {!Repair} then
   reconstructs the exact rational solution and dual multipliers for that
   basis and accepts the verdict only if it verifies exactly; anything
   this module gets wrong costs a fallback to the exact engine, never a
   wrong answer.

   Total-error discipline: floats fail in ways exact rationals cannot —
   overflow to [infinity] on ingestion of huge rationals, NaN out of
   inf/inf pivots, and cycling that Bland's rule cannot see through
   tolerances.  All three surface as a typed {!Bagcqc_error} with kind
   [Overflow] from {!propose} and as [Unknown] from {!Tableau} — never a
   NaN silently poisoning the pricing loop, which would make every
   comparison false and stall the solve: coefficients are checked finite
   on ingestion, the touched entries are re-checked after every pivot,
   and a pivot-count cap bounds the search. *)

open Bagcqc_num
module Obs = Bagcqc_obs

type proposal =
  | Optimal_basis of int array
  | Infeasible_basis of int array
  | Unbounded_direction

let where = "Fsimplex.propose"

(* An entering reduced cost must clear [eps_price] to be considered
   negative, a pivot element must clear [eps_pivot] to be usable, and the
   phase-1 objective must exceed [eps_feas] for the float solver to claim
   infeasibility.  The values are conventional simplex tolerances; they
   affect only which basis gets proposed (and hence the fallback rate),
   never the final verdict. *)
let eps_price = 1e-9
let eps_pivot = 1e-9
let eps_feas = 1e-7

let degenerate_limit = 60

exception Numerical of string
exception Infeasible_at of int array

let check_finite_row ~what row =
  let n = Array.length row in
  for j = 0 to n - 1 do
    let v = Array.unsafe_get row j in
    if v <> v || v = infinity || v = neg_infinity then
      raise (Numerical (Printf.sprintf "non-finite %s entry" what))
  done

let pivot rows obj basis ~ncols r c =
  Lp_layout.note_pivot ();
  let row = rows.(r) in
  let p = row.(c) in
  let inv_p = 1.0 /. p in
  for j = 0 to ncols do
    row.(j) <- row.(j) *. inv_p
  done;
  let eliminate target =
    let f = target.(c) in
    if f <> 0.0 then begin
      for j = 0 to ncols do
        target.(j) <- target.(j) -. (f *. row.(j))
      done;
      (* Clamp the pivot column exactly: the algebraic value is 0, and
         leaving the rounding residue in place would let later ratio
         tests divide by it. *)
      target.(c) <- 0.0
    end
  in
  for i = 0 to Array.length rows - 1 do
    if i <> r then eliminate rows.(i)
  done;
  eliminate obj;
  row.(c) <- 1.0;
  basis.(r) <- c;
  check_finite_row ~what:"pivot-row" row;
  check_finite_row ~what:"objective" obj;
  (* The right-hand sides feed every subsequent ratio test: a NaN there
     would silently disable rows (every comparison false) instead of
     failing, so check the whole column, not just the pivot row. *)
  for i = 0 to Array.length rows - 1 do
    let v = rows.(i).(ncols) in
    if v <> v || v = infinity || v = neg_infinity then
      raise (Numerical "non-finite right-hand side entry")
  done

let run_phase rows obj basis ~ncols ~allowed ~budget =
  let m = Array.length rows in
  let bland = ref false in
  let degenerate_run = ref 0 in
  let rec iterate () =
    if !budget <= 0 then raise (Numerical "pivot budget exhausted");
    let entering = ref (-1) in
    if !bland then begin
      (try
         for j = 0 to ncols - 1 do
           if allowed j && obj.(j) < -.eps_price then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ())
    end
    else begin
      let best = ref (-.eps_price) in
      for j = 0 to ncols - 1 do
        if allowed j && obj.(j) < !best then begin
          best := obj.(j);
          entering := j
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let c = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref 0.0 in
      for i = 0 to m - 1 do
        let a = rows.(i).(c) in
        if a > eps_pivot then begin
          let ratio = rows.(i).(ncols) /. a in
          if !best_row < 0
             || ratio < !best_ratio
             || (ratio = !best_ratio && basis.(i) < basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        if !best_ratio <= eps_pivot then begin
          incr degenerate_run;
          if !degenerate_run > degenerate_limit then bland := true
        end
        else degenerate_run := 0;
        decr budget;
        pivot rows obj basis ~ncols !best_row c;
        iterate ()
      end
    end
  in
  iterate ()

(* Warm-start crash: before phase 1, try to pivot each remembered basis
   column into the basis with a {e guided} primal pivot — entering
   column fixed, leaving row by the usual minimum-ratio rule.  Min-ratio
   preserves the phase-1 invariant (all right-hand sides ≥ 0), so this
   only relocates the starting vertex closer to the previous optimum;
   arbitrary crash pivoting would break phase-1 feasibility.  Columns
   with no usable pivot element are skipped, and every crash pivot draws
   on the same budget as the solve proper, so a useless hint degrades
   into at worst a slightly shorter search, never a hang. *)
let crash_warm rows basis ~ncols ~art_start ~budget warm =
  let m = Array.length rows in
  let scratch_obj = Array.make (ncols + 1) 0.0 in
  let in_basis = Array.make (ncols + 1) false in
  Array.iter (fun c -> if c >= 0 && c <= ncols then in_basis.(c) <- true) basis;
  Array.iter
    (fun c ->
      if c >= 0 && c < art_start && not in_basis.(c) && !budget > 1 then begin
        let best_row = ref (-1) and best_ratio = ref 0.0 in
        for i = 0 to m - 1 do
          let a = rows.(i).(c) in
          if a > eps_pivot then begin
            let ratio = rows.(i).(ncols) /. a in
            if !best_row < 0 || ratio < !best_ratio
               || (ratio = !best_ratio
                   (* Prefer evicting an artificial over a structural/
                      slack column the hint may still want basic. *)
                   && basis.(i) >= art_start && basis.(!best_row) < art_start)
            then begin
              best_row := i;
              best_ratio := ratio
            end
          end
        done;
        if !best_row >= 0 then begin
          decr budget;
          in_basis.(basis.(!best_row)) <- false;
          in_basis.(c) <- true;
          pivot rows scratch_obj basis ~ncols !best_row c
        end
      end)
    warm

let propose ?warm p (lay : Lp_layout.layout) =
  Bagcqc_error.protect @@ fun () ->
  let { Lp_layout.m; ncols; art_start; num_art; rows_data } = lay in
  try
    let rows = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
    let basis = Array.make m (-1) in
    let next_slack = ref p.Lp_layout.num_vars and next_art = ref art_start in
    Array.iteri
      (fun i (cols, vals, op, rhs) ->
        Array.iteri
          (fun k j -> rows.(i).(j) <- Rat.to_float vals.(k))
          cols;
        rows.(i).(ncols) <- Rat.to_float rhs;
        (match op with
         | Lp_layout.Le ->
           rows.(i).(!next_slack) <- 1.0;
           basis.(i) <- !next_slack;
           incr next_slack
         | Lp_layout.Ge ->
           rows.(i).(!next_slack) <- -1.0;
           incr next_slack;
           rows.(i).(!next_art) <- 1.0;
           basis.(i) <- !next_art;
           incr next_art
         | Lp_layout.Eq ->
           rows.(i).(!next_art) <- 1.0;
           basis.(i) <- !next_art;
           incr next_art);
        check_finite_row ~what:"ingested-row" rows.(i))
      rows_data;
    (* Pivot cap: generous for any LP this project builds (the exact
       engines finish these in far fewer), tight enough that tolerance-
       blinded cycling degrades into a fallback instead of a hang. *)
    let budget = ref (200 + (50 * (m + ncols))) in
    Option.iter (crash_warm rows basis ~ncols ~art_start ~budget) warm;
    (* Phase 1: minimize the sum of artificials. *)
    if num_art > 0 then begin
      let obj = Array.make (ncols + 1) 0.0 in
      for j = art_start to ncols - 1 do
        obj.(j) <- 1.0
      done;
      Array.iteri
        (fun i c ->
          if c >= art_start then
            for j = 0 to ncols do
              obj.(j) <- obj.(j) -. rows.(i).(j)
            done)
        basis;
      check_finite_row ~what:"objective" obj;
      (match run_phase rows obj basis ~ncols ~allowed:(fun _ -> true) ~budget with
       | `Unbounded -> raise (Numerical "phase-1 objective looked unbounded")
       | `Optimal -> ());
      (* obj.(ncols) holds -(phase-1 value). *)
      if -.obj.(ncols) > eps_feas then raise (Infeasible_at (Array.copy basis));
      (* Drive remaining artificials out of the basis where the pivot
         element is numerically usable; rows where it is not are either
         redundant or will be caught by the repair step. *)
      Array.iteri
        (fun r c ->
          if c >= art_start then begin
            let found = ref (-1) in
            (try
               for j = 0 to art_start - 1 do
                 if Float.abs rows.(r).(j) > eps_pivot then begin
                   found := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !found >= 0 then begin
              decr budget;
              if !budget <= 0 then raise (Numerical "pivot budget exhausted");
              pivot rows obj basis ~ncols r !found
            end
          end)
        basis
    end;
    (* Phase 2: the real objective. *)
    let obj = Array.make (ncols + 1) 0.0 in
    Array.iteri (fun j c -> obj.(j) <- Rat.to_float c) p.Lp_layout.objective;
    check_finite_row ~what:"objective" obj;
    Array.iteri
      (fun i c ->
        if c < ncols && obj.(c) <> 0.0 then begin
          let f = obj.(c) in
          for j = 0 to ncols do
            obj.(j) <- obj.(j) -. (f *. rows.(i).(j))
          done
        end)
      basis;
    check_finite_row ~what:"objective" obj;
    let allowed j = j < art_start in
    match run_phase rows obj basis ~ncols ~allowed ~budget with
    | `Unbounded -> Unbounded_direction
    | `Optimal -> Optimal_basis (Array.copy basis)
  with
  | Numerical msg -> Bagcqc_error.overflow ~where msg
  | Infeasible_at basis -> Infeasible_basis basis

(* ---------------- incremental feasibility tableau ----------------

   The float probe of the lazy Γn loop (DESIGN.md §4i): the system
   {x ≥ 0, A·x ≤ b} grown one row at a time and re-solved by the dual
   simplex from the previous basis.  Column layout: structural columns
   [0, num_vars), then the slack of row i at [num_vars + i] — every row
   is an inequality, so there are no artificial columns and appending a
   row never renumbers an existing column.  The objective is zero, so
   every basis is dual feasible: the all-slack start needs no phase 1,
   the rows violated by the current basis (the E_ℓ ≤ −1 targets, then
   freshly appended cuts) simply leave first, and each round costs the
   pivots its new rows make necessary rather than a cold solve.

   Rows are unboxed [float array]s of a shared allocated width, pivoted
   in place over the nonzero columns of the pivot row only.  Like
   {!propose}, nothing here is a verdict: a [Point] only steers which
   cuts enter the working set, and the multipliers of an [Infeasible]
   claim only choose the structure an exact Farkas repair is attempted
   on ({!Repair.farkas}). *)

module Tableau = struct
  type claim =
    | Point of float array
    | Infeasible of (int * float) list
    | Unknown

  type t = {
    num_vars : int;
    mutable m : int;
    mutable width : int;  (* allocated row length, ≥ num_vars + m *)
    mutable rows : float array array;
    mutable rhs : float array;
    mutable basis : int array;  (* row → basic column *)
    mutable row_of : int array;  (* column → basic row, or −1 *)
    mutable nz : int array;  (* work buffer: nonzero columns of a pivot row *)
    mutable broken : bool;  (* a non-finite entry was seen *)
  }

  let c_probes = Obs.Metrics.counter "lp.float.probes"
  let c_pivots = Obs.Metrics.counter "lp.float.pivots"

  (* Entries this close to zero after an update are rounding residue of
     an exact cancellation; flushing them keeps rows sparse and keeps
     later ratio choices from dividing by noise. *)
  let eps_drop = 1e-11

  (* A row counts as violated below [−eps_row]: tighter than the
     separation scan's violation threshold, so a cut the scan reports
     violated is always one the probe saw as violated too. *)
  let eps_row = 1e-9

  let create ~num_vars =
    let width = num_vars + 16 in
    { num_vars; m = 0; width; rows = [||]; rhs = [||]; basis = [||];
      row_of = Array.make width (-1); nz = Array.make width 0;
      broken = false }

  let grow_array a n fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Make room for one more row and its slack column. *)
  let reserve t =
    let ncols = t.num_vars + t.m + 1 in
    if ncols > t.width then begin
      let width = 2 * t.width in
      t.rows <- Array.map (fun r -> grow_array r width 0.0) t.rows;
      t.row_of <- grow_array t.row_of width (-1);
      t.nz <- Array.make width 0;
      t.width <- width
    end;
    if t.m >= Array.length t.rows then begin
      let cap = max 16 (2 * t.m) in
      t.rows <- grow_array t.rows cap [||];
      t.rhs <- grow_array t.rhs cap 0.0;
      t.basis <- grow_array t.basis cap (-1)
    end

  (* target ← target − f·src over src's nonzero columns, then zero the
     eliminated column exactly. *)
  let eliminate ~ncols target src c f =
    for j = 0 to ncols - 1 do
      let s = Array.unsafe_get src j in
      if s <> 0.0 then begin
        let v = Array.unsafe_get target j -. (f *. s) in
        Array.unsafe_set target j (if Float.abs v < eps_drop then 0.0 else v)
      end
    done;
    target.(c) <- 0.0

  let add_le t cols vals rhs =
    reserve t;
    let r = t.m in
    let slack = t.num_vars + r in
    let row = Array.make t.width 0.0 in
    let b = ref rhs in
    if not (Float.is_finite rhs) then t.broken <- true;
    Array.iteri
      (fun k c ->
        let v = vals.(k) in
        if not (Float.is_finite v) then t.broken <- true;
        row.(c) <- row.(c) +. v)
      cols;
    (* Express the row in the current basis: only the structural columns
       it mentions can be basic with a nonzero entry (each tableau row is
       zero on every other basic column), so at most |cols| updates. *)
    Array.iter
      (fun c ->
        let k = t.row_of.(c) in
        let f = row.(c) in
        if k >= 0 && f <> 0.0 then begin
          eliminate ~ncols:slack row t.rows.(k) c f;
          b := !b -. (f *. t.rhs.(k))
        end)
      cols;
    row.(slack) <- 1.0;
    t.rows.(r) <- row;
    t.rhs.(r) <- !b;
    t.basis.(r) <- slack;
    t.row_of.(slack) <- r;
    t.m <- r + 1

  let pivot t ~ncols r c =
    Lp_layout.note_pivot ();
    let row = t.rows.(r) in
    let inv_p = 1.0 /. row.(c) in
    let nnz = ref 0 in
    for j = 0 to ncols - 1 do
      let v = Array.unsafe_get row j in
      if v <> 0.0 then begin
        let v = v *. inv_p in
        if not (Float.is_finite v) then raise (Numerical "non-finite pivot-row entry");
        Array.unsafe_set row j v;
        t.nz.(!nnz) <- j;
        incr nnz
      end
    done;
    row.(c) <- 1.0;
    let br = t.rhs.(r) *. inv_p in
    t.rhs.(r) <- br;
    if not (Float.is_finite br) then raise (Numerical "non-finite right-hand side");
    let nnz = !nnz in
    for i = 0 to t.m - 1 do
      if i <> r then begin
        let target = t.rows.(i) in
        let f = target.(c) in
        if f <> 0.0 then begin
          for k = 0 to nnz - 1 do
            let j = Array.unsafe_get t.nz k in
            let v = Array.unsafe_get target j -. (f *. Array.unsafe_get row j) in
            if not (Float.is_finite v) then raise (Numerical "non-finite entry");
            Array.unsafe_set target j (if Float.abs v < eps_drop then 0.0 else v)
          done;
          target.(c) <- 0.0;
          let bi = t.rhs.(i) -. (f *. br) in
          if not (Float.is_finite bi) then raise (Numerical "non-finite right-hand side");
          t.rhs.(i) <- (if Float.abs bi < eps_drop then 0.0 else bi)
        end
      end
    done;
    t.row_of.(t.basis.(r)) <- -1;
    t.basis.(r) <- c;
    t.row_of.(c) <- r

  (* The Farkas row of an infeasibility claim, as (original row index,
     multiplier) pairs: row r of the tableau is Σ_i y_i·(row i with its
     slack), and y_i is read off slack column i — the nonbasic slacks
     with a nonzero entry, plus the slack basic in r itself (coefficient
     1).  Every other basic slack has a zero entry. *)
  let farkas_row t r =
    let row = t.rows.(r) in
    let acc = ref [] in
    for i = t.m - 1 downto 0 do
      let s = t.num_vars + i in
      if t.basis.(r) = s then acc := (i, 1.0) :: !acc
      else if t.row_of.(s) < 0 && Float.abs row.(s) > eps_pivot then
        acc := (i, row.(s)) :: !acc
    done;
    !acc

  let point t =
    let x = Array.make t.num_vars 0.0 in
    for r = 0 to t.m - 1 do
      let c = t.basis.(r) in
      if c < t.num_vars then x.(c) <- Float.max 0.0 t.rhs.(r)
    done;
    x

  (* Dual simplex under a zero objective: every ratio test ties at 0,
     so the leaving row is the most violated one and the entering column
     the largest-magnitude negative entry of that row (the most stable
     pivot).  Progress is measured by the total infeasibility; after
     [degenerate_limit] pivots without a decrease both choices switch to
     Bland's smallest-index rule, under which the dual simplex cannot
     cycle.  The pivot budget catches what tolerances hide from Bland. *)
  let reoptimize t =
    Obs.Metrics.bump c_probes;
    let pivots = ref 0 in
    let result =
      if t.broken then Unknown
      else
        try
          let ncols = t.num_vars + t.m in
          let budget = 200 + (50 * (t.m + ncols)) in
          let bland = ref false in
          let degenerate_run = ref 0 in
          let last_infeas = ref infinity in
          let rec iterate () =
            let leave = ref (-1) and infeas = ref 0.0 in
            for i = 0 to t.m - 1 do
              let b = t.rhs.(i) in
              if b < -.eps_row then begin
                infeas := !infeas -. b;
                if !leave < 0
                   || (if !bland then t.basis.(i) < t.basis.(!leave)
                       else b < t.rhs.(!leave))
                then leave := i
              end
            done;
            if !leave < 0 then Point (point t)
            else begin
              if !infeas < !last_infeas -. eps_row then degenerate_run := 0
              else begin
                incr degenerate_run;
                if !degenerate_run > degenerate_limit then bland := true
              end;
              last_infeas := Float.min !last_infeas !infeas;
              let r = !leave in
              let row = t.rows.(r) in
              let enter = ref (-1) and best = ref (-.eps_pivot) in
              (try
                 for j = 0 to ncols - 1 do
                   let a = Array.unsafe_get row j in
                   if a < !best && t.row_of.(j) < 0 then begin
                     enter := j;
                     if !bland then raise Exit;
                     best := a
                   end
                 done
               with Exit -> ());
              if !enter < 0 then Infeasible (farkas_row t r)
              else if !pivots >= budget then raise (Numerical "pivot budget")
              else begin
                incr pivots;
                pivot t ~ncols r !enter;
                iterate ()
              end
            end
          in
          iterate ()
        with Numerical _ ->
          t.broken <- true;
          Unknown
    in
    Obs.Metrics.add c_pivots !pivots;
    result
end
