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
   simplex from the previous basis.  Variables: structurals
   [0, num_vars), then the slack of row i at [num_vars + i] — every row
   is an inequality, so there are no artificial columns and appending a
   row never renumbers a variable.  The objective is zero, so every
   basis is dual feasible: the all-slack start needs no phase 1, the
   rows violated by the current basis (the E_ℓ ≤ −1 targets, then
   freshly appended cuts) simply leave first, and each round costs the
   pivots its new rows make necessary rather than a cold solve.

   Dictionary (condensed) form: row r reads
     x_{basic r} + Σ_k T[r][k]·x_{nonbasic k} = rhs[r],
   and exactly [num_vars] variables are nonbasic at any time, so every
   row is [num_vars] floats wide whatever the row count.  Rows live in
   one flat row-major [float array] whose capacity doubles in rows only;
   [pos] sends a basic variable to its row and a nonbasic one to its
   column.  Like {!propose}, nothing here is a verdict: a [Point] only
   steers which cuts enter the working set, and the multipliers of an
   [Infeasible] claim only choose the structure an exact Farkas repair
   is attempted on ({!Repair.farkas}). *)

module Tableau = struct
  type claim =
    | Point of float array
    | Infeasible of (int * float) list
    | Unknown

  type t = {
    num_vars : int;  (* also the row width: the nonbasic count *)
    mutable m : int;
    mutable a : float array;  (* row r at [r·num_vars, (r+1)·num_vars) *)
    mutable rhs : float array;
    mutable basic : int array;  (* row → basic variable *)
    nonbasic : int array;  (* column → nonbasic variable *)
    mutable pos : int array;  (* variable → row r ≥ 0, or column k as −k−1 *)
    nz : int array;  (* work buffer: nonzero columns of a pivot row *)
    mutable broken : bool;  (* a non-finite entry was seen *)
  }

  let c_probes = Obs.Metrics.counter "lp.float.probes"
  let c_pivots = Obs.Metrics.counter "lp.float.pivots"
  let h_probe_pivots = Obs.Metrics.histogram "lp.float.probe_pivots"

  (* Entries this close to zero after an update are rounding residue of
     an exact cancellation; flushing them keeps rows sparse and keeps
     later ratio choices from dividing by noise. *)
  let eps_drop = 1e-11

  (* A row counts as violated below [−eps_row]: tighter than the
     separation scan's violation threshold, so a cut the scan reports
     violated is always one the probe saw as violated too. *)
  let eps_row = 1e-9

  let create ~num_vars =
    let cap = 16 in
    { num_vars; m = 0; a = Array.make (cap * num_vars) 0.0;
      rhs = Array.make cap 0.0; basic = Array.make cap (-1);
      nonbasic = Array.init num_vars Fun.id;
      pos = Array.append (Array.init num_vars (fun v -> -v - 1)) (Array.make cap 0);
      nz = Array.make num_vars 0; broken = false }

  let grow_array a n fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Make room for one more row and its slack. *)
  let reserve t =
    let cap = Array.length t.rhs in
    if t.m >= cap then begin
      let cap = 2 * cap in
      t.a <- grow_array t.a (cap * t.num_vars) 0.0;
      t.rhs <- grow_array t.rhs cap 0.0;
      t.basic <- grow_array t.basic cap (-1);
      t.pos <- grow_array t.pos (t.num_vars + cap) 0
    end

  (* Row r ← row r − f·(row q), without its right-hand side. *)
  let sub_row t r q f =
    let w = t.num_vars in
    let a = t.a and ro = r * w and qo = q * w in
    for k = 0 to w - 1 do
      let s = Array.unsafe_get a (qo + k) in
      if s <> 0.0 then begin
        let v = Array.unsafe_get a (ro + k) -. (f *. s) in
        Array.unsafe_set a (ro + k) (if Float.abs v < eps_drop then 0.0 else v)
      end
    done

  (* The new row's slack is basic in it.  A nonbasic structural adds its
     coefficient in place; a basic one is substituted by its row — at
     most |cols| row operations. *)
  let add_le t cols vals rhs =
    reserve t;
    let r = t.m and w = t.num_vars in
    let b = ref rhs in
    if not (Float.is_finite rhs) then t.broken <- true;
    Array.iteri
      (fun i c ->
        let v = vals.(i) in
        if not (Float.is_finite v) then t.broken <- true;
        let p = t.pos.(c) in
        if p < 0 then begin
          let o = (r * w) - p - 1 in
          t.a.(o) <- t.a.(o) +. v
        end
        else if v <> 0.0 then begin
          sub_row t r p v;
          b := !b -. (v *. t.rhs.(p))
        end)
      cols;
    t.rhs.(r) <- !b;
    t.basic.(r) <- w + r;
    t.pos.(w + r) <- r;
    t.m <- r + 1

  (* Exchange basic(r) with nonbasic(k): row r is solved for the entering
     variable, column k takes the leaving one, and every other row with
     f = T[i][k] ≠ 0 becomes row i − f·(new row r), so T[i][k] = −f/p. *)
  let pivot t r k =
    Lp_layout.note_pivot ();
    let w = t.num_vars and a = t.a in
    let ro = r * w in
    let inv_p = 1.0 /. a.(ro + k) in
    a.(ro + k) <- 1.0 (* the leaving variable's entry, inv_p once scaled *);
    let nnz = ref 0 in
    for j = 0 to w - 1 do
      let v = Array.unsafe_get a (ro + j) in
      if v <> 0.0 then begin
        let v = v *. inv_p in
        if not (Float.is_finite v) then raise (Numerical "non-finite pivot-row entry");
        Array.unsafe_set a (ro + j) v;
        t.nz.(!nnz) <- j;
        incr nnz
      end
    done;
    let br = t.rhs.(r) *. inv_p in
    t.rhs.(r) <- br;
    if not (Float.is_finite br) then raise (Numerical "non-finite right-hand side");
    let nnz = !nnz and nz = t.nz and rhs = t.rhs in
    for i = 0 to t.m - 1 do
      let io = i * w in
      let f = Array.unsafe_get a (io + k) in
      if f <> 0.0 && i <> r then begin
        Array.unsafe_set a (io + k) 0.0;
        for q = 0 to nnz - 1 do
          let j = Array.unsafe_get nz q in
          let v = Array.unsafe_get a (io + j) -. (f *. Array.unsafe_get a (ro + j)) in
          if not (Float.is_finite v) then raise (Numerical "non-finite entry");
          Array.unsafe_set a (io + j) (if Float.abs v < eps_drop then 0.0 else v)
        done;
        let bi = rhs.(i) -. (f *. br) in
        if not (Float.is_finite bi) then raise (Numerical "non-finite right-hand side");
        rhs.(i) <- (if Float.abs bi < eps_drop then 0.0 else bi)
      end
    done;
    let leaving = t.basic.(r) and entering = t.nonbasic.(k) in
    t.basic.(r) <- entering;
    t.pos.(entering) <- r;
    t.nonbasic.(k) <- leaving;
    t.pos.(leaving) <- -k - 1

  (* The Farkas row of an infeasibility claim, as (original row index,
     multiplier) pairs: row r is Σ_i y_i·(row i with its slack), and y_i
     is the coefficient of slack i in it — 1 if the slack is basic in r,
     [T[r][k]] if it is nonbasic at column k, 0 if basic elsewhere. *)
  let farkas_row t r =
    let acc = ref [] in
    for i = t.m - 1 downto 0 do
      let p = t.pos.(t.num_vars + i) in
      if p = r then acc := (i, 1.0) :: !acc
      else if p < 0 then begin
        let y = t.a.((r * t.num_vars) - p - 1) in
        if Float.abs y > eps_pivot then acc := (i, y) :: !acc
      end
    done;
    !acc

  let point t =
    let x = Array.make t.num_vars 0.0 in
    for r = 0 to t.m - 1 do
      let v = t.basic.(r) in
      if v < t.num_vars then x.(v) <- Float.max 0.0 t.rhs.(r)
    done;
    x

  (* Dual simplex under a zero objective: every ratio test ties at 0,
     so the leaving row is the most violated one and the entering column
     its most negative entry (the most stable pivot), ties to the
     smallest variable id.  There is no anti-cycling rule: the pivot
     budget is the only guard, and exhausting it yields [Unknown], which
     the caller answers with an exact round. *)
  let reoptimize t =
    Obs.Metrics.bump c_probes;
    let pivots = ref 0 in
    let result =
      if t.broken then Unknown
      else
        try
          let w = t.num_vars in
          let budget = 200 + (50 * (t.m + w + t.m)) (* rows + variables *) in
          let rec iterate () =
            let leave = ref (-1) in
            for i = 0 to t.m - 1 do
              let b = t.rhs.(i) in
              if b < -.eps_row && (!leave < 0 || b < t.rhs.(!leave)) then leave := i
            done;
            if !leave < 0 then Point (point t)
            else begin
              let r = !leave in
              let ro = r * w in
              let enter = ref (-1) and best = ref (-.eps_pivot) in
              for k = 0 to w - 1 do
                let v = Array.unsafe_get t.a (ro + k) in
                if v < !best
                   || (v = !best && !enter >= 0 && t.nonbasic.(k) < t.nonbasic.(!enter))
                then begin
                  enter := k;
                  best := v
                end
              done;
              if !enter < 0 then Infeasible (farkas_row t r)
              else if !pivots >= budget then raise (Numerical "pivot budget")
              else begin
                incr pivots;
                pivot t r !enter;
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
    Obs.Metrics.observe h_probe_pivots !pivots;
    result
end
