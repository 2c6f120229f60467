(* Two-phase primal simplex over exact rationals: the one LP engine of
   this library.  The tests and the [simplex] fuzz suite hold it to a
   dense tableau reference ([Bagcqc_check.Dense_simplex]).

   The solver exploits the structure of the entropic LPs this project
   actually solves — elemental Shannon inequalities have at most 4
   nonzero coefficients, almost all ±1/±2 — in three ways:

   - constraints are ingested as sorted [(col, coeff)] pairs, so building
     the tableau never materializes the zero coefficients;
   - each Gaussian pivot first collects the nonzero columns of the pivot
     row and then eliminates only those columns from the touched rows
     (rows with a zero entry in the pivot column are never visited at
     all), instead of re-walking all [ncols + 1] columns of every row;
   - entering columns are found by block partial pricing: reduced costs
     are scanned in fixed-size blocks starting after the previous entering
     column, and the most negative eligible cost of the first block that
     has one is taken.  Optimality is only declared after a full wrap
     finds no eligible column.

   Bland's anti-cycling fallback applies: after a long run of
   degenerate pivots the pricing rule permanently switches to smallest
   eligible index, which guarantees termination.  [basis.(r)] is the
   column basic in row [r]; row operations keep basic columns at
   identity. *)

open Bagcqc_num
open Rat.Infix

(* Problem representation and normalized ingestion live in {!Lp_layout};
   re-exported here so callers keep a single entry point. *)
type op = Lp_layout.op = Le | Ge | Eq

type constr = Lp_layout.constr = {
  cols : int array;
  vals : Rat.t array;
  width : int;
  op : op;
  rhs : Rat.t;
}

type problem = Lp_layout.problem = {
  num_vars : int;
  objective : Rat.t array;
  constraints : constr list;
}

type outcome =
  | Optimal of Rat.t * Rat.t array
  | Unbounded
  | Infeasible

(* Per-domain pivot odometer (see the .mli): the cell itself lives in
   {!Lp_layout} so the float probe feeds the same meter. *)
let pivot_count = Lp_layout.pivot_count
let note_pivot = Lp_layout.note_pivot

(* ---- observability ----
   Per-solve spans and two histograms: pivots per solve, and the bigint
   bit-width of pivot elements (numerator + denominator bits), the
   quantity that actually prices a pivot under exact arithmetic.  The
   bit-width probe runs on the per-pivot hot path, so it is gated on the
   tracing switch and sampled every k-th pivot. *)

module Obs = Bagcqc_obs

let h_pivot_bits = Obs.Metrics.histogram "lp.pivot_bits"
let h_pivots_per_solve = Obs.Metrics.histogram "lp.pivots_per_solve"
let pivot_tick_key = Domain.DLS.new_key (fun () -> ref 0)

(* Sample the 1st, (k+1)-th, (2k+1)-th, ... pivot so short solves still
   contribute at least one observation.  The tick is per-domain so the
   sampling phase of concurrent solves stays deterministic per solve
   stream. *)
let observe_pivot_magnitude (p : Rat.t) =
  if !Obs.Runtime.enabled then begin
    let pivot_tick = Domain.DLS.get pivot_tick_key in
    incr pivot_tick;
    if (!pivot_tick - 1) mod !Obs.Runtime.sample_every = 0 then
      Obs.Metrics.observe h_pivot_bits
        (Bigint.num_bits (Rat.num p) + Bigint.num_bits (Rat.den p))
  end

let constr = Lp_layout.constr
let sparse_constr = Lp_layout.sparse_constr
let validate = Lp_layout.validate

type layout = Lp_layout.layout = {
  m : int;
  ncols : int;
  art_start : int;
  num_art : int;
  rows_data : (int array * Rat.t array * op * Rat.t) array;
}

let layout_of = Lp_layout.layout_of

(* ================================================================== *)
(* Sparse solver: nonzero-driven pivots and block partial pricing.      *)
(* ================================================================== *)

module Sparse_impl = struct
  type tableau = {
    rows : Rat.t array array;
    mutable obj : Rat.t array;
    basis : int array;
    ncols : int;
    nzbuf : int array; (* scratch: nonzero columns of the pivot row *)
  }

  let rhs_col t = t.ncols

  (* Gaussian pivot on (row, col) that touches only the nonzero columns of
     the pivot row.  Rows with a zero coefficient in the pivot column are
     untouched; every touched row is updated only at the pivot row's
     nonzeros — all other columns are unchanged by the elimination [target.(j) <- target.(j) - f * row.(j)] anyway. *)
  let pivot t r c =
    note_pivot ();
    let row = t.rows.(r) in
    let p = row.(c) in
    assert (not (Rat.is_zero p));
    observe_pivot_magnitude p;
    let scale = not (Rat.equal p Rat.one) in
    let inv_p = if scale then Rat.inv p else Rat.one in
    let nnz = ref 0 in
    for j = 0 to t.ncols do
      if not (Rat.is_zero row.(j)) then begin
        if scale then row.(j) <- row.(j) */ inv_p;
        t.nzbuf.(!nnz) <- j;
        incr nnz
      end
    done;
    let nnz = !nnz in
    let eliminate target =
      let f = target.(c) in
      if not (Rat.is_zero f) then
        for k = 0 to nnz - 1 do
          let j = t.nzbuf.(k) in
          target.(j) <- target.(j) -/ (f */ row.(j))
        done
    in
    let rows = t.rows in
    for i = 0 to Array.length rows - 1 do
      if i <> r then eliminate rows.(i)
    done;
    eliminate t.obj;
    t.basis.(r) <- c

  let degenerate_limit = 60
  let price_block = 48

  (* Block partial pricing: scan reduced costs in blocks of [price_block]
     columns starting just after the previous entering column; return the
     most negative eligible cost of the first block containing one.  A
     full wrap with no hit proves optimality (every column was priced). *)
  let price t ~allowed ~cursor =
    let n = t.ncols in
    let entering = ref (-1) in
    let best = ref Rat.zero in
    let scanned = ref 0 in
    let j = ref (cursor mod max 1 n) in
    (try
       while !scanned < n do
         let stop = Stdlib.min (!scanned + price_block) n in
         while !scanned < stop do
           let col = !j in
           if allowed col && Rat.sign t.obj.(col) < 0
              && (!entering < 0 || Rat.compare t.obj.(col) !best < 0)
           then begin
             best := t.obj.(col);
             entering := col
           end;
           incr scanned;
           j := if col + 1 >= n then 0 else col + 1
         done;
         if !entering >= 0 then raise Exit
       done
     with Exit -> ());
    !entering

  let run_phase t ~allowed =
    let m = Array.length t.rows in
    let bland = ref false in
    let degenerate_run = ref 0 in
    let cursor = ref 0 in
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
      else entering := price t ~allowed ~cursor:!cursor;
      if !entering < 0 then `Optimal
      else begin
        let c = !entering in
        cursor := c + 1;
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

  let solve ({ num_vars; objective; _ } as p) =
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
    let t =
      { rows; obj = Array.make (ncols + 1) Rat.zero; basis; ncols;
        nzbuf = Array.make (ncols + 1) 0 }
    in
    (* Phase 1: minimize the sum of artificials. *)
    if num_art > 0 then begin
      let obj = Array.make (ncols + 1) Rat.zero in
      for j = art_start to ncols - 1 do
        obj.(j) <- Rat.one
      done;
      t.obj <- obj;
      (* Price out basic artificials; subtracting whole rows is a one-off,
         so iterate their sparse support only. *)
      Array.iteri
        (fun i c ->
          if c >= art_start then
            for j = 0 to ncols do
              if not (Rat.is_zero t.rows.(i).(j)) then
                obj.(j) <- obj.(j) -/ t.rows.(i).(j)
            done)
        t.basis;
      (match run_phase t ~allowed:(fun _ -> true) with
       | `Unbounded ->
         (* The phase-1 objective (a sum of non-negative artificials) is
           bounded below by 0; an unbounded verdict means a pivoting bug. *)
         Bagcqc_error.invariant ~where:"Simplex.Sparse_impl.solve"
           "phase-1 objective reported unbounded"
       | `Optimal -> ());
      if Rat.sign t.obj.(ncols) < 0 then raise Exit
    end;
    (* Drive remaining artificials out of the basis where possible. *)
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
    (* Phase 2: the real objective. *)
    let obj = Array.make (ncols + 1) Rat.zero in
    Array.blit objective 0 obj 0 num_vars;
    t.obj <- obj;
    Array.iteri
      (fun i c ->
        if c < ncols && not (Rat.is_zero obj.(c)) then begin
          let f = obj.(c) in
          for j = 0 to ncols do
            if not (Rat.is_zero t.rows.(i).(j)) then
              obj.(j) <- obj.(j) -/ (f */ t.rows.(i).(j))
          done
        end)
      t.basis;
    let allowed j = j < art_start in
    match run_phase t ~allowed with
    | `Unbounded -> Unbounded
    | `Optimal -> Optimal (Rat.neg t.obj.(ncols), solution_of t ~num_vars)
end

(* ================================================================== *)
(* Public interface.                                                    *)
(* ================================================================== *)

let outcome_name = function
  | Optimal _ -> "optimal"
  | Unbounded -> "unbounded"
  | Infeasible -> "infeasible"

let solve p =
  validate p;
  Obs.Span.with_span ~name:"simplex.solve"
    ~attrs:
      [ ("rows", Obs.Span.Int (List.length p.constraints));
        ("vars", Obs.Span.Int p.num_vars) ]
  @@ fun () ->
  let p0 = pivot_count () in
  let outcome = try Sparse_impl.solve p with Exit -> Infeasible in
  if !Obs.Runtime.enabled then begin
    let dp = pivot_count () - p0 in
    Obs.Metrics.observe h_pivots_per_solve dp;
    Obs.Span.add_attr "pivots" (Obs.Span.Int dp);
    Obs.Span.add_attr "outcome" (Obs.Span.Str (outcome_name outcome))
  end;
  outcome

let feasible ~num_vars constraints =
  match solve { num_vars; objective = Array.make num_vars Rat.zero; constraints } with
  | Optimal (_, x) -> Some x
  | Infeasible -> None
  | Unbounded ->
    Bagcqc_error.invariant ~where:"Simplex.feasible"
      "constant (zero) objective reported unbounded"

let maximize p =
  match solve { p with objective = Array.map Rat.neg p.objective } with
  | Optimal (v, x) -> Optimal (Rat.neg v, x)
  | (Unbounded | Infeasible) as o -> o
