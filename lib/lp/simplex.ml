(* Two-phase primal simplex over exact rationals: the one LP engine of
   this library.  The tests and the [simplex] fuzz suite hold it to a
   dense tableau reference ([Bagcqc_check.Dense_simplex]).

   The solver exploits the structure of the entropic LPs this project
   actually solves — elemental Shannon inequalities have at most 4
   nonzero coefficients, almost all ±1/±2 — in three ways:

   - constraints are ingested as sorted [(col, coeff)] pairs, so building
     the tableau never materializes the zero coefficients, and the rows
     themselves are put in one fixed order first ([layout_of]), so the
     pivot path does not depend on how a builder listed them;
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
module Obs = Bagcqc_obs

type op = Le | Ge | Eq

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

type outcome =
  | Optimal of Rat.t * Rat.t array
  | Unbounded
  | Infeasible

(* Per-domain pivot odometer, shared by the exact simplex and the float
   probe ({!Fsimplex}): bumped once per Gaussian pivot.  Callers read it
   as a delta around a solve, which only stays exact if no other
   domain's pivots leak into the window — hence one cell per domain
   rather than one shared counter. *)
let pivots_key = Domain.DLS.new_key (fun () -> ref 0)
let pivot_count () = !(Domain.DLS.get pivots_key)
let note_pivot () = incr (Domain.DLS.get pivots_key)

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

(* The ingestion order, a pivoting policy (see the .mli): Le rows, then
   Ge, then Eq; within an op by right-hand side, then by column pattern,
   then by coefficients.  Compared on the rows as the builder wrote
   them, before any sign flip. *)
let op_rank = function Le -> 0 | Ge -> 1 | Eq -> 2

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

(* Normalized ingestion: order the rows, flip them to non-negative rhs
   and compute the column layout — [0, num_vars) structural, then one
   slack/surplus column per inequality, then one artificial column per
   Ge/Eq row, each assigned in row order. *)
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
    Array.of_list (List.sort compare_row constraints)
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

(* ---- observability ----
   Per-solve spans, the [lp.solves]/[lp.pivots] counters, and two
   histograms: pivots per solve, and the bigint bit-width of pivot
   elements (numerator + denominator bits), the quantity that actually
   prices a pivot under exact arithmetic.  The bit-width probe runs on
   the per-pivot hot path, so it is gated on the tracing switch and
   sampled every k-th pivot. *)

let c_lp_solves = Obs.Metrics.counter "lp.solves"
let c_lp_pivots = Obs.Metrics.counter "lp.pivots"
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
  (* No LP is cached: every solve is a miss, the deepest tier the access
     log reports for a request. *)
  Obs.Span.add_attr "cache" (Obs.Span.Str "miss");
  let p0 = pivot_count () in
  let outcome = try Sparse_impl.solve p with Exit -> Infeasible in
  let dp = pivot_count () - p0 in
  Obs.Metrics.bump c_lp_solves;
  Obs.Metrics.add c_lp_pivots dp;
  if !Obs.Runtime.enabled then begin
    Obs.Metrics.observe h_pivots_per_solve dp;
    Obs.Span.add_attr "pivots" (Obs.Span.Int dp);
    Obs.Span.add_attr "outcome" (Obs.Span.Str (outcome_name outcome))
  end;
  outcome

let feasibility ~num_vars constraints =
  { num_vars; objective = Array.make num_vars Rat.zero; constraints }

let feasible p =
  match solve p with
  | Optimal (_, x) -> Some x
  | Infeasible -> None
  | Unbounded ->
    (* A constant objective cannot be unbounded below; this verdict can
       only come from a simplex bug. *)
    Bagcqc_error.invariant ~where:"Simplex.feasible"
      "constant (zero) objective reported unbounded"
