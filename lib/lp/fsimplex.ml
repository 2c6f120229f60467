(* Floating-point simplex: the incremental probe tableau of the lazy Γn
   loop (DESIGN.md §4i).  It never answers a query by itself — its
   points steer which cuts are added, and its Farkas rows only choose
   the structure an exact repair ({!Repair.farkas}) is attempted on.

   Total-error discipline: floats fail in ways exact rationals cannot —
   overflow to [infinity], NaN out of inf/inf pivots, and cycling that
   no rule can see through tolerances.  All three surface as [Unknown],
   never as a NaN silently poisoning the pricing loop (which would make
   every comparison false and stall the probe): coefficients are
   checked finite on ingestion, the touched entries after every pivot,
   and a pivot-count cap bounds the search. *)

module Obs = Bagcqc_obs

(* A pivot element must clear [eps_pivot] to be usable.  A conventional
   simplex tolerance: it affects which claim the probe makes, never a
   verdict. *)
let eps_pivot = 1e-9

exception Numerical of string

(* The system
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
   column. *)

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
    Simplex.note_pivot ();
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
