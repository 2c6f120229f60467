(* Tests for the exact simplex [solve], its agreement with the dense
   oracle, and the float probe tableau of the lazy Γn loop. *)

open Bagcqc_num
open Bagcqc_lp
module Dense_simplex = Bagcqc_check.Dense_simplex

let q = Rat.of_int
let qa l = Array.of_list (List.map q l)
let qf a b = Rat.of_ints a b

let rt = Alcotest.testable Rat.pp Rat.equal

let check_optimal msg expected = function
  | Simplex.Optimal (v, _) -> Alcotest.check rt msg expected v
  | Simplex.Unbounded -> Alcotest.failf "%s: unexpected Unbounded" msg
  | Simplex.Infeasible -> Alcotest.failf "%s: unexpected Infeasible" msg

let test_basic_min () =
  (* min x + y  s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
     Optimum at intersection: x = 8/5, y = 6/5, value = 14/5. *)
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [1; 1];
      constraints =
        [ constr (qa [1; 2]) Ge (q 4);
          constr (qa [3; 1]) Ge (q 6) ];
    }
  in
  check_optimal "min value" (qf 14 5) (Simplex.solve p);
  (match Simplex.solve p with
   | Simplex.Optimal (_, x) ->
     Alcotest.check rt "x" (qf 8 5) x.(0);
     Alcotest.check rt "y" (qf 6 5) x.(1)
   | _ -> Alcotest.fail "expected optimal")

let test_basic_max () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: classic, opt 36. *)
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [3; 5];
      constraints =
        [ constr (qa [1; 0]) Le (q 4);
          constr (qa [0; 2]) Le (q 12);
          constr (qa [3; 2]) Le (q 18) ];
    }
  in
  (* A maximization is the minimization of the negated objective. *)
  check_optimal "max value, negated" (q (-36))
    (Simplex.solve { p with objective = Array.map Rat.neg p.objective })

let test_infeasible () =
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [1];
      constraints =
        [ constr (qa [1]) Ge (q 3);
          constr (qa [1]) Le (q 2) ];
    }
  in
  (match Simplex.solve p with
   | Simplex.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  (* min -x s.t. x >= 1: unbounded below. *)
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [-1];
      constraints = [ constr (qa [1]) Ge (q 1) ];
    }
  in
  (match Simplex.solve p with
   | Simplex.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

let test_equality () =
  (* min x + 2y s.t. x + y = 10, x - y = 2  =>  x = 6, y = 4, value 14. *)
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [1; 2];
      constraints =
        [ constr (qa [1; 1]) Eq (q 10);
          constr (qa [1; -1]) Eq (q 2) ];
    }
  in
  (match Simplex.solve p with
   | Simplex.Optimal (v, x) ->
     Alcotest.check rt "value" (q 14) v;
     Alcotest.check rt "x" (q 6) x.(0);
     Alcotest.check rt "y" (q 4) x.(1)
   | _ -> Alcotest.fail "expected optimal")

(* Beale's classic cycling example: Dantzig's rule cycles on it; Bland's
   rule must terminate.  min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 s.t. ... *)
let beale =
  Simplex.{
    num_vars = 4;
    objective = [| qf (-3) 4; q 150; qf (-1) 50; q 6 |];
    constraints =
      [ constr [| qf 1 4; q (-60); qf (-1) 25; q 9 |] Le Rat.zero;
        constr [| qf 1 2; q (-90); qf (-1) 50; q 3 |] Le Rat.zero;
        constr [| Rat.zero; Rat.zero; Rat.one; Rat.zero |] Le Rat.one ];
  }

let test_degenerate_cycling () =
  check_optimal "beale optimum" (qf (-1) 20) (Simplex.solve beale)

let test_negative_rhs () =
  (* Constraint given with negative rhs must be normalized correctly:
     -x <= -3  <=>  x >= 3. *)
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [1];
      constraints = [ constr (qa [-1]) Le (q (-3)) ];
    }
  in
  check_optimal "value" (q 3) (Simplex.solve p)

let test_zero_objective_feasibility () =
  (match
     Simplex.feasible
       (Simplex.feasibility ~num_vars:2
          [ Simplex.constr (qa [1; 1]) Simplex.Ge (q 2);
            Simplex.constr (qa [1; -1]) Simplex.Eq (q 0) ])
   with
   | Some x ->
     Alcotest.check rt "x = y" x.(0) x.(1);
     Alcotest.(check bool) "x + y >= 2" true
       Rat.(compare (add x.(0) x.(1)) (q 2) >= 0)
   | None -> Alcotest.fail "expected feasible");
  (match
     Simplex.feasible
       (Simplex.feasibility ~num_vars:1
          [ Simplex.constr (qa [1]) Simplex.Le (q (-1)) ])
   with
   | None -> ()
   | Some _ -> Alcotest.fail "expected infeasible (x >= 0 and x <= -1)")

(* Duplicate equality rows leave a zero artificial in the basis; the
   solver must cope. *)
let redundant_equalities =
  Simplex.{
    num_vars = 2;
    objective = qa [1; 1];
    constraints =
      [ constr (qa [1; 1]) Eq (q 4);
        constr (qa [2; 2]) Eq (q 8);
        constr (qa [1; 0]) Ge (q 1) ];
  }

let test_redundant_equalities () =
  check_optimal "value" (q 4) (Simplex.solve redundant_equalities)

(* The exact simplex and the dense oracle must each get the
   pivot-rule-sensitive fixtures right, including both non-optimal
   statuses. *)
let test_exact_solvers_on_fixtures () =
  let one_var op rhs obj =
    Simplex.{ num_vars = 1; objective = qa [ obj ];
              constraints = [ constr (qa [ 1 ]) op (q rhs) ] }
  in
  List.iter
    (fun (name, solve) ->
      check_optimal (name ^ ": beale") (qf (-1) 20) (solve beale);
      check_optimal (name ^ ": redundant equalities") (q 4)
        (solve redundant_equalities);
      (match solve (one_var Simplex.Ge 1 (-1)) with
       | Simplex.Unbounded -> ()
       | _ -> Alcotest.failf "%s: expected unbounded" name);
      match solve (one_var Simplex.Le (-1) 1) with
      | Simplex.Infeasible -> ()
      | _ -> Alcotest.failf "%s: expected infeasible" name)
    [ ("solve", Simplex.solve); ("dense", Dense_simplex.solve) ]

let test_dimension_mismatch () =
  let p =
    Simplex.{
      num_vars = 2;
      objective = qa [1];
      constraints = [];
    }
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Simplex.solve: objective length mismatch")
    (fun () -> ignore (Simplex.solve p))

(* Property: on random bounded LPs, the reported solution is feasible and
   attains the reported value; and it is no worse than a sample of random
   feasible points obtained by rounding. *)
let prop_solution_feasible =
  let gen =
    QCheck.Gen.(
      let* nv = int_range 1 4 in
      let* nc = int_range 1 5 in
      let* obj = list_repeat nv (int_range 0 9) in
      let* rows = list_repeat nc (list_repeat nv (int_range 0 5)) in
      let* rhss = list_repeat nc (int_range 1 20) in
      return (nv, obj, rows, rhss))
  in
  let print (nv, obj, rows, rhss) =
    Printf.sprintf "nv=%d obj=[%s] rows=%s rhs=[%s]" nv
      (String.concat ";" (List.map string_of_int obj))
      (String.concat "|"
         (List.map (fun r -> String.concat ";" (List.map string_of_int r)) rows))
      (String.concat ";" (List.map string_of_int rhss))
  in
  QCheck.Test.make ~name:"simplex solution is feasible and attains value" ~count:200
    (QCheck.make ~print gen)
    (fun (nv, obj, rows, rhss) ->
      (* min (non-negative objective) s.t. row·x >= rhs: feasible (large x)
         and bounded (objective >= 0 on x >= 0) unless some row is all
         zeros with positive rhs — then infeasible, also fine. *)
      let constraints =
        List.map2
          (fun row rhs -> Simplex.constr (qa row) Simplex.Ge (q rhs))
          rows rhss
      in
      let p = Simplex.{ num_vars = nv; objective = qa obj; constraints } in
      match Simplex.solve p with
      | Simplex.Unbounded -> false
      | Simplex.Infeasible ->
        (* Only possible when some all-zero row has rhs > 0. *)
        List.exists (fun row -> List.for_all (( = ) 0) row) rows
      | Simplex.Optimal (v, x) ->
        let dot r = Array.fold_left Rat.add Rat.zero (Array.mapi (fun i c -> Rat.mul c x.(i)) r) in
        let feas =
          List.for_all2
            (fun row rhs -> Rat.compare (dot (qa row)) (q rhs) >= 0)
            rows rhss
          && Array.for_all (fun xi -> Rat.sign xi >= 0) x
        in
        feas && Rat.equal v (dot (qa obj)))

(* Property: the exact sparse solver is a drop-in replacement for the dense
   reference implementation — same verdict and same optimal value on random
   LPs mixing Le/Ge/Eq rows with signed coefficients and right-hand sides
   (the mix produces feasible, infeasible, unbounded, and degenerate
   instances; optimal *points* may legitimately differ when the optimum
   face is not a vertex, so only values are compared) — and the sparse
   solver's optimal point is exactly feasible and attains its value. *)
let outcomes_agree a b =
  match a, b with
  | Simplex.Optimal (va, _), Simplex.Optimal (vb, _) -> Rat.equal va vb
  | Simplex.Unbounded, Simplex.Unbounded -> true
  | Simplex.Infeasible, Simplex.Infeasible -> true
  | _ -> false

let random_problem st =
  let rand_rat () =
    Rat.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4)
  in
  let nv = 1 + Random.State.int st 4 in
  let nc = 1 + Random.State.int st 6 in
  let constraints =
    List.init nc (fun _ ->
        let row = Array.init nv (fun _ -> rand_rat ()) in
        let op =
          match Random.State.int st 3 with
          | 0 -> Simplex.Le
          | 1 -> Simplex.Ge
          | _ -> Simplex.Eq
        in
        Simplex.constr row op (rand_rat ()))
  in
  Simplex.{ num_vars = nv;
            objective = Array.init nv (fun _ -> rand_rat ());
            constraints }

let dot row x =
  Array.fold_left Rat.add Rat.zero (Array.mapi (fun i c -> Rat.mul c x.(i)) row)

let point_attains (p : Simplex.problem) = function
  | Simplex.Optimal (v, x) ->
    Array.for_all (fun xi -> Rat.sign xi >= 0) x
    && List.for_all
         (fun (c : Simplex.constr) ->
           let lhs =
             Array.fold_left Rat.add Rat.zero
               (Array.mapi (fun k j -> Rat.mul c.vals.(k) x.(j)) c.cols)
           in
           match c.op with
           | Simplex.Le -> Rat.compare lhs c.rhs <= 0
           | Simplex.Ge -> Rat.compare lhs c.rhs >= 0
           | Simplex.Eq -> Rat.equal lhs c.rhs)
         p.constraints
    && Rat.equal v (dot p.objective x)
  | Simplex.Unbounded | Simplex.Infeasible -> true

let prop_engines_agree =
  QCheck.Test.make ~name:"sparse and dense engines agree" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = random_problem (Random.State.make [| seed |]) in
      let sparse = Simplex.solve p in
      outcomes_agree (Dense_simplex.solve p) sparse && point_attains p sparse)

(* Same LP given densely and as reversed (column, coefficient) pairs must
   solve identically under the production solver, and under the dense
   oracle vs the exact solver. *)
let prop_sparse_ingestion =
  QCheck.Test.make ~name:"sparse_constr matches constr" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed + 17 |] in
      let rand_rat () =
        Rat.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4)
      in
      let nv = 1 + Random.State.int st 4 in
      let nc = 1 + Random.State.int st 6 in
      let dense_rows, sparse_rows =
        List.split
          (List.init nc (fun _ ->
               let row = Array.init nv (fun _ -> rand_rat ()) in
               let op =
                 match Random.State.int st 3 with
                 | 0 -> Simplex.Le
                 | 1 -> Simplex.Ge
                 | _ -> Simplex.Eq
               in
               let rhs = rand_rat () in
               let pairs =
                 (* Reversed order: ingestion must not care about order. *)
                 List.rev (Array.to_list (Array.mapi (fun i c -> (i, c)) row))
               in
               (Simplex.constr row op rhs, Simplex.sparse_constr pairs op rhs)))
      in
      let objective = Array.init nv (fun _ -> rand_rat ()) in
      let pd = Simplex.{ num_vars = nv; objective; constraints = dense_rows } in
      let ps = Simplex.{ num_vars = nv; objective; constraints = sparse_rows } in
      outcomes_agree (Simplex.solve pd) (Simplex.solve ps)
      && outcomes_agree (Dense_simplex.solve pd) (Simplex.solve ps))

let test_sparse_constr_validation () =
  Alcotest.check_raises "negative column"
    (Invalid_argument "Simplex.sparse_constr: negative column")
    (fun () -> ignore (Simplex.sparse_constr [ (-1, q 1) ] Simplex.Le (q 0)));
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Simplex.sparse_constr: duplicate column")
    (fun () ->
      ignore (Simplex.sparse_constr [ (0, q 1); (0, q 2) ] Simplex.Le (q 0)));
  Alcotest.check_raises "column beyond num_vars"
    (Invalid_argument "Simplex.solve: constraint column out of range")
    (fun () ->
      ignore
        (Simplex.feasible
           (Simplex.feasibility ~num_vars:3
              [ Simplex.sparse_constr [ (3, q 1) ] Simplex.Le (q 0) ])))

(* Property: row order is the simplex's own policy ([Simplex.layout_of]
   sorts the rows), so a problem and any row permutation of it take the
   same pivots and report the same outcome, down to the point.  Generic
   random coefficients pivot the same way in any order, so the problems
   here are degenerate the way entropic LPs are: small integer
   coefficients, right-hand sides in {−1, 0, 1}, a zero or 0/1
   objective. *)
let prop_row_order_invariant =
  QCheck.Test.make ~name:"solve ignores row order" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed + 41 |] in
      let pick a = a.(Random.State.int st (Array.length a)) in
      let nv = 2 + Random.State.int st 5 in
      let nc = 2 + Random.State.int st 9 in
      let p =
        Simplex.
          { num_vars = nv;
            objective =
              Array.init nv (fun _ ->
                  if Random.State.bool st then Rat.zero else q (pick [| 0; 1 |]));
            constraints =
              List.init nc (fun _ ->
                  sparse_constr
                    (List.init nv (fun j -> (j, q (pick [| -1; 0; 0; 1; 2 |]))))
                    (pick [| Le; Ge; Eq |])
                    (q (pick [| -1; 0; 0; 1 |]))) }
      in
      let shuffled =
        List.map (fun c -> (Random.State.bits st, c)) p.constraints
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let timed p =
        let p0 = Simplex.pivot_count () in
        let o = Simplex.solve p in
        (o, Simplex.pivot_count () - p0)
      in
      let o1, d1 = timed p in
      let o2, d2 = timed { p with constraints = shuffled } in
      d1 = d2
      &&
      match o1, o2 with
      | Simplex.Optimal (v1, x1), Simplex.Optimal (v2, x2) ->
        Rat.equal v1 v2 && Array.for_all2 Rat.equal x1 x2
      | Simplex.Unbounded, Simplex.Unbounded
      | Simplex.Infeasible, Simplex.Infeasible -> true
      | _ -> false)

(* ---------------- exact arithmetic beyond float range ---------------- *)

(* min x s.t. 2^5000 x >= 1: a coefficient that overflows [Rat.to_float]
   to infinity, and an optimum x = 2^-5000 far below float range.  The
   exact engine must return that optimum exactly. *)
let huge = Rat.of_bigint (Bigint.shift_left Bigint.one 5000)

let test_huge_coefficient () =
  let p =
    Simplex.{
      num_vars = 1;
      objective = qa [1];
      constraints = [ constr [| huge |] Ge Rat.one ];
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal (v, x) ->
    Alcotest.check rt "value" (Rat.inv huge) v;
    Alcotest.check rt "point" (Rat.inv huge) x.(0)
  | _ -> Alcotest.fail "expected optimal"

(* ---------------- incremental float tableau ---------------- *)

module Tableau = Fsimplex.Tableau

let claim_kind = function
  | Tableau.Point _ -> "point"
  | Tableau.Infeasible _ -> "infeasible"
  | Tableau.Unknown -> "unknown"

let tableau_of ~num_vars rows =
  let t = Tableau.create ~num_vars in
  List.iter
    (fun (pairs, rhs) ->
      Tableau.add_le t
        (Array.of_list (List.map fst pairs))
        (Array.of_list (List.map (fun (_, c) -> Rat.to_float c) pairs))
        (Rat.to_float rhs))
    rows;
  t

let exact_claim ~num_vars rows =
  Simplex.solve
    { Simplex.num_vars;
      objective = Array.make num_vars Rat.zero;
      constraints =
        List.map (fun (pairs, rhs) -> Simplex.sparse_constr pairs Simplex.Le rhs)
          rows }

let test_tableau_small () =
  let row pairs rhs = (List.map (fun (j, c) -> (j, q c)) pairs, q rhs) in
  (* x ≥ 1 (as −x ≤ −1), x ≤ 3: feasible, and the point honors both. *)
  let t = tableau_of ~num_vars:2 [ row [ (0, -1) ] (-1); row [ (0, 1) ] 3 ] in
  (match Tableau.reoptimize t with
   | Tableau.Point x ->
     Alcotest.(check bool) "1 <= x <= 3" true (x.(0) >= 1.0 -. 1e-9 && x.(0) <= 3.0 +. 1e-9)
   | c -> Alcotest.failf "expected a point, got %s" (claim_kind c));
  (* Appending x + y ≤ 0 contradicts x ≥ 1: the Farkas row uses rows 0
     and 2 only, not the slack x ≤ 3. *)
  Tableau.add_le t [| 0; 1 |] [| 1.0; 1.0 |] 0.0;
  (match Tableau.reoptimize t with
   | Tableau.Infeasible ys ->
     Alcotest.(check (list int)) "Farkas support" [ 0; 2 ] (List.map fst ys);
     (* −x ≤ −1 plus x + y ≤ 0 sum to y ≤ −1: unit multipliers. *)
     Alcotest.(check (list (float 1e-12))) "Farkas multipliers" [ 1.0; 1.0 ]
       (List.map snd ys)
   | c -> Alcotest.failf "expected infeasible, got %s" (claim_kind c));
  (* 0 ≤ −1 needs no pivot at all. *)
  let t = tableau_of ~num_vars:1 [ ([], q (-1)) ] in
  (match Tableau.reoptimize t with
   | Tableau.Infeasible ys ->
     Alcotest.(check (list int)) "empty row support" [ 0 ] (List.map fst ys)
   | c -> Alcotest.failf "expected infeasible, got %s" (claim_kind c));
  (* A non-finite coefficient is never pivoted on. *)
  let t = Tableau.create ~num_vars:1 in
  Tableau.add_le t [| 0 |] [| Float.infinity |] (-1.0);
  Alcotest.(check string) "non-finite row" "unknown"
    (claim_kind (Tableau.reoptimize t))

(* Each reoptimize is one observation of [lp.float.probe_pivots], and
   the observations sum to the [lp.float.pivots] it added. *)
let test_tableau_probe_pivots_histogram () =
  let module M = Bagcqc_obs.Metrics in
  let hist () =
    Option.value ~default:M.empty_hist
      (List.assoc_opt "lp.float.probe_pivots" (M.snapshot ()).M.histograms)
  in
  let pivots () = M.count (M.counter "lp.float.pivots") in
  let h0 = hist () and p0 = pivots () in
  let row pairs rhs = (List.map (fun (j, c) -> (j, q c)) pairs, q rhs) in
  let t =
    tableau_of ~num_vars:3
      [ row [ (0, -1); (1, -1) ] (-2); row [ (1, -1); (2, -1) ] (-2) ]
  in
  let k = 4 in
  for i = 1 to k do
    if i = 3 then Tableau.add_le t [| 0; 2 |] [| -1.0; -1.0 |] (-3.0);
    ignore (Tableau.reoptimize t)
  done;
  let h1 = hist () in
  Alcotest.(check int) "one observation per reoptimize" k (h1.M.count - h0.M.count);
  Alcotest.(check bool) "some pivots were taken" true (pivots () > p0);
  Alcotest.(check int) "observations sum to the pivot delta" (pivots () - p0)
    (h1.M.sum - h0.M.sum)

(* A random Γn working set at n ≤ [max_n], as the lazy loop builds it: k
   target rows E_ℓ ≤ −1 (each a positive combination of elemental rows,
   sometimes minus a term, so both verdicts occur) followed by a random
   subset of the elemental family as cone rows −a·h ≤ 0.  Rows are
   [(mask − 1, coeff)] pairs with their right-hand side. *)
let random_gamma_rows ?(max_n = 5) st =
  let module E = Bagcqc_entropy.Elemental in
  let module L = Bagcqc_entropy.Linexpr in
  let n = 2 + Random.State.int st (max_n - 1) in
  let num_vars = (1 lsl n) - 1 in
  let family = Array.of_list (E.list ~n) in
  let pick () = family.(Random.State.int st (Array.length family)) in
  let pairs e = List.map (fun (m, c) -> (m - 1, c)) (L.terms e) in
  let target () =
    let body =
      L.sum
        (List.init (1 + Random.State.int st 4) (fun _ ->
             L.scale (q (1 + Random.State.int st 3)) (pick ())))
    in
    let e =
      if Random.State.bool st then body
      else L.sub body (L.term (1 + Random.State.int st num_vars))
    in
    (pairs e, q (-1))
  in
  let targets = List.init (1 + Random.State.int st 2) (fun _ -> target ()) in
  let density = 0.2 +. Random.State.float st 0.7 in
  let cones =
    Array.to_list family
    |> List.filter (fun _ -> Random.State.float st 1.0 < density)
    |> List.map (fun e -> (List.map (fun (j, c) -> (j, Rat.neg c)) (pairs e), q 0))
  in
  (num_vars, targets, targets @ cones)

(* Split [xs] into 1–4 consecutive non-empty batches. *)
let random_batches st xs =
  let k = 1 + Random.State.int st 4 in
  let len = List.length xs in
  List.mapi (fun i x -> (min (k - 1) (i * k / max 1 len), x)) xs
  |> List.fold_left
       (fun acc (b, x) ->
         match acc with
         | (b', xs) :: rest when b' = b -> (b, x :: xs) :: rest
         | _ -> (b, [ x ]) :: acc)
       []
  |> List.rev_map (fun (_, xs) -> List.rev xs)

let prop_tableau_incremental_matches_cold =
  QCheck.Test.make ~name:"tableau: batched appends claim what a cold tableau claims"
    ~count:150 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed + 907 |] in
      let num_vars, _, rows = random_gamma_rows ~max_n:6 st in
      let t = Tableau.create ~num_vars in
      let last = ref Tableau.Unknown in
      List.iter
        (fun batch ->
          List.iter
            (fun (pairs, rhs) ->
              Tableau.add_le t
                (Array.of_list (List.map fst pairs))
                (Array.of_list (List.map (fun (_, c) -> Rat.to_float c) pairs))
                (Rat.to_float rhs))
            batch;
          last := Tableau.reoptimize t)
        (random_batches st rows);
      let cold = Tableau.reoptimize (tableau_of ~num_vars rows) in
      let exact =
        match exact_claim ~num_vars rows with
        | Simplex.Optimal _ -> "point"
        | Simplex.Infeasible | Simplex.Unbounded -> "infeasible"
      in
      claim_kind !last = claim_kind cold && claim_kind cold = exact)

let prop_tableau_point_feasible =
  QCheck.Test.make ~name:"tableau: a point satisfies every row"
    ~count:150 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed + 433 |] in
      let num_vars, targets, rows = random_gamma_rows ~max_n:6 st in
      (* Drop the targets now and then so feasible systems are common. *)
      let rows =
        if Random.State.bool st then rows
        else List.filter (fun r -> not (List.memq r targets)) rows
      in
      match Tableau.reoptimize (tableau_of ~num_vars rows) with
      | Tableau.Point x ->
        Array.for_all (fun v -> v >= 0.0) x
        && List.for_all
             (fun (pairs, rhs) ->
               let lhs =
                 List.fold_left
                   (fun acc (j, c) -> acc +. (Rat.to_float c *. x.(j)))
                   0.0 pairs
               in
               lhs <= Rat.to_float rhs +. 1e-6)
             rows
      | Tableau.Infeasible _ | Tableau.Unknown -> true)

(* The exact multipliers [Repair.farkas] recovers from a float Farkas
   row, re-verified here from scratch: y ≥ 0, y·A ≥ 0 and y·b < 0. *)
let exact_farkas_holds ~num_vars rows y =
  let rows = Array.of_list rows in
  let comb = Array.make num_vars Rat.zero and yb = ref Rat.zero in
  Array.iteri
    (fun i (pairs, rhs) ->
      List.iter (fun (j, c) -> comb.(j) <- Rat.add comb.(j) (Rat.mul y.(i) c)) pairs;
      yb := Rat.add !yb (Rat.mul y.(i) rhs))
    rows;
  Array.for_all (fun v -> Rat.sign v >= 0) y
  && Array.for_all (fun v -> Rat.sign v >= 0) comb
  && Rat.sign !yb < 0

let prop_tableau_support_is_infeasible =
  QCheck.Test.make ~name:"tableau: the Farkas support is exactly infeasible"
    ~count:150 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed + 71 |] in
      let num_vars, targets, rows = random_gamma_rows st in
      match Tableau.reoptimize (tableau_of ~num_vars rows) with
      | Tableau.Infeasible ys ->
        let rows_a = Array.of_list rows in
        let k = List.length targets in
        let kept =
          targets
          @ List.filter_map
              (fun (i, _) -> if i >= k then Some rows_a.(i) else None)
              ys
        in
        let support = List.map (fun (i, _) -> rows_a.(i)) ys in
        (match exact_claim ~num_vars kept with
         | Simplex.Infeasible -> true
         | Simplex.Optimal _ | Simplex.Unbounded -> false)
        &&
        (match
           Repair.farkas ~num_vars (Array.of_list support)
             (Array.of_list (List.map snd ys))
         with
         | Ok (y, _) -> exact_farkas_holds ~num_vars support y
         | Error r ->
           QCheck.Test.fail_reportf "repair declined: %s"
             (Repair.farkas_reject_name r))
      | Tableau.Point _ | Tableau.Unknown -> true)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_solution_feasible; prop_engines_agree; prop_sparse_ingestion;
      prop_row_order_invariant;
      prop_tableau_incremental_matches_cold;
      prop_tableau_point_feasible; prop_tableau_support_is_infeasible ]

let suite =
  [ ("basic min", `Quick, test_basic_min);
    ("basic max", `Quick, test_basic_max);
    ("infeasible", `Quick, test_infeasible);
    ("unbounded", `Quick, test_unbounded);
    ("equality", `Quick, test_equality);
    ("beale cycling", `Quick, test_degenerate_cycling);
    ("negative rhs", `Quick, test_negative_rhs);
    ("feasibility", `Quick, test_zero_objective_feasibility);
    ("redundant equalities", `Quick, test_redundant_equalities);
    ("exact solvers on fixtures", `Quick, test_exact_solvers_on_fixtures);
    ("dimension mismatch", `Quick, test_dimension_mismatch);
    ("sparse_constr validation", `Quick, test_sparse_constr_validation);
    ("huge coefficient solved exactly", `Quick, test_huge_coefficient);
    ("float tableau on small systems", `Quick, test_tableau_small);
    ("float tableau pivots histogram", `Quick, test_tableau_probe_pivots_histogram) ]
  @ qtests
