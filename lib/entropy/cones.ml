open Bagcqc_num
open Bagcqc_lp
module Obs = Bagcqc_obs

type cone = Gamma | Normal | Modular

let check_range ~n es =
  List.iter
    (fun e ->
      if Linexpr.max_var e >= n then
        invalid_arg "Cones: expression mentions a variable out of range")
    es

let elemental ~n = Elemental.list ~n

(* ------------------------------------------------------------------ *)
(* A max-inequality is refuted over a cone K by a point of the          *)
(* feasibility system {h ∈ K, Eℓ(h) ≤ −1 ∀ℓ}.  Γn is decided by the     *)
(* lazy separation driver; the materialized Γn LPs below serve only the *)
(* reference oracle.  Nn and Mn are decided on their generators, with a *)
(* small LP only as fallback.                                           *)
(* ------------------------------------------------------------------ *)

(* ---------------- Γn ---------------- *)

(* LP variables for Γn are h(S) for nonempty S, indexed by [mask − 1];
   expressions translate to sparse rows directly off their term lists
   (elemental inequalities have at most 4 nonzero terms, so the LPs below
   never materialize the 2^n − 1 mostly-zero coefficients). *)
let gamma_sparse e =
  List.map (fun (s, c) -> (s - 1, c)) (Linexpr.terms e)

(* Farkas certificate search: is some convex combination Σ μℓ·Eℓ a
   non-negative combination Σ λᵢ·elemᵢ of elemental inequalities?  By LP
   duality over the polyhedral cone Γn (this is the paper's Theorem 6.1
   instantiated at Γn), such (λ, μ) exist iff the max-inequality is valid
   over Γn.  The LP has only 2^n equality rows — far smaller than the
   primal feasibility system, whose rows are the thousands of elemental
   inequalities. *)
let gamma_farkas ~n es =
  let elems = Elemental.list ~n in
  let n_elem = List.length elems in
  let k = List.length es in
  let num_vars = n_elem + k in
  (* Transpose the sparse columns (one per multiplier) into sparse rows
     (one per nonempty mask S): Σ λᵢ elemᵢ(S) − Σ μℓ Eℓ(S) = 0. *)
  let buckets = Array.make ((1 lsl n) - 1) [] in
  List.iteri
    (fun i e ->
      List.iter (fun (s, c) -> buckets.(s) <- (i, c) :: buckets.(s)) (gamma_sparse e))
    elems;
  List.iteri
    (fun l e ->
      List.iter
        (fun (s, c) -> buckets.(s) <- (n_elem + l, Rat.neg c) :: buckets.(s))
        (gamma_sparse e))
    es;
  let constraints =
    List.init ((1 lsl n) - 1) (fun s ->
        Simplex.sparse_constr buckets.(s) Simplex.Eq Rat.zero)
    @ [ Simplex.sparse_constr
          (List.init k (fun l -> (n_elem + l, Rat.one)))
          Simplex.Eq Rat.one ]
  in
  (Simplex.feasibility ~num_vars constraints, elems)

let gamma_refutation ~n es =
  let cone_rows =
    List.map
      (fun e -> Simplex.sparse_constr (gamma_sparse e) Simplex.Ge Rat.zero)
      (Elemental.list ~n)
  in
  let target_rows =
    List.map
      (fun e -> Simplex.sparse_constr (gamma_sparse e) Simplex.Le Rat.minus_one)
      es
  in
  Simplex.feasibility ~num_vars:((1 lsl n) - 1) (cone_rows @ target_rows)

(* ---------------- Nn and Mn: cones of their generators ---------------- *)

(* Nn is the conic hull of the 2^n − 1 step functions h_W (W ⊊ V), Mn
   that of the n basic modular functions.  A side is linear, so its value
   at Σ_g c_g·g is Σ_g c_g·E(g): everything about these cones is read off
   the side-by-generator matrix A_ℓg = Eℓ(g), built as one sparse row per
   side.  The refutation LP is {c ≥ 0 : A·c ≤ −1} over generator
   weights. *)
type small = {
  name : string;
  generators : n:int -> int;
  row : n:int -> Linexpr.t -> (int * Rat.t) list;
      (* [(g, E(g))] for every generator with E(g) ≠ 0, ascending in g. *)
  refuter : n:int -> Rat.t array -> Polymatroid.t;
      (* Σ_g c_g·g for non-negative generator weights c. *)
}

(* Mn: the generator of variable i is h(X) = [i ∈ X], so
   E(h_i) = Σ_S c_S [i ∈ S] is the total weight of terms containing i. *)
let modular_sparse ~n e =
  let row = Array.make n Rat.zero in
  List.iter
    (fun (s, c) ->
      Varset.fold_elements (fun i () -> row.(i) <- Rat.add row.(i) c) s ())
    (Linexpr.terms e);
  List.concat
    (List.init n (fun i ->
         if Rat.is_zero row.(i) then [] else [ (i, row.(i)) ]))

let modular =
  { name = "modular";
    generators = (fun ~n -> n);
    row = modular_sparse;
    refuter = (fun ~n:_ w -> Polymatroid.modular_of_weights w) }

(* Nn: generators are indexed by the mask W (the full mask is excluded),
   and E(h_W) = Σ_{S ⊄ W} c_S = total − Σ_{S ⊆ W} c_S.  One subset-sum
   (zeta) transform gives the inner sums for every W at once: O(n·2^n)
   additions, instead of a pass over the terms per mask. *)
let normal_sparse ~n e =
  let size = 1 lsl n in
  let below = Array.make size Rat.zero in
  let total = ref Rat.zero in
  List.iter
    (fun (s, c) ->
      below.(s) <- Rat.add below.(s) c;
      total := Rat.add !total c)
    (Linexpr.terms e);
  for i = 0 to n - 1 do
    let bit = 1 lsl i in
    for w = 0 to size - 1 do
      if w land bit <> 0 then begin
        let v = below.(w lxor bit) in
        if not (Rat.is_zero v) then below.(w) <- Rat.add below.(w) v
      end
    done
  done;
  let acc = ref [] in
  for w = size - 2 downto 0 do
    let coeff = Rat.sub !total below.(w) in
    if not (Rat.is_zero coeff) then acc := (w, coeff) :: !acc
  done;
  !acc

let normal =
  { name = "normal";
    generators = (fun ~n -> (1 lsl n) - 1);
    row = normal_sparse;
    refuter =
      (fun ~n c ->
        let coeffs = ref [] in
        Array.iteri
          (fun w cw -> if Rat.sign cw > 0 then coeffs := (w, cw) :: !coeffs)
          c;
        Polymatroid.normal_of_steps n !coeffs) }

let small_of_cone = function
  | Normal -> normal
  | Modular -> modular
  | Gamma -> invalid_arg "Cones: Γn is not given by generators"

(* Problem construction (cone axioms → sparse LP rows) is its own span:
   for the materialized Γn family it can rival the solve itself on
   larger n.  Its [backend] attribute names the cone whose LP follows. *)
let build_span name ~kind ~n es build =
  Obs.Span.with_span ~name:"cone.build"
    ~attrs:
      [ ("backend", Obs.Span.Str name);
        ("kind", Obs.Span.Str kind);
        ("n", Obs.Span.Int n);
        ("sides", Obs.Span.Int (List.length es)) ]
    build

let small_refutation b ~n es rows =
  build_span b.name ~kind:"refutation" ~n es (fun () ->
      Simplex.feasibility ~num_vars:(b.generators ~n)
        (List.map (fun r -> Simplex.sparse_constr r Simplex.Le Rat.minus_one)
           rows))

(* The generator presolve: exact sign tests on A, before any LP.
   - A row with no negative entry is a side that is ≥ 0 on every
     generator, hence on their conic hull: valid.
   - A column g that is negative in every row refutes on its own: with
     c = max_ℓ (−1/A_ℓg) = 1/min_ℓ |A_ℓg|, every side is c·A_ℓg ≤ −1
     at c·g.  The smallest such c wins, ties going to the lowest g.
   Anything else needs a genuine combination of generators: the LP. *)
type presolved = Holds | One_generator of int * Rat.t | Needs_lp

(* The columns of [cands] ([(g, min |A_ℓg|)] so far, ascending) that are
   also negative in [row], with their minima updated. *)
let meet_negative cands row =
  let rec go acc cands row =
    match cands, row with
    | [], _ | _, [] -> List.rev acc
    | (g, m) :: cs, (h, a) :: rs ->
      if g < h then go acc cs row
      else if h < g then go acc cands rs
      else if Rat.sign a < 0 then go ((g, Rat.min m (Rat.neg a)) :: acc) cs rs
      else go acc cs rs
  in
  go [] cands row

let presolve rows =
  if List.exists (List.for_all (fun (_, a) -> Rat.sign a >= 0)) rows then Holds
  else
    let negatives =
      List.filter_map (fun (g, a) ->
          if Rat.sign a < 0 then Some (g, Rat.neg a) else None)
    in
    match rows with
    | [] -> Needs_lp
    | r :: rs ->
      (match List.fold_left meet_negative (negatives r) rs with
       | [] -> Needs_lp
       | first :: rest ->
         let g, m =
           List.fold_left
             (fun (g, m) (g', m') -> if Rat.compare m' m > 0 then (g', m') else (g, m))
             first rest
         in
         One_generator (g, Rat.inv m))

let c_presolve_valid = Obs.Metrics.counter "cone.presolve.valid"
let c_presolve_refuted = Obs.Metrics.counter "cone.presolve.refuted"
let c_presolve_lp = Obs.Metrics.counter "cone.presolve.lp"

(* Decide [0 ≤ max_ℓ Eℓ] over Nn or Mn: the presolve, then the
   refutation LP built from the same rows. *)
let decide_small cone ~n es =
  let b = small_of_cone cone in
  let rows = List.map (b.row ~n) es in
  match presolve rows with
  | Holds ->
    Obs.Metrics.bump c_presolve_valid;
    Ok ()
  | One_generator (g, c) ->
    Obs.Metrics.bump c_presolve_refuted;
    let x = Array.make (b.generators ~n) Rat.zero in
    x.(g) <- c;
    Error (b.refuter ~n x)
  | Needs_lp ->
    Obs.Metrics.bump c_presolve_lp;
    (match Simplex.feasible (small_refutation b ~n es rows) with
     | None -> Ok ()
     | Some x -> Error (b.refuter ~n x))

(* ---------------- driver ---------------- *)

(* Γn decides through the lazy separation driver — the only cone whose
   axiom family explodes with n, and the only one with a certificate —
   unless a cover side gets its certificate by construction first. *)
let valid_max_cert cone ~n es =
  check_range ~n es;
  match es, cone with
  | [], _ -> Error (Polymatroid.zero n)
  | _, Gamma ->
    (match Cover.certificate ~n es with
     | Some cert -> Ok (Some cert)
     | None -> Result.map Option.some (Separation.valid_max_cert ~n es))
  | _, (Normal | Modular) -> Result.map (fun () -> None) (decide_small cone ~n es)

let valid_max cone ~n es = Result.map ignore (valid_max_cert cone ~n es)

let valid_max_quick cone ~n es =
  check_range ~n es;
  match es, cone with
  | [], _ -> false
  | _, Gamma ->
    Option.is_some (Cover.certificate ~n es) || Separation.valid_max_quick ~n es
  | _, (Normal | Modular) -> Result.is_ok (decide_small cone ~n es)

let valid cone ~n e = valid_max cone ~n [ e ]

let valid_shannon ~n e = valid_max_quick Gamma ~n [ e ]

module Etbl = Hashtbl.Make (struct
  type t = Linexpr.t

  let equal = Linexpr.equal
  let hash = Linexpr.hash
end)

let valid_shannon_many ~n es =
  (* Dedup before fanning out: a batch with repeated inequalities (bulk
     clients, generated batches) decides each distinct expression once
     and fans the verdict back out.  Nothing below this call memoizes a
     Γn decision, so without the dedup every repeat would pay the full
     separation loop again. *)
  let index = Etbl.create (List.length es) in
  let distinct = ref [] and n_distinct = ref 0 in
  List.iter
    (fun e ->
      if not (Etbl.mem index e) then begin
        Etbl.add index e !n_distinct;
        distinct := e :: !distinct;
        incr n_distinct
      end)
    es;
  let verdicts =
    Array.of_list
      (Bagcqc_par.Pool.parallel_map_list
         (fun e -> valid_shannon ~n e)
         (List.rev !distinct))
  in
  List.map (fun e -> verdicts.(Etbl.find index e)) es

(* Γn always certifies, so [Ok None] cannot occur below. *)
let max_to_convex ~n es =
  match valid_max_cert Gamma ~n es with
  | Ok (Some cert) -> Some (Array.of_list (Certificate.convex_weights cert))
  | Ok None | Error _ -> None

let shannon_certificate ~n e =
  match valid_max_cert Gamma ~n [ e ] with
  | Ok (Some cert) ->
    (* With k = 1 the convexity row forces μ = 1, so Σ λᵢ·elemᵢ = e. *)
    Some (Certificate.lambda cert)
  | Ok None | Error _ -> None

(* ---------------- reference oracle ---------------- *)

module Oracle = struct
  let farkas = gamma_farkas

  let build_farkas ~n es =
    build_span "gamma" ~kind:"farkas" ~n es (fun () -> farkas ~n es)

  let valid_max_cert ~n es =
    check_range ~n es;
    match es with
    | [] -> Error (Polymatroid.zero n)
    | _ ->
      let prob, elems = build_farkas ~n es in
      (match Simplex.feasible prob with
       | Some x ->
         (* Column i is the i-th member of the family, in the one order
            [Elemental.descs] and [Elemental.list] share. *)
         let n_elem = List.length elems in
         let lambda =
           List.filter (fun (_, l) -> Rat.sign l > 0)
             (List.mapi (fun i d -> (d, x.(i))) (Elemental.descs ~n))
         in
         let mu = List.mapi (fun l _ -> x.(n_elem + l)) es in
         Ok (Certificate.make ~n ~cone:"gamma" ~sides:es ~lambda ~mu)
       | None ->
         let refutation =
           build_span "gamma" ~kind:"refutation" ~n es (fun () ->
               gamma_refutation ~n es)
         in
         (match Simplex.feasible refutation with
          | Some x -> Error (Polymatroid.make n (fun s -> x.(s - 1)))
          | None ->
            (* LP duality (Theorem 6.1 at Γn): the Farkas system is
               infeasible iff the refutation system has a point.  Both
               coming back empty means the two independently-built LPs
               disagree — a solver bug, reported as a typed error. *)
            Bagcqc_error.invariant ~where:"Cones.Oracle.valid_max_cert"
              "Farkas LP infeasible but refutation LP infeasible too \
               (duality violated)"))

  let valid_max_quick ~n es =
    check_range ~n es;
    es <> [] && Simplex.feasible (fst (build_farkas ~n es)) <> None

  let refute_small cone ~n es =
    check_range ~n es;
    let b = small_of_cone cone in
    Option.map (b.refuter ~n)
      (Simplex.feasible (small_refutation b ~n es (List.map (b.row ~n) es)))
end
