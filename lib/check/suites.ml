open Bagcqc_num
open Bagcqc_lp
open Bagcqc_cq
open Bagcqc_core

let ( let* ) = Result.bind

let require cond fmt =
  Printf.ksprintf (fun msg -> if cond then Ok () else Error msg) fmt

(* ---------------- logint ---------------- *)

(* The seed implementation of [Logint.sign], kept as the reference
   oracle: clear denominators, materialize both sides as full [Bigint]
   powers, compare.  Only usable when every cleared exponent fits an
   [int] and the products stay small — exactly the regime the seed
   supported; outside it the suite falls back to the other oracles. *)
let slow_exact_sign terms =
  let d =
    List.fold_left
      (fun acc (_, c) ->
        let den = Rat.den c in
        Bigint.mul acc (Bigint.div den (Bigint.gcd acc den)))
      Bigint.one terms
  in
  let exps =
    List.map
      (fun (b, c) -> (b, Bigint.mul (Rat.num c) (Bigint.div d (Rat.den c))))
      terms
  in
  let feasible =
    List.fold_left
      (fun bits (b, e) ->
        match bits, Bigint.to_int_opt e with
        | Some bits, Some e when abs e <= 100_000 ->
          Some (bits + (abs e * Bigint.num_bits b))
        | _ -> None)
      (Some 0) exps
  in
  match feasible with
  | None | Some 0 -> if exps = [] then Some 0 else None
  | Some bits when bits > 40_000 -> None
  | Some _ ->
    let pos = ref Bigint.one and neg = ref Bigint.one in
    List.iter
      (fun (b, e) ->
        match Bigint.to_int_opt e with
        | Some e when e > 0 -> pos := Bigint.mul !pos (Bigint.pow b e)
        | Some e when e < 0 -> neg := Bigint.mul !neg (Bigint.pow b (-e))
        | _ -> ())
      exps;
    let c = Bigint.compare !pos !neg in
    Some (if c > 0 then 1 else if c < 0 then -1 else 0)

let check_logint case =
  let t = Gen.build_logint case in
  let s = Logint.sign t in
  let* () = require (s >= -1 && s <= 1) "sign returned %d" s in
  let* () =
    match Logint.sign_float_interval t with
    | Some fs -> require (fs = s) "float-interval oracle says %d, sign says %d" fs s
    | None -> Ok ()
  in
  let* () =
    match slow_exact_sign (Logint.terms t) with
    | Some es -> require (es = s) "slow exact oracle says %d, sign says %d" es s
    | None -> Ok ()
  in
  let* () =
    require (Logint.sign (Logint.neg t) = -s) "sign(-t) <> -sign(t) (= %d)" s
  in
  let* () =
    require (Logint.sign (Logint.sub t t) = 0) "sign(t - t) <> 0"
  in
  let* () = require (Logint.sign (Logint.add t t) = s) "sign(t + t) <> sign(t)" in
  require
    (Logint.sign (Logint.scale (Rat.of_ints 2 3) t) = s)
    "sign(2/3 * t) <> sign(t)"

let logint_suite =
  Runner.Suite
    { name = "logint";
      doc = "exact Logint.sign vs float-interval, slow-exact and sign laws";
      gen = Gen.logint_case;
      show = Gen.show_logint;
      shrink = Gen.shrink_logint;
      check = check_logint }

(* ---------------- simplex ---------------- *)

let eval_row x row =
  List.fold_left
    (fun acc (i, c) -> Rat.add acc (Rat.mul c x.(i)))
    Rat.zero row

let point_feasible (case : Gen.lp_case) x =
  Array.for_all (fun v -> Rat.sign v >= 0) x
  && List.for_all
       (fun (row, op, b) ->
         let v = eval_row x row in
         match op with
         | Simplex.Le -> Rat.compare v b <= 0
         | Simplex.Ge -> Rat.compare v b >= 0
         | Simplex.Eq -> Rat.equal v b)
       case.Gen.rows

let objective_value (case : Gen.lp_case) x =
  List.fold_left
    (fun (acc, i) c -> (Rat.add acc (Rat.mul c x.(i)), i + 1))
    (Rat.zero, 0) case.Gen.obj
  |> fst

let check_lp case =
  let p = Gen.build_lp case in
  let check_point engine x v =
    let* () =
      require (point_feasible case x) "%s point violates a constraint" engine
    in
    require
      (Rat.equal (objective_value case x) v)
      "%s point is off its reported objective" engine
  in
  match Dense_simplex.solve p, Simplex.solve p with
  | Simplex.Optimal (v1, x1), Simplex.Optimal (v2, x2) ->
    let* () =
      require (Rat.equal v1 v2) "optimal values differ: dense %s, sparse %s"
        (Rat.to_string v1) (Rat.to_string v2)
    in
    let* () = check_point "dense" x1 v1 in
    check_point "sparse" x2 v2
  | Simplex.Unbounded, Simplex.Unbounded
  | Simplex.Infeasible, Simplex.Infeasible -> Ok ()
  | o1, o2 ->
    let name = function
      | Simplex.Optimal _ -> "Optimal"
      | Simplex.Unbounded -> "Unbounded"
      | Simplex.Infeasible -> "Infeasible"
    in
    Error (Printf.sprintf "status mismatch: dense %s, sparse %s" (name o1) (name o2))

let simplex_suite =
  Runner.Suite
    { name = "simplex";
      doc = "exact sparse simplex vs the dense oracle: status, value, exact \
             feasibility";
      gen = Gen.lp_case;
      show = Gen.show_lp;
      shrink = Gen.shrink_lp;
      check = check_lp }

(* ---------------- float_vs_exact ---------------- *)

(* Differential check for the production cone decisions: on Γn
   instances the production decision (lazy separation, whose float
   probe certificates are repaired exactly) must agree with the
   materialized oracle, every certificate passing the exact,
   LP-independent [Certificate.check]; the production Nn/Mn decision
   (generator presolve, then the exact LP) must agree with the exact LP
   over the same generator rows.  The engine caches decisions, not LPs,
   so the two paths cannot answer each other's LPs from a cache. *)

let build_side terms =
  List.fold_left
    (fun acc (mask, c) ->
      Bagcqc_entropy.Linexpr.add acc
        (Bagcqc_entropy.Linexpr.term ~coeff:c mask))
    Bagcqc_entropy.Linexpr.zero terms

let check_gamma_cone ~n sides =
  let module Cones = Bagcqc_entropy.Cones in
  let module Certificate = Bagcqc_entropy.Certificate in
  let es = List.map build_side sides in
  let ve = Cones.Oracle.valid_max_cert ~n es in
  let vh = Cones.valid_max_cert Cones.Gamma ~n es in
  match ve, vh with
  | Ok ce, Ok (Some ch) ->
    let* () =
      require (Certificate.check ce) "exact oracle certificate fails check"
    in
    require (Certificate.check ch) "production certificate fails check"
  | Error _, Error _ ->
    (* Both refute; the refuting polymatroids may be different vertices
       of the same polyhedron, which is fine — lazy_vs_full checks the
       refuters themselves. *)
    Ok ()
  | _, Ok None -> Error "gamma backend returned Ok without a certificate"
  | Ok _, Error _ ->
    Error "verdict mismatch: exact oracle says valid, production refutes"
  | Error _, Ok (Some _) ->
    Error "verdict mismatch: exact oracle refutes, production says valid"

(* Nn and Mn: the production decision (generator presolve, then the
   exact LP) against the exact LP on the same generator rows.  A
   refuter must lie in the cone and put every side at ≤ −1 exactly, as
   both the presolve and the LP construct it. *)
let check_small_cone cone ~n sides =
  let module Cones = Bagcqc_entropy.Cones in
  let module Polymatroid = Bagcqc_entropy.Polymatroid in
  let module Linexpr = Bagcqc_entropy.Linexpr in
  let es = List.map build_side sides in
  let reference = Cones.Oracle.refute_small cone ~n es in
  let production = Cones.valid_max_cert cone ~n es in
  let quick = Cones.valid_max_quick cone ~n es in
  let* () =
    require (quick = Result.is_ok production)
      "quick verdict %b disagrees with the full path" quick
  in
  let refutes tag h =
    let* () =
      require
        (match cone with
         | Cones.Modular -> Polymatroid.is_modular h
         | Cones.Normal | Cones.Gamma -> Polymatroid.is_normal h)
        "%s refuter is not in the cone" tag
    in
    require
      (List.for_all
         (fun e ->
           Rat.compare (Linexpr.eval (Polymatroid.value h) e) Rat.minus_one
           <= 0)
         es)
      "%s refuter leaves some side above -1" tag
  in
  match reference, production with
  | None, Ok None -> Ok ()
  | Some hr, Error hp ->
    let* () = refutes "reference" hr in
    refutes "production" hp
  | _, Ok (Some _) -> Error "small cone returned a certificate"
  | None, Error _ ->
    Error "verdict mismatch: exact LP says valid, production refutes"
  | Some _, Ok None ->
    Error "verdict mismatch: exact LP refutes, production says valid"

let check_cone ({ cone; n; sides } : Gen.cone_case) =
  match cone with
  | Bagcqc_entropy.Cones.Gamma -> check_gamma_cone ~n sides
  | Normal | Modular -> check_small_cone cone ~n sides

let float_vs_exact_suite =
  Runner.Suite
    { name = "float_vs_exact";
      doc =
        "production Γn/Nn/Mn decisions (float-probe certificates, exact \
         LP) vs the exact oracles: verdicts, certificate and refuter \
         checks";
      gen = Gen.cone_case;
      show = Gen.show_cone;
      shrink = Gen.shrink_cone;
      check = check_cone }

(* ---------------- lazy_vs_full ---------------- *)

(* Differential check for the lazy cone driver (DESIGN.md §4i): on every
   Γn instance the production decision (a cover side's certificate, else
   lazy separation) and the lazy driver alone must each return the
   same verdict as the materialized exact oracle, their certificates must
   pass the exact, LP-independent [Certificate.check] *and* prove
   exactly the generated sides, and its refuters must be genuine
   polymatroids with every side strictly negative (a real point of Γn
   beating the max).  The quick (boolean) paths are cross-checked
   against the certificate paths too.  Each certificate is also
   corrupted once, and the checker must reject the copy: a checker
   that has silently become permissive fails here. *)

(* One descriptor replaced by the next member of the family (odd-sized
   certificates at n ≥ 2, where the family has more than one member), or
   else one multiplier doubled.  Every elemental row is nonzero and
   distinct rows differ, so either way Σλ·row moves off Σμ·side.  [None]
   for a certificate that cites no row. *)
let corrupt_certificate c =
  let module Certificate = Bagcqc_entropy.Certificate in
  let module Elemental = Bagcqc_entropy.Elemental in
  let n = Certificate.n_vars c and lambda = Certificate.lambda c in
  let next_in_family d =
    let family = Elemental.descs ~n in
    let rec go = function
      | x :: (y :: _ as rest) ->
        if Elemental.desc_compare x d = 0 then y else go rest
      | _ -> List.hd family
    in
    go family
  in
  match List.length lambda with
  | 0 -> None
  | size ->
    let change (d, l) =
      if size mod 2 = 1 && n >= 2 then (next_in_family d, l)
      else (d, Rat.add l l)
    in
    Some
      (Certificate.make ~n ~cone:(Certificate.cone_name c)
         ~sides:(Certificate.sides c)
         ~lambda:
           (List.mapi (fun i r -> if i = size / 2 then change r else r) lambda)
         ~mu:(Certificate.convex_weights c))

let check_lazy_vs_full ({ n; sides } : Gen.lazy_case) =
  let module Cones = Bagcqc_entropy.Cones in
  let module Separation = Bagcqc_entropy.Separation in
  let module Certificate = Bagcqc_entropy.Certificate in
  let module Polymatroid = Bagcqc_entropy.Polymatroid in
  let module Linexpr = Bagcqc_entropy.Linexpr in
  let es = List.map build_side sides in
  let vf = Cones.Oracle.valid_max_cert ~n es in
  let qf = Cones.Oracle.valid_max_quick ~n es in
  let against tag vl ql =
    let* () =
      require (qf = ql) "quick verdicts differ: full %b, %s %b" qf tag ql
    in
    match vf, vl with
    | Ok cf, Ok cl ->
      let* () =
        require ql "%s: certificates say valid, quick paths say invalid" tag
      in
      let* () =
        require (Certificate.check cf) "full certificate fails check"
      in
      let* () =
        require (Certificate.check cl) "%s certificate fails check" tag
      in
      let* () =
        require
          (match corrupt_certificate cl with
           | Some bad -> not (Certificate.check bad)
           | None -> true)
          "a corrupted %s certificate passes check" tag
      in
      require (Certificate.proves cl ~n es)
        "%s certificate proves a different inequality" tag
    | Error hf, Error hl ->
      (* The refuting vertices may differ between engines; each must
         independently be a point of Γn with every side negative. *)
      let* () = require (not ql) "%s: refuted, but quick paths say valid" tag in
      let refutes tag h =
        let* () =
          require (Polymatroid.is_polymatroid h) "%s refuter not in Γn" tag
        in
        require
          (List.for_all
             (fun e -> Rat.sign (Linexpr.eval (Polymatroid.value h) e) < 0)
             es)
          "%s refuter leaves some side non-negative" tag
      in
      let* () = refutes "full" hf in
      refutes tag hl
    | Ok _, Error _ ->
      Error (Printf.sprintf "verdict mismatch: full says valid, %s refutes" tag)
    | Error _, Ok _ ->
      Error (Printf.sprintf "verdict mismatch: full refutes, %s says valid" tag)
  in
  (* Production tries a cover side's certificate before the lazy driver,
     so the driver also runs alone: the cases a cover side settles still
     exercise it. *)
  let* production =
    match Cones.valid_max_cert Cones.Gamma ~n es with
    | Ok None -> Error "gamma backend returned Ok without a certificate"
    | Ok (Some c) -> Ok (Ok c)
    | Error h -> Ok (Error h)
  in
  let* () =
    against "production" production (Cones.valid_max_quick Cones.Gamma ~n es)
  in
  against "lazy" (Separation.valid_max_cert ~n es) (Separation.valid_max_quick ~n es)

let lazy_vs_full_suite =
  Runner.Suite
    { name = "lazy_vs_full";
      doc =
        "production Γn decision (cover certificates, then the lazy \
         cutting-plane driver) and the lazy driver alone vs the full \
         (materialized) exact oracle: verdicts, certificate checks, \
         refuter soundness";
      gen = Gen.lazy_case;
      show = Gen.show_lazy;
      shrink = Gen.shrink_lazy;
      check = check_lazy_vs_full }

(* ---------------- decide ---------------- *)

let verdict_name = function
  | Containment.Contained _ -> "Contained"
  | Containment.Not_contained _ -> "Not_contained"
  | Containment.Unknown _ -> "Unknown"

let decide_at jobs q1 q2 =
  let prev = Bagcqc_par.Pool.jobs () in
  Bagcqc_par.Pool.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Bagcqc_par.Pool.set_jobs prev)
    (fun () -> Containment.decide q1 q2)

(* Each of the two decisions starts from an empty decision memo, or the
   parallel one would be a memo hit and its path would go untested; a
   third, memo-hit decision must then return the parallel verdict. *)
let check_decide (q1, q2) =
  Bagcqc_engine.Solver.clear ();
  let v1 = decide_at 1 q1 q2 in
  Bagcqc_engine.Solver.clear ();
  let v2 = decide_at 2 q1 q2 in
  let v3 = decide_at 1 q1 q2 in
  let* () =
    require
      (String.equal (verdict_name v1) (verdict_name v2))
      "verdicts differ: sequential %s, parallel %s" (verdict_name v1)
      (verdict_name v2)
  in
  let* () =
    require (v3 == v2) "the memo-hit decision is not the memoized verdict"
  in
  let sound tag = function
    | Containment.Contained cert ->
      require (Bagcqc_entropy.Certificate.check cert)
        "%s Contained certificate fails Certificate.check" tag
    | Containment.Not_contained w ->
      (* Recount: the record's own counts are what is being checked. *)
      let recount = Containment.verify_witness q1 q2 w.Containment.p in
      require
        (recount = Some (w.Containment.card_p, w.Containment.hom2))
        "%s witness does not recount: record |P| = %d, hom2 = %d; recount %s"
        tag w.Containment.card_p w.Containment.hom2
        (match recount with
         | Some (c, h) -> Printf.sprintf "|P| = %d, hom2 = %d" c h
         | None -> "does not separate")
    | Containment.Unknown _ -> Ok ()
  in
  let* () = sound "sequential" v1 in
  let* () = sound "parallel" v2 in
  match v1, v2 with
  | Containment.Unknown { reason = r1; _ }, Containment.Unknown { reason = r2; _ }
    ->
    require (String.equal r1 r2) "Unknown reasons differ: %S vs %S" r1 r2
  | _ -> Ok ()

let decide_suite =
  Runner.Suite
    { name = "decide";
      doc = "Containment.decide at jobs=1 vs jobs=2, plus verdict soundness";
      gen = Gen.query_pair;
      show = Gen.show_query_pair;
      shrink = Gen.shrink_query_pair;
      check = check_decide }

(* ---------------- hom_between ---------------- *)

(* The general engine on the canonical database of [qb], decoded back to
   [qb]'s variables by name — what [Hom.enumerate_between] computed
   before it searched on indices, kept as its reference. *)
let reference_between qa qb =
  let module Value = Bagcqc_relation.Value in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace index name i) (Query.var_names qb);
  let decode = function
    | Value.Str s -> Hashtbl.find index s
    | _ -> invalid_arg "Suites.reference_between: not a variable name"
  in
  let boolean =
    Query.make ~nvars:(Query.nvars qa) ~names:(Query.var_names qa) (Query.atoms qa)
  in
  List.map (Array.map decode) (Hom.enumerate boolean (Database.canonical qb))

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let show_homs homs =
  String.concat " "
    (List.map
       (fun h ->
         "[" ^ String.concat "," (Array.to_list (Array.map string_of_int h)) ^ "]")
       homs)

let check_hom_between (qa, qb) =
  if Option.is_some (Query.arity_clash qa qb) then
    let* () =
      require
        (raises_invalid (fun () -> Hom.enumerate_between qa qb))
        "enumerate_between accepts a relation used at two arities"
    in
    require
      (raises_invalid (fun () -> Hom.count_between qa qb))
      "count_between accepts a relation used at two arities"
  else
    let expected = reference_between qa qb in
    let homs = Hom.enumerate_between qa qb in
    let* () =
      require (homs = expected) "homomorphisms %s, reference %s" (show_homs homs)
        (show_homs expected)
    in
    let n = Hom.count_between qa qb in
    require (n = List.length homs) "count_between says %d for %d homomorphisms" n
      (List.length homs)

let hom_between_suite =
  Runner.Suite
    { name = "hom_between";
      doc =
        "Hom.enumerate_between on variable indices vs the general engine on \
         the canonical database: lists in order, counts, arity clashes";
      gen = Gen.hom_case;
      show = Gen.show_hom;
      shrink = Gen.shrink_hom;
      check = (fun c -> check_hom_between (Gen.build_hom c)) }

(* ---------------- eq8 ---------------- *)

let sorted_bags t = List.sort compare (Array.to_list (Treedec.bags t))

let show_bags bags =
  String.concat " "
    (List.map (Format.asprintf "%a" (Bagcqc_entropy.Varset.pp ())) bags)

let flat_et t = Bagcqc_entropy.Cexpr.to_linexpr (Treedec.et t)

let check_decomposition q2 =
  let t = Treedec.of_query q2 and r = Reference_eq8.of_query q2 in
  let* () =
    require (Treedec.is_valid_for q2 t) "of_query is not a tree decomposition: %s"
      (Format.asprintf "%a" Treedec.pp t)
  in
  let* () =
    require (sorted_bags t = sorted_bags r) "bags %s, reference %s"
      (show_bags (sorted_bags t)) (show_bags (sorted_bags r))
  in
  let* () =
    require (Bagcqc_entropy.Linexpr.equal (flat_et t) (flat_et r)) "E_T %s, reference %s"
      (Format.asprintf "%a" (Bagcqc_entropy.Linexpr.pp ()) (flat_et t))
      (Format.asprintf "%a" (Bagcqc_entropy.Linexpr.pp ()) (flat_et r))
  in
  let* () =
    require
      (Treedec.is_simple t = Treedec.is_simple r
      && Treedec.is_totally_disconnected t = Treedec.is_totally_disconnected r)
      "simple %b, totally disconnected %b; reference %b, %b" (Treedec.is_simple t)
      (Treedec.is_totally_disconnected t) (Treedec.is_simple r)
      (Treedec.is_totally_disconnected r)
  in
  let* () =
    require
      (Treedec.is_acyclic q2 = Reference_eq8.is_acyclic q2)
      "is_acyclic says %b, GYO %b" (Treedec.is_acyclic q2) (Reference_eq8.is_acyclic q2)
  in
  let* () =
    require
      (Containment.classify q2 = Reference_eq8.classify q2)
      "classify differs from the three-pass reference"
  in
  require
    (Witness.applicable q2 = Reference_eq8.applicable q2)
    "Witness.applicable differs from the reference"

let show_sides sides =
  String.concat ", "
    (List.map (Format.asprintf "%a" (Bagcqc_entropy.Linexpr.pp ())) sides)

let check_eq8 ?steps q1 q2 =
  let* () = check_decomposition q2 in
  if Option.is_some (Query.arity_clash q1 q2) then
    let* () =
      require
        (raises_invalid (fun () -> Containment.eq8 q1 q2))
        "eq8 accepts a relation used at two arities"
    in
    match steps with
    | None -> Ok ()
    | Some steps ->
      require
        (raises_invalid (fun () -> Containment.count_normal q1 q2 steps))
        "count_normal accepts a relation used at two arities"
  else
    let sides = Bagcqc_entropy.Maxii.sides (Containment.eq8 q1 q2) in
    let expected = Reference_eq8.sides q1 q2 in
    let* () =
      require
        (List.equal Bagcqc_entropy.Linexpr.equal sides expected)
        "sides %s, reference %s" (show_sides sides) (show_sides expected)
    in
    match steps with
    | None -> Ok ()
    | Some steps ->
      (* Capped at |P|, as the witness search counts: an uncapped count
         of a disconnected Q2 can run to billions. *)
      let card = 1 lsl List.fold_left (fun acc (_, k) -> acc + k) 0 steps in
      let n = Containment.count_normal ~limit:card q1 q2 steps
      and r = Reference_eq8.count_normal ~limit:card q1 q2 steps in
      require (n = r) "count_normal ~limit:%d says %d, reference %d" card n r

let eq8_suite =
  Runner.Suite
    { name = "eq8";
      doc =
        "Eq. 8's front end vs the multi-pass reference: decomposition (bags, \
         E_T, simplicity, acyclicity, class), plain sides in order, and the \
         witness count on integer codes vs Hom.count on the built database";
      gen = Gen.eq8_case;
      show = Gen.show_eq8;
      shrink = Gen.shrink_eq8;
      check =
        (fun c ->
          let q1, q2, steps = Gen.build_eq8 c in
          check_eq8 ~steps q1 q2) }

(* ---------------- parser ---------------- *)

let show_parse = function
  | Ok q -> "query " ^ Query.to_string q
  | Error msg -> "error " ^ msg

(* [Query.identical] compares heads, atoms in order and variable names. *)
let same_parse r r' =
  match (r, r') with
  | Ok q, Ok q' -> Query.identical q q'
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let check_parser s =
  let r = Parser.parse_result s in
  let expected = Reference_parser.parse_result s in
  let* () =
    require (same_parse r expected) "parsed as %s, reference %s" (show_parse r)
      (show_parse expected)
  in
  match r with
  | Error _ -> Ok ()
  | Ok q ->
    let printed = Query.to_string q in
    (match Parser.parse_result printed with
     | Ok q' ->
       require (Query.equal q q') "print/reparse changed the query: %S" printed
     | Error msg ->
       Error
         (Printf.sprintf "accepted, but its printing %S is rejected: %s"
            printed msg))

let parser_suite =
  Runner.Suite
    { name = "parser";
      doc =
        "Parser.parse_result vs the two-pass reference parser (same query, \
         names and head, or the same error message), totality, and \
         print/reparse stability";
      gen = Gen.parser_case;
      show = Gen.show_string;
      shrink = Gen.shrink_string;
      check = check_parser }

let all =
  [ logint_suite; simplex_suite; float_vs_exact_suite; lazy_vs_full_suite;
    decide_suite; parser_suite; hom_between_suite; eq8_suite ]

let find name = List.find_opt (fun s -> String.equal (Runner.name s) name) all
