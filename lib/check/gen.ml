open Bagcqc_num
open Bagcqc_lp
open Bagcqc_cq

(* ---------------- Logint ---------------- *)

type logint_case = (int * Rat.t) list

(* Coefficient pools: small rationals exercise the refinement and float
   stages; the huge numerators (scaled by ~1e15) push the cleared-
   denominator exponents past [Bigint.to_int_opt] range, the regime where
   the seed implementation died. *)
let coeff rng =
  let num = (if Rng.bool rng then 1 else -1) * Rng.range rng 1 12 in
  let den = Rng.range rng 1 6 in
  let num = if Rng.int rng 4 = 0 then num * 1_000_000_000_000_003 else num in
  Rat.of_ints num den

let base rng =
  match Rng.int rng 4 with
  | 0 -> Rng.range rng 2 12
  | 1 -> Rng.range rng 2 3000
  | 2 ->
    (* Products of small primes: rich gcd structure for the coprime
       refinement to chew on. *)
    let primes = [ 2; 3; 5; 7; 11 ] in
    let p () = Rng.choose rng primes in
    p () * p () * (if Rng.bool rng then p () else 1)
  | _ -> Rng.range rng 2 64

let logint_case rng =
  let k = Rng.range rng 1 5 in
  let plain = List.init k (fun _ -> (base rng, coeff rng)) in
  if Rng.int rng 3 = 0 then begin
    (* Append an exactly-cancelling bundle c·log(ab) − c·log a − c·log b:
       invisible to floats at these magnitudes, found only by the exact
       stages. *)
    let a = Rng.range rng 2 50 and b = Rng.range rng 2 50 in
    let c = coeff rng in
    (a * b, c) :: (a, Rat.neg c) :: (b, Rat.neg c) :: plain
  end
  else plain

let build_logint case =
  List.fold_left
    (fun acc (b, c) -> Logint.add acc (Logint.scale c (Logint.log_int b)))
    Logint.zero case

let shrink_logint case =
  let removals =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) case) case
  in
  let simplified =
    List.concat
      (List.mapi
         (fun i (b, c) ->
           let unit = Rat.of_int (Rat.sign c) in
           if Rat.equal c unit then []
           else
             [ List.mapi (fun j t -> if j = i then (b, unit) else t) case ])
         case)
  in
  List.filter (fun c -> c <> []) removals @ simplified

let show_logint case =
  String.concat " + "
    (List.map
       (fun (b, c) -> Printf.sprintf "%s*log(%d)" (Rat.to_string c) b)
       case)

(* ---------------- LP problems ---------------- *)

type lp_case = {
  nv : int;
  obj : Rat.t list;
  rows : ((int * Rat.t) list * Simplex.op * Rat.t) list;
}

let small_rat ?(lo = -3) ?(hi = 3) rng =
  Rat.of_ints (Rng.range rng lo hi) (Rng.range rng 1 3)

let lp_row rng nv =
  let cols =
    List.filter (fun _ -> Rng.int rng 3 > 0) (List.init nv Fun.id)
  in
  let cols = if cols = [] then [ Rng.int rng nv ] else cols in
  let row =
    List.filter_map
      (fun i ->
        let c = small_rat rng in
        if Rat.is_zero c then None else Some (i, c))
      cols
  in
  let op = Rng.choose rng [ Simplex.Le; Simplex.Ge; Simplex.Eq ] in
  (row, op, small_rat ~lo:(-4) ~hi:4 rng)

let lp_case rng =
  let nv = Rng.range rng 1 4 in
  let nrows = Rng.range rng 1 7 in
  { nv;
    obj = List.init nv (fun _ -> small_rat rng);
    rows = List.init nrows (fun _ -> lp_row rng nv) }

let build_lp { nv; obj; rows } =
  { Simplex.num_vars = nv;
    objective = Array.of_list obj;
    constraints =
      List.map (fun (r, op, b) -> Simplex.sparse_constr r op b) rows }

let shrink_lp case =
  let drop_row =
    List.mapi
      (fun i _ -> { case with rows = List.filteri (fun j _ -> j <> i) case.rows })
      case.rows
  in
  let zero_obj =
    if List.for_all Rat.is_zero case.obj then []
    else [ { case with obj = List.map (fun _ -> Rat.zero) case.obj } ]
  in
  drop_row @ zero_obj

let show_op = function
  | Simplex.Le -> "<="
  | Simplex.Ge -> ">="
  | Simplex.Eq -> "="

let show_lp { nv; obj; rows } =
  Printf.sprintf "nv=%d min[%s] s.t. %s" nv
    (String.concat " " (List.map Rat.to_string obj))
    (String.concat "; "
       (List.map
          (fun (r, op, b) ->
            Printf.sprintf "%s %s %s"
              (String.concat "+"
                 (List.map
                    (fun (i, c) -> Printf.sprintf "%s*x%d" (Rat.to_string c) i)
                    r))
              (show_op op) (Rat.to_string b))
          rows))

(* ---------------- cone cases ---------------- *)

(* Max-inequalities driven through the full Cones pipeline: Γn, whose
   float probe certificates are repaired exactly, and Nn/Mn, whose
   generator presolve settles most instances before their small
   refutation LP.  Sides are raw [(mask, coeff)] term lists so failures
   print and shrink structurally. *)
type cone_case = {
  cone : Bagcqc_entropy.Cones.cone;
  n : int;
  sides : (int * Rat.t) list list;
}

let cone_side rng ~n =
  let nterms = Rng.range rng 1 3 in
  List.init nterms (fun _ ->
      let mask = Rng.range rng 1 ((1 lsl n) - 1) in
      let c = small_rat rng in
      (mask, (if Rat.is_zero c then Rat.one else c)))

(* Half the cone cases are Γn at n = 2..3 with up to 3 sides; the rest
   are Nn or Mn, whose decisions stay cheap up to n = 5 and 4 sides. *)
let cone_case rng =
  let module Cones = Bagcqc_entropy.Cones in
  let cone, (n_lo, n_hi), k_hi =
    match Rng.int rng 4 with
    | 0 -> (Cones.Normal, (1, 5), 4)
    | 1 -> (Cones.Modular, (1, 5), 4)
    | _ -> (Cones.Gamma, (2, 3), 3)
  in
  let n = Rng.range rng n_lo n_hi in
  let k = Rng.range rng 1 k_hi in
  { cone; n; sides = List.init k (fun _ -> cone_side rng ~n) }

let shrink_cone ({ sides; _ } as c) =
  let drop_side =
    if List.length sides <= 1 then []
    else
      List.mapi
        (fun i _ -> { c with sides = List.filteri (fun j _ -> j <> i) sides })
        sides
  in
  let drop_term =
    List.concat
      (List.mapi
         (fun i side ->
           if List.length side <= 1 then []
           else
             List.mapi
               (fun t _ ->
                 { c with
                   sides =
                     List.mapi
                       (fun j s ->
                         if j = i then List.filteri (fun u _ -> u <> t) s
                         else s)
                       sides })
               side)
         sides)
  in
  drop_side @ drop_term

let show_cone { cone; n; sides } =
  let name =
    match cone with
    | Bagcqc_entropy.Cones.Gamma -> "gamma"
    | Normal -> "normal"
    | Modular -> "modular"
  in
  Printf.sprintf "%s n=%d max(%s)" name n
    (String.concat " ; "
       (List.map
          (fun side ->
            String.concat " + "
              (List.map
                 (fun (mask, c) ->
                   Printf.sprintf "%s*h(%d)" (Rat.to_string c) mask)
                 side))
          sides))

(* ---------------- lazy vs full cone cases ---------------- *)

(* Γn instances for the lazy-vs-full cone differential suite: the same
   raw [(mask, coeff)] side encoding as [cone_case], one size further
   out — the separation loop only does interesting work from n = 3 up,
   and n = 4 reaches instances (Ingleton-like) where the two drivers
   walk genuinely different row sets to the same verdict. *)
type lazy_case = { n : int; sides : (int * Rat.t) list list }

(* A cover side (see [Bagcqc_entropy.Cover]): sets drawn until they
   cover V, each weighted m plus a surplus that is often 0, a few extra
   non-negative terms, and −m·h(V); one draw in four is a non-negative
   sum, h(V) included.  Rational weights throughout. *)
let cover_side rng ~n =
  let full = (1 lsl n) - 1 in
  let weight () = Rat.of_ints (Rng.range rng 1 4) (Rng.range rng 1 3) in
  let surplus () = if Rng.bool rng then Rat.zero else weight () in
  let extras =
    List.init (Rng.int rng 3) (fun _ -> (Rng.range rng 1 full, surplus ()))
  in
  if Rng.int rng 4 = 0 then (full, surplus ()) :: extras
  else begin
    let m = weight () in
    let rec cover covered acc =
      if covered = full then acc
      else
        let x = Rng.range rng 1 full in
        cover (covered lor x) ((x, Rat.add m (surplus ())) :: acc)
    in
    (full, Rat.neg m) :: cover 0 extras
  end

(* A last draw puts a cover side in place of one side in about one case
   in four; the other cases keep the sides they drew before it. *)
let lazy_case rng =
  let n = Rng.range rng 2 4 in
  let k = Rng.range rng 1 3 in
  let sides = List.init k (fun _ -> cone_side rng ~n) in
  if Rng.int rng 4 = 0 then
    let l = Rng.int rng k in
    { n; sides = List.mapi (fun i s -> if i = l then cover_side rng ~n else s) sides }
  else { n; sides }

let gamma_case ({ n; sides } : lazy_case) =
  { cone = Bagcqc_entropy.Cones.Gamma; n; sides }

let shrink_lazy c =
  List.map
    (fun ({ n; sides; _ } : cone_case) : lazy_case -> { n; sides })
    (shrink_cone (gamma_case c))

let show_lazy c = show_cone (gamma_case c)

(* ---------------- Boolean query pairs ---------------- *)

let vocabulary = [ ("R", 2); ("S", 2); ("T", 1) ]

let compact_atoms atoms =
  (* Remap the variables actually used onto 0..n-1 so [Query.make]'s
     every-variable-occurs rule holds by construction. *)
  let seen = Hashtbl.create 8 in
  let next = ref 0 in
  let remap v =
    match Hashtbl.find_opt seen v with
    | Some i -> i
    | None ->
      let i = !next in
      Hashtbl.add seen v i;
      incr next;
      i
  in
  let atoms =
    List.map
      (fun (rel, args) -> { Query.rel; args = Array.of_list (List.map remap args) })
      atoms
  in
  Query.make ~nvars:!next atoms

let query rng =
  let nv = Rng.range rng 1 3 in
  let natoms = Rng.range rng 1 3 in
  compact_atoms
    (List.init natoms (fun _ ->
         let rel, arity = Rng.choose rng vocabulary in
         (rel, List.init arity (fun _ -> Rng.int rng nv))))

let query_pair rng = (query rng, query rng)

let shrink_query rebuild_pair q =
  let atoms = List.map (fun a -> (a.Query.rel, Array.to_list a.Query.args)) (Query.atoms q) in
  if List.length atoms <= 1 then []
  else
    List.mapi
      (fun i _ ->
        rebuild_pair (compact_atoms (List.filteri (fun j _ -> j <> i) atoms)))
      atoms

let shrink_query_pair (q1, q2) =
  shrink_query (fun q -> (q, q2)) q1 @ shrink_query (fun q -> (q1, q)) q2

let show_query_pair (q1, q2) =
  Printf.sprintf "%s ; %s" (Query.to_string q1) (Query.to_string q2)

(* ---------------- Homomorphisms between queries ---------------- *)

type hom_case = {
  source : (string * int list) list;
  target : (string * int list) list;
  target_names : string list option;
}

let hom_relations = [ "R"; "S"; "T" ]

let hom_side rng ~arities ~rels =
  let nv = Rng.range rng 1 (if Rng.int rng 4 > 0 then 4 else 12) in
  let natoms = if Rng.int rng 16 = 0 then 0 else Rng.range rng 1 5 in
  List.init natoms (fun _ ->
      let rel = Rng.choose rng rels in
      (rel, List.init (List.assoc rel arities) (fun _ -> Rng.int rng nv)))

let hom_case rng =
  let arities = List.map (fun r -> (r, Rng.range rng 1 3)) hom_relations in
  (* Now and then the target uses one relation at another arity. *)
  let target_arities =
    if Rng.int rng 8 > 0 then arities
    else
      let r = Rng.choose rng hom_relations in
      List.map (fun (s, k) -> if String.equal s r then (s, Rng.range rng 1 3) else (s, k))
        arities
  in
  (* Relations the target leaves out have no candidate row at all. *)
  let target_rels =
    match List.filter (fun _ -> Rng.int rng 8 > 0) hom_relations with
    | [] -> [ Rng.choose rng hom_relations ]
    | rels -> rels
  in
  let target = hom_side rng ~arities:target_arities ~rels:target_rels in
  (* Mostly over relations the target has rows for, or few maps exist. *)
  let source_rels =
    match List.sort_uniq String.compare (List.map fst target) with
    | _ :: _ as rels when Rng.int rng 4 > 0 -> rels
    | _ -> hom_relations
  in
  let source = hom_side rng ~arities ~rels:source_rels in
  (* Target names in an order unlike their indices': plain, or primed
     as [Query.power] primes its copies. *)
  let target_names =
    let shuffled pool =
      for i = Array.length pool - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = pool.(i) in
        pool.(i) <- pool.(j);
        pool.(j) <- t
      done;
      Some (Array.to_list pool)
    in
    match Rng.int rng 3 with
    | 0 -> None
    | 1 -> shuffled [| "b"; "a"; "ab"; "B"; "a1"; "x"; "_"; "b0"; "aa"; "z"; "A"; "c" |]
    | _ -> shuffled [| "x"; "x'"; "x''"; "y'"; "y"; "x_"; "x0"; "X"; "_x"; "x'0"; "xx"; "y''" |]
  in
  { source; target; target_names }

let build_hom c =
  let qb = compact_atoms c.target in
  let qb =
    match c.target_names with
    | None -> qb
    | Some names ->
      let names =
        Array.init (Query.nvars qb) (fun i ->
            match List.nth_opt names i with
            | Some s -> s
            | None -> Bagcqc_entropy.Varset.default_name i)
      in
      Query.make ~nvars:(Query.nvars qb) ~names (Query.atoms qb)
  in
  (compact_atoms c.source, qb)

let shrink_hom c =
  let drop l = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l in
  List.map (fun source -> { c with source }) (drop c.source)
  @ List.map (fun target -> { c with target }) (drop c.target)
  @ (match c.target_names with
     | Some _ -> [ { c with target_names = None } ]
     | None -> [])

let show_hom c =
  let qa, qb = build_hom c in
  let atoms l =
    String.concat ", "
      (List.map
         (fun (r, args) ->
           Printf.sprintf "%s(%s)" r (String.concat "," (List.map string_of_int args)))
         l)
  in
  Printf.sprintf "%s ; %s  (source %s; target %s)" (Query.to_string qa)
    (Query.to_string qb) (atoms c.source) (atoms c.target)

(* ---------------- Eq. 8 front end ---------------- *)

type eq8_case = { pair : hom_case; steps : (int * int) list }

let eq8_case rng =
  let pair = hom_case rng in
  let steps = List.init (Rng.int rng 4) (fun _ -> (Rng.bits rng, Rng.range rng 1 2)) in
  { pair; steps }

let build_eq8 c =
  let q2, q1 = build_hom c.pair in
  let full = Bagcqc_entropy.Varset.full (Query.nvars q1) in
  let steps =
    List.filter_map
      (fun (raw, k) ->
        let w = raw land full in
        if w = full then None else Some (w, k))
      c.steps
  in
  (q1, q2, steps)

let shrink_eq8 c =
  List.map (fun pair -> { c with pair }) (shrink_hom c.pair)
  @ List.mapi (fun i _ -> { c with steps = List.filteri (fun j _ -> j <> i) c.steps }) c.steps

let show_eq8 c =
  let q1, q2, steps = build_eq8 c in
  Printf.sprintf "%s ; %s  steps [%s]" (Query.to_string q1) (Query.to_string q2)
    (String.concat "; "
       (List.map (fun (w, k) -> Printf.sprintf "%d x%d" w k) steps))

(* ---------------- Parser inputs ---------------- *)

let alphabet = "RSTQxyzw()(),,.:-- '\t_019"

let random_string rng =
  let n = Rng.int rng 41 in
  String.init n (fun _ -> alphabet.[Rng.int rng (String.length alphabet)])

let mutate rng s =
  let n = String.length s in
  let c () = alphabet.[Rng.int rng (String.length alphabet)] in
  match Rng.int rng 3 with
  | 0 when n > 0 ->
    (* delete *)
    let i = Rng.int rng n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 1 ->
    (* insert *)
    let i = Rng.int rng (n + 1) in
    String.sub s 0 i ^ String.make 1 (c ()) ^ String.sub s i (n - i)
  | _ when n > 0 ->
    (* replace *)
    let i = Rng.int rng n in
    String.sub s 0 i ^ String.make 1 (c ()) ^ String.sub s (i + 1) (n - i - 1)
  | _ -> String.make 1 (c ())

let parser_case rng =
  if Rng.bool rng then random_string rng
  else begin
    let s = ref (Query.to_string (query rng)) in
    for _ = 1 to Rng.range rng 1 3 do
      s := mutate rng !s
    done;
    !s
  end

let shrink_string s =
  List.init (String.length s) (fun i ->
      String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1))

let show_string s = Printf.sprintf "%S" s
