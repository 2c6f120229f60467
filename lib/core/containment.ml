open Bagcqc_num
open Bagcqc_engine
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq

type witness = {
  p : Relation.t;
  card_p : int;
  hom2 : int;
}

type verdict =
  | Contained of Certificate.t
  | Not_contained of witness
  | Unknown of { reason : string; refuter : Polymatroid.t option }

type query_class =
  | Acyclic_simple
  | Chordal_simple
  | Acyclic
  | Chordal
  | General

let classify q2 =
  match Treedec.clique_tree q2 with
  | None -> General
  | Some (t, acyclic) ->
    (match acyclic, Treedec.is_simple t with
     | true, true -> Acyclic_simple
     | true, false -> Acyclic
     | false, true -> Chordal_simple
     | false, false -> Chordal)

let require_boolean q =
  if not (Query.is_boolean q) then
    invalid_arg "Containment: queries must be Boolean (use decide_with_heads)"

(* [φ(m)] for a variable mask [m]. *)
let rename_mask phi m =
  let r = ref Varset.empty and m = ref m and v = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then r := Varset.add phi.(!v) !r;
    m := !m lsr 1;
    incr v
  done;
  !r

(* In-place insertion sort of [a.(lo) .. a.(hi - 1)]: a handful of masks. *)
let sort_range a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref i in
    while !j > lo && a.(!j - 1) > x do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- x
  done

(* The side [E_T∘φ − h(V)] as integer terms [m₀; c₀; m₁; c₁; …]: E_T is
   [Σ h(bag) − Σ h(separator)] (Eq. 7), so the side adds one for each
   renamed bag and takes one off for each renamed separator and for [V].
   Masks ascend; a zero coefficient and [h(∅)] are dropped, as
   [Linexpr] drops them, so two sides are equal iff their arrays are. *)
let side_terms phi ~bags ~seps ~full =
  let nb = Array.length bags and ns = Array.length seps in
  let t = Array.make (nb + ns + 1) full in
  for i = 0 to nb - 1 do t.(i) <- rename_mask phi bags.(i) done;
  for i = 0 to ns - 1 do t.(nb + i) <- rename_mask phi seps.(i) done;
  sort_range t 0 nb;
  sort_range t nb (nb + ns + 1);
  let out = Array.make (2 * (nb + ns + 1)) 0 in
  let len = ref 0 and i = ref 0 and j = ref nb in
  while !i < nb || !j <= nb + ns do
    let m =
      if !j > nb + ns || (!i < nb && t.(!i) <= t.(!j)) then t.(!i) else t.(!j)
    in
    let c = ref 0 in
    while !i < nb && t.(!i) = m do incr c; incr i done;
    while !j <= nb + ns && t.(!j) = m do decr c; incr j done;
    if m <> Varset.empty && !c <> 0 then begin
      out.(!len) <- m;
      out.(!len + 1) <- !c;
      len := !len + 2
    end
  done;
  Array.sub out 0 !len

let linexpr_of_terms terms =
  let e = ref Linexpr.zero in
  for k = 0 to (Array.length terms / 2) - 1 do
    let c =
      match terms.((2 * k) + 1) with 1 -> Rat.one | -1 -> Rat.minus_one | c -> Rat.of_int c
    in
    e := Linexpr.add_term terms.(2 * k) c !e
  done;
  !e

module Side_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.fold_left (fun h x -> (h * 16777619) lxor x) 0x811c9dc5 a land max_int
end)

(* Eq. 8 on queries whose duplicate atoms are already gone, from the
   homomorphisms [homs] = hom(Q2, Q1).  Each side is first built on
   integer terms, where distinct homomorphisms that induce the same
   expression (e.g. differing only on isolated components) are dropped:
   the max is insensitive to duplicates, and every duplicate side costs
   an LP row.  A kept side then gets its [Linexpr] form, read by the
   cones, and its [Cexpr] form [E_T∘φ], read by Theorem 3.6's shape. *)
let eq8_deduped ?(dedup = true) ?decs homs q1 q2 =
  (* Without a homomorphism there is no side whatever the decomposition,
     so the default one is not built. *)
  let decs =
    match decs, homs with
    | Some ds, _ -> ds
    | None, [] -> []
    | None, _ :: _ -> [ Treedec.of_query q2 ]
  in
  let n = Query.nvars q1 in
  let full = Varset.full n in
  let seen = Side_tbl.create 16 in
  let plain = ref [] and cexprs = ref [] in
  List.iter
    (fun t ->
      let bags = Treedec.bags t in
      let seps =
        Array.of_list
          (List.map (fun (a, b) -> Varset.inter bags.(a) bags.(b)) (Treedec.tree_edges t))
      in
      let et = Treedec.et t in
      List.iter
        (fun phi ->
          let terms = side_terms phi ~bags ~seps ~full in
          if not (dedup && Side_tbl.mem seen terms) then begin
            if dedup then Side_tbl.add seen terms ();
            plain := linexpr_of_terms terms :: !plain;
            cexprs := Cexpr.rename (fun v -> phi.(v)) et :: !cexprs
          end)
        homs)
    decs;
  Maxii.conditional ~plain:(List.rev !plain) ~n ~q:Rat.one (List.rev !cexprs)

let eq8 ?dedup ?decs q1 q2 =
  require_boolean q1;
  require_boolean q2;
  let q1 = Query.dedup_atoms q1 and q2 = Query.dedup_atoms q2 in
  eq8_deduped ?dedup ?decs (Hom.enumerate_between q2 q1) q1 q2

let scale_steps coeffs =
  let lcm_den =
    List.fold_left
      (fun acc (_, c) ->
        let d = Rat.den c in
        Bigint.mul acc (Bigint.div d (Bigint.gcd acc d)))
      Bigint.one coeffs
  in
  List.filter_map
    (fun (w, c) ->
      let scaled = Rat.mul c (Rat.of_bigint lcm_den) in
      assert (Rat.is_integer scaled);
      match Bigint.to_int_opt (Rat.num scaled) with
      | Some 0 -> None
      | Some k when k > 0 -> Some (w, k)
      | Some _ -> invalid_arg "Containment.scale_steps: negative multiplicity"
      | None -> invalid_arg "Containment.scale_steps: multiplicity overflow")
    coeffs

let verify_witness ?(annotate = true) q1 q2 p =
  if Relation.arity p <> Query.nvars q1 then
    invalid_arg "Containment.verify_witness: arity mismatch";
  let db = Database.of_vrelation ~annotate q1 p in
  let card = Relation.cardinal p in
  let hom2 = Hom.count ~limit:card q2 db in
  if hom2 < card then Some (card, hom2) else None

let witness_db q1 w = Database.of_vrelation ~annotate:true q1 w.p

let default_max_factors = 14

(* Π_Q1(P) for P = [Relation.of_normal_steps ~n steps], on integer codes.
   P is the domain product of one two-row step relation per factor, so
   its rows are the bit vectors b ∈ [0, 2^F) (bit j set: factor j takes
   its second row, which leaves its W and moves everywhere else), and
   the value in column i is determined by [b land away.(i)], [away.(i)]
   being the factors whose W misses i.  Theorem 4.4's annotation
   [Tag (X_i, c)] becomes the code [(b land away.(i)) lsl 6 lor i], so
   values of distinct variables never meet.  An atom's projection has
   one row per submask of its variables' [away] masks, and two atoms of
   one relation share no row: after [dedup_atoms] their arguments
   differ somewhere, and so does the variable in the code. *)
let count_normal ?limit q1 q2 steps =
  let q1 = Query.dedup_atoms q1 in
  let n = Query.nvars q1 in
  let away = Array.make n Varset.empty and factors = ref 0 in
  List.iter
    (fun (w, c) ->
      if c <= 0 then
        invalid_arg "Containment.count_normal: multiplicities must be positive";
      if Varset.equal w (Varset.full n) then
        invalid_arg "Containment.count_normal: W must be proper";
      for _ = 1 to c do
        if !factors > 55 then
          invalid_arg "Containment.count_normal: too many factors";
        for i = 0 to n - 1 do
          if not (Varset.mem i w) then away.(i) <- Varset.add !factors away.(i)
        done;
        incr factors
      done)
    steps;
  let project (a : Query.atom) =
    let args = a.args in
    let m = Array.fold_left (fun m v -> Varset.union m away.(v)) Varset.empty args in
    let rows = Array.make (1 lsl Varset.cardinal m) [||] in
    (* Every submask [s] of [m], from [m] down to ∅. *)
    let s = ref m and k = ref 0 in
    while !k < Array.length rows do
      let b = !s in
      rows.(!k) <- Array.map (fun v -> ((b land away.(v)) lsl 6) lor v) args;
      incr k;
      s := (b - 1) land m
    done;
    rows
  in
  (* One row array per relation Q2 uses, shared by its atoms. *)
  let built = ref [] in
  let relation rel =
    match List.assoc_opt rel !built with
    | Some rows -> rows
    | None ->
      let rows =
        Array.concat
          (List.filter_map
             (fun (a : Query.atom) -> if String.equal a.rel rel then Some (project a) else None)
             (Query.atoms q1))
      in
      built := (rel, rows) :: !built;
      rows
  in
  Hom.count_coded ?limit q2
    (Array.of_list (List.map (fun (a : Query.atom) -> relation a.rel) (Query.atoms q2)))

let witness_from_normal ?(max_factors = default_max_factors) q1 q2 h =
  match Polymatroid.normal_decomposition h with
  | None -> None
  | Some coeffs ->
    let base = scale_steps coeffs in
    let base_factors = List.fold_left (fun acc (_, c) -> acc + c) 0 base in
    let rec try_k k =
      if base_factors * k > max_factors && not (base_factors = 0 && k = 1) then
        None
      else begin
        let steps = List.map (fun (w, c) -> (w, c * k)) base in
        (* The factors' rows are distinct, so |P| = 2^F. *)
        let card = 1 lsl (base_factors * k) in
        let hom2 = count_normal ~limit:card q1 q2 steps in
        if hom2 < card then
          Some
            { p = Relation.of_normal_steps ~n:(Query.nvars q1) steps;
              card_p = card; hom2 }
        else if base_factors = 0 then None
        else try_k (k + 1)
      end
    in
    try_k 1

(* The engine's decision memo: one verdict per de-duplicated pair and
   witness budget.  Names are part of the key because they order
   hom(Q2, Q1), hence Eq. 8's sides and a certificate's multipliers;
   every verdict is immutable
   through its public interface, so hits share it without copying.  The
   hash is computed once per decision: the table hashes a key on every
   lookup, insertion and in-flight update. *)
type decision_key = { hash : int; max_factors : int; q1 : Query.t; q2 : Query.t }

(* A fold over both queries, then [Hashtbl.hash] to spread the low bits
   the shards and buckets index by.  [Hashtbl.hash] on the pair itself
   would stop at its traversal limits and lump thousands of pairs
   together. *)
let decision_key ~max_factors q1 q2 =
  let mix h x = (h * 16777619) lxor x in
  { hash = Hashtbl.hash (mix (mix max_factors (Query.hash q1)) (Query.hash q2));
    max_factors; q1; q2 }

module Decisions =
  Solver.Memo
    (struct
      type t = decision_key

      let equal a b =
        a.hash = b.hash && a.max_factors = b.max_factors
        && Query.identical a.q1 b.q1 && Query.identical a.q2 b.q2

      let hash k = k.hash
    end)
    (struct
      type t = verdict
    end)

let verdict_name = function
  | Contained _ -> "contained"
  | Not_contained _ -> "not_contained"
  | Unknown _ -> "unknown"

(* The paper's pipeline on a de-duplicated pair, uncached.  hom(Q2, Q1)
   is enumerated once.  When it is empty, Eq. 8 has no side and the zero
   function refutes it; the witness [witness_from_normal] builds from
   that refuter is the one-row P, whose database is Q1's canonical
   database up to renaming, so hom(Q2, Π_Q1(P)) is empty (Chandra–Merlin)
   and neither cone nor the count is run. *)
let decide_fresh ~max_factors q1 q2 =
  match
    Bagcqc_obs.Span.with_span ~name:"eq8" (fun () ->
        match Hom.enumerate_between q2 q1 with
        | [] -> None
        | homs -> Some (eq8_deduped homs q1 q2))
  with
  | None ->
    Bagcqc_obs.Span.with_span ~name:"witness" (fun () ->
        Not_contained
          { p = Relation.of_normal_steps ~n:(Query.nvars q1) []; card_p = 1; hom2 = 0 })
  | Some ineq ->
  match
    Bagcqc_obs.Span.with_span ~name:"maxii" (fun () -> Maxii.decide ineq)
  with
  | Maxii.Valid cert -> Contained cert
  | Maxii.Unknown refuter ->
    Unknown
      { reason =
          "Eq. 8 fails over the Shannon cone but holds over the normal cone: \
           the refuting polymatroid may not be entropic (Q2 is outside the \
           decidable classes)";
        refuter = Some refuter }
  | Maxii.Invalid h_normal ->
    (match
       Bagcqc_obs.Span.with_span ~name:"witness" (fun () ->
           witness_from_normal ~max_factors q1 q2 h_normal)
     with
     | Some w -> Not_contained w
     | None ->
       Unknown
         { reason =
             "a normal refuter of Eq. 8 exists but realizing it as a witness \
              database exceeded the max_factors budget";
           refuter = Some h_normal })

(* Span attributes are built only when tracing is on: a memo hit must
   not pay for them. *)
let decide ?max_factors q1 q2 =
  require_boolean q1;
  require_boolean q2;
  Bagcqc_obs.Span.with_span ~name:"containment.decide" @@ fun () ->
  let traced = !Bagcqc_obs.Runtime.enabled in
  if traced then begin
    Bagcqc_obs.Span.add_attr "vars2" (Bagcqc_obs.Span.Int (Query.nvars q2));
    Bagcqc_obs.Span.add_attr "vars1" (Bagcqc_obs.Span.Int (Query.nvars q1))
  end;
  let max_factors = Option.value max_factors ~default:default_max_factors in
  let q1 = Query.dedup_atoms q1 and q2 = Query.dedup_atoms q2 in
  let v =
    Decisions.find_or_compute (decision_key ~max_factors q1 q2) (fun () ->
        decide_fresh ~max_factors q1 q2)
  in
  if traced then
    Bagcqc_obs.Span.add_attr "verdict" (Bagcqc_obs.Span.Str (verdict_name v));
  v

let decide_result ?max_factors q1 q2 =
  Bagcqc_error.protect (fun () -> decide ?max_factors q1 q2)

let decide_many ?max_factors pairs =
  (* Batch fan-out over the pool: each pair runs the full sequential
     pipeline on its worker (every nested parallel entry point sees
     [inside_task] and stays sequential), so per-instance verdicts and
     solver counters match a one-by-one run exactly. *)
  Bagcqc_par.Pool.parallel_map_list
    (fun (q1, q2) -> decide ?max_factors q1 q2)
    pairs

let decide_with_heads ?max_factors q1 q2 =
  let b1, b2 = Reductions.booleanize q1 q2 in
  decide ?max_factors b1 b2

let contained_set q1 q2 =
  (* Chandra–Merlin: evaluate Q2 on the canonical database of Q1; head
     variables must be matched identically, which the canonical-database
     trick encodes by comparing head tuples. *)
  if List.length (Query.head q1) <> List.length (Query.head q2) then
    invalid_arg "Containment.contained_set: head arity mismatch";
  let db = Database.canonical q1 in
  let head1 =
    List.map (fun v -> Value.Str (Query.var_name q1 v)) (Query.head q1)
  in
  List.exists
    (fun (key, _) -> key = Array.of_list head1)
    (Hom.answers q2 db)

let decide_bag_bag ?max_factors q1 q2 =
  let l1 = Bagdb.lift_query q1 and l2 = Bagdb.lift_query q2 in
  if Query.is_boolean l1 && Query.is_boolean l2 then decide ?max_factors l1 l2
  else decide_with_heads ?max_factors l1 l2
