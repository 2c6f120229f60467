open Bagcqc_num
open Bagcqc_engine
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq

type witness = {
  p : Relation.t;
  db : Database.t;
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
  let acyclic = Treedec.is_acyclic q2 in
  let chordal = Graph.is_chordal (Graph.gaifman q2) in
  if acyclic || chordal then begin
    let simple = Treedec.is_simple (Treedec.of_query q2) in
    match acyclic, simple with
    | true, true -> Acyclic_simple
    | true, false -> Acyclic
    | false, true -> Chordal_simple
    | false, false -> Chordal
  end
  else General

let require_boolean q =
  if not (Query.is_boolean q) then
    invalid_arg "Containment: queries must be Boolean (use decide_with_heads)"

(* Eq. 8 on queries whose duplicate atoms are already gone, from the
   homomorphisms [homs] = hom(Q2, Q1). *)
let eq8_deduped ?(dedup = true) ?decs homs q1 q2 =
  (* Without a homomorphism there is no side whatever the decomposition,
     so the default one is not built. *)
  let decs =
    match decs, homs with
    | Some ds, _ -> ds
    | None, [] -> []
    | None, _ :: _ -> [ Treedec.of_query q2 ]
  in
  let sides =
    List.concat_map
      (fun t ->
        let et = Treedec.et t in
        List.map (fun phi -> Cexpr.rename (fun v -> phi.(v)) et) homs)
      decs
  in
  (* Distinct homomorphisms frequently induce the same expression (e.g.
     they differ only on isolated components); the max is insensitive to
     duplicates, and every duplicate side costs an LP row. *)
  let sides =
    if not dedup then sides
    else begin
      let seen = Hashtbl.create 16 in
      List.filter
        (fun cx ->
          let key = Linexpr.terms (Cexpr.to_linexpr cx) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        sides
    end
  in
  Maxii.conditional ~n:(Query.nvars q1) ~q:Rat.one sides

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

let default_max_factors = 14

(* The candidate P of a step decomposition with integer multiplicities,
   its database Π_Q1(P) and |P|: the one constructor of every witness. *)
let candidate q1 steps =
  let p = Relation.of_normal_steps ~n:(Query.nvars q1) steps in
  (p, Database.of_vrelation ~annotate:true q1 p, Relation.cardinal p)

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
        let p, db, card =
          candidate q1 (List.map (fun (w, c) -> (w, c * k)) base)
        in
        let hom2 = Hom.count ~limit:card q2 db in
        if hom2 < card then Some { p; db; card_p = card; hom2 }
        else if base_factors = 0 then None
        else try_k (k + 1)
      end
    in
    try_k 1

(* The engine's decision memo: one verdict per de-duplicated pair and
   witness budget.  Names are part of the key because a witness database
   is annotated with Q1's variable names; every verdict is immutable
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
        let p, db, card_p = candidate q1 [] in
        Not_contained { p; db; card_p; hom2 = 0 })
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

let decide ?max_factors q1 q2 =
  require_boolean q1;
  require_boolean q2;
  Bagcqc_obs.Span.with_span ~name:"containment.decide"
    ~attrs:
      [ ("vars1", Bagcqc_obs.Span.Int (Query.nvars q1));
        ("vars2", Bagcqc_obs.Span.Int (Query.nvars q2)) ]
  @@ fun () ->
  let max_factors = Option.value max_factors ~default:default_max_factors in
  let q1 = Query.dedup_atoms q1 and q2 = Query.dedup_atoms q2 in
  let v =
    Decisions.find_or_compute (decision_key ~max_factors q1 q2) (fun () ->
        decide_fresh ~max_factors q1 q2)
  in
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
