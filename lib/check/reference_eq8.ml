open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq
open Bagcqc_core

let of_query q =
  match Treedec.join_tree q with
  | Some t -> t
  | None ->
    let g = Graph.gaifman q in
    let g = if Graph.is_chordal g then g else Graph.min_fill_triangulation g in
    (match Treedec.junction_tree g with
     | Some t -> t
     | None -> invalid_arg "Reference_eq8.of_query: no junction tree after triangulation")

let is_acyclic q = Treedec.join_tree q <> None

let classify q2 =
  let acyclic = is_acyclic q2 in
  let chordal = Graph.is_chordal (Graph.gaifman q2) in
  if acyclic || chordal then begin
    match acyclic, Treedec.is_simple (of_query q2) with
    | true, true -> Containment.Acyclic_simple
    | true, false -> Containment.Acyclic
    | false, true -> Containment.Chordal_simple
    | false, false -> Containment.Chordal
  end
  else Containment.General

let applicable q2 =
  let tree =
    match Treedec.join_tree q2 with
    | Some t -> Some t
    | None -> Treedec.junction_tree (Graph.gaifman q2)
  in
  match tree with
  | None -> None
  | Some t ->
    if Treedec.is_totally_disconnected t then Some Witness.Product
    else if Treedec.is_simple t then Some Witness.Normal
    else None

let sides q1 q2 =
  if not (Query.is_boolean q1 && Query.is_boolean q2) then
    invalid_arg "Reference_eq8.sides: queries must be Boolean";
  let q1 = Query.dedup_atoms q1 and q2 = Query.dedup_atoms q2 in
  let homs = Hom.enumerate_between q2 q1 in
  let et = Treedec.et (of_query q2) in
  let seen = Hashtbl.create 16 in
  let sides =
    List.filter
      (fun cx ->
        let key = Linexpr.terms (Cexpr.to_linexpr cx) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      (List.map (fun phi -> Cexpr.rename (fun v -> phi.(v)) et) homs)
  in
  Maxii.sides (Maxii.conditional ~n:(Query.nvars q1) ~q:Rat.one sides)

let count_normal ?limit q1 q2 steps =
  let p = Relation.of_normal_steps ~n:(Query.nvars q1) steps in
  Hom.count ?limit q2 (Database.of_vrelation ~annotate:true q1 p)
