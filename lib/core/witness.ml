open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq

type kind = Product | Normal

let applicable q2 =
  match Treedec.clique_tree q2 with
  | None -> None
  | Some (t, _) ->
    if Treedec.is_totally_disconnected t then Some Product
    else if Treedec.is_simple t then Some Normal
    else None

let product_witness ?(max_rows = 4096) q1 q2 =
  let ineq = Containment.eq8 q1 q2 in
  match Maxii.valid_over Cones.Modular ineq with
  | Ok () -> None
  | Error h_modular ->
    let n = Query.nvars (Query.dedup_atoms q1) in
    (* Integer weights: scale the modular refuter like a step
       decomposition (a modular function IS a combination of the
       co-singleton steps with its singleton values as coefficients). *)
    let weights =
      List.init n (fun i -> Polymatroid.value h_modular (Varset.singleton i))
    in
    let scaled =
      Containment.scale_steps
        (List.mapi (fun i w -> (Varset.singleton i, w)) weights)
    in
    let weight_of i =
      match List.assoc_opt (Varset.singleton i) scaled with
      | Some w -> w
      | None -> 0
    in
    let rec try_k k =
      let sizes = List.init n (fun i -> 1 lsl (k * weight_of i)) in
      let rows = List.fold_left ( * ) 1 sizes in
      if rows > max_rows then None
      else begin
        let p = Relation.product_of_sizes sizes in
        match Containment.verify_witness q1 q2 p with
        | Some (card, hom2) -> Some (p, card, hom2)
        | None -> try_k (k + 1)
      end
    in
    try_k 1

let locality_holds q1 q2 p ~phi =
  let q1 = Query.dedup_atoms q1 and q2 = Query.dedup_atoms q2 in
  if Relation.arity p <> Query.nvars q1 then
    invalid_arg "Witness.locality_holds: arity mismatch";
  if Array.length phi <> Query.nvars q2 then
    invalid_arg "Witness.locality_holds: phi length mismatch";
  let db = Database.of_vrelation ~annotate:true q1 p in
  let annotated_p =
    Relation.of_list ~arity:(Relation.arity p)
      (List.map
         (fun row ->
           Array.mapi (fun i v -> Value.Tag (Query.var_name q1 i, v)) row)
         (Relation.to_list p))
  in
  let name_to_var = Hashtbl.create 16 in
  Array.iteri
    (fun i name -> Hashtbl.replace name_to_var name i)
    (Query.var_names q1);
  let decode = function
    | Value.Tag (name, _) -> Hashtbl.find_opt name_to_var name
    | Value.Int _ | Value.Str _ | Value.Pair _ | Value.Tuple _ -> None
  in
  let t = Treedec.of_query q2 in
  let bags = Treedec.bags t in
  Array.for_all
    (fun bag ->
      let bag_vars = Varset.to_list bag in
      let reindex = Hashtbl.create 8 in
      List.iteri (fun i v -> Hashtbl.replace reindex v i) bag_vars;
      let atoms_t =
        List.filter_map
          (fun a ->
            if Varset.subset (Query.atom_vars a) bag then
              Some
                { a with
                  Query.args =
                    Array.map (fun v -> Hashtbl.find reindex v) a.Query.args }
            else None)
          (Query.atoms q2)
      in
      (* Variables of the bag not covered by any atom never constrain the
         check; restrict to the covered ones. *)
      let covered =
        List.fold_left
          (fun acc a -> Varset.union acc (Query.atom_vars a))
          Varset.empty atoms_t
      in
      match atoms_t with
      | [] -> true
      | _ ->
        (* Build the sub-query Q_t over the covered re-indexed variables
           (compact the indices once more). *)
        let compact = Hashtbl.create 8 in
        let next = ref 0 in
        Varset.fold_elements
          (fun v () ->
            Hashtbl.replace compact v !next;
            incr next)
          covered ();
        let qt =
          Query.make ~nvars:!next
            (List.map
               (fun a ->
                 { a with
                   Query.args =
                     Array.map (fun v -> Hashtbl.find compact v) a.Query.args })
               atoms_t)
        in
        let covered_orig =
          List.filter (fun v -> Varset.mem (Hashtbl.find reindex v) covered) bag_vars
        in
        let proj_cols = Array.of_list (List.map (fun v -> phi.(v)) covered_orig) in
        let projected = Relation.project proj_cols annotated_p in
        List.for_all
          (fun g ->
            (* Does g decode to φ on the covered bag variables? *)
            let matches_phi =
              List.for_all
                (fun v ->
                  let slot = Hashtbl.find compact (Hashtbl.find reindex v) in
                  match decode g.(slot) with
                  | Some q1_var -> q1_var = phi.(v)
                  | None -> false)
                covered_orig
            in
            if not matches_phi then true
            else begin
              let tuple =
                Array.of_list
                  (List.map
                     (fun v -> g.(Hashtbl.find compact (Hashtbl.find reindex v)))
                     covered_orig)
              in
              Relation.mem tuple projected
            end)
          (Hom.enumerate qt db))
    bags

let normal_witness ?max_factors q1 q2 =
  let ineq = Containment.eq8 q1 q2 in
  match Maxii.valid_over Cones.Normal ineq with
  | Ok () -> None
  | Error h_normal ->
    Containment.witness_from_normal ?max_factors (Query.dedup_atoms q1)
      (Query.dedup_atoms q2) h_normal
