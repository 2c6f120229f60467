open Bagcqc_relation

module SMap = Map.Make (String)

module Row = struct
  type t = Value.t array

  let compare (a : t) (b : t) =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else
      let rec loop i =
        if i >= la then 0
        else
          let c = Value.compare a.(i) b.(i) in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0
end

module RMap = Map.Make (Row)

type t = int RMap.t SMap.t

let empty = SMap.empty

let add_row ?(count = 1) name row db =
  if count <= 0 then invalid_arg "Bagdb.add_row: count must be positive";
  let rel = match SMap.find_opt name db with Some r -> r | None -> RMap.empty in
  (match RMap.choose_opt rel with
   | Some (r0, _) when Array.length r0 <> Array.length row ->
     invalid_arg "Bagdb.add_row: arity mismatch"
   | Some _ | None -> ());
  let rel =
    RMap.update row
      (function None -> Some count | Some c -> Some (c + count))
      rel
  in
  SMap.add name rel db

let of_int_rows spec =
  List.fold_left
    (fun db (name, rows) ->
      List.fold_left
        (fun db (row, count) ->
          add_row ~count name
            (Array.of_list (List.map (fun i -> Value.Int i) row))
            db)
        db rows)
    empty spec

let multiplicity db name row =
  match SMap.find_opt name db with
  | None -> 0
  | Some rel -> (match RMap.find_opt row rel with Some c -> c | None -> 0)

let support db =
  SMap.fold
    (fun name rel acc ->
      RMap.fold (fun row _ acc -> Database.add_row name row acc) rel acc)
    db Database.empty

let count_bag q db =
  let atoms = Query.atoms q in
  let set_db = support db in
  List.fold_left
    (fun acc f ->
      let weight =
        List.fold_left
          (fun w a ->
            let image = Array.map (fun v -> f.(v)) a.Query.args in
            w * multiplicity db a.Query.rel image)
          1 atoms
      in
      acc + weight)
    0
    (Hom.enumerate q set_db)

let to_set_database db =
  SMap.fold
    (fun name rel acc ->
      RMap.fold
        (fun row count acc ->
          let rec add acc i =
            if i >= count then acc
            else
              add
                (Database.add_row name (Array.append row [| Value.Int i |]) acc)
                (i + 1)
          in
          add acc 0)
        rel acc)
    db Database.empty

let lift_query q =
  let nv = Query.nvars q in
  let atoms = Query.atoms q in
  let lifted =
    List.mapi
      (fun i a ->
        { a with Query.args = Array.append a.Query.args [| nv + i |] })
      atoms
  in
  let extra = List.length atoms in
  let names =
    Array.append (Query.var_names q)
      (Query.fresh_names ~taken:(Query.var_names q)
         (Array.init extra (fun i -> Printf.sprintf "__id%d" i)))
  in
  Query.make ~head:(Query.head q) ~nvars:(nv + extra) ~names lifted
