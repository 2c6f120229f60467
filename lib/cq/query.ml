open Bagcqc_entropy

type atom = { rel : string; args : int array }

type t = {
  head : int list;
  nvars : int;
  names : string array;
  atoms : atom list;
}

let atom rel args = { rel; args = Array.of_list args }

(* Queries of up to this many atoms are compared pairwise, which
   allocates nothing; longer ones go through a hash table, so the
   helpers below take linear expected time on any query. *)
let small_atoms = 32

let is_small atoms = List.compare_length_with atoms small_atoms <= 0

(* The validators below are top-level functions with explicit
   arguments, so checking a query allocates no closure. *)
let clash a b = String.equal a.rel b.rel && Array.length a.args <> Array.length b.args

(* Whether [a] clashes with an atom of [l] before its physical suffix
   [stop]. *)
let rec clash_before a stop = function
  | b :: rest as l -> l != stop && (clash b a || clash_before a stop rest)
  | [] -> false

(* The relation of the first atom whose arity differs from an earlier
   atom of its relation — equivalently, from the relation's first atom. *)
let arity_conflict atoms =
  if is_small atoms then
    let rec go = function
      | [] -> None
      | a :: rest as l -> if clash_before a l atoms then Some a.rel else go rest
    in
    go atoms
  else begin
    let arities = Hashtbl.create 64 in
    List.find_map
      (fun a ->
        match Hashtbl.find_opt arities a.rel with
        | None ->
          Hashtbl.add arities a.rel (Array.length a.args);
          None
        | Some k -> if k <> Array.length a.args then Some a.rel else None)
      atoms
  end

let rec duplicate_name names i j =
  if i >= Array.length names then None
  else if j >= i then duplicate_name names (i + 1) 0
  else if String.equal names.(i) names.(j) then Some names.(i)
  else duplicate_name names i (j + 1)

let rec args_in_range nvars args i =
  i >= Array.length args
  || (0 <= args.(i) && args.(i) < nvars && args_in_range nvars args (i + 1))

let rec vars_in_range nvars = function
  | [] -> true
  | v :: rest -> 0 <= v && v < nvars && vars_in_range nvars rest

let rec atoms_in_range nvars = function
  | [] -> true
  | a :: rest -> args_in_range nvars a.args 0 && atoms_in_range nvars rest

let make ?(head = []) ~nvars ?names atoms =
  if nvars < 0 || nvars > Varset.max_vars then
    invalid_arg "Query.make: variable count out of range";
  let names =
    match names with
    | None -> Array.init nvars Varset.default_name
    | Some a ->
      if Array.length a <> nvars then invalid_arg "Query.make: names length mismatch";
      (* Databases built from a query ([Database.canonical], witness
         annotations) identify a variable by its name. *)
      (match duplicate_name a 0 0 with
       | Some s -> invalid_arg ("Query.make: duplicate variable name " ^ s)
       | None -> a)
  in
  if not (atoms_in_range nvars atoms) then
    invalid_arg "Query.make: atom argument out of range";
  if not (vars_in_range nvars head) then
    invalid_arg "Query.make: head variable out of range";
  (* Every variable must occur in the body (paper Sec. 2.2); otherwise the
     homomorphism count would depend on the database domain. *)
  let occurring =
    List.fold_left
      (fun acc a ->
        Array.fold_left (fun acc v -> Varset.add v acc) acc a.args)
      Varset.empty atoms
  in
  if not (Varset.equal occurring (Varset.full nvars)) then
    invalid_arg "Query.make: every variable must occur in some atom";
  (match arity_conflict atoms with
   | Some rel -> invalid_arg ("Query.make: inconsistent arity for " ^ rel)
   | None -> ());
  { head; nvars; names; atoms }

let nvars q = q.nvars
let atoms q = q.atoms
let head q = q.head
let is_boolean q = q.head = []
let var_name q i = q.names.(i)
let var_names q = Array.copy q.names

let vocabulary q =
  let tbl = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace tbl a.rel (Array.length a.args)) q.atoms;
  List.sort compare (Hashtbl.fold (fun r k acc -> (r, k) :: acc) tbl [])

let atom_vars a =
  Array.fold_left (fun acc v -> Varset.add v acc) Varset.empty a.args

let all_vars q = Varset.full q.nvars

let args_equal x y =
  let n = Array.length x in
  n = Array.length y
  &&
  let rec go i = i >= n || (x.(i) = y.(i) && go (i + 1)) in
  go 0

let same_atom a b = String.equal a.rel b.rel && args_equal a.args b.args

module Atom_tbl = Hashtbl.Make (struct
  type t = atom

  let equal = same_atom

  let hash a =
    Array.fold_left (fun h x -> (h * 16777619) lxor x) (Hashtbl.hash a.rel) a.args
    land max_int
end)

(* The common case (a small query without duplicates) returns [q]
   itself after one pairwise scan, which also bounds the query's size. *)
let dedup_atoms q =
  let rec dup_or_large budget = function
    | [] -> false
    | a :: rest ->
      budget = 0 || List.exists (same_atom a) rest || dup_or_large (budget - 1) rest
  in
  if not (dup_or_large small_atoms q.atoms) then q
  else if is_small q.atoms then begin
    let rec keep seen = function
      | [] -> List.rev seen
      | a :: rest ->
        keep (if List.exists (same_atom a) seen then seen else a :: seen) rest
    in
    { q with atoms = keep [] q.atoms }
  end
  else begin
    let seen = Atom_tbl.create 64 in
    let first a =
      if Atom_tbl.mem seen a then false
      else begin
        Atom_tbl.add seen a ();
        true
      end
    in
    let atoms = List.filter first q.atoms in
    if List.compare_lengths atoms q.atoms = 0 then q else { q with atoms }
  end

let connected_components q =
  (* Union-find over variables, merged within each atom. *)
  let parent = Array.init q.nvars (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter
    (fun a ->
      match Array.to_list a.args with
      | [] -> ()
      | v0 :: rest -> List.iter (union v0) rest)
    q.atoms;
  let comps = Hashtbl.create 8 in
  for i = 0 to q.nvars - 1 do
    let r = find i in
    let prev = try Hashtbl.find comps r with Not_found -> Varset.empty in
    Hashtbl.replace comps r (Varset.add i prev)
  done;
  List.sort compare (Hashtbl.fold (fun _ s acc -> s :: acc) comps [])

let shift_atom k a = { a with args = Array.map (fun v -> v + k) a.args }

let fresh_names ~taken names =
  let used = Hashtbl.create 16 in
  Array.iter (fun s -> Hashtbl.replace used s ()) taken;
  Array.map
    (fun s ->
      let rec fresh s = if Hashtbl.mem used s then fresh (s ^ "'") else s in
      let s = fresh s in
      Hashtbl.replace used s ();
      s)
    names

let disjoint_union q1 q2 =
  let k = q1.nvars in
  make
    ~head:(q1.head @ List.map (fun v -> v + k) q2.head)
    ~nvars:(q1.nvars + q2.nvars)
    ~names:
      (Array.append q1.names
         (fresh_names ~taken:q1.names (Array.map (fun s -> s ^ "'") q2.names)))
    (q1.atoms @ List.map (shift_atom k) q2.atoms)

let power k q =
  if k < 1 then invalid_arg "Query.power";
  let rec go acc i = if i >= k then acc else go (disjoint_union acc q) (i + 1) in
  go q 1

let arity_clash a b =
  if is_small a.atoms && is_small b.atoms then
    List.find_map
      (fun x ->
        List.find_map
          (fun y ->
            if clash x y then Some (x.rel, Array.length x.args, Array.length y.args)
            else None)
          b.atoms)
      a.atoms
  else begin
    (* [make] gives each relation one arity within a query, so [b]'s
       first atom of a relation stands for all of them. *)
    let arity = Hashtbl.create 64 in
    List.iter
      (fun y ->
        if not (Hashtbl.mem arity y.rel) then
          Hashtbl.add arity y.rel (Array.length y.args))
      b.atoms;
    List.find_map
      (fun x ->
        match Hashtbl.find_opt arity x.rel with
        | Some k when k <> Array.length x.args ->
          Some (x.rel, Array.length x.args, k)
        | Some _ | None -> None)
      a.atoms
  end

let equal a b =
  a.head = b.head && a.nvars = b.nvars && List.equal same_atom a.atoms b.atoms

let identical a b =
  a == b
  || equal a b
     && (let rec names i =
           i >= a.nvars || (String.equal a.names.(i) b.names.(i) && names (i + 1))
         in
         names 0)

(* FNV-style fold, as in [Value.hash]; names are left out, so the hash
   is consistent with both [equal] and [identical]. *)
let hash q =
  let mix h x = (h * 16777619) lxor x in
  List.fold_left
    (fun h a -> Array.fold_left mix (mix h (Hashtbl.hash a.rel)) a.args)
    (mix 0x811c9dc5 q.nvars) q.atoms
  land max_int

let pp fmt q =
  Format.fprintf fmt "Q(%s) :- "
    (String.concat "," (List.map (fun v -> q.names.(v)) q.head));
  if q.atoms = [] then Format.pp_print_string fmt "true"
  else
    List.iteri
      (fun i a ->
        if i > 0 then Format.pp_print_string fmt ", ";
        Format.fprintf fmt "%s(%s)" a.rel
          (String.concat ","
             (List.map (fun v -> q.names.(v)) (Array.to_list a.args))))
      q.atoms

let to_string q = Format.asprintf "%a" pp q
