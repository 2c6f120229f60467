open Bagcqc_entropy

type t = { bags : Varset.t array; edges : (int * int) list }

let make ~bags ~edges =
  let n = Array.length bags in
  (* Union-find cycle check: the edge set must form a forest. *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Treedec.make: edge endpoint out of range";
      let ra = find a and rb = find b in
      if ra = rb then invalid_arg "Treedec.make: edges contain a cycle";
      parent.(ra) <- rb)
    edges;
  { bags; edges }

let bags t = Array.copy t.bags
let tree_edges t = t.edges
let n_nodes t = Array.length t.bags

let width t =
  Array.fold_left (fun acc b -> max acc (Varset.cardinal b - 1)) (-1) t.bags

let neighbours t v =
  List.filter_map
    (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
    t.edges

let is_valid_for q t =
  let n = Array.length t.bags in
  (* Coverage: every atom inside some bag. *)
  let covered =
    List.for_all
      (fun a ->
        let av = Query.atom_vars a in
        Array.exists (fun b -> Varset.subset av b) t.bags)
      (Query.atoms q)
  in
  (* Running intersection: for each variable, the nodes containing it are
     connected in the forest. *)
  let connected_for x =
    let holds = List.filter (fun i -> Varset.mem x t.bags.(i)) (List.init n Fun.id) in
    match holds with
    | [] -> false
    | start :: _ ->
      let seen = Hashtbl.create 8 in
      let rec dfs v =
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          List.iter
            (fun u -> if Varset.mem x t.bags.(u) then dfs u)
            (neighbours t v)
        end
      in
      dfs start;
      List.for_all (Hashtbl.mem seen) holds
  in
  covered
  && List.for_all connected_for (Varset.to_list (Varset.full (Query.nvars q)))

let is_simple t =
  List.for_all
    (fun (a, b) -> Varset.cardinal (Varset.inter t.bags.(a) t.bags.(b)) <= 1)
    t.edges

let is_totally_disconnected t =
  List.for_all
    (fun (a, b) -> Varset.is_empty (Varset.inter t.bags.(a) t.bags.(b)))
    t.edges

let et t =
  let n = Array.length t.bags in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  (* Root each component at its smallest node; BFS to set parents. *)
  for root = 0 to n - 1 do
    if not seen.(root) then begin
      let queue = Queue.create () in
      Queue.add root queue;
      seen.(root) <- true;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        List.iter
          (fun u ->
            if not seen.(u) then begin
              seen.(u) <- true;
              parent.(u) <- v;
              Queue.add u queue
            end)
          (neighbours t v)
      done
    end
  done;
  Cexpr.sum
    (List.init n (fun v ->
         let x =
           if parent.(v) < 0 then Varset.empty
           else Varset.inter t.bags.(v) t.bags.(parent.(v))
         in
         Cexpr.part t.bags.(v) x))

let et_via_separators t =
  Linexpr.sub
    (Linexpr.sum (Array.to_list (Array.map (fun b -> Linexpr.term b) t.bags)))
    (Linexpr.sum
       (List.map
          (fun (a, b) -> Linexpr.term (Varset.inter t.bags.(a) t.bags.(b)))
          t.edges))

let et_inclusion_exclusion t =
  let n = Array.length t.bags in
  if n > 20 then invalid_arg "Treedec.et_inclusion_exclusion: too many nodes";
  let cc_of nodes =
    (* Connected components of the subgraph induced by the node set. *)
    let seen = Hashtbl.create 8 in
    let components = ref 0 in
    let rec dfs v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        List.iter
          (fun u -> if Varset.mem u nodes then dfs u)
          (neighbours t v)
      end
    in
    Varset.fold_elements
      (fun v () ->
        if not (Hashtbl.mem seen v) then begin
          incr components;
          dfs v
        end)
      nodes ();
    !components
  in
  let acc = ref Linexpr.zero in
  Varset.iter_subsets (Varset.full n) (fun s ->
      if not (Varset.is_empty s) then begin
        let chi =
          Varset.fold_elements
            (fun v inter -> Varset.inter inter t.bags.(v))
            s
            (Varset.fold_elements (fun v _ -> t.bags.(v)) s Varset.empty)
        in
        let union_vars =
          Varset.fold_elements
            (fun v u -> Varset.union u t.bags.(v))
            s Varset.empty
        in
        let touching =
          List.fold_left
            (fun set v ->
              if Varset.is_empty (Varset.inter t.bags.(v) union_vars) then set
              else Varset.add v set)
            Varset.empty
            (List.init n Fun.id)
        in
        let cc = cc_of touching in
        let sign = if Varset.cardinal s land 1 = 1 then 1 else -1 in
        acc :=
          Linexpr.add !acc
            (Linexpr.term ~coeff:(Bagcqc_num.Rat.of_int (sign * cc)) chi)
      end);
  !acc

let prune t =
  let n = Array.length t.bags in
  let alive = Array.make n true in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    t.edges;
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let u =
          List.find_opt
            (fun u -> alive.(u) && u <> v && Varset.subset t.bags.(v) t.bags.(u))
            adj.(v)
        in
        match u with
        | Some u ->
          (* Contract v into u: reattach v's other neighbours to u. *)
          alive.(v) <- false;
          changed := true;
          let others = List.filter (fun w -> w <> u && alive.(w)) adj.(v) in
          List.iter
            (fun w ->
              adj.(u) <- w :: adj.(u);
              adj.(w) <- u :: List.filter (fun x -> x <> v) adj.(w))
            others;
          adj.(u) <- List.filter (fun x -> x <> v) adj.(u);
          adj.(v) <- []
        | None -> ()
      end
    done
  done;
  (* Compact the surviving nodes. *)
  let remap = Array.make n (-1) in
  let new_bags = ref [] in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if alive.(v) then begin
      remap.(v) <- !count;
      incr count;
      new_bags := t.bags.(v) :: !new_bags
    end
  done;
  let new_edges = ref [] in
  for v = 0 to n - 1 do
    if alive.(v) then
      List.iter
        (fun u ->
          if alive.(u) && remap.(u) > remap.(v) then
            new_edges := (remap.(v), remap.(u)) :: !new_edges)
        adj.(v)
  done;
  make
    ~bags:(Array.of_list (List.rev !new_bags))
    ~edges:(List.sort_uniq compare !new_edges)

(* Junction tree: maximum-weight spanning forest of the clique graph,
   weights = separator cardinalities, positive separators only. *)
let junction_tree g =
  if not (Graph.is_chordal g) then None
  else begin
    let cliques = Array.of_list (Graph.maximal_cliques_chordal g) in
    let n = Array.length cliques in
    let candidate_edges = ref [] in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        let w = Varset.cardinal (Varset.inter cliques.(a) cliques.(b)) in
        if w > 0 then candidate_edges := (w, a, b) :: !candidate_edges
      done
    done;
    let sorted =
      List.sort (fun (w1, _, _) (w2, _, _) -> compare w2 w1) !candidate_edges
    in
    let parent = Array.init n (fun i -> i) in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let edges =
      List.filter_map
        (fun (_, a, b) ->
          let ra = find a and rb = find b in
          if ra = rb then None
          else begin
            parent.(ra) <- rb;
            Some (a, b)
          end)
        sorted
    in
    Some (make ~bags:cliques ~edges)
  end

(* GYO ear removal.  An ear is a hyperedge e for which some other
   hyperedge f contains every vertex of e that also occurs elsewhere. *)
let join_tree q =
  let q = Query.dedup_atoms q in
  let atom_sets = List.map Query.atom_vars (Query.atoms q) in
  (* Merge duplicate variable-sets (two atoms over the same variables are
     interchangeable for the decomposition). *)
  let atom_sets = List.sort_uniq compare atom_sets in
  let bags = Array.of_list atom_sets in
  let n = Array.length bags in
  if n = 0 then Some (make ~bags:[||] ~edges:[])
  else begin
    let alive = Array.make n true in
    let edges = ref [] in
    let occurrence_count x =
      Array.to_list bags
      |> List.mapi (fun i b -> (i, b))
      |> List.filter (fun (i, b) -> alive.(i) && Varset.mem x b)
      |> List.length
    in
    let find_ear () =
      let result = ref None in
      for e = 0 to n - 1 do
        if !result = None && alive.(e) then begin
          (* Vertices of e occurring in other alive edges. *)
          let shared =
            Varset.fold_elements
              (fun x acc ->
                if occurrence_count x > 1 then Varset.add x acc else acc)
              bags.(e) Varset.empty
          in
          (* Find a witness f ⊇ shared. *)
          let witness = ref None in
          for f = 0 to n - 1 do
            if !witness = None && f <> e && alive.(f)
               && Varset.subset shared bags.(f)
            then witness := Some f
          done;
          match !witness with
          | Some f -> result := Some (e, f)
          | None -> ()
        end
      done;
      !result
    in
    let rec reduce () =
      match find_ear () with
      | Some (e, f) ->
        alive.(e) <- false;
        edges := (e, f) :: !edges;
        reduce ()
      | None -> ()
    in
    reduce ();
    (* Acyclic iff within each group of alive edges sharing variables there
       remains exactly one edge: i.e. no two alive edges share a variable,
       AND no alive edge shares a variable with... after exhaustion, any
       two alive hyperedges sharing a vertex witness a cycle. *)
    let alive_idx =
      List.filter (fun i -> alive.(i)) (List.init n Fun.id)
    in
    let cyclic =
      List.exists
        (fun i ->
          List.exists
            (fun j ->
              j <> i && not (Varset.is_empty (Varset.inter bags.(i) bags.(j))))
            alive_idx)
        alive_idx
    in
    if cyclic then None else Some (prune (make ~bags ~edges:!edges))
  end

(* A clique tree from [Graph.clique_tree] is a forest by construction.
   A query whose atoms are all nullary has no variable and so no
   clique; one empty bag still covers its atoms. *)
let of_clique_tree q (bags, edges) =
  if Array.length bags = 0 && Query.atoms q <> [] then
    { bags = [| Varset.empty |]; edges = [] }
  else { bags; edges }

(* α-acyclic iff the Gaifman graph is chordal and every maximal clique
   lies inside an atom (Beeri, Fagin, Maier and Yannakakis 1983). *)
let clique_tree q =
  match Graph.clique_tree (Graph.gaifman q) with
  | None -> None
  | Some ((bags, _) as ct) ->
    let atoms = Query.atoms q in
    let acyclic =
      Array.for_all
        (fun c -> List.exists (fun a -> Varset.subset c (Query.atom_vars a)) atoms)
        bags
    in
    Some (of_clique_tree q ct, acyclic)

let is_acyclic q =
  match clique_tree q with Some (_, acyclic) -> acyclic | None -> false

let of_query q =
  let g = Graph.gaifman q in
  match Graph.clique_tree g with
  | Some ct -> of_clique_tree q ct
  | None ->
    (match Graph.clique_tree (Graph.min_fill_triangulation g) with
     | Some ct -> of_clique_tree q ct
     | None ->
       (* [min_fill_triangulation] returns a chordal supergraph by
          construction, and [clique_tree] succeeds on every chordal
          graph; failure here means one of the two is buggy. *)
       Bagcqc_num.Bagcqc_error.invariant ~where:"Treedec.of_query"
         "clique_tree failed on a min-fill triangulated (hence chordal) \
          graph")

let pp fmt t =
  Array.iteri
    (fun i b ->
      if i > 0 then Format.pp_print_string fmt " ";
      Format.fprintf fmt "%d:%a" i (Varset.pp ()) b)
    t.bags;
  Format.pp_print_string fmt " edges:";
  List.iter (fun (a, b) -> Format.fprintf fmt " %d-%d" a b) t.edges
