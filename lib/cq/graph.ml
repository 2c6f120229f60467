open Bagcqc_entropy

type t = { n : int; adj : Varset.t array }

let make n edges =
  if n < 0 || n > Varset.max_vars then invalid_arg "Graph.make: size out of range";
  let adj = Array.make n Varset.empty in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Graph.make: vertex out of range";
      if a <> b then begin
        adj.(a) <- Varset.add b adj.(a);
        adj.(b) <- Varset.add a adj.(b)
      end)
    edges;
  { n; adj }

let n_vertices g = g.n
let neighbours g v = g.adj.(v)
let has_edge g a b = Varset.mem b g.adj.(a)

let edges g =
  let acc = ref [] in
  for a = 0 to g.n - 1 do
    Varset.fold_elements
      (fun b () -> if b > a then acc := (a, b) :: !acc)
      g.adj.(a) ()
  done;
  List.rev !acc

(* Adjacency straight from the atoms' variable masks: every variable of
   an atom is adjacent to the atom's other variables. *)
let gaifman q =
  let n = Query.nvars q in
  let adj = Array.make n Varset.empty in
  List.iter
    (fun (a : Query.atom) ->
      let m = Query.atom_vars a in
      for p = 0 to Array.length a.args - 1 do
        let v = a.args.(p) in
        adj.(v) <- Varset.union adj.(v) m
      done)
    (Query.atoms q);
  for v = 0 to n - 1 do
    adj.(v) <- Varset.remove v adj.(v)
  done;
  { n; adj }

let mcs_order g =
  let n = g.n in
  let visited = Array.make n false in
  let weight = Array.make n 0 in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    (* Pick the unvisited vertex with the largest weight. *)
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if (not visited.(v)) && (!best < 0 || weight.(v) > weight.(!best)) then
        best := v
    done;
    let v = !best in
    visited.(v) <- true;
    order.(k) <- v;
    Varset.fold_elements
      (fun u () -> if not visited.(u) then weight.(u) <- weight.(u) + 1)
      g.adj.(v) ()
  done;
  order

let is_clique g s =
  let ok = ref true in
  Varset.fold_elements
    (fun a () ->
      Varset.fold_elements
        (fun b () -> if a < b && not (has_edge g a b) then ok := false)
        s ())
    s ();
  !ok

let perfect_elimination_order g =
  let n = g.n in
  let order = mcs_order g in
  (* Reverse MCS order is a candidate PEO; verify it. *)
  let peo = Array.init n (fun i -> order.(n - 1 - i)) in
  let position = Array.make n 0 in
  Array.iteri (fun i v -> position.(v) <- i) peo;
  let ok = ref true in
  Array.iteri
    (fun i v ->
      (* Later neighbours of v must form a clique. *)
      let later =
        Varset.fold_elements
          (fun u acc -> if position.(u) > i then Varset.add u acc else acc)
          g.adj.(v) Varset.empty
      in
      if not (is_clique g later) then ok := false)
    peo;
  if !ok then Some peo else None

let is_chordal g = perfect_elimination_order g <> None

let maximal_cliques_chordal g =
  match perfect_elimination_order g with
  | None -> invalid_arg "Graph.maximal_cliques_chordal: graph is not chordal"
  | Some peo ->
    let n = g.n in
    let position = Array.make n 0 in
    Array.iteri (fun i v -> position.(v) <- i) peo;
    (* Candidate cliques: v together with its later neighbours. *)
    let candidates =
      Array.to_list
        (Array.mapi
           (fun i v ->
             Varset.add v
               (Varset.fold_elements
                  (fun u acc ->
                    if position.(u) > i then Varset.add u acc else acc)
                  g.adj.(v) Varset.empty))
           peo)
    in
    (* Keep only maximal ones. *)
    List.filter
      (fun c ->
        not
          (List.exists
             (fun c' -> (not (Varset.equal c c')) && Varset.subset c c')
             candidates))
      candidates
    |> List.sort_uniq compare

(* One maximum-cardinality search does three jobs.  Chordality is the
   Tarjan–Yannakakis zero fill-in test: with [f] the most recently
   visited of [v]'s visited neighbours [madj v], the reversed visit
   order is a perfect elimination order iff [madj v − f ⊆ adj f] for
   every [v].  On a chordal graph [madj v ∪ {v}] is a maximal clique
   exactly when [v]'s weight does not exceed its predecessor's; such a
   clique hangs off the clique holding [f], through the separator
   [madj v], and any other vertex joins the current clique (Blair and
   Peyton's clique tree).  A vertex with no visited neighbour starts a
   new tree, so components stay apart. *)
let clique_tree g =
  let n = g.n and adj = g.adj in
  let weight = Array.make n 0 and pos = Array.make n 0 in
  let clique_of = Array.make n 0 in
  let cliques = Array.make n Varset.empty and parent = Array.make n (-1) in
  let ncl = ref 0 and prev = ref 0 and visited = ref Varset.empty in
  let chordal = ref true and k = ref 0 in
  while !chordal && !k < n do
    let v = ref (-1) in
    for u = 0 to n - 1 do
      if (not (Varset.mem u !visited)) && (!v < 0 || weight.(u) > weight.(!v))
      then v := u
    done;
    let v = !v in
    let madj = Varset.inter adj.(v) !visited in
    let f = ref (-1) in
    for u = 0 to n - 1 do
      if Varset.mem u madj && (!f < 0 || pos.(u) > pos.(!f)) then f := u
    done;
    let f = !f in
    if f >= 0 && not (Varset.subset (Varset.remove f madj) adj.(f)) then
      chordal := false
    else begin
      if weight.(v) <= !prev then begin
        cliques.(!ncl) <- Varset.add v madj;
        if f >= 0 then parent.(!ncl) <- clique_of.(f);
        incr ncl
      end
      else cliques.(!ncl - 1) <- Varset.add v cliques.(!ncl - 1);
      clique_of.(v) <- !ncl - 1;
      prev := weight.(v);
      pos.(v) <- !k;
      visited := Varset.add v !visited;
      for u = 0 to n - 1 do
        if Varset.mem u adj.(v) && not (Varset.mem u !visited) then
          weight.(u) <- weight.(u) + 1
      done;
      incr k
    end
  done;
  if not !chordal then None
  else begin
    (* Ascending mask order, then edges renumbered and sorted, each
       coded as [a * n + b]. *)
    let ncl = !ncl in
    let insertion_sort a len key =
      for i = 1 to len - 1 do
        let x = a.(i) in
        let j = ref i in
        while !j > 0 && key a.(!j - 1) > key x do
          a.(!j) <- a.(!j - 1);
          decr j
        done;
        a.(!j) <- x
      done
    in
    let order = Array.init ncl Fun.id in
    insertion_sort order ncl (fun c -> cliques.(c));
    let bags = Array.make ncl Varset.empty and rank = Array.make ncl 0 in
    for r = 0 to ncl - 1 do
      bags.(r) <- cliques.(order.(r));
      rank.(order.(r)) <- r
    done;
    let codes = Array.make ncl 0 and nedges = ref 0 in
    for c = 0 to ncl - 1 do
      if parent.(c) >= 0 then begin
        let a = rank.(c) and b = rank.(parent.(c)) in
        codes.(!nedges) <- (min a b * n) + max a b;
        incr nedges
      end
    done;
    insertion_sort codes !nedges Fun.id;
    let edges = ref [] in
    for e = !nedges - 1 downto 0 do
      edges := (codes.(e) / n, codes.(e) mod n) :: !edges
    done;
    Some (bags, !edges)
  end

let min_fill_triangulation g =
  let n = g.n in
  let adj = Array.map (fun s -> s) g.adj in
  let eliminated = Array.make n false in
  let fill_edges = ref [] in
  let fill_count v =
    (* Missing edges among v's uneliminated neighbours. *)
    let ns =
      Varset.fold_elements
        (fun u acc -> if eliminated.(u) then acc else Varset.add u acc)
        adj.(v) Varset.empty
    in
    let cnt = ref 0 in
    Varset.fold_elements
      (fun a () ->
        Varset.fold_elements
          (fun b () -> if a < b && not (Varset.mem b adj.(a)) then incr cnt)
          ns ())
      ns ();
    !cnt
  in
  for _ = 1 to n do
    let best = ref (-1) and best_fill = ref max_int in
    for v = 0 to n - 1 do
      if not eliminated.(v) then begin
        let f = fill_count v in
        if f < !best_fill then begin
          best := v;
          best_fill := f
        end
      end
    done;
    if !best >= 0 then begin
      let v = !best in
      let ns =
        Varset.fold_elements
          (fun u acc -> if eliminated.(u) then acc else Varset.add u acc)
          adj.(v) Varset.empty
      in
      Varset.fold_elements
        (fun a () ->
          Varset.fold_elements
            (fun b () ->
              if a < b && not (Varset.mem b adj.(a)) then begin
                adj.(a) <- Varset.add b adj.(a);
                adj.(b) <- Varset.add a adj.(b);
                fill_edges := (a, b) :: !fill_edges
              end)
            ns ())
        ns ();
      eliminated.(v) <- true
    end
  done;
  make n (edges g @ !fill_edges)

let connected_components g =
  let n = g.n in
  let seen = Array.make n false in
  let comps = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let comp = ref Varset.empty in
      let rec dfs u =
        if not seen.(u) then begin
          seen.(u) <- true;
          comp := Varset.add u !comp;
          Varset.fold_elements (fun w () -> dfs w) g.adj.(u) ()
        end
      in
      dfs v;
      comps := !comp :: !comps
    end
  done;
  List.rev !comps
