open Bagcqc_relation
module Obs = Bagcqc_obs

exception Limit_reached

(* Size of the candidate row set scanned at each search node: the whole
   relation when no argument is bound yet, otherwise the index bucket.
   The distribution tells apart index-driven runs (mass near 1) from
   degenerate cross-product scans (mass near the relation sizes).  The
   search between two queries scans a few atoms and records nothing here. *)
let h_candidates = Obs.Metrics.histogram "hom.candidates"
let c_enumerations = Obs.Metrics.counter "hom.enumerations"

(* Tuples hash/compare element-wise through Value so hash tables never fall
   back on polymorphic comparison (which walks arbitrary Value structure). *)
module RowTbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash a =
    Array.fold_left (fun acc v -> (acc * 65599) + Value.hash v) (Array.length a) a
end)

(* Backtracking homomorphism search.  [assignment] maps query variables to
   values (None = unbound).  At each step pick the atom with the most bound
   argument positions (ties: smaller relation) and extend the assignment
   with each consistent row of its relation.

   Consistent rows are found through lazy hash indexes: for an atom and a
   bitmask of currently-bound argument positions, an index maps the values
   at those positions to the matching rows (kept in relation order, so the
   enumeration order is the same as a plain filtering scan).  The search
   binds variables in a data-dependent order, so only the handful of masks
   that actually occur get an index — built once on first use, then every
   later visit of that atom at the same mask is a single lookup instead of
   a scan of the whole relation. *)

(* [root_slice (lo, hi)] restricts the search to rows [lo, hi) of the
   {e root} atom's candidate set — the first atom expanded, where nothing
   is bound yet.  Root selection is deterministic (all bound-counts are
   zero, so the first smallest relation wins), so slicing its rows
   partitions the search space exactly: the pool fans [count] and
   [contained_on] out over such slices and sums/merges.  [note] is false
   on slices so the enumeration is counted (and spanned) once, keeping
   the hom.enumerations counter equal to a sequential run. *)
let iter_homs_body ?root_slice q db yield =
  let nv = Query.nvars q in
  let assignment : Value.t option array = Array.make nv None in
  let atoms = Array.of_list (Query.atoms q) in
  let natoms = Array.length atoms in
  let rows =
    Array.map
      (fun a ->
        let arity = Array.length a.Query.args in
        Array.of_list (Relation.to_list (Database.relation db a.Query.rel ~arity)))
      atoms
  in
  let rec lsb_pos m i = if m land 1 = 1 then i else lsb_pos (m lsr 1) (i + 1) in
  (* [selected mask npos fetch] = values of [fetch] at the set positions of
     [mask], lowest position first; [npos] is the popcount of [mask] ≥ 1. *)
  let selected mask npos fetch =
    let key = Array.make npos (fetch (lsb_pos mask 0)) in
    let k = ref 0 and pos = ref 0 and m = ref mask in
    while !m <> 0 do
      if !m land 1 = 1 then begin
        key.(!k) <- fetch !pos;
        incr k
      end;
      incr pos;
      m := !m lsr 1
    done;
    key
  in
  let index_cache : (int, Value.t array list RowTbl.t) Hashtbl.t array =
    Array.init natoms (fun _ -> Hashtbl.create 4)
  in
  let index ai mask npos =
    match Hashtbl.find_opt index_cache.(ai) mask with
    | Some tbl -> tbl
    | None ->
      let tbl = RowTbl.create (2 * Array.length rows.(ai)) in
      Array.iter
        (fun (row : Value.t array) ->
          let key = selected mask npos (Array.get row) in
          RowTbl.replace tbl key
            (row :: (try RowTbl.find tbl key with Not_found -> [])))
        rows.(ai);
      (* Buckets were built by consing; flip them back to relation order. *)
      RowTbl.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) tbl;
      Hashtbl.add index_cache.(ai) mask tbl;
      tbl
  in
  (* Bitmask of argument positions whose variable is bound, plus its
     popcount (the seed's bound-variable count, per position). *)
  let bound_info ai =
    let mask = ref 0 and cnt = ref 0 in
    Array.iteri
      (fun pos v ->
        if assignment.(v) <> None then begin
          mask := !mask lor (1 lsl pos);
          incr cnt
        end)
      atoms.(ai).Query.args;
    (!mask, !cnt)
  in
  (* [pending] carries each atom's row count so the selection heuristic
     never recounts a relation.  [root] marks the first expansion, the
     only place a [root_slice] applies. *)
  let rec go ~root pending =
    match pending with
    | [] ->
      (* Every variable occurs in some atom (all atoms processed), except
         for queries with variables in no atom — those are rejected at
         query construction, but guard anyway. *)
      if Array.for_all Option.is_some assignment then
        yield (Array.map Option.get assignment)
    | _ :: _ ->
      (* Most-constrained atom first; first maximum wins, as in a fold. *)
      let best_i = ref (-1)
      and best_cnt = ref (-1)
      and best_size = ref 0
      and best_mask = ref 0 in
      List.iter
        (fun (i, size) ->
          let mask, cnt = bound_info i in
          if cnt > !best_cnt || (cnt = !best_cnt && size < !best_size) then begin
            best_i := i;
            best_cnt := cnt;
            best_size := size;
            best_mask := mask
          end)
        pending;
      let ai = !best_i in
      let rest = List.filter (fun (i, _) -> i <> ai) pending in
      let args = atoms.(ai).Query.args in
      let try_row (row : Value.t array) =
        (* Unify the row with the atom under the current assignment,
           recording newly-bound variables.  Index candidates already agree
           on the bound positions, but the loop re-checks them to handle
           repeated variables (one occurrence bound, another not). *)
        let newly = ref [] in
        let ok = ref true in
        Array.iteri
          (fun pos v ->
            if !ok then
              match assignment.(v) with
              | Some x -> if not (Value.equal x row.(pos)) then ok := false
              | None ->
                assignment.(v) <- Some row.(pos);
                newly := v :: !newly)
          args;
        if !ok then go ~root:false rest;
        List.iter (fun v -> assignment.(v) <- None) !newly
      in
      if !best_mask = 0 then begin
        let cands =
          match root_slice with
          | Some (lo, hi) when root -> Array.sub rows.(ai) lo (hi - lo)
          | _ -> rows.(ai)
        in
        if !Obs.Runtime.enabled then
          Obs.Metrics.observe h_candidates (Array.length cands);
        Array.iter try_row cands
      end
      else begin
        let key =
          selected !best_mask !best_cnt (fun pos ->
              Option.get assignment.(args.(pos)))
        in
        match RowTbl.find_opt (index ai !best_mask !best_cnt) key with
        | None -> if !Obs.Runtime.enabled then Obs.Metrics.observe h_candidates 0
        | Some bucket ->
          if !Obs.Runtime.enabled then
            Obs.Metrics.observe h_candidates (List.length bucket);
          List.iter try_row bucket
      end
  in
  go ~root:true (List.init natoms (fun i -> (i, Array.length rows.(i))))

(* One [hom.enumerations] bump and one [hom.enumerate] span per
   enumeration, however it is split across domains.  The attributes are
   built only when tracing is on. *)
let enumeration_span ?(par = false) q f =
  Obs.Metrics.bump c_enumerations;
  if not !Obs.Runtime.enabled then f ()
  else begin
    let attrs =
      [ ("vars", Obs.Span.Int (Query.nvars q));
        ("atoms", Obs.Span.Int (List.length (Query.atoms q))) ]
    in
    Obs.Span.with_span ~name:"hom.enumerate"
      ~attrs:(if par then attrs @ [ ("par", Obs.Span.Bool true) ] else attrs)
      f
  end

let iter_homs q db yield = enumeration_span q @@ fun () -> iter_homs_body q db yield

(* Row count of the root atom — the first smallest relation, mirroring
   the selection rule in [go] when nothing is bound yet.  This is how
   many candidate rows a parallel fan-out can slice. *)
let root_rows q db =
  List.fold_left
    (fun best a ->
      let arity = Array.length a.Query.args in
      let sz = Relation.cardinal (Database.relation db a.Query.rel ~arity) in
      match best with Some b when b <= sz -> best | _ -> Some sz)
    None (Query.atoms q)
  |> Option.value ~default:0

(* Parallel fan-out applies only when the full enumeration is needed
   ([limit] cuts across slices) and the pool can actually help. *)
let slices_for q db =
  let module P = Bagcqc_par.Pool in
  if P.jobs () <= 1 || P.inside_task () then None
  else begin
    let n = root_rows q db in
    if n <= 1 then None
    else begin
      let nsl = min n (P.jobs () * 4) in
      Some (Array.init nsl (fun i -> (i * n / nsl, (i + 1) * n / nsl)))
    end
  end

let count ?limit q db =
  let seq () =
    let n = ref 0 in
    (try
       iter_homs q db (fun _ ->
           incr n;
           match limit with
           | Some l when !n >= l -> raise Limit_reached
           | _ -> ())
     with Limit_reached -> ());
    !n
  in
  match limit with
  | Some _ -> seq ()
  | None ->
    (match slices_for q db with
     | None -> seq ()
     | Some slices ->
       enumeration_span ~par:true q @@ fun () ->
       Bagcqc_par.Pool.parallel_map
         (fun (lo, hi) ->
           let n = ref 0 in
           iter_homs_body ~root_slice:(lo, hi) q db (fun _ -> incr n);
           !n)
         slices
       |> Array.fold_left ( + ) 0)

let exists q db = count ~limit:1 q db > 0

let enumerate q db =
  let acc = ref [] in
  iter_homs q db (fun h -> acc := Array.copy h :: !acc);
  List.rev !acc

(* Bag-set answers as a multiplicity table.  The parallel path merges the
   per-slice tables by adding multiplicities — addition is the same fold
   the sequential scan performs, so the merged table is identical (only
   hash-bucket insertion order can differ). *)
let answers_tbl q db =
  let head = Array.of_list (Query.head q) in
  let accumulate tbl h =
    let key = Array.map (fun v -> h.(v)) head in
    let prev = try RowTbl.find tbl key with Not_found -> 0 in
    RowTbl.replace tbl key (prev + 1)
  in
  match slices_for q db with
  | None ->
    let tbl = RowTbl.create 64 in
    iter_homs q db (accumulate tbl);
    tbl
  | Some slices ->
    enumeration_span ~par:true q @@ fun () ->
    let parts =
      Bagcqc_par.Pool.parallel_map
        (fun (lo, hi) ->
          let t = RowTbl.create 64 in
          iter_homs_body ~root_slice:(lo, hi) q db (accumulate t);
          t)
        slices
    in
    let tbl = RowTbl.create 64 in
    Array.iter
      (fun t ->
        RowTbl.iter
          (fun key c ->
            let prev = try RowTbl.find tbl key with Not_found -> 0 in
            RowTbl.replace tbl key (prev + c))
          t)
      parts;
    tbl

let answers q db =
  RowTbl.fold (fun k v acc -> (k, v) :: acc) (answers_tbl q db) []

let contained_on q1 q2 db =
  if List.length (Query.head q1) <> List.length (Query.head q2) then
    invalid_arg "Hom.contained_on: head arity mismatch";
  let a2 = answers_tbl q2 db in
  let a1 = answers_tbl q1 db in
  RowTbl.fold
    (fun key c1 acc ->
      acc && c1 <= (match RowTbl.find_opt a2 key with Some c -> c | None -> 0))
    a1 true

(* ---------------- searches on int-coded rows ---------------- *)

module ITbl = Hashtbl.Make (Int)

(* Above this many candidate rows an atom is matched through an index on
   one bound position instead of a scan. *)
let scan_max = 16

(* Backtracking over int-coded rows: atom [i], with arguments [args.(i)]
   over variables [0, nvars), ranges over the rows [rows.(i)] (codes
   [≥ 0], equal codes for equal values).  [phi] holds −1 for an unbound
   variable, and a trail undoes a row's bindings.  The atom expanded
   next has the most bound positions, ties to fewer rows, then to the
   earlier atom — [iter_homs_body]'s choice.  A large row set is matched
   through a lazy index on the atom's first bound position, whose
   buckets keep row order, so the order of the homomorphisms is the
   scan's.  [yield] receives the live assignment; copy it to keep it. *)
let iter_rows ~nvars args rows yield =
  let natoms = Array.length args in
  let phi = Array.make nvars (-1) in
  let trail = Array.make nvars 0 and top = ref 0 in
  let pending = Array.make natoms true in
  let index = Array.make natoms [||] in
  let bucket ai p =
    if Array.length index.(ai) = 0 then
      index.(ai) <- Array.make (Array.length args.(ai)) None;
    match index.(ai).(p) with
    | Some tbl -> tbl
    | None ->
      let rs = rows.(ai) in
      let tbl = ITbl.create (Array.length rs) in
      for r = Array.length rs - 1 downto 0 do
        let row = rs.(r) in
        ITbl.replace tbl row.(p)
          (row :: Option.value (ITbl.find_opt tbl row.(p)) ~default:[])
      done;
      index.(ai).(p) <- Some tbl;
      tbl
  in
  let rec go remaining =
    if remaining = 0 then yield phi
    else begin
      let best = ref (-1) and best_cnt = ref (-1) and best_size = ref 0 in
      for i = 0 to natoms - 1 do
        if pending.(i) then begin
          let cnt = ref 0 in
          Array.iter (fun v -> if phi.(v) >= 0 then incr cnt) args.(i);
          let size = Array.length rows.(i) in
          if !cnt > !best_cnt || (!cnt = !best_cnt && size < !best_size) then begin
            best := i;
            best_cnt := !cnt;
            best_size := size
          end
        end
      done;
      let ai = !best in
      let a = args.(ai) in
      let arity = Array.length a in
      pending.(ai) <- false;
      let try_row row =
        let base = !top in
        let pos = ref 0 in
        while !pos < arity do
          let v = a.(!pos) and x = row.(!pos) in
          let cur = phi.(v) in
          if cur < 0 then begin
            phi.(v) <- x;
            trail.(!top) <- v;
            incr top;
            incr pos
          end
          else if cur = x then incr pos
          else pos := arity + 1
        done;
        if !pos = arity then go (remaining - 1);
        while !top > base do
          decr top;
          phi.(trail.(!top)) <- -1
        done
      in
      let cands = rows.(ai) in
      if Array.length cands <= scan_max || !best_cnt = 0 then Array.iter try_row cands
      else begin
        let p = ref 0 in
        while phi.(a.(!p)) < 0 do incr p done;
        match ITbl.find_opt (bucket ai !p) phi.(a.(!p)) with
        | Some bucket -> List.iter try_row bucket
        | None -> ()
      end;
      pending.(ai) <- true
    end
  in
  go natoms

let count_coded ?limit q rows =
  let atoms = Array.of_list (Query.atoms q) in
  if Array.length rows <> Array.length atoms then
    invalid_arg "Hom.count_coded: one row set per atom";
  let args = Array.map (fun (a : Query.atom) -> a.args) atoms in
  Array.iteri
    (fun i rs ->
      Array.iter
        (fun row ->
          if Array.length row <> Array.length args.(i) then
            invalid_arg "Hom.count_coded: row arity differs from its atom's")
        rs)
    rows;
  enumeration_span q @@ fun () ->
  let n = ref 0 in
  (try
     iter_rows ~nvars:(Query.nvars q) args rows (fun _ ->
         incr n;
         match limit with
         | Some l when !n >= l -> raise Limit_reached
         | _ -> ())
   with Limit_reached -> ());
  !n

(* ---------------- homomorphisms between queries ---------------- *)

(* [hom(Qa, Qb)] with both queries as structures, searched on variable
   indices: no database is built.  Qb's domain is its variables (their
   names are distinct, see [Query.make]).  An atom of Qa ranges over the
   argument arrays of Qb's atoms with the same relation, deduplicated and
   sorted by name position by position: the row order of
   [Database.canonical qb], since [Value.compare] on [Str] is
   [String.compare].  With [iter_homs_body]'s atom choice on top, the
   homomorphisms come out in the general engine's order on that
   database — the order of Eq. 8's sides. *)
let iter_between qa qb yield =
  let nb = Query.nvars qb in
  let name = Query.var_name qb in
  (* [rank.(v)]: position of v's name among Qb's names, sorted. *)
  let order = Array.init nb Fun.id in
  Array.sort (fun a b -> String.compare (name a) (name b)) order;
  let rank = Array.make nb 0 in
  Array.iteri (fun k v -> rank.(v) <- k) order;
  let compare_rows x y =
    let rec go i =
      if i >= Array.length x then 0
      else
        let c = Int.compare rank.(x.(i)) rank.(y.(i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let b_atoms = Query.atoms qb in
  let rows_of rel arity =
    List.filter_map
      (fun (b : Query.atom) ->
        if not (String.equal b.rel rel) then None
        else if Array.length b.args <> arity then
          invalid_arg
            (Printf.sprintf
               "Hom.enumerate_between: relation %s has arity %d in the source \
                query but %d in the target"
               rel arity (Array.length b.args))
        else Some b.args)
      b_atoms
    |> List.sort_uniq compare_rows |> Array.of_list
  in
  (* One row array per relation symbol: Qa's arities agree per symbol. *)
  let by_rel = ref [] in
  let rows_for (a : Query.atom) =
    let rec find = function
      | [] ->
        let rows = rows_of a.rel (Array.length a.args) in
        by_rel := (a.rel, rows) :: !by_rel;
        rows
      | (rel, rows) :: rest -> if String.equal rel a.rel then rows else find rest
    in
    find !by_rel
  in
  let a_atoms = Array.of_list (Query.atoms qa) in
  let rows = Array.map rows_for a_atoms in
  let args = Array.map (fun (a : Query.atom) -> a.args) a_atoms in
  iter_rows ~nvars:(Query.nvars qa) args rows yield

let enumerate_between qa qb =
  enumeration_span qa @@ fun () ->
  let acc = ref [] in
  iter_between qa qb (fun phi -> acc := Array.copy phi :: !acc);
  List.rev !acc

let count_between qa qb =
  enumeration_span qa @@ fun () ->
  let n = ref 0 in
  iter_between qa qb (fun _ -> incr n);
  !n
