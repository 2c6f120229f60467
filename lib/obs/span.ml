(* Span trees: nested timed regions with per-span attributes.

   Each domain owns an open-span stack and a bounded ring of completed
   spans (reached through [Domain.DLS]), so pool workers trace their
   chunks without contending on — or corrupting — a shared stack.
   Parent/child structure is per-domain: a pool task starts a fresh root
   span on its worker, which is the truthful shape (the coordinating
   domain is blocked, not "calling" the chunk).  Ids come from one
   process-wide atomic so they are unique across domains, and [closed]
   merges every ring sorted by (start, id), which on a single domain
   reproduces exactly the old completion order.

   Self-time accounting: every span accumulates the inclusive duration
   of its direct children as they close; [self] is then inclusive minus
   that sum, and the identity [self + Σ children = dur] holds exactly
   (same float additions on both sides). *)

type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  id : int;
  parent : int; (* -1 for a root span *)
  depth : int;
  name : string;
  mutable attrs : (string * attr) list;
  start : float; (* absolute seconds (Runtime.now) *)
  mutable dur : float; (* inclusive, seconds *)
  mutable children : float; (* Σ inclusive durations of direct children *)
}

let self sp = sp.dur -. sp.children

(* ---------------- state ---------------- *)

let next_id = Atomic.make 0

type dstore = {
  mutable stack : t list; (* innermost open span first *)
  mutable ring : t option array;
  mutable widx : int;
  mutable written : int;
  mutable depth_dropped_n : int;
}

let reg_mutex = Mutex.create ()
let dstores : dstore list ref = ref []

let dstore_key =
  Domain.DLS.new_key (fun () ->
      let d =
        { stack = []; ring = Array.make (max 0 !Runtime.ring_capacity) None;
          widx = 0; written = 0; depth_dropped_n = 0 }
      in
      Mutex.lock reg_mutex;
      dstores := d :: !dstores;
      Mutex.unlock reg_mutex;
      d)

let all_dstores () =
  Mutex.lock reg_mutex;
  let ds = !dstores in
  Mutex.unlock reg_mutex;
  ds

let subscribers : (t -> unit) list ref = ref []

let on_close f = subscribers := f :: !subscribers

(* Quiescence contract: reset between parallel regions (the obs layer
   refuses to flip recording inside one), so walking the other domains'
   stores here cannot race their writes. *)
let reset () =
  Atomic.set next_id 0;
  let cap = max 0 !Runtime.ring_capacity in
  List.iter
    (fun d ->
      d.stack <- [];
      if Array.length d.ring <> cap then d.ring <- Array.make cap None
      else Array.fill d.ring 0 cap None;
      d.widx <- 0;
      d.written <- 0;
      d.depth_dropped_n <- 0)
    (all_dstores ());
  Runtime.epoch := Runtime.now ()

let record d sp =
  let cap = Array.length d.ring in
  if cap > 0 then begin
    d.ring.(d.widx) <- Some sp;
    d.widx <- (d.widx + 1) mod cap;
    d.written <- d.written + 1
  end

let dropped () =
  List.fold_left
    (fun acc d -> acc + max 0 (d.written - Array.length d.ring))
    0 (all_dstores ())

let depth_dropped () =
  List.fold_left (fun acc d -> acc + d.depth_dropped_n) 0 (all_dstores ())

let open_depth () = List.length (Domain.DLS.get dstore_key).stack

let current_id () =
  if not !Runtime.enabled then -1
  else
    match (Domain.DLS.get dstore_key).stack with
    | [] -> -1
    | sp :: _ -> sp.id

(* Completed spans in one ring, oldest first (eviction order). *)
let ring_closed d =
  let cap = Array.length d.ring in
  if cap = 0 then []
  else begin
    let acc = ref [] in
    for k = cap - 1 downto 0 do
      match d.ring.((d.widx + k) mod cap) with
      | Some sp -> acc := sp :: !acc
      | None -> ()
    done;
    !acc
  end

(* All completed spans, merged across domains by (start, id).  Ids are
   allocated from one atomic at span open, so on a single domain this is
   the old insertion order; across domains it interleaves by the
   monotonic trace clock. *)
let closed () =
  match all_dstores () with
  | [ d ] -> ring_closed d
  | ds ->
    List.concat_map ring_closed ds
    |> List.sort (fun a b ->
           match compare a.start b.start with 0 -> compare a.id b.id | c -> c)

(* The closed subtree of span [root]: the span and its descendants, by
   ascending id.  Each ring holds its spans in close order, and every
   descendant closes after [root] opens and before [root] closes, so the
   rings are walked newest-first, merged by close time on the shared
   monotonic clock, and the walk ends at the first span that closed
   before [root] opened: its cost is the spans closed since then, not
   the rings' capacity. *)
let subtree root =
  let heads =
    List.filter_map
      (fun d ->
        let n = min (Array.length d.ring) d.written in
        if n = 0 then None else Some ((d.ring, d.widx), n, ref 0))
      (all_dstores ())
  in
  (* The [!k]-th newest span of a ring; the [n] newest slots are full. *)
  let head ((ring, widx), _, k) =
    let cap = Array.length ring in
    Option.get ring.((widx - 1 - !k + cap) mod cap)
  in
  let closed_at sp = sp.start +. sp.dur in
  let newer a b = closed_at (head a) >= closed_at (head b) in
  (* [opened] is [root]'s start once [root] is found: until then every
     span closed after [root] did, so none is a descendant. *)
  let rec walk opened acc =
    match List.filter (fun (_, n, k) -> !k < n) heads with
    | [] -> acc
    | h :: hs ->
      let ((_, _, k) as h) =
        List.fold_left (fun a b -> if newer a b then a else b) h hs
      in
      let sp = head h in
      if closed_at sp < opened then acc
      else begin
        incr k;
        if sp.id = root then walk sp.start (sp :: acc)
        else if opened > neg_infinity && sp.id > root then walk opened (sp :: acc)
        else walk opened acc
      end
  in
  if root < 0 then []
  else begin
    let keep = Hashtbl.create 16 in
    Hashtbl.add keep root ();
    List.sort (fun a b -> compare a.id b.id) (walk neg_infinity [])
    |> List.filter (fun sp ->
           Hashtbl.mem keep sp.id
           ||
           if Hashtbl.mem keep sp.parent then begin
             Hashtbl.add keep sp.id ();
             true
           end
           else false)
  end

(* ---------------- recording ---------------- *)

let add_attr key v =
  if !Runtime.enabled then
    match (Domain.DLS.get dstore_key).stack with
    | [] -> ()
    | sp :: _ -> sp.attrs <- (key, v) :: sp.attrs

let with_span ~name ?(attrs = []) f =
  if not !Runtime.enabled then f ()
  else begin
    let d = Domain.DLS.get dstore_key in
    let depth = match d.stack with [] -> 0 | p :: _ -> p.depth + 1 in
    if depth > !Runtime.max_depth then begin
      d.depth_dropped_n <- d.depth_dropped_n + 1;
      f ()
    end
    else begin
      let parent = match d.stack with [] -> -1 | p :: _ -> p.id in
      let id = Atomic.fetch_and_add next_id 1 in
      let sp =
        { id; parent; depth; name; attrs; start = Runtime.now (); dur = 0.0;
          children = 0.0 }
      in
      d.stack <- sp :: d.stack;
      let finish () =
        sp.dur <- Runtime.now () -. sp.start;
        (* Pop back to (and including) sp: recovers from instrumented code
           that escaped a nested span with an effect the nested [finish]
           never saw (cannot happen with Fun.protect, but stay safe). *)
        let rec pop = function
          | [] -> []
          | top :: rest -> if top == sp then rest else pop rest
        in
        d.stack <- pop d.stack;
        (match d.stack with
         | p :: _ -> p.children <- p.children +. sp.dur
         | [] -> ());
        record d sp;
        List.iter (fun k -> k sp) !subscribers
      in
      Fun.protect ~finally:finish f
    end
  end
