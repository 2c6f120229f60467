module Obs = Bagcqc_obs

(* ---------------- the sharded decision memo ---------------- *)

(* Every memo instance registers how to empty and measure itself, so
   [clear] and [cache_size] reach tables whose key types this library
   cannot name.  Registration happens at functor application, i.e. at
   module initialisation, before any parallel region. *)
let registry : ((unit -> unit) * (unit -> int)) list ref = ref []

let clear () =
  if Bagcqc_par.Pool.in_parallel_region () then
    invalid_arg
      "Solver.clear: cannot drop the memo cache inside a parallel region \
       (clear between regions; see Bagcqc_par.Pool initialization order)";
  List.iter (fun (clear, _) -> clear ()) !registry

let cache_size () = List.fold_left (fun acc (_, size) -> acc + size ()) 0 !registry

(* Pull-published: walking 16 shard mutexes per decision would be silly,
   so the serving layer refreshes this gauge on its ticker/scrape path
   instead. *)
let g_cache_size = Obs.Metrics.gauge "solver.cache.size"
let publish_gauges () = Obs.Metrics.set_gauge g_cache_size (cache_size ())

(* Hash-collision probe: on every store into a memo we record how many
   keys with the same hash were already resident.  A healthy hash keeps
   this histogram pinned at bucket 0; mass in higher buckets means
   distinct keys are sharing hash values and the table is degrading
   toward a list scan. *)
let h_hash_collisions = Obs.Metrics.histogram "solver.cache.hash_collisions"

let c_cache_hits = Obs.Metrics.counter "solver.cache.hits"
let c_cache_misses = Obs.Metrics.counter "solver.cache.misses"

module Memo (K : Hashtbl.HashedType) (V : sig type t end) = struct
  module Table = Hashtbl.Make (K)

  (* The table is sharded by key hash so concurrent callers on pool
     workers contend only when they touch the same slice of the key
     space.  Each shard carries its own mutex, its resident values, an
     in-flight set, and the hash-collision probe state.

     In-flight dedup keeps (hits, misses) exactly equal to a sequential
     run: when two domains race on the same key, the first to arrive
     registers it in-flight and counts the miss; the others block on the
     shard condition and count a hit once the value lands — just as the
     second of two sequential identical calls would have.  Without the
     dedup both would miss and compute, and the counter-equality
     property (test_par) would fail. *)
  type shard = {
    m : Mutex.t;
    cond : Condition.t; (* signalled when an in-flight computation resolves *)
    table : V.t Table.t;
    in_flight : unit Table.t;
    hash_seen : (int, int) Hashtbl.t;
  }

  let nshards = 16

  let shards =
    Array.init nshards (fun _ ->
        { m = Mutex.create (); cond = Condition.create ();
          table = Table.create 64; in_flight = Table.create 8;
          hash_seen = Hashtbl.create 64 })

  let () =
    registry :=
      ( (fun () ->
          Array.iter
            (fun s ->
              Mutex.lock s.m;
              Table.reset s.table;
              Table.reset s.in_flight;
              Hashtbl.reset s.hash_seen;
              Mutex.unlock s.m)
            shards),
        fun () ->
          Array.fold_left
            (fun acc s ->
              Mutex.lock s.m;
              let n = Table.length s.table in
              Mutex.unlock s.m;
              acc + n)
            0 shards )
      :: !registry

  (* Called with the shard mutex held. *)
  let note_store s h =
    if !Obs.Runtime.enabled then begin
      let prior = Option.value ~default:0 (Hashtbl.find_opt s.hash_seen h) in
      Obs.Metrics.observe h_hash_collisions prior;
      Hashtbl.replace s.hash_seen h (prior + 1)
    end

  let find_or_compute key compute =
    let h = K.hash key in
    let s = shards.(h land (nshards - 1)) in
    Mutex.lock s.m;
    let rec resolve () =
      match Table.find_opt s.table key with
      | Some v ->
        Obs.Metrics.bump c_cache_hits;
        Mutex.unlock s.m;
        Obs.Span.add_attr "cache" (Obs.Span.Str "hit");
        v
      | None ->
        if Table.mem s.in_flight key then begin
          (* Another domain is already computing exactly this key; wait
             for it and take the hit instead of duplicating the work. *)
          Condition.wait s.cond s.m;
          resolve ()
        end
        else begin
          Table.replace s.in_flight key ();
          Obs.Metrics.bump c_cache_misses;
          Mutex.unlock s.m;
          match compute () with
          | v ->
            Mutex.lock s.m;
            Table.replace s.table key v;
            note_store s h;
            Table.remove s.in_flight key;
            Condition.broadcast s.cond;
            Mutex.unlock s.m;
            v
          | exception e ->
            (* Un-register so a waiter can take over the computation
               rather than block forever on a value that will never
               land; nothing is cached. *)
            Mutex.lock s.m;
            Table.remove s.in_flight key;
            Condition.broadcast s.cond;
            Mutex.unlock s.m;
            raise e
        end
    in
    resolve ()
end
