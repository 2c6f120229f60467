(* Engine.Stats is now a *view* over the obs layer (see DESIGN.md §4c):
   every counter in the snapshot is a Bagcqc_obs.Metrics counter bumped
   at the same call sites as before, so the public API and its always-on
   cost (one integer store per event) are unchanged while the same
   events also feed trace exports.

   Stage timers remain always-on here (the [--stats] path must work
   without tracing enabled) and additionally open an obs span, so the
   eq8/maxii/witness stages appear in trace trees.  Re-entrancy fix: a
   per-name activation depth makes wall time accumulate only across the
   *outermost* activation — the old implementation added the inner
   duration of a self-nested [time_stage "maxii"] twice. *)

module Obs = Bagcqc_obs

type snapshot = {
  lp_solves : int;
  lp_pivots : int;
  cache_hits : int;
  cache_misses : int;
  elemental_hits : int;
  elemental_misses : int;
  hom_enumerations : int;
  hybrid_float_solves : int;
  hybrid_repairs : int;
  hybrid_repair_failures : int;
  hybrid_fallbacks : int;
  store_hits : int;
  store_misses : int;
  store_appends : int;
  store_loaded : int;
  store_rejected : int;
  lazy_solves : int;
  lazy_rounds : int;
  lazy_cuts : int;
  lazy_fallbacks : int;
  orbit_cuts : int;
  orbit_canonicalized : int;
  stages : (string * float) list;
  hists : (string * Obs.Metrics.hist_snapshot) list;
}

let c_lp_solves = Obs.Metrics.counter "lp.solves"
let c_lp_pivots = Obs.Metrics.counter "lp.pivots"
let c_cache_hits = Obs.Metrics.counter "solver.cache.hits"
let c_cache_misses = Obs.Metrics.counter "solver.cache.misses"
let c_elemental_hits = Obs.Metrics.counter "elemental.hits"
let c_elemental_misses = Obs.Metrics.counter "elemental.misses"
let c_hom_enumerations = Obs.Metrics.counter "hom.enumerations"

(* Views over counters bumped inside Bagcqc_lp.Simplex's hybrid driver —
   the registry keys counters by name, so these are the same cells. *)
let c_hybrid_float_solves = Obs.Metrics.counter "lp.hybrid.float_solves"
let c_hybrid_repairs = Obs.Metrics.counter "lp.hybrid.repairs"
let c_hybrid_repair_failures = Obs.Metrics.counter "lp.hybrid.repair_failures"
let c_hybrid_fallbacks = Obs.Metrics.counter "lp.hybrid.fallbacks"

(* Views over the lazy cone driver's counters, bumped inside
   Bagcqc_entropy.Separation — same name-keyed registry cells. *)
let c_lazy_solves = Obs.Metrics.counter "cone.lazy.solves"
let c_lazy_rounds = Obs.Metrics.counter "cone.lazy.rounds"
let c_lazy_cuts = Obs.Metrics.counter "cone.lazy.cuts"
let c_lazy_fallbacks = Obs.Metrics.counter "cone.lazy.fallbacks"
let c_orbit_cuts = Obs.Metrics.counter "cone.orbit.cuts"
let c_orbit_canonicalized = Obs.Metrics.counter "cone.orbit.canonicalized"

(* Views over the persistent-store counters bumped inside Store — same
   registry cells, by name, like the hybrid counters above. *)
let c_store_hits = Obs.Metrics.counter "solver.store.hits"
let c_store_misses = Obs.Metrics.counter "solver.store.misses"
let c_store_appends = Obs.Metrics.counter "solver.store.appends"
let c_store_loaded = Obs.Metrics.counter "solver.store.loaded"
let c_store_rejected = Obs.Metrics.counter "solver.store.rejected"

(* Stage buckets in first-use order, so `pp` prints the pipeline in the
   order it actually ran.  [active] is the current activation depth of
   the name; [t0] the entry time of the outermost activation.

   Activation state is per-domain ([Domain.DLS]): each domain times its
   own outermost activation of a name, so pool workers timing the same
   stage never clobber each other's [t0].  The first-use order and the
   snapshot merge (summing each name's total across domains) are global,
   guarded by [stage_mutex].  Summing means a stage running on k domains
   at once reports k× wall time — CPU-seconds, the honest unit for
   parallel stage accounting. *)
type stage = { mutable active : int; mutable t0 : float; mutable total : float }

let stage_mutex = Mutex.create ()
let stage_order : string list ref = ref [] (* newest first *)
let stage_seen : (string, unit) Hashtbl.t = Hashtbl.create 8
let stage_stores : (string, stage) Hashtbl.t list ref = ref []

let stage_key =
  Domain.DLS.new_key (fun () ->
      let tbl : (string, stage) Hashtbl.t = Hashtbl.create 8 in
      Mutex.lock stage_mutex;
      stage_stores := tbl :: !stage_stores;
      Mutex.unlock stage_mutex;
      tbl)

let stage_total name =
  List.fold_left
    (fun acc tbl ->
      match Hashtbl.find_opt tbl name with
      | Some st -> acc +. st.total
      | None -> acc)
    0.0 !stage_stores

let reset () =
  Obs.Metrics.reset ();
  Mutex.lock stage_mutex;
  stage_order := [];
  Hashtbl.reset stage_seen;
  List.iter Hashtbl.reset !stage_stores;
  Mutex.unlock stage_mutex

let snapshot () =
  { lp_solves = Obs.Metrics.count c_lp_solves;
    lp_pivots = Obs.Metrics.count c_lp_pivots;
    cache_hits = Obs.Metrics.count c_cache_hits;
    cache_misses = Obs.Metrics.count c_cache_misses;
    elemental_hits = Obs.Metrics.count c_elemental_hits;
    elemental_misses = Obs.Metrics.count c_elemental_misses;
    hom_enumerations = Obs.Metrics.count c_hom_enumerations;
    hybrid_float_solves = Obs.Metrics.count c_hybrid_float_solves;
    hybrid_repairs = Obs.Metrics.count c_hybrid_repairs;
    hybrid_repair_failures = Obs.Metrics.count c_hybrid_repair_failures;
    hybrid_fallbacks = Obs.Metrics.count c_hybrid_fallbacks;
    store_hits = Obs.Metrics.count c_store_hits;
    store_misses = Obs.Metrics.count c_store_misses;
    store_appends = Obs.Metrics.count c_store_appends;
    store_loaded = Obs.Metrics.count c_store_loaded;
    store_rejected = Obs.Metrics.count c_store_rejected;
    lazy_solves = Obs.Metrics.count c_lazy_solves;
    lazy_rounds = Obs.Metrics.count c_lazy_rounds;
    lazy_cuts = Obs.Metrics.count c_lazy_cuts;
    lazy_fallbacks = Obs.Metrics.count c_lazy_fallbacks;
    orbit_cuts = Obs.Metrics.count c_orbit_cuts;
    orbit_canonicalized = Obs.Metrics.count c_orbit_canonicalized;
    stages =
      (Mutex.lock stage_mutex;
       let rows = List.rev_map (fun name -> (name, stage_total name)) !stage_order in
       Mutex.unlock stage_mutex;
       rows);
    hists =
      List.filter
        (fun (_, h) -> h.Obs.Metrics.count > 0)
        (Obs.Metrics.snapshot ()).Obs.Metrics.histograms }

let note_solve ~pivots =
  Obs.Metrics.bump c_lp_solves;
  Obs.Metrics.add c_lp_pivots pivots

let note_cache_hit () = Obs.Metrics.bump c_cache_hits
let note_cache_miss () = Obs.Metrics.bump c_cache_misses
let note_elemental_hit () = Obs.Metrics.bump c_elemental_hits
let note_elemental_miss () = Obs.Metrics.bump c_elemental_misses
let note_hom_enumeration () = Obs.Metrics.bump c_hom_enumerations

let time_stage name f =
  let tbl = Domain.DLS.get stage_key in
  let st =
    match Hashtbl.find_opt tbl name with
    | Some st -> st
    | None ->
      (* Register on entry so first-use order means the order stages
         started, not the order they finished. *)
      let st = { active = 0; t0 = 0.0; total = 0.0 } in
      Hashtbl.add tbl name st;
      Mutex.lock stage_mutex;
      if not (Hashtbl.mem stage_seen name) then begin
        Hashtbl.add stage_seen name ();
        stage_order := name :: !stage_order
      end;
      Mutex.unlock stage_mutex;
      st
  in
  if st.active = 0 then st.t0 <- Unix.gettimeofday ();
  st.active <- st.active + 1;
  let record () =
    st.active <- st.active - 1;
    if st.active = 0 then
      st.total <- st.total +. (Unix.gettimeofday () -. st.t0)
  in
  Fun.protect ~finally:record (fun () -> Obs.Span.with_span ~name f)

let cache_hit_rate s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total

let fallback_rate s =
  if s.hybrid_float_solves = 0 then 0.0
  else float_of_int s.hybrid_fallbacks /. float_of_int s.hybrid_float_solves

let lazy_fallback_rate s =
  if s.lazy_solves = 0 then 0.0
  else float_of_int s.lazy_fallbacks /. float_of_int s.lazy_solves

let pp fmt s =
  Format.fprintf fmt "engine stats:@.";
  Format.fprintf fmt "  LP solves:          %d (%d pivots)@." s.lp_solves
    s.lp_pivots;
  Format.fprintf fmt "  decision cache:     %d hits / %d misses (%.0f%% hit rate)@."
    s.cache_hits s.cache_misses (100.0 *. cache_hit_rate s);
  Format.fprintf fmt "  elemental tables:   %d hits / %d generated@."
    s.elemental_hits s.elemental_misses;
  Format.fprintf fmt "  hom enumerations:   %d@." s.hom_enumerations;
  (* Only when an LP was actually solved, so LP-free commands print no
     empty hybrid line. *)
  if s.hybrid_float_solves > 0 then
    Format.fprintf fmt
      "  hybrid LP:          %d float solves, %d repaired, %d fallbacks \
       (%.1f%% fallback rate)@."
      s.hybrid_float_solves s.hybrid_repairs s.hybrid_fallbacks
      (100.0 *. fallback_rate s);
  (* Only when the lazy Γn driver ran, like the hybrid section above. *)
  if s.lazy_solves > 0 then
    Format.fprintf fmt
      "  lazy cone:          %d decisions, %d rounds, %d cuts (%d via \
       orbits), %d canonicalized, %d fallbacks@."
      s.lazy_solves s.lazy_rounds s.lazy_cuts s.orbit_cuts
      s.orbit_canonicalized s.lazy_fallbacks;
  (* Only when a persistent store was in play: runs without --store /
     serve keep the historical output byte-for-byte. *)
  if s.store_hits + s.store_misses + s.store_appends + s.store_loaded
     + s.store_rejected > 0
  then
    Format.fprintf fmt
      "  LP store:           %d hits / %d misses, %d appended; loaded %d \
       verified, rejected %d@."
      s.store_hits s.store_misses s.store_appends s.store_loaded
      s.store_rejected;
  List.iter
    (fun (name, t) -> Format.fprintf fmt "  stage %-12s  %.6fs@." name t)
    s.stages;
  if s.hists <> [] then begin
    Format.fprintf fmt "  %-24s %9s %9s %7s %7s %7s %7s@." "histogram" "count"
      "mean" "p50" "p90" "p99" "max";
    List.iter
      (fun (name, h) ->
        Format.fprintf fmt "  %-24s %9d %9.1f %7d %7d %7d %7d@." name
          h.Obs.Metrics.count (Obs.Metrics.mean h)
          (Obs.Metrics.percentile h 0.50)
          (Obs.Metrics.percentile h 0.90)
          (Obs.Metrics.percentile h 0.99)
          h.Obs.Metrics.max_value)
      s.hists
  end
