(** Pipeline instrumentation for the solver-engine layer.

    One process-global set of counters, always on (each event is a single
    integer bump, negligible next to the exact-rational pivots it counts).
    The CLI's [--stats] flag and [bench/main.exe --json] read a
    {!snapshot}; long-running callers {!reset} between measurements.

    Stage timers nest: [time_stage "decide" f] attributes the wall-clock
    time of [f] (inclusive of nested stages) to the ["decide"] bucket. *)

type snapshot = {
  lp_solves : int;        (** simplex invocations actually performed *)
  lp_pivots : int;        (** Gaussian pivots across those solves *)
  cache_hits : int;       (** decisions answered from the tier-0 memo *)
  cache_misses : int;     (** decisions the memo had to compute *)
  elemental_hits : int;   (** memoized elemental-family lookups *)
  elemental_misses : int; (** elemental families actually generated *)
  hom_enumerations : int; (** homomorphism enumeration/counting passes *)
  hybrid_float_solves : int;
      (** float-first simplex proposals attempted *)
  hybrid_repairs : int;   (** proposals repaired to verified exact answers *)
  hybrid_repair_failures : int;
      (** proposals whose exact repair was rejected *)
  hybrid_fallbacks : int; (** solves re-run on the exact simplex *)
  store_hits : int;       (** LP solves answered by the persistent store *)
  store_misses : int;     (** LP solves the store could not answer *)
  store_appends : int;    (** fresh solves appended to the store *)
  store_loaded : int;     (** store entries verified and indexed at open *)
  store_rejected : int;
      (** store entries dropped at open: corrupt, forged, or failing
          exact re-verification — never served *)
  lazy_solves : int;
      (** lazy Γn decisions started (0 when only the reference oracle
          or the Nn/Mn cones ran) *)
  lazy_rounds : int;   (** solve–separate rounds across those decisions *)
  lazy_cuts : int;     (** elemental cuts added by the separation oracle *)
  lazy_fallbacks : int;
      (** lazy certificates rejected by the exact check and re-derived
          (expected 0; any bump is a repaired solver bug) *)
  orbit_cuts : int;
      (** cuts added as symmetry-orbit images of a violated cut, beyond
          the violated cut itself *)
  orbit_canonicalized : int;
      (** lazy decisions whose instance was renamed to a canonical
          orbit representative before solving *)
  stages : (string * float) list;
      (** cumulative wall-clock seconds per named stage, insertion order *)
  hists : (string * Bagcqc_obs.Metrics.hist_snapshot) list;
      (** every non-empty obs histogram ([lp.*], [serve.*], …), sorted by
          name — the percentile source for [--stats] and the [stats]
          serve verb *)
}

val reset : unit -> unit
(** Zero every counter and stage timer. *)

val snapshot : unit -> snapshot

val note_solve : pivots:int -> unit
val note_cache_hit : unit -> unit
val note_cache_miss : unit -> unit
val note_elemental_hit : unit -> unit
val note_elemental_miss : unit -> unit
val note_hom_enumeration : unit -> unit

val time_stage : string -> (unit -> 'a) -> 'a
(** Run the thunk, adding its wall-clock duration to the named stage
    bucket (created on first use).  Exceptions propagate; the time is
    recorded regardless. *)

val cache_hit_rate : snapshot -> float
(** [hits / (hits + misses)], or 0 when no memoized decision was
    attempted. *)

val fallback_rate : snapshot -> float
(** [hybrid_fallbacks / hybrid_float_solves], or 0 when the float-first
    engine never ran. *)

val lazy_fallback_rate : snapshot -> float
(** [lazy_fallbacks / lazy_solves], or 0 when the lazy cone driver never
    ran. *)

val pp : Format.formatter -> snapshot -> unit
(** Multi-line human-readable rendering (the [--stats] output),
    including a p50/p90/p99 table for every non-empty histogram. *)
