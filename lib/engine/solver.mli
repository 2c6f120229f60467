(** The engine's decision memo — all that [lib/engine] holds.

    The memo is a sharded in-memory table of {e decisions}, keyed by
    what callers ask about rather than by the LPs a decision happens to
    build: {!Bagcqc_core.Containment.decide} instantiates {!Memo} on the
    de-duplicated query pair, so a repeated check skips Eq. 8 and both
    cones.  Lookups bump the [solver.cache.hits]/[solver.cache.misses]
    counters, and {!clear} empties every instance.  LPs themselves are
    not cached and do not pass through here: the cone builders hand
    them straight to {!Bagcqc_lp.Simplex.solve}, which counts them in
    [lp.solves]/[lp.pivots].

    The memo is safe from pool workers.  Lifecycle mutation ({!clear})
    must happen between parallel regions — see the initialization order
    in {!Bagcqc_par.Pool}. *)

module Memo (K : Hashtbl.HashedType) (V : sig type t end) : sig
  val find_or_compute : K.t -> (unit -> V.t) -> V.t
  (** [find_or_compute k f]: the value memoized under [k], else [f ()]
      memoized under [k].  Racing calls on the same key are deduplicated
      in flight (one computes, the others wait and count a hit), keeping
      hit/miss counters exactly equal to a sequential run.  An exception
      from [f] is re-raised and caches nothing; a waiter then takes over
      the computation.  Values are shared between callers, not copied:
      [V.t] must be immutable through its public interface. *)
end
(** A sharded memo table registered with {!clear}, {!cache_size} and the
    [solver.cache.hash_collisions] histogram.  Apply it at module
    initialisation, before any parallel region. *)

val clear : unit -> unit
(** Drop every memoized value (does not touch the counters).
    @raise Invalid_argument when called inside a parallel region. *)

val cache_size : unit -> int
(** Number of values currently memoized. *)

val publish_gauges : unit -> unit
(** Refresh the [solver.cache.size] gauge from {!cache_size} — called by
    the serving layer's ticker and metrics scrape, not per decision. *)
