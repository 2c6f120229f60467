(** Structured tracing & metrics for the whole pipeline.

    The event model has three parts (see DESIGN.md §4c):

    - {!Span}: nested timed regions with attributes, recorded into a
      bounded ring buffer — the trace tree;
    - {!Metrics}: named counters, log-bucketed histograms and
      last-writer-wins gauges, handle-based so a counter event is one
      integer store;
    - {!Window}: rolling deltas/rates over counters (decisions/sec over
      the last 1m/5m for a long-running daemon);
    - {!Prom}: Prometheus text exposition encoder + in-tree parser;
    - {!Export}/{!Report}: Chrome-trace / JSONL serialization and the
      reader behind the [report] CLI subcommand.

    With tracing {e disabled} (the default) every span entry point is a
    single branch; counters stay live (one integer store per event, read
    by name from the registry by every surface: [--stats], the serve
    [stats] verb, [/metrics], trace export), and histogram call sites are
    expected to gate themselves on {!enabled}.

    {2 Initialization order under parallelism}

    Collection is per-domain (each domain owns its span ring and metric
    cells; snapshots merge them), so recording is always safe inside the
    {!Bagcqc_par.Pool} — but the lifecycle calls below walk and clear
    every domain's store and therefore must run while the pool is
    quiescent.  Configure in this order: pool size
    ([--jobs] / [BAGCQC_JOBS] / [Bagcqc_par.Pool.set_jobs]), then
    {!enable}/{!reset}, then parallel work.  {!enable}, {!disable} and
    {!reset} raise [Invalid_argument] when called from inside a parallel
    region. *)

module Runtime = Runtime
module Span = Span
module Metrics = Metrics
module Window = Window
module Prom = Prom
module Json = Json
module Export = Export
module Report = Report

val enabled : unit -> bool

val enable :
  ?ring_capacity:int -> ?max_depth:int -> ?sample_every:int -> unit -> unit
(** Turn span recording on (idempotent; re-enabling while already enabled
    only updates the knobs, which take effect at the next {!reset}).  A
    disabled→enabled transition starts a fresh span store and epoch. *)

val disable : unit -> unit
(** Stop recording; already collected data stays readable/exportable. *)

val reset : unit -> unit
(** Fresh trace: clear spans (ring, ids, epoch), zero all metrics and
    drop window samples.  Idempotent. *)

val pp_stats : Format.formatter -> unit -> unit
(** The [--stats] rendering of the current obs state: {!Report.pp} of the
    trace {!Export.chrome} would write — the span tree (when tracing is
    enabled), every nonzero counter and gauge, and histogram
    percentiles. *)
