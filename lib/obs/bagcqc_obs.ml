(* Umbrella: one module to open for the whole obs layer, plus the
   enable/disable/reset lifecycle.  All three lifecycle calls are
   idempotent, so CLI subcommands can unconditionally install the layer
   at startup without tracking prior state. *)

module Runtime = Runtime
module Span = Span
module Metrics = Metrics
module Window = Window
module Prom = Prom
module Json = Json
module Export = Export
module Report = Report

let enabled () = !Runtime.enabled

(* Lifecycle transitions walk (and clear) every domain's span/metric
   store, which is only safe while no parallel region is running. *)
let guard_quiescent what =
  if Bagcqc_par.Pool.in_parallel_region () then
    invalid_arg
      (Printf.sprintf
         "Obs.%s: cannot change the obs lifecycle inside a parallel region \
          (configure observability before starting parallel work; see \
          Bagcqc_par.Pool initialization order)"
         what)

let enable ?ring_capacity ?max_depth ?sample_every () =
  guard_quiescent "enable";
  Option.iter (fun c -> Runtime.ring_capacity := max 0 c) ring_capacity;
  Option.iter (fun d -> Runtime.max_depth := max 0 d) max_depth;
  Option.iter (fun k -> Runtime.sample_every := max 1 k) sample_every;
  if not !Runtime.enabled then begin
    Runtime.enabled := true;
    Span.reset ()
  end

let disable () =
  guard_quiescent "disable";
  Runtime.enabled := false

let reset () =
  guard_quiescent "reset";
  Span.reset ();
  Metrics.reset ();
  Window.reset ()

let pp_stats fmt () = Report.pp fmt (Report.of_json (Export.chrome ()))
