(* Timing suites behind `main.exe --json FILE`: wall-clock medians for the
   scaling experiments, written as JSON so `compare.exe` can diff two runs
   and flag regressions.  The JSON is emitted by hand (no JSON library in
   the build environment); the schema is flat on purpose:

     { "schema": "bagcqc-bench/1",
       "suites": [
         { "suite": "lp",
           "experiments": [
             { "id": "e11_gamma_sparse",
               "sizes": [ { "size": 4, "reps": 15,
                            "median_s": 2.1e-4, "min_s": 1.9e-4 } ] } ] } ] }

   Experiment constructions are frozen (fixed PRNG seeds, fixed sizes) so
   medians from different commits are comparable. *)

open Bagcqc_lp
open Bagcqc_engine
open Bagcqc_entropy
open Bagcqc_relation
open Bagcqc_cq
open Bagcqc_core
module Obs = Bagcqc_obs

let vs = Varset.of_list

(* ---------------- timing ---------------- *)

let median samples =
  let a = List.sort compare samples in
  List.nth a (List.length a / 2)

(* Median for human-facing scaling numbers, minimum for the regression
   gate: on a shared machine the whole process drifts 30-60% with CPU
   contention, and the min of many reps is by far the most reproducible
   statistic for CPU-bound code.

   The fast experiments finish a single call in single-digit microseconds,
   the same order as gettimeofday's tick, so a one-call sample is mostly
   timer quantization.  Each sample therefore repeats the call in an inner
   loop calibrated (by doubling) until one batch takes at least 1ms, and
   reports batch time divided by batch count. *)
let time_samples ~reps f =
  ignore (f ());
  (* warm-up *)
  let rec calibrate batch =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 1e-3 || batch >= 65536 then batch else calibrate (batch * 2)
  in
  let batch = calibrate 1 in
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to batch do
          ignore (f ())
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int batch)
  in
  (median samples, List.fold_left Float.min Float.infinity samples)

(* One measured point: experiment id, size parameter, reps, median/min. *)
type point = { size : int; reps : int; median_s : float; min_s : float }
type experiment = { id : string; points : point list }

let run_points ~reps sizes f =
  List.map
    (fun size ->
      let median_s, min_s = time_samples ~reps (f size) in
      { size; reps; median_s; min_s })
    sizes

(* ---------------- LP suite ---------------- *)

let shannon_target n =
  Linexpr.sub (Linexpr.term (Varset.full n)) (Linexpr.term (vs [ 0 ]))

(* Decision timing must start from an empty decision memo: otherwise
   every rep after the first is a table lookup and the baselines stop
   measuring the pipeline at all.  LPs are never memoized. *)
let without_cache f =
  Solver.clear ();
  f ()

let ingleton =
  let i_pair a b x = Linexpr.mutual (vs [ a ]) (vs [ b ]) (vs x) in
  Linexpr.sub
    (Linexpr.sum [ i_pair 0 1 [ 2 ]; i_pair 0 1 [ 3 ]; i_pair 2 3 [] ])
    (i_pair 0 1 [])

let path k =
  (* R(x1,x2), ..., k atoms: the E8/E11 path family of the harness. *)
  Query.make ~nvars:(k + 1)
    (List.init k (fun i -> Query.atom "R" [ i; i + 1 ]))

(* The certificate (Farkas) LP over the full elemental family for the
   n-variable Shannon monotonicity target, as the simplex takes it:
   measured below without the surrounding elemental-family construction
   and axiom bookkeeping. *)
let gamma_farkas_problem n =
  fst (Cones.Oracle.farkas ~n [ shannon_target n ])

let lp_suite ~smoke =
  let ns = if smoke then [ 2; 3 ] else [ 2; 3; 4; 5 ] in
  let reps = if smoke then 2 else 15 in
  (* The reference oracle, called directly: the exact simplex over the
     materialized elemental family (the pre-lazy production path).
     [ingleton_gamma_full] is an invalid inequality, so it exercises both
     the failed certificate LP and the primal refuter LP. *)
  let oracle =
    [ { id = "e11_gamma_sparse";
        points =
          run_points ~reps ns (fun n () ->
              Cones.Oracle.valid_max_quick ~n [ shannon_target n ]) };
      { id = "ingleton_gamma_full";
        points =
          run_points ~reps:(if smoke then 2 else 15) [ 4 ] (fun n () ->
              Cones.Oracle.valid_max_cert ~n [ ingleton ]) } ]
  in
  (* Production Γn frontier: the e11 workload under the lazy separation
     driver (exact LP underneath), pushed to n=7 — a size the
     materialized family has never reached in bench time.  [ingleton_gamma_lazy] times the refuted path, where
     the loop must run the implicit separation oracle to a genuine Γn
     refuter; [cert_gamma_lazy] times validity *with* certificate
     assembly, i.e. including the terminal restricted-Farkas solve and
     the exact check. *)
  let lazy_ns = if smoke then [ 2; 3 ] else [ 2; 3; 4; 5; 6; 7 ] in
  let lazy_engine =
    [ { id = "e11_gamma_lazy";
        points =
          run_points ~reps lazy_ns (fun n () ->
              Cones.valid_shannon ~n (shannon_target n)) };
      { id = "ingleton_gamma_lazy";
        points =
          run_points ~reps:(if smoke then 2 else 15) [ 4 ] (fun n () ->
              Cones.valid Cones.Gamma ~n ingleton) };
      { id = "cert_gamma_lazy";
        points =
          run_points ~reps (if smoke then [ 3 ] else [ 4; 5; 6; 7 ])
            (fun n () ->
              Cones.valid_max_cert Cones.Gamma ~n [ shannon_target n ]) } ]
  in
  (* Solver-only decide point: the full-family Farkas LP is built once
     per size and the thunk times [Simplex.solve] alone — its ingestion
     (the row sort into pivoting order, sign flips, column layout) and
     the pivots. *)
  let decide_points =
    [ { id = "lp_decide_gamma_exact";
        points =
          run_points ~reps (if smoke then [ 3 ] else [ 4; 5 ]) (fun n ->
              let sp = gamma_farkas_problem n in
              fun () -> Simplex.solve sp) } ]
  in
  (* Repeated full decide on the same pair, with and without the engine's
     decision memo: the cached variant is warmed by time_samples' warm-up
     call, so every measured rep is a memo hit. *)
  let decide_sizes = if smoke then [ 3 ] else [ 3; 4; 5 ] in
  let cache_pair =
    [ { id = "decide_path_repeat_uncached";
        points =
          run_points ~reps decide_sizes (fun n ->
              let p = path (n - 1) in
              fun () ->
                without_cache (fun () -> ignore (Containment.decide p p))) };
      { id = "decide_path_repeat_cached";
        points =
          run_points ~reps decide_sizes (fun n ->
              let p = path (n - 1) in
              Solver.clear ();
              fun () -> ignore (Containment.decide p p)) } ]
  in
  oracle @ lazy_engine @ decide_points @ cache_pair

(* ---------------- hom suite ---------------- *)

let random_digraph ~seed ~nodes ~edges =
  let st = Random.State.make [| seed |] in
  let db = ref Database.empty in
  for _ = 1 to edges do
    db :=
      Database.add_row "R"
        [| Value.Int (Random.State.int st nodes);
           Value.Int (Random.State.int st nodes) |]
        !db
  done;
  !db

let hom_suite ~smoke =
  let reps = if smoke then 2 else 15 in
  let tri_sizes = if smoke then [ 10; 20 ] else [ 10; 20; 40; 80 ] in
  let con_sizes = if smoke then [ 20 ] else [ 20; 60; 120 ] in
  let tri = Parser.parse "R(x,y), R(y,z), R(z,x)" in
  let q1 = Parser.parse "Q(x) :- R(x,y)" in
  let q2 = Parser.parse "Q(x) :- R(x,y), R(x,z)" in
  [ { id = "hom_triangle_count";
      points =
        run_points ~reps tri_sizes (fun sz ->
            let db = random_digraph ~seed:42 ~nodes:sz ~edges:(sz * 4) in
            fun () -> Hom.count tri db) };
    { id = "hom_contained_on";
      points =
        run_points ~reps con_sizes (fun sz ->
            let db = random_digraph ~seed:7 ~nodes:sz ~edges:(sz * 3) in
            fun () -> Hom.contained_on q1 q2 db) } ]

(* ---------------- par suite ---------------- *)

(* Jobs-scaling points: "size" is the pool size (1/2/4), set via
   Pool.set_jobs before each point's construction and restored after the
   suite.  Two workloads: a fan-out of independent Shannon-validity LPs
   (Cones.valid_shannon_many, cache off so every rep solves), and a batch
   of full containment decides (Containment.decide_many — the engine
   behind `check --batch`).  At jobs=1 both take the sequential path
   byte-for-byte, so the size=1 row doubles as the sequential baseline. *)
let par_suite ~smoke =
  let reps = if smoke then 2 else 9 in
  let jobs_sizes = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let n = 5 in
  let fanout_exprs =
    (* 15 distinct valid Shannon inequalities at n=5: monotonicity
       h(full) >= h(full \ {i}), plus (conditional) mutual-information
       nonnegativity over the index pairs. *)
    List.init n (fun i ->
        Linexpr.sub
          (Linexpr.term (Varset.full n))
          (Linexpr.term (Varset.remove i (Varset.full n))))
    @ List.concat_map
        (fun i ->
          List.filter_map
            (fun j ->
              if i < j then
                Some
                  (Linexpr.mutual (vs [ i ]) (vs [ j ])
                     (vs (if (i + j) mod 2 = 0 then [] else [ (j + 1) mod n ])))
              else None)
            (List.init n Fun.id))
        (List.init n Fun.id)
  in
  let batch_pairs =
    let tri = Parser.parse "R(x,y), R(y,z), R(z,x)" in
    let vee = Parser.parse "R(x,y), R(x,z)" in
    List.concat_map
      (fun k -> [ (path k, path k); (tri, vee); (vee, tri) ])
      [ 2; 3; 4; 5 ]
  in
  let saved_jobs = Bagcqc_par.Pool.jobs () in
  Fun.protect ~finally:(fun () -> Bagcqc_par.Pool.set_jobs saved_jobs)
  @@ fun () ->
  [ { id = "par_e11_fanout";
      points =
        run_points ~reps jobs_sizes (fun jobs ->
            Bagcqc_par.Pool.set_jobs jobs;
            fun () ->
              without_cache (fun () ->
                  Cones.valid_shannon_many ~n fanout_exprs)) };
    { id = "par_batch_decide";
      points =
        run_points ~reps jobs_sizes (fun jobs ->
            Bagcqc_par.Pool.set_jobs jobs;
            fun () ->
              without_cache (fun () ->
                  Containment.decide_many batch_pairs)) } ]

(* ---------------- serve suite ---------------- *)

(* End-to-end daemon service time over a real Unix socket: "size" is
   again the pool size.  One sample = one pipelined burst (every request
   written before any reply is read), so a burst exercises the reader
   thread, the admission queue, the dispatcher's pool fan-out and reply
   serialization together; the recorded figure is burst time divided by
   burst size — per-request service time under full pipelining, the
   reciprocal of requests/second.  [serve_burst_cold] wipes the
   decision memo before every burst, so each burst decides afresh.
   The timed bursts run with obs recording off (like every other
   suite); [serve_metrics_burst] below reruns the workload inside the
   report block's recording window so the serve.queue_us/serve.solve_us
   histograms — the p50/p99 latency source — land in the emitted
   "histograms" key. *)
let serve_request_lines =
  let check i (q1, q2) =
    Obs.Json.to_string
      (Obs.Json.Obj
         [ ("id", Obs.Json.Num (float_of_int i));
           ("op", Obs.Json.Str "check");
           ("q1", Obs.Json.Str q1);
           ("q2", Obs.Json.Str q2) ])
  in
  let path_str k =
    String.concat ", "
      (List.init k (fun i -> Printf.sprintf "R(x%d,x%d)" i (i + 1)))
  in
  (* Nine distinct instances (so the memo dedups nothing within a burst),
     same shape family as par_batch_decide. *)
  List.mapi check
    (List.concat_map
       (fun k ->
         [ (path_str k, path_str k);
           ("R(x,y), R(y,z), R(z,x)", "R(x,y), R(x,z)");
           ("R(x,y), R(x,z)", "R(x,y), R(y,z), R(z,x)") ])
       [ 2; 3; 4 ])

let with_serve_server ?(configure = Fun.id) ~jobs f =
  Bagcqc_par.Pool.set_jobs jobs;
  let sock = Filename.temp_file "bagcqc-bench-serve" ".sock" in
  Sys.remove sock;
  let addr = Bagcqc_serve.Protocol.Unix_path sock in
  let cfg =
    configure
      { (Bagcqc_serve.Server.default_config addr) with
        Bagcqc_serve.Server.banner = false }
  in
  let server = Thread.create Bagcqc_serve.Server.run cfg in
  let c = Bagcqc_serve.Client.connect ~retry_ms:5000 addr in
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore
           (Bagcqc_serve.Client.request c
              (Obs.Json.Obj
                 [ ("id", Obs.Json.Null); ("op", Obs.Json.Str "shutdown") ]))
       with _ -> ());
      Bagcqc_serve.Client.close c;
      Thread.join server)
    (fun () -> f c)

let serve_burst c =
  List.iter (Bagcqc_serve.Client.send_line c) serve_request_lines;
  List.iter
    (fun _ ->
      match Bagcqc_serve.Client.recv_line c with
      | Some _ -> ()
      | None -> failwith "serve bench: connection closed mid-burst")
    serve_request_lines

(* One untimed burst with recording on, for the report block's
   histograms; a no-op pool-size set keeps the caller's jobs level. *)
let serve_metrics_burst () =
  with_serve_server ~jobs:(Bagcqc_par.Pool.jobs ()) serve_burst

let serve_suite ~smoke =
  (* Bursts are a few ms each, and their latency is bimodal (it depends
     on when the dispatcher wakes relative to the pipelined writes), so
     the serve ids need more reps than the CPU-bound suites for the
     min-of-reps gate statistic to settle on the fast mode. *)
  let reps = if smoke then 2 else 31 in
  let jobs_sizes = if smoke then [ 1 ] else [ 1; 4 ] in
  let n_req = List.length serve_request_lines in
  let time_bursts c =
    for _ = 1 to 3 do
      serve_burst c
    done;
    (* warm-up *)
    let samples =
      List.init reps (fun _ ->
          Solver.clear ();
          let t0 = Unix.gettimeofday () in
          serve_burst c;
          (Unix.gettimeofday () -. t0) /. float_of_int n_req)
    in
    { size = Bagcqc_par.Pool.jobs ();
      reps;
      median_s = median samples;
      min_s = List.fold_left Float.min Float.infinity samples }
  in
  let saved_jobs = Bagcqc_par.Pool.jobs () in
  Fun.protect ~finally:(fun () -> Bagcqc_par.Pool.set_jobs saved_jobs)
  @@ fun () ->
  [ { id = "serve_burst_cold";
      points =
        List.map (fun jobs -> with_serve_server ~jobs time_bursts) jobs_sizes
    };
    (* serve_burst_cold with the full telemetry surface armed: metrics
       endpoint live on an ephemeral port (its ticker sampling gauges
       and windows 4×/s), an access log writing every request line, and
       a slow-request threshold being evaluated per request.  The delta
       against serve_burst_cold is the per-request cost of serving-grade
       observability; the acceptance bar is "within noise".  Tracing
       stays off, as in every timed suite — span capture is priced by
       the obs overhead suite, not here. *)
    { id = "serve_burst_telemetry";
      points =
        List.map
          (fun jobs ->
            let log = Filename.temp_file "bagcqc-bench-access" ".jsonl" in
            Fun.protect
              ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
            @@ fun () ->
            with_serve_server
              ~configure:(fun c ->
                { c with Bagcqc_serve.Server.metrics_port = Some 0;
                  access_log = Some log; log_sample = 1; slow_ms = Some 50.0 })
              ~jobs time_bursts)
          jobs_sizes } ]

(* ---------------- JSON emission ---------------- *)

(* Engine counters and metric histograms for a fixed representative
   workload (three repeated triangle/vee decides plus two repeated path
   decides, cache on).  Tracing is force-enabled just for this workload so
   the histograms fill; the timed suites above always run with whatever
   state the caller set (disabled unless --trace was given), so the
   regression numbers never pay tracing overhead by accident.  The
   "stats" and "histograms" keys are additive — compare.exe reads only
   "schema" and "suites", so older baselines and newer runs stay
   diffable. *)
let stats_workload () =
  let was_enabled = Obs.enabled () in
  if not was_enabled then Obs.enable ();
  Obs.Metrics.reset ();
  Solver.clear ();
  let tri = Parser.parse "R(x,y), R(y,z), R(z,x)" in
  let vee = Parser.parse "R(x,y), R(x,z)" in
  for _ = 1 to 3 do
    ignore (Containment.decide tri vee)
  done;
  for _ = 1 to 2 do
    ignore (Containment.decide (path 3) (path 3))
  done;
  (* One valid and one refuted Γn decision of their own, so the
     cone.lazy.* / cone.orbit.* counters in the "stats" block are
     nonzero on every emitted run. *)
  ignore (Cones.valid_max_cert Cones.Gamma ~n:4 [ shannon_target 4 ]);
  ignore (Cones.valid Cones.Gamma ~n:4 ingleton);
  let engine = (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
  (* The engine counters above are frozen; the serve burst runs after
     that snapshot (so it cannot shift them) but inside the recording
     window, filling the serve.queue_us/solve_us histograms for the
     report block. *)
  serve_metrics_burst ();
  let snap = (engine, Obs.Metrics.snapshot ()) in
  if not was_enabled then Obs.disable ();
  snap

(* Every registry counter under its own name, sorted. *)
let emit_stats buf counters =
  Printf.bprintf buf ",\n  \"stats\": { %s }"
    (String.concat ", "
       (List.map (fun (name, v) -> Printf.sprintf "%S: %d" name v) counters))

let emit_histograms buf (m : Obs.Metrics.snapshot) =
  let pf fmt = Printf.bprintf buf fmt in
  pf ",\n  \"histograms\": {";
  let first = ref true in
  List.iter
    (fun (name, (h : Obs.Metrics.hist_snapshot)) ->
      if h.Obs.Metrics.count > 0 then begin
        pf
          "%s\n    %S: { \"count\": %d, \"mean\": %.3f, \"p50\": %d, \
           \"p90\": %d, \"p99\": %d, \"max\": %d }"
          (if !first then "" else ",")
          name h.Obs.Metrics.count (Obs.Metrics.mean h)
          (Obs.Metrics.percentile h 0.5)
          (Obs.Metrics.percentile h 0.9)
          (Obs.Metrics.percentile h 0.99)
          h.Obs.Metrics.max_value;
        first := false
      end)
    m.Obs.Metrics.histograms;
  pf "%s }" (if !first then "" else "\n ")

let emit buf suites stats =
  let pf fmt = Printf.bprintf buf fmt in
  pf
    "{\n  \"schema\": \"bagcqc-bench/1\",\n  \"jobs\": %d,\n  \
     \"suites\": ["
    (Bagcqc_par.Pool.jobs ());
  List.iteri
    (fun i (name, experiments) ->
      pf "%s\n    { \"suite\": %S,\n      \"experiments\": ["
        (if i = 0 then "" else ",")
        name;
      List.iteri
        (fun j e ->
          pf "%s\n        { \"id\": %S,\n          \"sizes\": ["
            (if j = 0 then "" else ",")
            e.id;
          List.iteri
            (fun k p ->
              pf
                "%s\n            { \"size\": %d, \"reps\": %d, \"median_s\": \
                 %.9g, \"min_s\": %.9g }"
                (if k = 0 then "" else ",")
                p.size p.reps p.median_s p.min_s)
            e.points;
          pf " ] }")
        experiments;
      pf " ] }")
    suites;
  pf " ]";
  Option.iter
    (fun (s, m) ->
      emit_stats buf s;
      emit_histograms buf m)
    stats;
  pf "\n}\n"

type only = All | Lp | Hom | Par

let run ~path ~only ~smoke =
  (* The par suite rides with the LP selection on purpose: BENCH_lp.json
     is the solver-side baseline file, and the jobs-scaling points live
     there so the regression gate exercises the pool on every run. *)
  let suites =
    (match only with
     | All | Lp -> [ ("lp", lp_suite ~smoke) ]
     | Hom | Par -> [])
    @ (match only with
       | All | Hom -> [ ("hom", hom_suite ~smoke) ]
       | Lp | Par -> [])
    @ (match only with
       | All | Lp | Par -> [ ("par", par_suite ~smoke) ]
       | Hom -> [])
    @ (match only with
       (* The serve suite rides with the LP selection like par: the
          daemon's throughput baselines live in BENCH_lp.json so the
          regression gate drives the full socket path on every run. *)
       | All | Lp -> [ ("serve", serve_suite ~smoke) ]
       | Hom | Par -> [])
  in
  List.iter
    (fun (name, experiments) ->
      List.iter
        (fun e ->
          List.iter
            (fun p ->
              Format.printf "%s/%s size=%d median=%.6fs (%d reps)@." name e.id
                p.size p.median_s p.reps)
            e.points)
        experiments)
    suites;
  let stats =
    match only with
    | All | Lp -> Some (stats_workload ())
    | Hom | Par -> None
  in
  (match stats with
   | Some (counters, _) ->
     let hits = List.assoc "solver.cache.hits" counters in
     let lookups = hits + List.assoc "solver.cache.misses" counters in
     Format.printf "engine cache hit rate on the stats workload: %.0f%% (%d/%d)@."
       (100. *. float_of_int hits /. float_of_int (max 1 lookups))
       hits lookups
   | None -> ());
  let buf = Buffer.create 2048 in
  emit buf suites stats;
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "wrote %s@." path
