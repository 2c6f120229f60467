(* Benchmark for the bagcqc decision pipeline and its serve daemon.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Workloads (README.md says why each exists):
     check-cold   containment corpus, LP cache cleared before every decision
     check-warm   containment corpus, LP cache filled during set-up
     iip-cold     Max-IIP corpus (n <= 5), LP cache cleared per decision
     shannon-n6   generated two-sided Max-IIPs at n = 6, cache cleared
     serve-open   bagcqc serve --jobs 1, open loop at a fixed request rate

   [--trace 0] measures for S seconds of wall time and prints the
   end-to-end metrics; [--trace 1] replays the same inputs as separate
   calls into each layer, timed from here, and prints the per-layer
   metrics.  The program's own span tracing stays off in both.  Every
   output is checked; the last line of stdout is one JSON object with
   the keys correct, attempted, failed and metrics. *)

open Bagcqc_entropy
module Obs = Bagcqc_obs
module Json = Obs.Json
module Solver = Bagcqc_engine.Solver

let workload = ref ""
let seed = ref Inputs.checked_in_seed
let seconds = ref 10
let traced = ref 0

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (42: the checked-in corpora)");
      ("--seconds", Arg.Set_int seconds, "S wall seconds to measure");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!traced <> 0 && !traced <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end

(* The span file and the serve socket go here, inside the checkout. *)
let out_dir = ".perfbench"
let make_out_dir () = try Sys.mkdir out_dir 0o755 with Sys_error _ -> ()

(* ---------------- failures ---------------- *)

let attempted = ref 0
let failed = ref 0

let fail what =
  incr failed;
  if !failed <= 10 then prerr_endline ("perfbench: FAILED: " ^ what)

let metric name unit value =
  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])

let ratio a b = if b = 0.0 then 0.0 else a /. b
let us ns = float_of_int ns /. 1e3

(* ---------------- tasks ---------------- *)

type task = {
  label : string;
  decide : unit -> Pipeline.decided;
  replay : Ledger.trace -> string * Certificate.t option;
}

let check_task (c : Inputs.check) =
  { label = c.label;
    decide = (fun () -> Pipeline.decide_check c);
    replay = (fun tr -> Pipeline.replay_check tr c) }

let iip_task (i : Inputs.iip) =
  { label = i.label;
    decide = (fun () -> Pipeline.decide_iip i);
    replay = (fun tr -> Pipeline.replay_iip tr i) }

(* Untimed: compare with the label, then run the exact re-check. *)
let settle task = function
  | Error e -> fail ("exception " ^ Printexc.to_string e)
  | Ok (d : Pipeline.decided) -> (
    if d.verdict <> task.label then
      fail (Printf.sprintf "verdict %s, label %s" d.verdict task.label)
    else
      match d.recheck () with
      | None -> ()
      | Some why -> fail why
      | exception e -> fail ("re-check raised " ^ Printexc.to_string e))

let decide_timed ~cold task =
  if cold then Solver.clear ();
  let t0 = Ledger.now_ns () in
  let r = match task.decide () with d -> Ok d | exception e -> Error e in
  (Ledger.now_ns () - t0, r)

type inproc = {
  tasks : task array;
  cold : bool;  (** clear the LP cache before every decision *)
  warmup : int;  (** set-up decides the first [warmup] tasks *)
}

(* Set-up: an empty LP cache, then one untimed pass over the first
   [warmup] tasks in the workload's own cache mode.  On check-warm this
   is the cache fill; on the cold workloads it pays first-use memo
   tables and heap growth. *)
let setup w =
  let t0 = Ledger.now_ns () in
  Solver.clear ();
  for i = 0 to w.warmup - 1 do
    ignore (decide_timed ~cold:w.cold w.tasks.(i))
  done;
  Ledger.seconds_since t0

(* setup_s is the median of this many set-ups; the last one leaves the
   state the measurement starts from. *)
let setup_repeats = 5

(* ---------------- end-to-end, in process ---------------- *)

(* Decide the tasks round-robin for [secs] seconds of wall time, one
   caller, each decision timed from query text (or raw sides) to
   verdict.  Cache clears and re-checks run between decisions, outside
   the timer.  Returns each task's fastest time over the rounds that
   reached it; the host's speed drifts by tens of percent over seconds,
   and the fastest of a task's repeats is what stays put. *)
let measure w ~secs =
  let n = Array.length w.tasks in
  let best = Array.make n max_int in
  let deadline = Ledger.now_ns () + (secs * 1_000_000_000) in
  let i = ref 0 in
  while Ledger.now_ns () < deadline do
    let task = w.tasks.(!i) in
    let dt, r = decide_timed ~cold:w.cold task in
    best.(!i) <- min best.(!i) dt;
    incr attempted;
    settle task r;
    i := (!i + 1) mod n
  done;
  Array.of_list (List.filter (( <> ) max_int) (Array.to_list best))

let run_inproc w =
  let setup_s = Ledger.median (List.init setup_repeats (fun _ -> setup w)) in
  let best = measure w ~secs:!seconds in
  let busy_ns = Array.fold_left ( + ) 0 best in
  Array.sort compare best;
  Printf.eprintf "perfbench: %d decisions over %d inputs\n%!" !attempted
    (Array.length best);
  [ metric "decisions_per_s" "1/s" (float_of_int (Array.length best) /. (float_of_int busy_ns *. 1e-9));
    metric "latency_p50_us" "us" (us (Ledger.percentile best 0.50));
    metric "latency_p90_us" "us" (us (Ledger.percentile best 0.90));
    metric "setup_s" "s" setup_s ]

(* ---------------- per-layer ledger ---------------- *)

let counter name = Obs.Metrics.count (Obs.Metrics.counter name)

let counter_names =
  [ "hom.enumerations"; "lp.solves"; "lp.pivots"; "lp.float.probes";
    "lp.hybrid.float_solves"; "lp.hybrid.fallbacks"; "cone.lazy.solves";
    "cone.lazy.rounds"; "cone.lazy.cuts"; "cone.orbit.cuts";
    "solver.cache.hits"; "solver.cache.misses" ]

(* The layers a replay passes through, in pipeline order. *)
let layers =
  [ "cq.parse"; "core.eq8"; "entropy.build"; "entropy.normal"; "core.witness";
    "entropy.shannon" ]

(* A first pass through production [decide] gives allocation, counter
   deltas and the verdicts every replay must reproduce (as well as the
   label).  Then, for [secs] seconds (at least one round), a production
   pass alternates with a traced replay of the same tasks in the same
   cache state; only the first replay keeps its individual spans.  The
   trace overhead compares these alternating passes, so first-use costs
   and host drift stay out of it. *)
let ledger w ~count ~secs =
  let tasks = Array.sub w.tasks 0 (min count (Array.length w.tasks)) in
  let n = Array.length tasks in
  ignore (setup w);
  let prod_ns = ref 0 and words = ref 0.0 in
  let production () =
    Array.map
      (fun task ->
        if w.cold then Solver.clear ();
        let w0 = Ledger.words_now () in
        let dt, r = decide_timed ~cold:false task in
        words := !words +. (Ledger.words_now () -. w0 -. Ledger.alloc_overhead);
        prod_ns := !prod_ns + dt;
        incr attempted;
        match r with
        | Ok d -> d.verdict
        | Error e -> "exception " ^ Printexc.to_string e)
      tasks
  in
  let c0 = List.map counter counter_names in
  let prod_verdicts = production () in
  let words_per_decision = !words /. float_of_int n in
  let deltas = List.map2 (fun name c -> (name, float_of_int (counter name - c))) counter_names c0 in
  let delta name = List.assoc name deltas in
  prod_ns := 0;
  let tr = Ledger.trace () in
  let replayed = ref 0 and certs = ref 0 in
  let t0 = Ledger.now_ns () in
  while !replayed = 0 || Ledger.seconds_since t0 < float_of_int secs do
    ignore (production ());
    Array.iteri
      (fun i task ->
        if w.cold then Solver.clear ();
        tr.current <- !replayed;
        incr replayed;
        incr attempted;
        let verdict, cert =
          match Ledger.span tr "decision" (fun () -> task.replay tr) with
          | r -> r
          | exception e -> ("exception " ^ Printexc.to_string e, None)
        in
        if verdict <> prod_verdicts.(i) || verdict <> task.label then
          fail
            (Printf.sprintf "input %d: replay %s, decide %s, label %s" i verdict
               prod_verdicts.(i) task.label);
        Option.iter
          (fun c ->
            incr certs;
            if not (Ledger.span tr "entropy.cert_check" (fun () -> Certificate.check c))
            then fail "certificate fails Certificate.check")
          cert)
      tasks;
    tr.keep <- false
  done;
  make_out_dir ();
  Ledger.write_trace (Printf.sprintf "%s/trace-%s-seed%d.json" out_dir !workload !seed) tr;
  let fn = float_of_int n and fr = float_of_int !replayed in
  let decision_ns = float_of_int (Ledger.layer_ns tr "decision") in
  let share l = ratio (float_of_int (Ledger.layer_ns tr l)) decision_ns in
  let solves = delta "lp.solves" and lazy_solves = delta "cone.lazy.solves" in
  let lookups = delta "solver.cache.hits" +. delta "solver.cache.misses" in
  List.concat_map
    (fun l ->
      [ metric (l ^ ".share") "frac" (share l);
        metric (l ^ ".words") "words" (Ledger.layer_words tr l /. fr) ])
    layers
  @ [ metric "replay.decision_us" "us" (decision_ns /. fr /. 1e3);
      metric "bench.unattributed_frac" "frac"
        (1.0 -. List.fold_left (fun a l -> a +. share l) 0.0 layers);
      metric "bench.trace_overhead_frac" "frac"
        (ratio decision_ns (float_of_int !prod_ns) -. 1.0);
      metric "entropy.cert_check_us" "us"
        (ratio (float_of_int (Ledger.layer_ns tr "entropy.cert_check")) (float_of_int !certs) /. 1e3);
      metric "alloc_words_per_decision" "words" words_per_decision;
      metric "cq.hom.enumerations" "count" (delta "hom.enumerations" /. fn);
      metric "lp.solves" "count" (solves /. fn);
      metric "lp.pivots_per_solve" "count" (ratio (delta "lp.pivots") solves);
      metric "lp.float_probes" "count" (delta "lp.float.probes" /. fn);
      metric "lp.hybrid.fallback_rate" "frac"
        (ratio (delta "lp.hybrid.fallbacks") (delta "lp.hybrid.float_solves"));
      metric "entropy.lazy.rounds_per_solve" "count" (ratio (delta "cone.lazy.rounds") lazy_solves);
      metric "entropy.lazy.cuts_per_solve" "count" (ratio (delta "cone.lazy.cuts") lazy_solves);
      metric "entropy.orbit.cuts" "count" (delta "cone.orbit.cuts" /. fn);
      metric "engine.cache.hit_rate" "frac" (ratio (delta "solver.cache.hits") lookups);
      metric "engine.cache.lookups" "count" (lookups /. fn) ]

(* ---------------- serve-open ---------------- *)

(* About a quarter of what one connection gets through in a closed loop
   on two cores, so the daemon is loaded but not saturated. *)
let serve_rate = 5_000
let serve_window = 32

(* Set-up: spawn the daemon, wait for its first ping reply, then fill its
   cache with one pipelined pass over the corpus. *)
let serve_setup ~socket (inputs : Inputs.check array) lines =
  let t0 = Ledger.now_ns () in
  let c = Serve_load.start ~socket in
  match
    Serve_load.ping c;
    Serve_load.pipelined c ~window:serve_window lines
  with
  | verdicts ->
    let dt = Ledger.seconds_since t0 in
    Array.iteri
      (fun i v ->
        if v <> inputs.(i).label then
          fail (Printf.sprintf "serve set-up, input %d: %s, label %s" i v inputs.(i).label))
      verdicts;
    (c, dt)
  | exception e ->
    Serve_load.stop c;
    raise e

let run_serve ~setups (inputs : Inputs.check array) =
  (* a daemon that dies mid-run must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  make_out_dir ();
  let socket = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ()) in
  let lines = Array.mapi Serve_load.check_line inputs in
  let rec set_up k times =
    let c, dt = serve_setup ~socket inputs lines in
    if k = 1 then (c, Ledger.median (dt :: times))
    else begin
      Serve_load.stop c;
      set_up (k - 1) (dt :: times)
    end
  in
  let c, setup_s = set_up setups [] in
  Fun.protect ~finally:(fun () -> Serve_load.stop c) @@ fun () ->
  let m = Array.length inputs in
  let requests =
    Array.init (serve_rate * !seconds) (fun i -> Serve_load.check_line i inputs.(i mod m))
  in
  let before = Serve_load.stats c in
  let r = Serve_load.open_loop c ~rate:serve_rate ~drain_s:30.0 requests in
  let after = Serve_load.stats c in
  attempted := !attempted + Array.length requests;
  Array.iteri
    (fun i v ->
      let label = inputs.(i mod m).label in
      if v <> label then fail (Printf.sprintf "serve request %d: %s, label %s" i v label))
    r.verdicts;
  (r, before, after, setup_s)

(* Percentiles per one-second window of the send schedule, then the
   median over windows: a burst of host noise moves a few windows, not
   the result.  A request without a reply counts as infinitely late. *)
let serve_e2e (r : Serve_load.open_loop) setup_s =
  let windows =
    List.init !seconds (fun k ->
        let w = Array.sub r.latency_ns (k * serve_rate) serve_rate in
        let w = Array.map (fun x -> if x < 0 then max_int else x) w in
        Array.sort compare w;
        w)
  in
  let pct p = Ledger.median (List.map (fun w -> us (Ledger.percentile w p)) windows) in
  let replies = Array.fold_left (fun a x -> if x >= 0 then a + 1 else a) 0 r.latency_ns in
  [ metric "decisions_per_s" "1/s" (float_of_int replies /. r.wall_s);
    metric "latency_p50_us" "us" (pct 0.50);
    metric "latency_p90_us" "us" (pct 0.90);
    metric "setup_s" "s" setup_s ]

let serve_layer_names =
  [ ("serve.queue.share", "frac"); ("serve.solve.share", "frac");
    ("serve.cache.hit_rate", "frac"); ("serve.errors", "count");
    ("bench.gen_late_frac", "frac") ]

let serve_layers (r : Serve_load.open_loop) (before : Serve_load.stats)
    (after : Serve_load.stats) =
  let mean_us (c1, s1) (c0, s0) = ratio (s1 -. s0) (float_of_int (c1 - c0)) in
  let replied = List.filter (fun x -> x >= 0) (Array.to_list r.latency_ns) in
  let client_us =
    us (List.fold_left ( + ) 0 replied) /. float_of_int (max 1 (List.length replied))
  in
  let late = Array.fold_left (fun a x -> if x > 1_000_000 then a + 1 else a) 0 r.late_ns in
  let hits = float_of_int (after.cache_hits - before.cache_hits)
  and misses = float_of_int (after.cache_misses - before.cache_misses) in
  let values =
    [ ratio (mean_us after.queue before.queue) client_us;
      ratio (mean_us after.solve before.solve) client_us;
      ratio hits (hits +. misses);
      float_of_int (after.errors - before.errors);
      float_of_int late /. float_of_int (Array.length r.late_ns) ]
  in
  List.map2 (fun (name, unit) v -> metric name unit v) serve_layer_names values

(* ---------------- main ---------------- *)

let inproc_workload = function
  | ("check-cold" | "check-warm") as name ->
    let tasks = Array.map check_task (Inputs.check_corpus ~seed:!seed) in
    Some { tasks; cold = name = "check-cold"; warmup = Array.length tasks }
  | "iip-cold" ->
    let tasks = Array.map iip_task (Inputs.iip_corpus ~seed:!seed) in
    Some { tasks; cold = true; warmup = Array.length tasks }
  | "shannon-n6" ->
    let tasks = Array.map iip_task (Inputs.shannon ~seed:!seed ~n:6 ~count:3000) in
    Some { tasks; cold = true; warmup = 40 }
  | _ -> None

let () =
  Obs.disable ();
  Bagcqc_par.Pool.set_jobs 1;
  let metrics =
    match (!workload, inproc_workload !workload) with
    | name, Some w when !traced = 1 ->
      let count = if name = "shannon-n6" then 300 else max_int in
      ledger w ~count ~secs:!seconds
      @ List.map (fun (name, unit) -> metric name unit 0.0) serve_layer_names
    | _, Some w -> run_inproc w
    | "serve-open", None when !traced = 1 ->
      let inputs = Inputs.check_corpus ~seed:!seed in
      let r, before, after, _ = run_serve ~setups:1 inputs in
      let w = { tasks = Array.map check_task inputs; cold = false; warmup = Array.length inputs } in
      ledger w ~count:max_int ~secs:0 @ serve_layers r before after
    | "serve-open", None ->
      let r, _, _, setup_s = run_serve ~setups:setup_repeats (Inputs.check_corpus ~seed:!seed) in
      serve_e2e r setup_s
    | name, None ->
      prerr_endline ("perfbench: unknown workload " ^ name);
      exit 2
  in
  let correct = !failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int !attempted));
            ("failed", Json.Num (float_of_int !failed));
            ("metrics", Json.Obj metrics) ]));
  exit (if correct then 0 else 1)
