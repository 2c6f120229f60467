(* Fleet-scale corpus sweep (ROADMAP item 5).

   Three subcommands over the stratified corpora of Bagcqc_check.Corpus:

     gen    write a seeded corpus file (same seed => byte-identical)
     run    bulk-decide a corpus — in-process over the domain pool, or
            against a live `bagcqc serve` daemon over its socket —
            reporting decisions/sec, p50/p99 latency and decision-cache
            hit rates per stratum as one JSONL record
     audit  correctness sweep: every instance decided by the production
            path at jobs 1 and 4, every verdict compared against the
            corpus label, every certificate re-checked with the exact
            checker; any disagreement prints a reproducer and fails the
            run

   Strata are processed one parallel region at a time, so per-stratum
   counter deltas (cache hits, LP solves) are exact — the pool is
   quiescent at every boundary. *)

open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_core
open Bagcqc_check
module Obs = Bagcqc_obs
module Json = Obs.Json
module Metrics = Obs.Metrics
module Pool = Bagcqc_par.Pool
open Cmdliner

let num i = Json.Num (float_of_int i)

(* ---------------- corpus IO ---------------- *)

let load_corpus path =
  match Corpus.load path with
  | Ok (header, insts) -> (header, insts)
  | Error msg ->
    prerr_endline ("sweep: " ^ msg);
    exit 2

(* ---------------- deciding one instance ---------------- *)

type decided = {
  verdict : string;
  latency_us : int;
  cert_ok : bool;  (** exact re-check of the attached certificate; true
                       when the verdict carries none *)
}

let decide_payload payload =
  let t0 = Unix.gettimeofday () in
  let verdict, cert_ok =
    match payload with
    | Corpus.Check_pair { q1; q2 } -> begin
      match Containment.decide q1 q2 with
      | Containment.Contained cert -> ("contained", Certificate.check cert)
      | Containment.Not_contained _ -> ("not_contained", true)
      | Containment.Unknown _ -> ("unknown", true)
    end
    | Corpus.Iip_sides { n; sides } -> begin
      let ii = Maxii.general ~n (List.map Corpus.build_side sides) in
      match Maxii.decide ii with
      | Maxii.Valid cert -> ("valid", Certificate.check cert)
      | Maxii.Invalid _ -> ("invalid", true)
      | Maxii.Unknown _ -> ("unknown", true)
    end
  in
  let dt_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  { verdict; latency_us = dt_us; cert_ok }

(* ---------------- per-stratum accounting ---------------- *)

let counter_names =
  [
    "solver.cache.hits"; "solver.cache.misses";
    "lp.solves"; "lp.pivots";
    "cone.lazy.solves"; "cone.lazy.cuts";
    "cone.cover.certs"; "cone.lazy.probe_certs";
  ]

let read_counters () =
  List.map (fun n -> (n, Metrics.count (Metrics.counter n))) counter_names

let delta_counters before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

let rate hits misses =
  let tot = hits + misses in
  if tot = 0 then 0.0 else float_of_int hits /. float_of_int tot

let lookup name deltas = try List.assoc name deltas with Not_found -> 0

type stratum_result = {
  s_name : string;
  s_count : int;
  s_wall : float;
  s_hist : Metrics.hist_snapshot;
  s_counters : (string * int) list;
  s_mismatches : (Corpus.instance * string) list;  (** instance, got *)
  s_cert_failures : Corpus.instance list;
}

let stratum_json s =
  let hits = lookup "solver.cache.hits" s.s_counters
  and misses = lookup "solver.cache.misses" s.s_counters in
  Json.Obj
    [
      ("stratum", Json.Str s.s_name);
      ("count", num s.s_count);
      ("wall_s", Json.Num s.s_wall);
      ( "dps",
        Json.Num
          (if s.s_wall > 0.0 then float_of_int s.s_count /. s.s_wall else 0.0) );
      ("p50_us", num (Metrics.percentile s.s_hist 0.5));
      ("p99_us", num (Metrics.percentile s.s_hist 0.99));
      ("max_us", num (if s.s_hist.Metrics.count = 0 then 0 else s.s_hist.Metrics.max_value));
      ("mean_us", Json.Num (Metrics.mean s.s_hist));
      ("cache_hit_rate", Json.Num (rate hits misses));
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, num v)) s.s_counters));
      ("mismatches", num (List.length s.s_mismatches));
      ("cert_failures", num (List.length s.s_cert_failures));
    ]

let group_by_stratum insts =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun inst ->
      let name = inst.Corpus.stratum in
      if not (Hashtbl.mem tbl name) then begin
        Hashtbl.add tbl name (ref []);
        order := name :: !order
      end;
      let cell = Hashtbl.find tbl name in
      cell := inst :: !cell)
    insts;
  List.rev_map (fun name -> (name, List.rev !(Hashtbl.find tbl name))) !order

(* ---------------- in-process sweep ---------------- *)

let sweep_stratum ~observe_hist (name, insts) =
  let arr = Array.of_list insts in
  let before = read_counters () in
  let t0 = Unix.gettimeofday () in
  let results =
    Pool.parallel_map
      (fun inst ->
        let d = decide_payload inst.Corpus.payload in
        observe_hist d.latency_us;
        (inst, d))
      arr
  in
  let wall = Unix.gettimeofday () -. t0 in
  let counters = delta_counters before (read_counters ()) in
  let mismatches =
    Array.to_list results
    |> List.filter_map (fun (inst, d) ->
           if d.verdict <> inst.Corpus.verdict then Some (inst, d.verdict)
           else None)
  in
  let cert_failures =
    Array.to_list results
    |> List.filter_map (fun (inst, d) -> if d.cert_ok then None else Some inst)
  in
  (name, Array.length arr, wall, counters, mismatches, cert_failures)

(* ---------------- serve-backed sweep ---------------- *)

(* Pipelined window over one daemon connection: keep up to [window]
   requests outstanding, match replies by their echoed id, measure
   per-request latency send-to-reply.  Check corpora only. *)
let serve_stratum client ~window ~observe_hist (name, insts) =
  let module P = Bagcqc_serve.Protocol in
  let arr = Array.of_list insts in
  let total = Array.length arr in
  let sent = Hashtbl.create (2 * window) in
  let results = Array.make total None in
  let next = ref 0 and done_ = ref 0 in
  let before = read_counters () in
  let t0 = Unix.gettimeofday () in
  let send_one () =
    let i = !next in
    incr next;
    let inst = arr.(i) in
    match inst.Corpus.payload with
    | Corpus.Iip_sides _ -> failwith "serve mode supports check corpora only"
    | Corpus.Check_pair { q1; q2 } ->
      let line =
        Json.to_string
          (Obj
             [
               ("id", num i);
               ("op", Json.Str "check");
               ("q1", Json.Str (Query.to_string q1));
               ("q2", Json.Str (Query.to_string q2));
             ])
      in
      Hashtbl.replace sent i (Unix.gettimeofday ());
      Bagcqc_serve.Client.send_line client line
  in
  let recv_one () =
    match Bagcqc_serve.Client.recv_line client with
    | None -> failwith "daemon closed the connection mid-sweep"
    | Some line ->
      let j = Json.parse line in
      let id = Json.as_int (Json.member "id" j) in
      let t_sent =
        match Hashtbl.find_opt sent id with
        | Some t -> t
        | None -> failwith (Printf.sprintf "reply for unknown id %d" id)
      in
      Hashtbl.remove sent id;
      let lat_us = int_of_float ((Unix.gettimeofday () -. t_sent) *. 1e6) in
      observe_hist lat_us;
      let verdict =
        match Json.find_opt "verdict" j with
        | Some v -> Json.as_str v
        | None -> (
          match Json.find_opt "error" j with
          | Some e -> "error:" ^ Json.as_str (Json.member "kind" e)
          | None -> "error:malformed_reply")
      in
      results.(id) <- Some verdict;
      incr done_
  in
  while !done_ < total do
    while !next < total && Hashtbl.length sent < window do
      send_one ()
    done;
    recv_one ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let counters = delta_counters before (read_counters ()) in
  let mismatches =
    Array.to_list
      (Array.mapi
         (fun i r ->
           match r with
           | Some v when v <> arr.(i).Corpus.verdict -> Some (arr.(i), v)
           | Some _ -> None
           | None -> Some (arr.(i), "error:no_reply"))
         results)
    |> List.filter_map Fun.id
  in
  (* certificates stay daemon-side in serve mode *)
  (name, total, wall, counters, mismatches, [])

(* ---------------- one full run ---------------- *)

let print_mismatch ~config_name (inst, got) =
  Printf.eprintf "sweep: VERDICT MISMATCH [%s] expected %s, got %s:\n  %s\n%!"
    config_name inst.Corpus.verdict got
    (Corpus.instance_line inst)

let print_cert_failure ~config_name inst =
  Printf.eprintf "sweep: CERTIFICATE CHECK FAILED [%s]:\n  %s\n%!" config_name
    (Corpus.instance_line inst)

type run_summary = {
  r_total : int;
  r_wall : float;
  r_mismatches : int;
  r_cert_failures : int;
  r_json : Json.t;
}

(* Runs the whole corpus stratum-by-stratum at the current pool size and
   returns the JSONL record.  [transport] is either
   [`Inproc] or [`Serve client]. *)
let run_corpus ~label ~corpus_path ~kind ~config_name ~config_fields ~transport
    insts =
  let groups = group_by_stratum insts in
  (* pre-create the per-stratum histograms outside any parallel region:
     the metrics registry is keyed by name and find-or-create is not a
     hot-path operation *)
  let hists =
    List.map
      (fun (name, _) -> (name, Metrics.histogram ("sweep.latency_us:" ^ name)))
      groups
  in
  let stratum_results =
    List.map
      (fun (name, insts) ->
        let h = List.assoc name hists in
        let observe_hist v = Metrics.observe h v in
        let name, count, wall, counters, mismatches, cert_failures =
          match transport with
          | `Inproc -> sweep_stratum ~observe_hist (name, insts)
          | `Serve (client, window) ->
            serve_stratum client ~window ~observe_hist (name, insts)
        in
        let snap = Metrics.snapshot () in
        let hist =
          try List.assoc ("sweep.latency_us:" ^ name) snap.Metrics.histograms
          with Not_found -> Metrics.empty_hist
        in
        { s_name = name;
          s_count = count;
          s_wall = wall;
          s_hist = hist;
          s_counters = counters;
          s_mismatches = mismatches;
          s_cert_failures = cert_failures })
      groups
  in
  let total = List.fold_left (fun a s -> a + s.s_count) 0 stratum_results in
  let wall = List.fold_left (fun a s -> a +. s.s_wall) 0.0 stratum_results in
  let mismatches = List.concat_map (fun s -> s.s_mismatches) stratum_results in
  let cert_failures =
    List.concat_map (fun s -> s.s_cert_failures) stratum_results
  in
  List.iter (print_mismatch ~config_name) mismatches;
  List.iter (print_cert_failure ~config_name) cert_failures;
  let overall_counters =
    List.fold_left
      (fun acc s ->
        List.map2 (fun (n, a) (_, b) -> (n, a + b)) acc s.s_counters)
      (List.map (fun n -> (n, 0)) counter_names)
      stratum_results
  in
  let hits = lookup "solver.cache.hits" overall_counters
  and misses = lookup "solver.cache.misses" overall_counters in
  let record =
    Json.Obj
      [
        ("type", Json.Str "sweep");
        ("label", Json.Str label);
        ("corpus", Json.Str corpus_path);
        ("kind", Json.Str (Corpus.kind_name kind));
        ("config", Json.Obj config_fields);
        ("total", num total);
        ("wall_s", Json.Num wall);
        ( "dps",
          Json.Num (if wall > 0.0 then float_of_int total /. wall else 0.0) );
        ("cache_hit_rate", Json.Num (rate hits misses));
        ("mismatches", num (List.length mismatches));
        ("cert_failures", num (List.length cert_failures));
        ( "counters",
          Json.Obj (List.map (fun (n, v) -> (n, num v)) overall_counters) );
        ("strata", Json.Arr (List.map stratum_json stratum_results));
      ]
  in
  { r_total = total;
    r_wall = wall;
    r_mismatches = List.length mismatches;
    r_cert_failures = List.length cert_failures;
    r_json = record }

let emit_record out append record =
  let line = Json.to_string record in
  match out with
  | None -> print_endline line
  | Some path ->
    let flags =
      if append then [ Open_wronly; Open_creat; Open_append; Open_binary ]
      else [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
    in
    let oc = open_out_gen flags 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc line;
        output_char oc '\n')

(* ---------------- configuration plumbing ---------------- *)

let apply_config ~jobs =
  Pool.set_jobs jobs;
  (* a fresh cache per configuration: one pool size must not serve the
     other's memoized answers during an audit; fresh metrics so the
     latency histograms (keyed by stratum name) don't blend configs *)
  Bagcqc_engine.Solver.clear ();
  Metrics.reset ()

let config_fields ~transport ~jobs =
  [ ("jobs", num jobs); ("transport", Json.Str transport) ]

(* ---------------- gen subcommand ---------------- *)

let gen_cmd =
  let run kind seed total out =
    match Corpus.kind_of_name kind with
    | None ->
      prerr_endline ("sweep gen: unknown kind " ^ kind);
      2
    | Some k -> (
      match Corpus.generate k ~seed ~total with
      | exception Failure msg ->
        prerr_endline ("sweep gen: " ^ msg);
        1
      | insts ->
        let emit oc = Corpus.write oc k ~seed insts in
        (match out with
        | None -> emit stdout
        | Some path ->
          let oc = open_out_bin path in
          Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> emit oc));
        Printf.eprintf "sweep gen: wrote %d %s instances (seed %d)%s\n%!"
          (List.length insts) kind seed
          (match out with None -> "" | Some p -> " to " ^ p);
        0)
  in
  let kind_arg =
    Arg.(value & opt string "check" & info [ "kind" ] ~docv:"KIND"
           ~doc:"Corpus kind: $(b,check) (containment pairs) or $(b,iip) \
                 (Max-II inequalities).")
  and seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Generator seed; the corpus is a pure function of \
                 (kind, seed, total).")
  and total_arg =
    Arg.(value & opt int 10_000 & info [ "total" ] ~docv:"N"
           ~doc:"Number of instances, spread over the strata \
                 proportionally to their weights.")
  and out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"PATH"
           ~doc:"Write the corpus here (default stdout).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a seeded stratified corpus")
    Term.(const run $ kind_arg $ seed_arg $ total_arg $ out_arg)

(* ---------------- shared run/audit args ---------------- *)

let corpus_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CORPUS"
         ~doc:"Corpus file produced by $(b,sweep gen).")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"PATH"
         ~doc:"Write JSONL records here (default stdout).")

let append_arg =
  Arg.(value & flag & info [ "append" ]
         ~doc:"Append to the output file instead of truncating it.")

let label_arg =
  Arg.(value & opt string "sweep" & info [ "label" ] ~docv:"STR"
         ~doc:"Free-form label copied into every record.")

let limit_arg =
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
         ~doc:"Sweep only the first N instances of the corpus.")

let take limit insts =
  match limit with
  | None -> insts
  | Some n -> List.filteri (fun i _ -> i < n) insts

(* ---------------- run subcommand ---------------- *)

let run_cmd =
  let run corpus_path jobs label out append limit socket port host window =
    let header, insts = load_corpus corpus_path in
    let insts = take limit insts in
    apply_config ~jobs;
    let finish transport_name transport =
      let summary =
        run_corpus ~label ~corpus_path ~kind:header.Corpus.h_kind
          ~config_name:transport_name
          ~config_fields:(config_fields ~transport:transport_name ~jobs)
          ~transport insts
      in
      emit_record out append summary.r_json;
      Printf.eprintf
        "sweep run: %d instances in %.2fs (%.0f/s), %d mismatches, %d \
         certificate failures\n%!"
        summary.r_total summary.r_wall
        (if summary.r_wall > 0.0 then
           float_of_int summary.r_total /. summary.r_wall
         else 0.0)
        summary.r_mismatches summary.r_cert_failures;
      if summary.r_mismatches > 0 || summary.r_cert_failures > 0 then 1 else 0
    in
    match (socket, port) with
    | None, None -> finish "inproc" `Inproc
    | Some _, Some _ ->
      prerr_endline "sweep run: --socket and --port are mutually exclusive";
      2
    | socket, port ->
      let addr =
        match (socket, port) with
        | Some path, None -> Bagcqc_serve.Protocol.Unix_path path
        | None, Some p -> Bagcqc_serve.Protocol.Tcp (host, p)
        | _ -> assert false
      in
      (match Bagcqc_serve.Client.connect addr with
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "sweep run: cannot connect to %s: %s\n%!"
          (Format.asprintf "%a" Bagcqc_serve.Protocol.pp_addr addr)
          (Unix.error_message e);
        1
      | client ->
        Fun.protect
          ~finally:(fun () -> Bagcqc_serve.Client.close client)
          (fun () -> finish "serve" (`Serve (client, window))))
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domain-pool size for the in-process sweep.")
  and socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Drive a live daemon over this Unix socket instead of \
                 deciding in-process.")
  and port_arg =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N"
           ~doc:"Drive a live daemon over TCP on this port.")
  and host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"TCP host for $(b,--port).")
  and window_arg =
    Arg.(value & opt int 64 & info [ "window" ] ~docv:"N"
           ~doc:"Pipelining window (max outstanding requests) in serve mode.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Sweep a corpus and report throughput/latency per stratum")
    Term.(const run $ corpus_arg $ jobs_arg $ label_arg $ out_arg $ append_arg
          $ limit_arg $ socket_arg $ port_arg $ host_arg
          $ window_arg)

(* ---------------- audit subcommand ---------------- *)

(* The production path at both pool sizes: jobs 4 exercises the
   speculative-parallel control flow and the sharded cache, jobs 1 the
   sequential code paths. *)
let audit_jobs = [ 1; 4 ]

let audit_cmd =
  let run corpus_path label out append limit =
    let header, insts = load_corpus corpus_path in
    let insts = take limit insts in
    let failures = ref 0 in
    List.iteri
      (fun i jobs ->
        apply_config ~jobs;
        let config_name = Printf.sprintf "jobs=%d" jobs in
        let summary =
          run_corpus ~label ~corpus_path ~kind:header.Corpus.h_kind
            ~config_name
            ~config_fields:(config_fields ~transport:"inproc" ~jobs)
            ~transport:`Inproc insts
        in
        (* the first configuration truncates unless --append; the rest
           always append to it *)
        emit_record out (append || i > 0) summary.r_json;
        failures := !failures + summary.r_mismatches + summary.r_cert_failures;
        Printf.eprintf "sweep audit [%s]: %d instances, %.2fs, %d mismatches, \
                        %d cert failures\n%!"
          config_name summary.r_total summary.r_wall summary.r_mismatches
          summary.r_cert_failures)
      audit_jobs;
    if !failures > 0 then begin
      Printf.eprintf
        "sweep audit: %d FAILURES — each reproducer line above replays with \
         `sweep run` on a one-line corpus\n%!"
        !failures;
      1
    end
    else begin
      Printf.eprintf
        "sweep audit: clean (%d configurations, 0 mismatches, 0 certificate \
         failures)\n%!"
        (List.length audit_jobs);
      0
    end
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Correctness sweep of the production path at jobs 1 and 4: \
             every verdict against the corpus label, every certificate \
             re-checked; fail on any disagreement")
    Term.(const run $ corpus_arg $ label_arg $ out_arg $ append_arg
          $ limit_arg)

(* ---------------- entry point ---------------- *)

let () =
  (* comparing every verdict against the corpus label subsumes pairwise
     cross-config comparison, since equality to a common label is
     transitive *)
  let doc = "stratified corpus sweeps: generation, throughput, audit" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "sweep" ~doc) [ gen_cmd; run_cmd; audit_cmd ]))
