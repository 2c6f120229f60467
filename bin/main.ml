(* bagcqc — command-line interface to the library.

   Subcommands:
     check    decide Q1 ⊑ Q2 under bag-set semantics
     classify report Q2's structural class
     eq8      print the Eq. 8 max-information inequality for a pair
     iip      decide a (max-)information inequality over Γn / Nn / Mn
     reduce   run the Section 5 reduction Max-IIP → BagCQC-A
     homcount count homomorphisms between two queries
     report   print the span tree and histograms of a --trace file
     serve    long-running containment daemon over a Unix/TCP socket
     client   drive a serve daemon from the command line or a script
     top      live dashboard over a daemon's stats verb
     promlint validate a Prometheus text exposition (e.g. /metrics) *)

open Bagcqc_num
open Bagcqc_entropy
open Bagcqc_cq
open Bagcqc_core
module Obs = Bagcqc_obs
open Cmdliner

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"After the command finishes, print to stderr the span tree \
               (wall time per pipeline stage: eq8, maxii, witness, and the \
               LP and cone work inside them), every nonzero counter by its \
               registry name (LP solves and pivots, decision-cache and \
               elemental-table traffic, homomorphism enumerations, \
               presolve and lazy-cone outcomes) and histogram \
               percentiles.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a trace of this invocation (span tree plus metric \
               histograms) and write it to $(docv) on exit.  A '.jsonl' \
               extension writes one JSON event per line; any other name \
               writes Chrome trace-event JSON, loadable in Perfetto or \
               chrome://tracing and readable by 'bagcqc report'.")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N"
         ~doc:"Size of the domain pool for parallel execution.  Defaults to \
               $(b,BAGCQC_JOBS) if set, else the machine's recommended \
               domain count minus one; 1 runs the sequential code paths \
               unchanged.")

(* Every subcommand runs under this wrapper so [--stats] and [--trace]
   mean the same thing everywhere: counters and spans cover exactly this
   invocation, under a root span named after the subcommand.  The pool is
   sized first — before tracing is enabled — per the initialization-order
   contract of {!Bagcqc_obs} (pool size, then enable/reset, then work). *)
let with_obs ~cmd ?jobs stats trace run =
  Option.iter Bagcqc_par.Pool.set_jobs jobs;
  if stats || trace <> None then Obs.enable () else Obs.disable ();
  Obs.reset ();
  let code = Obs.Span.with_span ~name:("cli." ^ cmd) run in
  (match trace with Some path -> Obs.Export.write path | None -> ());
  if stats then Format.eprintf "%a@?" Obs.pp_stats ();
  code

let query_conv =
  let parse s =
    match Parser.parse_result s with
    | Ok q -> Ok q
    | Error msg -> Error (`Msg ("query syntax: " ^ msg))
  in
  Arg.conv (parse, fun fmt q -> Query.pp fmt q)

let q1_arg =
  Arg.(required & pos 0 (some query_conv) None & info [] ~docv:"Q1"
         ~doc:"Contained query, e.g. 'R(x,y), R(y,z), R(z,x)'.")

let q2_arg =
  Arg.(required & pos 1 (some query_conv) None & info [] ~docv:"Q2"
         ~doc:"Containing query, e.g. 'R(x,y), R(x,z)'.")

(* check accepts either two positional queries or --batch FILE, so its
   positionals are optional at the Cmdliner layer and validated by hand. *)
let q1_opt_arg =
  Arg.(value & pos 0 (some query_conv) None & info [] ~docv:"Q1"
         ~doc:"Contained query, e.g. 'R(x,y), R(y,z), R(z,x)'.")

let q2_opt_arg =
  Arg.(value & pos 1 (some query_conv) None & info [] ~docv:"Q2"
         ~doc:"Containing query, e.g. 'R(x,y), R(x,z)'.")

let max_factors_arg =
  Arg.(value & opt int 14 & info [ "max-factors" ]
         ~doc:"Budget for witness search: the candidate witness is a domain \
               product of at most this many two-row step relations.")

let names_of q i = Query.var_name q i

(* ---------------- check ---------------- *)

let certificate_arg =
  Arg.(value & flag & info [ "certificate" ]
         ~doc:"On a CONTAINED verdict, print the Farkas certificate (convex \
               weights and elemental-inequality multipliers) after \
               re-verifying it with exact arithmetic, independent of the LP \
               solver.")

let batch_arg =
  Arg.(value & opt (some string) None & info [ "batch" ] ~docv:"FILE"
         ~doc:"Decide many instances at once: one per line in $(docv), \
               written 'Q1 ; Q2'.  Blank lines and lines starting with '#' \
               are skipped.  The instances are fanned out over the domain \
               pool (see $(b,--jobs)); verdicts are printed in file order \
               and are identical to running $(b,check) on each line.")

(* --batch FILE: parse every line up front (a syntax error anywhere aborts
   the whole batch before any deciding starts), then decide the instances
   concurrently over the pool.  Returns (source line, Q1, Q2) triples. *)
let parse_batch_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | line ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc
      else begin
        match String.index_opt trimmed ';' with
        | None ->
          Error (Printf.sprintf "%s:%d: expected 'Q1 ; Q2'" path lineno)
        | Some i ->
          let s1 = String.sub trimmed 0 i in
          let s2 =
            String.sub trimmed (i + 1) (String.length trimmed - i - 1)
          in
          (match
             ( Parser.parse_result (String.trim s1),
               Parser.parse_result (String.trim s2) )
           with
           | Ok q1, Ok q2 -> go (lineno + 1) ((lineno, q1, q2) :: acc)
           | Error msg, _ | _, Error msg ->
             Error (Printf.sprintf "%s:%d: query syntax: %s" path lineno msg))
      end
  in
  go 1 []

let run_batch ~max_factors file =
  match parse_batch_file file with
  | exception Sys_error msg ->
    Format.eprintf "check: %s@." msg;
    Cmd.Exit.cli_error
  | Error msg ->
    Format.eprintf "check: %s@." msg;
    Cmd.Exit.cli_error
  | Ok instances ->
    let pairs =
      List.map
        (fun (_, q1, q2) ->
          if Query.is_boolean q1 && Query.is_boolean q2 then (q1, q2)
          else Reductions.booleanize q1 q2)
        instances
    in
    let verdicts = Containment.decide_many ~max_factors pairs in
    let unknowns = ref 0 in
    List.iter2
      (fun (lineno, q1, q2) verdict ->
        let tag =
          match verdict with
          | Containment.Contained _ -> "CONTAINED"
          | Containment.Not_contained _ -> "NOT CONTAINED"
          | Containment.Unknown _ ->
            incr unknowns;
            "UNKNOWN"
        in
        Format.printf "line %-4d %-14s %a ; %a@." lineno tag Query.pp q1
          Query.pp q2)
      instances verdicts;
    Format.printf "%d instance(s): %d unknown@." (List.length instances)
      !unknowns;
    if !unknowns > 0 then 2 else 0

let check_cmd =
  let run q1 q2 batch max_factors jobs stats trace print_cert =
    with_obs ~cmd:"check" ?jobs stats trace
    @@ fun () ->
    match batch, q1, q2 with
    | Some file, None, None -> run_batch ~max_factors file
    | Some _, _, _ ->
      Format.eprintf
        "check: --batch and positional queries are mutually exclusive@.";
      Cmd.Exit.cli_error
    | None, Some q1, Some q2 ->
      let boolean = Query.is_boolean q1 && Query.is_boolean q2 in
      let verdict =
        if boolean then Containment.decide ~max_factors q1 q2
        else Containment.decide_with_heads ~max_factors q1 q2
      in
      (match verdict with
       | Containment.Contained cert ->
         Format.printf
           "CONTAINED: certified by a Shannon proof of Eq. 8 (Theorem 4.2).@.";
         if print_cert then begin
           if not (Certificate.check cert) then begin
             Format.printf
               "ERROR: certificate failed independent verification@.";
             exit 3
           end;
           (* The Boolean reduction renumbers variables, so name them only
              when the certificate speaks about Q1's own variables. *)
           let pp_cert =
             if boolean then Certificate.pp ~names:(names_of q1) ()
             else Certificate.pp ()
           in
           Format.printf "%a" pp_cert cert
         end;
         0
       | Containment.Not_contained w ->
         Format.printf
           "NOT CONTAINED: witness relation with %d rows; \
            |hom(Q1,D)| >= %d > %d = |hom(Q2,D)| (Fact 3.2).@."
           w.Containment.card_p w.Containment.card_p w.Containment.hom2;
         (* The Boolean reduction renumbers variables: the counts were
            taken on the database of the reduced Q1. *)
         let db_q1 = if boolean then q1 else fst (Reductions.booleanize q1 q2) in
         Format.printf "Witness database:@.%a" Database.pp
           (Containment.witness_db db_q1 w);
         0
       | Containment.Unknown { reason; _ } ->
         Format.printf "UNKNOWN: %s@." reason;
         2)
    | None, _, _ ->
      Format.eprintf "check: expected Q1 and Q2 (or --batch FILE)@.";
      Cmd.Exit.cli_error
  in
  let term =
    Term.(const run $ q1_opt_arg $ q2_opt_arg $ batch_arg $ max_factors_arg
          $ jobs_arg $ stats_arg $ trace_arg $ certificate_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Decide Q1 ⊑ Q2 under bag-set semantics (complete when Q2 is \
             chordal with a simple junction tree, Theorem 3.1); with \
             $(b,--batch), decide a file of instances concurrently.")
    term

(* ---------------- classify ---------------- *)

let classify_cmd =
  let run q2 stats trace =
    with_obs ~cmd:"classify" stats trace @@ fun () ->
    let cls =
      match Containment.classify q2 with
      | Containment.Acyclic_simple ->
        "acyclic with a simple join tree (containment decidable, Thm 3.1)"
      | Containment.Chordal_simple ->
        "chordal with a simple junction tree (containment decidable, Thm 3.1)"
      | Containment.Acyclic ->
        "acyclic, junction tree not simple (Eq. 8 exact, validity over Γ* open)"
      | Containment.Chordal -> "chordal, junction tree not simple"
      | Containment.General -> "neither acyclic nor chordal"
    in
    Format.printf "%s@." cls;
    let t = Treedec.of_query q2 in
    Format.printf "decomposition: %a@." Treedec.pp t;
    Format.printf "E_T = %a@."
      (Cexpr.pp ~names:(names_of q2) ())
      (Treedec.et t);
    0
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Report the structural class of a query.")
    Term.(const run $ Arg.(required & pos 0 (some query_conv) None
                           & info [] ~docv:"Q" ~doc:"The query.")
          $ stats_arg $ trace_arg)

(* ---------------- eq8 ---------------- *)

let eq8_cmd =
  let run q1 q2 jobs stats trace =
    with_obs ~cmd:"eq8" ?jobs stats trace @@ fun () ->
    let ineq = Containment.eq8 q1 q2 in
    Format.printf "%a@." (Maxii.pp ~names:(names_of q1) ()) ineq;
    (match Maxii.decide ineq with
     | Maxii.Valid cert ->
       Format.printf
         "valid over Γn (hence over Γ*n): Q1 ⊑ Q2 \
          (Farkas certificate cites %d elemental inequalities)@."
         (Certificate.size cert)
     | Maxii.Invalid h ->
       Format.printf "refuted by the normal entropic function:@.%a@."
         (Polymatroid.pp ~names:(names_of q1) ()) h
     | Maxii.Unknown h ->
       Format.printf
         "fails over Γn but holds over Nn; refuting polymatroid (possibly \
          non-entropic):@.%a@."
         (Polymatroid.pp ~names:(names_of q1) ()) h);
    0
  in
  Cmd.v
    (Cmd.info "eq8"
       ~doc:"Print and decide the Eq. 8 max-information inequality for a pair \
             of Boolean queries.")
    Term.(const run $ q1_arg $ q2_arg $ jobs_arg $ stats_arg $ trace_arg)

(* ---------------- iip ---------------- *)

let expr_conv =
  (* Linear expressions as "+2 h(1,2) -1 h(2)" — coefficient then a
     1-based variable list.  Every malformed shape gets its own message
     and a clean [`Msg] (cmdliner turns it into a usage error, exit 124);
     no catch-all [try] hiding a raw exception behind [Printexc]. *)
  let err fmt = Printf.ksprintf (fun m -> Error (`Msg ("expression syntax: " ^ m))) fmt in
  let parse_var v =
    match int_of_string_opt (String.trim v) with
    | Some i when i >= 1 && i <= Varset.max_vars -> Ok (i - 1)
    | Some i -> err "variable %d out of range (variables are 1..%d)" i Varset.max_vars
    | None -> err "invalid variable %S (expected a 1-based integer)" v
  in
  let rec parse_vars acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest ->
      (match parse_var v with
       | Ok i -> parse_vars (i :: acc) rest
       | Error _ as e -> e)
  in
  let parse s =
    let toks = String.split_on_char ' ' s |> List.filter (fun t -> t <> "") in
    let rec go acc = function
      | [] -> Ok acc
      | c :: h :: rest ->
        (match Rat.of_string_opt c with
         | None -> err "invalid coefficient %S (expected an integer or n/d)" c
         | Some coeff ->
           if String.length h < 4
              || String.sub h 0 2 <> "h("
              || h.[String.length h - 1] <> ')'
           then err "expected h(vars) after coefficient %s, got %S" c h
           else
             let inner = String.sub h 2 (String.length h - 3) in
             (match parse_vars [] (String.split_on_char ',' inner) with
              | Error _ as e -> e
              | Ok vars ->
                go (Linexpr.add acc (Linexpr.term ~coeff (Varset.of_list vars))) rest))
      | [ t ] -> err "dangling token %S (terms come as coefficient h(vars) pairs)" t
    in
    go Linexpr.zero toks
  in
  Arg.conv (parse, fun fmt e -> Linexpr.pp () fmt e)

let iip_cmd =
  let run n sides jobs stats trace print_cert =
    with_obs ~cmd:"iip" ?jobs stats trace @@ fun () ->
    let m = Maxii.general ~n sides in
    Format.printf "%a@." (Maxii.pp ()) m;
    (match Maxii.decide m with
     | Maxii.Valid cert ->
       Format.printf "VALID over Γ%d (hence over Γ*)@." n;
       if print_cert then begin
         if not (Certificate.check cert) then begin
           Format.printf "ERROR: certificate failed independent verification@.";
           exit 3
         end;
         Format.printf "%a" (Certificate.pp ()) cert
       end;
       0
     | Maxii.Invalid h ->
       Format.printf "INVALID: refuted by the normal (entropic) function@.%a@."
         (Polymatroid.pp ()) h;
       0
     | Maxii.Unknown h ->
       Format.printf
         "NOT SHANNON, no normal refuter: undecided over Γ* \
          (refuting polymatroid below may not be entropic)@.%a@."
         (Polymatroid.pp ()) h;
       2)
  in
  let n_arg =
    Arg.(required & opt (some int) None & info [ "n"; "vars" ] ~doc:"Number of variables.")
  in
  let sides_arg =
    Arg.(non_empty & pos_all expr_conv [] & info [] ~docv:"EXPR"
           ~doc:"Sides of the max, e.g. '1 h(1,2) -1 h(1)'.")
  in
  Cmd.v
    (Cmd.info "iip"
       ~doc:"Decide validity of 0 ≤ max(EXPR...) over the entropic cone, via \
             the Shannon relaxation and normal-cone refutation.")
    Term.(const run $ n_arg $ sides_arg $ jobs_arg $ stats_arg $ trace_arg
          $ certificate_arg)

(* ---------------- reduce ---------------- *)

let reduce_cmd =
  let run n sides stats trace =
    with_obs ~cmd:"reduce" stats trace @@ fun () ->
    let m = Maxii.general ~n sides in
    let c = Reduction.reduce m in
    Format.printf "Q1: %a@.Q2: %a@." Query.pp c.Reduction.q1 Query.pp c.Reduction.q2;
    Format.printf "Q2 is acyclic: %b@." (Treedec.is_acyclic c.Reduction.q2);
    Format.printf "Q2 decomposition (29): %a@." Treedec.pp c.Reduction.dec2;
    0
  in
  let n_arg =
    Arg.(required & opt (some int) None & info [ "n"; "vars" ] ~doc:"Number of variables.")
  in
  let sides_arg =
    Arg.(non_empty & pos_all expr_conv [] & info [] ~docv:"EXPR"
           ~doc:"Sides of the max.")
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Reduce a Max-IIP to a bag-containment instance with acyclic Q2 \
             (Theorem 5.1).")
    Term.(const run $ n_arg $ sides_arg $ stats_arg $ trace_arg)

(* ---------------- homcount ---------------- *)

let homcount_cmd =
  let run qa qb jobs stats trace =
    with_obs ~cmd:"homcount" ?jobs stats trace @@ fun () ->
    Format.printf "%d@." (Hom.count_between qa qb);
    0
  in
  Cmd.v
    (Cmd.info "homcount"
       ~doc:"Count homomorphisms from Q1 to Q2 (queries as structures).")
    Term.(const run $ q1_arg $ q2_arg $ jobs_arg $ stats_arg $ trace_arg)

(* ---------------- report ---------------- *)

let report_cmd =
  let run path =
    match Obs.Report.load path with
    | exception Sys_error msg ->
      Format.eprintf "report: %s@." msg;
      2
    | exception Obs.Json.Parse_error msg ->
      Format.eprintf "report: %s: %s@." path msg;
      2
    | r ->
      if Obs.Report.span_count r = 0 then begin
        Format.eprintf "report: %s contains no spans@." path;
        1
      end
      else begin
        Format.printf "%a@?" Obs.Report.pp r;
        0
      end
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
           ~doc:"Trace file written by --trace (Chrome JSON or JSONL).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Read a --trace file and print its span tree (inclusive/self \
             time, pivots, cache traffic per node) and histogram \
             percentiles.")
    Term.(const run $ path_arg)

(* ---------------- serve / client ---------------- *)

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on (resp. connect to) a Unix-domain stream socket at \
               $(docv).  Mutually exclusive with $(b,--port).")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Listen on (resp. connect to) TCP $(b,--host):$(docv).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Host for $(b,--port) (default 127.0.0.1).")

let addr_of socket port host =
  match (socket, port) with
  | Some path, None -> Ok (Bagcqc_serve.Protocol.Unix_path path)
  | None, Some port -> Ok (Bagcqc_serve.Protocol.Tcp (host, port))
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
  | None, None -> Error "expected --socket PATH or --port N"

let serve_cmd =
  let run socket port host max_queue deadline_ms metrics_port access_log
      log_sample slow_ms selftest jobs stats trace =
    with_obs ~cmd:"serve" ?jobs stats trace
    @@ fun () ->
    (* Slow-request capture reconstructs each request's span subtree, so
       an access log forces tracing on even without --stats/--trace. *)
    if access_log <> None && not (stats || trace <> None) then begin
      Obs.enable ();
      Obs.reset ()
    end;
    if selftest then begin
      match Bagcqc_serve.Selftest.run ~verbose:true () with
      | Ok steps ->
        Format.printf "serve selftest: %d checks passed@." (List.length steps);
        0
      | Error msg ->
        Format.eprintf "serve selftest: FAILED: %s@." msg;
        1
    end
    else
      match addr_of socket port host with
      | Error msg ->
        Format.eprintf "serve: %s@." msg;
        Cmd.Exit.cli_error
      | Ok addr ->
        let cfg =
          { (Bagcqc_serve.Server.default_config addr) with
            Bagcqc_serve.Server.max_queue;
            default_deadline_ms = deadline_ms;
            metrics_port; access_log; log_sample; slow_ms }
        in
        Bagcqc_serve.Server.run cfg;
        0
  in
  let max_queue_arg =
    Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission-queue bound: check requests beyond $(docv) \
                 outstanding are refused with an 'overloaded' error instead \
                 of buffering without bound.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline applied to check requests that \
                 carry no deadline_ms of their own.  A request still queued \
                 when its deadline expires is answered with \
                 'deadline_exceeded' instead of being solved.")
  in
  let metrics_port_arg =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~env:(Cmd.Env.info "BAGCQC_METRICS_PORT"
                     ~doc:"Default for $(b,--metrics-port).")
             ~doc:"Serve Prometheus $(b,GET /metrics) plus $(b,/healthz) \
                   and $(b,/readyz) on 127.0.0.1:$(docv) (0 picks an \
                   ephemeral port, printed with the banner).  /readyz \
                   answers 503 from the moment a drain starts, and the \
                   endpoint stays up through the drain so load balancers \
                   see the flip.")
  in
  let access_log_arg =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Write one JSON line per completed check request to \
                   $(docv): id, verdict or error kind, wall/queue/solve \
                   microseconds, per-request pivots and cache tier, and \
                   deadline slack.  Implies tracing (span capture) for \
                   the daemon's lifetime.")
  in
  let log_sample_arg =
    Arg.(value & opt int 1 & info [ "log-sample" ] ~docv:"N"
           ~doc:"With $(b,--access-log), keep every $(docv)th request \
                 line; slow and errored requests always log.")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"With $(b,--access-log), a request whose wall time \
                 exceeds $(docv) gets its span subtree attached to its \
                 log line — a p99 outlier arrives with its own trace.")
  in
  let selftest_arg =
    Arg.(value & flag & info [ "selftest" ]
           ~doc:"Do not serve: boot an in-process daemon on a throwaway \
                 socket, drive a scripted client session across the whole \
                 protocol surface (including graceful drain), report, and \
                 exit 0/1.  Used by CI.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the containment daemon: newline-delimited JSON requests \
             over a Unix or TCP socket, fanned out over the domain pool, \
             with typed errors, per-request deadlines, bounded admission \
             and graceful drain on SIGTERM or a 'shutdown' request.  With \
             $(b,--metrics-port), exposes Prometheus metrics and health \
             endpoints; with $(b,--access-log), structured request logging \
             with slow-request span capture.")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ max_queue_arg
          $ deadline_arg $ metrics_port_arg $ access_log_arg $ log_sample_arg
          $ slow_ms_arg $ selftest_arg $ jobs_arg $ stats_arg
          $ trace_arg)

let client_cmd =
  let run socket port host retry_ms sends =
    match addr_of socket port host with
    | Error msg ->
      Format.eprintf "client: %s@." msg;
      Cmd.Exit.cli_error
    | Ok addr -> (
      match Bagcqc_serve.Client.connect ~retry_ms addr with
      | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "client: cannot connect to %a: %s@."
          Bagcqc_serve.Protocol.pp_addr addr (Unix.error_message e);
        1
      | c ->
        Fun.protect ~finally:(fun () -> Bagcqc_serve.Client.close c)
        @@ fun () ->
        (* Strict request/reply alternation; stop quietly on server EOF
           (the expected end of a session that sent 'shutdown'). *)
        let exchange line =
          Bagcqc_serve.Client.send_line c line;
          match Bagcqc_serve.Client.recv_line c with
          | Some reply ->
            print_endline reply;
            true
          | None -> false
        in
        (match sends with
         | _ :: _ -> List.iter (fun l -> ignore (exchange l)) sends
         | [] ->
           let continue = ref true in
           while !continue do
             match input_line stdin with
             | exception End_of_file -> continue := false
             | line ->
               if String.trim line <> "" && not (exchange line) then
                 continue := false
           done);
        0)
  in
  let retry_arg =
    Arg.(value & opt int 2000 & info [ "retry-ms" ] ~docv:"MS"
           ~doc:"Keep retrying a refused or absent socket for $(docv) \
                 milliseconds before giving up — lets scripts start the \
                 daemon and the client concurrently.")
  in
  let send_arg =
    Arg.(value & opt_all string [] & info [ "send" ] ~docv:"JSON"
           ~doc:"Send this request line and print the reply; repeatable, \
                 sent in order.  Without $(b,--send), request lines are \
                 read from stdin.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Drive a running serve daemon: send newline-delimited JSON \
             requests (from $(b,--send) or stdin) and print one reply line \
             per request.")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ retry_arg $ send_arg)

let top_cmd =
  let run socket port host interval once =
    match addr_of socket port host with
    | Error msg ->
      Format.eprintf "top: %s@." msg;
      Cmd.Exit.cli_error
    | Ok addr -> Bagcqc_serve.Top.run ~addr ~interval ~once
  in
  let interval_arg =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Refresh period between stats polls (default 2s).")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Print a single frame and exit instead of refreshing — \
                 for scripts and tests.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live monitor for a running serve daemon: polls the stats \
             verb and redraws queue depth, in-flight work, rolling 1m/5m \
             request and hit rates, and latency-histogram percentiles \
             (p50/p90/p99).  Exits when the daemon drains.")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ interval_arg
          $ once_arg)

let promlint_cmd =
  let run path =
    match
      if path = "-" then In_channel.input_all stdin
      else In_channel.with_open_text path In_channel.input_all
    with
    | exception Sys_error msg ->
      Format.eprintf "promlint: %s@." msg;
      2
    | text -> (
      match Obs.Prom.lint text with
      | Ok families ->
        Format.printf "promlint: OK (%d metric families)@." families;
        0
      | Error msg ->
        Format.eprintf "promlint: %s@." msg;
        1)
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Prometheus text exposition to validate ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "promlint"
       ~doc:"Validate a Prometheus text-exposition document (e.g. a curl \
             of the daemon's /metrics) against the format invariants the \
             encoder promises: declared families, strictly increasing \
             cumulative histogram buckets, +Inf equal to _count, \
             _sum/_count present.  Exits 0 when clean.")
    Term.(const run $ path_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "bagcqc" ~version:"1.0.0"
       ~doc:"Bag query containment via information inequalities \
             (Abo Khamis–Kolaitis–Ngo–Suciu, PODS 2020).")
    [ check_cmd; classify_cmd; eq8_cmd; iip_cmd; reduce_cmd; homcount_cmd;
      report_cmd; serve_cmd; client_cmd; top_cmd; promlint_cmd ]

let () =
  (* Typed internal-invariant errors (Bagcqc_error) escape as a dedicated
     exit code so scripts can tell "the tool found a bug in itself" apart
     from usage errors (124) and stray exceptions (125, matching
     cmdliner's default catch, which we disable to see the typed ones). *)
  match Cmd.eval' ~catch:false main_cmd with
  | code -> exit code
  | exception Bagcqc_num.Bagcqc_error.Error e ->
    Format.eprintf "bagcqc: internal error: %a@." Bagcqc_num.Bagcqc_error.pp e;
    exit 4
  | exception e ->
    let bt = Printexc.get_backtrace () in
    Format.eprintf "bagcqc: uncaught exception: %s@.%s@?"
      (Printexc.to_string e) bt;
    exit 125
