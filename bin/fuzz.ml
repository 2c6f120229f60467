(* bagcqc-fuzz — differential fuzzing harness over lib/check.

   Each suite cross-checks a production path against an independent
   oracle (see Bagcqc_check.Suites); a run is a pure function of
   (--suite, --iters, --seed).  On a finding the shrunk case, the error
   and a reproduction line are printed and also written to
   fuzz-repro-<suite>.txt, and the exit code is 1. *)

open Bagcqc_check
module Obs = Bagcqc_obs
open Cmdliner

let suite_names = List.map Runner.name Suites.all

let suite_arg =
  Arg.(value & opt string "all"
       & info [ "suite" ] ~docv:"SUITE"
           ~doc:
             (Printf.sprintf
                "Suite to run: %s, or $(b,all) (the default) for every one."
                (String.concat ", " suite_names)))

let iters_arg =
  Arg.(value & opt int 1000
       & info [ "iters" ] ~docv:"N"
           ~doc:"Iterations per suite (each derives its own RNG stream \
                 from the seed, so a failing iteration replays alone).")

let seed_arg =
  Arg.(value & opt int 42
       & info [ "seed" ] ~docv:"S"
           ~doc:"Base seed; the whole run is deterministic in it.")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the span tree, every nonzero counter (LP solves, \
                 pivots, cache traffic, ...) and histogram percentiles to \
                 stderr after the run — the suites drive the real \
                 pipeline, so the counters show what was exercised.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a span trace of the run to $(docv) (same formats \
                 as the main CLI: '.jsonl' or Chrome trace JSON).")

let repro_path suite = Printf.sprintf "fuzz-repro-%s.txt" suite

let run suite iters seed stats trace =
  (* The decide suite manages the pool level itself; start sequential. *)
  Bagcqc_par.Pool.set_jobs 1;
  if stats || trace <> None then Obs.enable () else Obs.disable ();
  Obs.reset ();
  let code =
    Obs.Span.with_span ~name:"cli.fuzz" @@ fun () ->
    let selected =
      if String.equal suite "all" then Ok Suites.all
      else
        match Suites.find suite with
        | Some s -> Ok [ s ]
        | None ->
          Error
            (Printf.sprintf "bagcqc-fuzz: unknown suite %S (have: %s, all)"
               suite
               (String.concat ", " suite_names))
    in
    match selected with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok suites ->
      let failed = ref false in
      List.iter
        (fun s ->
          let r =
            Obs.Span.with_span ~name:("fuzz." ^ Runner.name s) (fun () ->
                Runner.run ~iters ~seed s)
          in
          Printf.printf "%-8s %8d iterations in %6.2fs (%7.0f/s)  %s\n%!"
            r.Runner.suite r.Runner.iters r.Runner.elapsed
            (float_of_int r.Runner.iters /. Float.max 1e-9 r.Runner.elapsed)
            (match r.Runner.failure with None -> "ok" | Some _ -> "FAILED");
          match r.Runner.failure with
          | None ->
            (* A clean suite retires its reproducer: the file records a
               bug that no longer reproduces, and leaving it behind
               misleads the next reader into chasing a fixed failure. *)
            let path = repro_path r.Runner.suite in
            if Sys.file_exists path then begin
              (try Sys.remove path with Sys_error _ -> ());
              Printf.eprintf "stale reproducer %s removed (suite is clean)\n%!"
                path
            end
          | Some f ->
            failed := true;
            let text =
              Format.asprintf "%a" (Runner.pp_failure ~suite:r.Runner.suite) f
            in
            prerr_string text;
            let path = repro_path r.Runner.suite in
            Out_channel.with_open_text path (fun oc -> output_string oc text);
            Printf.eprintf "reproducer written to %s\n%!" path)
        suites;
      if !failed then 1 else 0
  in
  (match trace with Some path -> Obs.Export.write path | None -> ());
  if stats then Format.eprintf "%a@?" Obs.pp_stats ();
  code

let cmd =
  Cmd.v
    (Cmd.info "bagcqc-fuzz" ~version:"1.0.0"
       ~doc:"Differential fuzzing harness: exact Logint sign, exact vs \
             dense simplex, production vs exact-oracle cone decisions, lazy \
             vs materialized Γn driver, sequential vs parallel decide, \
             parser totality, and Eq. 8's index-based homomorphism search \
             vs the canonical-database engine, each against independent \
             oracles.")
    Term.(const run $ suite_arg $ iters_arg $ seed_arg $ stats_arg $ trace_arg)

let () = exit (Cmd.eval' cmd)
