(* Bench-regression comparator: `compare.exe OLD.json NEW.json` diffs two
   files produced by `main.exe --json` and exits nonzero if any (suite,
   experiment, size) point slowed down by more than the threshold
   (default 20%, override with `--threshold 0.3`).  Points also need to
   slow down by at least `--min-delta` seconds (default 50us) to count:
   sub-millisecond medians jitter by tens of percent run to run, and a
   gate that cries wolf on machine noise protects nothing.  Baseline
   points missing from the new run also fail the gate, and the "jobs"
   header of each file is echoed so cross-pool-size diffs are obvious.

   JSON comes from the in-tree Bagcqc_obs.Json (the build environment
   has no JSON library): the same parser that reads --trace files and
   serve requests also reads the bench schema, so there is exactly one
   JSON dialect in the repo. *)

open Bagcqc_obs.Json

exception Parse_error = Bagcqc_obs.Json.Parse_error

(* ---------------- extraction ---------------- *)

(* (suite, experiment id, size) -> gate seconds.  Prefers the min-of-reps
   statistic (stable under machine-load drift) and falls back to the
   median for files written before min_s existed.  Also returns the pool
   size the run used ("jobs" header field; None for files written before
   it existed). *)
let points_of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let root = parse text in
  (match member "schema" root with
   | Str "bagcqc-bench/1" -> ()
   | _ -> raise (Parse_error (path ^ ": unknown schema")));
  let jobs =
    match root with
    | Obj fields ->
      (match List.assoc_opt "jobs" fields with
       | Some (Num f) -> Some (int_of_float f)
       | _ -> None)
    | _ -> None
  in
  jobs,
  List.concat_map
    (fun suite ->
      let sname = as_str (member "suite" suite) in
      List.concat_map
        (fun e ->
          let id = as_str (member "id" e) in
          List.map
            (fun p ->
              let gate =
                match p with
                | Obj fields when List.mem_assoc "min_s" fields ->
                  as_num (member "min_s" p)
                | _ -> as_num (member "median_s" p)
              in
              ((sname, id, int_of_float (as_num (member "size" p))), gate))
            (as_arr (member "sizes" e)))
        (as_arr (member "experiments" suite)))
    (as_arr (member "suites" root))

(* ---------------- diff ---------------- *)

let () =
  let threshold = ref 0.20 in
  let min_delta = ref 5e-5 in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when f > 0.0 -> threshold := f
       | _ -> prerr_endline "compare: bad --threshold"; exit 2);
      parse_args rest
    | "--min-delta" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when f >= 0.0 -> min_delta := f
       | _ -> prerr_endline "compare: bad --min-delta"; exit 2);
      parse_args rest
    | arg :: rest -> files := arg :: !files; parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ old_file; new_file ] ->
    let (old_jobs, old_points), (new_jobs, new_points) =
      try (points_of_file old_file, points_of_file new_file)
      with
      | Parse_error msg -> Printf.eprintf "compare: %s\n" msg; exit 2
      | Sys_error msg -> Printf.eprintf "compare: %s\n" msg; exit 2
    in
    let pp_jobs = function
      | Some j -> string_of_int j
      | None -> "?" (* file predates the "jobs" header field *)
    in
    Printf.printf "jobs: old=%s new=%s\n" (pp_jobs old_jobs) (pp_jobs new_jobs);
    (match old_jobs, new_jobs with
     | Some a, Some b when a <> b ->
       Printf.printf
         "warning: runs used different pool sizes; timings are not \
          comparable like for like\n"
     | _ -> ());
    let regressions = ref 0 in
    let missing = ref 0 in
    Printf.printf "%-40s %12s %12s %8s\n" "suite/experiment/size" "old (s)"
      "new (s)" "ratio";
    List.iter
      (fun ((suite, id, size) as key, t_new) ->
        match List.assoc_opt key old_points with
        | None ->
          Printf.printf "%-40s %12s %12.6f %8s\n"
            (Printf.sprintf "%s/%s/%d" suite id size)
            "-" t_new "new"
        | Some t_old ->
          let ratio = if t_old > 0.0 then t_new /. t_old else infinity in
          let flag =
            if ratio > 1.0 +. !threshold && t_new -. t_old > !min_delta
            then begin
              incr regressions;
              "  REGRESSION"
            end
            else if ratio < 1.0 -. !threshold then "  improved"
            else ""
          in
          Printf.printf "%-40s %12.6f %12.6f %8.2f%s\n"
            (Printf.sprintf "%s/%s/%d" suite id size)
            t_old t_new ratio flag)
      new_points;
    (* A baseline point absent from the new run is a hard failure, not a
       footnote: a silently dropped experiment is how a perf gate rots. *)
    List.iter
      (fun ((suite, id, size), _) ->
        if not (List.mem_assoc (suite, id, size) new_points) then begin
          incr missing;
          Printf.printf
            "%-40s MISSING: baseline experiment absent from new run\n"
            (Printf.sprintf "%s/%s/%d" suite id size)
        end)
      old_points;
    if !regressions > 0 || !missing > 0 then begin
      if !regressions > 0 then
        Printf.printf "%d regression(s) beyond %.0f%%\n" !regressions
          (100.0 *. !threshold);
      if !missing > 0 then
        Printf.printf
          "%d baseline point(s) missing from the new run (rerun with the \
           full suite, or regenerate the baseline if the experiment was \
           intentionally removed)\n"
          !missing;
      exit 1
    end
    else Printf.printf "no regressions beyond %.0f%%\n" (100.0 *. !threshold)
  | _ ->
    prerr_endline
      "usage: compare.exe [--threshold F] [--min-delta SECONDS] OLD.json NEW.json";
    exit 2
