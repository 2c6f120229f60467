(* `bagcqc top` — a live terminal dashboard over the daemon's stats verb.

   One strict request/reply client polls `stats` every interval and
   redraws a frame: service gauges (queue depth, in-flight, cache
   size), rolling 1m/5m rates for the windowed counters, latency
   histogram percentiles, and the decision-cache hit ledger.  Everything
   shown is computed server-side from the same registry /metrics reads;
   this module only renders the JSON.

   [render] is a pure function of the reply so the frame layout is unit
   testable without a daemon. *)

module Json = Bagcqc_obs.Json

let field obj name =
  match obj with Json.Obj kvs -> List.assoc_opt name kvs | _ -> None

let num ?(default = 0.0) j =
  match j with Some (Json.Num n) -> n | _ -> default

let int_field obj name = int_of_float (num (field obj name))

let bool_field obj name =
  match field obj name with Some (Json.Bool b) -> b | _ -> false

(* 1234567 -> "1.23M" — totals can be large, columns cannot. *)
let human n =
  if Float.abs n >= 1e9 then Printf.sprintf "%.2fG" (n /. 1e9)
  else if Float.abs n >= 1e6 then Printf.sprintf "%.2fM" (n /. 1e6)
  else if Float.abs n >= 1e4 then Printf.sprintf "%.1fk" (n /. 1e3)
  else if Float.is_integer n then Printf.sprintf "%.0f" n
  else Printf.sprintf "%.2f" n

let pct num den = if den <= 0.0 then "  -  " else Printf.sprintf "%4.1f%%" (100.0 *. num /. den)

let render ?(now = 0.0) ~addr reply =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  let tm = Unix.localtime now in
  pr "bagcqc top — %s   %04d-%02d-%02d %02d:%02d:%02d\n" addr
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
  (match field reply "ok" with
   | Some (Json.Bool true) -> ()
   | _ -> pr "  (stats request failed)\n");
  pr "jobs %d   queue %d   in-flight %d   decision cache %d   draining %s\n\n"
    (int_field reply "jobs") (int_field reply "queue_depth")
    (int_field reply "in_flight") (int_field reply "cache_size")
    (if bool_field reply "draining" then "YES" else "no");
  (* Every counter total by its registry name. *)
  let counters = Option.value ~default:(Json.Obj []) (field reply "counters") in
  let n name = num (field counters name) in
  (* Rolling rates next to lifetime totals, one row per windowed counter. *)
  (match field reply "rates_per_sec" with
   | Some (Json.Obj rates) when rates <> [] ->
     pr "%-26s %10s %9s %9s\n" "counter" "total" "1m/s" "5m/s";
     List.iter
       (fun (name, r) ->
         let total =
           match field counters name with
           | Some (Json.Num v) -> human v
           | _ -> "-"
         in
         pr "%-26s %10s %9.2f %9.2f\n" name total
           (num (field r "1m")) (num (field r "5m")))
       rates;
     pr "\n"
   | _ -> ());
  (match field reply "histograms" with
   | Some (Json.Obj hists) when hists <> [] ->
     pr "%-26s %8s %9s %8s %8s %8s %8s\n" "histogram" "count" "mean" "p50"
       "p90" "p99" "max";
     List.iter
       (fun (name, h) ->
         pr "%-26s %8s %9s %8s %8s %8s %8s\n" name
           (human (num (field h "count")))
           (human (num (field h "mean")))
           (human (num (field h "p50")))
           (human (num (field h "p90")))
           (human (num (field h "p99")))
           (human (num (field h "max"))))
       hists;
     pr "\n"
   | _ -> ());
  let hits = n "solver.cache.hits" and misses = n "solver.cache.misses" in
  pr "decisions   hits %s  misses %s  hit %s\n" (human hits) (human misses)
    (pct hits (hits +. misses));
  pr "service     overloaded %s  deadline-expired %s  connections %s\n"
    (human (n "serve.overloaded")) (human (n "serve.deadline_expired"))
    (human (n "serve.connections"));
  Buffer.contents b

let stats_request = Json.Obj [ ("id", Json.Str "top"); ("op", Json.Str "stats") ]

let run ~addr ~interval ~once =
  match Client.connect ~retry_ms:2000 addr with
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf "top: cannot connect to %a: %s@." Protocol.pp_addr addr
      (Unix.error_message e);
    1
  | c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let addr_s = Format.asprintf "%a" Protocol.pp_addr addr in
    let code = ref 0 and continue = ref true in
    while !continue do
      (match Client.request c stats_request with
       | exception Json.Parse_error msg ->
         Format.eprintf "top: malformed reply: %s@." msg;
         code := 1;
         continue := false
       | None ->
         (* Server drained — a normal way for a watch to end. *)
         print_string "\nserver closed the connection\n";
         continue := false
       | Some reply ->
         let frame = render ~now:(Unix.gettimeofday ()) ~addr:addr_s reply in
         if once then begin
           print_string frame;
           continue := false
         end
         else begin
           (* Home + clear-to-end redraw: no flicker, no scrollback spam. *)
           print_string "\027[H\027[2J";
           print_string frame;
           flush stdout;
           Thread.delay interval
         end);
      flush stdout
    done;
    !code
