(* The serve daemon: wire-protocol codec and an end-to-end scripted
   session against an in-process server. *)

open Bagcqc_serve
module Obs = Bagcqc_obs
module Json = Bagcqc_obs.Json

let kind_t =
  Alcotest.testable
    (fun fmt k -> Format.pp_print_string fmt (Protocol.kind_name k))
    ( = )

(* ---------------- request parsing ---------------- *)

let test_parse_check () =
  match
    Protocol.parse_line
      {|{"id":1,"op":"check","q1":"R(x,y), R(y,z)","q2":"R(x,y)"}|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" e.Protocol.message
  | Ok env ->
    (match env.Protocol.id with
     | Json.Num 1.0 -> ()
     | j -> Alcotest.failf "id not echoed: %s" (Json.to_string j));
    Alcotest.(check (option (float 0.0))) "no deadline" None env.Protocol.deadline_ms;
    (match env.Protocol.request with
     | Protocol.Check { max_factors; want_certificate; _ } ->
       Alcotest.(check int) "default max_factors" 14 max_factors;
       Alcotest.(check bool) "default certificate" false want_certificate
     | _ -> Alcotest.fail "not parsed as check")

let test_parse_options () =
  match
    Protocol.parse_line
      {|{"id":"a","op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":5,"certificate":true,"deadline_ms":250}|}
  with
  | Error e -> Alcotest.failf "parse failed: %s" e.Protocol.message
  | Ok env ->
    Alcotest.(check (option (float 0.0))) "deadline" (Some 250.0)
      env.Protocol.deadline_ms;
    (match env.Protocol.request with
     | Protocol.Check { max_factors; want_certificate; _ } ->
       Alcotest.(check int) "max_factors" 5 max_factors;
       Alcotest.(check bool) "certificate" true want_certificate
     | _ -> Alcotest.fail "not parsed as check")

let expect_kind msg kind line =
  match Protocol.parse_line line with
  | Ok _ -> Alcotest.failf "%s: unexpectedly parsed" msg
  | Error e -> Alcotest.check kind_t msg kind e.Protocol.kind

let test_parse_errors () =
  expect_kind "not JSON" Protocol.Parse "this is not JSON";
  expect_kind "not an object" Protocol.Parse "[1,2,3]";
  expect_kind "missing op" Protocol.Bad_request {|{"id":1}|};
  expect_kind "unknown op" Protocol.Bad_request {|{"id":1,"op":"frobnicate"}|};
  expect_kind "composite id" Protocol.Bad_request {|{"id":[1],"op":"ping"}|};
  expect_kind "missing q2" Protocol.Bad_request {|{"op":"check","q1":"R(x,y)"}|};
  expect_kind "query syntax" Protocol.Bad_request
    {|{"op":"check","q1":"R(x,","q2":"R(x,y)"}|};
  expect_kind "max_factors zero" Protocol.Bad_request
    {|{"op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":0}|};
  expect_kind "max_factors fractional" Protocol.Bad_request
    {|{"op":"check","q1":"R(x,y)","q2":"R(x,y)","max_factors":3.5}|};
  expect_kind "negative deadline" Protocol.Bad_request
    {|{"op":"ping","deadline_ms":-5}|};
  (* The id must still be echoed on a bad request when extractable. *)
  (match Protocol.parse_line {|{"id":"req-7","op":"frobnicate"}|} with
   | Error { Protocol.id = Json.Str "req-7"; _ } -> ()
   | Error e -> Alcotest.failf "id lost: %s" (Json.to_string e.Protocol.id)
   | Ok _ -> Alcotest.fail "unexpectedly parsed")

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Protocol.kind_of_name (Protocol.kind_name k) with
      | Some k' -> Alcotest.check kind_t (Protocol.kind_name k) k k'
      | None -> Alcotest.failf "%s does not round-trip" (Protocol.kind_name k))
    [ Protocol.Parse; Protocol.Bad_request; Protocol.Deadline_exceeded;
      Protocol.Overloaded; Protocol.Shutting_down; Protocol.Internal ]

let test_reply_shapes () =
  let reply =
    Protocol.error_reply
      { Protocol.id = Json.Str "r"; kind = Protocol.Overloaded;
        message = "queue full" }
  in
  (* Replies must round-trip through our own parser: the wire format is
     self-hosting. *)
  let j = Json.parse (Json.to_string reply) in
  (match Json.find_opt "ok" j with
   | Some (Json.Bool false) -> ()
   | _ -> Alcotest.fail "error reply not ok:false");
  (match Json.find_opt "error" j with
   | Some e ->
     (match Json.find_opt "kind" e with
      | Some (Json.Str "overloaded") -> ()
      | _ -> Alcotest.fail "kind not serialized")
   | None -> Alcotest.fail "no error object");
  let ok = Protocol.ok (Json.Num 3.0) [ ("pong", Json.Bool true) ] in
  match Json.find_opt "ok" (Json.parse (Json.to_string ok)) with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "ok reply not ok:true"

(* ---------------- end to end ---------------- *)

let test_selftest () =
  match Selftest.run () with
  | Error msg -> Alcotest.failf "serve selftest: %s" msg
  | Ok steps ->
    Alcotest.(check (list string)) "all steps ran"
      [ "ping"; "check contained"; "cached re-check"; "check not contained";
        "check with heads"; "malformed line"; "bad query"; "unknown op";
        "deadline exceeded"; "extended stats"; "graceful drain" ]
      steps

(* ---------------- one counter, every surface ---------------- *)

(* The stats verb's flat keys as readers outside the registry know them
   (perfbench's serve_load, serve_smoke.sh, scripts), and the registry
   counter behind each counter-valued one. *)
let flat_keys =
  [ "jobs"; "queue_depth"; "in_flight"; "cache_size"; "draining";
    "histograms"; "rates_per_sec" ]

let counter_keys =
  [ ("requests", "serve.requests"); ("replies", "serve.replies");
    ("errors", "serve.errors"); ("overloaded", "serve.overloaded");
    ("deadline_expired", "serve.deadline_expired");
    ("connections", "serve.connections"); ("lp_solves", "lp.solves");
    ("lp_pivots", "lp.pivots"); ("cache_hits", "solver.cache.hits");
    ("cache_misses", "solver.cache.misses");
    ("lazy_solves", "cone.lazy.solves"); ("lazy_rounds", "cone.lazy.rounds");
    ("lazy_cuts", "cone.lazy.cuts") ]

(* One [stats] reply from an in-process daemon, drained afterwards. *)
let stats_reply () =
  let sock = Filename.temp_file "bagcqc_test" ".sock" in
  Sys.remove sock;
  let cfg =
    { (Server.default_config (Protocol.Unix_path sock)) with banner = false }
  in
  let server = Thread.create Server.run cfg in
  let c = Client.connect ~retry_ms:5000 (Protocol.Unix_path sock) in
  let reply =
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Client.request c
             (Json.Obj [ ("id", Json.Null); ("op", Json.Str "shutdown") ]));
        ignore (Client.recv_line c);
        Client.close c;
        Thread.join server)
      (fun () ->
        Client.request c (Json.Obj [ ("id", Json.Null); ("op", Json.Str "stats") ]))
  in
  match reply with
  | Some r -> r
  | None -> Alcotest.fail "no stats reply"

let test_one_declaration_every_surface () =
  let c = Obs.Metrics.counter "test.one_decl" in
  Obs.Metrics.bump c;
  let rendered = Format.asprintf "%a" Obs.pp_stats () in
  Alcotest.(check bool) "--stats lists it" true
    (List.exists
       (fun line ->
         List.filter (( <> ) "") (String.split_on_char ' ' line)
         = [ "test.one_decl"; "1" ])
       (String.split_on_char '\n' rendered));
  (* Distinct values behind the flat keys, so a key wired to the wrong
     counter cannot read equal by accident. *)
  List.iteri
    (fun i (_, name) -> Obs.Metrics.add (Obs.Metrics.counter name) (1000 * (i + 1)))
    counter_keys;
  let reply = stats_reply () in
  let counters = Json.member "counters" reply in
  Alcotest.(check (option (float 0.0))) "the stats verb's counters carry it"
    (Some 1.0)
    (Option.map Json.as_num (Json.find_opt "test.one_decl" counters));
  (match Obs.Prom.parse (Obs.Prom.encode (Obs.Metrics.snapshot ())) with
   | Ok e ->
     Alcotest.(check (option (float 0.0))) "/metrics exposes it" (Some 1.0)
       (Obs.Prom.find_sample e "bagcqc_test_one_decl_total" [])
   | Error msg -> Alcotest.fail msg);
  (* The flat keys stay wire-compatible: the same 20 names, each counter
     key equal to its registry counter. *)
  let flat =
    List.filter
      (fun k -> not (List.mem k [ "id"; "ok"; "counters" ]))
      (List.map fst (Json.as_obj reply))
  in
  Alcotest.(check (list string)) "flat key set"
    (List.sort compare (flat_keys @ List.map fst counter_keys))
    (List.sort compare flat);
  Alcotest.(check int) "20 flat keys" 20 (List.length flat);
  List.iter
    (fun (key, name) ->
      Alcotest.(check (float 0.0)) key
        (Json.as_num (Json.member name counters))
        (Json.as_num (Json.member key reply)))
    counter_keys

let test_top_reads_registry_names () =
  (* `top` reads every total from the "counters" object by registry
     name, the flat aliases not at all. *)
  let num n = Json.Num n in
  let reply =
    Json.Obj
      [ ("ok", Json.Bool true); ("cache_size", num 4.0);
        ("cache_hits", num 99.0);
        ("rates_per_sec",
         Json.Obj
           [ ("solver.cache.hits", Json.Obj [ ("1m", num 0.5); ("5m", num 0.1) ]) ]);
        ("counters",
         Json.Obj
           [ ("solver.cache.hits", num 3.0); ("solver.cache.misses", num 1.0);
             ("serve.connections", num 2.0) ]) ]
  in
  let frame = Top.render ~addr:"test" reply in
  let has line =
    List.mem line (List.map String.trim (String.split_on_char '\n' frame))
  in
  Alcotest.(check bool) "decision cache size in the header" true
    (has "jobs 0   queue 0   in-flight 0   decision cache 4   draining no");
  Alcotest.(check bool) "rate row total by registry name" true
    (has "solver.cache.hits                   3      0.50      0.10");
  Alcotest.(check bool) "decision ledger by registry name" true
    (has "decisions   hits 3  misses 1  hit 75.0%");
  Alcotest.(check bool) "service ledger by registry name" true
    (has "service     overloaded 0  deadline-expired 0  connections 2")

(* ---------------- access log ---------------- *)

(* A request whose span subtree holds exact LP solves: Ingleton over Γ4
   ends on exact R(W) rounds, one [simplex.solve] span each.  Its access
   line must report the solves as a cache miss and carry their pivots —
   exactly the [lp.pivots] the request added, since only simplex spans
   carry a pivot count. *)
let test_access_log_lp_subtree () =
  let module Cones = Bagcqc_entropy.Cones in
  let module Linexpr = Bagcqc_entropy.Linexpr in
  let module Varset = Bagcqc_entropy.Varset in
  let i a b c =
    Linexpr.mutual (Varset.singleton a) (Varset.singleton b) (Varset.of_list c)
  in
  let ingleton =
    Linexpr.sub (Linexpr.sum [ i 0 1 [ 2 ]; i 0 1 [ 3 ]; i 2 3 [] ]) (i 0 1 [])
  in
  let lp_pivots () = Obs.Metrics.count (Obs.Metrics.counter "lp.pivots") in
  Obs.disable ();
  Obs.enable ~ring_capacity:(1 lsl 12) ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let p0 = lp_pivots () in
  let span_id =
    Obs.Span.with_span ~name:"serve.request" @@ fun () ->
    (match Cones.valid Cones.Gamma ~n:4 ingleton with
     | Error _ -> ()
     | Ok () -> Alcotest.fail "Ingleton is not valid over Γ4");
    Obs.Span.current_id ()
  in
  let dp = lp_pivots () - p0 in
  let path = Filename.temp_file "bagcqc_access" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let log = Access_log.open_ ~path ~sample:1 ~slow_ms:None in
  Access_log.log_check log
    { Access_log.id = Json.Num 1.0; verdict = Some "not_contained";
      wall_us = 1; queue_us = 0; solve_us = 1; deadline_slack_ms = None;
      error = None; span_id };
  Access_log.close log;
  let line = In_channel.with_open_text path In_channel.input_all in
  let entry = Json.parse (String.trim line) in
  Alcotest.(check string) "cache tier" "miss"
    (Json.as_str (Json.member "cache" entry));
  Alcotest.(check bool) "exact pivots ran" true (dp > 0);
  Alcotest.(check int) "pivots = the request's lp.pivots" dp
    (Json.as_int (Json.member "pivots" entry))

(* ---------------- pipelined bursts ---------------- *)

(* A daemon on a fresh socket, one client connection to it, and a
   shutdown when [f] returns. *)
let with_daemon ?(max_queue = 256) f =
  let sock = Filename.temp_file "bagcqc_test" ".sock" in
  Sys.remove sock;
  let cfg =
    { (Server.default_config (Protocol.Unix_path sock)) with banner = false; max_queue }
  in
  let server = Thread.create Server.run cfg in
  let c = Client.connect ~retry_ms:5000 (Protocol.Unix_path sock) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request c (Json.Obj [ ("id", Json.Null); ("op", Json.Str "shutdown") ]));
      ignore (Client.recv_line c);
      Client.close c;
      Thread.join server)
  @@ fun () -> f c

let check_line i (q1, q2) =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Num (float_of_int i)); ("op", Json.Str "check");
         ("q1", Json.Str q1); ("q2", Json.Str q2) ])

(* Writes [lines] in one go from another thread, reads as many replies,
   then hands each to [on_reply] with its id (all are read first, so a
   failed check leaves no reply unread). *)
let pipeline c lines on_reply =
  let writer = Thread.create (fun () -> Client.send_line c (String.concat "\n" lines)) () in
  let replies = List.map (fun _ -> Client.recv_line c) lines in
  Thread.join writer;
  List.iter
    (function
      | None -> Alcotest.fail "server closed the connection mid-burst"
      | Some line ->
        let r = Json.parse line in
        on_reply (Json.as_int (Json.member "id" r)) r)
    replies

(* A full admission queue that the dispatcher has not taken yet is no
   overload: the dispatcher is idle, and the reader, which parses its
   whole buffer under the runtime lock, merely ran first.  Two checks
   written in one go to an idle daemon with a one-slot queue are both
   answered. *)
let test_idle_dispatcher_admits () =
  with_daemon ~max_queue:1 @@ fun c ->
  pipeline c
    [ check_line 0 ("R(x,y), R(y,z), R(z,x)", "R(u,v), R(u,w)");
      check_line 1 ("R(x,y), S(y,z)", "R(x,y)") ]
    (fun i r ->
      match Json.find_opt "error" r with
      | Some e -> Alcotest.failf "request %d refused: %s" i (Json.to_string e)
      | None ->
        Alcotest.(check string) "verdict"
          (if i = 0 then "contained" else "not_contained")
          (Json.as_str (Json.member "verdict" r)))

(* A pair whose queries use one relation at two arities is the client's
   mistake: it draws a bad_request, and the good pairs pipelined next to
   it (in its batch, as a rule) still get their verdicts. *)
let test_arity_clash_in_batch () =
  with_daemon @@ fun c ->
  let clash = ("R(x), R(y)", "R(x,y)") and good = ("R(x,y), R(y,z)", "R(x,y)") in
  let n = 40 in
  pipeline c
    (List.init n (fun i -> check_line i (if i mod 2 = 0 then clash else good)))
    (fun i r ->
      if i mod 2 = 0 then
        match Json.find_opt "error" r with
        | Some e ->
          Alcotest.(check string) "clash kind" "bad_request"
            (Json.as_str (Json.member "kind" e))
        | None -> Alcotest.failf "request %d: a clashing pair was decided" i
      else
        match Json.find_opt "error" r with
        | Some e -> Alcotest.failf "request %d refused: %s" i (Json.to_string e)
        | None ->
          Alcotest.(check string) "verdict" "not_contained"
            (Json.as_str (Json.member "verdict" r)))

let suite =
  [ Alcotest.test_case "parse check defaults" `Quick test_parse_check;
    Alcotest.test_case "parse check options" `Quick test_parse_options;
    Alcotest.test_case "parse typed errors" `Quick test_parse_errors;
    Alcotest.test_case "error kind names" `Quick test_kind_names_roundtrip;
    Alcotest.test_case "reply shapes" `Quick test_reply_shapes;
    Alcotest.test_case "end-to-end selftest" `Quick test_selftest;
    Alcotest.test_case "one counter on every surface" `Quick
      test_one_declaration_every_surface;
    Alcotest.test_case "top reads registry names" `Quick
      test_top_reads_registry_names;
    Alcotest.test_case "access log: LP subtree" `Quick
      test_access_log_lp_subtree;
    Alcotest.test_case "full queue, idle dispatcher: admitted" `Quick
      test_idle_dispatcher_admits;
    Alcotest.test_case "arity clash in a batch" `Quick test_arity_clash_in_batch ]
