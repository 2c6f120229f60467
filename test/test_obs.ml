(* The obs layer: span nesting and self-time, the disabled fast path,
   histogram bucket boundaries, ring-buffer eviction, the trace
   export → report round-trip, snapshot-merge algebra, and the
   pipeline stages as spans in the report tree. *)

open Bagcqc_engine
module Obs = Bagcqc_obs

(* Every test drives the process-global obs state; start each one from a
   known-clean slate and leave tracing off for the rest of the suite. *)
let with_tracing ?ring_capacity ?max_depth ?sample_every f =
  Obs.disable ();
  Obs.enable ?ring_capacity ?max_depth ?sample_every ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable f

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  Obs.Span.with_span ~name:"root" (fun () ->
      Obs.Span.with_span ~name:"a" (fun () -> ignore (Sys.opaque_identity 1));
      Obs.Span.with_span ~name:"b" (fun () ->
          Obs.Span.with_span ~name:"b1" (fun () -> ())));
  let spans = Obs.Span.closed () in
  Alcotest.(check int) "four spans recorded" 4 (List.length spans);
  let find name = List.find (fun s -> s.Obs.Span.name = name) spans in
  let root = find "root" and a = find "a" and b = find "b" and b1 = find "b1" in
  Alcotest.(check int) "a's parent is root" root.Obs.Span.id a.Obs.Span.parent;
  Alcotest.(check int) "b1's parent is b" b.Obs.Span.id b1.Obs.Span.parent;
  Alcotest.(check int) "root is a root" (-1) root.Obs.Span.parent;
  Alcotest.(check int) "depths" 2 b1.Obs.Span.depth;
  (* The exact float identity the ring maintains: self + children = dur. *)
  List.iter
    (fun s ->
      Alcotest.(check (float 0.0))
        ("self+children=dur for " ^ s.Obs.Span.name)
        s.Obs.Span.dur
        (Obs.Span.self s +. s.Obs.Span.children))
    spans;
  Alcotest.(check bool) "root children = a.dur + b.dur" true
    (root.Obs.Span.children = a.Obs.Span.dur +. b.Obs.Span.dur);
  Alcotest.(check int) "stack empty between operations" 0 (Obs.Span.open_depth ())

let test_span_exception_safety () =
  with_tracing @@ fun () ->
  (try
     Obs.Span.with_span ~name:"outer" (fun () ->
         Obs.Span.with_span ~name:"thrower" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let spans = Obs.Span.closed () in
  Alcotest.(check int) "both spans closed despite the exception" 2
    (List.length spans);
  Alcotest.(check int) "stack unwound" 0 (Obs.Span.open_depth ())

let test_disabled_fast_path () =
  Obs.disable ();
  Obs.reset ();
  let r =
    Obs.Span.with_span ~name:"ghost" (fun () ->
        Obs.Span.add_attr "k" (Obs.Span.Int 1);
        41 + 1)
  in
  Alcotest.(check int) "thunk result passes through" 42 r;
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length (Obs.Span.closed ()));
  (* Counters stay live even when tracing is off — `--stats`, the serve
     `stats` verb and /metrics read them untraced. *)
  let c = Obs.Metrics.counter "test.disabled_counter" in
  Obs.Metrics.bump c;
  Alcotest.(check int) "counters are always on" 1 (Obs.Metrics.count c)

let test_ring_eviction () =
  with_tracing ~ring_capacity:4 @@ fun () ->
  for i = 1 to 6 do
    Obs.Span.with_span ~name:(Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun s -> s.Obs.Span.name) (Obs.Span.closed ()) in
  Alcotest.(check (list string)) "oldest spans evicted first, order kept"
    [ "s3"; "s4"; "s5"; "s6" ] names;
  Alcotest.(check int) "eviction counted" 2 (Obs.Span.dropped ())

let test_depth_limit () =
  with_tracing ~max_depth:2 @@ fun () ->
  let rec nest d = if d > 0 then
    Obs.Span.with_span ~name:(Printf.sprintf "d%d" d) (fun () -> nest (d - 1))
  in
  nest 5;
  (* Depths 0,1,2 record (max_depth is the deepest recorded depth);
     the two deeper calls run uninstrumented and are counted. *)
  Alcotest.(check int) "spans within the depth limit recorded" 3
    (List.length (Obs.Span.closed ()));
  Alcotest.(check int) "deeper spans counted as dropped" 2
    (Obs.Span.depth_dropped ())

(* ---------------- histograms ---------------- *)

let test_histogram_buckets () =
  (* bucket 0 = {0}; bucket i = [2^(i-1), 2^i - 1], so an exact power of
     two 2^k is the lower bound of bucket k+1. *)
  Alcotest.(check int) "0 -> bucket 0" 0 (Obs.Metrics.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 1" 1 (Obs.Metrics.bucket_of 1);
  for k = 1 to 20 do
    let v = 1 lsl k in
    Alcotest.(check int)
      (Printf.sprintf "2^%d on a bucket lower bound" k)
      v
      (Obs.Metrics.bucket_lo (Obs.Metrics.bucket_of v));
    Alcotest.(check int)
      (Printf.sprintf "2^%d - 1 on a bucket upper bound" k)
      (v - 1)
      (Obs.Metrics.bucket_hi (Obs.Metrics.bucket_of (v - 1)))
  done;
  Alcotest.(check int) "buckets partition: bucket(2^k) = bucket(2^k - 1) + 1"
    (Obs.Metrics.bucket_of 1023 + 1)
    (Obs.Metrics.bucket_of 1024)

let test_histogram_percentiles () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.percentiles" in
  (* 90 small values and 10 large: p50 small, p99 large; min/max exact. *)
  for _ = 1 to 90 do Obs.Metrics.observe h 3 done;
  for _ = 1 to 10 do Obs.Metrics.observe h 1000 done;
  let snap =
    List.assoc "test.percentiles" (Obs.Metrics.snapshot ()).Obs.Metrics.histograms
  in
  Alcotest.(check int) "count" 100 snap.Obs.Metrics.count;
  Alcotest.(check int) "p50 in the small bucket" 3
    (Obs.Metrics.percentile snap 0.5);
  Alcotest.(check int) "p99 in the large bucket" 512
    (Obs.Metrics.percentile snap 0.99);
  Alcotest.(check int) "max exact" 1000 snap.Obs.Metrics.max_value;
  (* All-identical observations report that value at every quantile
     (clamping into [min,max]). *)
  let h2 = Obs.Metrics.histogram "test.identical" in
  for _ = 1 to 7 do Obs.Metrics.observe h2 16 done;
  let s2 =
    List.assoc "test.identical" (Obs.Metrics.snapshot ()).Obs.Metrics.histograms
  in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "identical values: p%.0f = 16" (100. *. p))
        16
        (Obs.Metrics.percentile s2 p))
    [ 0.01; 0.5; 0.9; 0.99 ]

(* qcheck: merging canonical snapshots is associative and commutative.
   Generate small random snapshots through the canonicalizing
   constructor, then compare merges structurally. *)
let arb_snapshot =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let hist =
    let* count_pairs = list_size (int_range 0 4) (pair (int_range 0 8) (int_range 1 5)) in
    let* mn = int_range 0 10 in
    let* mx = int_range 0 200 in
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 count_pairs in
    let* sum = int_range 0 500 in
    return
      { Obs.Metrics.count = total; sum;
        min_value = (if total = 0 then max_int else min mn mx);
        max_value = (if total = 0 then min_int else max mn mx);
        buckets = count_pairs }
  in
  let snap =
    (* gauges stay empty here: merge is only commutative on the additive
       series (gauges are last-writer-wins by design; see the dedicated
       gauge tests). *)
    let* cs = list_size (int_range 0 3) (pair name (int_range 0 100)) in
    let* hs = list_size (int_range 0 3) (pair name hist) in
    return (Obs.Metrics.snapshot_of ~counters:cs ~histograms:hs ())
  in
  QCheck.make snap

let prop_merge_commutative =
  QCheck.Test.make ~name:"snapshot merge is commutative" ~count:200
    (QCheck.pair arb_snapshot arb_snapshot) (fun (a, b) ->
      Obs.Metrics.merge a b = Obs.Metrics.merge b a)

let prop_merge_associative =
  QCheck.Test.make ~name:"snapshot merge is associative" ~count:200
    (QCheck.triple arb_snapshot arb_snapshot arb_snapshot) (fun (a, b, c) ->
      Obs.Metrics.merge (Obs.Metrics.merge a b) c
      = Obs.Metrics.merge a (Obs.Metrics.merge b c))

(* qcheck: Json.parse ∘ Json.to_string = id.  One JSON dialect serves
   trace files, the bench comparator and the serve wire protocol, so the
   printer and parser must be exact inverses on everything the printer
   can emit (all byte strings, every finite double, nested values). *)
let arb_json =
  let open QCheck.Gen in
  let gen_float =
    oneof
      [ map float_of_int int;
        map2
          (fun a k -> float_of_int a /. (2.0 ** float_of_int k))
          int (int_bound 40);
        oneofl [ 0.0; -0.0; 1e-7; 3.141592653589793; 1e308; -1e308; 1e15 ] ]
  in
  let gen_string = string_size ~gen:char (int_bound 12) in
  let leaf =
    oneof
      [ return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun f -> Obs.Json.Num f) gen_float;
        map (fun s -> Obs.Json.Str s) gen_string ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [ (3, leaf);
                 ( 1,
                   map
                     (fun l -> Obs.Json.Arr l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun fields -> Obs.Json.Obj fields)
                     (list_size (int_bound 4)
                        (pair gen_string (self (n / 2)))) ) ])
  in
  QCheck.make ~print:Obs.Json.to_string tree

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.parse inverts Json.to_string" ~count:500
    arb_json (fun j -> Obs.Json.parse (Obs.Json.to_string j) = j)

(* ---------------- export → report round-trip ---------------- *)

let test_roundtrip format =
  with_tracing @@ fun () ->
  let h = Obs.Metrics.histogram "test.roundtrip_hist" in
  Obs.Span.with_span ~name:"root" ~attrs:[ ("mode", Obs.Span.Str "test") ]
    (fun () ->
      Obs.Span.with_span ~name:"leaf" (fun () ->
          Obs.Metrics.observe h 5;
          Obs.Metrics.observe h 64;
          Obs.Span.add_attr "pivots" (Obs.Span.Int 7)));
  let file = Filename.temp_file "bagcqc_trace" format in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Obs.Export.write file;
  let r = Obs.Report.load file in
  Alcotest.(check int) "both spans survive the round trip" 2
    (Obs.Report.span_count r);
  Alcotest.(check int) "one root" 1 (List.length r.Obs.Report.roots);
  let root = List.hd r.Obs.Report.roots in
  Alcotest.(check string) "root name" "root" root.Obs.Report.name;
  let leaf =
    match root.Obs.Report.kids with [ l ] -> l | _ -> Alcotest.fail "one child"
  in
  Alcotest.(check string) "child name" "leaf" leaf.Obs.Report.name;
  Alcotest.(check bool) "mid-span attr survives" true
    (match List.assoc_opt "pivots" leaf.Obs.Report.attrs with
     | Some (Obs.Json.Num n) -> n = 7.0
     | _ -> false);
  (* Timing survives µs serialization to within a microsecond. *)
  Alcotest.(check bool) "durations nest in the file too" true
    (leaf.Obs.Report.dur_us <= root.Obs.Report.dur_us +. 1.0);
  let snap = List.assoc_opt "test.roundtrip_hist" r.Obs.Report.metrics.Obs.Metrics.histograms in
  match snap with
  | None -> Alcotest.fail "histogram missing after round trip"
  | Some s ->
    Alcotest.(check int) "histogram count survives" 2 s.Obs.Metrics.count;
    Alcotest.(check int) "histogram max survives" 64 s.Obs.Metrics.max_value

let test_roundtrip_chrome () = test_roundtrip ".json"
let test_roundtrip_jsonl () = test_roundtrip ".jsonl"

let test_report_metrics_match_snapshot () =
  (* The exporter serializes exactly the live snapshot: reading the file
     back must reproduce Metrics.snapshot () for non-empty series. *)
  with_tracing @@ fun () ->
  let h = Obs.Metrics.histogram "test.export_hist" in
  Obs.Span.with_span ~name:"w" (fun () ->
      List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 100 ]);
  let live = Obs.Metrics.snapshot () in
  let file = Filename.temp_file "bagcqc_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Obs.Export.write file;
  let r = Obs.Report.load file in
  Alcotest.(check bool) "exported histogram equals the live snapshot" true
    (List.assoc "test.export_hist" r.Obs.Report.metrics.Obs.Metrics.histograms
     = List.assoc "test.export_hist" live.Obs.Metrics.histograms)

(* ---------------- pipeline stages as spans ---------------- *)

(* The report tree of the live obs state, as [--stats] prints it. *)
let live_report () = Obs.Report.of_json (Obs.Export.chrome ())

let names nodes = List.map (fun nd -> nd.Obs.Report.name) nodes

let test_self_nested_stage () =
  with_tracing @@ fun () ->
  (* A self-nested stage counts its wall time once: the inner activation
     is a child of the outer one, so the top level holds one eq8 whose
     inclusive time is at most the elapsed time. *)
  let t0 = Obs.Runtime.now () in
  Obs.Span.with_span ~name:"eq8" (fun () ->
      Obs.Span.with_span ~name:"eq8" (fun () ->
          ignore (Sys.opaque_identity (Array.init 10000 Fun.id))));
  let elapsed_us = (Obs.Runtime.now () -. t0) *. 1e6 in
  (match (live_report ()).Obs.Report.roots with
   | [ outer ] ->
     Alcotest.(check string) "one top-level stage" "eq8" outer.Obs.Report.name;
     Alcotest.(check bool) "accumulates at most once the elapsed time" true
       (outer.Obs.Report.dur_us <= elapsed_us);
     Alcotest.(check bool) "still records nonzero time" true
       (outer.Obs.Report.dur_us > 0.0);
     Alcotest.(check (list string)) "the inner activation is its child"
       [ "eq8" ] (names outer.Obs.Report.kids)
   | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots));
  (* Distinct names keep nesting inclusively. *)
  Obs.reset ();
  Obs.Span.with_span ~name:"outer" (fun () ->
      Obs.Span.with_span ~name:"inner" (fun () ->
          ignore (Sys.opaque_identity (Array.init 1000 Fun.id))));
  match (live_report ()).Obs.Report.roots with
  | [ { Obs.Report.name = "outer"; dur_us; kids = [ inner ]; _ } ] ->
    Alcotest.(check bool) "inner <= outer" true (inner.Obs.Report.dur_us <= dur_us)
  | _ -> Alcotest.fail "expected outer > inner"

let test_raising_stage () =
  with_tracing @@ fun () ->
  (try Obs.Span.with_span ~name:"fails" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "no span left open" 0 (Obs.Span.open_depth ());
  Alcotest.(check (list string)) "stage recorded despite the exception"
    [ "fails" ] (names (live_report ()).Obs.Report.roots)

let test_decide_stage_spans () =
  (* A fresh decision opens its pipeline stages as spans, in the order
     they ran; a memo hit opens none.  The ring capacity persists across
     tests, so size it to hold every span of the witness search. *)
  with_tracing ~ring_capacity:(1 lsl 16) @@ fun () ->
  let module Containment = Bagcqc_core.Containment in
  let module Parser = Bagcqc_cq.Parser in
  Solver.clear ();
  Fun.protect ~finally:Solver.clear @@ fun () ->
  let q1 = Parser.parse "R(x,y), R(x,z)" and q2 = Parser.parse "R(u,v), R(w,v)" in
  ignore (Containment.decide q1 q2);
  ignore (Containment.decide q1 q2);
  (* At jobs > 1 Maxii speculates on a pool worker, whose spans root in
     that worker's own tree. *)
  let decides =
    List.filter
      (fun nd -> nd.Obs.Report.name = "containment.decide")
      (live_report ()).Obs.Report.roots
  in
  match decides with
  | [ fresh; hit ] ->
    Alcotest.(check (list string)) "stages of a fresh decision"
      [ "eq8"; "maxii"; "witness" ] (names fresh.Obs.Report.kids);
    Alcotest.(check (list string)) "a memo hit runs no stage" []
      (names hit.Obs.Report.kids)
  | roots ->
    Alcotest.failf "expected two containment.decide roots, got %s"
      (String.concat ", " (names roots))

let test_decide_k0_stage_spans () =
  (* Without a homomorphism Q2 -> Q1 the witness follows from Eq. 8's
     empty side list: no cone runs, so there is no "maxii" stage. *)
  with_tracing ~ring_capacity:(1 lsl 16) @@ fun () ->
  let module Containment = Bagcqc_core.Containment in
  let module Parser = Bagcqc_cq.Parser in
  Solver.clear ();
  Fun.protect ~finally:Solver.clear @@ fun () ->
  let q1 = Parser.parse "R(x,y), R(y,z)" and q2 = Parser.parse "R(u,u)" in
  (match Containment.decide q1 q2 with
   | Containment.Not_contained _ -> ()
   | _ -> Alcotest.fail "R(x,y), R(y,z) is not contained in R(u,u)");
  match
    List.filter
      (fun nd -> nd.Obs.Report.name = "containment.decide")
      (live_report ()).Obs.Report.roots
  with
  | [ fresh ] ->
    Alcotest.(check (list string)) "stages of a fresh k = 0 decision"
      [ "eq8"; "witness" ] (names fresh.Obs.Report.kids)
  | roots ->
    Alcotest.failf "expected one containment.decide root, got %s"
      (String.concat ", " (names roots))

let suite =
  [ Alcotest.test_case "span nesting, parents, self-time" `Quick
      test_span_nesting;
    Alcotest.test_case "spans close on exceptions" `Quick
      test_span_exception_safety;
    Alcotest.test_case "disabled tracing records nothing" `Quick
      test_disabled_fast_path;
    Alcotest.test_case "ring buffer evicts oldest first" `Quick
      test_ring_eviction;
    Alcotest.test_case "depth limit drops and counts" `Quick test_depth_limit;
    Alcotest.test_case "log-bucket boundaries at powers of two" `Quick
      test_histogram_buckets;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "chrome export round-trips through report" `Quick
      test_roundtrip_chrome;
    Alcotest.test_case "jsonl export round-trips through report" `Quick
      test_roundtrip_jsonl;
    Alcotest.test_case "report metrics equal the live snapshot" `Quick
      test_report_metrics_match_snapshot;
    Alcotest.test_case "self-nested stage counted once" `Quick
      test_self_nested_stage;
    Alcotest.test_case "raising stage closes its span" `Quick
      test_raising_stage;
    Alcotest.test_case "decide emits stage spans" `Quick
      test_decide_stage_spans;
    Alcotest.test_case "k = 0 decide skips the cones" `Quick
      test_decide_k0_stage_spans ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_merge_commutative; prop_merge_associative; prop_json_roundtrip ]
