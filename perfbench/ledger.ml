(* Clocks, exact percentiles and the outside-timed span ledger.

   Every time here is read from CLOCK_MONOTONIC in nanoseconds, so a
   10 µs decision is resolved to 1/10000 of itself rather than to the
   microsecond granularity of [Unix.gettimeofday].  Percentiles are exact
   order statistics of raw samples, never histogram buckets. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least a fraction [p] of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Ledger.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Ledger.median: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---------------- allocation ---------------- *)

(* Words allocated so far: minor + major − promoted, as [Gc.counters]
   defines them.  [Gc.counters] reads the counters before it allocates
   its own result, so that result (a constant) is charged to the next
   interval; [alloc_overhead] measures it once so spans can subtract it. *)
let words_now () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let alloc_overhead =
  let best = ref infinity in
  for _ = 1 to 16 do
    let a = words_now () in
    let b = words_now () in
    best := Float.min !best (b -. a)
  done;
  !best

(* ---------------- spans ---------------- *)

(* One span is one call into one layer's public function, made by the
   benchmark on behalf of decision [decision].  Per-layer totals cover
   every span; individual spans are kept in memory only while [keep] is
   set (the first replay pass) and written out once at exit. *)
type span = {
  decision : int;
  layer : string;
  start_ns : int;
  dur_ns : int;
  words : float;
}

type trace = {
  mutable keep : bool;
  mutable current : int;  (** the decision the next spans belong to *)
  mutable spans : span list;  (** newest first *)
  totals : (string, int * float) Hashtbl.t;  (** layer -> ns, words *)
}

let trace () = { keep = true; current = 0; spans = []; totals = Hashtbl.create 16 }

let span tr layer f =
  let w0 = words_now () in
  let t0 = now_ns () in
  let r = f () in
  let dur_ns = now_ns () - t0 in
  let words = words_now () -. w0 -. alloc_overhead in
  let ns, w = Option.value (Hashtbl.find_opt tr.totals layer) ~default:(0, 0.0) in
  Hashtbl.replace tr.totals layer (ns + dur_ns, w +. words);
  if tr.keep then
    tr.spans <- { decision = tr.current; layer; start_ns = t0; dur_ns; words } :: tr.spans;
  r

let layer_ns tr layer = Option.fold ~none:0 ~some:fst (Hashtbl.find_opt tr.totals layer)
let layer_words tr layer = Option.fold ~none:0.0 ~some:snd (Hashtbl.find_opt tr.totals layer)

let write_trace path tr =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"decision\":%d,\"layer\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d,\"words\":%.0f}"
            s.decision s.layer s.start_ns s.dur_ns s.words)
        (List.rev tr.spans);
      output_string oc "]\n")
