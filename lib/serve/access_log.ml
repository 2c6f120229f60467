(* Structured JSONL access log with slow-request capture.

   One line per completed check request ({"type":"access", ...}): the
   echoed id, verdict or error kind, wall/queue/solve microseconds,
   per-request pivot count and cache tier (recovered from the request's
   span subtree when tracing is on), and remaining deadline slack.
   [sample] thins the stream — every Nth request is logged — but slow
   requests and errors always log, so the interesting tail survives any
   sampling rate.

   Slow-request capture: when a request's wall time exceeds [slow_ms],
   its line carries a "spans" array — the request's own span subtree in
   the same shape {!Bagcqc_obs.Export} writes to JSONL traces — so a p99
   outlier arrives with its trace attached instead of a number and a
   shrug.  Requires tracing to be enabled (the serve CLI turns it on
   whenever an access log is configured); with tracing off the line
   still logs, with "pivots"/"cache"/"spans" absent.

   Writers: the dispatcher thread (one line per request, in batch
   completion order).  The mutex exists for the drain path and any
   future multi-writer; lines are flushed eagerly so `tail -f` and the
   smoke tests see requests as they complete. *)

module Obs = Bagcqc_obs
module Json = Bagcqc_obs.Json

type t = {
  oc : out_channel;
  m : Mutex.t;
  sample : int; (* log every Nth check; slow/errored always log *)
  slow_ms : float option;
  mutable seq : int;
}

let open_ ~path ~sample ~slow_ms =
  { oc = open_out path; m = Mutex.create (); sample = max 1 sample; slow_ms;
    seq = 0 }

let close t =
  Mutex.lock t.m;
  (try close_out t.oc with Sys_error _ -> ());
  Mutex.unlock t.m

type entry = {
  id : Json.t;
  verdict : string option;
  wall_us : int;
  queue_us : int;
  solve_us : int;
  deadline_slack_ms : float option;
  error : string option;
  span_id : int; (* the request's root span, -1 when tracing is off *)
}

(* Per-request pivots and cache tier, recovered from span attributes:
   pivot counts sum across the subtree's simplex spans; the cache tier
   reported is the deepest tier the request had to reach ("miss" — a
   fresh LP solve — over "memo" — the whole decision served from the
   memo).  A decision computed without any LP reports none. *)
let pivots_of spans =
  List.fold_left
    (fun acc sp ->
      List.fold_left
        (fun acc (k, v) ->
          match (k, v) with
          | "pivots", Obs.Span.Int n -> acc + n
          | _ -> acc)
        acc sp.Obs.Span.attrs)
    0 spans

let cache_tier_of spans =
  let seen =
    List.concat_map
      (fun sp ->
        List.filter_map
          (fun (k, v) ->
            match (k, v) with
            | "cache", Obs.Span.Str s -> Some s
            | _ -> None)
          sp.Obs.Span.attrs)
      spans
  in
  if List.mem "miss" seen then Some "miss"
  else if List.mem "hit" seen then Some "memo"
  else None

let log_check t (e : entry) =
  let slow =
    match t.slow_ms with
    | Some ms -> float_of_int e.wall_us /. 1e3 >= ms
    | None -> false
  in
  Mutex.lock t.m;
  t.seq <- t.seq + 1;
  let sampled = t.seq mod t.sample = 0 in
  Mutex.unlock t.m;
  if slow || e.error <> None || sampled then begin
    let sub = Obs.Span.subtree e.span_id in
    let opt_str = function Some s -> Json.Str s | None -> Json.Null in
    let num n = Json.Num (float_of_int n) in
    let fields =
      [ ("type", Json.Str "access"); ("ts", Json.Num (Unix.gettimeofday ()));
        ("id", e.id); ("op", Json.Str "check");
        ("verdict", opt_str e.verdict); ("wall_us", num e.wall_us);
        ("queue_us", num e.queue_us); ("solve_us", num e.solve_us);
        ("deadline_slack_ms",
         match e.deadline_slack_ms with
         | Some ms -> Json.Num ms
         | None -> Json.Null);
        ("error", opt_str e.error); ("slow", Json.Bool slow) ]
      @ (if sub = [] then []
         else
           [ ("pivots", num (pivots_of sub));
             ("cache", opt_str (cache_tier_of sub)) ])
      @
      if slow && sub <> [] then
        [ ("spans", Json.Arr (List.map Obs.Export.span_event sub)) ]
      else []
    in
    let line = Json.to_string (Json.Obj fields) in
    Mutex.lock t.m;
    (try
       output_string t.oc line;
       output_char t.oc '\n';
       flush t.oc
     with Sys_error _ -> ());
    Mutex.unlock t.m
  end
