open Bagcqc_cq
open Bagcqc_core
open Bagcqc_engine
module Obs = Bagcqc_obs
module Json = Bagcqc_obs.Json

(* Service-level counters live in the same metrics registry as the
   solver's, so `stats`, `--stats` and trace export all see them. *)
let c_requests = Obs.Metrics.counter "serve.requests"
let c_replies = Obs.Metrics.counter "serve.replies"
let c_errors = Obs.Metrics.counter "serve.errors"
let c_overloaded = Obs.Metrics.counter "serve.overloaded"
let c_deadline = Obs.Metrics.counter "serve.deadline_expired"
let c_connections = Obs.Metrics.counter "serve.connections"
let h_queue_us = Obs.Metrics.histogram "serve.queue_us"
let h_solve_us = Obs.Metrics.histogram "serve.solve_us"
let h_request_us = Obs.Metrics.histogram "serve.request_us"

(* Live levels for scrapers: queue depth and in-flight refresh at batch
   boundaries and on the telemetry ticker, open connections at
   accept/close.  All of these are levels, not totals — gauges. *)
let g_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let g_in_flight = Obs.Metrics.gauge "serve.in_flight"
let g_open_conns = Obs.Metrics.gauge "serve.open_connections"

(* Counters whose recent movement the daemon reports as rolling 1m/5m
   rates (decisions/sec and hit rates) via `stats`//metrics. *)
let windowed_counters =
  [ "serve.requests"; "serve.replies"; "serve.errors";
    "solver.cache.hits"; "solver.cache.misses"; "lp.solves";
    "cone.lazy.solves"; "cone.lazy.cuts" ]

type config = {
  addr : Protocol.addr;
  max_queue : int;
  default_deadline_ms : float option;
  banner : bool;
  metrics_port : int option;
  access_log : string option;
  log_sample : int;
  slow_ms : float option;
}

let default_config addr =
  { addr; max_queue = 256; default_deadline_ms = None; banner = true;
    metrics_port = None; access_log = None; log_sample = 1; slow_ms = None }

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wm : Mutex.t; (* serializes writes from reader and dispatcher *)
  mutable alive : bool;
}

type pending = {
  conn : conn;
  id : Json.t;
  q1 : Query.t;
  q2 : Query.t;
  max_factors : int;
  want_certificate : bool;
  deadline : float option; (* absolute, Unix.gettimeofday clock *)
  enqueued_at : float;
}

type t = {
  cfg : config;
  qm : Mutex.t;
  qc : Condition.t; (* dispatcher: work available / draining *)
  room : Condition.t; (* readers: the dispatcher took the queue / draining *)
  queue : pending Queue.t;
  mutable draining : bool;
  mutable solving : bool; (* the dispatcher is working on a batch *)
  cm : Mutex.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  pipe_r : Unix.file_descr; (* self-pipe: wakes the accept loop *)
  pipe_w : Unix.file_descr;
  access : Access_log.t option;
  ticker_stop : bool Atomic.t;
}

(* ---------------- replies ---------------- *)

let send t conn json =
  ignore t;
  Mutex.lock conn.wm;
  (try
     if conn.alive then begin
       output_string conn.oc (Json.to_string json);
       output_char conn.oc '\n';
       flush conn.oc
     end
   with Sys_error _ | Unix.Unix_error _ ->
     (* Client went away mid-reply; the reader thread will see EOF and
        clean up — nothing to do here, and nothing to crash over. *)
     conn.alive <- false);
  Mutex.unlock conn.wm;
  Obs.Metrics.bump c_replies

let send_error t conn err =
  Obs.Metrics.bump c_errors;
  send t conn (Protocol.error_reply err)

(* ---------------- drain ---------------- *)

(* Async-signal-safe wake-up: handlers only write the self-pipe; the
   accept loop does the actual (mutex-taking) state change. *)
let wake t = try ignore (Unix.write t.pipe_w (Bytes.make 1 'x') 0 1) with _ -> ()

let initiate_drain t =
  Mutex.lock t.qm;
  t.draining <- true;
  Condition.broadcast t.qc;
  Condition.broadcast t.room;
  Mutex.unlock t.qm;
  wake t

(* ---------------- admission ---------------- *)

let expired deadline now =
  match deadline with Some d -> d <= now | None -> false

let enqueue t (p : pending) =
  if expired p.deadline p.enqueued_at then begin
    Obs.Metrics.bump c_deadline;
    send_error t p.conn
      { Protocol.id = p.id; kind = Protocol.Deadline_exceeded;
        message = "deadline expired before admission" }
  end
  else begin
    Mutex.lock t.qm;
    (* A full queue the dispatcher has not taken yet is no overload: it
       was signalled, but this reader still holds the runtime lock (it
       parses whatever its buffer holds).  Wait for the dispatcher to
       take the queue; refuse only while it works on a batch. *)
    while
      (not t.draining) && (not t.solving)
      && Queue.length t.queue >= t.cfg.max_queue
    do
      Condition.wait t.room t.qm
    done;
    let status =
      if t.draining then `Draining
      else if Queue.length t.queue >= t.cfg.max_queue then `Full
      else begin
        Queue.add p t.queue;
        Obs.Metrics.set_gauge g_queue_depth (Queue.length t.queue);
        Condition.broadcast t.qc;
        `Queued
      end
    in
    Mutex.unlock t.qm;
    match status with
    | `Queued -> Obs.Metrics.bump c_requests
    | `Draining ->
      send_error t p.conn
        { Protocol.id = p.id; kind = Protocol.Shutting_down;
          message = "server is draining" }
    | `Full ->
      Obs.Metrics.bump c_overloaded;
      send_error t p.conn
        { Protocol.id = p.id; kind = Protocol.Overloaded;
          message =
            Printf.sprintf "admission queue full (max %d)" t.cfg.max_queue }
  end

(* ---------------- telemetry ---------------- *)

(* Pull-published gauges: refreshed by the ticker thread and on every
   stats/metrics read, never on the per-request hot path. *)
let publish_gauges t =
  Mutex.lock t.qm;
  let depth = Queue.length t.queue in
  Mutex.unlock t.qm;
  Obs.Metrics.set_gauge g_queue_depth depth;
  Mutex.lock t.cm;
  let open_conns = List.length t.conns in
  Mutex.unlock t.cm;
  Obs.Metrics.set_gauge g_open_conns open_conns;
  Solver.publish_gauges ()

(* ~1 Hz window sampling + gauge refresh; wakes at 4 Hz so drain never
   waits long on the ticker (Window coalesces samples under 0.5s). *)
let ticker_body t =
  while not (Atomic.get t.ticker_stop) do
    Thread.delay 0.25;
    publish_gauges t;
    Obs.Window.tick_all ()
  done

let window_rates () =
  List.concat_map
    (fun w ->
      [ (Obs.Window.name w, "1m", Obs.Window.rate w ~seconds:60.0);
        (Obs.Window.name w, "5m", Obs.Window.rate w ~seconds:300.0) ])
    (Obs.Window.tracked ())

let metrics_body t =
  publish_gauges t;
  Obs.Window.tick_all ();
  Obs.Prom.encode ~rates:(window_rates ()) (Obs.Metrics.snapshot ())

let http_handler t path =
  match path with
  | "/metrics" ->
    { Http.status = 200;
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = metrics_body t }
  | "/healthz" -> Http.text 200 "ok\n"
  | "/readyz" ->
    Mutex.lock t.qm;
    let draining = t.draining in
    Mutex.unlock t.qm;
    if draining then Http.text 503 "draining\n" else Http.text 200 "ready\n"
  | _ -> Http.text 404 "not found\n"

(* ---------------- stats verb ---------------- *)

(* The flat counter keys the verb has always carried, under their wire
   names, for readers that predate the "counters" object (perfbench's
   serve_load, scripts/serve_smoke.sh, the selftest, outside clients).
   Every registry counter is also in "counters" by name. *)
let wire_aliases =
  [ ("requests", "serve.requests"); ("replies", "serve.replies");
    ("errors", "serve.errors"); ("overloaded", "serve.overloaded");
    ("deadline_expired", "serve.deadline_expired");
    ("connections", "serve.connections"); ("lp_solves", "lp.solves");
    ("lp_pivots", "lp.pivots"); ("cache_hits", "solver.cache.hits");
    ("cache_misses", "solver.cache.misses");
    ("lazy_solves", "cone.lazy.solves"); ("lazy_rounds", "cone.lazy.rounds");
    ("lazy_cuts", "cone.lazy.cuts") ]

let stats_fields t =
  publish_gauges t;
  Obs.Window.tick_all ();
  let snap = Obs.Metrics.snapshot () in
  Mutex.lock t.qm;
  let queue_depth = Queue.length t.queue in
  let draining = t.draining in
  Mutex.unlock t.qm;
  let num n = Json.Num (float_of_int n) in
  let count name =
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  let latency =
    List.map
      (fun (name, h) ->
        ( name,
          Json.Obj
            [ ("count", num h.Obs.Metrics.count);
              ("mean", Json.Num (Obs.Metrics.mean h));
              ("p50", num (Obs.Metrics.percentile h 0.50));
              ("p90", num (Obs.Metrics.percentile h 0.90));
              ("p99", num (Obs.Metrics.percentile h 0.99));
              ("max", num h.Obs.Metrics.max_value) ] ))
      (List.filter
         (fun (_, h) -> h.Obs.Metrics.count > 0)
         snap.Obs.Metrics.histograms)
  in
  let rates =
    List.map
      (fun w ->
        ( Obs.Window.name w,
          Json.Obj
            [ ("1m", Json.Num (Obs.Window.rate w ~seconds:60.0));
              ("5m", Json.Num (Obs.Window.rate w ~seconds:300.0)) ] ))
      (Obs.Window.tracked ())
  in
  [ ("jobs", num (Bagcqc_par.Pool.jobs ()));
    ("queue_depth", num queue_depth);
    ("in_flight", num (Obs.Metrics.gauge_value g_in_flight));
    ("cache_size", num (Solver.cache_size ()));
    ("draining", Json.Bool draining);
    ("histograms", Json.Obj latency);
    ("rates_per_sec", Json.Obj rates) ]
  @ List.map (fun (key, name) -> (key, num (count name))) wire_aliases
  @ [ ( "counters",
        Json.Obj
          (List.map (fun (name, v) -> (name, num v)) snap.Obs.Metrics.counters)
      ) ]

(* ---------------- dispatcher ---------------- *)

(* All solving happens on this one thread (fanning out via the pool),
   because the pool admits one region at a time process-wide. *)
let process_batch t batch =
  let now = Unix.gettimeofday () in
  let live, dead = List.partition (fun p -> not (expired p.deadline now)) batch in
  List.iter
    (fun p ->
      Obs.Metrics.bump c_deadline;
      send_error t p.conn
        { Protocol.id = p.id; kind = Protocol.Deadline_exceeded;
          message = "deadline expired while queued" };
      match t.access with
      | None -> ()
      | Some log ->
        let queue_us = int_of_float ((now -. p.enqueued_at) *. 1e6) in
        Access_log.log_check log
          { Access_log.id = p.id; verdict = None; wall_us = queue_us;
            queue_us; solve_us = 0;
            deadline_slack_ms =
              Option.map (fun d -> (d -. now) *. 1e3) p.deadline;
            error = Some (Protocol.kind_name Protocol.Deadline_exceeded);
            span_id = -1 })
    dead;
  (* Booleanization can refuse a pair (head lengths differ), and the
     decision refuses a relation used at two arities; that is the
     client's mistake, not the batch's — answer it typed and keep going. *)
  let jobs =
    List.filter_map
      (fun p ->
        let pair =
          if Query.is_boolean p.q1 && Query.is_boolean p.q2 then Ok (p.q1, p.q2)
          else
            match Reductions.booleanize p.q1 p.q2 with
            | pair -> Ok pair
            | exception Invalid_argument msg -> Error msg
        in
        let pair =
          Result.bind pair (fun (q1, q2) ->
              match Query.arity_clash q1 q2 with
              | None -> Ok (q1, q2)
              | Some (rel, k1, k2) ->
                Error
                  (Printf.sprintf "relation %s has arity %d in q1 but %d in q2"
                     rel k1 k2))
        in
        match pair with
        | Ok (q1, q2) -> Some (p, q1, q2)
        | Error msg ->
          send_error t p.conn
            { Protocol.id = p.id; kind = Protocol.Bad_request; message = msg };
          None)
      live
  in
  if jobs <> [] then begin
    Obs.Metrics.set_gauge g_in_flight (List.length jobs);
    let results =
      Obs.Span.with_span ~name:"serve.batch"
        ~attrs:[ ("requests", Obs.Span.Int (List.length jobs)) ]
      @@ fun () ->
      Bagcqc_par.Pool.parallel_map_list
        (fun (p, q1, q2) ->
          let t0 = Unix.gettimeofday () in
          let r, span_id =
            Obs.Span.with_span ~name:"serve.request" @@ fun () ->
            (* Remembered so a slow request's access-log line can carry
               this span's subtree once it has closed. *)
            let sid = Obs.Span.current_id () in
            (Containment.decide_result ~max_factors:p.max_factors q1 q2, sid)
          in
          (p, r, Unix.gettimeofday () -. t0, span_id))
        jobs
    in
    Obs.Metrics.set_gauge g_in_flight 0;
    List.iter
      (fun ((p : pending), r, solve_s, span_id) ->
        let queue_s = now -. p.enqueued_at in
        (* Latency histograms are always on: one log₂ bucket bump per
           request against timestamps already taken, and they are what
           makes /metrics useful without tracing enabled. *)
        let queue_us = int_of_float (queue_s *. 1e6) in
        let solve_us = int_of_float (solve_s *. 1e6) in
        Obs.Metrics.observe h_queue_us queue_us;
        Obs.Metrics.observe h_solve_us solve_us;
        Obs.Metrics.observe h_request_us (queue_us + solve_us);
        (match r with
         | Ok verdict ->
           send t p.conn
             (Protocol.ok p.id
                (Protocol.verdict_fields
                   ~want_certificate:p.want_certificate verdict
                 @ [ ("queue_ms", Json.Num (queue_s *. 1e3));
                     ("solve_ms", Json.Num (solve_s *. 1e3)) ]))
         | Error e ->
           Obs.Metrics.bump c_errors;
           send t p.conn (Protocol.internal_error ~id:p.id e));
        match t.access with
        | None -> ()
        | Some log ->
          let done_at = now +. solve_s in
          Access_log.log_check log
            { Access_log.id = p.id;
              verdict =
                (match r with
                 | Ok v -> Some (Protocol.verdict_name v)
                 | Error _ -> None);
              wall_us = queue_us + solve_us; queue_us; solve_us;
              deadline_slack_ms =
                Option.map (fun d -> (d -. done_at) *. 1e3) p.deadline;
              error =
                (match r with
                 | Ok _ -> None
                 | Error _ -> Some (Protocol.kind_name Protocol.Internal));
              span_id })
      results
  end

let dispatcher_body t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.qm;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.qc t.qm
    done;
    let batch = ref [] in
    while not (Queue.is_empty t.queue) do
      batch := Queue.pop t.queue :: !batch
    done;
    Obs.Metrics.set_gauge g_queue_depth 0;
    if !batch = [] && t.draining then continue := false;
    t.solving <- !batch <> [];
    Condition.broadcast t.room;
    Mutex.unlock t.qm;
    match List.rev !batch with
    | [] -> ()
    | batch -> (
      (try process_batch t batch
       with e ->
         (* A dispatcher death would hang every queued client; answer what
            we can and keep serving.  decide_result already reifies the
            expected failure modes, so this is strictly a backstop. *)
         let msg = "unexpected server error: " ^ Printexc.to_string e in
         List.iter
           (fun p ->
             send_error t p.conn
               { Protocol.id = p.id; kind = Protocol.Internal; message = msg })
           batch);
      Mutex.lock t.qm;
      t.solving <- false;
      Mutex.unlock t.qm)
  done

(* ---------------- connections ---------------- *)

let close_conn t conn =
  Mutex.lock conn.wm;
  let was_alive = conn.alive in
  conn.alive <- false;
  Mutex.unlock conn.wm;
  if was_alive then begin
    (try flush conn.oc with Sys_error _ -> ());
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    (* Drop the record so a later drain cannot shoot a reused fd. *)
    Mutex.lock t.cm;
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    Mutex.unlock t.cm
  end

let handle_line t conn line =
  if String.trim line = "" then ()
  else
    match Protocol.parse_line line with
    | Error err -> send_error t conn err
    | Ok env -> (
      match env.Protocol.request with
      | Protocol.Ping ->
        send t conn (Protocol.ok env.Protocol.id [ ("pong", Json.Bool true) ])
      | Protocol.Stats ->
        send t conn (Protocol.ok env.Protocol.id (stats_fields t))
      | Protocol.Shutdown ->
        send t conn
          (Protocol.ok env.Protocol.id [ ("draining", Json.Bool true) ]);
        initiate_drain t
      | Protocol.Check { q1; q2; max_factors; want_certificate } ->
        let now = Unix.gettimeofday () in
        let deadline_ms =
          match env.Protocol.deadline_ms with
          | Some _ as d -> d
          | None -> t.cfg.default_deadline_ms
        in
        let deadline = Option.map (fun ms -> now +. (ms /. 1000.0)) deadline_ms in
        enqueue t
          { conn; id = env.Protocol.id; q1; q2; max_factors;
            want_certificate; deadline; enqueued_at = now };
        (* Let the dispatcher, if it waits for the runtime lock, run
           before this reader parses the next buffered line. *)
        Thread.yield ())

let reader_body t conn =
  (try
     while conn.alive do
       let line = input_line conn.ic in
       handle_line t conn line
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  close_conn t conn

let spawn_reader t fd =
  let conn =
    { fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      wm = Mutex.create ();
      alive = true }
  in
  Obs.Metrics.bump c_connections;
  Mutex.lock t.cm;
  t.conns <- conn :: t.conns;
  t.readers <- Thread.create (reader_body t) conn :: t.readers;
  Mutex.unlock t.cm

(* ---------------- listen / accept ---------------- *)

let listen_socket = function
  | Protocol.Unix_path path ->
    (* A stale socket file from a crashed predecessor would make bind
       fail forever; connect() semantics distinguish live servers (the
       CLI refuses to clobber a *connectable* socket). *)
    (match Unix.lstat path with
     | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
     | _ -> ()
     | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 64
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd
  | Protocol.Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found ->
          raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (inet, port));
       Unix.listen fd 64
     with e -> (try Unix.close fd with _ -> ()); raise e);
    fd

let accept_loop t listen_fd =
  let continue = ref true in
  while !continue do
    match Unix.select [ listen_fd; t.pipe_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      if List.mem t.pipe_r ready then continue := false
      else if List.mem listen_fd ready then (
        match Unix.accept ~cloexec:true listen_fd with
        | fd, _ -> spawn_reader t fd
        | exception Unix.Unix_error _ -> ())
  done

(* ---------------- lifecycle ---------------- *)

let run cfg =
  List.iter (fun n -> ignore (Obs.Window.track n)) windowed_counters;
  (* Baseline sample at boot: movement from the very first request is
     visible to delta/rate even before the ticker's first pass. *)
  Obs.Window.tick_all ();
  let listen_fd = listen_socket cfg.addr in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  let access =
    Option.map
      (fun path ->
        Access_log.open_ ~path ~sample:cfg.log_sample ~slow_ms:cfg.slow_ms)
      cfg.access_log
  in
  let t =
    { cfg; qm = Mutex.create (); qc = Condition.create ();
      room = Condition.create (); queue = Queue.create (); draining = false;
      solving = false; cm = Mutex.create ();
      conns = []; readers = []; pipe_r; pipe_w; access;
      ticker_stop = Atomic.make false }
  in
  let http =
    Option.map (fun port -> Http.start ~port (http_handler t)) cfg.metrics_port
  in
  let ticker = Thread.create ticker_body t in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let on_signal = Sys.Signal_handle (fun _ -> wake t) in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let old_int = Sys.signal Sys.sigint on_signal in
  let dispatcher = Thread.create dispatcher_body t in
  if cfg.banner then begin
    Format.printf "bagcqc serve: listening on %a@." Protocol.pp_addr cfg.addr;
    Option.iter
      (fun h -> Format.printf "bagcqc serve: metrics on 127.0.0.1:%d@." (Http.port h))
      http
  end;
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigpipe old_pipe)
    (fun () ->
      accept_loop t listen_fd;
      (* Drain: no new connections or work; every queued request is still
         answered before any socket closes.  The telemetry listener stays
         up through the whole drain — that is what lets a load balancer
         watch /readyz flip to 503 while in-flight work completes. *)
      initiate_drain t;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match cfg.addr with
       | Protocol.Unix_path path ->
         (try Unix.unlink path with Unix.Unix_error _ -> ())
       | Protocol.Tcp _ -> ());
      Thread.join dispatcher;
      Bagcqc_par.Pool.quiesce ();
      (* Readers may be parked in input_line; shutting the sockets down
         gives them EOF, then they can be joined. *)
      Mutex.lock t.cm;
      let conns = t.conns and readers = t.readers in
      Mutex.unlock t.cm;
      List.iter
        (fun c ->
          try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ())
        conns;
      List.iter Thread.join readers;
      Atomic.set t.ticker_stop true;
      Thread.join ticker;
      Option.iter Http.stop http;
      Option.iter Access_log.close t.access;
      (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
      (try Unix.close t.pipe_w with Unix.Unix_error _ -> ()))
