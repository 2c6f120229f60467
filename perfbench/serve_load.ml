(* Load generator for a [bagcqc serve --jobs 1] daemon on a Unix socket.

   One connection, one thread: requests go out on a fixed schedule
   (open loop) and replies are read whenever the socket is readable, so
   a slow reply never delays the next send.  Each request is timed from
   the moment it was due, which charges a daemon stall to every request
   queued behind it; how late the sender itself ran is reported apart. *)

module Json = Bagcqc_obs.Json

type conn = {
  pid : int;
  fd : Unix.file_descr;
  pending : Buffer.t;  (** bytes after the last complete reply line *)
  chunk : Bytes.t;
}

let daemon_exe () =
  (* _build/default/perfbench/perfbench.exe -> _build/default/bin/main.exe *)
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat root "bin") "main.exe"

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c line = write_all c.fd (line ^ "\n") 0

(* Block until at least one byte arrives; return the complete lines. *)
let read_lines c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "serve daemon closed the connection";
  Buffer.add_subbytes c.pending c.chunk 0 n;
  let data = Buffer.contents c.pending in
  match String.rindex_opt data '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending
      (String.sub data (last + 1) (String.length data - last - 1));
    String.split_on_char '\n' (String.sub data 0 last)

let rec reap ~deadline pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Ledger.now_ns () < deadline ->
    Unix.sleepf 0.01;
    reap ~deadline pid
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()

let start ~socket =
  let exe = daemon_exe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--jobs"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = Ledger.now_ns () + 30_000_000_000 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Ledger.now_ns () < deadline
           && fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 ->
      Unix.close fd;
      Unix.sleepf 0.001;
      connect ()
  in
  match connect () with
  | fd -> { pid; fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }
  | exception e ->
    reap ~deadline:0 pid;
    raise e

(* One request with nothing else in flight. *)
let request c json =
  send c (Json.to_string json);
  let rec next () = match read_lines c with [] -> next () | l :: _ -> l in
  Json.parse (next ())

let stop c =
  (try ignore (request c (Json.Obj [ ("op", Json.Str "shutdown") ]))
   with _ -> ());
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  reap ~deadline:(Ledger.now_ns () + 10_000_000_000) c.pid

let ping c =
  match Json.find_opt "pong" (request c (Json.Obj [ ("op", Json.Str "ping") ])) with
  | Some (Json.Bool true) -> ()
  | _ -> failwith "serve daemon did not answer ping"

let check_line id (i : Inputs.check) =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Num (float_of_int id)); ("op", Json.Str "check");
         ("q1", Json.Str i.q1); ("q2", Json.Str i.q2) ])

(* A reply's id and its verdict, or ["error:KIND"]. *)
let parse_reply line =
  let j = Json.parse line in
  let id = Json.as_int (Json.member "id" j) in
  match Json.find_opt "verdict" j with
  | Some v -> (id, Json.as_str v)
  | None -> (
    match Json.find_opt "error" j with
    | Some e -> (id, "error:" ^ Json.as_str (Json.member "kind" e))
    | None -> (id, "error:malformed_reply"))

(* Closed loop with [window] requests in flight, untimed: fills the
   daemon's cache.  Returns the replies' verdicts in request order. *)
let pipelined c ~window (lines : string array) =
  let n = Array.length lines in
  let verdicts = Array.make n "error:no_reply" in
  let sent = ref 0 and got = ref 0 in
  while !got < n do
    while !sent < n && !sent - !got < window do
      send c lines.(!sent);
      incr sent
    done;
    List.iter
      (fun l ->
        let id, v = parse_reply l in
        verdicts.(id) <- v;
        incr got)
      (read_lines c)
  done;
  verdicts

type open_loop = {
  latency_ns : int array;  (** per request: due time -> reply read *)
  late_ns : int array;     (** per request: due time -> send *)
  verdicts : string array; (** per request; ["error:no_reply"] if none came *)
  wall_s : float;          (** first due time -> last reply *)
}

(* Send [lines] at [rate] per second; wait up to [drain_s] after the
   last send for the remaining replies. *)
let open_loop c ~rate ~drain_s (lines : string array) =
  let n = Array.length lines in
  let gap = 1e9 /. float_of_int rate in
  let verdicts = Array.make n "error:no_reply" in
  let latency_ns = Array.make n (-1) and late_ns = Array.make n 0 in
  let t0 = Ledger.now_ns () in
  let due i = t0 + int_of_float (float_of_int i *. gap) in
  let next = ref 0 and got = ref 0 and last_reply = ref t0 in
  let give_up = ref max_int in
  while !got < n && Ledger.now_ns () < !give_up do
    let now = Ledger.now_ns () in
    if !next < n && now >= due !next then begin
      let i = !next in
      send c lines.(i);
      let sent_at = Ledger.now_ns () in
      late_ns.(i) <- sent_at - due i;
      incr next;
      if !next = n then give_up := sent_at + int_of_float (drain_s *. 1e9)
    end
    else begin
      let wait =
        if !next < n then float_of_int (due !next - now) *. 1e-9 else 0.05
      in
      match Unix.select [ c.fd ] [] [] wait with
      | [], _, _ -> ()
      | _ ->
        let replies = read_lines c in
        let t = Ledger.now_ns () in
        List.iter
          (fun l ->
            let id, v = parse_reply l in
            verdicts.(id) <- v;
            latency_ns.(id) <- t - due id;
            last_reply := t;
            incr got)
          replies
    end
  done;
  { latency_ns; late_ns; verdicts;
    wall_s = float_of_int (!last_reply - t0) *. 1e-9 }

(* ---------------- daemon-side stats ---------------- *)

type stats = {
  cache_hits : int;
  cache_misses : int;
  errors : int;
  queue : int * float;  (** serve.queue_us (count, sum µs) *)
  solve : int * float;  (** serve.solve_us (count, sum µs) *)
}

let stats c =
  let j = request c (Json.Obj [ ("op", Json.Str "stats") ]) in
  let int name = Json.as_int (Json.member name j) in
  let hist name =
    match Json.find_opt name (Json.member "histograms" j) with
    | None -> (0, 0.0)
    | Some h ->
      let count = Json.as_int (Json.member "count" h) in
      (count, float_of_int count *. Json.as_num (Json.member "mean" h))
  in
  { cache_hits = int "cache_hits"; cache_misses = int "cache_misses";
    errors = int "errors"; queue = hist "serve.queue_us";
    solve = hist "serve.solve_us" }
