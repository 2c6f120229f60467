(** [bagcqc top] — live terminal dashboard over a daemon's [stats] verb.

    Polls [stats] every interval and redraws one frame: queue depth and
    in-flight gauges, rolling 1m/5m counter rates, latency-histogram
    percentiles and the decision-cache hit ledger.  All numbers are
    computed server-side; this module renders the reply JSON. *)

val render : ?now:float -> addr:string -> Bagcqc_obs.Json.t -> string
(** One dashboard frame for a [stats] reply.  [now] stamps the header
    (defaults to the epoch so tests are deterministic); [addr] is the
    daemon address shown in the header. *)

val run : addr:Protocol.addr -> interval:float -> once:bool -> int
(** Connect and poll until the server closes the connection (exit 0) or
    a reply fails to parse (exit 1).  [once] prints a single frame and
    returns instead of looping; otherwise each frame redraws the
    terminal via ANSI home+clear. *)
