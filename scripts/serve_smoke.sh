#!/usr/bin/env bash
# End-to-end smoke of the containment daemon over a real Unix socket:
# boots `bagcqc serve` as a separate process with tracing on, drives it
# with `bagcqc client`, and checks the full lifecycle the unit tests can
# only approximate in-process:
#
#   1. in-process protocol selftest (`serve --selftest`)
#   2. cold check answered with a verified certificate
#   3. cached re-check + stats: re-checking the Contained pair is a
#      decision-memo hit (cache_hits >= 1, lp_solves unchanged) that still
#      carries its certificate, and the reply's "counters" object shows
#      cone.lazy.probe_certs >= 1; a Not-contained check solves an LP
#      (its two Eq. 8 sides defeat the Nn generator presolve)
#   4. malformed line and zero deadline answered with typed errors,
#      connection and daemon both surviving
#   5. graceful drain on SIGTERM: exit 0, socket file removed, trace
#      artifact written and readable by `bagcqc report`
#   6. restart on the same socket path: both verdicts correct, the
#      Contained reply still carrying its certificate
#   7. telemetry surface: /metrics is valid Prometheus exposition
#      (validated by `bagcqc promlint`) with serve latency histograms,
#      queue/in-flight gauges, rolling 1m rates and the three Nn
#      presolve outcomes (each driven once); /healthz answers ok; the
#      slow request's access-log line carries its span subtree; the
#      trace's counters in `bagcqc report` show the presolve outcomes
#   8. /readyz flips to 503 during a SIGTERM drain (the signal lands
#      while a ~1 s cold check is in flight, after a burst of cold
#      checks was admitted) and the drain still answers every admitted
#      request
#
# Run from the repo root (CI's serve-smoke job, or `make serve-smoke`).
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/main.exe
BIN=_build/default/bin/main.exe

DIR=$(mktemp -d)
SOCK="$DIR/serve.sock"
TRACE="${TRACE_OUT:-$DIR/serve-trace.json}"
ACCESS="${ACCESS_OUT:-$DIR/serve-access.jsonl}"
LOG="$DIR/serve.log"
SERVER_PID=""

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  cat "$LOG" >&2 2>/dev/null || true
  exit 1
}

step() { echo "serve_smoke: $*"; }

start_daemon() {
  "$BIN" serve --socket "$SOCK" --jobs 2 "$@" \
    >>"$LOG" 2>&1 &
  SERVER_PID=$!
}

stop_daemon() {
  kill -TERM "$SERVER_PID"
  local code=0
  wait "$SERVER_PID" || code=$?
  SERVER_PID=""
  [ "$code" -eq 0 ] || fail "daemon exited $code on SIGTERM (want 0)"
  [ -S "$SOCK" ] && fail "socket file survived the drain"
  return 0
}

# client REQUEST...: send each line on one connection, print the replies.
client() {
  local args=()
  local r
  for r in "$@"; do args+=(--send "$r"); done
  "$BIN" client --socket "$SOCK" --retry-ms 5000 "${args[@]}"
}

CHECK_CONTAINED='{"id":1,"op":"check","q1":"R(x,y), R(y,z), R(z,x)","q2":"R(u,v), R(u,w)","certificate":true}'
CHECK_NOT_CONTAINED='{"id":2,"op":"check","q1":"R(x,y), R(x,z)","q2":"R(u,v), R(w,v)"}'
# Nn settled by the generator presolve: one step function refutes the
# first pair, one side is non-negative on every generator in the second.
CHECK_ONE_GENERATOR='{"id":6,"op":"check","q1":"T(x), S(x,y)","q2":"T(u)"}'
CHECK_ONE_SIDE='{"id":7,"op":"check","q1":"R(x,y)","q2":"R(u,v), R(u,w)"}'
STATS='{"id":"s","op":"stats"}'

step "1: protocol selftest"
"$BIN" serve --selftest >"$LOG" 2>&1 || fail "serve --selftest failed"

step "2: cold check over the socket"
start_daemon --trace "$TRACE"
out=$(client "$CHECK_CONTAINED") || fail "client exited nonzero"
echo "$out" | grep -q '"verdict":"contained"' || fail "expected a contained verdict, got: $out"
echo "$out" | grep -q '"certificate"' || fail "expected a certificate in: $out"

step "3: cached re-check + stats"
# stats_field NAME LINE: the integer value of NAME in one stats reply.
stats_field() { echo "$2" | grep -o "\"$1\":[0-9]*" | grep -o '[0-9]*$'; }
out=$(client "$STATS" "$CHECK_CONTAINED" "$STATS") || fail "client exited nonzero"
echo "$out" | grep -q '"certificate"' || fail "expected a certificate in: $out"
before=$(echo "$out" | sed -n 1p)
after=$(echo "$out" | sed -n 3p)
[ "$(stats_field cache_hits "$after")" -ge 1 ] \
  && [ "$(stats_field cache_hits "$after")" -eq $(( $(stats_field cache_hits "$before") + 1 )) ] \
  || fail "the re-check should be a decision-memo hit: $out"
[ "$(stats_field lp_solves "$after")" = "$(stats_field lp_solves "$before")" ] \
  || fail "a memo hit must solve no LP: $out"
# The reply's "counters" object carries every registry counter by name,
# including ones no flat key aliases: step 2's cold Contained check was
# certified from the lazy Γn float probe.
[ "$(stats_field 'cone\.lazy\.probe_certs' "$after")" -ge 1 ] \
  || fail "stats counters should show cone.lazy.probe_certs >= 1: $out"
out=$(client "$CHECK_NOT_CONTAINED" "$STATS") || fail "client exited nonzero"
echo "$out" | grep -q '"verdict":"not_contained"' || fail "expected a not_contained verdict, got: $out"
[ "$(stats_field lp_solves "$(echo "$out" | sed -n 2p)")" -gt "$(stats_field lp_solves "$after")" ] \
  || fail "the Not-contained check should solve its Nn LP: $out"

step "4: malformed line and zero deadline get typed errors"
out=$(client 'this is not JSON' \
  '{"id":4,"op":"check","q1":"R(x,y)","q2":"R(x,y)","deadline_ms":0}' \
  '{"id":5,"op":"ping"}') || fail "client exited nonzero"
echo "$out" | grep -q '"kind":"parse"' || fail "expected a parse error in: $out"
echo "$out" | grep -q '"kind":"deadline_exceeded"' || fail "expected a deadline error in: $out"
echo "$out" | grep -q '"pong":true' || fail "connection should survive the errors: $out"

step "5: graceful drain on SIGTERM + trace artifact"
stop_daemon
[ -s "$TRACE" ] || fail "trace artifact missing or empty"
# grep without -q: it must read to EOF, or report dies with SIGPIPE and
# pipefail turns a successful match into a failure.
"$BIN" report "$TRACE" | grep 'serve.request' >/dev/null \
  || fail "trace artifact has no serve.request spans"

step "6: restart on the same socket path"
start_daemon
out=$(client "$CHECK_CONTAINED" "$CHECK_NOT_CONTAINED") || fail "client exited nonzero"
echo "$out" | grep -q '"verdict":"contained"' || fail "restarted verdict wrong: $out"
echo "$out" | grep -q '"certificate"' || fail "restarted Contained check lacks its certificate: $out"
echo "$out" | grep -q '"verdict":"not_contained"' || fail "restarted verdict wrong: $out"
stop_daemon

# Wait for the daemon's banner to announce the (ephemeral) metrics port.
metrics_port() {
  local i port
  for i in $(seq 1 100); do
    port=$(grep -o 'metrics on 127.0.0.1:[0-9]*' "$LOG" | tail -1 | grep -o '[0-9]*$') || true
    [ -n "${port:-}" ] && { echo "$port"; return 0; }
    sleep 0.05
  done
  return 1
}

step "7: telemetry surface (/metrics, /healthz, access log with spans, report)"
: >"$LOG"
METRICS_TRACE="$DIR/metrics-trace.json"
start_daemon --metrics-port 0 --access-log "$ACCESS" --slow-ms 0.001 \
  --trace "$METRICS_TRACE"
PORT=$(metrics_port) || fail "daemon never announced a metrics port"
out=$(client "$CHECK_CONTAINED" "$CHECK_ONE_GENERATOR" "$CHECK_ONE_SIDE") \
  || fail "client exited nonzero"
[ "$(echo "$out" | grep -c '"verdict":"contained"')" -eq 2 ] \
  || fail "telemetry checks wrong: $out"
echo "$out" | grep -q '"verdict":"not_contained"' || fail "telemetry check wrong: $out"
curl -sf "http://127.0.0.1:$PORT/healthz" | grep -q ok || fail "/healthz not ok"
curl -sf "http://127.0.0.1:$PORT/readyz" | grep -q ready || fail "/readyz not ready"
# Let the rolling windows take a sample past the coalescing gap so the
# 1m rate has real coverage, then scrape.
sleep 0.7
METRICS="$DIR/metrics.txt"
curl -sf "http://127.0.0.1:$PORT/metrics" >"$METRICS" || fail "/metrics scrape failed"
"$BIN" promlint "$METRICS" || fail "/metrics is not valid Prometheus exposition"
grep -q '^bagcqc_serve_request_us_bucket{le="+Inf"}' "$METRICS" \
  || fail "serve.request_us histogram missing from /metrics"
grep -q '^bagcqc_serve_queue_depth ' "$METRICS" || fail "queue-depth gauge missing"
grep -q '^bagcqc_serve_in_flight ' "$METRICS" || fail "in-flight gauge missing"
grep -q '^bagcqc_cone_lazy_probe_certs_total [1-9]' "$METRICS" \
  || fail "the Contained check's probe certificate is not counted in /metrics"
grep -q '^bagcqc_cone_lazy_probe_cert_fallbacks_total ' "$METRICS" \
  || fail "probe-certificate fallback counter missing from /metrics"
for outcome in valid refuted lp; do
  grep -q "^bagcqc_cone_presolve_${outcome}_total [1-9]" "$METRICS" \
    || fail "Nn presolve outcome '$outcome' not counted in /metrics"
done
rate=$(grep '^bagcqc_rate_per_sec{counter="serve.requests",window="1m"}' "$METRICS" \
  | awk '{print $2}')
[ -n "$rate" ] || fail "rolling 1m request rate missing from /metrics"
awk -v r="$rate" 'BEGIN { exit (r > 0 ? 0 : 1) }' \
  || fail "rolling 1m request rate is not positive: $rate"
grep -q '"type":"access"' "$ACCESS" || fail "access log has no access lines"
grep -q '"verdict":"contained"' "$ACCESS" || fail "access line lacks the verdict"
# One grep per assertion, not a pipe into grep -q: the slow lines come to
# about 4 KB, so the first grep can still be writing when grep -q has
# matched and exited, and under pipefail its SIGPIPE fails the check.
# "slow" precedes "pivots" and "spans" in every access line.
grep -q '"slow":true.*"spans":' "$ACCESS" \
  || fail "slow request's access line lacks its span subtree"
grep -q '"slow":true.*"pivots":' "$ACCESS" \
  || fail "slow request's access line lacks its pivot count"
stop_daemon
REPORT="$DIR/report.txt"
"$BIN" report "$METRICS_TRACE" >"$REPORT" || fail "bagcqc report failed"
for outcome in valid refuted lp; do
  grep -q "cone\.presolve\.${outcome} " "$REPORT" \
    || fail "Nn presolve outcome '$outcome' missing from bagcqc report"
done

step "8: /readyz flips to 503 during the SIGTERM drain"
: >"$LOG"
start_daemon --metrics-port 0 --access-log "$DIR/access-drain.jsonl"
PORT=$(metrics_port) || fail "daemon never announced a metrics port"
# metric NAME: NAME's value in one /metrics scrape (empty if absent).
metric() {
  curl -s "http://127.0.0.1:$PORT/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}
# await_metrics COND: poll /metrics until the awk condition COND holds
# over r (admitted requests) and f (requests in flight), for up to 10 s.
await_metrics() {
  local i r f
  for i in $(seq 1 1000); do
    r=$(metric bagcqc_serve_requests_total)
    f=$(metric bagcqc_serve_in_flight)
    awk -v r="${r:-0}" -v f="${f:-0}" "BEGIN { exit ($1) ? 0 : 1 }" && return 0
    sleep 0.01
  done
  return 1
}
# A burst of cold checks (distinct relation symbols defeat the decision
# memo) exercises admission under concurrent clients.
BURST=32
for i in $(seq 1 "$BURST"); do
  q=$(python3 -c "import sys; i=int(sys.argv[1]); print(', '.join(f'S{i}(x{j},x{j+1})' for j in range(6)))" "$i")
  client "{\"id\":$i,\"op\":\"check\",\"q1\":\"$q\",\"q2\":\"$q\"}" \
    >>"$DIR/burst-replies.txt" &
done
await_metrics "r >= $BURST" || fail "the burst was never admitted"
# Then one cold check that takes about a second (an 8-cycle against
# itself: the lazy Γn driver at n = 8, measured at 1.1 s on a 2-vCPU
# host).  SIGTERM lands once it is admitted and in flight, so the drain
# lasts at least as long as the rest of its solve, and /readyz is
# polled every 10 ms: the 503 is observable by construction.
CYCLE8=$(python3 -c "print(', '.join(f'C(x{j},x{(j+1)%8})' for j in range(8)))")
client "{\"id\":\"slow\",\"op\":\"check\",\"q1\":\"$CYCLE8\",\"q2\":\"$CYCLE8\"}" \
  >"$DIR/slow-reply.txt" &
await_metrics "r >= $BURST + 1 && f >= 1" \
  || fail "the slow check was never in flight"
kill -TERM "$SERVER_PID"
saw_draining=0
for _ in $(seq 1 500); do
  body=$(curl -s "http://127.0.0.1:$PORT/readyz" || true)
  if echo "$body" | grep -q draining; then saw_draining=1; break; fi
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.01
done
[ "$saw_draining" -eq 1 ] || fail "/readyz never answered 503 draining during the drain"
code=0
wait "$SERVER_PID" || code=$?
SERVER_PID=""
[ "$code" -eq 0 ] || fail "daemon exited $code on SIGTERM (want 0)"
wait  # burst and slow clients
answered=$(grep -c '"ok":' "$DIR/burst-replies.txt" || true)
[ "$answered" -eq "$BURST" ] || fail "drain answered $answered of $BURST burst requests"
grep -q '"verdict":"contained"' "$DIR/slow-reply.txt" \
  || fail "the drain did not answer the check in flight: $(cat "$DIR/slow-reply.txt")"

echo "serve_smoke: OK (8 steps)"
