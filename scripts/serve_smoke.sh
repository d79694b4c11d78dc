#!/usr/bin/env bash
# End-to-end smoke of the always-on analysis daemon — the exact
# transcript TUTORIAL.md section 7 walks through, kept runnable so CI
# replays it verbatim (the serve-smoke job):
#
#   1. record a racy and a clean kernel trace offline,
#   2. analyze both offline and keep their verdict digests,
#   3. boot `rma_race serve` on an ephemeral port with the event
#      journal on,
#   4. run two client sessions (racy, clean) plus one that hangs up
#      mid-stream, then scrape /healthz and /metrics from the daemon's
#      own port while it is live,
#   5. assert the streamed digests byte-equal the offline ones,
#   6. check that a trace cut before its footer fails analyze (exit 2,
#      no digest), that a fail-fast budget ends analyze and a session
#      on the same file with the same reason, and that the client
#      refuses a piped trace given without --nprocs, and
#   7. shut the daemon down cleanly and check the journal saw it all.
#
# Usage: scripts/serve_smoke.sh [workdir]
#   DUNE="opam exec -- dune" scripts/serve_smoke.sh   # under opam (CI)

set -euo pipefail

DUNE=${DUNE:-dune}
WORK=${1:-$(mktemp -d)}
mkdir -p "$WORK"
echo "serve_smoke: working in $WORK"

RACY_KERNEL=rrb_lockall_remote_conflict_put_put_race
CLEAN_KERNEL=rrb_lockall_remote_disjoint_put_put_safe

# --- 1+2: offline reference ------------------------------------------------
$DUNE exec bin/rma_race_cli.exe -- record "$RACY_KERNEL" --out "$WORK/racy.rma"
$DUNE exec bin/rma_race_cli.exe -- record "$CLEAN_KERNEL" --out "$WORK/clean.rma"
$DUNE exec bin/rma_race_cli.exe -- analyze "$WORK/racy.rma" | tee "$WORK/racy.offline.txt"
$DUNE exec bin/rma_race_cli.exe -- analyze "$WORK/clean.rma" | tee "$WORK/clean.offline.txt"
RACY_DIGEST=$(sed -n 's/^digest: //p' "$WORK/racy.offline.txt")
CLEAN_DIGEST=$(sed -n 's/^digest: //p' "$WORK/clean.offline.txt")
test -n "$RACY_DIGEST" && test -n "$CLEAN_DIGEST"

# --- 3: boot the daemon -----------------------------------------------------
$DUNE exec bin/rma_race_cli.exe -- serve --port 0 --max-sessions 4 \
  --obs-events "$WORK/serve-events.jsonl" \
  >"$WORK/serve-stdout.log" 2>"$WORK/serve-stderr.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

PORT=""
for _ in $(seq 1 150); do
  PORT=$(sed -n 's/^serve-port: //p' "$WORK/serve-stderr.log" | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.2
done
test -n "$PORT"
echo "serve_smoke: daemon on port $PORT"

# --- 4: two sessions + one churn client ------------------------------------
$DUNE exec examples/serve_client.exe -- --port "$PORT" \
  --trace "$WORK/racy.rma" --session racy-smoke | tee "$WORK/racy.session.txt"
$DUNE exec examples/serve_client.exe -- --port "$PORT" \
  --trace "$WORK/clean.rma" --session clean-smoke | tee "$WORK/clean.session.txt"
# A client that vanishes mid-stream must not disturb anything else.
$DUNE exec examples/serve_client.exe -- --port "$PORT" \
  --trace "$WORK/racy.rma" --session churn-smoke --abort-after 7

# Scrape the daemon's own port while it is live (bash /dev/tcp, so no
# curl is needed): the per-session run ids must be labelled, and the
# registry's families are there because the journal turned Obs on.
http_get() {
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&-
}
http_get /healthz >"$WORK/healthz.txt"
grep -q '^HTTP/1.1 200 OK' "$WORK/healthz.txt"
http_get /metrics >"$WORK/metrics.txt"
grep -q '^HTTP/1.1 200 OK' "$WORK/metrics.txt"
grep -q '^rma_run_info{run_id=' "$WORK/metrics.txt"
grep -q '^rma_session_info{' "$WORK/metrics.txt"
grep -q 'session="racy-smoke"' "$WORK/metrics.txt"
grep -q 'state="closed:completed"' "$WORK/metrics.txt"
grep -q '^rma_serve_sessions_completed 2' "$WORK/metrics.txt"
grep -q '^rma_telemetry_peak_rss_bytes' "$WORK/metrics.txt"
grep -q '^rma_analyzer_epoch_close_ns_count' "$WORK/metrics.txt"
echo "serve_smoke: /metrics on the daemon's port labels sessions by run_id"

# --- 5: verdict assertions ---------------------------------------------------
grep -q '"type":"race"' "$WORK/racy.session.txt"
grep -q "\"digest\":\"$RACY_DIGEST\"" "$WORK/racy.session.txt"
grep -q "\"digest\":\"$CLEAN_DIGEST\"" "$WORK/clean.session.txt"
if grep -q '"type":"race"' "$WORK/clean.session.txt"; then
  echo "serve_smoke: FAIL — clean session streamed a race" >&2
  exit 1
fi
echo "serve_smoke: streamed digests byte-equal the offline analyze path"

# --- 6: failures, offline and served ---------------------------------------
head -n -1 "$WORK/racy.rma" >"$WORK/racy.cut.rma"
status=0
$DUNE exec bin/rma_race_cli.exe -- analyze "$WORK/racy.cut.rma" >"$WORK/cut.offline.txt" \
  2>"$WORK/cut.offline.err" || status=$?
cat "$WORK/cut.offline.err"
test "$status" -eq 2
if grep -q '^digest:' "$WORK/cut.offline.txt"; then
  echo "serve_smoke: FAIL — a trace without its footer printed a digest" >&2
  exit 1
fi

status=0
$DUNE exec bin/rma_race_cli.exe -- analyze --budget nodes=1,policy=fail "$WORK/clean.rma" \
  >/dev/null 2>"$WORK/budget.offline.err" || status=$?
test "$status" -eq 2
status=0
$DUNE exec examples/serve_client.exe -- --port "$PORT" --trace "$WORK/clean.rma" \
  --session budget-smoke --budget nodes=1,policy=fail >"$WORK/budget.session.txt" || status=$?
test "$status" -eq 3
OFFLINE_REASON=$(grep -o 'budget exhausted: .*' "$WORK/budget.offline.err")
SERVED_REASON=$(sed -n 's/.*"reason":"\(budget exhausted: [^"]*\)".*/\1/p' "$WORK/budget.session.txt")
echo "serve_smoke: offline: $OFFLINE_REASON"
echo "serve_smoke: served:  $SERVED_REASON"
test -n "$OFFLINE_REASON" && test "$OFFLINE_REASON" = "$SERVED_REASON"
echo "serve_smoke: a cut trace fails analyze; a fail-fast budget gives one reason on both paths"

# A piped trace cannot be read twice, so without --nprocs the client
# refuses it before connecting rather than failing to infer the ranks.
status=0
cat "$WORK/racy.rma" | $DUNE exec examples/serve_client.exe -- --port "$PORT" \
  --trace /dev/stdin --session pipe-smoke >"$WORK/pipe.session.txt" \
  2>"$WORK/pipe.session.err" || status=$?
cat "$WORK/pipe.session.err"
test "$status" -eq 2
grep -q 'not a regular file.*give --nprocs' "$WORK/pipe.session.err"
echo "serve_smoke: a piped trace without --nprocs is refused up front"

# --- 7: clean shutdown -------------------------------------------------------
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep -q 'serve: .* accepted' "$WORK/serve-stdout.log"
grep -q '"event":"serve_start"' "$WORK/serve-events.jsonl"
grep -q '"event":"session_admitted"' "$WORK/serve-events.jsonl"
grep -q '"event":"session_summary"' "$WORK/serve-events.jsonl"
grep -q '"reason":"disconnected"' "$WORK/serve-events.jsonl"
grep -q '"event":"serve_stop"' "$WORK/serve-events.jsonl"
echo "serve_smoke: OK"
