#!/usr/bin/env bash
# End-to-end smoke test of the distributed runtime:
#   generate synthetic blobs → start 1 coordinator + 2 workers as real
#   OS processes → run `cluster --dist` against the coordinator → diff
#   the assignments against single-process `--dist local` → pack a
#   larger dataset into a .dstr store and submit it BY REFERENCE
#   (shard-addressed tasks, workers pull shards through their caches)
#   with --trace-out while killing one worker mid-job and verify the
#   job still completes bit-identical to the inline single-process run,
#   the merged Chrome trace spans the coordinator plus both worker
#   lanes with the killed worker's task visible as a retried event →
#   scrape the federated metrics over both the wire protocol and the
#   coordinator's HTTP /metrics endpoint, asserting per-worker labeled
#   series including the shard-cache counters.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${DIST_SMOKE_PORT:-17979}"
HTTP_PORT=$((PORT + 1))
ADDR="127.0.0.1:$PORT"
HTTP_ADDR="127.0.0.1:$HTTP_PORT"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/dasc-dist-smoke.XXXXXX")"
COORD_PID=""
W1_PID=""
W2_PID=""

cleanup() {
    for pid in "$W1_PID" "$W2_PID" "$COORD_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for pid in "$W1_PID" "$W2_PID" "$COORD_PID"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "DIST SMOKE FAIL: $*" >&2; exit 1; }

scrape_http_metrics() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$HTTP_ADDR/metrics"
    else
        python3 -c "import urllib.request; \
            print(urllib.request.urlopen('http://$HTTP_ADDR/metrics').read().decode())"
    fi
}

echo "== build =="
cargo build --release -q -p dasc-cli

DASC=target/release/dasc

echo "== generate =="
"$DASC" generate --kind blobs --n 600 --d 8 --k 4 --seed 11 \
    --output "$WORK/pts.csv"

echo "== start cluster (1 coordinator + 2 workers) =="
"$DASC" coordinator --addr 127.0.0.1 --port "$PORT" --http-port "$HTTP_PORT" \
    >"$WORK/coord.log" 2>&1 &
COORD_PID=$!
for _ in $(seq 1 50); do
    grep -q 'coordinator listening' "$WORK/coord.log" 2>/dev/null && break
    kill -0 "$COORD_PID" 2>/dev/null || { cat "$WORK/coord.log" >&2; fail "coordinator died"; }
    sleep 0.2
done
grep -q 'coordinator listening' "$WORK/coord.log" || fail "coordinator never became ready"

"$DASC" worker --coordinator "$ADDR" --name smoke-w1 >"$WORK/w1.log" 2>&1 &
W1_PID=$!
"$DASC" worker --coordinator "$ADDR" --name smoke-w2 >"$WORK/w2.log" 2>&1 &
W2_PID=$!
for _ in $(seq 1 50); do
    kill -0 "$W1_PID" 2>/dev/null || { cat "$WORK/w1.log" >&2; fail "worker 1 died"; }
    kill -0 "$W2_PID" 2>/dev/null || { cat "$WORK/w2.log" >&2; fail "worker 2 died"; }
    REGISTERED="$("$DASC" dist-metrics --coordinator "$ADDR" 2>/dev/null \
        | awk '/^dasc_dist_workers_registered_total /{print $2}')" || REGISTERED=0
    [ "${REGISTERED:-0}" -ge 2 ] 2>/dev/null && break
    sleep 0.2
done
[ "${REGISTERED:-0}" -ge 2 ] || fail "workers never registered (saw '${REGISTERED:-}')"

echo "== distributed vs single-process =="
"$DASC" cluster --input "$WORK/pts.csv" --k 4 --seed 11 --labels-last-column \
    --dist "$ADDR" --output "$WORK/dist.csv" | tee "$WORK/dist.log"
grep -q "dist($ADDR)" "$WORK/dist.log" || fail "distributed run produced no dist report"

"$DASC" cluster --input "$WORK/pts.csv" --k 4 --seed 11 --labels-last-column \
    --dist local --output "$WORK/local.csv" | tee "$WORK/local.log"
grep -q 'dist(local)' "$WORK/local.log" || fail "local run produced no dist report"

diff -q "$WORK/dist.csv" "$WORK/local.csv" \
    || fail "distributed assignments differ from single-process"
echo "assignments bit-identical across 2 workers vs single process"

echo "== pack a store for the shard-addressed job =="
"$DASC" generate --kind blobs --n 20000 --d 24 --k 6 --seed 23 \
    --output "$WORK/big.csv"
"$DASC" pack --input "$WORK/big.csv" --output "$WORK/big.dstr" \
    --shard-rows 2048 --labels-last-column | tee "$WORK/pack.log"
grep -q 'packed 20000 rows' "$WORK/pack.log" || fail "pack reported wrong row count"
"$DASC" inspect --data "$WORK/big.dstr" | tee "$WORK/inspect.log"
grep -q 'checksums     all' "$WORK/inspect.log" || fail "inspect did not verify checksums"

echo "== kill a worker mid-job (shard-addressed, traced) =="
"$DASC" cluster --data "$WORK/big.dstr" --k 6 --seed 23 \
    --dist "$ADDR" --output "$WORK/big-dist.csv" \
    --trace-out "$WORK/trace.json" >"$WORK/big-dist.log" 2>&1 &
JOB_PID=$!
# Pick the victim dynamically: poll the /workers roster until some
# worker has held the SAME task (in-flight task held, tasks_done
# unchanged) across polls at least 100 ms apart, so the kill provably
# lands mid-task and the task must re-queue as a retried event — not
# just a lost worker. Bucket sizes are skewed, so which worker draws
# the long reduce task varies. One python process does the polling
# (every 20 ms): starting an interpreter per poll took longer than
# the long reduce task lasts. It gives up after 20 s, which only
# happens once the job has ended without a victim.
VICTIM="$(python3 - "http://$HTTP_ADDR/workers" <<'EOF'
import json, sys, time, urllib.request
url = sys.argv[1]
# The roster is on loopback: never route it through a configured proxy.
opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
held_since = {}
give_up = time.monotonic() + 20
while time.monotonic() < give_up:
    try:
        workers = json.loads(opener.open(url, timeout=2).read())["workers"]
    except Exception:
        workers = []
    now = time.monotonic()
    holding = {(w["name"], w["tasks_done"]) for w in workers if w["in_flight"] >= 1}
    held_since = {key: held_since.get(key, now) for key in holding}
    for (name, _), since in held_since.items():
        if now - since >= 0.1:
            print(name)
            sys.exit(0)
    time.sleep(0.02)
EOF
)"
kill -0 "$JOB_PID" 2>/dev/null || { cat "$WORK/big-dist.log" >&2; fail "job finished before the kill — enlarge the dataset"; }
[ -n "$VICTIM" ] || fail "never caught a worker mid-task via /workers"
if [ "$VICTIM" = smoke-w1 ]; then
    SURVIVOR=smoke-w2
    kill -9 "$W1_PID"; wait "$W1_PID" 2>/dev/null || true; W1_PID=""
else
    SURVIVOR=smoke-w1
    kill -9 "$W2_PID"; wait "$W2_PID" 2>/dev/null || true; W2_PID=""
fi
echo "killed $VICTIM mid-task with the job in flight"
wait "$JOB_PID" || { cat "$WORK/big-dist.log" >&2; fail "job did not survive the worker kill"; }
cat "$WORK/big-dist.log"
grep -q 'shard-addressed' "$WORK/big-dist.log" \
    || fail "packed-store job did not run shard-addressed"

# Label diff vs the inline path: the same dataset from its CSV through
# the single-process engine must match the shard-addressed job that
# lost a worker mid-flight.
"$DASC" cluster --input "$WORK/big.csv" --k 6 --seed 23 --labels-last-column \
    --dist local --output "$WORK/big-local.csv" >/dev/null
diff -q "$WORK/big-dist.csv" "$WORK/big-local.csv" \
    || fail "shard-addressed assignments diverged from inline after the worker kill"
echo "shard-addressed assignments bit-identical to inline despite a killed worker"

echo "== merged cluster trace =="
[ -s "$WORK/trace.json" ] || fail "traced run wrote no trace.json"
python3 - "$WORK/trace.json" <<'EOF' || fail "merged trace structure check failed"
import json, sys

events = json.load(open(sys.argv[1]))
lanes = {e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert "coordinator" in lanes, f"no coordinator lane in {lanes}"
workers = lanes - {"coordinator"}
assert len(workers) >= 2, f"want >=2 worker lanes, got {workers}"
spans = {e["name"] for e in events if e.get("ph") == "X"}
for want in ("dist.job", "dist.stage1", "dist.stage2", "dist.task.map"):
    assert want in spans, f"missing span {want}"
instants = [e["name"] for e in events if e.get("ph") == "i"]
assert any("retried" in n for n in instants), \
    f"killed worker's task never shows as retried: {instants}"
print(f"trace OK: lanes={sorted(lanes)}, {len(events)} events, "
      f"retry markers={[n for n in instants if 'retried' in n][:2]}")
EOF

echo "== dist metrics =="
METRICS="$("$DASC" dist-metrics --coordinator "$ADDR")"
# (awk, not `head`: head exits early and SIGPIPEs grep under pipefail)
echo "$METRICS" | grep '^dasc_dist' | awk 'NR <= 15'
for series in \
    dasc_dist_tasks_assigned_total \
    dasc_dist_tasks_completed_total \
    dasc_dist_workers_registered_total \
    dasc_dist_workers_lost_total \
    dasc_dist_jobs_total \
    dasc_dist_shuffle_records_total \
    dasc_dist_heartbeats_total \
    dasc_store_shards_served_total \
    dasc_net_frames_sent_total \
    dasc_net_frames_received_total; do
    case "$METRICS" in
        *"$series"*) ;;
        *) fail "metrics missing series $series" ;;
    esac
done
LOST="$(echo "$METRICS" | awk '/^dasc_dist_workers_lost_total /{print $2}')"
[ "${LOST:-0}" -ge 1 ] || fail "coordinator never recorded the killed worker (lost=$LOST)"

echo "== federated metrics over HTTP =="
HTTP_METRICS="$(scrape_http_metrics)" \
    || fail "GET /metrics from the coordinator HTTP endpoint failed"
# Task lifecycle histograms must carry per-stage labels, and the
# coordinator-side per-worker series must cover BOTH workers — including
# the one killed mid-job (post-mortems need the dead worker's numbers).
echo "$HTTP_METRICS" | grep -q 'dasc_dist_task_duration_us_count{stage="map"' \
    || fail "HTTP /metrics missing per-stage task duration histogram"
for w in smoke-w1 smoke-w2; do
    echo "$HTTP_METRICS" | grep -q "dasc_dist_task_duration_us.*worker=\"$w\"" \
        || fail "HTTP /metrics missing task duration series for $w"
done
echo "$HTTP_METRICS" | grep -q '^dasc_dist_stragglers' \
    || fail "HTTP /metrics missing the straggler gauge"
# Heartbeat federation: the surviving worker's own registry re-labeled.
echo "$HTTP_METRICS" | grep -q "worker=\"$SURVIVOR\"" \
    || fail "HTTP /metrics has no federated series for $SURVIVOR"
# The shard-addressed job leaves its cache telemetry behind: misses on
# the workers (federated via heartbeats) and serves on the coordinator.
echo "$HTTP_METRICS" | grep -q 'dasc_store_shard_cache_misses_total' \
    || fail "HTTP /metrics missing federated shard cache counters"
echo "$HTTP_METRICS" | grep -q 'dasc_store_shards_served_total' \
    || fail "HTTP /metrics missing the coordinator's shards-served counter"
echo "per-worker federation visible over HTTP (both workers, straggler gauge, shard cache)"

echo "DIST SMOKE PASS"
