#!/usr/bin/env bash
# Pipeline benchmark report: build the workspace in release mode, run
# the `bench_pipeline` binary (sequential vs. configured-pool runs at
# two or three dataset sizes), and validate that the machine-readable
# output landed as well-formed JSON with the expected fields.
#
# Output: BENCH_pipeline.json in the repo root (override with
# BENCH_OUT=path). Pass --full (or DASC_SCALE=full) for paper-adjacent
# sizes; set DASC_NUM_THREADS to pin the parallel run's pool width.
#
# Pass --dist as the first argument to benchmark the TCP
# coordinator/worker runtime instead (bench_dist → BENCH_dist.json,
# with per-stage times, worker count, shuffle volume, and the
# telemetry on/off observability overhead; further arguments — e.g.
# --workers 4 — go to bench_dist). The dist check also fails if the
# n=1000 job, inline or by reference, takes 0.25 s or more: half the
# EMR heartbeat, which any sleep-per-poll dispatch would round up to.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=pipeline
if [ "${1:-}" = "--dist" ]; then
    MODE=dist
    shift
fi

OUT="${BENCH_OUT:-BENCH_$MODE.json}"

fail() { echo "BENCH FAIL: $*" >&2; exit 1; }

echo "== build =="
cargo build --release -q -p dasc-bench

echo "== run =="
"target/release/bench_$MODE" --out "$OUT" "$@"

echo "== validate =="
[ -s "$OUT" ] || fail "$OUT missing or empty"

if [ "$MODE" = dist ]; then
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

assert doc["bench"] == "dist", "wrong bench id"
assert doc["workers"] >= 1, "bad worker count"
assert "obs_overhead_pct" in doc, "missing obs_overhead_pct (telemetry on/off delta)"
assert isinstance(doc["obs_overhead_pct"], (int, float)), "obs_overhead_pct not numeric"
assert doc["obs_overhead_pct"] > -100, "telemetry-off run took non-positive time?"
runs = doc["runs"]
assert len(runs) >= 2, f"expected >=2 sizes, got {len(runs)} runs"
for run in runs:
    assert run["n"] > 0 and run["workers"] >= 1
    assert run["total_s"] > 0 and run["points_per_s"] > 0
    assert run["shuffle_records"] > 0 and run["shuffle_bytes"] > 0
    assert run["ref_total_s"] > 0, "missing shard-addressed timing"
    assert run["shuffle_bytes_ref"] > 0, "missing shard-addressed shuffle volume"
    # Tasks ship shard tables instead of points, for inline and ref
    # submissions alike: by n=4000 each job's shuffle volume must be at
    # least 5x below the point bytes of shipping every point once per
    # stage, 2*n*(4+8*dim).
    if run["n"] >= 4000:
        point_bytes = 2 * run["n"] * (4 + 8 * run["dim"])
        for key in ("shuffle_bytes", "shuffle_bytes_ref"):
            ratio = point_bytes / run[key]
            assert ratio >= 5.0, (
                f"n={run['n']}: {key} {run[key]} only {ratio:.2f}x below "
                f"the {point_bytes} point bytes, want >= 5x"
            )
    stages = run["stages_s"]
    for stage in ("map", "reduce"):
        assert stage in stages, f"stages_s missing {stage}"
        assert stages[stage] >= 0, f"negative {stage} time"
    # Long-polled dispatch: a small job must not wait out poll sleeps.
    # 0.25 s is half the 500 ms EMR heartbeat.
    if run["n"] == 1000:
        for key in ("total_s", "ref_total_s"):
            assert run[key] < 0.25, (
                f"n=1000: {key} {run[key]:.3f}s, want < 0.25s "
                f"(half the EMR heartbeat)"
            )
print(
    f"OK: {len(runs)} runs on {doc['workers']} workers, "
    f"observability overhead {doc['obs_overhead_pct']:+.1f}%"
)
for run in runs:
    print(
        f"  n={run['n']}: {run['total_s']:.3f}s, "
        f"{run['points_per_s']:.0f} points/s, "
        f"{run['shuffle_bytes']} bytes shuffled inline, "
        f"{run['shuffle_bytes_ref']} by ref"
    )
EOF
    else
        for key in '"bench": "dist"' '"runs"' '"shuffle_bytes"' '"shuffle_bytes_ref"' '"stages_s"' '"obs_overhead_pct"'; do
            grep -q "$key" "$OUT" || fail "$OUT missing $key"
        done
        echo "OK (python3 unavailable; key-presence check only)"
    fi
    echo "BENCH PASS: $OUT"
    exit 0
fi

if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

assert doc["bench"] == "pipeline", "wrong bench id"
assert doc["parallel_threads"] >= 1, "bad thread count"

# Kernel backend: the resolved dispatch target plus the per-backend
# micro-kernel throughput sweep.
assert doc.get("kernel_backend") in ("scalar", "avx2fma", "neon"), (
    f"bad kernel_backend {doc.get('kernel_backend')!r}"
)
kg = doc["kernel_gram_gflops"]
assert isinstance(kg, dict) and "scalar" in kg, "kernel_gram_gflops missing scalar entry"
assert doc["kernel_backend"] in kg, "resolved backend missing from kernel_gram_gflops"
for name, gflops in kg.items():
    assert name in ("scalar", "avx2fma", "neon"), f"unknown backend {name!r}"
    assert gflops > 0, f"non-positive gram gflops for {name}"
simd = {n: g for n, g in kg.items() if n != "scalar"}
if simd:
    best_name, best = max(simd.items(), key=lambda kv: kv[1])
    ratio = best / kg["scalar"]
    print(f"kernel: {best_name} {best:.2f} GFLOP/s vs scalar {kg['scalar']:.2f} "
          f"({ratio:.2f}x)")
    assert ratio >= 2.0, (
        f"SIMD backend {best_name} only {ratio:.2f}x over scalar (want >= 2x)"
    )

runs = doc["runs"]
assert len(runs) >= 4, f"expected >=2 sizes x 2 thread counts, got {len(runs)} runs"
for run in runs:
    assert run["n"] > 0 and run["threads"] >= 1
    assert run["total_s"] > 0 and run["points_per_s"] > 0
    assert "gram_gflops" in run, "missing gram_gflops (micro-kernel throughput)"
    assert run["gram_gflops"] >= 0, "negative gram_gflops"
    assert run.get("eigen_path") in ("dense_full", "dense_k", "lanczos"), (
        f"bad eigen_path {run.get('eigen_path')!r}"
    )
    stages = run["stages_s"]
    assert stages, "stages_s missing or empty"
    for stage in ("lsh", "bucketing", "gram", "clustering",
                  "laplacian", "eigen", "kmeans"):
        assert stage in stages, f"stages_s missing {stage}"
        assert stages[stage] >= 0, f"negative {stage} time"
    # The substages partition the clustering stage; per-bucket sums can
    # exceed the wall-clock figure when several workers overlap, but a
    # non-trivial run must spend *something* in the eigensolve.
    if run["n"] >= 1000:
        assert stages["eigen"] > 0, "eigen substage empty on a non-trivial run"
        assert stages["kmeans"] > 0, "kmeans substage empty on a non-trivial run"
assert len(doc["speedup"]) * 2 == len(runs), "one speedup entry per size"
# Regression floor on the parallel speedup. With a 1-wide pool the
# bench reuses the sequential run, so the speedup is exactly 1.0; on
# real multi-thread pools the small-n sequential threshold keeps tiny
# runs off the pool, and anything below 0.95 means thread fan-out is
# again costing more than it buys (0.05 is scheduling noise headroom
# for shared runners).
floor = 1.0 if doc["parallel_threads"] == 1 else 0.95
for s in doc["speedup"]:
    assert s["speedup"] >= floor, (
        f"n={s['n']}: speedup {s['speedup']:.3f} below floor {floor}"
    )
print(f"OK: {len(runs)} runs at {doc['parallel_threads']} parallel threads, "
      f"kernel_backend {doc['kernel_backend']}")
for s in doc["speedup"]:
    print(f"  n={s['n']}: speedup {s['speedup']:.2f}x")
EOF
else
    # Fallback: at least confirm the expected keys are present.
    for key in '"bench": "pipeline"' '"runs"' '"speedup"' '"stages_s"' '"gram_gflops"' '"eigen_path"' '"laplacian"' '"eigen"' '"kmeans"' '"kernel_backend"' '"kernel_gram_gflops"'; do
        grep -q "$key" "$OUT" || fail "$OUT missing $key"
    done
    echo "OK (python3 unavailable; key-presence check only)"
fi

echo "BENCH PASS: $OUT"
