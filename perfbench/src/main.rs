//! The repository benchmark. See `METRICS.md` beside this package for
//! what each workload and metric means.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set, measured through the top-level
//! entry points only; with `--trace 1` they are the per-layer set, and
//! a Chrome trace of the benchmark's spans is written under `out/`.

mod dist;
mod harness;
mod pipeline;
mod procfs;
mod prom;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use dasc_serve::JsonValue;
use harness::{json_str, provenance, result_json, ChildProc, Outcome};

pub const WORKLOADS: [&str; 3] = [
    pipeline::BLOBS_LANCZOS.name,
    pipeline::GRID_DENSE_K.name,
    dist::NAME,
];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("points_per_s", "points/s"),
    ("op_s_p50", "s"),
    ("op_s_p99", "s"),
    ("peak_rss_mib", "MiB"),
    ("accuracy", "ratio"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
];

/// Layers the traced run's spans are attributed to (a span's name up to
/// its first dot).
pub const LAYERS: [&str; 9] = [
    "bench", "lsh", "kernel", "spectral", "core", "pool", "dist", "net", "serve",
];

/// Per-layer metrics: `(name, unit)`, in report order. The
/// `self_s_per_op.<layer>` entries follow from [`LAYERS`].
pub const PER_LAYER: [(&str, &str); 53] = [
    ("lsh.partition_s", "s"),
    ("lsh.buckets", "count"),
    ("lsh.bucket_max", "count"),
    ("lsh.gram_entries", "count"),
    ("kernel.gram_s", "s"),
    ("kernel.gram_gflops", "GFLOP/s"),
    ("kernel.gram_bytes", "B"),
    ("kernel.sq_dists_gflops.scalar", "GFLOP/s"),
    ("kernel.sq_dists_gflops.avx2fma", "GFLOP/s"),
    ("spectral.laplacian_cpu_s", "s"),
    ("spectral.eigen_cpu_s.dense_full", "s"),
    ("spectral.eigen_cpu_s.dense_k", "s"),
    ("spectral.eigen_cpu_s.lanczos", "s"),
    ("spectral.kmeans_cpu_s", "s"),
    ("spectral.buckets.dense_full", "count"),
    ("spectral.buckets.dense_k", "count"),
    ("spectral.buckets.lanczos", "count"),
    ("linalg.eigen_ms.dense_k.n256", "ms"),
    ("linalg.eigen_ms.dense_k.n512", "ms"),
    ("linalg.eigen_ms.dense_k.n1024", "ms"),
    ("linalg.eigen_ms.lanczos.n256", "ms"),
    ("linalg.eigen_ms.lanczos.n512", "ms"),
    ("linalg.eigen_ms.lanczos.n1024", "ms"),
    ("linalg.eigen_ms.dense_full.n256", "ms"),
    ("linalg.eigen_ms.dense_full.n512", "ms"),
    ("core.cluster_wall_s", "s"),
    ("pool.busy_share", "ratio"),
    ("pool.straggler_share", "ratio"),
    ("pool.speedup_vs_1t", "x"),
    ("core.consolidate_s", "s"),
    ("dist.stage1_s", "s"),
    ("dist.stage2_s", "s"),
    ("dist.client_overhead_s", "s"),
    ("dist.polls_per_job", "count"),
    ("dist.task_cpu_s", "s"),
    ("dist.worker_idle_share", "ratio"),
    ("dist.task_retries", "count"),
    ("dist.op_s_p50.inline", "s"),
    ("dist.op_s_p50.ref", "s"),
    ("net.rpcs_per_job", "count"),
    ("net.shuffle_bytes_per_job.inline", "B"),
    ("net.shuffle_bytes_per_job.ref", "B"),
    ("store.pack_s", "s"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.shard_fetch_s_per_job", "s"),
    ("serve.engine_assign_us_p50", "us"),
    ("serve.http_overhead_us_p50", "us"),
    ("serve.batch_points_per_s", "points/s"),
    ("serve.route_share.exact", "ratio"),
    ("serve.route_share.neighbor", "ratio"),
    ("serve.route_share.fallback", "ratio"),
    ("proc.cpu_s_per_op", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, `self_s_per_op.*` last.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(LAYERS.iter().map(|l| (format!("self_s_per_op.{l}"), "s")))
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Option<String>,
    addr: String,
    name: String,
    model: String,
    cpus: String,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        role: None,
        addr: String::new(),
        name: String::new(),
        model: String::new(),
        cpus: String::new(),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--role" => a.role = Some(value()?),
            "--addr" => a.addr = value()?,
            "--name" => a.name = value()?,
            "--model" => a.model = value()?,
            "--cpus" => a.cpus = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn spec(workload: &str) -> Option<pipeline::Spec> {
    [pipeline::BLOBS_LANCZOS, pipeline::GRID_DENSE_K]
        .into_iter()
        .find(|s| s.name == workload)
}

fn run_workload(a: &Args) -> Outcome {
    let (seed, secs) = (a.seed, a.seconds);
    match (spec(&a.workload), a.trace) {
        (Some(s), false) => pipeline::run(&s, seed, secs),
        (Some(s), true) => {
            let mut out = pipeline::run_traced(&s, seed, secs);
            // The serve layer has no workload of its own (see serve.rs);
            // the small-bucket pipeline's traced run carries it.
            if s.name == pipeline::GRID_DENSE_K.name {
                let stem = format!("{}-serve", s.name);
                serve::add_layer_metrics(&mut out, &stem, seed, secs as f64 / 4.0);
            }
            out
        }
        (None, false) => dist::run(seed, secs),
        (None, true) => dist::run_traced(seed, secs),
    }
}

/// Put the run's metrics in the declared order, for exactly the
/// declared set. A per-layer metric the workload does not exercise is
/// reported as 0; a missing end-to-end metric fails the run.
fn normalize(out: &mut Outcome, trace: bool) {
    let declared: Vec<(String, &'static str)> = if trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut measured = std::mem::take(&mut out.metrics);
    for (name, unit) in declared {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => out.metrics.push(measured.swap_remove(i)),
            None => {
                if !trace {
                    out.checks
                        .error(format!("end-to-end metric {name} was not measured"));
                }
                out.metric(name, 0.0, unit);
            }
        }
    }
    for m in measured {
        out.checks.error(format!("undeclared metric {}", m.name));
    }
}

fn print_table(workload: &str, out: &Outcome) {
    for m in &out.metrics {
        eprintln!(
            "{workload:>14}  {:<34} {:>16.6} {}",
            m.name, m.value, m.unit
        );
    }
    for f in out.checks.failures() {
        eprintln!("{workload:>14}  FAILED CHECK: {f}");
    }
}

/// Keep the full record (provenance, facts, failures, result) under
/// `out/` beside the trace files.
fn save_record(a: &Args, prov: &str, out: &Outcome, result: &str) {
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let failures: Vec<String> = out.checks.failures().iter().map(|f| json_str(f)).collect();
    let record = format!(
        "{{\"provenance\": {prov}, \"facts\": {{{}}}, \"failures\": [{}], \"result\": {result}}}\n",
        facts.join(", "),
        failures.join(", ")
    );
    let path = harness::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let saved =
        std::fs::create_dir_all(harness::out_dir()).and_then(|_| std::fs::write(&path, record));
    if let Err(e) = saved {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Run every workload, each in its own process, and print every metric
/// with its unit; the last line merges the results.
fn run_all(a: &Args) -> ExitCode {
    let mut merged = Outcome::new(harness::Checks::default());
    for w in WORKLOADS {
        let args = [
            "--workload",
            w,
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if a.trace { "1" } else { "0" },
        ]
        .map(String::from);
        let prefix = "{\"correct\"";
        let parsed = ChildProc::spawn(&args, &[])
            .and_then(|mut c| c.expect_line(prefix))
            .and_then(|rest| {
                JsonValue::parse(&format!("{prefix}{rest}"))
                    .map_err(|e| format!("{w}: result line: {e}"))
            });
        let v = match parsed {
            Ok(v) => v,
            Err(e) => {
                merged.checks.error(e);
                continue;
            }
        };
        let num = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        merged.checks.attempted += num("attempted") as u64;
        merged.checks.failed += num("failed") as u64;
        let metrics = v.get("metrics").and_then(JsonValue::as_object);
        for (name, m) in metrics.into_iter().flatten() {
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            let unit = END_TO_END
                .iter()
                .map(|&(_, u)| u)
                .chain(PER_LAYER.iter().map(|&(_, u)| u))
                .find(|&u| u == unit)
                .unwrap_or("?");
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            println!("{w:>14}  {name:<34} {value:>16.6} {unit}");
            merged.metric(format!("{w}.{name}"), value, unit);
        }
    }
    println!("{}", result_json(&merged));
    ExitCode::SUCCESS
}

fn run_role(role: &str, a: &Args) -> Result<(), String> {
    match role {
        "cold-op" => spec(&a.workload)
            .ok_or_else(|| format!("cold-op: unknown workload {:?}", a.workload))
            .and_then(|s| pipeline::cold_op_child(&s, a.seed)),
        "coordinator" => dist::coordinator_child(),
        "worker" => dist::worker_child(&a.addr, &a.name),
        "server" => serve::server_child(&a.model, &a.cpus),
        other => Err(format!("unknown role {other:?}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(role) = &a.role {
        return match run_role(role, &a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                println!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if a.workload == "all" {
        return run_all(&a);
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        eprintln!(
            "error: unknown workload {:?} (expected all, {})",
            a.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }
    let prov = provenance(&a.workload, a.seed, a.seconds, a.trace, procfs::nproc());
    let steal0 = procfs::steal_seconds();
    let mut out = run_workload(&a);
    // Host contention inflates every wall time; record it beside the result.
    out.fact(
        "host_steal_s",
        harness::json_num(procfs::steal_seconds() - steal0),
    );
    normalize(&mut out, a.trace);
    print_table(&a.workload, &out);
    let result = result_json(&out);
    save_record(&a, &prov, &out, &result);
    println!("{{\"provenance\": {prov}}}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let entries = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(entries("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(entries("per_layer"), layer);
    }

    #[test]
    fn parses_the_run_arguments() {
        let raw: Vec<String> = "--workload grid_dense_k --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&raw).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("grid_dense_k", 7, 12, true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(harness::Checks::default());
        out.checks.op(true, String::new);
        out.metric("op_s_p50", 1.25, "s");
        let v = JsonValue::parse(&result_json(&out)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let value = v
            .get("metrics")
            .and_then(|m| m.get("op_s_p50"))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64);
        assert_eq!(value, Some(1.25));
    }
}
