//! Distributed-runtime benchmark with machine-readable output.
//!
//! Starts a real TCP coordinator plus a configurable number of worker
//! loops on localhost, submits the Fig. 6 DASC jobflow over the wire at
//! two or three dataset sizes, and writes `BENCH_dist.json`: per-stage
//! wall-clock as measured by the coordinator, worker count, shuffle
//! volume, and end-to-end points/s, plus `obs_overhead_pct`: the
//! relative cost of running the largest size with full telemetry
//! (heartbeat metrics federation + merged trace collection) versus
//! telemetry-off workers. Every run is checked bit-identical against
//! the in-process distributed engine before it is reported.
//!
//! Each size is additionally submitted *by reference* against a packed
//! `.dstr` store, so the JSON records both `shuffle_bytes` (inline
//! submission, run over the coordinator's in-memory store) and
//! `shuffle_bytes_ref` (on-disk store). Either way tasks carry shard
//! tables and workers pull shards through their caches. The ref run is
//! asserted bit-identical to the inline run.
//!
//! Usage: `bench_dist [--full] [--workers N] [--out PATH]`. Sizes
//! default to the quick set; `--full`/`DASC_SCALE=full` switches to
//! paper-adjacent sizes. Workers default to 2 (the smallest cluster
//! that exercises the shuffle).

use std::fmt::Write as _;
use std::time::Instant;

use dasc_bench::Scale;
use dasc_core::{Dasc, DascConfig};
use dasc_data::{dataset_to_store, Dataset, SyntheticConfig};
use dasc_dist::{worker, Coordinator, JobClient, JobData, JobOutcome, JobSpec, WorkerOptions};
use dasc_mapreduce::ClusterConfig;

struct Run {
    n: usize,
    dim: usize,
    total_s: f64,
    outcome: JobOutcome,
    ref_total_s: f64,
    ref_shuffle_bytes: u64,
}

fn json_run(out: &mut String, run: &Run) {
    let o = &run.outcome;
    write!(
        out,
        concat!(
            "{{\"n\": {}, \"dim\": {}, \"workers\": {}, \"total_s\": {:.6}, ",
            "\"points_per_s\": {:.1}, \"buckets\": {}, ",
            "\"shuffle_records\": {}, \"shuffle_bytes\": {}, ",
            "\"ref_total_s\": {:.6}, \"shuffle_bytes_ref\": {}, ",
            "\"task_retries\": {}, \"stages_s\": {{",
            "\"map\": {:.6}, \"reduce\": {:.6}}}}}"
        ),
        run.n,
        run.dim,
        o.workers_used,
        run.total_s,
        run.n as f64 / run.total_s,
        o.num_buckets,
        o.shuffle_records,
        o.shuffle_bytes,
        run.ref_total_s,
        run.ref_shuffle_bytes,
        o.task_retries,
        o.stage1_us as f64 / 1e6,
        o.stage2_us as f64 / 1e6,
    )
    .expect("write to string");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = Scale::from_env();
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_dist.json".to_string());
    let num_workers: usize = arg_after("--workers")
        .map(|w| w.parse().expect("--workers takes a number"))
        .unwrap_or(2)
        .max(1);
    let sizes: &[usize] = scale.pick(&[1_000, 4_000][..], &[5_000, 20_000, 50_000][..]);
    let k = 16usize;

    let cluster = ClusterConfig::emr(num_workers);
    let coordinator = Coordinator::start("127.0.0.1:0", cluster.clone()).expect("coordinator");
    let addr = coordinator.addr().to_string();
    let mut workers: Vec<_> = (0..num_workers)
        .map(|i| worker::spawn(&addr, WorkerOptions::named(format!("bench-w{i}"))))
        .collect();

    let mut runs: Vec<Run> = Vec::new();
    for &n in sizes {
        let ds = SyntheticConfig::paper_default(n, k).seed(0xDA7A).generate();
        let config = DascConfig::for_dataset(n, k).seed(0xBE7C);
        let spec = JobSpec {
            data: JobData::Inline {
                points: ds.points.clone(),
            },
            k,
            kernel: config.kernel,
            num_bits: 0,
            seed: config.seed,
            consolidate: config.consolidate,
            collect_trace: false,
        };

        eprintln!("n={n}: distributed run ({num_workers} workers over TCP)...");
        let mut client = JobClient::connect(&addr, &cluster);
        let t0 = Instant::now();
        let outcome = client.run(spec, |_, _, _| {}).expect("distributed job");
        let total_s = t0.elapsed().as_secs_f64();

        let baseline =
            Dasc::new(config.clone()).run_distributed(&ds.points, &ClusterConfig::emr_default());
        assert_eq!(
            outcome.assignments, baseline.clustering.assignments,
            "distributed output must match the in-process engine"
        );

        // The same job by reference against a packed store: tasks ship
        // shard tables, not points.
        let store_dir =
            std::env::temp_dir().join(format!("dasc-bench-dist-{}-{n}.dstr", std::process::id()));
        let manifest = dataset_to_store(
            &Dataset::new(ds.points.clone(), None, "bench"),
            &store_dir,
            1024,
        )
        .expect("pack store");
        let ref_spec = JobSpec {
            data: JobData::Ref {
                path: store_dir.to_string_lossy().into_owned(),
                content_hash: manifest.content_hash,
            },
            k,
            kernel: config.kernel,
            num_bits: 0,
            seed: config.seed,
            consolidate: config.consolidate,
            collect_trace: false,
        };
        eprintln!("n={n}: shard-addressed run from {}...", store_dir.display());
        let t0 = Instant::now();
        let ref_outcome = client.run(ref_spec, |_, _, _| {}).expect("ref job");
        let ref_total_s = t0.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&store_dir).ok();
        assert_eq!(
            ref_outcome.assignments, outcome.assignments,
            "shard-addressed output must match the inline path"
        );

        eprintln!(
            "n={n}: {total_s:.3}s end to end, map {:.3}s + reduce {:.3}s, \
             {} bytes shuffled inline vs {} by ref",
            outcome.stage1_us as f64 / 1e6,
            outcome.stage2_us as f64 / 1e6,
            outcome.shuffle_bytes,
            ref_outcome.shuffle_bytes,
        );
        runs.push(Run {
            n,
            dim: ds.points.first().map_or(0, Vec::len),
            total_s,
            outcome,
            ref_total_s,
            ref_shuffle_bytes: ref_outcome.shuffle_bytes,
        });
    }

    // Observability overhead: the largest size once with full telemetry
    // (heartbeat metrics federation + distributed trace collection) and
    // once against fresh telemetry-off workers with tracing disabled.
    // Reported as a relative slowdown so BENCH_dist.json records what
    // the cluster-wide observability plane costs.
    let obs_overhead_pct = {
        let n = *sizes.last().expect("at least one size");
        let ds = SyntheticConfig::paper_default(n, k).seed(0xDA7A).generate();
        let config = DascConfig::for_dataset(n, k).seed(0xBE7C);
        let spec = |collect_trace: bool| JobSpec {
            data: JobData::Inline {
                points: ds.points.clone(),
            },
            k,
            kernel: config.kernel,
            num_bits: 0,
            seed: config.seed,
            consolidate: config.consolidate,
            collect_trace,
        };
        let mut client = JobClient::connect(&addr, &cluster);

        eprintln!("n={n}: telemetry-on run (heartbeat metrics + merged trace)...");
        let t0 = Instant::now();
        client
            .run(spec(true), |_, _, _| {})
            .expect("telemetry-on job");
        let on_s = t0.elapsed().as_secs_f64();

        for w in workers.drain(..) {
            w.shutdown().expect("worker shutdown");
        }
        workers.extend((0..num_workers).map(|i| {
            let mut opts = WorkerOptions::named(format!("bench-quiet-w{i}"));
            opts.telemetry = false;
            worker::spawn(&addr, opts)
        }));
        // Untimed warmup so the replacement workers' registration and
        // cold caches don't get billed to the telemetry-off side (the
        // telemetry-on run was already warm from the main loop).
        client.run(spec(false), |_, _, _| {}).expect("warmup job");

        eprintln!("n={n}: telemetry-off run...");
        let t0 = Instant::now();
        client
            .run(spec(false), |_, _, _| {})
            .expect("telemetry-off job");
        let off_s = t0.elapsed().as_secs_f64();

        let pct = (on_s - off_s) / off_s * 100.0;
        eprintln!("observability overhead: on {on_s:.3}s vs off {off_s:.3}s ({pct:+.1}%)");
        pct
    };

    for w in workers {
        w.shutdown().expect("worker shutdown");
    }
    coordinator.shutdown();

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"dist\",\n");
    write!(
        json,
        "  \"workers\": {num_workers},\n  \"obs_overhead_pct\": {obs_overhead_pct:.2},\n  \"runs\": [\n"
    )
    .expect("write to string");
    for (i, run) in runs.iter().enumerate() {
        json.push_str("    ");
        json_run(&mut json, run);
        if i + 1 < runs.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
