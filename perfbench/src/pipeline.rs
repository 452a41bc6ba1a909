//! `blobs_lanczos` and `grid_dense_k`: the in-process pipeline,
//! `Dasc::run` on a pool of `nproc` threads, one op at a time.

use std::time::Instant;

use dasc_core::embedding::{
    normalized_laplacian_inplace, resolve_eigen_path, row_normalize, top_eigenvectors_with,
    EigenPath,
};
use dasc_core::{
    bucket_cluster_count, consolidate, stitch_distributed, Clustering, Dasc, DascConfig,
    DascResult, KMeans, KMeansConfig, KernelBackend,
};
use dasc_data::SyntheticConfig;
use dasc_kernel::{full_gram, ApproximateGram};
use dasc_linalg::{gemm, FlatPoints};
use dasc_lsh::BucketSet;
use dasc_pool::Pool;
use rayon::prelude::*;

use crate::harness::{
    end_to_end_metrics, label_hash, permutation, reorder, timed, write_trace, Checks, ChildProc,
    Outcome,
};
use crate::trace::SpanLog;
use crate::{procfs, stats};

/// Generator seed that fixes the cluster layout. Bucket structure, and
/// with it op time and memory, depend on the layout far more than on
/// anything else (0.9–4.0 s per op across layout seeds at n = 20 000),
/// so the layout is part of the workload's definition and `--seed`
/// draws the point order instead.
pub const LAYOUT_SEED: u64 = 0xDA7A;
/// `DascConfig` seed, fixed for the same reason.
pub const ALGO_SEED: u64 = 0xBE7C;

#[derive(Clone, Copy)]
pub enum Shape {
    /// `SyntheticConfig::paper_default(n, k)`: d = 64 balanced blobs.
    Blobs,
    /// `SyntheticConfig::grid(n, 64, log2 k)`: LSH-aligned grid.
    Grid,
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub k: usize,
    pub shape: Shape,
    /// Set-up samples per run beyond this process's own cold op: child
    /// processes that each time their own cold op.
    pub setup_children: usize,
}

pub const BLOBS_LANCZOS: Spec = Spec {
    name: "blobs_lanczos",
    n: 20_000,
    k: 16,
    shape: Shape::Blobs,
    setup_children: 2,
};

pub const GRID_DENSE_K: Spec = Spec {
    name: "grid_dense_k",
    n: 15_000,
    k: 64,
    shape: Shape::Grid,
    setup_children: 4,
};

impl Spec {
    /// The workload's inputs for `seed`: points, generated labels.
    pub fn inputs(&self, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let cfg = match self.shape {
            Shape::Blobs => SyntheticConfig::paper_default(self.n, self.k),
            Shape::Grid => SyntheticConfig::grid(self.n, 64, self.k.trailing_zeros() as usize),
        };
        let ds = cfg.seed(LAYOUT_SEED).generate();
        let labels = ds.labels.expect("synthetic data is labelled");
        reorder(&ds.points, &labels, &permutation(self.n, seed))
    }

    pub fn config(&self) -> DascConfig {
        DascConfig::for_dataset(self.n, self.k).seed(ALGO_SEED)
    }
}

fn run_op(pool: &Pool, cfg: &DascConfig, points: &[Vec<f64>]) -> (f64, DascResult) {
    timed(|| pool.install(|| Dasc::new(cfg.clone()).run(points)))
}

/// Child role: time one cold op in a fresh process and print
/// `cold-op <seconds> <label hash>`.
pub fn cold_op_child(spec: &Spec, seed: u64) -> Result<(), String> {
    let (points, _) = spec.inputs(seed);
    let pool = Pool::new(procfs::nproc());
    let (secs, r) = run_op(&pool, &spec.config(), &points);
    println!("cold-op {secs} {}", label_hash(&r.clustering.assignments));
    Ok(())
}

/// Untraced run: end-to-end metrics from `Dasc::run` only.
pub fn run(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    let (points, labels) = spec.inputs(seed);
    let cfg = spec.config();
    let threads = procfs::nproc();
    let pool = Pool::new(threads);
    let mut checks = Checks::default();

    // Set-up: the first, cold op, here and in fresh child processes.
    let (cold_s, cold) = run_op(&pool, &cfg, &points);
    let mut setup = vec![cold_s];
    let mut child_hashes = Vec::new();
    for _ in 0..spec.setup_children {
        let args = [
            "--role",
            "cold-op",
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
        ]
        .map(String::from);
        let line = ChildProc::spawn(&args, &[]).and_then(|mut c| c.expect_line("cold-op"));
        match line.as_deref().map(str::split_whitespace).map(|mut f| {
            (
                f.next().and_then(|s| s.parse::<f64>().ok()),
                f.next().and_then(|h| h.parse::<u64>().ok()),
            )
        }) {
            Ok((Some(secs), Some(hash))) => {
                setup.push(secs);
                child_hashes.push(hash);
            }
            Ok(_) => checks.error(format!("cold-op child printed {line:?}")),
            Err(e) => checks.error(e.clone()),
        }
    }

    // Reference labels: the same op on one thread.
    let (_, reference) = run_op(&Pool::new(1), &cfg, &points);
    let want = &reference.clustering.assignments;
    let want_hash = label_hash(want);
    checks.op(&cold.clustering.assignments == want, || {
        "cold op labels differ from the 1-thread run".into()
    });
    for h in child_hashes {
        checks.op(h == want_hash, || {
            "a cold-op child's labels differ from the 1-thread run".into()
        });
    }

    let mut op_s = Vec::new();
    let start = Instant::now();
    while op_s.is_empty() || start.elapsed().as_secs_f64() < seconds as f64 {
        let (s, r) = run_op(&pool, &cfg, &points);
        op_s.push(s);
        checks.op(&r.clustering.assignments == want, || {
            format!("op {} labels differ from the 1-thread run", op_s.len())
        });
    }
    let wall = start.elapsed().as_secs_f64();

    let mut out = Outcome::new(checks);
    end_to_end_metrics(&mut out, (spec.n * op_s.len()) as f64, &op_s, wall, &setup);
    out.metric(
        "peak_rss_mib",
        procfs::peak_rss_mib(std::process::id()).unwrap_or(0.0),
        "MiB",
    );
    out.metric("accuracy", dasc_metrics::accuracy(want, &labels), "ratio");
    out
}

/// Per-bucket timings of one traced op.
#[derive(Clone, Copy)]
struct BucketTimes {
    /// `None` for a bucket with one cluster, which needs no eigensolve.
    path: Option<EigenPath>,
    laplacian: f64,
    eigen: f64,
    kmeans: f64,
    total: f64,
}

/// What one decomposed, traced op measured.
struct TracedOp {
    partition_s: f64,
    gram_s: f64,
    cluster_wall_s: f64,
    consolidate_s: f64,
    buckets: Vec<BucketTimes>,
    sizes: Vec<usize>,
}

fn same_buckets(a: &BucketSet, b: &BucketSet) -> bool {
    a.len() == b.len()
        && a.buckets()
            .iter()
            .zip(b.buckets())
            .all(|(x, y)| x.members == y.members)
}

/// One op decomposed into the layer calls `Dasc::run` makes, each
/// wrapped in a span. Checks that it builds the same buckets,
/// approximate-Gram size and labels as the end-to-end result.
fn traced_op(
    log: &SpanLog,
    pool: &Pool,
    cfg: &DascConfig,
    points: &[Vec<f64>],
    e2e: &DascResult,
    checks: &mut Checks,
) -> TracedOp {
    let n = points.len();
    let dasc = Dasc::new(cfg.clone());
    let root = log.open("bench.op", 0);

    let span = log.open("lsh.partition", root.id());
    let (_, buckets) = dasc.partition(points);
    let partition_s = span.finish();

    let span = log.open("kernel.gram", root.id());
    let gram = ApproximateGram::from_buckets(points, &buckets, &cfg.kernel);
    let gram_s = span.finish();
    let same_gram =
        same_buckets(&buckets, &e2e.buckets) && gram.memory_bytes() == e2e.approx_gram_bytes;

    let cluster = log.open("core.cluster", root.id());
    let cluster_id = cluster.id();
    let mut blocks: Vec<(usize, dasc_kernel::GramBlock)> =
        gram.into_blocks().into_iter().enumerate().collect();
    blocks.sort_by_key(|(_, b)| std::cmp::Reverse(b.members.len()));
    let done: Vec<(usize, Vec<usize>, Clustering, BucketTimes)> = pool.install(|| {
        blocks
            .into_par_iter()
            .map(|(bi, block)| {
                let task = log.open("pool.task", cluster_id);
                let size = block.members.len();
                let ki = bucket_cluster_count(cfg.k, size, n).min(size).max(1);
                let seed = cfg.seed ^ (bi as u64).wrapping_mul(0x9E37_79B9);
                let mut times = BucketTimes {
                    path: None,
                    laplacian: 0.0,
                    eigen: 0.0,
                    kmeans: 0.0,
                    total: 0.0,
                };
                let clustering = if ki == 1 || size == 1 {
                    Clustering::new(vec![0; size], 1)
                } else {
                    let mut l = block.matrix;
                    let s = log.open("spectral.laplacian", task.id());
                    normalized_laplacian_inplace(&mut l);
                    times.laplacian = s.finish();
                    let path = resolve_eigen_path(size, ki, cfg.lanczos_threshold);
                    times.path = Some(path);
                    let s = log.open(eigen_span_name(path), task.id());
                    let mut v = top_eigenvectors_with(&l, ki, path, seed);
                    drop(l);
                    times.eigen = s.finish();
                    let s = log.open("spectral.kmeans", task.id());
                    row_normalize(&mut v);
                    let km = KMeans::new(KMeansConfig::new(ki).seed(seed))
                        .run_flat(&FlatPoints::from_flat(v.into_vec(), ki));
                    times.kmeans = s.finish();
                    Clustering::new(km.assignments, ki)
                };
                times.total = task.finish();
                (bi, block.members, clustering, times)
            })
            .collect()
    });
    let cluster_wall_s = cluster.finish();

    let sizes = buckets.sizes();
    let mut records = Vec::with_capacity(n);
    let mut per_bucket = Vec::with_capacity(done.len());
    for (bi, members, c, t) in done {
        records.extend(
            members
                .iter()
                .zip(&c.assignments)
                .map(|(&p, &l)| (p, bi, l)),
        );
        per_bucket.push(t);
    }
    let stitched = stitch_distributed(n, cfg.k, &sizes, &records);
    let span = log.open("core.consolidate", root.id());
    let labels = if cfg.consolidate {
        consolidate(points, &stitched, cfg.k, cfg.seed)
    } else {
        stitched
    };
    let consolidate_s = span.finish();
    root.finish();
    checks.op(
        same_gram && labels.assignments == e2e.clustering.assignments,
        || "traced decomposition differs from Dasc::run".into(),
    );
    TracedOp {
        partition_s,
        gram_s,
        cluster_wall_s,
        consolidate_s,
        buckets: per_bucket,
        sizes,
    }
}

fn eigen_span_name(path: EigenPath) -> &'static str {
    match path {
        EigenPath::DenseFull => "spectral.eigen.dense_full",
        EigenPath::DenseK => "spectral.eigen.dense_k",
        EigenPath::Lanczos => "spectral.eigen.lanczos",
    }
}

const PATHS: [EigenPath; 3] = [EigenPath::DenseFull, EigenPath::DenseK, EigenPath::Lanczos];

/// The squared-distance kernel's ceiling: an `n × n` panel at `d`, best
/// of three, counting `2·d` flops per entry.
fn sq_dists_gflops(backend: KernelBackend, n: usize, d: usize) -> f64 {
    let data: Vec<f64> = (0..n * d)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x % 1000) as f64 / 250.0 - 2.0
        })
        .collect();
    let norms = gemm::row_sq_norms_flat_with(backend, &data, d);
    let mut out = vec![0.0; n * n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        gemm::sq_dists_into_with(backend, &data, n, &norms, &data, n, &norms, d, &mut out, n);
        best = best.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(&out);
    2.0 * d as f64 * (n * n) as f64 / best / 1e9
}

/// Milliseconds for one top-2 eigensolve of an `n`-row normalized
/// Laplacian built from the workload's own first `n` points; median of
/// up to five repetitions within about half a second.
fn eigen_ms(points: &[Vec<f64>], cfg: &DascConfig, n: usize, path: EigenPath) -> f64 {
    let mut l = full_gram(&points[..n], &cfg.kernel);
    normalized_laplacian_inplace(&mut l);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 && (samples.is_empty() || start.elapsed().as_secs_f64() < 0.5) {
        let (s, v) = timed(|| top_eigenvectors_with(&l, 2, path, ALGO_SEED));
        std::hint::black_box(v);
        samples.push(s * 1e3);
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// Traced run: untraced ops for the overhead baseline, then decomposed
/// ops with spans, the eigen sweep and the kernel ceiling.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64) -> Outcome {
    let (points, _) = spec.inputs(seed);
    let cfg = spec.config();
    let threads = procfs::nproc();
    let pool = Pool::new(threads);
    let mut checks = Checks::default();

    let (_, e2e) = run_op(&pool, &cfg, &points);
    let (one_thread_s, reference) = run_op(&Pool::new(1), &cfg, &points);
    let want = &reference.clustering.assignments;
    checks.op(&e2e.clustering.assignments == want, || {
        "warm-up labels differ from the 1-thread run".into()
    });

    // Untraced segment: the baseline for the tracing overhead and the
    // single-thread speed-up.
    let cpu0 = procfs::cpu_seconds(std::process::id()).unwrap_or(0.0);
    let mut op_s = Vec::new();
    let start = Instant::now();
    while op_s.is_empty() || start.elapsed().as_secs_f64() < seconds as f64 {
        let (s, r) = run_op(&pool, &cfg, &points);
        op_s.push(s);
        checks.op(&r.clustering.assignments == want, || {
            "untraced op labels differ from the 1-thread run".into()
        });
    }
    let untraced_pps = spec.n as f64 * op_s.len() as f64 / start.elapsed().as_secs_f64();
    let cpu_per_op =
        (procfs::cpu_seconds(std::process::id()).unwrap_or(0.0) - cpu0) / op_s.len() as f64;

    // Traced segment.
    let log = SpanLog::new();
    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.is_empty() || start.elapsed().as_secs_f64() < seconds as f64 {
        ops.push(traced_op(&log, &pool, &cfg, &points, &e2e, &mut checks));
    }
    let traced_pps = spec.n as f64 * ops.len() as f64 / start.elapsed().as_secs_f64();

    let mut out = Outcome::new(checks);
    let per_op = |f: &dyn Fn(&TracedOp) -> f64| {
        stats::median(&ops.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let sizes = &ops[0].sizes;
    let entries: usize = sizes.iter().map(|b| b * b).sum();
    let dim = points[0].len();
    out.metric("lsh.partition_s", per_op(&|o| o.partition_s), "s");
    out.metric("lsh.buckets", sizes.len() as f64, "count");
    out.metric(
        "lsh.bucket_max",
        *sizes.iter().max().unwrap_or(&0) as f64,
        "count",
    );
    out.metric("lsh.gram_entries", entries as f64, "count");
    let gram_s = per_op(&|o| o.gram_s);
    out.metric("kernel.gram_s", gram_s, "s");
    out.metric(
        "kernel.gram_gflops",
        2.0 * dim as f64 * entries as f64 / gram_s / 1e9,
        "GFLOP/s",
    );
    out.metric("kernel.gram_bytes", 8.0 * entries as f64, "B");
    for backend in [KernelBackend::Scalar, KernelBackend::Avx2Fma] {
        let gflops = if backend.is_available() {
            sq_dists_gflops(backend, 4_000, 64)
        } else {
            0.0
        };
        out.metric(
            format!("kernel.sq_dists_gflops.{}", backend.as_str()),
            gflops,
            "GFLOP/s",
        );
    }
    out.metric(
        "spectral.laplacian_cpu_s",
        per_op(&|o| o.buckets.iter().map(|b| b.laplacian).sum()),
        "s",
    );
    for path in PATHS {
        out.metric(
            format!("spectral.eigen_cpu_s.{}", path.as_str()),
            per_op(&|o| {
                o.buckets
                    .iter()
                    .filter(|b| b.path == Some(path))
                    .map(|b| b.eigen)
                    .sum()
            }),
            "s",
        );
    }
    out.metric(
        "spectral.kmeans_cpu_s",
        per_op(&|o| o.buckets.iter().map(|b| b.kmeans).sum()),
        "s",
    );
    for path in PATHS {
        out.metric(
            format!("spectral.buckets.{}", path.as_str()),
            ops[0]
                .buckets
                .iter()
                .filter(|b| b.path == Some(path))
                .count() as f64,
            "count",
        );
    }
    for (path, sizes) in [
        (EigenPath::DenseK, &[256, 512, 1024][..]),
        (EigenPath::Lanczos, &[256, 512, 1024][..]),
        (EigenPath::DenseFull, &[256, 512][..]),
    ] {
        for &n in sizes {
            out.metric(
                format!("linalg.eigen_ms.{}.n{n}", path.as_str()),
                eigen_ms(&points, &cfg, n, path),
                "ms",
            );
        }
    }
    out.metric("core.cluster_wall_s", per_op(&|o| o.cluster_wall_s), "s");
    out.metric(
        "pool.busy_share",
        per_op(&|o| {
            o.buckets.iter().map(|b| b.total).sum::<f64>() / (o.cluster_wall_s * threads as f64)
        }),
        "ratio",
    );
    out.metric(
        "pool.straggler_share",
        per_op(&|o| o.buckets.iter().map(|b| b.total).fold(0.0, f64::max) / o.cluster_wall_s),
        "ratio",
    );
    out.metric(
        "pool.speedup_vs_1t",
        one_thread_s / stats::median(&op_s).unwrap_or(f64::NAN),
        "x",
    );
    out.metric("core.consolidate_s", per_op(&|o| o.consolidate_s), "s");
    out.metric("proc.cpu_s_per_op", cpu_per_op, "s");
    out.metric(
        "bench.trace_overhead_pct",
        (untraced_pps - traced_pps) / untraced_pps * 100.0,
        "%",
    );
    write_trace(&mut out, spec.name, seed, &log, ops.len());
    out
}
