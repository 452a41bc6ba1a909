//! `dist_jobs`: one coordinator and two worker processes on loopback;
//! one client submits DASC jobs, three by reference to a packed store
//! for every one inline.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dasc_core::{Dasc, DascConfig};
use dasc_data::{dataset_to_store, Dataset, SyntheticConfig};
use dasc_dist::{Coordinator, JobClient, JobData, JobOutcome, JobSpec, WorkerOptions};
use dasc_mapreduce::ClusterConfig;

use crate::harness::{
    end_to_end_metrics, json_num, out_dir, permutation, reorder, timed, write_trace, Checks,
    ChildProc, Outcome,
};
use crate::pipeline::{ALGO_SEED, LAYOUT_SEED};
use crate::prom::{self, Labels};
use crate::trace::SpanLog;
use crate::{procfs, stats};

pub const NAME: &str = "dist_jobs";
const N: usize = 4_000;
const K: usize = 16;
const WORKERS: usize = 2;
const SHARD_ROWS: usize = 1_024;
/// Job kinds in submission order: three by reference, one inline.
const MIX: [Kind; 4] = [Kind::Ref, Kind::Ref, Kind::Ref, Kind::Inline];
/// Set-ups per run (store pack, cluster start, both workers registered).
const SETUPS: usize = 5;
/// How long the coordinator waits for its workers to register.
const REGISTER_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Inline,
    Ref,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Inline => "inline",
            Kind::Ref => "ref",
        }
    }
}

/// Point orderings per run. Jobs cycle through them, so accuracy (which
/// depends on the order through k-means initialisation: 0.77–0.90 across
/// single orderings) is averaged over several; coprime with the length
/// of `MIX`, so each ordering meets every slot of the mix.
const ORDERINGS: usize = 5;

/// One input ordering: points, generated labels, and the labels of the
/// in-process reference run.
struct Input {
    points: Vec<Vec<f64>>,
    labels: Vec<usize>,
    want: Vec<usize>,
}

fn config() -> DascConfig {
    DascConfig::for_dataset(N, K).seed(ALGO_SEED)
}

fn inputs(seed: u64) -> Vec<Input> {
    let ds = SyntheticConfig::paper_default(N, K)
        .seed(LAYOUT_SEED)
        .generate();
    let labels = ds.labels.expect("synthetic data is labelled");
    (0..ORDERINGS as u64)
        .map(|d| {
            let perm = permutation(N, seed ^ d.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (points, labels) = reorder(&ds.points, &labels, &perm);
            let want = Dasc::new(config())
                .run_distributed(&points, &ClusterConfig::emr_default())
                .clustering
                .assignments;
            Input {
                points,
                labels,
                want,
            }
        })
        .collect()
}

/// Child role: a coordinator that prints `addr <addr>`, then `ready`
/// once `WORKERS` workers have registered, then serves until killed.
pub fn coordinator_child() -> Result<(), String> {
    let c = Coordinator::start("127.0.0.1:0", ClusterConfig::emr_default())
        .map_err(|e| format!("coordinator bind: {e}"))?;
    println!("addr {}", c.addr());
    std::io::stdout().flush().ok();
    let start = Instant::now();
    while c.live_workers() < WORKERS {
        if start.elapsed() > REGISTER_TIMEOUT {
            return Err(format!("{WORKERS} workers did not register"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("ready");
    std::io::stdout().flush().ok();
    c.wait();
    Ok(())
}

/// Child role: a worker attached to `addr` until killed.
pub fn worker_child(addr: &str, name: &str) -> Result<(), String> {
    let stop = Arc::new(AtomicBool::new(false));
    dasc_dist::run_worker(addr, &WorkerOptions::named(name), &stop)
}

/// A coordinator and its workers; dropping it kills all of them.
struct Cluster {
    addr: String,
    coordinator: ChildProc,
    workers: Vec<ChildProc>,
}

impl Cluster {
    fn start() -> Result<Self, String> {
        let mut coordinator = ChildProc::spawn(&["--role".into(), "coordinator".into()], &[])?;
        let addr = coordinator.expect_line("addr")?;
        // Compute threads across the workers stay within nproc.
        let threads = (procfs::nproc() / WORKERS).max(1).to_string();
        let workers = (0..WORKERS)
            .map(|i| {
                ChildProc::spawn(
                    &[
                        "--role",
                        "worker",
                        "--addr",
                        &addr,
                        "--name",
                        &format!("w{i}"),
                    ]
                    .map(String::from),
                    &[("DASC_NUM_THREADS", threads.clone())],
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        coordinator.expect_line("ready")?;
        Ok(Self {
            addr,
            coordinator,
            workers,
        })
    }

    /// Peak RSS (MiB) per process, as a JSON object.
    fn rss_json(&self) -> String {
        let mut parts = vec![format!(
            "\"coordinator\": {}",
            json_num(self.coordinator.usage().0)
        )];
        for (i, w) in self.workers.iter().enumerate() {
            parts.push(format!("\"w{i}\": {}", json_num(w.usage().0)));
        }
        format!("{{{}}}", parts.join(", "))
    }

    /// Summed peak RSS (MiB) and CPU seconds of every process.
    fn usage(&self) -> (f64, f64) {
        std::iter::once(&self.coordinator)
            .chain(&self.workers)
            .map(ChildProc::usage)
            .fold((0.0, 0.0), |(r, c), (r2, c2)| (r + r2, c + c2))
    }
}

/// A packed store that is removed when dropped.
struct Store {
    dir: PathBuf,
    content_hash: u64,
}

impl Store {
    fn pack(points: &[Vec<f64>], name: &str) -> Result<(f64, Self), String> {
        let dir = out_dir().join(format!("dist-{}-{name}.dstr", std::process::id()));
        std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        let ds = Dataset::new(points.to_vec(), None, "bench");
        let (secs, manifest) = timed(|| dataset_to_store(&ds, &dir, SHARD_ROWS));
        let manifest = manifest.map_err(|e| format!("pack store: {e}"))?;
        Ok((
            secs,
            Self {
                dir,
                content_hash: manifest.content_hash,
            },
        ))
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A ready system: one store per ordering and the cluster, plus set-up
/// timings.
struct System {
    stores: Vec<Store>,
    cluster: Cluster,
    setup_s: Vec<f64>,
    /// Seconds to pack one store.
    pack_s: Vec<f64>,
}

/// Set up `SETUPS` times; keep the last. Each set-up packs the stores and
/// starts the processes, until both workers have registered.
fn set_up(inputs: &[Input]) -> Result<System, String> {
    let mut setup_s = Vec::new();
    let mut pack_s = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let mut stores = Vec::new();
        for (d, input) in inputs.iter().enumerate() {
            let (secs, store) = Store::pack(&input.points, &format!("{i}-{d}"))?;
            pack_s.push(secs);
            stores.push(store);
        }
        let cluster = Cluster::start()?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((stores, cluster));
    }
    let (stores, cluster) = last.expect("at least one set-up");
    Ok(System {
        stores,
        cluster,
        setup_s,
        pack_s,
    })
}

fn spec(kind: Kind, input: &Input, store: &Store) -> JobSpec {
    let cfg = config();
    JobSpec {
        data: match kind {
            Kind::Inline => JobData::Inline {
                points: input.points.clone(),
            },
            Kind::Ref => JobData::Ref {
                path: store.dir.to_string_lossy().into_owned(),
                content_hash: store.content_hash,
            },
        },
        k: K,
        kernel: cfg.kernel,
        num_bits: 0,
        seed: cfg.seed,
        consolidate: cfg.consolidate,
        collect_trace: false,
    }
}

/// One finished job as the client saw it.
struct Job {
    kind: Kind,
    wall_s: f64,
    polls: u64,
    outcome: JobOutcome,
}

/// Submit one job and check its labels against the in-process run.
fn submit(
    client: &mut JobClient,
    kind: Kind,
    input: &Input,
    store: &Store,
    checks: &mut Checks,
) -> Option<Job> {
    let spec = spec(kind, input, store);
    let mut polls = 0u64;
    let (wall_s, result) = timed(|| client.run(spec, |_, _, _| polls += 1));
    match result {
        Ok(outcome) => {
            checks.op(outcome.assignments == input.want, || {
                format!(
                    "{} job labels differ from Dasc::run_distributed",
                    kind.as_str()
                )
            });
            Some(Job {
                kind,
                wall_s,
                polls,
                outcome,
            })
        }
        Err(e) => {
            checks.error(format!("{} job failed: {e}", kind.as_str()));
            None
        }
    }
}

/// Jobs in whole `MIX` groups until `seconds` have passed and every
/// ordering has been used; job `j` runs on ordering `j % ORDERINGS`.
fn job_loop(
    client: &mut JobClient,
    inputs: &[Input],
    system: &System,
    checks: &mut Checks,
    seconds: u64,
    log: Option<&SpanLog>,
) -> (f64, Vec<Job>) {
    let mut jobs = Vec::new();
    let mut sent = 0usize;
    let start = Instant::now();
    while sent < ORDERINGS || start.elapsed().as_secs_f64() < seconds as f64 {
        for kind in MIX {
            let d = sent % ORDERINGS;
            sent += 1;
            let span = log.map(|l| l.open("dist.job", 0));
            let job = submit(client, kind, &inputs[d], &system.stores[d], checks);
            if let (Some(log), Some(span), Some(job)) = (log, span, job.as_ref()) {
                // Stage spans carry the coordinator's measured durations,
                // laid back to back from the job's start; the job's
                // self time is then the client-side overhead.
                let (s1, s2) = stage_s(&job.outcome);
                log.record("dist.stage1", span.id(), span.start_us(), s1 * 1e6);
                log.record(
                    "dist.stage2",
                    span.id(),
                    span.start_us() + s1 * 1e6,
                    s2 * 1e6,
                );
            }
            jobs.extend(job);
        }
    }
    (start.elapsed().as_secs_f64(), jobs)
}

fn stage_s(o: &JobOutcome) -> (f64, f64) {
    (o.stage1_us as f64 / 1e6, o.stage2_us as f64 / 1e6)
}

/// Inputs with reference labels, a ready system and a warm client.
fn prepare(seed: u64, checks: &mut Checks) -> Result<(Vec<Input>, System, JobClient), String> {
    let inputs = inputs(seed);
    let system = set_up(&inputs)?;
    let mut client = JobClient::connect(system.cluster.addr.clone(), &ClusterConfig::emr_default());
    // Warm-up: one job of each kind, so worker pools and shard caches
    // are filled before anything is measured.
    for kind in [Kind::Ref, Kind::Inline] {
        submit(&mut client, kind, &inputs[0], &system.stores[0], checks);
    }
    Ok((inputs, system, client))
}

/// Untraced run: end-to-end metrics from `JobClient::run` only.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut checks = Checks::default();
    let (inputs, system, mut client) = match prepare(seed, &mut checks) {
        Ok(p) => p,
        Err(e) => {
            checks.error(e);
            return Outcome::new(checks);
        }
    };
    let (wall, jobs) = job_loop(&mut client, &inputs, &system, &mut checks, seconds, None);
    let (rss, _) = system.cluster.usage();
    let accuracy = inputs
        .iter()
        .map(|i| dasc_metrics::accuracy(&i.want, &i.labels))
        .sum::<f64>()
        / inputs.len() as f64;

    let op_s: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let mut out = Outcome::new(checks);
    end_to_end_metrics(
        &mut out,
        (N * op_s.len()) as f64,
        &op_s,
        wall,
        &system.setup_s,
    );
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("accuracy", accuracy, "ratio");
    out.fact("peak_rss_mib_by_process", system.cluster.rss_json());
    out
}

/// Median of `f` over the jobs of `kind` (`None` for every kind).
fn median_of(jobs: &[Job], kind: Option<Kind>, f: impl Fn(&Job) -> f64) -> f64 {
    let v: Vec<f64> = jobs
        .iter()
        .filter(|j| kind.is_none_or(|k| j.kind == k))
        .map(f)
        .collect();
    stats::median(&v).unwrap_or(0.0)
}

/// Traced run: an untraced segment for the overhead baseline and CPU
/// per job, then a segment with spans and federated-metrics deltas.
pub fn run_traced(seed: u64, seconds: u64) -> Outcome {
    let mut checks = Checks::default();
    let (inputs, system, mut client) = match prepare(seed, &mut checks) {
        Ok(p) => p,
        Err(e) => {
            checks.error(e);
            return Outcome::new(checks);
        }
    };

    let (_, cpu0) = system.cluster.usage();
    let (wall, jobs) = job_loop(&mut client, &inputs, &system, &mut checks, seconds, None);
    let (_, cpu1) = system.cluster.usage();
    let untraced_pps = N as f64 * jobs.len() as f64 / wall;
    let cpu_per_job = (cpu1 - cpu0) / jobs.len().max(1) as f64;

    let log = SpanLog::new();
    let scrape = |client: &mut JobClient, checks: &mut Checks| {
        // Worker series reach the coordinator on heartbeats; wait for
        // two so the scrape includes every finished task.
        std::thread::sleep(ClusterConfig::emr_default().heartbeat_interval * 2);
        let span = log.open("net.metrics_scrape", 0);
        let text = client.metrics();
        span.finish();
        text.unwrap_or_else(|e| {
            checks.error(format!("metrics scrape: {e}"));
            String::new()
        })
    };
    let before = prom::parse(&scrape(&mut client, &mut checks));
    let (wall, jobs) = job_loop(
        &mut client,
        &inputs,
        &system,
        &mut checks,
        seconds,
        Some(&log),
    );
    let after_text = scrape(&mut client, &mut checks);
    let metrics_file = out_dir().join(format!("{NAME}-seed{seed}-metrics.prom"));
    let _ = std::fs::write(metrics_file, &after_text);
    let after = prom::parse(&after_text);
    let traced_pps = N as f64 * jobs.len() as f64 / wall;
    let n_jobs = jobs.len().max(1) as f64;
    let ref_jobs = jobs.iter().filter(|j| j.kind == Kind::Ref).count().max(1) as f64;
    let d = |name: &str, labels: Labels<'_>| prom::delta(&before, &after, name, labels);
    let task_s = prom::worker_side_delta(&before, &after, "dasc_dist_task_duration_us_sum") / 1e6;
    let busy_wall: f64 = jobs.iter().map(|j| j.wall_s).sum();
    let hits = d("dasc_store_shard_cache_hits_total", Labels::Any);
    let misses = d("dasc_store_shard_cache_misses_total", Labels::Any);

    let mut out = Outcome::new(checks);
    out.metric(
        "dist.stage1_s",
        median_of(&jobs, None, |j| stage_s(&j.outcome).0),
        "s",
    );
    out.metric(
        "dist.stage2_s",
        median_of(&jobs, None, |j| stage_s(&j.outcome).1),
        "s",
    );
    out.metric(
        "dist.client_overhead_s",
        median_of(&jobs, None, |j| {
            let (s1, s2) = stage_s(&j.outcome);
            j.wall_s - s1 - s2
        }),
        "s",
    );
    out.metric(
        "dist.polls_per_job",
        jobs.iter().map(|j| j.polls as f64).sum::<f64>() / n_jobs,
        "count",
    );
    out.metric("dist.task_cpu_s", task_s / n_jobs, "s");
    out.metric(
        "dist.worker_idle_share",
        1.0 - task_s / (busy_wall * WORKERS as f64),
        "ratio",
    );
    out.metric(
        "dist.task_retries",
        jobs.iter().map(|j| j.outcome.task_retries as f64).sum(),
        "count",
    );
    for kind in [Kind::Inline, Kind::Ref] {
        out.metric(
            format!("dist.op_s_p50.{}", kind.as_str()),
            median_of(&jobs, Some(kind), |j| j.wall_s),
            "s",
        );
    }
    out.metric(
        "net.rpcs_per_job",
        d("dasc_dist_rpcs_total", Labels::Without("worker")) / n_jobs,
        "count",
    );
    for kind in [Kind::Inline, Kind::Ref] {
        out.metric(
            format!("net.shuffle_bytes_per_job.{}", kind.as_str()),
            median_of(&jobs, Some(kind), |j| j.outcome.shuffle_bytes as f64),
            "B",
        );
    }
    out.metric(
        "store.pack_s",
        stats::median(&system.pack_s).unwrap_or(0.0),
        "s",
    );
    out.metric(
        "store.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    out.metric(
        "store.shard_fetch_s_per_job",
        d("dasc_store_shard_fetch_us_sum", Labels::Any) / 1e6 / ref_jobs,
        "s",
    );
    out.metric("proc.cpu_s_per_op", cpu_per_job, "s");
    out.metric(
        "bench.trace_overhead_pct",
        (untraced_pps - traced_pps) / untraced_pps * 100.0,
        "%",
    );
    drop(system);
    write_trace(&mut out, NAME, seed, &log, jobs.len());
    out
}
