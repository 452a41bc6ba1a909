//! The `serve` layer's section of `grid_dense_k`'s traced run: a
//! `dasc-serve` HTTP server in its own process, one client on one
//! keep-alive connection sending fifteen `/assign` calls for every
//! `/assign_batch` of 256 points.
//!
//! It is not a workload with end-to-end metrics: its single-CPU request
//! loop ran at two speeds (about 16 and 29 µs per `/assign`, batches
//! alike) in spells of seconds to minutes set by load elsewhere on the
//! host, so ten runs of the same code spread 25–43 % (see METRICS.md).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dasc_core::{Dasc, DascConfig};
use dasc_data::SyntheticConfig;
use dasc_kernel::Kernel;
use dasc_lsh::LshConfig;
use dasc_serve::{AssignmentEngine, JsonValue, ModelArtifact, Route, Server, ServerConfig};

use crate::harness::{out_dir, timed, write_trace, Checks, ChildProc, Outcome, SplitMix};
use crate::trace::SpanLog;
use crate::{procfs, stats};

const TRAIN_N: usize = 4_000;
const DIMS: usize = 16;
const CLUSTERS: usize = 8;
const BITS: usize = 12;
/// Generator and training seed, as in the repository's
/// `serve_throughput` bench; `--seed` draws the probe stream.
const TRAIN_SEED: u64 = 42;
const BATCH: usize = 256;
const SINGLES_PER_BATCH: usize = 15;
/// Untimed requests before measuring.
const WARMUP_REQUESTS: usize = 2_000;
/// The traced segment writes spans for at most this many requests.
const TRACED_SPAN_CAP: usize = 20_000;
const HEALTH_TIMEOUT: Duration = Duration::from_secs(60);

fn train() -> (Vec<Vec<f64>>, ModelArtifact) {
    let ds = SyntheticConfig::blobs(TRAIN_N, DIMS, CLUSTERS)
        .seed(TRAIN_SEED)
        .generate();
    let cfg = DascConfig::for_dataset(TRAIN_N, CLUSTERS)
        .kernel(Kernel::gaussian_median_heuristic(&ds.points))
        .lsh(LshConfig::with_bits(BITS))
        .seed(TRAIN_SEED);
    let trained = Dasc::new(cfg).train(&ds.points);
    let artifact = ModelArtifact::from_trained(&trained, &ds.points);
    (ds.points, artifact)
}

/// One probe: the point and its request body.
struct Probe {
    point: Vec<f64>,
    json: String,
}

/// Every training point plus jittered copies of half of them, in an
/// order drawn from `seed`. A copy moves one to three coordinates by
/// 0.5–2.5 each, so some keep their signature, some land one bit away,
/// and some match no trained signature: all three routes occur.
fn probes(train: &[Vec<f64>], seed: u64) -> Vec<Probe> {
    let mut rng = SplitMix::new(seed);
    let mut out: Vec<Probe> = Vec::new();
    let mut push = |point: Vec<f64>| {
        let json = point_json(&point);
        out.push(Probe { point, json });
    };
    for p in train {
        push(p.clone());
    }
    for _ in 0..train.len() / 2 {
        let mut q = train[rng.below(train.len())].clone();
        for _ in 0..1 + rng.below(3) {
            q[rng.below(DIMS)] += 0.5 + 2.0 * (rng.below(1_000) as f64 / 1_000.0);
        }
        push(q);
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// `[x, y, ...]` with Rust's shortest round-trip float formatting, so
/// the server parses back exactly the points the engine is checked on.
fn point_json(p: &[f64]) -> String {
    let coords: Vec<String> = p.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", coords.join(","))
}

/// Child role: serve the artifact at `model` until killed, on the CPUs
/// listed in `cpus` (comma-separated; empty for no restriction); prints
/// `addr <addr>` once listening.
pub fn server_child(model: &str, cpus: &str) -> Result<(), String> {
    if !cpus.is_empty() {
        let list = cpus
            .split(',')
            .map(|c| c.parse().map_err(|_| format!("bad --cpus {cpus:?}")))
            .collect::<Result<Vec<usize>, _>>()?;
        // Server threads inherit this from the thread that starts them.
        procfs::pin_current_thread(&list)?;
    }
    let artifact = ModelArtifact::load(model).map_err(|e| format!("load {model}: {e}"))?;
    let config = ServerConfig {
        workers: procfs::nproc(),
        ..ServerConfig::default()
    };
    let handle = Server::new(AssignmentEngine::new(&artifact), config)
        .start()
        .map_err(|e| format!("server start: {e}"))?;
    println!("addr {}", handle.addr());
    std::io::stdout().flush().ok();
    handle.wait();
    Ok(())
}

/// A keep-alive HTTP/1.1 connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    addr: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer: stream,
            reader,
            addr: addr.to_string(),
        })
    }

    /// Send one request and read the whole reply: `(status, body)`.
    fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        self.writer
            .write_all(head.as_bytes())
            .and_then(|_| self.writer.write_all(body.as_bytes()))
            .map_err(|e| format!("send {path}: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("read {path}: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("read {path}: {e}"))?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(|_| format!("bad length {v:?}"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read {path} body: {e}"))?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| format!("{path}: reply is not UTF-8"))
    }
}

/// The CPU the client and the server process share: the first one this
/// process may use (none, so no pinning, where affinity is unknown).
/// On separate CPUs every request had to wake an idle vCPU, so runs fell
/// into two modes (about 30 or 40 µs per single request) and followed
/// host steal: 115–201 k points/s against 228–254 k on one shared CPU,
/// in alternating runs.
fn serve_cpus() -> Vec<usize> {
    procfs::allowed_cpus().into_iter().take(1).collect()
}

/// Train, save, start a server process, and wait for `/healthz`.
fn start_server(path: &PathBuf, cpus: &[usize]) -> Result<(ChildProc, String), String> {
    let (_, artifact) = train();
    artifact
        .save(path)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    let cpus: Vec<String> = cpus.iter().map(usize::to_string).collect();
    let mut child = ChildProc::spawn(
        &[
            "--role",
            "server",
            "--model",
            &path.to_string_lossy(),
            "--cpus",
            &cpus.join(","),
        ]
        .map(String::from),
        &[],
    )?;
    let addr = child.expect_line("addr")?;
    let start = Instant::now();
    loop {
        if let Ok((200, _)) = Conn::open(&addr).and_then(|mut c| c.call("GET", "/healthz", "")) {
            return Ok((child, addr));
        }
        if start.elapsed() > HEALTH_TIMEOUT {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What the client saw in one measured segment.
#[derive(Default)]
struct Segment {
    single_s: Vec<f64>,
    batch_s: Vec<f64>,
    /// Assignments per route: exact, one-bit neighbor, fallback.
    routes: [u64; 3],
}

impl Segment {
    fn ops(&self) -> usize {
        self.single_s.len() + self.batch_s.len()
    }
}

fn route_index(route: &str) -> usize {
    [Route::Exact, Route::OneBitNeighbor, Route::GlobalFallback]
        .iter()
        .position(|r| r.as_str() == route)
        .expect("engine routes are the three tiers")
}

/// One request the client sends, built before measuring so the loop
/// spends its time on the server. Once a reply has been checked field
/// by field against the engine, later replies must equal its bytes.
struct Request {
    path: &'static str,
    body: String,
    probes: Vec<usize>,
    verified: Option<String>,
}

/// A single request per probe, and the probe stream cut into batches.
fn requests(probes: &[Probe]) -> (Vec<Request>, Vec<Request>) {
    let singles = probes
        .iter()
        .enumerate()
        .map(|(i, p)| Request {
            path: "/assign",
            body: format!("{{\"point\":{}}}", p.json),
            probes: vec![i],
            verified: None,
        })
        .collect();
    let order: Vec<usize> = (0..probes.len()).collect();
    let batches = order
        .chunks_exact(BATCH)
        .map(|idx| {
            let pts: Vec<&str> = idx.iter().map(|&i| probes[i].json.as_str()).collect();
            Request {
                path: "/assign_batch",
                body: format!("{{\"points\":[{}]}}", pts.join(",")),
                probes: idx.to_vec(),
                verified: None,
            }
        })
        .collect();
    (singles, batches)
}

/// Whether a reply carries the engine's cluster and route for every
/// probe of the request.
fn matches_engine(reply: &str, req: &Request, want: &[(usize, &'static str)]) -> bool {
    let Ok(v) = JsonValue::parse(reply) else {
        return false;
    };
    let pairs: Vec<(Option<f64>, Option<&str>)> = if req.path == "/assign" {
        vec![(
            v.get("cluster").and_then(JsonValue::as_f64),
            v.get("route").and_then(JsonValue::as_str),
        )]
    } else {
        let (Some(c), Some(r)) = (
            v.get("clusters").and_then(JsonValue::as_array),
            v.get("routes").and_then(JsonValue::as_array),
        ) else {
            return false;
        };
        c.iter()
            .zip(r)
            .map(|(c, r)| (c.as_f64(), r.as_str()))
            .collect()
    };
    pairs.len() == req.probes.len()
        && req.probes.iter().zip(pairs).all(|(&i, (cluster, route))| {
            cluster.map(|c| c as usize) == Some(want[i].0) && route == Some(want[i].1)
        })
}

/// The client loop against one connection.
struct Client<'a> {
    conn: Conn,
    /// Engine assignment per probe: `(cluster, route)`.
    want: &'a [(usize, &'static str)],
    singles: Vec<Request>,
    batches: Vec<Request>,
    sent: usize,
}

impl Client<'_> {
    /// Send requests in the 15 : 1 mix, `requests` of them or until
    /// `seconds` pass, whichever is set.
    fn run(
        &mut self,
        seconds: Option<f64>,
        requests: Option<usize>,
        log: Option<&SpanLog>,
        checks: &mut Checks,
    ) -> Segment {
        let mut seg = Segment::default();
        let mut count = 0usize;
        let start = Instant::now();
        loop {
            if requests.is_some_and(|r| count >= r)
                || seconds.is_some_and(|s| count > 0 && start.elapsed().as_secs_f64() >= s)
            {
                break;
            }
            let group = self.sent / (SINGLES_PER_BATCH + 1);
            let batch = self.sent % (SINGLES_PER_BATCH + 1) == SINGLES_PER_BATCH;
            let req = if batch {
                let n = self.batches.len();
                &mut self.batches[group % n]
            } else {
                let n = self.singles.len();
                &mut self.singles
                    [(group * SINGLES_PER_BATCH + self.sent % (SINGLES_PER_BATCH + 1)) % n]
            };
            let span = log.filter(|_| count < TRACED_SPAN_CAP).map(|l| {
                l.open(
                    if batch {
                        "serve.http.assign_batch"
                    } else {
                        "serve.http.assign"
                    },
                    0,
                )
            });
            let (secs, reply) = timed(|| self.conn.call("POST", req.path, &req.body));
            drop(span);
            self.sent += 1;
            count += 1;
            if batch {
                seg.batch_s.push(secs);
            } else {
                seg.single_s.push(secs);
            }
            let ok = match reply {
                Ok((200, body)) => {
                    let ok = match &req.verified {
                        Some(v) => *v == body,
                        None => matches_engine(&body, req, self.want),
                    };
                    if ok && req.verified.is_none() {
                        req.verified = Some(body);
                    } else if !ok {
                        checks.error(format!(
                            "{} reply differs from the engine: {body}",
                            req.path
                        ));
                    }
                    ok
                }
                Ok((status, body)) => {
                    checks.error(format!("{}: HTTP {status}: {body}", req.path));
                    false
                }
                Err(e) => {
                    checks.error(e);
                    false
                }
            };
            if ok {
                checks.op(true, String::new);
                for &i in &req.probes {
                    seg.routes[route_index(self.want[i].1)] += 1;
                }
            }
        }
        seg
    }
}

/// Everything the section needs: the server, the probes and the
/// engine's answers.
struct Setup {
    /// Held so the server process lives, and is stopped, with the set-up.
    _server: ChildProc,
    addr: String,
    probes: Vec<Probe>,
    engine: AssignmentEngine,
    want: Vec<(usize, &'static str)>,
    model: PathBuf,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.model);
    }
}

fn set_up(seed: u64) -> Result<Setup, String> {
    let (points, _) = train();
    let probes = probes(&points, seed);
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let model = out_dir().join(format!("serve-{}.dasc", std::process::id()));
    let cpus = serve_cpus();
    let (server, addr) = start_server(&model, &cpus)?;
    // Pinned after training, so the training pool keeps every CPU.
    if !cpus.is_empty() {
        procfs::pin_current_thread(&cpus)?;
    }
    let artifact = ModelArtifact::load(&model).map_err(|e| format!("load model: {e}"))?;
    let engine = AssignmentEngine::new(&artifact);
    let want = probes
        .iter()
        .map(|p| {
            let a = engine.assign(&p.point);
            (a.cluster, a.route.as_str())
        })
        .collect();
    Ok(Setup {
        _server: server,
        addr,
        probes,
        engine,
        want,
        model,
    })
}

fn client<'a>(s: &'a Setup, checks: &mut Checks) -> Result<Client<'a>, String> {
    let (singles, batches) = requests(&s.probes);
    let mut c = Client {
        conn: Conn::open(&s.addr)?,
        want: &s.want,
        singles,
        batches,
        sent: 0,
    };
    c.run(None, Some(WARMUP_REQUESTS), None, checks);
    Ok(c)
}

/// Median per-call microseconds of direct `AssignmentEngine::assign`
/// calls over the probe stream, for about half a second.
fn engine_us_p50(engine: &AssignmentEngine, probes: &[Probe]) -> f64 {
    let mut us = Vec::new();
    let start = Instant::now();
    for p in probes.iter().cycle() {
        let t = Instant::now();
        std::hint::black_box(engine.assign(std::hint::black_box(&p.point)));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if us.len() % 1024 == 0 && start.elapsed().as_secs_f64() > 0.5 {
            break;
        }
    }
    stats::median(&us).unwrap_or(0.0)
}

/// Add the `serve.*` metrics and `self_s_per_op.serve` to `out`: engine
/// timing, an untraced HTTP segment, then a segment with spans around
/// each request, each segment `seconds` long. The spans go to their own
/// file, `<stem>-seed<seed>-trace.json`, so self time is per request.
pub fn add_layer_metrics(out: &mut Outcome, stem: &str, seed: u64, seconds: f64) {
    let setup = match set_up(seed) {
        Ok(s) => s,
        Err(e) => return out.checks.error(e),
    };
    let mut c = match client(&setup, &mut out.checks) {
        Ok(c) => c,
        Err(e) => return out.checks.error(e),
    };
    let engine_us = engine_us_p50(&setup.engine, &setup.probes);
    let plain = c.run(Some(seconds), None, None, &mut out.checks);
    let log = SpanLog::new();
    let traced = c.run(Some(seconds), None, Some(&log), &mut out.checks);

    let assigned = plain.routes.iter().sum::<u64>().max(1) as f64;
    out.metric("serve.engine_assign_us_p50", engine_us, "us");
    out.metric(
        "serve.http_overhead_us_p50",
        stats::median(&plain.single_s).unwrap_or(0.0) * 1e6 - engine_us,
        "us",
    );
    out.metric(
        "serve.batch_points_per_s",
        (BATCH * plain.batch_s.len()) as f64 / plain.batch_s.iter().sum::<f64>(),
        "points/s",
    );
    for (name, count) in ["exact", "neighbor", "fallback"].iter().zip(plain.routes) {
        out.metric(
            format!("serve.route_share.{name}"),
            count as f64 / assigned,
            "ratio",
        );
    }
    write_trace(out, stem, seed, &log, traced.ops().min(TRACED_SPAN_CAP));
}
