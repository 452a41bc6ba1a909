//! Shared plumbing: metrics and output checks, the result line,
//! provenance, seeded inputs, and child processes of this binary.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::trace::{self, SpanLog};
use crate::{procfs, stats};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ops attempted and output checks failed. A failed check counts its op
/// as failed; it never panics.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count one op whose output check was `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// An op that returned an error instead of output.
    pub fn error(&mut self, message: String) {
        self.op(false, || message);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Extra facts for the provenance record (`key`, JSON value).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(checks: Checks) -> Self {
        Self {
            checks,
            metrics: Vec::new(),
            facts: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            // An empty float sum is −0.0; report it as 0.
            value: value + 0.0,
            unit,
        });
    }

    pub fn fact(&mut self, key: &str, json_value: String) {
        self.facts.push((key.to_string(), json_value));
    }
}

/// A JSON number with every digit Rust keeps; non-finite values (a
/// bug upstream) become `null` so the line still parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(outcome: &Outcome) -> String {
    let c = &outcome.checks;
    let nonfinite = outcome.metrics.iter().any(|m| !m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0 && c.attempted > 0 && !nonfinite,
        c.attempted.max(1),
        c.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        )
        .expect("write to string");
    }
    out.push_str("}}");
    out
}

/// The metrics every workload computes the same way from its op times.
/// `points` is every point the measured ops clustered or assigned, over
/// `wall` seconds; `setup` holds the run's set-up samples.
pub fn end_to_end_metrics(out: &mut Outcome, points: f64, op_s: &[f64], wall: f64, setup: &[f64]) {
    let ok = out.checks.attempted - out.checks.failed;
    out.metric("points_per_s", points / wall, "points/s");
    let median = stats::median(op_s).unwrap_or(0.0);
    out.metric("op_s_p50", median, "s");
    // p99 where at least ten samples lie beyond it; with fewer samples,
    // the highest percentile that has that support, down to the median.
    let tail = stats::highest_supported_percentile(op_s.len()).map_or(50.0, |p| p.min(99.0));
    let tail_s = if tail > 50.0 {
        stats::percentile(op_s, tail).unwrap_or(0.0)
    } else {
        median
    };
    out.metric("op_s_p99", tail_s, "s");
    out.metric("setup_s", stats::median(setup).unwrap_or(0.0), "s");
    out.metric(
        "ok_ratio",
        ok as f64 / out.checks.attempted.max(1) as f64,
        "ratio",
    );
    out.fact("op_samples", op_s.len().to_string());
    if op_s.len() <= 1_000 {
        let list: Vec<String> = op_s.iter().map(|&s| json_num(s)).collect();
        out.fact("op_s", format!("[{}]", list.join(", ")));
    }
    out.fact(
        "op_s_iqr_share",
        json_num(stats::iqr_share(op_s).unwrap_or(0.0)),
    );
    out.fact("op_s_p99_percentile", tail.to_string());
}

/// Write the span file `<stem>-seed<seed>-trace.json`, read it back,
/// and report per-layer self time per traced op from the file, for the
/// layers that have spans in it.
pub fn write_trace(out: &mut Outcome, stem: &str, seed: u64, log: &SpanLog, ops: usize) {
    let path = out_dir().join(format!("{stem}-seed{seed}-trace.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&path, trace::to_chrome_json(&log.spans())))
        .map_err(|e| format!("write {}: {e}", path.display()));
    let by_layer = written
        .and_then(|_| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
        .and_then(|text| trace::from_chrome_json(&text))
        .map(|spans| trace::self_time_by_layer(&spans));
    match by_layer {
        Ok(by_layer) => {
            for layer in crate::LAYERS {
                if let Some(s) = by_layer.get(layer) {
                    out.metric(format!("self_s_per_op.{layer}"), s / ops.max(1) as f64, "s");
                }
            }
            out.fact(
                &format!("trace_file.{stem}"),
                json_str(&path.display().to_string()),
            );
        }
        Err(e) => out.checks.error(format!("trace file: {e}")),
    }
}

/// Directory for trace files and scratch stores: `out/` beside this
/// package's manifest, inside the checkout being measured.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance for every result: revision, host, pool width, kernel
/// backend, compiler and seed.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    pool_width: usize,
) -> String {
    let mut out = String::from("{");
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        (
            "git_revision",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", procfs::nproc().to_string()),
        ("pool_width", pool_width.to_string()),
        (
            "kernel_backend",
            json_str(dasc_linalg::KernelBackend::resolved().as_str()),
        ),
        ("cpu_model", json_str(&procfs::cpu_model())),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
    ];
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{}: {v}", json_str(k)).expect("write to string");
    }
    out.push('}');
    out
}

/// SplitMix64: a small deterministic generator for the benchmark's own
/// input shuffles (the program's generators stay untouched).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A Fisher–Yates permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

/// Points and labels of a generated dataset in the order `perm`.
pub fn reorder(
    points: &[Vec<f64>],
    labels: &[usize],
    perm: &[usize],
) -> (Vec<Vec<f64>>, Vec<usize>) {
    (
        perm.iter().map(|&i| points[i].clone()).collect(),
        perm.iter().map(|&i| labels[i]).collect(),
    )
}

/// FNV-1a over a label vector, for comparing labels across processes.
pub fn label_hash(labels: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels {
        for b in (l as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// A child process running this binary in another role. Its stdout is
/// a line protocol; dropping the handle kills it and waits for it.
pub struct ChildProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Start `current_exe <args>` with extra environment.
    pub fn spawn(args: &[String], env: &[(&str, String)]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Self { child, stdout })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Read lines until one starts with `prefix`; return the rest of
    /// it. A line starting with `error` or end of output is an error.
    pub fn expect_line(&mut self, prefix: &str) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read child output: {e}"))?;
            if n == 0 {
                return Err(format!("child exited before printing {prefix:?}"));
            }
            let l = line.trim_end();
            if let Some(rest) = l.strip_prefix(prefix) {
                return Ok(rest.trim().to_string());
            }
            if l.starts_with("error") {
                return Err(format!("child: {l}"));
            }
        }
    }

    /// Peak RSS (MiB) and CPU seconds so far, read before stopping it.
    pub fn usage(&self) -> (f64, f64) {
        (
            procfs::peak_rss_mib(self.pid()).unwrap_or(0.0),
            procfs::cpu_seconds(self.pid()).unwrap_or(0.0),
        )
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
