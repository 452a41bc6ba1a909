//! Benchmark-side spans around calls into each layer, written as a
//! Chrome trace (`chrome://tracing`, Perfetto), and per-layer self time
//! computed back from that file.
//!
//! A span's layer is its name up to the first `.` (`kernel.gram` →
//! `kernel`). Its self time is its duration minus the part of it that
//! its child spans cover; children that run in parallel on several
//! threads are merged into one covered interval set first.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dasc_serve::JsonValue;

/// One finished span. Times are microseconds since the log's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Small per-thread index, for the trace viewer's lanes.
    pub tid: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_index() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// In-memory span log, shared across threads; written out once at the
/// end of the run.
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under `parent` (`0` for a root). It is recorded when
    /// the guard finishes or drops.
    pub fn open(&self, name: &str, parent: u64) -> SpanGuard<'_> {
        SpanGuard {
            log: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_us: self.now_us(),
            done: false,
        }
    }

    /// Record a span whose duration was measured elsewhere (the
    /// coordinator's stage times), placed at `start_us`.
    pub fn record(&self, name: &str, parent: u64, start_us: f64, dur_us: f64) {
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_us,
            end_us: start_us + dur_us.max(0.0),
            tid: thread_index(),
        };
        self.push(span);
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// An open span; finishing it records it and returns its duration in
/// seconds.
pub struct SpanGuard<'a> {
    log: &'a SpanLog,
    id: u64,
    parent: u64,
    name: String,
    start_us: f64,
    done: bool,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn start_us(&self) -> f64 {
        self.start_us
    }

    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        self.done = true;
        let end_us = self.log.now_us();
        self.log.push(Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            end_us,
            tid: thread_index(),
        });
        (end_us - self.start_us) / 1e6
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.close();
        }
    }
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span,
/// with the span's id and parent in `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer(),
            s.start_us,
            s.dur_us(),
            s.tid,
            s.id,
            s.parent
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Read spans back from [`to_chrome_json`] output.
pub fn from_chrome_json(text: &str) -> Result<Vec<Span>, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("trace json: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace json: no traceEvents array")?;
    events
        .iter()
        .map(|e| {
            let num = |v: Option<&JsonValue>, what: &str| {
                v.and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("trace event without {what}"))
            };
            let args = e.get("args");
            let start_us = num(e.get("ts"), "ts")?;
            Ok(Span {
                id: num(args.and_then(|a| a.get("id")), "args.id")? as u64,
                parent: num(args.and_then(|a| a.get("parent")), "args.parent")? as u64,
                name: e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("trace event without name")?
                    .to_string(),
                start_us,
                end_us: start_us + num(e.get("dur"), "dur")?,
                tid: num(e.get("tid"), "tid")? as u64,
            })
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time in seconds summed per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = s.dur_us() - covered(kids, s.start_us, s.end_us);
        *out.entry(s.layer().to_string()).or_default() += own / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, "bench.op", 0.0, 1_000_000.0),
            span(2, 1, "kernel.gram", 100_000.0, 400_000.0),
            // Two parallel children overlapping each other.
            span(3, 1, "pool.task", 500_000.0, 900_000.0),
            span(4, 1, "pool.task", 600_000.0, 950_000.0),
            span(5, 3, "spectral.eigen", 500_000.0, 800_000.0),
        ];
        let by = self_time_by_layer(&spans);
        // op: 1.0 s minus [0.1,0.4] and [0.5,0.95] = 0.25 s.
        assert!((by["bench"] - 0.25).abs() < 1e-9);
        assert!((by["kernel"] - 0.3).abs() < 1e-9);
        // tasks: 0.4 − 0.3 (eigen) + 0.35.
        assert!((by["pool"] - 0.45).abs() < 1e-9);
        assert!((by["spectral"] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(1, 0, "dist.job", 0.0, 100.0),
            span(2, 1, "dist.stage1", 50.0, 150.0),
        ];
        let by = self_time_by_layer(&spans);
        assert!((by["dist"] - (50.0 + 100.0) / 1e6).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_round_trips() {
        let log = SpanLog::new();
        {
            let root = log.open("bench.op", 0);
            let child = log.open("lsh.partition", root.id());
            child.finish();
            log.record("dist.stage1", root.id(), root.start_us(), 5.0);
            root.finish();
        }
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        let back = from_chrome_json(&to_chrome_json(&spans)).unwrap();
        assert_eq!(back.len(), spans.len());
        for (a, b) in spans.iter().zip(&back) {
            assert_eq!(
                (a.id, a.parent, &a.name, a.tid),
                (b.id, b.parent, &b.name, b.tid)
            );
            assert!((a.start_us - b.start_us).abs() < 1e-3);
            assert!((a.end_us - b.end_us).abs() < 2e-3);
        }
        assert_eq!(back[0].layer(), "lsh");
    }
}
