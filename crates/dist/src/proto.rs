//! The coordinator/worker message protocol.
//!
//! Every message is one `dasc-net` frame: the frame's `msg_type` is the
//! [`MsgType`] discriminant and the payload is the [`Wire`]-encoded
//! body. The scheme is deliberately Hadoop-shaped: workers *pull* tasks
//! ([`RequestTask`](Msg::RequestTask)) the way task trackers ask the
//! job tracker for work on each heartbeat. Tasks are
//! **shard-addressed**: they carry the dataset's [`DatasetManifest`]
//! plus row ranges or member ids, never points, and workers resolve the
//! shard bytes through a local cache, fetching misses from the
//! coordinator with [`ShardRequest`](Msg::ShardRequest) (the
//! coordinator plays both job tracker and name node). A job submitted
//! with inline points runs the same tasks over an in-memory store the
//! coordinator packs from them.
//!
//! | tag | message        | direction            |
//! |-----|----------------|----------------------|
//! | 1   | Register       | worker → coordinator |
//! | 2   | RegisterAck    | reply                |
//! | 3   | Heartbeat      | worker → coordinator |
//! | 4   | HeartbeatAck   | reply                |
//! | 5   | RequestTask    | worker → coordinator |
//! | 6   | AssignTask     | reply                |
//! | 7   | NoTask         | reply                |
//! | 8   | TaskDone       | worker → coordinator |
//! | 9   | TaskAck        | reply                |
//! | 10  | SubmitJob      | client → coordinator |
//! | 11  | JobAccepted    | reply                |
//! | 12  | PollJob        | client → coordinator |
//! | 13  | JobPending     | reply                |
//! | 14  | JobResult      | reply                |
//! | 15  | JobError       | reply                |
//! | 16  | MetricsRequest | client → coordinator |
//! | 17  | MetricsReply   | reply                |
//! | 18  | TaskFailed     | worker → coordinator |
//! | 19  | TraceRequest   | client → coordinator |
//! | 20  | TraceReply     | reply                |
//! | 21  | ShardRequest   | worker → coordinator |
//! | 22  | ShardReply     | reply                |
//! | 23  | UnknownWorker  | reply                |
//!
//! `RequestTask` and `PollJob` are long-polls: when there is nothing to
//! report yet, the coordinator parks the request until there is, or
//! until one deadline passes (`heartbeat_interval`, clamped to half the
//! RPC read timeout), instead of making the caller sleep and re-ask.
//!
//! Observability rides the same frames: tasks carry a trace context
//! ([`Task::trace_parent`]), completed tasks return their span log
//! inside [`TaskDone`](Msg::TaskDone), and heartbeats piggyback each
//! worker's [`MetricsSnapshot`] for coordinator-side federation.

use dasc_kernel::Kernel;
use dasc_lsh::HashPlane;
use dasc_net::{Wire, WireError, WireReader, WireWriter};
use dasc_obs::{HistogramSnapshot, MetricsSnapshot, SpanRecord, HISTOGRAM_BUCKETS};
use dasc_store::{DatasetManifest, ShardMeta};

/// Frame `msg_type` values (see module table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum MsgType {
    Register = 1,
    RegisterAck = 2,
    Heartbeat = 3,
    HeartbeatAck = 4,
    RequestTask = 5,
    AssignTask = 6,
    NoTask = 7,
    TaskDone = 8,
    TaskAck = 9,
    SubmitJob = 10,
    JobAccepted = 11,
    PollJob = 12,
    JobPending = 13,
    JobResult = 14,
    JobError = 15,
    MetricsRequest = 16,
    MetricsReply = 17,
    TaskFailed = 18,
    TraceRequest = 19,
    TraceReply = 20,
    ShardRequest = 21,
    ShardReply = 22,
    UnknownWorker = 23,
}

impl MsgType {
    /// Parse a frame's `msg_type` field.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => MsgType::Register,
            2 => MsgType::RegisterAck,
            3 => MsgType::Heartbeat,
            4 => MsgType::HeartbeatAck,
            5 => MsgType::RequestTask,
            6 => MsgType::AssignTask,
            7 => MsgType::NoTask,
            8 => MsgType::TaskDone,
            9 => MsgType::TaskAck,
            10 => MsgType::SubmitJob,
            11 => MsgType::JobAccepted,
            12 => MsgType::PollJob,
            13 => MsgType::JobPending,
            14 => MsgType::JobResult,
            15 => MsgType::JobError,
            16 => MsgType::MetricsRequest,
            17 => MsgType::MetricsReply,
            18 => MsgType::TaskFailed,
            19 => MsgType::TraceRequest,
            20 => MsgType::TraceReply,
            21 => MsgType::ShardRequest,
            22 => MsgType::ShardReply,
            23 => MsgType::UnknownWorker,
            _ => return None,
        })
    }
}

/// One protocol message; [`Msg::msg_type`] names its frame tag.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Worker announces itself; `name` is a human-readable label.
    Register { name: String },
    /// Coordinator's reply: assigned id + heartbeat cadence to honour.
    RegisterAck {
        worker_id: u64,
        heartbeat_interval_ms: u64,
    },
    /// Worker liveness ping (sent on a dedicated connection),
    /// piggybacking the worker's current metrics snapshot for
    /// coordinator-side federation (empty when telemetry is off).
    Heartbeat {
        worker_id: u64,
        metrics: MetricsSnapshot,
    },
    /// Heartbeat reply.
    HeartbeatAck,
    /// Worker asks for work (the Hadoop pull model). A long-poll: with
    /// no task pending, the coordinator holds the request until one is
    /// queued, the worker is declared lost, shutdown starts, or the
    /// park deadline passes.
    RequestTask { worker_id: u64 },
    /// Coordinator hands out one task.
    AssignTask { task: Task },
    /// Nothing to do right now; ask again after `backoff_ms`. A parked
    /// `RequestTask` whose deadline passed replies `backoff_ms == 0`:
    /// ask again at once (the wait already happened on the coordinator).
    NoTask { backoff_ms: u64 },
    /// Worker ships a completed task's output plus the span log the
    /// task body recorded under its trace context (empty when the task
    /// carried no [`Task::trace_parent`]). Span timestamps are relative
    /// to the task body's start; the coordinator rebases them onto the
    /// job timeline at assignment time.
    TaskDone {
        worker_id: u64,
        task_id: u64,
        output: TaskOutput,
        spans: Vec<SpanRecord>,
    },
    /// Coordinator acknowledges a result (stale results are acked too).
    TaskAck,
    /// Job client submits a DASC job (points + config inline).
    SubmitJob { spec: JobSpec },
    /// Coordinator accepted the job.
    JobAccepted { job_id: u64 },
    /// Job client polls for completion. A long-poll: the reply comes
    /// when the job finishes or fails, or as [`JobPending`](Msg::JobPending)
    /// after at most one park deadline.
    PollJob { job_id: u64 },
    /// Job still running: which stage, and task progress within it.
    JobPending { stage: u8, done: u64, total: u64 },
    /// Job finished.
    JobResult { outcome: JobOutcome },
    /// Job (or request) failed for good.
    JobError { message: String },
    /// Ask for a Prometheus-text metrics snapshot.
    MetricsRequest,
    /// Metrics snapshot reply.
    MetricsReply { text: String },
    /// Worker reports a task attempt that errored (panicked).
    TaskFailed {
        worker_id: u64,
        task_id: u64,
        error: String,
    },
    /// Ask for a finished job's merged multi-lane trace.
    TraceRequest { job_id: u64 },
    /// The merged Chrome trace-event JSON (coordinator lane + one lane
    /// per worker). Empty string when the job collected no trace.
    TraceReply { json: String },
    /// Worker asks the coordinator (acting as name node) for one raw
    /// shard of a registered dataset, addressed by content hash.
    ShardRequest { dataset: u64, shard: u32 },
    /// The shard's file bytes, verbatim — the requester validates them
    /// against the manifest's per-shard checksum before use, so a
    /// corrupt or substituted reply can never enter a computation.
    ShardReply { bytes: Vec<u8> },
    /// Reply to a worker-scoped request carrying an id the coordinator
    /// does not know (never registered, or declared lost after missed
    /// heartbeats or a dropped task connection). The worker must
    /// register again and use its new id.
    UnknownWorker { worker_id: u64 },
}

/// Largest merged trace JSON the coordinator will put on the wire —
/// the `dasc-net` string cap (`put_str` panics past 1 MiB), minus
/// nothing: a trace at exactly the cap still fits its own frame.
pub const MAX_TRACE_JSON: usize = 1 << 20;

/// Job progress stages reported in [`Msg::JobPending`].
pub mod stage {
    /// Queued, not yet started.
    pub const QUEUED: u8 = 0;
    /// Stage 1: LSH signature map tasks.
    pub const MAP: u8 = 1;
    /// Stage 2: per-bucket spectral reduce tasks.
    pub const REDUCE: u8 = 2;
    /// Stitch + consolidate on the coordinator.
    pub const FINISH: u8 = 3;
}

/// One schedulable unit of work.
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// Owning job.
    pub job_id: u64,
    /// Unique per coordinator lifetime; retries keep the id.
    pub task_id: u64,
    /// Attempt number, starting at 1 (Hadoop counts the same way).
    pub attempt: u32,
    /// Trace context: the coordinator-side span id this task's spans
    /// hang under (the stage span). 0 means the job is not tracing and
    /// the worker should not collect spans for this task.
    pub trace_parent: u64,
    /// What to compute.
    pub kind: TaskKind,
}

/// Task bodies: the two DASC stages over a dataset the worker reads
/// shard by shard. Wire tags 0 and 1 belonged to task kinds that
/// carried points inline; they are retired and decode to an error.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskKind {
    /// Shard-addressed stage 1: hash the global row range
    /// `start..start + len` of the manifest's dataset. Ships no point
    /// data — the worker resolves rows from its shard cache.
    MapSignaturesRef {
        /// Signature width M.
        num_bits: usize,
        /// The fitted model's hash planes, in bit order.
        planes: Vec<HashPlane>,
        /// Shard table of the dataset the rows live in.
        manifest: DatasetManifest,
        /// First global row of the range.
        start: usize,
        /// Rows in the range.
        len: usize,
    },
    /// Shard-addressed stage 2: cluster the bucket whose members are
    /// the listed global rows of the manifest's dataset.
    ReduceBucketRef {
        /// Bucket index in the merged bucket set (drives the spectral
        /// seed derivation).
        bucket_id: usize,
        /// Clusters apportioned to this bucket.
        ki: usize,
        /// Kernel for the sub-similarity block.
        kernel: Kernel,
        /// Run seed (bucket seed derives from it).
        seed: u64,
        /// Dense→Lanczos crossover.
        lanczos_threshold: usize,
        /// Shard table of the dataset the members live in.
        manifest: DatasetManifest,
        /// Global point ids, in bucket order.
        members: Vec<usize>,
    },
}

impl TaskKind {
    /// The DASC stage this task belongs to: `"map"` or `"reduce"` (the
    /// `stage` label of the task-duration series).
    pub fn stage(&self) -> &'static str {
        match self {
            TaskKind::MapSignaturesRef { .. } => "map",
            TaskKind::ReduceBucketRef { .. } => "reduce",
        }
    }
}

/// What a completed task ships back.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskOutput {
    /// Stage 1 shuffle output: `(signature bits, member point ids)`.
    MapSignatures(Vec<(u64, Vec<usize>)>),
    /// Stage 2 output: `(point, bucket_id, local cluster)` triples.
    ReduceBucket(Vec<(usize, usize, usize)>),
}

/// How a job names its dataset.
#[derive(Clone, Debug, PartialEq)]
pub enum JobData {
    /// Points travel inside the submission frame. The coordinator packs
    /// them into an in-memory store for the life of the job, so tasks
    /// and workers treat them exactly like a `Ref` dataset.
    Inline { points: Vec<Vec<f64>> },
    /// The dataset is a packed `.dstr` store on the coordinator's
    /// filesystem. Only the path and the expected identity hash travel;
    /// the coordinator opens and verifies the store, then serves shards
    /// to workers on demand.
    Ref { path: String, content_hash: u64 },
}

/// A submitted DASC job: the dataset plus exactly the knobs the CLI
/// derives a `DascConfig` from, so the coordinator reconstructs the
/// identical configuration a single-process run would use.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The dataset, inline or by store reference.
    pub data: JobData,
    /// Total clusters K.
    pub k: usize,
    /// Kernel.
    pub kernel: Kernel,
    /// Explicit signature width; 0 means the paper's `for_dataset`
    /// default `M = ⌈log₂N⌉/2 − 1`.
    pub num_bits: usize,
    /// Run seed.
    pub seed: u64,
    /// Consolidate fragments down to K clusters.
    pub consolidate: bool,
    /// Collect a merged multi-lane trace for this job, retrievable via
    /// [`Msg::TraceRequest`] once the job finishes.
    pub collect_trace: bool,
}

/// A finished job's result plus run accounting for benches.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// Final cluster id per point.
    pub assignments: Vec<usize>,
    /// Number of clusters referenced.
    pub num_clusters: usize,
    /// Merged buckets formed between the stages.
    pub num_buckets: usize,
    /// Distinct workers that completed at least one task.
    pub workers_used: u64,
    /// Stage 1 wall time, microseconds.
    pub stage1_us: u64,
    /// Stage 2 wall time, microseconds.
    pub stage2_us: u64,
    /// Shuffle records shipped worker → coordinator.
    pub shuffle_records: u64,
    /// Approximate payload bytes of task bodies (coordinator → worker)
    /// plus task outputs (worker → coordinator). Shard fetches are not
    /// counted: they are the store's reads, not the job's shuffle.
    pub shuffle_bytes: u64,
    /// Task retries the job survived.
    pub task_retries: u64,
}

fn encode_kernel(k: &Kernel, w: &mut WireWriter) {
    match *k {
        Kernel::Gaussian { sigma } => {
            w.put_u8(0);
            w.put_f64(sigma);
        }
        Kernel::Linear => w.put_u8(1),
        Kernel::Polynomial { degree, c } => {
            w.put_u8(2);
            w.put_u32(degree);
            w.put_f64(c);
        }
        Kernel::Laplacian { gamma } => {
            w.put_u8(3);
            w.put_f64(gamma);
        }
    }
}

fn decode_kernel(r: &mut WireReader<'_>) -> Result<Kernel, WireError> {
    Ok(match r.u8()? {
        0 => Kernel::Gaussian { sigma: r.f64()? },
        1 => Kernel::Linear,
        2 => Kernel::Polynomial {
            degree: r.u32()?,
            c: r.f64()?,
        },
        3 => Kernel::Laplacian { gamma: r.f64()? },
        _ => return Err(WireError::Invalid("kernel tag")),
    })
}

/// Newtype to give [`SpanRecord`] a wire form without dasc-obs
/// depending on dasc-net (obs stays std-only by design).
struct WireSpan(SpanRecord);

impl Wire for WireSpan {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.0.id);
        match self.0.parent {
            Some(p) => {
                w.put_bool(true);
                w.put_u64(p);
            }
            None => w.put_bool(false),
        }
        w.put_str(&self.0.name);
        w.put_u64(self.0.thread);
        w.put_u64(self.0.start_us);
        w.put_u64(self.0.dur_us);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let id = r.u64()?;
        let parent = if r.bool()? { Some(r.u64()?) } else { None };
        Ok(WireSpan(SpanRecord {
            id,
            parent,
            name: r.str()?,
            thread: r.u64()?,
            start_us: r.u64()?,
            dur_us: r.u64()?,
        }))
    }
}

fn encode_spans(spans: &[SpanRecord], w: &mut WireWriter) {
    spans
        .iter()
        .map(|s| WireSpan(s.clone()))
        .collect::<Vec<_>>()
        .encode(w);
}

fn decode_spans(r: &mut WireReader<'_>) -> Result<Vec<SpanRecord>, WireError> {
    Ok(Vec::<WireSpan>::decode(r)?
        .into_iter()
        .map(|s| s.0)
        .collect())
}

/// Wire form of a [`MetricsSnapshot`]. Histogram buckets ship sparsely
/// (`(index, count)` pairs) — most of the 40 log₂ buckets are empty.
/// Gauges are `i64`, bit-cast through `u64` (the wire layer is
/// little-endian two's-complement either way).
fn encode_metrics(m: &MetricsSnapshot, w: &mut WireWriter) {
    w.put_u32(m.counters.len() as u32);
    for (name, v) in &m.counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_u32(m.gauges.len() as u32);
    for (name, v) in &m.gauges {
        w.put_str(name);
        w.put_u64(*v as u64);
    }
    w.put_u32(m.histograms.len() as u32);
    for (name, h) in &m.histograms {
        w.put_str(name);
        w.put_u64(h.count);
        w.put_u64(h.sum);
        let filled: Vec<(u8, u64)> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect();
        w.put_u32(filled.len() as u32);
        for (i, c) in filled {
            w.put_u8(i);
            w.put_u64(c);
        }
    }
}

fn decode_metrics(r: &mut WireReader<'_>) -> Result<MetricsSnapshot, WireError> {
    let mut m = MetricsSnapshot::default();
    for _ in 0..r.seq_len()? {
        let name = r.str()?;
        m.counters.insert(name, r.u64()?);
    }
    for _ in 0..r.seq_len()? {
        let name = r.str()?;
        m.gauges.insert(name, r.u64()? as i64);
    }
    for _ in 0..r.seq_len()? {
        let name = r.str()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for _ in 0..r.seq_len()? {
            let i = r.u8()? as usize;
            if i >= HISTOGRAM_BUCKETS {
                return Err(WireError::Invalid("histogram bucket index"));
            }
            buckets[i] = r.u64()?;
        }
        m.histograms.insert(
            name,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        );
    }
    Ok(m)
}

/// Newtype to give [`DatasetManifest`] a wire form without dasc-store
/// depending on dasc-net (the store's own serialization is its on-disk
/// format, which carries magic bytes and a self-hash the wire form
/// doesn't need — tasks already travel inside checksummed frames).
struct WireManifest(DatasetManifest);

impl Wire for WireManifest {
    fn encode(&self, w: &mut WireWriter) {
        let m = &self.0;
        w.put_u64(m.content_hash);
        w.put_u64(m.n);
        w.put_u64(m.dim);
        w.put_bool(m.has_labels);
        w.put_u64(m.shard_rows);
        w.put_u32(m.shards.len() as u32);
        for s in &m.shards {
            w.put_u64(s.rows);
            w.put_u64(s.byte_len);
            w.put_u64(s.checksum);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let content_hash = r.u64()?;
        let n = r.u64()?;
        let dim = r.u64()?;
        let has_labels = r.bool()?;
        let shard_rows = r.u64()?;
        let count = r.seq_len()?;
        let mut shards = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            shards.push(ShardMeta {
                rows: r.u64()?,
                byte_len: r.u64()?,
                checksum: r.u64()?,
            });
        }
        Ok(WireManifest(DatasetManifest {
            content_hash,
            n,
            dim,
            has_labels,
            shard_rows,
            shards,
        }))
    }
}

/// Newtype to give [`HashPlane`] a wire form without dasc-lsh depending
/// on dasc-net.
struct WirePlane(HashPlane);

impl Wire for WirePlane {
    fn encode(&self, w: &mut WireWriter) {
        w.put_usize(self.0.dimension);
        w.put_f64(self.0.threshold);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WirePlane(HashPlane {
            dimension: r.usize()?,
            threshold: r.f64()?,
        }))
    }
}

impl Wire for Task {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.job_id);
        w.put_u64(self.task_id);
        w.put_u32(self.attempt);
        w.put_u64(self.trace_parent);
        match &self.kind {
            TaskKind::MapSignaturesRef {
                num_bits,
                planes,
                manifest,
                start,
                len,
            } => {
                w.put_u8(2);
                w.put_usize(*num_bits);
                planes
                    .iter()
                    .map(|&p| WirePlane(p))
                    .collect::<Vec<_>>()
                    .encode(w);
                WireManifest(manifest.clone()).encode(w);
                w.put_usize(*start);
                w.put_usize(*len);
            }
            TaskKind::ReduceBucketRef {
                bucket_id,
                ki,
                kernel,
                seed,
                lanczos_threshold,
                manifest,
                members,
            } => {
                w.put_u8(3);
                w.put_usize(*bucket_id);
                w.put_usize(*ki);
                encode_kernel(kernel, w);
                w.put_u64(*seed);
                w.put_usize(*lanczos_threshold);
                WireManifest(manifest.clone()).encode(w);
                members.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let job_id = r.u64()?;
        let task_id = r.u64()?;
        let attempt = r.u32()?;
        let trace_parent = r.u64()?;
        let kind = match r.u8()? {
            2 => TaskKind::MapSignaturesRef {
                num_bits: r.usize()?,
                planes: Vec::<WirePlane>::decode(r)?
                    .into_iter()
                    .map(|p| p.0)
                    .collect(),
                manifest: WireManifest::decode(r)?.0,
                start: r.usize()?,
                len: r.usize()?,
            },
            3 => TaskKind::ReduceBucketRef {
                bucket_id: r.usize()?,
                ki: r.usize()?,
                kernel: decode_kernel(r)?,
                seed: r.u64()?,
                lanczos_threshold: r.usize()?,
                manifest: WireManifest::decode(r)?.0,
                members: Vec::decode(r)?,
            },
            0 | 1 => return Err(WireError::Invalid("retired inline task kind")),
            _ => return Err(WireError::Invalid("task kind tag")),
        };
        Ok(Task {
            job_id,
            task_id,
            attempt,
            trace_parent,
            kind,
        })
    }
}

impl Wire for TaskOutput {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            TaskOutput::MapSignatures(groups) => {
                w.put_u8(0);
                groups.encode(w);
            }
            TaskOutput::ReduceBucket(records) => {
                w.put_u8(1);
                records.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => TaskOutput::MapSignatures(Vec::decode(r)?),
            1 => TaskOutput::ReduceBucket(Vec::decode(r)?),
            _ => return Err(WireError::Invalid("task output tag")),
        })
    }
}

impl Wire for JobData {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            JobData::Inline { points } => {
                w.put_u8(0);
                points.encode(w);
            }
            JobData::Ref { path, content_hash } => {
                w.put_u8(1);
                w.put_str(path);
                w.put_u64(*content_hash);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => JobData::Inline {
                points: Vec::decode(r)?,
            },
            1 => JobData::Ref {
                path: r.str()?,
                content_hash: r.u64()?,
            },
            _ => return Err(WireError::Invalid("job data tag")),
        })
    }
}

impl Wire for JobSpec {
    fn encode(&self, w: &mut WireWriter) {
        self.data.encode(w);
        w.put_usize(self.k);
        encode_kernel(&self.kernel, w);
        w.put_usize(self.num_bits);
        w.put_u64(self.seed);
        w.put_bool(self.consolidate);
        w.put_bool(self.collect_trace);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(JobSpec {
            data: JobData::decode(r)?,
            k: r.usize()?,
            kernel: decode_kernel(r)?,
            num_bits: r.usize()?,
            seed: r.u64()?,
            consolidate: r.bool()?,
            collect_trace: r.bool()?,
        })
    }
}

impl Wire for JobOutcome {
    fn encode(&self, w: &mut WireWriter) {
        self.assignments.encode(w);
        w.put_usize(self.num_clusters);
        w.put_usize(self.num_buckets);
        w.put_u64(self.workers_used);
        w.put_u64(self.stage1_us);
        w.put_u64(self.stage2_us);
        w.put_u64(self.shuffle_records);
        w.put_u64(self.shuffle_bytes);
        w.put_u64(self.task_retries);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(JobOutcome {
            assignments: Vec::decode(r)?,
            num_clusters: r.usize()?,
            num_buckets: r.usize()?,
            workers_used: r.u64()?,
            stage1_us: r.u64()?,
            stage2_us: r.u64()?,
            shuffle_records: r.u64()?,
            shuffle_bytes: r.u64()?,
            task_retries: r.u64()?,
        })
    }
}

impl Msg {
    /// The frame tag this message travels under.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Msg::Register { .. } => MsgType::Register,
            Msg::RegisterAck { .. } => MsgType::RegisterAck,
            Msg::Heartbeat { .. } => MsgType::Heartbeat,
            Msg::HeartbeatAck => MsgType::HeartbeatAck,
            Msg::RequestTask { .. } => MsgType::RequestTask,
            Msg::AssignTask { .. } => MsgType::AssignTask,
            Msg::NoTask { .. } => MsgType::NoTask,
            Msg::TaskDone { .. } => MsgType::TaskDone,
            Msg::TaskAck => MsgType::TaskAck,
            Msg::SubmitJob { .. } => MsgType::SubmitJob,
            Msg::JobAccepted { .. } => MsgType::JobAccepted,
            Msg::PollJob { .. } => MsgType::PollJob,
            Msg::JobPending { .. } => MsgType::JobPending,
            Msg::JobResult { .. } => MsgType::JobResult,
            Msg::JobError { .. } => MsgType::JobError,
            Msg::MetricsRequest => MsgType::MetricsRequest,
            Msg::MetricsReply { .. } => MsgType::MetricsReply,
            Msg::TaskFailed { .. } => MsgType::TaskFailed,
            Msg::TraceRequest { .. } => MsgType::TraceRequest,
            Msg::TraceReply { .. } => MsgType::TraceReply,
            Msg::ShardRequest { .. } => MsgType::ShardRequest,
            Msg::ShardReply { .. } => MsgType::ShardReply,
            Msg::UnknownWorker { .. } => MsgType::UnknownWorker,
        }
    }

    /// Encode the body (frame payload, without the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Msg::Register { name } => w.put_str(name),
            Msg::RegisterAck {
                worker_id,
                heartbeat_interval_ms,
            } => {
                w.put_u64(*worker_id);
                w.put_u64(*heartbeat_interval_ms);
            }
            Msg::Heartbeat { worker_id, metrics } => {
                w.put_u64(*worker_id);
                encode_metrics(metrics, &mut w);
            }
            Msg::HeartbeatAck | Msg::TaskAck | Msg::MetricsRequest => {}
            Msg::RequestTask { worker_id } | Msg::UnknownWorker { worker_id } => {
                w.put_u64(*worker_id)
            }
            Msg::AssignTask { task } => task.encode(&mut w),
            Msg::NoTask { backoff_ms } => w.put_u64(*backoff_ms),
            Msg::TaskDone {
                worker_id,
                task_id,
                output,
                spans,
            } => {
                w.put_u64(*worker_id);
                w.put_u64(*task_id);
                output.encode(&mut w);
                encode_spans(spans, &mut w);
            }
            Msg::SubmitJob { spec } => spec.encode(&mut w),
            Msg::JobAccepted { job_id } => w.put_u64(*job_id),
            Msg::PollJob { job_id } => w.put_u64(*job_id),
            Msg::JobPending { stage, done, total } => {
                w.put_u8(*stage);
                w.put_u64(*done);
                w.put_u64(*total);
            }
            Msg::JobResult { outcome } => outcome.encode(&mut w),
            Msg::JobError { message } => w.put_str(message),
            Msg::MetricsReply { text } => w.put_str(text),
            Msg::TaskFailed {
                worker_id,
                task_id,
                error,
            } => {
                w.put_u64(*worker_id);
                w.put_u64(*task_id);
                w.put_str(error);
            }
            Msg::TraceRequest { job_id } => w.put_u64(*job_id),
            Msg::TraceReply { json } => w.put_str(json),
            Msg::ShardRequest { dataset, shard } => {
                w.put_u64(*dataset);
                w.put_u32(*shard);
            }
            Msg::ShardReply { bytes } => w.put_blob(bytes),
        }
        w.into_vec()
    }

    /// Decode a frame back into a message. Rejects unknown tags,
    /// malformed bodies, and trailing bytes.
    pub fn decode_frame(msg_type: u16, payload: &[u8]) -> Result<Msg, WireError> {
        let tag = MsgType::from_u16(msg_type).ok_or(WireError::Invalid("unknown msg_type"))?;
        let mut r = WireReader::new(payload);
        let msg = match tag {
            MsgType::Register => Msg::Register { name: r.str()? },
            MsgType::RegisterAck => Msg::RegisterAck {
                worker_id: r.u64()?,
                heartbeat_interval_ms: r.u64()?,
            },
            MsgType::Heartbeat => Msg::Heartbeat {
                worker_id: r.u64()?,
                metrics: decode_metrics(&mut r)?,
            },
            MsgType::HeartbeatAck => Msg::HeartbeatAck,
            MsgType::RequestTask => Msg::RequestTask {
                worker_id: r.u64()?,
            },
            MsgType::AssignTask => Msg::AssignTask {
                task: Task::decode(&mut r)?,
            },
            MsgType::NoTask => Msg::NoTask {
                backoff_ms: r.u64()?,
            },
            MsgType::TaskDone => Msg::TaskDone {
                worker_id: r.u64()?,
                task_id: r.u64()?,
                output: TaskOutput::decode(&mut r)?,
                spans: decode_spans(&mut r)?,
            },
            MsgType::TaskAck => Msg::TaskAck,
            MsgType::SubmitJob => Msg::SubmitJob {
                spec: JobSpec::decode(&mut r)?,
            },
            MsgType::JobAccepted => Msg::JobAccepted { job_id: r.u64()? },
            MsgType::PollJob => Msg::PollJob { job_id: r.u64()? },
            MsgType::JobPending => Msg::JobPending {
                stage: r.u8()?,
                done: r.u64()?,
                total: r.u64()?,
            },
            MsgType::JobResult => Msg::JobResult {
                outcome: JobOutcome::decode(&mut r)?,
            },
            MsgType::JobError => Msg::JobError { message: r.str()? },
            MsgType::MetricsRequest => Msg::MetricsRequest,
            MsgType::MetricsReply => Msg::MetricsReply { text: r.str()? },
            MsgType::TaskFailed => Msg::TaskFailed {
                worker_id: r.u64()?,
                task_id: r.u64()?,
                error: r.str()?,
            },
            MsgType::TraceRequest => Msg::TraceRequest { job_id: r.u64()? },
            MsgType::TraceReply => Msg::TraceReply { json: r.str()? },
            MsgType::ShardRequest => Msg::ShardRequest {
                dataset: r.u64()?,
                shard: r.u32()?,
            },
            MsgType::ShardReply => Msg::ShardReply { bytes: r.blob()? },
            MsgType::UnknownWorker => Msg::UnknownWorker {
                worker_id: r.u64()?,
            },
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let payload = msg.encode_payload();
        let back = Msg::decode_frame(msg.msg_type() as u16, &payload).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_variant_roundtrips() {
        let manifest = DatasetManifest {
            content_hash: 0xFEED_BEEF,
            n: 10,
            dim: 2,
            has_labels: true,
            shard_rows: 4,
            shards: vec![
                ShardMeta {
                    rows: 4,
                    byte_len: 200,
                    checksum: 11,
                },
                ShardMeta {
                    rows: 4,
                    byte_len: 200,
                    checksum: 22,
                },
                ShardMeta {
                    rows: 2,
                    byte_len: 120,
                    checksum: 33,
                },
            ],
        };
        let map_ref_task = Task {
            job_id: 2,
            task_id: 44,
            attempt: 1,
            trace_parent: 5,
            kind: TaskKind::MapSignaturesRef {
                num_bits: 4,
                planes: vec![HashPlane {
                    dimension: 1,
                    threshold: 0.25,
                }],
                manifest: manifest.clone(),
                start: 4,
                len: 6,
            },
        };
        let reduce_ref_task = Task {
            job_id: 2,
            task_id: 45,
            attempt: 3,
            trace_parent: 0,
            kind: TaskKind::ReduceBucketRef {
                bucket_id: 1,
                ki: 2,
                kernel: Kernel::Gaussian { sigma: 0.2 },
                seed: 0xDA5C,
                lanczos_threshold: 512,
                manifest,
                members: vec![0, 3, 8, 9],
            },
        };
        let mut worker_metrics = MetricsSnapshot::default();
        worker_metrics
            .counters
            .insert("dasc_dist_tasks_completed_total".into(), 4);
        worker_metrics.gauges.insert("depth".into(), -3);
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[3] = 2;
        buckets[HISTOGRAM_BUCKETS - 1] = 1;
        worker_metrics.histograms.insert(
            "dasc_dist_task_duration_us{stage=\"map\"}".into(),
            HistogramSnapshot {
                count: 3,
                sum: 42,
                buckets,
            },
        );
        for msg in [
            Msg::Register { name: "w-1".into() },
            Msg::RegisterAck {
                worker_id: 9,
                heartbeat_interval_ms: 500,
            },
            Msg::Heartbeat {
                worker_id: 9,
                metrics: MetricsSnapshot::default(),
            },
            Msg::Heartbeat {
                worker_id: 9,
                metrics: worker_metrics,
            },
            Msg::HeartbeatAck,
            Msg::RequestTask { worker_id: 9 },
            Msg::AssignTask { task: map_ref_task },
            Msg::AssignTask {
                task: reduce_ref_task,
            },
            Msg::NoTask { backoff_ms: 250 },
            Msg::NoTask { backoff_ms: 0 },
            Msg::UnknownWorker { worker_id: 9 },
            Msg::TaskDone {
                worker_id: 9,
                task_id: 42,
                output: TaskOutput::MapSignatures(vec![(0b1010, vec![128, 130]), (0, vec![129])]),
                spans: vec![
                    SpanRecord {
                        id: 1,
                        parent: None,
                        name: "dist.task.map".into(),
                        thread: 2,
                        start_us: 0,
                        dur_us: 1500,
                    },
                    SpanRecord {
                        id: 2,
                        parent: Some(1),
                        name: "dist.task.map.hash".into(),
                        thread: 2,
                        start_us: 10,
                        dur_us: 1400,
                    },
                ],
            },
            Msg::TaskDone {
                worker_id: 9,
                task_id: 43,
                output: TaskOutput::ReduceBucket(vec![(5, 7, 0), (9, 7, 1), (11, 7, 0)]),
                spans: vec![],
            },
            Msg::TaskAck,
            Msg::SubmitJob {
                spec: JobSpec {
                    data: JobData::Inline {
                        points: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                    },
                    k: 2,
                    kernel: Kernel::Laplacian { gamma: 1.5 },
                    num_bits: 0,
                    seed: 0xDA5C,
                    consolidate: true,
                    collect_trace: true,
                },
            },
            Msg::SubmitJob {
                spec: JobSpec {
                    data: JobData::Ref {
                        path: "/data/wiki.dstr".into(),
                        content_hash: 0xFEED_BEEF,
                    },
                    k: 2,
                    kernel: Kernel::Gaussian { sigma: 0.2 },
                    num_bits: 5,
                    seed: 0xDA5C,
                    consolidate: true,
                    collect_trace: false,
                },
            },
            Msg::ShardRequest {
                dataset: 0xFEED_BEEF,
                shard: 2,
            },
            Msg::ShardReply {
                bytes: vec![0xD5, 0x48, 0x44, 0x00, 1, 2, 3],
            },
            Msg::ShardReply { bytes: vec![] },
            Msg::JobAccepted { job_id: 3 },
            Msg::PollJob { job_id: 3 },
            Msg::JobPending {
                stage: stage::MAP,
                done: 2,
                total: 8,
            },
            Msg::JobResult {
                outcome: JobOutcome {
                    assignments: vec![0, 1, 1, 0],
                    num_clusters: 2,
                    num_buckets: 3,
                    workers_used: 2,
                    stage1_us: 1000,
                    stage2_us: 2000,
                    shuffle_records: 4,
                    shuffle_bytes: 96,
                    task_retries: 1,
                },
            },
            Msg::JobError {
                message: "task 42 exhausted 4 attempts".into(),
            },
            Msg::MetricsRequest,
            Msg::MetricsReply {
                text: "# TYPE dasc_dist_rpcs_total counter\n".into(),
            },
            Msg::TaskFailed {
                worker_id: 9,
                task_id: 42,
                error: "panic: boom".into(),
            },
            Msg::TraceRequest { job_id: 3 },
            Msg::TraceReply {
                json: "[\n{\"name\":\"process_name\"}\n]\n".into(),
            },
        ] {
            roundtrip(msg);
        }
    }

    #[test]
    fn all_kernels_roundtrip() {
        for kernel in [
            Kernel::Gaussian { sigma: 0.7 },
            Kernel::Linear,
            Kernel::Polynomial { degree: 3, c: 1.0 },
            Kernel::Laplacian { gamma: 0.3 },
        ] {
            roundtrip(Msg::SubmitJob {
                spec: JobSpec {
                    data: JobData::Inline {
                        points: vec![vec![0.5]],
                    },
                    k: 1,
                    kernel,
                    num_bits: 3,
                    seed: 1,
                    consolidate: false,
                    collect_trace: false,
                },
            });
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_rejected() {
        assert_eq!(
            Msg::decode_frame(999, &[]),
            Err(WireError::Invalid("unknown msg_type"))
        );
        let mut payload = Msg::PollJob { job_id: 1 }.encode_payload();
        payload.push(7);
        assert_eq!(
            Msg::decode_frame(MsgType::PollJob as u16, &payload),
            Err(WireError::Trailing(1))
        );
    }

    #[test]
    fn retired_task_kind_tags_are_typed_errors() {
        for tag in [0u8, 1] {
            let mut w = WireWriter::new();
            w.put_u64(1); // job_id
            w.put_u64(42); // task_id
            w.put_u32(1); // attempt
            w.put_u64(0); // trace_parent
            w.put_u8(tag);
            w.put_usize(4); // what followed the tag in the retired bodies
            assert_eq!(
                Msg::decode_frame(MsgType::AssignTask as u16, &w.into_vec()),
                Err(WireError::Invalid("retired inline task kind")),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn heartbeat_with_out_of_range_bucket_index_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(9); // worker_id
        w.put_u32(0); // counters
        w.put_u32(0); // gauges
        w.put_u32(1); // one histogram
        w.put_str("lat");
        w.put_u64(1); // count
        w.put_u64(5); // sum
        w.put_u32(1); // one filled bucket...
        w.put_u8(HISTOGRAM_BUCKETS as u8); // ...one past the last index
        w.put_u64(1);
        assert_eq!(
            Msg::decode_frame(MsgType::Heartbeat as u16, &w.into_vec()),
            Err(WireError::Invalid("histogram bucket index"))
        );
    }

    #[test]
    fn truncated_bodies_rejected() {
        let payload = Msg::RegisterAck {
            worker_id: 1,
            heartbeat_interval_ms: 500,
        }
        .encode_payload();
        for cut in 0..payload.len() {
            assert!(
                Msg::decode_frame(MsgType::RegisterAck as u16, &payload[..cut]).is_err(),
                "cut={cut}"
            );
        }
    }
}
