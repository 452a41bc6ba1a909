//! Multi-process distributed DASC runtime.
//!
//! The paper runs DASC as two MapReduce stages on Hadoop across real
//! machines; the rest of this workspace replays that jobflow inside one
//! process (`dasc-mapreduce`). This crate closes the gap: a
//! [`Coordinator`] (job tracker + name node) and pull-based workers
//! ([`worker::spawn`]) execute the same two-stage pipeline across OS
//! processes over `dasc-net` TCP framing.
//!
//! Determinism is structural, not empirical: the map body, the reduce
//! body (`dasc_core::cluster_bucket_flat`), the between-stage bucket merge,
//! the stitch (`dasc_core::stitch_distributed`) and the consolidation
//! (`dasc_core::consolidate`) are the *same functions* the in-process
//! `Dasc::run_distributed` calls, and none of them depend on task
//! granularity or arrival order. A distributed run therefore produces
//! bit-identical assignments to a single-process run of the same
//! [`JobSpec`] — with any number of workers, and even when workers die
//! mid-job and their tasks are retried elsewhere (Hadoop-style
//! `max_task_attempts` budget from `ClusterConfig`).
//!
//! A job names its dataset inline in the submission ([`JobData::Inline`])
//! or as a reference to a packed `.dstr` store on the coordinator's
//! filesystem ([`JobData::Ref`]). Either way the coordinator computes
//! over a dataset store — inline points are packed into an in-memory
//! one for the life of the job — so every job runs the same two task
//! bodies: tasks carry shard tables and row ranges instead of points,
//! and workers pull shard bytes through a checksum-verified LRU cache
//! ([`worker::ShardSource`]).

pub mod client;
pub mod coordinator;
pub mod httpd;
pub mod proto;
pub mod worker;

pub use client::{client_config, rpc, JobClient};
pub use coordinator::Coordinator;
pub use httpd::HttpHandle;
pub use proto::{JobData, JobOutcome, JobSpec, Msg, MsgType, Task, TaskKind, TaskOutput};
pub use worker::{run_worker, ShardSource, WorkerHandle, WorkerOptions};
