//! In-process MapReduce engine with a simulated cluster topology.
//!
//! The DASC paper runs on Hadoop 0.20.2 — a five-node lab cluster and
//! Amazon Elastic MapReduce with 16/32/64 nodes (Tables 2–3). This crate
//! is the substitute substrate: a faithful, miniature MapReduce that
//!
//! * executes real map → shuffle (partition + sort) → reduce phases on
//!   real threads, bounded by the configured `nodes × slots` exactly the
//!   way Hadoop task trackers bound concurrent tasks;
//! * keeps per-task timing so the [`sim`] scheduler can replay the same
//!   task bag on a *different* cluster size and report the makespan — the
//!   mechanism behind the Table 3 elasticity experiment.
//!
//! Determinism: the shuffle uses a seeded FNV-style partitioner and a
//! stable sort, so a job's output is a pure function of its input and
//! configuration regardless of thread interleaving.

pub mod config;
pub mod counters;
pub mod engine;
pub mod job;
pub mod partition;
pub mod sim;
pub mod stats;

pub use config::ClusterConfig;
pub use counters::Counters;
pub use engine::{reduce_groups, run_job, run_map_combine, run_map_only, split_ranges, JobOutput};
pub use job::{FnMapper, FnReducer, Mapper, Reducer};
pub use partition::hash_partition;
pub use sim::{
    simulate_makespan, simulate_on_cluster, simulate_with_stragglers, simulate_with_stragglers_on,
    ScheduleReport, StragglerModel,
};
pub use stats::JobStats;
