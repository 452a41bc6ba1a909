//! Typed RPC helpers and the job-submission client.

use dasc_mapreduce::ClusterConfig;
use dasc_net::{Client, ClientConfig};

use crate::proto::{stage, JobOutcome, JobSpec, Msg};

/// Derive `dasc-net` client tuning from the shared cluster knob set.
pub fn client_config(cluster: &ClusterConfig) -> ClientConfig {
    ClientConfig {
        connect_timeout: cluster.rpc_connect_timeout,
        read_timeout: cluster.rpc_read_timeout,
        write_timeout: cluster.rpc_write_timeout,
        backoff_base: cluster.rpc_backoff_base,
        backoff_max: cluster.rpc_backoff_max,
        max_connect_attempts: cluster.rpc_max_connect_attempts,
    }
}

/// One typed request/reply round trip.
pub fn rpc(client: &mut Client, msg: &Msg) -> Result<Msg, String> {
    let reply = client
        .call(msg.msg_type() as u16, &msg.encode_payload())
        .map_err(|e| format!("rpc to {}: {e}", client.addr()))?;
    Msg::decode_frame(reply.msg_type, &reply.payload)
        .map_err(|e| format!("bad reply from {}: {e}", client.addr()))
}

/// Submit a DASC job to a coordinator and wait for it to complete.
pub struct JobClient {
    client: Client,
    last_job_id: Option<u64>,
}

impl JobClient {
    /// Client for the coordinator at `addr`, with RPC tuning from the
    /// shared cluster knobs.
    pub fn connect(addr: impl Into<String>, cluster: &ClusterConfig) -> Self {
        Self {
            client: Client::new(addr, client_config(cluster)),
            last_job_id: None,
        }
    }

    /// Submit `spec`, block until the job finishes, return the outcome.
    ///
    /// Waiting is a `PollJob` long-poll: the coordinator replies the
    /// moment the job finishes, so there is no client-side sleep.
    /// `progress` is called with `(stage, done, total)` on every
    /// still-running reply (at most one per park deadline, i.e. the
    /// coordinator's `heartbeat_interval`) and once on completion.
    pub fn run(
        &mut self,
        spec: JobSpec,
        mut progress: impl FnMut(u8, u64, u64),
    ) -> Result<JobOutcome, String> {
        let job_id = match rpc(&mut self.client, &Msg::SubmitJob { spec })? {
            Msg::JobAccepted { job_id } => job_id,
            Msg::JobError { message } => return Err(message),
            other => return Err(format!("unexpected submit reply: {other:?}")),
        };
        self.last_job_id = Some(job_id);
        loop {
            match rpc(&mut self.client, &Msg::PollJob { job_id })? {
                Msg::JobPending {
                    stage: s,
                    done,
                    total,
                } => progress(s, done, total),
                Msg::JobResult { outcome } => {
                    progress(stage::FINISH, outcome.assignments.len() as u64, 0);
                    return Ok(outcome);
                }
                Msg::JobError { message } => return Err(message),
                other => return Err(format!("unexpected poll reply: {other:?}")),
            }
        }
    }

    /// Fetch the coordinator's *federated* Prometheus metrics snapshot
    /// (its own registry plus every worker's `worker="<name>"` series).
    pub fn metrics(&mut self) -> Result<String, String> {
        match rpc(&mut self.client, &Msg::MetricsRequest)? {
            Msg::MetricsReply { text } => Ok(text),
            Msg::JobError { message } => Err(message),
            other => Err(format!("unexpected metrics reply: {other:?}")),
        }
    }

    /// The id of the most recently submitted job, if any.
    pub fn last_job_id(&self) -> Option<u64> {
        self.last_job_id
    }

    /// Fetch the merged Chrome trace JSON for `job_id` (the job must
    /// have been submitted with [`JobSpec::collect_trace`]).
    pub fn trace_json(&mut self, job_id: u64) -> Result<String, String> {
        match rpc(&mut self.client, &Msg::TraceRequest { job_id })? {
            Msg::TraceReply { json } => Ok(json),
            Msg::JobError { message } => Err(message),
            other => Err(format!("unexpected trace reply: {other:?}")),
        }
    }
}
