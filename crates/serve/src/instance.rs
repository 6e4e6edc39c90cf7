//! One consensus instance: a proposal, a live steppable session, a decision.

use std::time::{Duration, Instant};

use kset_core::RunRecord;
use kset_net::{MpSession, MpSystem};
use kset_protocols::FloodMin;
use kset_sim::{Poll, RandomScheduler, SimError};

/// Shape of the consensus runs the service executes.
///
/// Every instance solves the same problem with the same protocol; only the
/// inputs (and the derived schedule seed) vary per instance. The service
/// runs `FloodMin(n, t)` — the paper's Section 3 crash-tolerant protocol —
/// under a failure-free plan, which is the common case for a consensus
/// service: failures are injected by the *checking* pipelines, not the
/// serving one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Number of processes per instance (and expected input arity).
    pub n: usize,
    /// Fault tolerance parameter handed to the protocol.
    pub t: usize,
    /// Base seed; instance `id` runs under seed `seed ^ id`, so the whole
    /// workload is deterministic yet no two instances share a schedule.
    pub seed: u64,
}

impl Workload {
    /// A `FloodMin(n, t)` workload with the default base seed.
    pub fn flood_min(n: usize, t: usize) -> Self {
        Workload { n, t, seed: 0x6b73_6574 }
    }
}

/// A submitted proposal: `inputs[p]` is process `p`'s initial value.
#[derive(Debug, Clone)]
pub struct Propose {
    /// Service-assigned instance id (also the sharding and seeding key).
    pub id: u64,
    /// One initial value per process; length must equal [`Workload::n`].
    pub inputs: Vec<u64>,
    /// When the proposal was accepted by the client handle.
    pub submitted: Instant,
}

/// A finished instance, as reported back to the submitter.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Instance id this decision answers.
    pub id: u64,
    /// Inputs, decisions, fault set and termination flag of the run, in
    /// the same [`RunRecord`] shape the experiment pipelines consume.
    pub record: RunRecord<u64>,
    /// Kernel events the run consumed before every process decided.
    pub events: u64,
    /// Submit-to-decide latency as observed inside the server.
    pub latency: Duration,
}

/// A live instance: the proposal plus its in-flight [`MpSession`].
///
/// Workers advance instances in bounded *waves* via [`step_wave`] so that
/// thousands of instances can share one thread without any of them
/// monopolising it. Once decided, an instance is re-seated on the next
/// proposal with [`restart`], which reuses the session's buffers instead
/// of building a new one.
///
/// [`step_wave`]: Instance::step_wave
/// [`restart`]: Instance::restart
#[derive(Debug)]
pub struct Instance {
    id: u64,
    inputs: Vec<u64>,
    submitted: Instant,
    session: MpSession<u64, u64>,
}

impl Instance {
    /// Builds the session for `propose` under `workload`.
    ///
    /// Fails with [`SimError::InvalidConfig`] if the input arity does not
    /// match `workload.n`; the proposal is handed back alongside the error
    /// so the caller can still answer it (see [`Instance::refuse`]). The
    /// [`crate::ServeClient`] checks arity before enqueueing, so workers
    /// treat this path as unreachable-but-handled.
    pub fn new(propose: Propose, workload: &Workload) -> Result<Self, (SimError, Propose)> {
        let procs = propose
            .inputs
            .iter()
            .map(|&input| FloodMin::boxed(workload.n, workload.t, input))
            .collect();
        match MpSystem::new(workload.n)
            .seed(workload.seed ^ propose.id)
            .session(procs)
        {
            Ok(session) => {
                let Propose { id, inputs, submitted } = propose;
                Ok(Instance { id, inputs, submitted, session })
            }
            Err(err) => Err((err, propose)),
        }
    }

    /// Re-seats this instance on `propose`, in place: the session restarts
    /// under the proposal's seed with fresh processes (see
    /// [`kset_sim::Session::restart`]) and replays exactly as an instance
    /// built by [`Instance::new`] would. `workload` must be the one the
    /// instance was built with.
    ///
    /// Fails with [`SimError::InvalidConfig`] if the input arity or
    /// `workload.n` does not match the session; the proposal is handed
    /// back, and the instance keeps its previous run.
    pub fn restart(
        &mut self,
        propose: Propose,
        workload: &Workload,
    ) -> Result<(), (SimError, Propose)> {
        let n = self.session.n();
        if workload.n != n || propose.inputs.len() != n {
            let err = SimError::InvalidConfig(format!(
                "expected {n} processes, got {}",
                propose.inputs.len()
            ));
            return Err((err, propose));
        }
        let Propose { id, inputs, submitted } = propose;
        self.session.restart(RandomScheduler::from_seed(workload.seed ^ id), |p| {
            FloodMin::boxed(n, workload.t, inputs[p])
        });
        self.id = id;
        self.inputs = inputs;
        self.submitted = submitted;
        Ok(())
    }

    /// Instance id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fires up to `budget` kernel events. Returns `true` once the run is
    /// over (all correct processes decided, or the kernel went idle) and
    /// `false` if the instance still has work after the wave.
    pub fn step_wave(&mut self, budget: u32) -> Result<bool, SimError> {
        for _ in 0..budget {
            match self.session.step()? {
                Poll::Pending => {}
                Poll::Decided | Poll::Idle => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Reads the finished run into a [`Decision`], straight from the
    /// session's dense decision table, and leaves the instance ready for
    /// [`Instance::restart`]. The inputs move into the record, so the
    /// instance holds none until it is restarted.
    pub fn take_decision(&mut self) -> Decision {
        let session = &self.session;
        let record = RunRecord::new(std::mem::take(&mut self.inputs))
            .with_faulty(session.plan().faulty_set())
            .with_decisions(
                session
                    .decisions()
                    .iter()
                    .enumerate()
                    .filter_map(|(p, d)| d.map(|v| (p, v))),
            )
            .with_terminated(session.decided());
        Decision {
            id: self.id,
            record,
            events: session.stats().events_fired,
            latency: self.submitted.elapsed(),
        }
    }

    /// Consumes the finished instance into its [`Decision`]
    /// ([`Instance::take_decision`] without the reuse).
    pub fn finish(mut self) -> Decision {
        self.take_decision()
    }

    /// Turns a proposal that could not even start (bad arity reaching a
    /// worker) into a non-terminated decision, so the submitter still gets
    /// an answer for every accepted id.
    pub fn refuse(propose: Propose) -> Decision {
        let Propose { id, inputs, submitted } = propose;
        Decision {
            id,
            record: RunRecord::new(inputs).with_terminated(false),
            events: 0,
            latency: submitted.elapsed(),
        }
    }
}
