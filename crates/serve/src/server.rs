//! Worker pool: shards instances across threads, steps them in waves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use kset_sim::SimError;

use crate::instance::{Decision, Instance, Propose, Workload};

/// Tuning knobs for a [`Server`].
///
/// The defaults are sized for the common case — millions of tiny
/// failure-free runs — and can be overridden field-by-field with struct
/// update syntax: `ServeConfig { threads: 4, ..ServeConfig::new(w) }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// The protocol/problem shape every instance runs (see [`Workload`]).
    pub workload: Workload,
    /// Worker threads; instance `id` is handled by worker `id % threads`.
    pub threads: usize,
    /// Kernel events each live instance may fire per scheduling wave.
    /// Small batches interleave instances more fairly; large batches
    /// amortise the scheduling overhead.
    pub batch: u32,
    /// Cap on concurrently live instances per worker. Bounds worker memory
    /// at `max_live` sessions regardless of how many proposals are queued.
    pub max_live: usize,
    /// Depth of each worker's bounded proposal queue. A submitter that
    /// outruns the workers blocks in [`ServeClient::propose`] instead of
    /// growing the queue without bound.
    pub queue_depth: usize,
}

impl ServeConfig {
    /// Default configuration for `workload`: one worker, waves of 16
    /// events, at most 256 live instances and 4096 queued proposals per
    /// worker.
    pub fn new(workload: Workload) -> Self {
        ServeConfig { workload, threads: 1, batch: 16, max_live: 256, queue_depth: 4096 }
    }
}

/// Totals reported by [`Server::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Decisions produced across all workers over the server's lifetime
    /// (including refusals of malformed proposals).
    pub decided: u64,
    /// Worker threads that served them.
    pub threads: usize,
}

/// What flows down a worker's proposal queue.
enum WorkerMsg {
    Propose(Propose),
    /// Shutdown sentinel: finish the live set, then exit. Lets
    /// [`Server::shutdown`] terminate workers even while [`ServeClient`]
    /// clones are still alive somewhere.
    Stop,
}

/// Cloneable submission handle for a running [`Server`].
///
/// Handles can be cloned freely and moved to other threads; all clones
/// share the instance-id counter. After [`Server::shutdown`] every clone's
/// [`propose`](ServeClient::propose) fails with `InvalidConfig`.
#[derive(Debug, Clone)]
pub struct ServeClient {
    workload: Workload,
    queues: Arc<Vec<SyncSender<WorkerMsg>>>,
    next_id: Arc<AtomicU64>,
}

impl ServeClient {
    /// Submits one instance (`inputs[p]` is process `p`'s initial value)
    /// and returns its assigned id.
    ///
    /// Blocks while the target worker's queue is full (backpressure).
    /// Fails with [`SimError::InvalidConfig`] if the input arity does not
    /// match the workload or the server has shut down.
    pub fn propose(&self, inputs: Vec<u64>) -> Result<u64, SimError> {
        if inputs.len() != self.workload.n {
            return Err(SimError::InvalidConfig(format!(
                "expected {} inputs, got {}",
                self.workload.n,
                inputs.len()
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = (id % self.queues.len() as u64) as usize;
        let propose = Propose { id, inputs, submitted: Instant::now() };
        self.queues[shard]
            .send(WorkerMsg::Propose(propose))
            .map_err(|_| SimError::InvalidConfig("server is shut down".into()))?;
        Ok(id)
    }
}

/// A pool of worker threads multiplexing consensus instances.
///
/// Proposals flow in through [`ServeClient`] handles, sharded by instance
/// id onto per-worker bounded queues. Each worker keeps up to
/// [`ServeConfig::max_live`] sessions in flight and advances every one of
/// them by a wave of at most [`ServeConfig::batch`] kernel events per
/// round; finished instances are read into [`Decision`]s, pushed to the
/// shared outbound channel drained by [`Server::recv_decision`], and kept
/// for reuse on later proposals.
pub struct Server {
    client: ServeClient,
    decisions: Receiver<Decision>,
    workers: Vec<JoinHandle<u64>>,
    threads: usize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("threads", &self.threads)
            .field("workload", &self.client.workload)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Spawns the worker pool described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.workload.n`, `config.threads`, `config.batch`,
    /// `config.max_live` or `config.queue_depth` is zero.
    pub fn start(config: ServeConfig) -> Server {
        assert!(config.workload.n > 0, "workload needs at least one process");
        assert!(config.threads > 0, "server needs at least one worker");
        assert!(config.batch > 0, "wave batch must be positive");
        assert!(config.max_live > 0, "max_live must be positive");
        assert!(config.queue_depth > 0, "queue_depth must be positive");

        let (decision_tx, decisions) = mpsc::channel();
        let mut queues = Vec::with_capacity(config.threads);
        let mut workers = Vec::with_capacity(config.threads);
        for worker_idx in 0..config.threads {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth);
            queues.push(tx);
            let out = decision_tx.clone();
            let cfg = config;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("kset-serve-{worker_idx}"))
                    .spawn(move || worker_loop(rx, out, cfg))
                    .expect("failed to spawn worker thread"),
            );
        }
        let client = ServeClient {
            workload: config.workload,
            queues: Arc::new(queues),
            next_id: Arc::new(AtomicU64::new(0)),
        };
        Server { client, decisions, workers, threads: config.threads }
    }

    /// A new submission handle for this server.
    pub fn client(&self) -> ServeClient {
        self.client.clone()
    }

    /// Blocks until the next decision is available. Returns `None` only
    /// after every worker has exited (i.e. post-shutdown drain).
    pub fn recv_decision(&self) -> Option<Decision> {
        self.decisions.recv().ok()
    }

    /// Non-blocking variant of [`recv_decision`](Server::recv_decision).
    pub fn try_recv_decision(&self) -> Option<Decision> {
        self.decisions.try_recv().ok()
    }

    /// Stops the workers (each finishes its in-flight instances first) and
    /// returns lifetime totals. Undelivered decisions still sitting in the
    /// outbound channel are discarded, so drain with
    /// [`recv_decision`](Server::recv_decision) first if you want them.
    /// Proposals racing the shutdown from other [`ServeClient`] clones may
    /// be dropped without a decision.
    pub fn shutdown(self) -> ServeStats {
        let Server { client, decisions, workers, threads } = self;
        for queue in client.queues.iter() {
            // A full queue still delivers the sentinel eventually: send
            // blocks until the worker drains ahead of it. A send error
            // means the worker is already gone, which is fine too.
            let _ = queue.send(WorkerMsg::Stop);
        }
        drop(client);
        let decided = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .sum();
        drop(decisions);
        ServeStats { decided, threads }
    }
}

/// One worker's instances. `instances[..live]` are in flight; the rest
/// are decided and wait to be re-seated on the next proposals, so a worker
/// builds a session only while the vector grows towards `max_live`, and
/// never holds more than `max_live` of them.
struct Pool {
    instances: Vec<Instance>,
    live: usize,
}

impl Pool {
    /// Admits one proposal: restarts an idle instance, or builds one while
    /// none is idle. A proposal that cannot start is refused at once.
    fn admit(
        &mut self,
        propose: Propose,
        out: &Sender<Decision>,
        workload: &Workload,
        decided: &mut u64,
    ) -> Result<(), ()> {
        let started = match self.instances.get_mut(self.live) {
            Some(idle) => idle.restart(propose, workload),
            None => Instance::new(propose, workload).map(|fresh| self.instances.push(fresh)),
        };
        match started {
            Ok(()) => {
                self.live += 1;
                Ok(())
            }
            Err((_, propose)) => {
                *decided += 1;
                out.send(Instance::refuse(propose)).map_err(|_| ())
            }
        }
    }
}

/// One worker: ingest proposals up to `max_live`, advance every live
/// instance by one wave, ship finished instances, repeat until the
/// proposal queue disconnects and the live set drains.
fn worker_loop(rx: Receiver<WorkerMsg>, out: Sender<Decision>, config: ServeConfig) -> u64 {
    let mut pool = Pool { instances: Vec::new(), live: 0 };
    let mut decided: u64 = 0;
    let mut open = true;
    while open || pool.live > 0 {
        if pool.live == 0 {
            // Nothing in flight: block until work arrives or the queue closes.
            match rx.recv() {
                Ok(WorkerMsg::Propose(p)) => {
                    if pool.admit(p, &out, &config.workload, &mut decided).is_err() {
                        return decided;
                    }
                }
                Ok(WorkerMsg::Stop) | Err(_) => {
                    open = false;
                    continue;
                }
            }
        }
        while open && pool.live < config.max_live {
            match rx.try_recv() {
                Ok(WorkerMsg::Propose(p)) => {
                    if pool.admit(p, &out, &config.workload, &mut decided).is_err() {
                        return decided;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Ok(WorkerMsg::Stop) | Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut i = 0;
        while i < pool.live {
            // A kernel error (e.g. event-limit exhaustion) ends the
            // instance too; its decision reports it as non-terminated.
            let done = pool.instances[i].step_wave(config.batch).unwrap_or(true);
            if done {
                let decision = pool.instances[i].take_decision();
                pool.live -= 1;
                pool.instances.swap(i, pool.live);
                decided += 1;
                if out.send(decision).is_err() {
                    // Receiver gone: the server is being torn down.
                    return decided;
                }
            } else {
                i += 1;
            }
        }
    }
    decided
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_and_shuts_down() {
        let server = Server::start(ServeConfig {
            threads: 2,
            max_live: 8,
            ..ServeConfig::new(Workload::flood_min(3, 1))
        });
        let client = server.client();
        let mut ids = Vec::new();
        for i in 0..100u64 {
            ids.push(client.propose(vec![i, i + 1, i + 2]).unwrap());
        }
        drop(client);
        let mut got = Vec::new();
        for _ in 0..100 {
            let d = server.recv_decision().expect("decision");
            assert!(d.record.terminated(), "instance {} did not terminate", d.id);
            assert!(d.events > 0);
            assert!(!d.record.decisions().is_empty());
            got.push(d.id);
        }
        got.sort_unstable();
        assert_eq!(got, ids);
        let stats = server.shutdown();
        assert_eq!(stats.decided, 100);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn decisions_match_direct_runs() {
        use kset_net::MpSystem;
        use kset_protocols::FloodMin;

        let workload = Workload::flood_min(3, 1);
        let server = Server::start(ServeConfig::new(workload));
        let client = server.client();
        let id = client.propose(vec![9, 4, 7]).unwrap();
        let decision = server.recv_decision().expect("decision");
        assert_eq!(decision.id, id);

        // The same instance replayed through the ordinary run entry point
        // must produce the same decisions: the service is just another
        // driver over the deterministic kernel.
        let procs = [9u64, 4, 7]
            .iter()
            .map(|&v| FloodMin::boxed(workload.n, workload.t, v))
            .collect();
        let outcome = MpSystem::new(workload.n)
            .seed(workload.seed ^ id)
            .run(procs)
            .unwrap();
        assert_eq!(
            decision.record.decisions().iter().map(|(&p, &v)| (p, v)).collect::<Vec<_>>(),
            outcome.decisions.iter().map(|(&p, &v)| (p, v)).collect::<Vec<_>>(),
        );
        drop(client);
        server.shutdown();
    }

    #[test]
    fn wrong_arity_is_rejected_at_the_client() {
        let server = Server::start(ServeConfig::new(Workload::flood_min(3, 1)));
        let client = server.client();
        assert!(matches!(
            client.propose(vec![1, 2]),
            Err(SimError::InvalidConfig(_))
        ));
        drop(client);
        assert_eq!(server.shutdown().decided, 0);
    }
}
