//! Persistent stepping workers for a [`crate::Cluster`].
//!
//! The [`WorkerPool`] keeps its threads alive for the lifetime of the
//! cluster. The cluster's one stepping funnel (`Cluster::step_all`)
//! fast-forwards idle machines on the driver thread and steps a lone
//! busy machine there too; only when two or more machines have quantum
//! work does it hand those machines — and only those — to the pool.
//! Each hand-off shards the busy machines across the workers over
//! channels, steps the shards in parallel, and waits for them at a
//! barrier (the driver blocks until every shard returns, so a boundary
//! never overlaps the next dispatch round). Machines are fully
//! independent state machines, so the sharding — and therefore the
//! thread count — cannot change results: replays stay bit-identical
//! from 1 thread to N.

use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use litmus_telemetry::StageProfile;

use crate::context::ServingContext;
use crate::error::ClusterError;
use crate::machine::Machine;
use crate::Result;

/// How the driver walks a replay.
///
/// Both modes step machines through the same funnel and hand off to
/// the same worker pool: machines with no quantum work before the
/// boundary fast-forward on the driver thread, a lone busy machine is
/// stepped there too, and two or more busy machines go to the pool.
/// The modes differ only in the replay loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// Slice stepping — the default, and the oracle. The driver walks
    /// every slice boundary. (The name predates the event engine; both
    /// modes use the pool.)
    #[default]
    Pooled,
    /// Event-driven replay: with elastic control off (no autoscaler,
    /// no stealing) the driver jumps from one arrival's admitting
    /// boundary to the next, bulk-skipping the quiet slices between
    /// in O(1) per machine; with either on, an elastic decision is due
    /// at every boundary, so it visits every one, like slice stepping.
    /// Event-driven replays are bit-identical to slice stepping (full
    /// [`crate::ClusterReport`] and telemetry JSONL) at the same seed.
    EventDriven,
}

/// One shard of machines travelling to a worker and back. The `usize`
/// is each machine's position in the cluster's machine vector, so the
/// barrier can put every machine back in its slot.
struct Job {
    shard: Vec<(usize, Machine)>,
    target_ms: u64,
    ctx: Arc<ServingContext>,
}

struct Done {
    shard: Vec<(usize, Machine)>,
    outcome: Result<()>,
}

/// A pool of long-lived stepping threads, created once per cluster and
/// reused by every hand-off of every replay.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    jobs: Vec<Sender<Job>>,
    done_rx: Receiver<Done>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` stepping threads (at least one).
    pub(crate) fn spawn(workers: usize) -> Self {
        let workers = workers.max(1);
        let (done_tx, done_rx) = channel::<Done>();
        let mut jobs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = channel::<Job>();
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(job_rx, done_tx)));
            jobs.push(job_tx);
        }
        WorkerPool {
            jobs,
            done_rx,
            handles,
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.jobs.len()
    }

    /// Steps the machines at positions `busy` (ascending, distinct) to
    /// cluster time `target_ms`: shards them across
    /// `min(workers, busy.len())` workers, waits for those shards at
    /// the barrier, and puts every machine back in its slot. The other
    /// machines never leave the driver. When `profile` is enabled, the
    /// wall-clock time the driver spends blocked on returning shards is
    /// charged to the `"barrier"` stage.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::WorkerPanic`] if a worker panicked (the panic
    ///   is caught, so the machines — and the pool — survive);
    /// * the first stepping error any worker hit.
    pub(crate) fn step_all(
        &self,
        machines: &mut Vec<Machine>,
        busy: &[usize],
        target_ms: u64,
        ctx: &Arc<ServingContext>,
        profile: &mut StageProfile,
    ) -> Result<()> {
        let workers = self.workers().min(busy.len());
        if workers == 0 {
            return Ok(());
        }
        let count = machines.len();
        let mut slots: Vec<Option<Machine>> =
            std::mem::take(machines).into_iter().map(Some).collect();
        let mut first_error = None;
        let mut sent = 0;
        let chunk_len = busy.len().div_ceil(workers);
        for (job_tx, positions) in self.jobs.iter().zip(busy.chunks(chunk_len)) {
            let shard = positions
                .iter()
                .filter_map(|&idx| Some((idx, slots[idx].take()?)))
                .collect();
            let job = Job {
                shard,
                target_ms,
                ctx: Arc::clone(ctx),
            };
            if let Err(SendError(job)) = job_tx.send(job) {
                // A dead worker hands the shard straight back.
                for (idx, machine) in job.shard {
                    slots[idx] = Some(machine);
                }
                first_error = Some(ClusterError::WorkerPanic("worker channel closed".into()));
                break;
            }
            sent += 1;
        }

        let barrier_started = profile.start();
        for _ in 0..sent {
            let Ok(done) = self.done_rx.recv() else {
                first_error
                    .get_or_insert(ClusterError::WorkerPanic("worker pool disconnected".into()));
                break;
            };
            for (idx, machine) in done.shard {
                slots[idx] = Some(machine);
            }
            if let Err(e) = done.outcome {
                first_error.get_or_insert(e);
            }
        }
        profile.stop("barrier", barrier_started);
        machines.extend(slots.into_iter().flatten());
        if machines.len() < count {
            first_error.get_or_insert(ClusterError::WorkerPanic("worker lost a machine".into()));
        }
        first_error.map_or(Ok(()), Err)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends every worker loop; joining
        // bounds the threads' lifetime to the cluster's.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(jobs: Receiver<Job>, done: Sender<Done>) {
    while let Ok(job) = jobs.recv() {
        let Job {
            mut shard,
            target_ms,
            ctx,
        } = job;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for (_, machine) in shard.iter_mut() {
                machine.step_to(target_ms, &ctx)?;
            }
            Ok(())
        }))
        .unwrap_or_else(|panic| Err(ClusterError::WorkerPanic(panic_message(&panic))));
        // Release the context clone before signalling the barrier:
        // the main thread resumes the moment Done lands, and a lagging
        // Arc here would force Arc::make_mut in the next replay's
        // warm-up into a deep clone of the whole serving context.
        drop(ctx);
        // The shard travels back even after a panic: a poisoned replay
        // errors out, but the cluster keeps all its machines.
        if done.send(Done { shard, outcome }).is_err() {
            return;
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepping_mode_defaults_to_pooled() {
        assert_eq!(SteppingMode::default(), SteppingMode::Pooled);
    }

    #[test]
    fn a_failed_hand_off_returns_every_machine_and_keeps_the_pool() {
        use litmus_core::{DiscountModel, TableBuilder};
        use litmus_platform::TenantId;
        use litmus_sim::MachineSpec;
        use litmus_workloads::suite;

        use crate::machine::{MachineConfig, MachineId};

        let spec = MachineSpec::cascade_lake();
        let tables = TableBuilder::new(spec.clone())
            .levels([6, 14, 24])
            .reference_scale(0.03)
            .build()
            .unwrap();
        let model = DiscountModel::fit(&tables).unwrap();
        let probe_language = tables.baselines()[0].language;
        let ctx = Arc::new(ServingContext::new(tables, model, 0.05));
        let mut machines: Vec<Machine> = (0..3)
            .map(|i| {
                let config = MachineConfig::new(2).seed(i as u64);
                Machine::boot(MachineId(i), 0, spec.clone(), &config, probe_language, &ctx).unwrap()
            })
            .collect();
        // Nothing warmed this function's solo oracle, so launching it
        // fails on whichever worker steps machine 1.
        let function = suite::by_name("auth-py").unwrap();
        assert!(!ctx.is_warmed(&function));
        machines[1].dispatch(0, function, TenantId(0), None);

        let pool = WorkerPool::spawn(2);
        let mut profile = StageProfile::default();
        let failed = pool.step_all(&mut machines, &[0, 1, 2], 5_000, &ctx, &mut profile);
        assert!(
            matches!(failed, Err(ClusterError::UnknownFunction(_))),
            "{failed:?}"
        );
        let ids: Vec<MachineId> = machines.iter().map(Machine::id).collect();
        assert_eq!(ids, [MachineId(0), MachineId(1), MachineId(2)]);

        // The pool survives its error: the next hand-off goes through.
        pool.step_all(&mut machines, &[0, 2], 10_000, &ctx, &mut profile)
            .unwrap();
    }
}
