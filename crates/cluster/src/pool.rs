//! Persistent stepping workers for a [`crate::Cluster`].
//!
//! A cluster of `threads` stepping threads counts the driver among
//! them: its [`WorkerPool`] spawns `threads − 1` workers at the first
//! hand-off and keeps them for the cluster's lifetime. The cluster's one
//! stepping funnel (`Cluster::step_all`) fast-forwards idle machines on
//! the driver thread and steps a lone busy machine there too; only when
//! two or more machines have quantum work does it hand those machines —
//! and only those — to the pool.
//!
//! Each hand-off cuts the busy machines into `min(threads, busy)` shards
//! by greedy LPT on their active simulator instances (see
//! [`ShardPlan::cut`]). Shards 1 and up go to the workers over channels;
//! shard 0 is stepped by the driver itself, which then waits at the
//! barrier for every worker's shard to come back, so a boundary never
//! overlaps the next dispatch round. Machines travel boxed, through
//! slot and shard buffers the pool keeps, so a hand-off moves pointers
//! and allocates nothing once warm. Machines are fully independent
//! state machines, so the sharding — and therefore the thread count —
//! cannot change results: replays stay bit-identical from 1 thread to N.

use std::cmp::Reverse;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
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

/// The sim-clock balance of a cluster's hand-offs, summed over every
/// hand-off of its lifetime ([`crate::Cluster::shard_load`]). Both sums
/// count active simulator instances, the cost each hand-off's shards
/// are balanced by, so they are identical on every host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The busy machines' active instances.
    pub busy: u64,
    /// The largest shard's active instances.
    pub largest_shard: u64,
}

impl ShardLoad {
    /// `busy ÷ largest_shard`: the speedup the hand-offs' layouts would
    /// allow if a machine's step cost were its active instances. 1 when
    /// nothing was handed off.
    pub fn bound(&self) -> f64 {
        if self.largest_shard == 0 {
            1.0
        } else {
            self.busy as f64 / self.largest_shard as f64
        }
    }
}

/// A cluster's live machines. Boxed, so that a hand-off moves each busy
/// machine to its worker and back as a pointer instead of copying the
/// whole machine four times; clippy's `vec_box` judges a box unnecessary
/// for a `Vec` element this small.
#[allow(clippy::vec_box)]
pub(crate) type Fleet = Vec<Box<Machine>>;

/// Machines travelling to a worker and back, each with its position in
/// the cluster's machine vector so the barrier can put it back in its
/// slot.
type Shard = Vec<(usize, Box<Machine>)>;

struct Job {
    shard: Shard,
    target_ms: u64,
    ctx: Arc<ServingContext>,
}

struct Done {
    shard: Shard,
    outcome: Result<()>,
}

/// A hand-off's shard layout, with its buffers kept across hand-offs.
#[derive(Debug, Default)]
struct ShardPlan {
    /// Each busy machine's cost, in busy order.
    costs: Vec<u64>,
    /// Busy indices, largest cost first.
    order: Vec<usize>,
    /// Each shard's summed cost.
    loads: Vec<u64>,
    /// Each busy machine's shard, in busy order.
    shard_of: Vec<usize>,
}

impl ShardPlan {
    /// Cuts items of cost `costs` into `shards` shards (at least one) by
    /// greedy LPT, largest processing time first: items in descending
    /// cost, ties by index, each to the shard with the least cost so far,
    /// ties to the lowest shard. No shard ends up with more than
    /// `total ÷ shards` plus the largest cost.
    fn cut(&mut self, costs: impl IntoIterator<Item = u64>, shards: usize) {
        self.costs.clear();
        self.costs.extend(costs);
        self.order.clear();
        self.order.extend(0..self.costs.len());
        let costs = &self.costs;
        self.order
            .sort_unstable_by_key(|&item| (Reverse(costs[item]), item));
        self.loads.clear();
        self.loads.resize(shards.max(1), 0);
        self.shard_of.clear();
        self.shard_of.resize(self.costs.len(), 0);
        for &item in &self.order {
            let shard = (0..self.loads.len())
                .min_by_key(|&shard| self.loads[shard])
                .unwrap_or(0);
            self.loads[shard] += self.costs[item];
            self.shard_of[item] = shard;
        }
    }

    /// The positions in `busy` (the items `cut` ran on) of shard
    /// `shard`'s machines.
    fn members<'a>(&'a self, shard: usize, busy: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        busy.iter()
            .zip(&self.shard_of)
            .filter(move |&(_, &of)| of == shard)
            .map(|(&idx, _)| idx)
    }

    /// The last cut's total and largest shard cost.
    fn load(&self) -> ShardLoad {
        ShardLoad {
            busy: self.loads.iter().sum(),
            largest_shard: self.loads.iter().copied().max().unwrap_or(0),
        }
    }
}

/// The stepping threads of a cluster besides the driver, created once
/// per cluster and reused by every hand-off of every replay.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    jobs: Vec<SyncSender<Job>>,
    done_rx: Receiver<Done>,
    handles: Vec<JoinHandle<()>>,
    /// Every machine's slot during a hand-off; empty between them.
    slots: Vec<Option<Box<Machine>>>,
    /// Empty shard buffers, back from the workers and kept for reuse.
    spare: Vec<Shard>,
    plan: ShardPlan,
    /// Summed over every hand-off.
    load: ShardLoad,
}

impl WorkerPool {
    /// A pool for `threads` stepping threads (at least two): the driver
    /// and `threads − 1` spawned workers.
    pub(crate) fn spawn(threads: usize) -> Self {
        let workers = threads.max(2) - 1;
        // Bounded channels preallocate their buffers: a worker holds at
        // most one job, and at most one `Done` per worker is in flight,
        // so no send ever blocks or allocates.
        let (done_tx, done_rx) = sync_channel::<Done>(workers);
        let mut jobs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = sync_channel::<Job>(1);
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(job_rx, done_tx)));
            jobs.push(job_tx);
        }
        WorkerPool {
            jobs,
            done_rx,
            handles,
            slots: Vec::new(),
            spare: Vec::with_capacity(workers),
            plan: ShardPlan::default(),
            load: ShardLoad::default(),
        }
    }

    /// Number of spawned worker threads (the driver not included).
    pub(crate) fn workers(&self) -> usize {
        self.jobs.len()
    }

    /// The hand-offs' balance so far (see [`ShardLoad`]).
    pub(crate) fn load(&self) -> ShardLoad {
        self.load
    }

    /// Steps the machines at positions `busy` (ascending, distinct) to
    /// cluster time `target_ms`. Cuts them into `min(workers + 1,
    /// busy.len())` shards with [`ShardPlan::cut`] on their active
    /// instances, sends shards 1 and up to the workers, steps shard 0
    /// on the calling thread, then waits for every worker's shard at
    /// the barrier and puts each machine back in its slot. The other
    /// machines never leave their slots. When `profile` is enabled, the
    /// wall-clock time spent waiting after the driver's own shard is
    /// charged to the `"barrier"` stage.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::WorkerPanic`] if stepping a shard panicked, on
    ///   a worker or on the driver (the panic is caught, so the
    ///   machines — and the pool — survive);
    /// * the first stepping error hit, the driver's shard first.
    pub(crate) fn step_all(
        &mut self,
        machines: &mut Fleet,
        busy: &[usize],
        target_ms: u64,
        ctx: &Arc<ServingContext>,
        profile: &mut StageProfile,
    ) -> Result<()> {
        let shards = (self.workers() + 1).min(busy.len());
        if shards == 0 {
            return Ok(());
        }
        self.plan.cut(
            busy.iter()
                .map(|&idx| machines[idx].harness().sim().active_instances() as u64),
            shards,
        );
        let cut = self.plan.load();
        self.load.busy += cut.busy;
        self.load.largest_shard += cut.largest_shard;

        let count = machines.len();
        self.slots.extend(machines.drain(..).map(Some));
        let mut first_error = None;
        let mut sent = 0;
        for (shard, job_tx) in (1..shards).zip(&self.jobs) {
            let mut travelling = self.spare.pop().unwrap_or_default();
            travelling.extend(
                self.plan
                    .members(shard, busy)
                    .filter_map(|idx| Some((idx, self.slots[idx].take()?))),
            );
            if travelling.is_empty() {
                self.spare.push(travelling);
                continue;
            }
            let job = Job {
                shard: travelling,
                target_ms,
                ctx: Arc::clone(ctx),
            };
            if let Err(SendError(job)) = job_tx.send(job) {
                // A dead worker hands the shard straight back.
                restore(&mut self.slots, &mut self.spare, job.shard);
                first_error = Some(ClusterError::WorkerPanic("worker channel closed".into()));
                break;
            }
            sent += 1;
        }

        // Shard 0 is the driver's: its machines never leave their slots.
        let driver = caught(|| {
            for idx in self.plan.members(0, busy) {
                if let Some(machine) = self.slots[idx].as_mut() {
                    machine.step_to(target_ms, ctx)?;
                }
            }
            Ok(())
        });
        if let Err(e) = driver {
            first_error.get_or_insert(e);
        }

        let barrier_started = profile.start();
        for _ in 0..sent {
            let Ok(done) = self.done_rx.recv() else {
                first_error
                    .get_or_insert(ClusterError::WorkerPanic("worker pool disconnected".into()));
                break;
            };
            restore(&mut self.slots, &mut self.spare, done.shard);
            if let Err(e) = done.outcome {
                first_error.get_or_insert(e);
            }
        }
        profile.stop("barrier", barrier_started);
        machines.extend(self.slots.drain(..).flatten());
        if machines.len() < count {
            first_error.get_or_insert(ClusterError::WorkerPanic("worker lost a machine".into()));
        }
        first_error.map_or(Ok(()), Err)
    }
}

/// Puts a shard's machines back in their slots and keeps its emptied
/// buffer for the next hand-off.
fn restore(slots: &mut [Option<Box<Machine>>], spare: &mut Vec<Shard>, mut shard: Shard) {
    for (idx, machine) in shard.drain(..) {
        slots[idx] = Some(machine);
    }
    spare.push(shard);
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

fn worker_loop(jobs: Receiver<Job>, done: SyncSender<Done>) {
    while let Ok(job) = jobs.recv() {
        let Job {
            mut shard,
            target_ms,
            ctx,
        } = job;
        let outcome = caught(|| {
            for (_, machine) in shard.iter_mut() {
                machine.step_to(target_ms, &ctx)?;
            }
            Ok(())
        });
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

/// Runs one shard's stepping, turning a panic into
/// [`ClusterError::WorkerPanic`]; the shard's machines stay with the
/// caller either way.
fn caught(step: impl FnOnce() -> Result<()>) -> Result<()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(step))
        .unwrap_or_else(|panic| Err(ClusterError::WorkerPanic(panic_message(&*panic))))
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
    use litmus_core::{DiscountModel, TableBuilder};
    use litmus_platform::TenantId;
    use litmus_sim::MachineSpec;
    use litmus_workloads::suite;

    use super::*;
    use crate::machine::{MachineConfig, MachineId};

    #[test]
    fn stepping_mode_defaults_to_pooled() {
        assert_eq!(SteppingMode::default(), SteppingMode::Pooled);
    }

    /// A serving context and one booted machine per entry of
    /// `fillers`, machine `i` running `fillers[i]` background fillers:
    /// its active instances, so its shard cost, at every step.
    fn fleet(fillers: &[usize]) -> (Arc<ServingContext>, Fleet) {
        let spec = MachineSpec::cascade_lake();
        let tables = TableBuilder::new(spec.clone())
            .levels([6, 14, 24])
            .reference_scale(0.03)
            .build()
            .unwrap();
        let model = DiscountModel::fit(&tables).unwrap();
        let probe_language = tables.baselines()[0].language;
        let ctx = Arc::new(ServingContext::new(tables, model, 0.05));
        let machines = fillers
            .iter()
            .zip(0u32..)
            .map(|(&fillers, i)| {
                let config = MachineConfig::new(2)
                    .background(fillers)
                    .background_scale(0.05)
                    .warmup_ms(0)
                    .seed(u64::from(i));
                let machine =
                    Machine::boot(MachineId(i), 0, spec.clone(), &config, probe_language, &ctx);
                Box::new(machine.unwrap())
            })
            .collect();
        (ctx, machines)
    }

    fn ids(machines: &[Box<Machine>]) -> Vec<MachineId> {
        machines.iter().map(|machine| machine.id()).collect()
    }

    fn costs(machines: &[Box<Machine>]) -> Vec<usize> {
        machines
            .iter()
            .map(|machine| machine.harness().sim().active_instances())
            .collect()
    }

    /// The shard the last hand-off put the machine at `position` of
    /// `busy` in.
    fn shard_of(pool: &WorkerPool, busy: &[usize], position: usize) -> usize {
        let idx = busy.iter().position(|&idx| idx == position).unwrap();
        pool.plan.shard_of[idx]
    }

    #[test]
    fn a_failed_hand_off_returns_every_machine_and_keeps_the_pool() {
        let (ctx, mut machines) = fleet(&[1, 2, 0, 3]);
        assert_eq!(costs(&machines), [1, 2, 0, 3]);
        // Nothing warmed this function's solo oracle, so launching it
        // fails on whichever thread steps machine 1.
        let function = suite::by_name("auth-py").unwrap();
        assert!(!ctx.is_warmed(&function));
        machines[1].dispatch(0, function, TenantId(0), None);
        let all = [MachineId(0), MachineId(1), MachineId(2), MachineId(3)];

        let mut pool = WorkerPool::spawn(2);
        let mut profile = StageProfile::default();
        // Machine 1 is the costliest of these three, so it lands on
        // the driver's shard; then machine 3 outweighs it, and it
        // lands on the worker's.
        for (busy, healthy, driver_side, target_ms) in [
            (&[0, 1, 2][..], &[0, 2][..], true, 10),
            (&[1, 3], &[0, 2, 3], false, 30),
        ] {
            let failed = pool.step_all(&mut machines, busy, target_ms, &ctx, &mut profile);
            assert!(
                matches!(failed, Err(ClusterError::UnknownFunction(_))),
                "{failed:?}"
            );
            assert_eq!(shard_of(&pool, busy, 1) == 0, driver_side, "{busy:?}");
            assert_eq!(ids(&machines), all);

            // The pool survives its error: the next hand-off goes through.
            pool.step_all(&mut machines, healthy, target_ms + 10, &ctx, &mut profile)
                .unwrap();
            assert_eq!(ids(&machines), all);
            assert!(pool.done_rx.try_recv().is_err(), "a stale Done is queued");
        }
    }

    #[test]
    fn a_panic_on_the_drivers_shard_waits_for_the_workers_shard() {
        let (ctx, mut machines) = fleet(&[2, 1]);
        let mut pool = WorkerPool::spawn(2);
        let mut profile = StageProfile::default();
        let busy = [0, 1];
        machines[0].panic_on_step = true;
        let before = machines[1].harness().sim().now_ms();
        let failed = pool.step_all(&mut machines, &busy, 50, &ctx, &mut profile);
        assert!(
            matches!(&failed, Err(ClusterError::WorkerPanic(msg)) if msg.contains("injected")),
            "{failed:?}"
        );
        // Machine 0 (two fillers) was the driver's, machine 1 the
        // worker's: the error surfaced only once the worker's shard was
        // stepped and back.
        assert_eq!(
            (shard_of(&pool, &busy, 0), shard_of(&pool, &busy, 1)),
            (0, 1)
        );
        assert_eq!(ids(&machines), [MachineId(0), MachineId(1)]);
        assert!(machines[1].harness().sim().now_ms() > before);
        assert!(pool.done_rx.try_recv().is_err(), "a stale Done is queued");

        machines[0].panic_on_step = false;
        let reached = |machines: &[Box<Machine>]| {
            machines
                .iter()
                .map(|machine| machine.harness().sim().now_ms())
                .collect::<Vec<_>>()
        };
        let after_panic = reached(&machines);
        pool.step_all(&mut machines, &busy, 100, &ctx, &mut profile)
            .unwrap();
        assert_eq!(ids(&machines), [MachineId(0), MachineId(1)]);
        let stepped = reached(&machines);
        assert!(stepped
            .iter()
            .zip(&after_panic)
            .all(|(now, then)| now > then));
        assert!(pool.done_rx.try_recv().is_err(), "a stale Done is queued");
    }

    /// The shards `cut` put items `0..costs.len()` in.
    fn lpt(costs: &[u64], shards: usize) -> Vec<usize> {
        let mut plan = ShardPlan::default();
        plan.cut(costs.iter().copied(), shards);
        plan.shard_of
    }

    #[test]
    fn lpt_places_every_item_once_within_the_greedy_bound() {
        let mut plan = ShardPlan::default();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for _ in 0..2_000 {
            let items = 1 + draw(12) as usize;
            let shards = 1 + draw(items as u64 + 1) as usize;
            let costs: Vec<u64> = (0..items).map(|_| draw(30)).collect();
            plan.cut(costs.iter().copied(), shards);
            let positions: Vec<usize> = (0..items).collect();
            let mut loads = vec![0; shards];
            let mut members = 0;
            for (shard, load) in loads.iter_mut().enumerate() {
                for item in plan.members(shard, &positions) {
                    *load += costs[item];
                    members += 1;
                }
            }
            // Every item sits in exactly one shard.
            assert_eq!(members, items, "{costs:?} over {shards}");
            assert_eq!(loads, plan.loads);
            let total: u64 = costs.iter().sum();
            let largest_cost = costs.iter().copied().max().unwrap();
            let largest_shard = plan.load().largest_shard;
            assert_eq!(plan.load().busy, total);
            assert!(
                largest_shard * shards as u64 <= total + largest_cost * shards as u64,
                "{costs:?} over {shards}: largest shard {largest_shard}"
            );
            // A reused plan cuts exactly like a fresh one.
            assert_eq!(plan.shard_of, lpt(&costs, shards));
        }
    }

    #[test]
    fn lpt_breaks_ties_by_position_then_by_shard() {
        // Equal costs go in position order, each to the lowest of the
        // least-loaded shards.
        assert_eq!(lpt(&[1, 1, 1, 1], 2), [0, 1, 0, 1]);
        assert_eq!(lpt(&[5, 5, 5], 3), [0, 1, 2]);
        // Zero costs never load a shard, so they all follow the first.
        assert_eq!(lpt(&[0, 0, 0], 3), [0, 0, 0]);
        assert_eq!(lpt(&[4, 0, 0], 2), [0, 1, 1]);
        // Largest first: 3 → shard 0; the two 2s (position order) →
        // shard 1; the 1 → shard 0, tied with shard 1 at 4.
        assert_eq!(lpt(&[2, 3, 2, 1], 2), [1, 0, 1, 0]);
        // The dense fleet's shape: three fillers at positions 0–2 land
        // in three different shards, where contiguous chunks of two
        // would have paired two of them.
        assert_eq!(lpt(&[22, 21, 22, 2, 3, 1], 4), [0, 2, 1, 3, 3, 3]);
        assert_eq!(lpt(&[7], 1), [0]);
    }
}
