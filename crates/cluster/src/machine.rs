use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use litmus_platform::{CoRunEnv, CoRunHarness, HarnessConfig, TenantId};
use litmus_sim::{Event, ExecutionProfile, InstanceId, MachineSpec};
use litmus_telemetry::TraceId;
use litmus_workloads::{Benchmark, Language};

use crate::billing::BillingShard;
use crate::context::ServingContext;
use crate::policy::MachineSnapshot;
use crate::Result;

/// Stable identity of a machine for the lifetime of a [`crate::Cluster`].
///
/// Autoscaling adds and retires machines mid-replay, so positional
/// indices shift; ids never do. Ids are assigned densely from 0 in boot
/// order, so replay reports can index per-machine vectors by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl MachineId {
    /// The id as a dense vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Configuration of one serving machine in a [`crate::Cluster`].
///
/// Machines share the cluster's [`MachineSpec`] but may differ in pool
/// size and — crucially for placement experiments — background load:
/// long-lived filler functions time-sharing the same cores, modelling
/// the colocated tenants a real provider has already packed there.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cores in the machine's serving pool.
    pub cores: usize,
    /// Background filler functions kept alive on the pool (0 = the
    /// machine serves trace traffic only).
    pub background: usize,
    /// Instruction-count scale for background fillers.
    pub background_scale: f64,
    /// Warm-up before the machine joins the cluster, ms.
    pub warmup_ms: u64,
    /// Seed for the background mix (machines get distinct streams).
    pub seed: u64,
    /// Most invocations allowed to execute concurrently; dispatched
    /// arrivals beyond the cap wait in the machine's queue (and are
    /// what work stealing re-dispatches elsewhere).
    pub max_inflight: usize,
}

impl MachineConfig {
    /// A dedicated serving machine: `cores` cores, no background load,
    /// and a concurrency cap of 12 invocations per core (roughly the
    /// paper's §7.2 temporal-sharing density).
    pub fn new(cores: usize) -> Self {
        MachineConfig {
            cores,
            background: 0,
            background_scale: 0.05,
            warmup_ms: 100,
            seed: 0x5EED,
            max_inflight: cores.max(1) * 12,
        }
    }

    /// Sets the background filler count.
    pub fn background(mut self, fillers: usize) -> Self {
        self.background = fillers;
        self
    }

    /// Sets the background profile scale.
    pub fn background_scale(mut self, scale: f64) -> Self {
        self.background_scale = scale;
        self
    }

    /// Sets the warm-up duration, ms.
    pub fn warmup_ms(mut self, ms: u64) -> Self {
        self.warmup_ms = ms;
        self
    }

    /// Sets the background mix seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the concurrency cap (minimum 1).
    pub fn max_inflight(mut self, cap: usize) -> Self {
        self.max_inflight = cap.max(1);
        self
    }
}

/// An invocation dispatched to a machine but not yet launched — the
/// unit of work the stealing pass may re-dispatch to a calmer machine.
#[derive(Debug, Clone)]
pub(crate) struct QueuedArrival {
    pub(crate) launch_at_ms: u64,
    pub(crate) function: Benchmark,
    pub(crate) tenant: TenantId,
    /// Identity of the sampled trace this arrival belongs to (`None`
    /// when the invocation was not sampled — nothing is recorded).
    pub(crate) trace: Option<TraceId>,
    /// Times the stealing pass has re-dispatched this arrival.
    pub(crate) moves: u32,
}

#[derive(Debug, Clone)]
struct InFlight {
    function: Benchmark,
    tenant: TenantId,
    arrived_cluster_ms: u64,
    launched_cluster_ms: u64,
    trace: Option<TraceId>,
    moves: u32,
}

/// Everything the driver needs to emit one sampled invocation's
/// completion-side spans (queue wait, execution, billing attribution).
/// Machines accumulate these locally while stepping on worker threads;
/// the driver drains them single-threadedly after every step, so span
/// emission order stays deterministic.
#[derive(Debug, Clone)]
pub(crate) struct CompletionRecord {
    pub(crate) trace: TraceId,
    pub(crate) tenant: TenantId,
    pub(crate) machine: MachineId,
    /// Cluster time the invocation arrived (dispatch stamp), ms.
    pub(crate) arrived_ms: u64,
    /// Cluster time the invocation launched into execution, ms.
    pub(crate) launched_ms: u64,
    /// Cluster time the invocation completed, ms (fractional: the
    /// simulator completes at sub-ms quanta).
    pub(crate) completed_ms: f64,
    /// Litmus-priced cost billed for the invocation.
    pub(crate) cost: f64,
    /// Predicted slowdown the completion's startup probe produced.
    pub(crate) predicted: f64,
    /// Times the stealing pass re-dispatched the invocation.
    pub(crate) moves: u32,
}

/// One serving machine: a congested [`CoRunHarness`] plus the
/// scheduler-side bookkeeping the cluster needs — an arrival queue, the
/// in-flight table, the machine's latest Litmus congestion estimate and
/// its local [`BillingShard`].
///
/// Machines are stepped independently (and in parallel) by the
/// [`crate::ClusterDriver`]; nothing here references any other machine.
#[derive(Debug)]
pub struct Machine {
    id: MachineId,
    harness: CoRunHarness,
    cores: usize,
    /// Harness-local sim time corresponding to cluster time `born_ms`
    /// (boot + warm-up + initial probe all happen before the epoch).
    epoch_ms: u64,
    /// Cluster time at which the machine joined the fleet (0 for
    /// machines present at build, the scale-up slice for autoscaled
    /// ones).
    born_ms: u64,
    max_inflight: usize,
    queue: VecDeque<QueuedArrival>,
    inflight: BTreeMap<InstanceId, InFlight>,
    predicted_slowdown: f64,
    /// Cluster time the congestion estimate was last refreshed (boot
    /// probe, then every completion's startup probe).
    last_probe_ms: u64,
    shard: BillingShard,
    dispatched: usize,
    launched: usize,
    /// Full quanta actually stepped by the serving loop (idle
    /// fast-forwards excluded) — the wall-clock cost driver the
    /// event-driven engine minimises.
    quanta: u64,
    /// Those of `quanta` whose simulator step ran the congestion fixed
    /// point rather than reusing the previous quantum's solve.
    solves: u64,
    completed: usize,
    latency_sum_ms: f64,
    queue_wait_sum_ms: f64,
    draining: bool,
    /// Per-invocation completion records of sampled traces, drained by
    /// the driver after every step (empty whenever tracing is off).
    trace_records: Vec<CompletionRecord>,
    /// Makes [`Machine::step_to`] panic, so that tests can drive the
    /// worker pool's panic paths.
    #[cfg(test)]
    pub(crate) panic_on_step: bool,
    /// Makes [`Machine::step_to`] step every quantum, never advancing a
    /// stable plan in bulk: the oracle the bulk advance is tested
    /// against.
    #[cfg(test)]
    pub(crate) step_every_quantum: bool,
}

impl Machine {
    /// Boots the machine: starts the harness (launching and warming any
    /// background fillers), then takes one startup Litmus probe so the
    /// placement policies see a meaningful congestion estimate before
    /// the first invocation completes. `born_ms` is the cluster time
    /// the machine joins at (0 at cluster build).
    ///
    /// # Errors
    ///
    /// Propagates harness boot and probe failures.
    pub fn boot(
        id: MachineId,
        born_ms: u64,
        spec: MachineSpec,
        config: &MachineConfig,
        probe_language: Language,
        ctx: &ServingContext,
    ) -> Result<Self> {
        let harness_config = HarnessConfig::new(spec)
            .env(CoRunEnv::Shared {
                co_runners: config.background,
                cores: config.cores,
            })
            .mix_scale(config.background_scale)
            .warmup_ms(config.warmup_ms)
            .seed(config.seed);
        let harness = CoRunHarness::start(harness_config)?;
        let mut machine = Machine {
            id,
            harness,
            cores: config.cores,
            epoch_ms: 0,
            born_ms,
            max_inflight: config.max_inflight.max(1),
            queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            predicted_slowdown: 1.0,
            last_probe_ms: born_ms,
            shard: BillingShard::new(),
            dispatched: 0,
            launched: 0,
            quanta: 0,
            solves: 0,
            completed: 0,
            latency_sum_ms: 0.0,
            queue_wait_sum_ms: 0.0,
            draining: false,
            trace_records: Vec::new(),
            #[cfg(test)]
            panic_on_step: false,
            #[cfg(test)]
            step_every_quantum: false,
        };
        machine.probe(probe_language, ctx)?;
        machine.epoch_ms = machine.harness.sim().now_ms();
        Ok(machine)
    }

    /// Runs a startup-only probe (exactly what a new function's launch
    /// would measure) and refreshes the congestion estimate.
    fn probe(&mut self, language: Language, ctx: &ServingContext) -> Result<()> {
        let mut builder = ExecutionProfile::builder(format!("{}-cluster-probe", language.abbr()));
        for phase in language.startup_phases() {
            builder = builder.startup_phase(phase);
        }
        let profile = builder.build().map_err(litmus_core::CoreError::from)?;
        let report = self.harness.measure(profile)?;
        let baseline = ctx.tables().baseline(language)?;
        let startup = report
            .startup
            .as_ref()
            .ok_or(litmus_core::CoreError::NoStartup)?;
        let reading = litmus_core::LitmusReading::from_startup(baseline, startup)?;
        self.predicted_slowdown = ctx.model().estimate(&reading)?.total_slowdown;
        Ok(())
    }

    /// The machine's stable id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Cluster time the machine joined the fleet, ms.
    pub fn born_ms(&self) -> u64 {
        self.born_ms
    }

    /// Harness-local time corresponding to cluster time `cluster_ms`.
    fn local_ms(&self, cluster_ms: u64) -> u64 {
        self.epoch_ms + cluster_ms.saturating_sub(self.born_ms)
    }

    /// Cluster time corresponding to the harness's current local time.
    fn cluster_now_ms(&self) -> u64 {
        self.born_ms + (self.harness.sim().now_ms() - self.epoch_ms)
    }

    /// Accepts an invocation arriving at cluster time `at_ms`; it
    /// launches once the machine steps past that time and a concurrency
    /// slot is free. `trace` carries the sampled trace identity (pass
    /// `None` for unsampled invocations — nothing extra is recorded).
    pub fn dispatch(
        &mut self,
        at_ms: u64,
        function: Benchmark,
        tenant: TenantId,
        trace: Option<TraceId>,
    ) {
        self.queue.push_back(QueuedArrival {
            launch_at_ms: at_ms,
            function,
            tenant,
            trace,
            moves: 0,
        });
        self.dispatched += 1;
    }

    /// Removes up to `count` queued-but-not-launched invocations from
    /// the back of the queue (the most recently routed work) so they
    /// can be re-dispatched elsewhere. Returned in ascending
    /// arrival-time order. The donor's dispatch count is rolled back:
    /// the invocation is accounted to whichever machine finally runs
    /// it.
    pub(crate) fn shed_queued(&mut self, count: usize) -> Vec<QueuedArrival> {
        let take = count.min(self.queue.len());
        // split_off keeps the tail in queue order — the same order the
        // old pop_back-then-reverse loop produced.
        let shed: Vec<QueuedArrival> = self.queue.split_off(self.queue.len() - take).into();
        self.dispatched -= shed.len();
        shed
    }

    /// Accepts invocations shed by another machine, keeping the queue
    /// sorted by launch time (stolen work may predate queued work).
    pub(crate) fn accept_stolen(&mut self, arrivals: Vec<QueuedArrival>) {
        for mut arrival in arrivals {
            arrival.moves += 1;
            let at = self
                .queue
                .partition_point(|queued| queued.launch_at_ms <= arrival.launch_at_ms);
            self.queue.insert(at, arrival);
            self.dispatched += 1;
        }
    }

    /// Puts the machine into drain: its background fillers stop being
    /// backfilled and the scheduler stops routing work here. Once
    /// [`Machine::outstanding`] reaches zero the cluster retires it.
    pub fn begin_drain(&mut self) {
        self.draining = true;
        self.harness.drain();
    }

    /// Whether the machine is draining toward retirement.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Advances the machine to cluster time `cluster_ms`, launching
    /// queued arrivals at their arrival quantum (while concurrency
    /// slots last) and pricing every completion into the machine's
    /// [`BillingShard`]. Each completion's startup probe also refreshes
    /// [`MachineSnapshot::predicted_slowdown`] — the free §5.1
    /// scheduling signal.
    ///
    /// Idle stretches cost O(1): whenever the machine has nothing
    /// active (no serving work, no background fillers), the harness
    /// fast-forwards to the next queued launch or to the target in one
    /// jump ([`litmus_platform::CoRunHarness::fast_forward_to`]) —
    /// bit-identical to stepping every quantum, because an idle
    /// simulator's state is a fixed point and launches fire at the
    /// same local quantum either way. This also makes stepping
    /// granularity-invariant: `step_to(a)` then `step_to(b)` equals
    /// `step_to(b)` directly, which is what lets the event-driven
    /// engine merge quiet slices.
    ///
    /// Stable stretches cost a few additions per quantum: after a
    /// quantum that reused its solve and changed nothing, the plan holds
    /// until a launch or a phase end, and the simulator advances it in
    /// one call ([`litmus_sim::Simulator::advance_stable`]) up to the
    /// target or, while a concurrency slot is free, the next queued
    /// arrival's launch quantum, whichever is sooner — bit-identical to
    /// stepping those quanta, because the advance stops before any phase
    /// ends, so nothing completes, and launches fire at the same local
    /// quantum. Those quanta count in [`Machine::quanta_stepped`] and
    /// [`Machine::bulk_quanta`], never in [`Machine::congestion_solves`].
    ///
    /// # Errors
    ///
    /// * [`crate::ClusterError::UnknownFunction`] when a queued arrival's
    ///   function was never warmed in `ctx`; the arrival stays queued.
    /// * Propagated launch, backfill and pricing failures.
    pub fn step_to(&mut self, cluster_ms: u64, ctx: &ServingContext) -> Result<()> {
        #[cfg(test)]
        assert!(!self.panic_on_step, "injected stepping panic");
        let target = self.local_ms(cluster_ms);
        while self.harness.sim().now_ms() < target {
            self.launch_due(ctx)?;
            let now = self.harness.sim().now_ms();
            if self.harness.sim().active_instances() == 0 {
                // Nothing can complete before the next queued launch
                // (launch_due above drained everything already due), so
                // jump straight there — or to the target if the queue
                // is empty or due later.
                let next = self.queue.front().map_or(target, |queued| {
                    self.local_ms(queued.launch_at_ms).clamp(now, target)
                });
                if next > now {
                    self.harness.fast_forward_to(next)?;
                    continue;
                }
            }
            // A plan the last quantum left stable, in this call or the
            // previous one, holds until a launch or a phase end. Only a
            // free slot lets the next queued arrival launch.
            let horizon = match self.queue.front() {
                Some(queued) if self.inflight.len() < self.max_inflight => {
                    self.local_ms(queued.launch_at_ms).clamp(now, target)
                }
                _ => target,
            };
            #[cfg(test)]
            let horizon = if self.step_every_quantum {
                now
            } else {
                horizon
            };
            let advanced = self.harness.advance_stable(horizon);
            if advanced > 0 {
                self.quanta += advanced;
                continue;
            }
            let solved_before = self.harness.sim().congestion_solves();
            let events = self.harness.step()?;
            self.quanta += 1;
            self.solves += self.harness.sim().congestion_solves() - solved_before;
            self.settle(&events, ctx)?;
        }
        self.launch_due(ctx)?;
        Ok(())
    }

    /// Whether advancing to cluster time `cluster_ms` involves any real
    /// quantum work: active instances (serving or filler), or a queued
    /// arrival that launches before then. When false,
    /// [`Machine::step_to`] is a pure O(1) fast-forward. The cluster's
    /// stepping funnel partitions the fleet with this test at every
    /// boundary, under both replay engines: idle machines fast-forward
    /// on the driver thread, and only busy ones can reach the worker
    /// pool.
    pub fn needs_quanta_before(&self, cluster_ms: u64) -> bool {
        if self.harness.sim().active_instances() > 0 {
            return true;
        }
        self.queue
            .front()
            .is_some_and(|queued| self.local_ms(queued.launch_at_ms) < self.local_ms(cluster_ms))
    }

    /// Launches queued arrivals whose time has come, while the
    /// concurrency cap allows, each running the profile `ctx` warmed
    /// for its function. An arrival leaves the queue only once it has
    /// launched, so a failed launch leaves it queued.
    fn launch_due(&mut self, ctx: &ServingContext) -> Result<()> {
        let now = self.harness.sim().now_ms();
        while self.inflight.len() < self.max_inflight {
            let Some(front) = self.queue.front() else {
                break;
            };
            if self.local_ms(front.launch_at_ms) > now {
                break;
            }
            let id = self.harness.submit(ctx.profile(&front.function)?)?;
            let Some(arrival) = self.queue.pop_front() else {
                break;
            };
            let launched_cluster_ms = self.cluster_now_ms();
            self.queue_wait_sum_ms +=
                (launched_cluster_ms.saturating_sub(arrival.launch_at_ms)) as f64;
            self.launched += 1;
            self.inflight.insert(
                id,
                InFlight {
                    function: arrival.function,
                    tenant: arrival.tenant,
                    arrived_cluster_ms: arrival.launch_at_ms,
                    launched_cluster_ms,
                    trace: arrival.trace,
                    moves: arrival.moves,
                },
            );
        }
        Ok(())
    }

    /// Prices completions among `events` and updates serving stats.
    fn settle(&mut self, events: &[Event], ctx: &ServingContext) -> Result<()> {
        for &Event::Completed { id, at_ms } in events {
            let Some(done) = self.inflight.remove(&id) else {
                continue; // a background filler, not serving traffic
            };
            let report = self.harness.report(id)?;
            let (invoice, predicted) = ctx.price(&done.function, &report)?;
            self.predicted_slowdown = predicted;
            self.completed += 1;
            // Both times in cluster coordinates: local completion time
            // shifted by the machine's epoch/birth offset.
            let completed_cluster_ms = self.born_ms as f64 + (at_ms - self.epoch_ms as f64);
            self.last_probe_ms = self.last_probe_ms.max(completed_cluster_ms as u64);
            self.latency_sum_ms += completed_cluster_ms - done.arrived_cluster_ms as f64;
            if let Some(trace) = done.trace {
                self.trace_records.push(CompletionRecord {
                    trace,
                    tenant: done.tenant,
                    machine: self.id,
                    arrived_ms: done.arrived_cluster_ms,
                    launched_ms: done.launched_cluster_ms,
                    completed_ms: completed_cluster_ms,
                    cost: invoice.litmus.total(),
                    predicted,
                    moves: done.moves,
                });
            }
            self.shard.fold(done.tenant, &invoice);
        }
        Ok(())
    }

    /// Drains the completion records accumulated since the last call,
    /// in per-machine completion order. Called by the driver (single
    /// thread) after every step, so records never outlive a machine's
    /// retirement.
    pub(crate) fn take_trace_records(&mut self) -> Vec<CompletionRecord> {
        std::mem::take(&mut self.trace_records)
    }

    /// The scheduler-visible state of the machine.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            id: self.id,
            inflight: self.inflight.len(),
            queued: self.queue.len(),
            predicted_slowdown: self.predicted_slowdown,
            probe_age_ms: self.cluster_now_ms().saturating_sub(self.last_probe_ms),
            cores: self.cores,
            dispatched: self.dispatched,
            draining: self.draining,
        }
    }

    /// Executing + queued invocations.
    pub fn outstanding(&self) -> usize {
        self.inflight.len() + self.queue.len()
    }

    /// Full simulator quanta actually stepped by the serving loop —
    /// idle fast-forwards are excluded, so this counts the real
    /// wall-clock work [`Machine::step_to`] performed. Two replays that
    /// agree here did the same co-run evaluations regardless of how
    /// their driver sliced time.
    pub fn quanta_stepped(&self) -> u64 {
        self.quanta
    }

    /// How many of [`Machine::quanta_stepped`] ran the simulator's
    /// congestion fixed point; the rest reused the previous quantum's
    /// solve ([`litmus_sim::Simulator::congestion_solves`]). A sim-clock
    /// count, identical on every host.
    pub fn congestion_solves(&self) -> u64 {
        self.solves
    }

    /// How many of [`Machine::quanta_stepped`] the simulator advanced in
    /// bulk under a stable plan ([`litmus_sim::Simulator::bulk_quanta`])
    /// rather than stepping them one at a time. A sim-clock count,
    /// identical on every host.
    pub fn bulk_quanta(&self) -> u64 {
        self.harness.sim().bulk_quanta()
    }

    /// Invocations dispatched here and not re-dispatched away.
    pub fn dispatched(&self) -> usize {
        self.dispatched
    }

    /// Invocations launched into execution here (≥ completed).
    pub fn launched(&self) -> usize {
        self.launched
    }

    /// Invocations completed and billed here.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Sum of completed invocations' arrival→completion latencies, ms.
    pub fn latency_sum_ms(&self) -> f64 {
        self.latency_sum_ms
    }

    /// Sum of launched invocations' arrival→launch waits, ms — the
    /// queueing delay work stealing exists to shrink.
    pub fn queue_wait_sum_ms(&self) -> f64 {
        self.queue_wait_sum_ms
    }

    /// The machine's billing shard.
    pub fn shard(&self) -> &BillingShard {
        &self.shard
    }

    /// The underlying harness, for inspection.
    pub fn harness(&self) -> &CoRunHarness {
        &self.harness
    }
}

#[cfg(test)]
mod tests {
    use litmus_core::{DiscountModel, TableBuilder};
    use litmus_workloads::suite;

    use super::*;
    use crate::error::ClusterError;

    #[test]
    fn launching_an_unwarmed_function_fails_and_leaves_it_queued() {
        let spec = MachineSpec::cascade_lake();
        let tables = TableBuilder::new(spec.clone())
            .levels([6, 14, 24])
            .reference_scale(0.03)
            .build()
            .unwrap();
        let model = DiscountModel::fit(&tables).unwrap();
        let probe_language = tables.baselines()[0].language;
        let ctx = ServingContext::new(tables, model, 0.05);
        let config = MachineConfig::new(2);
        let mut machine =
            Machine::boot(MachineId(0), 0, spec, &config, probe_language, &ctx).unwrap();
        let function = suite::by_name("auth-py").unwrap();
        assert!(!ctx.is_warmed(&function));
        machine.dispatch(0, function, TenantId(0), None);

        let failed = machine.step_to(5_000, &ctx);
        assert!(
            matches!(failed, Err(ClusterError::UnknownFunction("auth-py"))),
            "{failed:?}"
        );
        assert_eq!(machine.outstanding(), 1, "the arrival must stay queued");
        assert_eq!(machine.launched(), 0);
    }
}
