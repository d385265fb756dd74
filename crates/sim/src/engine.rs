use std::fmt;

use crate::contention::{CongestionSnapshot, ContentionInputs, ContentionModel};
use crate::error::SimError;
use crate::frequency::FrequencyGovernor;
use crate::pmu::{PmuCounters, PmuSample};
use crate::profile::{ExecPhase, ExecutionProfile};
use crate::report::{ExecutionReport, StartupReport};
use crate::spec::MachineSpec;
use crate::Result;

/// Cap on the rounds of each sharing domain's per-quantum congestion
/// fixed point. Demand and latency feed back into each other; eight
/// damped rounds are enough for well under 0.1% residual at the loads
/// the experiments use. A domain's rounds stop before the cap once a
/// round reproduces its input demand bit for bit: that demand is the
/// domain's whole state, so every remaining round would recompute the
/// same bits. Around the solve, [`Simulator::step`] rebuilds the
/// occupancy it reads and re-runs it at all only when its one
/// invalidation signal fired (active set or a phase changed) or the plan
/// or snapshots moved, and a lone domain's solve is looked up before it
/// runs; see there.
const FIXED_POINT_ITERS: usize = 8;

/// Sets in the lone-domain memo (rule 8 of [`Simulator::step`]) at full
/// size, each of `LONE_MEMO_WAYS` entries: 256 in all. The memo starts
/// at `LONE_MEMO_FIRST_SETS` sets and grows to full size the first time
/// a store finds its set full, so a short-lived simulator that stores a
/// few solves allocates a few sets. Powers of two, so that the top bits
/// of a key's hash pick its set.
const LONE_MEMO_SETS: usize = 64;
const LONE_MEMO_FIRST_SETS: usize = 4;
const LONE_MEMO_WAYS: usize = 4;

/// Safety horizon for [`Simulator::run_to_completion`], in quanta (ms).
const HORIZON_MS: u64 = 30_000_000;

/// Opaque handle to a launched workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(usize);

impl InstanceId {
    /// The raw index (stable for the lifetime of the simulator).
    pub fn as_usize(&self) -> usize {
        self.0
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance#{}", self.0)
    }
}

/// Where a workload instance may execute.
///
/// * [`Placement::pinned`] — the §7.1 protocol: one function bound to one
///   core, no temporal sharing with other pinned functions unless they
///   share the core.
/// * [`Placement::pool`] — the §7.2 protocol: the function may run on any
///   core of the pool and time-shares them with everything else in the
///   pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    allowed: Vec<usize>,
}

impl Placement {
    /// Pins the instance to a single core.
    pub fn pinned(core: usize) -> Self {
        Placement {
            allowed: vec![core],
        }
    }

    /// Allows the instance on every core in `cores` (deduplicated,
    /// order-insensitive).
    pub fn pool(cores: impl IntoIterator<Item = usize>) -> Self {
        let mut allowed: Vec<usize> = cores.into_iter().collect();
        allowed.sort_unstable();
        allowed.dedup();
        Placement { allowed }
    }

    /// Allows the instance on cores `start..end`.
    pub fn pool_range(start: usize, end: usize) -> Self {
        Placement::pool(start..end)
    }

    /// The sorted list of allowed cores.
    pub fn allowed_cores(&self) -> &[usize] {
        &self.allowed
    }

    fn validate(&self, spec: &MachineSpec) -> Result<()> {
        if self.allowed.is_empty() {
            return Err(SimError::EmptyPlacement);
        }
        for &core in &self.allowed {
            if core >= spec.cores {
                return Err(SimError::UnknownCore {
                    core,
                    cores: spec.cores,
                });
            }
        }
        Ok(())
    }
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Launched and still executing (or waiting for a core).
    Active,
    /// Finished; an [`ExecutionReport`] is available.
    Completed,
}

/// Notification produced by [`Simulator::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// An instance ran to completion during the step.
    Completed {
        /// The finished instance.
        id: InstanceId,
        /// Completion time in (fractional) ms.
        at_ms: f64,
    },
}

#[derive(Debug)]
struct Context {
    profile: ExecutionProfile,
    allowed: Vec<usize>,
    phase_idx: usize,
    instr_into_phase: f64,
    counters: PmuCounters,
    launched_ms: u64,
    completed_ms: Option<f64>,
    /// End time of the last quantum the context ran in (its launch time
    /// before the first). Equal to the clock exactly when the context
    /// ran in the previous quantum.
    last_run_ms: u64,
    has_run: bool,
    startup_pending: bool,
    startup_quanta: u64,
    startup_l3_rate_sum: f64,
    startup_report: Option<StartupReport>,
    sampling: bool,
    samples: Vec<PmuSample>,
}

impl Context {
    fn is_active(&self) -> bool {
        self.completed_ms.is_none()
    }
}

/// What changed since the previous quantum: the one invalidation signal
/// behind every reuse in [`Simulator::step`]. Ordered by scope, so a
/// changed active set also rebuilds what a phase change does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
enum Change {
    /// Nothing that the occupancy caches or the last solve read.
    Unchanged,
    /// An active context moved to its next phase: the live footprint
    /// is stale.
    Phase,
    /// A launch, or completions pruned from the active list: per-core
    /// load and switch overheads are stale as well. A fresh simulator
    /// starts here, with nothing built.
    #[default]
    ActiveSet,
}

/// Per-quantum execution plan for one scheduled context.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ctx: usize,
    core: usize,
    /// Sharing domain of `core`.
    domain: usize,
    smt_busy: bool,
    /// [`MachineSpec::switch_factor`] at the core's co-residency.
    switch_factor: f64,
    /// [`MachineSpec::switch_mpki`] at the core's co-residency.
    switch_mpki: f64,
}

/// A scheduled slot's factors for one phase of its context: fixed
/// through the rounds of a congestion solve and through the part of a
/// quantum that `Simulator::advance` spends in that phase. The solve
/// builds them once and `advance` starts from them, rebuilding them here
/// only after a phase change, so both charge the same bits.
#[derive(Debug, Clone, Copy)]
struct SlotTerms {
    domain: usize,
    /// `cpi_private·switch_factor·smt`: private CPI before coupling.
    private_base: f64,
    /// `l2_mpki + switch_mpki`.
    mpki: f64,
    /// `(mpki/1000)·blocking`: stall cycles per instruction per cycle
    /// of post-L2 latency.
    stall_base: f64,
    /// The phase's solo L3 miss ratio.
    l3_miss_ratio: f64,
    /// [`ContentionModel::effective_miss_ratio`] at the domain's capacity
    /// pressure: the steady miss ratio, which every snapshot the solve
    /// evaluates carries.
    miss: f64,
}

impl SlotTerms {
    fn new(
        spec: &MachineSpec,
        model: &ContentionModel,
        slot: &Slot,
        phase: &ExecPhase,
        pressure: f64,
    ) -> Self {
        let smt = if slot.smt_busy {
            spec.smt_private_factor
        } else {
            1.0
        };
        let mpki = phase.l2_mpki + slot.switch_mpki;
        SlotTerms {
            domain: slot.domain,
            private_base: phase.cpi_private * slot.switch_factor * smt,
            mpki,
            stall_base: (mpki / 1000.0) * phase.blocking,
            l3_miss_ratio: phase.l3_miss_ratio,
            miss: model.effective_miss_ratio(phase.l3_miss_ratio, pressure),
        }
    }

    /// The L2 misses per quantum the slot issues under `snapshot`, with
    /// coupling factor `couple` and effective miss ratio `miss`: the
    /// instruction rate at the CPI that `advance` charges, times `mpki`.
    fn l2_rate(
        &self,
        model: &ContentionModel,
        snapshot: &CongestionSnapshot,
        couple: f64,
        miss: f64,
        cycles_q: f64,
    ) -> f64 {
        let private = self.private_base * couple;
        let stall = self.stall_base * model.post_l2_latency(snapshot, miss);
        let instr_rate = cycles_q / (private + stall);
        instr_rate * self.mpki / 1000.0
    }
}

/// Factor by which congestion inflates private CPI. Congestion leaks
/// into private time through frequency-domain effects, TLB pressure and
/// prefetcher interference: mostly tracking capacity pressure, plus the
/// two utilisations.
fn coupling(spec: &MachineSpec, snapshot: &CongestionSnapshot) -> f64 {
    let couple_metric = (snapshot.capacity_pressure
        + snapshot.l3_port_utilization
        + snapshot.bandwidth_utilization.min(1.2))
    .min(2.0);
    1.0 + spec.private_coupling * couple_metric
}

/// One pass of `Simulator::advance`'s loop through a slot's phase: the
/// instructions the slot executes in `cycles` at the CPI of `terms`
/// under `snapshot` — at most the phase's `remaining` ones — and what
/// they cost. Stepping and the bulk advance (rule 9) both charge through
/// it, so they charge the same bits.
#[derive(Debug, Clone, Copy)]
struct Pass {
    instructions: f64,
    cycles: f64,
    stall_cycles: f64,
    l2_misses: f64,
    l3_misses: f64,
    /// The cycles the pass leaves for the next one.
    cycles_left: f64,
}

impl Pass {
    fn new(
        model: &ContentionModel,
        snapshot: &CongestionSnapshot,
        terms: &SlotTerms,
        couple: f64,
        cycles: f64,
        remaining: f64,
    ) -> Self {
        let private = terms.private_base * couple;
        let stall = terms.stall_base * model.post_l2_latency(snapshot, terms.miss);
        let cpi = private + stall;
        let executed = (cycles / cpi).min(remaining);
        let used_cycles = executed * cpi;
        let l2_misses = executed * terms.mpki / 1000.0;
        Pass {
            instructions: executed,
            cycles: used_cycles,
            stall_cycles: executed * stall,
            l2_misses,
            l3_misses: l2_misses * terms.miss,
            cycles_left: cycles - used_cycles,
        }
    }

    /// Whether the pass ends a phase that had `remaining` instructions
    /// left.
    fn ends_phase(&self, remaining: f64) -> bool {
        self.instructions >= remaining - 1e-6
    }

    /// Adds the pass to a context's counters.
    fn charge(&self, counters: &mut PmuCounters) {
        counters.instructions += self.instructions;
        counters.cycles += self.cycles;
        counters.stall_l2_cycles += self.stall_cycles;
        counters.l2_misses += self.l2_misses;
        counters.l3_misses += self.l3_misses;
    }
}

/// Whether `cycles` of a quantum are enough for another pass of
/// `Simulator::advance`'s loop.
fn cycles_remain(cycles: f64) -> bool {
    cycles > 1e-9
}

/// The bits of everything a lone domain's solve reads besides the
/// machine spec: the quantum's cycles, the domain's capacity pressure,
/// the five fields of the starting snapshot that round 0 reads, and the
/// slot's four terms. The slot's steady `miss` is a function of its
/// `l3_miss_ratio` and the pressure, and one context is running.
type LoneKey = [u64; 11];

fn lone_key(cycles_q: f64, pressure: f64, start: &CongestionSnapshot, term: &SlotTerms) -> LoneKey {
    [
        cycles_q,
        pressure,
        start.l3_port_utilization,
        start.bandwidth_utilization,
        start.capacity_pressure,
        start.l3_latency,
        start.mem_latency,
        term.private_base,
        term.mpki,
        term.stall_base,
        term.l3_miss_ratio,
    ]
    .map(f64::to_bits)
}

/// One set of the lone-domain memo: `LONE_MEMO_WAYS` entries, the
/// oldest overwritten first.
#[derive(Debug, Default)]
struct LoneSet {
    /// Each way's key hash with its low bit set, or 0 while the way is
    /// empty: a lookup compares whole keys only where these agree.
    tags: [u64; LONE_MEMO_WAYS],
    ways: [Option<(LoneKey, CongestionSnapshot)>; LONE_MEMO_WAYS],
    /// The way the next store overwrites.
    oldest: usize,
}

impl LoneSet {
    /// Stores `entry` with tag `tag` over the oldest way.
    fn push(&mut self, tag: u64, entry: (LoneKey, CongestionSnapshot)) {
        self.tags[self.oldest] = tag;
        self.ways[self.oldest] = Some(entry);
        self.oldest = (self.oldest + 1) % LONE_MEMO_WAYS;
    }

    /// Whether every way holds an entry.
    fn is_full(&self) -> bool {
        self.tags.iter().all(|&tag| tag != 0)
    }
}

/// Solved snapshots of lone domains (rule 8 of [`Simulator::step`]).
/// Set-associative: the top bits of a key's hash pick one set, and a
/// store overwrites that set's oldest entry. Below full size no store
/// overwrites: a store whose set is full grows the memo first.
#[derive(Debug, Default)]
struct LoneMemo {
    /// `LONE_MEMO_FIRST_SETS` sets, then `LONE_MEMO_SETS`; empty until
    /// the first store.
    sets: Vec<LoneSet>,
    /// Lookups that found their key.
    #[cfg(test)]
    hits: u64,
}

impl LoneMemo {
    /// A multiply-rotate hash over the key's words.
    fn hash(key: &LoneKey) -> u64 {
        key.iter().fold(0, |hash: u64, &word| {
            (hash.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95)
        })
    }

    /// The set a key with hash `hash` maps to among `sets` sets (a
    /// power of two, at least 2): the hash's top bits.
    fn set(hash: u64, sets: usize) -> usize {
        (hash >> (u64::BITS - sets.trailing_zeros())) as usize
    }

    /// The snapshot stored for `key`, whose hash is `hash`, if any.
    fn get(&mut self, hash: u64, key: &LoneKey) -> Option<CongestionSnapshot> {
        if self.sets.is_empty() {
            return None;
        }
        let set = &self.sets[Self::set(hash, self.sets.len())];
        let snapshot = (0..LONE_MEMO_WAYS)
            .filter(|&way| set.tags[way] == hash | 1)
            .find_map(|way| match &set.ways[way] {
                Some((stored, snapshot)) if stored == key => Some(*snapshot),
                _ => None,
            });
        #[cfg(test)]
        {
            self.hits += u64::from(snapshot.is_some());
        }
        snapshot
    }

    /// Stores `snapshot` for `key`, whose hash is `hash`.
    fn put(&mut self, hash: u64, key: LoneKey, snapshot: CongestionSnapshot) {
        if self.sets.is_empty() {
            self.sets
                .resize_with(LONE_MEMO_FIRST_SETS, LoneSet::default);
        }
        let sets = self.sets.len();
        if sets < LONE_MEMO_SETS && self.sets[Self::set(hash, sets)].is_full() {
            self.grow();
        }
        let set = Self::set(hash, self.sets.len());
        self.sets[set].push(hash | 1, (key, snapshot));
    }

    /// Grows to full size, splitting each set by the next bits of its
    /// keys' hashes. Below full size nothing was overwritten, so each
    /// set's ways hold its keys in store order, and the split keeps that
    /// order: every key lands in the way, and every set at the oldest
    /// way, that a full-size memo would have from the start. So the memo
    /// holds, and finds, exactly what a full-size one would.
    fn grow(&mut self) {
        let mut grown = Vec::with_capacity(LONE_MEMO_SETS);
        grown.resize_with(LONE_MEMO_SETS, LoneSet::default);
        for set in self.sets.drain(..) {
            for (tag, entry) in set.tags.into_iter().zip(set.ways) {
                if let Some(entry) = entry {
                    grown[Self::set(tag, LONE_MEMO_SETS)].push(tag, entry);
                }
            }
        }
        self.sets = grown;
    }
}

/// Per-quantum working buffers and the intermediates reused across
/// quanta, kept on the simulator so that a quantum refills them in place
/// instead of allocating; each grows only until it has held the largest
/// set seen, and the lone-domain memo once, to full size, when a store
/// finds its small first table's set full.
#[derive(Debug, Default)]
struct Scratch {
    /// Free hardware threads per core.
    free: Vec<usize>,
    /// Fractional demand per core: each active context spreads one unit
    /// across its allowed cores. Rebuilt when the active set changes.
    load: Vec<f64>,
    /// [`MachineSpec::switch_factor`] and [`MachineSpec::switch_mpki`]
    /// per core at its `load`, the Fig. 14 switch overheads. Rebuilt
    /// with `load`, once per run of bit-equal loads.
    switch_factor: Vec<f64>,
    switch_mpki: Vec<f64>,
    /// Hardware threads on the cores some active context may use:
    /// `smt_ways` × the cores with non-zero `load`. Rebuilt with `load`.
    /// A plan that fills this many leaves every queued context's cores
    /// full.
    reachable: usize,
    /// The quantum's plan, ascending by context.
    slots: Vec<Slot>,
    /// The previous quantum's plan.
    prev_slots: Vec<Slot>,
    /// Live cache footprint per domain, and the
    /// [`ContentionModel::capacity_pressure`] it implies. Rebuilt when
    /// the active set or a phase changes.
    footprint: Vec<f64>,
    pressure: Vec<f64>,
    /// The last solve's per-slot factors, in plan order: `advance`
    /// starts each slot from its entry. A reused solve's plan is the
    /// last solve's, so they still hold.
    terms: Vec<SlotTerms>,
    /// Snapshots being solved; swapped into `last_snapshots` afterwards.
    snapshots: Vec<CongestionSnapshot>,
    /// Whether the last solve returned its starting snapshots bit for
    /// bit, so that the same inputs would return them again.
    settled: bool,
    /// The snapshots lone domains solved to, keyed by everything their
    /// solve read (rule 8).
    lone: LoneMemo,
    /// What each slot of a stable plan adds per quantum, in plan order
    /// (rule 9).
    stable_slots: Vec<StableSlot>,
}

/// What one slot of a stable plan adds per quantum: the one [`Pass`]
/// of `advance` that spends the slot's whole quantum in its phase,
/// computed once by [`Simulator::advance_stable`].
#[derive(Debug, Clone, Copy)]
struct StableSlot {
    ctx: usize,
    pass: Pass,
    /// The length of the slot's phase, instructions.
    phase_instructions: f64,
    /// The domain snapshot's L3 miss rate, which a pending startup
    /// window sums.
    l3_miss_rate: f64,
}

/// The quantum-stepped machine simulator.
///
/// See the [crate-level documentation](crate) for the performance model.
/// Typical use: [`Simulator::launch`] workloads, [`Simulator::step`] (or
/// the `run_*` helpers) until the instances of interest complete, then
/// read [`Simulator::report`].
#[derive(Debug)]
pub struct Simulator {
    spec: MachineSpec,
    model: ContentionModel,
    governor: FrequencyGovernor,
    now_ms: u64,
    /// Every context ever launched; completed ones stay for
    /// [`Simulator::report`] but are never visited by a step. Boxed, so
    /// that the list itself grows by pointers: a serving machine
    /// launches thousands of contexts, and a `Vec<Context>` would double
    /// into one block of a megabyte, whose place in the heap, and so the
    /// process's peak memory, depends on what the worker threads
    /// allocated around it.
    #[allow(clippy::vec_box)]
    contexts: Vec<Box<Context>>,
    /// Indices of the active contexts, ascending.
    active: Vec<usize>,
    /// The active contexts in scheduling order: ascending by
    /// `(last_run_ms, index)`, least recently run first. A launch
    /// appends (its key is the largest); after a quantum the contexts
    /// that ran move to the back in index order and completed ones
    /// leave, so the order is kept without sorting.
    runqueue: Vec<usize>,
    /// [`MachineSpec::domain_of`] per core.
    core_domain: Vec<usize>,
    machine_l3_misses: f64,
    /// One congestion snapshot per sharing domain (socket).
    last_snapshots: Vec<CongestionSnapshot>,
    /// Whether the most recent quantum scheduled nothing — i.e. the
    /// simulator state is at its idle fixed point and a further empty
    /// quantum could only advance the clock (see
    /// [`Simulator::skip_idle_to`]).
    idle_settled: bool,
    /// What changed since the previous quantum (see [`Change`]).
    changed: Change,
    /// Whether the most recent quantum reused its solve and changed
    /// nothing, so that its plan holds until a phase ends (rule 9), and
    /// no bulk advance since found the next quantum ending a phase or
    /// the plan unfit to advance in bulk.
    stable: bool,
    /// Quanta that ran the congestion fixed point.
    solves: u64,
    /// Quanta [`Simulator::advance_stable`] advanced.
    bulk_quanta: u64,
    scratch: Scratch,
    /// Take the straightforward form of each rule of [`Simulator::step`]
    /// that has a faster one: the joint fixed point over every domain
    /// with each slot's miss ratio re-derived every round, the whole run
    /// queue walked, and `advance` building its own terms for every
    /// phase. The exactness proptest steps against it.
    #[cfg(test)]
    reference: bool,
}

impl Simulator {
    /// Creates a simulator with the paper's pinned-frequency governor.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`MachineSpec::validate`] — constructing a
    /// machine from an invalid spec is a programming error.
    pub fn new(spec: MachineSpec) -> Self {
        Simulator::with_governor(spec.clone(), FrequencyGovernor::fixed(spec.frequency_ghz))
    }

    /// Creates a simulator with an explicit frequency governor (the §8
    /// "CPU Frequency" study passes a turbo governor here).
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`MachineSpec::validate`].
    pub fn with_governor(spec: MachineSpec, governor: FrequencyGovernor) -> Self {
        spec.validate().expect("machine spec must be valid"); // lint:allow(panic-in-lib): constructor contract; `# Panics` documented on this fn
        let last_snapshots = vec![CongestionSnapshot::idle(&spec); spec.sockets];
        let core_domain = (0..spec.cores).map(|core| spec.domain_of(core)).collect();
        Simulator {
            model: ContentionModel::new(spec.clone()),
            spec,
            governor,
            now_ms: 0,
            contexts: Vec::new(),
            active: Vec::new(),
            runqueue: Vec::new(),
            core_domain,
            machine_l3_misses: 0.0,
            last_snapshots,
            idle_settled: false,
            changed: Change::default(),
            stable: false,
            solves: 0,
            bulk_quanta: 0,
            scratch: Scratch::default(),
            #[cfg(test)]
            reference: false,
        }
    }

    /// The machine specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Current simulation time in ms.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Congestion state observed during the most recent quantum. On a
    /// multi-socket machine this is the *most congested* domain — the
    /// conservative reading an admission controller wants.
    pub fn congestion(&self) -> &CongestionSnapshot {
        self.last_snapshots
            .iter()
            .max_by(|a, b| a.level().total_cmp(&b.level()))
            .expect("at least one domain") // lint:allow(panic-in-lib): spec.validate() above requires sockets >= 1
    }

    /// Congestion state of one sharing domain (socket), if it exists.
    pub fn domain_congestion(&self, domain: usize) -> Option<&CongestionSnapshot> {
        self.last_snapshots.get(domain)
    }

    /// Machine-wide cumulative L3 misses.
    pub fn machine_l3_misses(&self) -> f64 {
        self.machine_l3_misses
    }

    /// Number of instances still active.
    pub fn active_instances(&self) -> usize {
        self.active.len()
    }

    /// Quanta in which some domain ran the congestion fixed point. The
    /// rest reused the previous quantum's snapshots or found every
    /// domain's solve in the lone-domain memo (rules 3 and 8 of
    /// [`Simulator::step`]; a memo hit is not a solve), so this counts the
    /// work neither could avoid. Deterministic: the same launches and
    /// steps give the same count on every host.
    pub fn congestion_solves(&self) -> u64 {
        self.solves
    }

    /// Quanta that [`Simulator::advance_stable`] advanced in bulk rather
    /// than [`Simulator::step`] one at a time (rule 9 of `step`). A
    /// sim-clock count, like [`Simulator::congestion_solves`]; bulk
    /// quanta never solve.
    pub fn bulk_quanta(&self) -> u64 {
        self.bulk_quanta
    }

    /// Launches a workload without per-quantum sampling.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyPlacement`] or [`SimError::UnknownCore`]
    /// for invalid placements.
    pub fn launch(
        &mut self,
        profile: ExecutionProfile,
        placement: Placement,
    ) -> Result<InstanceId> {
        self.launch_inner(profile, placement, false)
    }

    /// Launches a workload recording a [`PmuSample`] every quantum
    /// (needed for Fig. 6-style IPC timelines).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::launch`].
    pub fn launch_sampled(
        &mut self,
        profile: ExecutionProfile,
        placement: Placement,
    ) -> Result<InstanceId> {
        self.launch_inner(profile, placement, true)
    }

    fn launch_inner(
        &mut self,
        profile: ExecutionProfile,
        placement: Placement,
        sampling: bool,
    ) -> Result<InstanceId> {
        placement.validate(&self.spec)?;
        let id = InstanceId(self.contexts.len());
        let startup_pending = profile.has_startup();
        self.contexts.push(Box::new(Context {
            profile,
            allowed: placement.allowed,
            phase_idx: 0,
            instr_into_phase: 0.0,
            counters: PmuCounters::default(),
            launched_ms: self.now_ms,
            completed_ms: None,
            last_run_ms: self.now_ms,
            has_run: false,
            startup_pending,
            startup_quanta: 0,
            startup_l3_rate_sum: 0.0,
            startup_report: None,
            sampling,
            samples: Vec::new(),
        }));
        self.active.push(id.0);
        self.runqueue.push(id.0);
        self.changed = Change::ActiveSet;
        Ok(id)
    }

    /// Lifecycle state of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownInstance`] for an id this simulator
    /// never issued.
    pub fn state(&self, id: InstanceId) -> Result<InstanceState> {
        let ctx = self
            .contexts
            .get(id.0)
            .ok_or(SimError::UnknownInstance(id))?;
        Ok(if ctx.is_active() {
            InstanceState::Active
        } else {
            InstanceState::Completed
        })
    }

    /// Execution report for a completed instance.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownInstance`] for an unknown id.
    /// * [`SimError::StillRunning`] if the instance has not finished.
    pub fn report(&self, id: InstanceId) -> Result<ExecutionReport> {
        let ctx = self
            .contexts
            .get(id.0)
            .ok_or(SimError::UnknownInstance(id))?;
        let completed_ms = ctx.completed_ms.ok_or(SimError::StillRunning(id))?;
        Ok(ExecutionReport {
            name: ctx.profile.name().to_owned(),
            launched_ms: ctx.launched_ms,
            completed_ms,
            counters: ctx.counters,
            startup: ctx.startup_report.clone(),
            samples: ctx.samples.clone(),
        })
    }

    /// Advances one quantum; returns completion events in instance order.
    ///
    /// # Cost
    ///
    /// O(active contexts): completed contexts stay addressable through
    /// [`Simulator::report`] and [`Simulator::state`], but a step never
    /// visits them, so a long-lived simulator steps as fast as a fresh
    /// one with the same active set. A step makes no heap allocation
    /// once its reusable buffers have grown to the largest active set
    /// seen and its first lone-domain solve has allocated the memo of
    /// rule 8; only a non-empty returned event list and the samples of
    /// [`Simulator::launch_sampled`] contexts allocate.
    ///
    /// Within that, a step recomputes each intermediate only when one of
    /// its inputs changed and otherwise reuses it bit for bit, so the
    /// output is exactly that of recomputing everything. One
    /// invalidation signal drives the first three rules: it fires when
    /// the active set changes (a launch, or completions pruned at the
    /// end of a step) or when a step moves an active context to its next
    /// phase.
    ///
    /// 1. Per-core load and switch overheads are rebuilt only when the
    ///    active set changed, the overheads once per run of bit-equal
    ///    loads; the per-domain live footprint and its capacity pressure
    ///    only when the active set or a phase changed.
    /// 2. Each sharing domain runs its own damped fixed point, which
    ///    stops as soon as a round after the first reproduces the
    ///    domain's input demand bit for bit (`FIXED_POINT_ITERS` is the
    ///    cap). Domains are independent: a slot reads only its own
    ///    domain's snapshot and a domain's demand sums only its own
    ///    slots, so once a domain's demand repeats, every later round of
    ///    a joint loop over all domains would re-evaluate the same bits
    ///    for it.
    /// 3. The solve is skipped, keeping the previous snapshots, when
    ///    this quantum's plan equals the previous one slot for slot (as
    ///    bits), nothing was invalidated since the previous quantum, and
    ///    the last solve returned its starting snapshots bit for bit:
    ///    the same inputs would return them again.
    /// 4. Scheduling walks a kept run queue in O(active), with no sort:
    ///    the active contexts, least recently run first. A launch
    ///    appends to it; after a quantum the contexts that ran move to
    ///    the back in index order and completed ones leave, which is the
    ///    order sorting by run stamp would give.
    /// 5. Each slot's effective miss ratio is computed once per solve,
    ///    not once per round: round 0 reads the starting snapshot's
    ///    capacity pressure, and every later round reads a snapshot that
    ///    `evaluate_at` built at the domain's current pressure.
    /// 6. `advance` charges each slot's first phase with the solve's
    ///    terms and steady miss ratio and rebuilds them only after a
    ///    phase change within the quantum. Under rule 3 the stored terms
    ///    still hold: reuse requires the same plan with nothing
    ///    invalidated.
    /// 7. Scheduling stops once the plan fills every reachable hardware
    ///    thread (`smt_ways` × the cores some active context may use):
    ///    every context still queued would find its cores full.
    /// 8. A lone domain, one whose part of the plan is a single context,
    ///    looks its solve up in a memo keyed by the bits of everything
    ///    that solve reads: the quantum's cycles, the domain's capacity
    ///    pressure, the starting snapshot's two utilisations, capacity
    ///    pressure and two latencies, and the slot's private base, MPKI,
    ///    stall factor and solo L3 miss ratio (its steady miss ratio is a
    ///    function of that ratio and the pressure, and one context runs).
    ///    The solve is a function of those bits and the simulator's
    ///    fixed spec, so a hit returns the snapshot the fixed point would;
    ///    a miss solves and stores. The memo is the simulator's own, holds
    ///    256 entries in sets of four, overwrites a set's oldest entry,
    ///    and allocates at its first store. Domains running two or more
    ///    contexts are not looked up: time-shared plans rotate, and their
    ///    solves rarely repeat.
    /// 9. A quantum that reused the solve (rule 3) and changed nothing
    ///    (no phase ended, nothing completed) leaves a stable plan:
    ///    every active context ran, so the run queue, the plan and the
    ///    snapshots stay as they are, and every later quantum reuses the
    ///    solve and charges each slot the same amounts, until a launch or
    ///    a phase end. [`Simulator::advance_stable`] then advances many
    ///    such quanta in one call.
    ///
    /// [`Simulator::congestion_solves`] counts the quanta that solved.
    pub fn step(&mut self) -> Vec<Event> {
        let changed = std::mem::replace(&mut self.changed, Change::Unchanged);
        self.refresh_occupancy(changed);
        self.schedule();
        let freq = self
            .governor
            .frequency_ghz(self.scratch.slots.len(), self.spec.hardware_threads());
        let cycles_q = self.spec.cycles_per_quantum(freq);

        let scratch = &self.scratch;
        let reuse = changed == Change::Unchanged
            && scratch.settled
            && same_plan(&scratch.slots, &scratch.prev_slots);
        // Final once the quantum is known to have changed nothing.
        self.stable = reuse;
        if !reuse {
            let solved = self.solve_congestion(cycles_q);
            let scratch = &mut self.scratch;
            scratch.settled = scratch
                .snapshots
                .iter()
                .zip(&self.last_snapshots)
                .all(|(solved, start)| same_snapshot(solved, start));
            std::mem::swap(&mut self.last_snapshots, &mut scratch.snapshots);
            self.solves += u64::from(solved);
        }

        let mut events = Vec::new();
        let mut machine_l3_this_quantum = 0.0;
        // By index, copying each slot and its terms: `advance` borrows
        // the simulator.
        for i in 0..self.scratch.slots.len() {
            let slot = self.scratch.slots[i];
            let terms = self.scratch.terms[i];
            let snapshot = self.last_snapshots[slot.domain];
            if let Some(event) = self.advance(
                &slot,
                terms,
                cycles_q,
                &snapshot,
                &mut machine_l3_this_quantum,
            ) {
                events.push(event);
            }
        }
        self.machine_l3_misses += machine_l3_this_quantum;

        // Bookkeeping for round-robin fairness and switch counting. The
        // run stamp is the quantum's *end* time, later than every other
        // stamp, so the contexts that ran move to the back of the run
        // queue, in index order as the plan is; and next quantum a
        // stamp equal to the clock means "ran last quantum".
        self.now_ms += 1;
        let now_ms = self.now_ms;
        for slot in &self.scratch.slots {
            let ctx = &mut self.contexts[slot.ctx];
            ctx.last_run_ms = now_ms;
            ctx.has_run = true;
        }
        let contexts = &self.contexts;
        self.runqueue
            .retain(|&idx| contexts[idx].last_run_ms != now_ms);
        self.runqueue.extend(
            self.scratch
                .slots
                .iter()
                .map(|slot| slot.ctx)
                .filter(|&idx| contexts[idx].is_active()),
        );
        if !events.is_empty() {
            self.active.retain(|&idx| contexts[idx].is_active());
            self.changed = Change::ActiveSet;
        }
        self.stable &= self.changed == Change::Unchanged;
        let scratch = &mut self.scratch;
        self.idle_settled = scratch.slots.is_empty();
        std::mem::swap(&mut scratch.slots, &mut scratch.prev_slots);
        events
    }

    /// Advances up to `until_ms` while the plan is stable (rule 9 of
    /// [`Simulator::step`]), in one call, exactly as stepping quantum by
    /// quantum would, and returns how many quanta it advanced.
    ///
    /// It computes once what the stable plan holds constant: per slot,
    /// the CPI and the instructions, cycles, stall cycles and L2 and L3
    /// misses it charges, and the quantum's machine L3 sum, added in slot
    /// order. Each quantum then makes only the additions a step makes,
    /// in the same order: the counters, the progress into the phase, a
    /// pending startup window's sums and the machine's L3 misses. The run
    /// stamps are set once, at the end; the plan and the run queue do not
    /// change. It stops before the first quantum in which some slot's
    /// phase would end, so it never completes anything and returns no
    /// events.
    ///
    /// It advances nothing and returns 0 when the last quantum did not
    /// leave a stable plan or something launched since, when a slot's
    /// quantum would not fit in one pass of its phase's arithmetic (the
    /// cycles left after charging the CPI exceed `1e-9`), and when a
    /// context in the plan is sampled, whose samples only `step` records.
    /// A call that stops short of `until_ms` for one of these reasons, or
    /// before a phase end, leaves the rest to [`Simulator::step`]: later
    /// calls return 0 until a step leaves a stable plan again. One that
    /// reaches `until_ms` leaves the plan stable, so a later call with a
    /// later horizon goes on from there.
    ///
    /// # Cost
    ///
    /// O(slots) to set up, then O(slots) additions per quantum advanced,
    /// with no heap allocation once its buffer has grown to the largest
    /// plan seen. The checks run inline, so a caller that asks after
    /// every step pays little for the quanta that are not stable.
    #[inline]
    pub fn advance_stable(&mut self, until_ms: u64) -> u64 {
        let most = until_ms.saturating_sub(self.now_ms);
        if most == 0 || !self.stable || self.changed != Change::Unchanged {
            return 0;
        }
        let quanta = self.advance_stable_plan(most);
        // Short of the horizon, the next quantum ends a phase, or the
        // plan cannot be advanced in bulk at all: only a step moves on.
        self.stable = quanta == most;
        quanta
    }

    /// The bulk advance of a stable plan by up to `most` quanta (see
    /// [`Simulator::advance_stable`]).
    fn advance_stable_plan(&mut self, most: u64) -> u64 {
        #[cfg(test)]
        if self.reference {
            return 0;
        }
        let Simulator {
            spec,
            model,
            governor,
            contexts,
            last_snapshots,
            scratch,
            ..
        } = self;
        // The stable quantum's plan, and the terms of the solve it reused.
        let plan = &scratch.prev_slots;
        if plan.iter().any(|slot| contexts[slot.ctx].sampling) {
            return 0;
        }
        let freq = governor.frequency_ghz(plan.len(), spec.hardware_threads());
        let cycles_q = spec.cycles_per_quantum(freq);
        let stable = &mut scratch.stable_slots;
        stable.clear();
        let mut machine_l3 = 0.0;
        for (slot, terms) in plan.iter().zip(&scratch.terms) {
            // `advance`'s first pass through the phase in the next
            // quantum, as it computes it.
            let ctx = &contexts[slot.ctx];
            let snapshot = &last_snapshots[slot.domain];
            let phase_instructions = ctx.profile.phases()[ctx.phase_idx].instructions;
            let pass = Pass::new(
                model,
                snapshot,
                terms,
                coupling(spec, snapshot),
                cycles_q,
                phase_instructions - ctx.instr_into_phase,
            );
            if cycles_remain(pass.cycles_left) {
                return 0;
            }
            // `advance` sums the slot's quantum from 0 before adding it
            // to the machine's.
            let quantum_l3 = 0.0 + pass.l3_misses;
            machine_l3 += quantum_l3;
            stable.push(StableSlot {
                ctx: slot.ctx,
                pass,
                phase_instructions,
                l3_miss_rate: snapshot.l3_miss_rate,
            });
        }
        // The quanta before the first in which some slot's pass would
        // end its phase. A pass that does not end it was not cut short
        // by the phase's remaining instructions, so it charges the same
        // in each of those quanta.
        let mut quanta = most;
        for slot in stable.iter() {
            let mut into_phase = contexts[slot.ctx].instr_into_phase;
            let mut fit = 0;
            while fit < quanta && !slot.pass.ends_phase(slot.phase_instructions - into_phase) {
                into_phase += slot.pass.instructions;
                fit += 1;
            }
            quanta = fit;
        }
        if quanta == 0 {
            return 0;
        }
        for slot in stable.iter() {
            let ctx = &mut contexts[slot.ctx];
            for _ in 0..quanta {
                slot.pass.charge(&mut ctx.counters);
                ctx.instr_into_phase += slot.pass.instructions;
            }
            if ctx.startup_pending {
                ctx.startup_quanta += quanta;
                for _ in 0..quanta {
                    ctx.startup_l3_rate_sum += slot.l3_miss_rate;
                }
            }
        }
        for _ in 0..quanta {
            self.machine_l3_misses += machine_l3;
        }
        self.now_ms += quanta;
        for slot in plan {
            contexts[slot.ctx].last_run_ms = self.now_ms;
        }
        self.bulk_quanta += quanta;
        quanta
    }

    /// Drops every reused intermediate, so that the next step rebuilds
    /// everything. Under `reference`, which bypasses the lone-domain
    /// memo, it then solves every domain afresh.
    #[cfg(test)]
    fn invalidate_reuse(&mut self) {
        self.changed = Change::ActiveSet;
        self.scratch.settled = false;
        self.scratch.prev_slots.clear();
    }

    /// Whether the most recent quantum scheduled nothing, so the
    /// machine state has reached its idle fixed point: another empty
    /// [`Simulator::step`] would change nothing but the clock.
    pub fn is_idle_settled(&self) -> bool {
        self.idle_settled
    }

    /// Fast-forwards an idle machine to `target_ms` in O(1), exactly
    /// as if [`Simulator::step`] had been called once per quantum.
    ///
    /// An empty quantum's only effects are the clock tick, refreshing
    /// [`Simulator::congestion`] from the (empty) schedule and leaving
    /// every run stamp behind the clock (nothing ran last quantum) —
    /// all of which reach a fixed point after a single empty quantum.
    /// So the skip runs at most one real settling quantum (none if the
    /// machine is already settled) and then jumps the clock, which is
    /// bit-identical to stepping quantum by quantum. A no-op when
    /// `target_ms` is not in the future.
    ///
    /// # Errors
    ///
    /// [`SimError::SkipWhileActive`] if any instance is still active —
    /// skipping would lose execution progress and completions.
    pub fn skip_idle_to(&mut self, target_ms: u64) -> Result<()> {
        let active = self.active_instances();
        if active > 0 {
            return Err(SimError::SkipWhileActive { active });
        }
        if !self.idle_settled && self.now_ms < target_ms {
            self.step();
        }
        if self.now_ms < target_ms {
            self.now_ms = target_ms;
        }
        Ok(())
    }

    /// Steps `ms` quanta, collecting all events.
    pub fn run_for_ms(&mut self, ms: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for _ in 0..ms {
            events.extend(self.step());
        }
        events
    }

    /// Steps until `id` completes, then returns its report.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownInstance`] for an unknown id.
    /// * [`SimError::HorizonExceeded`] if the instance does not finish
    ///   within the safety horizon (deadlocked placements, runaway
    ///   profiles).
    pub fn run_to_completion(&mut self, id: InstanceId) -> Result<ExecutionReport> {
        if id.0 >= self.contexts.len() {
            return Err(SimError::UnknownInstance(id));
        }
        let deadline = self.now_ms + HORIZON_MS;
        while self.contexts[id.0].is_active() {
            if self.now_ms >= deadline {
                return Err(SimError::HorizonExceeded {
                    horizon_ms: HORIZON_MS,
                });
            }
            self.step();
        }
        self.report(id)
    }

    /// Steps until every launched instance has completed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HorizonExceeded`] on runaway workloads.
    pub fn run_until_idle(&mut self) -> Result<Vec<Event>> {
        let deadline = self.now_ms + HORIZON_MS;
        let mut events = Vec::new();
        while self.active_instances() > 0 {
            if self.now_ms >= deadline {
                return Err(SimError::HorizonExceeded {
                    horizon_ms: HORIZON_MS,
                });
            }
            events.extend(self.step());
        }
        Ok(events)
    }

    /// Rebuilds the occupancy caches that `changed` made stale: per-core
    /// load, switch overheads and reachable threads after an active-set
    /// change, and the per-domain live footprint and capacity pressure
    /// after that or a phase change.
    fn refresh_occupancy(&mut self, changed: Change) {
        let Simulator {
            spec,
            model,
            contexts,
            active,
            core_domain,
            scratch,
            ..
        } = self;
        if changed == Change::ActiveSet {
            let Scratch {
                load,
                switch_factor,
                switch_mpki,
                reachable,
                ..
            } = &mut *scratch;
            load.clear();
            load.resize(spec.cores, 0.0);
            for &idx in active.iter() {
                let ctx = &contexts[idx];
                let share = 1.0 / ctx.allowed.len() as f64;
                for &core in &ctx.allowed {
                    load[core] += share;
                }
            }
            // The overheads are a function of the load's bits, so a run
            // of equal loads (a pool's cores) computes them once.
            let smt = spec.smt_ways as f64;
            switch_factor.clear();
            switch_mpki.clear();
            for run in load.chunk_by(|a, b| a.to_bits() == b.to_bits()) {
                let co_resident = (run[0] / smt).max(1.0);
                let len = switch_factor.len() + run.len();
                switch_factor.resize(len, spec.switch_factor(co_resident));
                switch_mpki.resize(len, spec.switch_mpki(co_resident));
            }
            *reachable = spec.smt_ways * load.iter().filter(|&&core_load| core_load > 0.0).count();
        }
        if changed >= Change::Phase {
            // A context's working set lands on the domains its allowed
            // cores belong to, split proportionally. Each run of
            // same-domain cores adds its shares in a register, one core
            // at a time: the same additions in the same order as adding
            // them to the domain's total core by core.
            let Scratch {
                footprint,
                pressure,
                ..
            } = &mut *scratch;
            footprint.clear();
            footprint.resize(spec.sockets, 0.0);
            for &idx in active.iter() {
                let ctx = &contexts[idx];
                let fp = ctx.profile.phases()[ctx.phase_idx].footprint_mb;
                let share = fp / ctx.allowed.len() as f64;
                for run in ctx
                    .allowed
                    .chunk_by(|&a, &b| core_domain[a] == core_domain[b])
                {
                    let total = &mut footprint[core_domain[run[0]]];
                    *total = run.iter().fold(*total, |sum, _| sum + share);
                }
            }
            pressure.clear();
            pressure.extend(footprint.iter().map(|&fp| model.capacity_pressure(fp)));
        }
    }

    /// Round-robin, least-recently-run-first scheduling of active
    /// contexts onto hardware-thread slots, written to `scratch.slots`:
    /// walks the run queue, which is already in that order, until the
    /// plan fills every reachable thread.
    fn schedule(&mut self) {
        let reachable = self.scratch.reachable;
        #[cfg(test)]
        let reachable = if self.reference {
            usize::MAX
        } else {
            reachable
        };
        let Simulator {
            spec,
            contexts,
            runqueue,
            core_domain,
            scratch,
            ..
        } = self;
        let Scratch {
            free,
            switch_factor,
            switch_mpki,
            slots,
            ..
        } = scratch;
        let smt = spec.smt_ways;
        free.clear();
        free.resize(spec.cores, smt);

        slots.clear();
        for &idx in runqueue.iter() {
            let ctx = &contexts[idx];
            if let Some(&core) = ctx.allowed.iter().find(|&&c| free[c] > 0) {
                free[core] -= 1;
                slots.push(Slot {
                    ctx: idx,
                    core,
                    domain: core_domain[core],
                    smt_busy: false,
                    switch_factor: switch_factor[core],
                    switch_mpki: switch_mpki[core],
                });
                if slots.len() == reachable {
                    break;
                }
            }
        }
        // Post-pass: mark SMT siblings (a core's occupancy is
        // `smt - free`).
        for slot in slots.iter_mut() {
            slot.smt_busy = smt - free[slot.core] > 1;
        }
        slots.sort_unstable_by_key(|s| s.ctx);
    }

    /// Damped fixed point per sharing domain: aggregate demand →
    /// latencies → rates → demand.
    ///
    /// Traffic comes from the contexts *running* this quantum in each
    /// domain; cache footprint pressure comes from every *live* context
    /// (attributed across the domains its placement spans) — a
    /// descheduled function's working set still occupies the L3, which is
    /// what makes heavily time-shared machines (§7.2) more congested
    /// than one-function-per-core setups with the same running count.
    ///
    /// Solves from `last_snapshots` into `scratch.snapshots`, leaves the
    /// per-slot factors in `scratch.terms` for `advance`, and returns
    /// whether some domain ran the fixed point. Five rules of
    /// [`Simulator::step`] meet here:
    ///
    /// * (rule 1) the capacity pressure of the live footprint is read
    ///   from `scratch.pressure` as the occupancy cache left it, rebuilt
    ///   only on the invalidation signal (active set changed, or an
    ///   active context changed phase);
    /// * (rule 2) each domain iterates alone, its demand, snapshot and
    ///   coupling in locals, and stops after the first round past round
    ///   0 whose damped demand equals its input demand bit for bit — the
    ///   snapshot is a function of that demand, so any further round
    ///   would reproduce it exactly — with `FIXED_POINT_ITERS` as the
    ///   cap. A slot reads only its domain's snapshot and a domain's
    ///   demand sums only its slots, so this is the joint loop's result;
    /// * (rule 3) `step` does not call this at all when the plan is
    ///   unchanged, the signal has not fired and the last solve returned
    ///   its starting snapshots, since it would return them again;
    /// * (rule 5) each slot's effective miss ratio is derived per solve,
    ///   not per round: from the starting snapshot's capacity pressure
    ///   for round 0, and as the terms' steady `miss` from the domain's
    ///   pressure for every later round, whose snapshot `evaluate_at`
    ///   built at that pressure;
    /// * (rule 8) a domain with exactly one slot is first looked up in
    ///   `scratch.lone` by `lone_key`; a hit pushes the stored snapshot
    ///   without running the fixed point, and a miss stores what the
    ///   fixed point returns. The terms are built either way, for
    ///   `advance`.
    ///
    /// The other per-slot factors are computed once per solve and the
    /// coupling factor once per domain per round, each as `advance`
    /// computes the CPI it charges.
    fn solve_congestion(&mut self, cycles_q: f64) -> bool {
        let Simulator {
            spec,
            model,
            contexts,
            last_snapshots,
            scratch,
            ..
        } = self;
        let Scratch {
            slots,
            pressure,
            terms,
            snapshots,
            lone: memo,
            ..
        } = scratch;
        terms.clear();
        terms.extend(slots.iter().map(|slot| {
            let ctx = &contexts[slot.ctx];
            let phase = &ctx.profile.phases()[ctx.phase_idx];
            SlotTerms::new(spec, model, slot, phase, pressure[slot.domain])
        }));
        #[cfg(test)]
        if self.reference {
            self.solve_jointly(cycles_q);
            return true;
        }

        snapshots.clear();
        let mut solved = false;
        for (domain, (start, &pressure)) in last_snapshots.iter().zip(pressure.iter()).enumerate() {
            let in_domain = || terms.iter().filter(move |term| term.domain == domain);
            let mut running_terms = in_domain();
            let lone = match (running_terms.next(), running_terms.next()) {
                (Some(term), None) => {
                    let key = lone_key(cycles_q, pressure, start, term);
                    Some((LoneMemo::hash(&key), key))
                }
                _ => None,
            };
            if let Some(snapshot) = lone.and_then(|(hash, key)| memo.get(hash, &key)) {
                snapshots.push(snapshot);
                continue;
            }
            solved = true;
            let demand = |l2_miss_rate, l3_miss_rate| ContentionInputs {
                l2_miss_rate,
                l3_miss_rate,
                ..ContentionInputs::default()
            };
            // Round 0 reads the starting snapshot, whose capacity
            // pressure may predate the current footprint.
            let couple = coupling(spec, start);
            let (mut l2, mut l3, mut running) = (0.0, 0.0, 0);
            for term in in_domain() {
                let miss = model.effective_miss_ratio(term.l3_miss_ratio, start.capacity_pressure);
                let l2_rate = term.l2_rate(model, start, couple, miss, cycles_q);
                l2 += l2_rate;
                l3 += l2_rate * miss;
                running += 1;
            }
            let mut snapshot = model.evaluate_at(demand(l2, l3), pressure, running);
            for _ in 1..FIXED_POINT_ITERS {
                let couple = coupling(spec, &snapshot);
                let (mut next_l2, mut next_l3) = (0.0, 0.0);
                for term in in_domain() {
                    let l2_rate = term.l2_rate(model, &snapshot, couple, term.miss, cycles_q);
                    next_l2 += l2_rate;
                    next_l3 += l2_rate * term.miss;
                }
                // Damping stabilises queueing near saturation.
                let next_l2 = 0.5 * (l2 + next_l2);
                let next_l3 = 0.5 * (l3 + next_l3);
                // `snapshot` is already the evaluation of `(l2, l3)`.
                if next_l2.to_bits() == l2.to_bits() && next_l3.to_bits() == l3.to_bits() {
                    break;
                }
                (l2, l3) = (next_l2, next_l3);
                snapshot = model.evaluate_at(demand(l2, l3), pressure, running);
            }
            if let Some((hash, key)) = lone {
                memo.put(hash, key, snapshot);
            }
            snapshots.push(snapshot);
        }
        solved
    }

    /// The joint fixed point over every domain, each slot's miss ratio
    /// re-derived from its domain's snapshot every round, stopping when
    /// every domain's demand repeats: the straightforward form of the
    /// per-domain solve, which it must reproduce bit for bit. Reads the
    /// terms `solve_congestion` built.
    #[cfg(test)]
    fn solve_jointly(&mut self, cycles_q: f64) {
        let Simulator {
            spec,
            model,
            last_snapshots,
            scratch,
            ..
        } = self;
        let Scratch {
            pressure,
            terms,
            snapshots,
            ..
        } = scratch;
        let mut running = vec![0; spec.sockets];
        for term in terms.iter() {
            running[term.domain] += 1;
        }
        snapshots.clear();
        snapshots.extend_from_slice(last_snapshots);
        let mut inputs = vec![ContentionInputs::default(); spec.sockets];
        for iter in 0..FIXED_POINT_ITERS {
            let mut next = vec![ContentionInputs::default(); spec.sockets];
            let couple: Vec<f64> = snapshots.iter().map(|s| coupling(spec, s)).collect();
            for term in terms.iter() {
                let snapshot = &snapshots[term.domain];
                let miss =
                    model.effective_miss_ratio(term.l3_miss_ratio, snapshot.capacity_pressure);
                let private = term.private_base * couple[term.domain];
                let stall = term.stall_base * model.post_l2_latency(snapshot, miss);
                let instr_rate = cycles_q / (private + stall);
                let l2_rate = instr_rate * term.mpki / 1000.0;
                next[term.domain].l2_miss_rate += l2_rate;
                next[term.domain].l3_miss_rate += l2_rate * miss;
            }
            if iter > 0 {
                for (demand, input) in next.iter_mut().zip(&inputs) {
                    demand.l2_miss_rate = 0.5 * (input.l2_miss_rate + demand.l2_miss_rate);
                    demand.l3_miss_rate = 0.5 * (input.l3_miss_rate + demand.l3_miss_rate);
                }
                if next.iter().zip(&inputs).all(|(demand, input)| {
                    demand.l2_miss_rate.to_bits() == input.l2_miss_rate.to_bits()
                        && demand.l3_miss_rate.to_bits() == input.l3_miss_rate.to_bits()
                }) {
                    break;
                }
            }
            for (domain, snapshot) in snapshots.iter_mut().enumerate() {
                *snapshot = model.evaluate_at(next[domain], pressure[domain], running[domain]);
            }
            inputs = next;
        }
    }

    /// Advances one scheduled context through a quantum's cycles,
    /// handling phase boundaries, startup-window snapshots and
    /// completion. Returns a completion event if the profile ended.
    ///
    /// `terms` are the solve's for the context's current phase; a phase
    /// change within the quantum rebuilds them for the next one.
    fn advance(
        &mut self,
        slot: &Slot,
        mut terms: SlotTerms,
        cycles_q: f64,
        snapshot: &CongestionSnapshot,
        machine_l3: &mut f64,
    ) -> Option<Event> {
        let mut cycles_left = cycles_q;
        let mut quantum_instr = 0.0;
        let mut quantum_cycles = 0.0;
        let mut quantum_l3 = 0.0;
        let mut completed: Option<f64> = None;
        // The snapshot is the quantum's, so its coupling is too.
        let couple = coupling(&self.spec, snapshot);

        // Context-switch accounting: scheduled now after a gap (the run
        // stamp is the clock only after running in the previous quantum).
        {
            let ctx = &mut self.contexts[slot.ctx];
            if ctx.has_run && ctx.last_run_ms != self.now_ms {
                ctx.counters.context_switches += 1.0;
            }
            if ctx.startup_pending {
                ctx.startup_quanta += 1;
                ctx.startup_l3_rate_sum += snapshot.l3_miss_rate;
            }
        }

        while cycles_remain(cycles_left) {
            let (phase, phase_idx, instr_into_phase, profile_len, startup_len) = {
                let ctx = &self.contexts[slot.ctx];
                (
                    ctx.profile.phases()[ctx.phase_idx],
                    ctx.phase_idx,
                    ctx.instr_into_phase,
                    ctx.profile.phases().len(),
                    ctx.profile.startup_len(),
                )
            };
            #[cfg(test)]
            if self.reference {
                terms = SlotTerms::new(
                    &self.spec,
                    &self.model,
                    slot,
                    &phase,
                    snapshot.capacity_pressure,
                );
            }
            let remaining = phase.instructions - instr_into_phase;
            let pass = Pass::new(
                &self.model,
                snapshot,
                &terms,
                couple,
                cycles_left,
                remaining,
            );
            cycles_left = pass.cycles_left;
            quantum_instr += pass.instructions;
            quantum_cycles += pass.cycles;
            quantum_l3 += pass.l3_misses;

            let ctx = &mut self.contexts[slot.ctx];
            pass.charge(&mut ctx.counters);

            if pass.ends_phase(remaining) {
                ctx.phase_idx = phase_idx + 1;
                ctx.instr_into_phase = 0.0;
                self.changed = self.changed.max(Change::Phase);
                let frac = 1.0 - cycles_left / cycles_q;
                if ctx.phase_idx == startup_len && ctx.startup_pending {
                    ctx.startup_pending = false;
                    let wall_ms = self.now_ms as f64 + frac - ctx.launched_ms as f64;
                    let rate = if ctx.startup_quanta > 0 {
                        ctx.startup_l3_rate_sum / ctx.startup_quanta as f64
                    } else {
                        0.0
                    };
                    ctx.startup_report = Some(StartupReport {
                        counters: ctx.counters,
                        wall_ms,
                        machine_l3_miss_rate: rate,
                    });
                }
                if ctx.phase_idx == profile_len {
                    let at = self.now_ms as f64 + frac;
                    ctx.completed_ms = Some(at);
                    completed = Some(at);
                    break;
                }
                terms = SlotTerms::new(
                    &self.spec,
                    &self.model,
                    slot,
                    &ctx.profile.phases()[ctx.phase_idx],
                    snapshot.capacity_pressure,
                );
            } else {
                ctx.instr_into_phase = instr_into_phase + pass.instructions;
            }
        }

        *machine_l3 += quantum_l3;
        let ctx = &mut self.contexts[slot.ctx];
        if ctx.sampling {
            ctx.samples.push(PmuSample {
                time_ms: self.now_ms,
                instructions: quantum_instr,
                cycles: quantum_cycles,
                l3_misses: quantum_l3,
            });
        }
        completed.map(|at_ms| Event::Completed {
            id: InstanceId(slot.ctx),
            at_ms,
        })
    }
}

/// Whether two plans agree slot for slot, floats compared as bits.
fn same_plan(a: &[Slot], b: &[Slot]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.ctx == y.ctx
                && x.core == y.core
                && x.domain == y.domain
                && x.smt_busy == y.smt_busy
                && x.switch_factor.to_bits() == y.switch_factor.to_bits()
                && x.switch_mpki.to_bits() == y.switch_mpki.to_bits()
        })
}

/// Whether two snapshots agree bit for bit.
fn same_snapshot(a: &CongestionSnapshot, b: &CongestionSnapshot) -> bool {
    a.l3_port_utilization.to_bits() == b.l3_port_utilization.to_bits()
        && a.bandwidth_utilization.to_bits() == b.bandwidth_utilization.to_bits()
        && a.capacity_pressure.to_bits() == b.capacity_pressure.to_bits()
        && a.l3_latency.to_bits() == b.l3_latency.to_bits()
        && a.mem_latency.to_bits() == b.mem_latency.to_bits()
        && a.l3_miss_rate.to_bits() == b.l3_miss_rate.to_bits()
        && a.active_contexts == b.active_contexts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ExecPhase, ExecutionProfile};
    use proptest::prelude::*;

    fn compute_profile(name: &str, instructions: f64) -> ExecutionProfile {
        ExecutionProfile::builder(name)
            .phase(ExecPhase::new(instructions, 0.5, 1.0, 0.1, 0.7, 4.0))
            .build()
            .unwrap()
    }

    fn memory_profile(name: &str, instructions: f64) -> ExecutionProfile {
        ExecutionProfile::builder(name)
            .phase(ExecPhase::new(instructions, 0.6, 30.0, 0.7, 0.85, 24.0))
            .build()
            .unwrap()
    }

    fn sim() -> Simulator {
        Simulator::new(MachineSpec::cascade_lake())
    }

    #[test]
    fn single_workload_completes_with_exact_instructions() {
        let mut sim = sim();
        let id = sim
            .launch(compute_profile("a", 5_000_000.0), Placement::pinned(0))
            .unwrap();
        let report = sim.run_to_completion(id).unwrap();
        assert!((report.counters.instructions - 5_000_000.0).abs() < 1.0);
        assert!(report.wall_ms() > 0.0);
        assert!(report.counters.cycles > 0.0);
        assert_eq!(sim.state(id).unwrap(), InstanceState::Completed);
    }

    #[test]
    fn memory_bound_corunner_inflates_t_shared_far_more_than_t_private() {
        // Solo run.
        let mut solo = sim();
        let id = solo
            .launch(memory_profile("t", 20_000_000.0), Placement::pinned(0))
            .unwrap();
        let solo_report = solo.run_to_completion(id).unwrap();

        // Same workload with 20 memory-bound co-runners.
        let mut busy = sim();
        for core in 1..21 {
            busy.launch(memory_profile("noise", 8e9), Placement::pinned(core))
                .unwrap();
        }
        let id = busy
            .launch(memory_profile("t", 20_000_000.0), Placement::pinned(0))
            .unwrap();
        let busy_report = busy.run_to_completion(id).unwrap();

        let priv_slow = busy_report.counters.t_private_per_instruction()
            / solo_report.counters.t_private_per_instruction();
        let shared_slow = busy_report.counters.t_shared_per_instruction()
            / solo_report.counters.t_shared_per_instruction();
        assert!(
            shared_slow > 1.3,
            "shared time must inflate, got {shared_slow}"
        );
        assert!(
            priv_slow < 1.2,
            "private time must stay nearly flat, got {priv_slow}"
        );
        assert!(shared_slow > priv_slow * 1.2);
    }

    #[test]
    fn two_pinned_contexts_time_share_one_core() {
        let mut sim = sim();
        let a = sim
            .launch(compute_profile("a", 10_000_000.0), Placement::pinned(0))
            .unwrap();
        let b = sim
            .launch(compute_profile("b", 10_000_000.0), Placement::pinned(0))
            .unwrap();
        let ra = sim.run_to_completion(a).unwrap();
        let rb = sim.run_to_completion(b).unwrap();
        // Each must take roughly twice as long (wall) as it would alone.
        let mut alone = Simulator::new(MachineSpec::cascade_lake());
        let s = alone
            .launch(compute_profile("s", 10_000_000.0), Placement::pinned(0))
            .unwrap();
        let rs = alone.run_to_completion(s).unwrap();
        let wall = ra.wall_ms().max(rb.wall_ms());
        assert!(
            wall > 1.7 * rs.wall_ms(),
            "time sharing must roughly double wall time: {wall} vs {}",
            rs.wall_ms()
        );
        // Both accumulated context switches.
        assert!(ra.counters.context_switches > 0.0);
        assert!(rb.counters.context_switches > 0.0);
    }

    #[test]
    fn pool_spreads_load_across_cores() {
        let mut sim = sim();
        let ids: Vec<_> = (0..4)
            .map(|i| {
                sim.launch(
                    compute_profile(&format!("w{i}"), 10_000_000.0),
                    Placement::pool_range(0, 4),
                )
                .unwrap()
            })
            .collect();
        for id in &ids {
            sim.run_to_completion(*id).unwrap();
        }
        // 4 workloads on 4 cores: no time sharing, wall time close to solo.
        let mut alone = Simulator::new(MachineSpec::cascade_lake());
        let s = alone
            .launch(compute_profile("s", 10_000_000.0), Placement::pinned(0))
            .unwrap();
        let rs = alone.run_to_completion(s).unwrap();
        for id in ids {
            let r = sim.report(id).unwrap();
            assert!(r.wall_ms() < rs.wall_ms() * 1.5);
        }
    }

    #[test]
    fn smt_sibling_slows_private_execution() {
        let mut spec = MachineSpec::cascade_lake();
        spec.smt_ways = 2;
        let mut sim = Simulator::new(spec);
        let a = sim
            .launch(compute_profile("a", 10_000_000.0), Placement::pinned(0))
            .unwrap();
        let _b = sim
            .launch(compute_profile("b", 200_000_000.0), Placement::pinned(0))
            .unwrap();
        let ra = sim.run_to_completion(a).unwrap();

        let mut solo = Simulator::new(MachineSpec::cascade_lake());
        let s = solo
            .launch(compute_profile("s", 10_000_000.0), Placement::pinned(0))
            .unwrap();
        let rs = solo.run_to_completion(s).unwrap();
        let slow =
            ra.counters.t_private_per_instruction() / rs.counters.t_private_per_instruction();
        assert!(slow > 1.5, "SMT sibling must slow private CPI, got {slow}");
    }

    #[test]
    fn startup_report_is_captured() {
        let mut sim = sim();
        let profile = ExecutionProfile::builder("py")
            .startup_phase(ExecPhase::new(2_000_000.0, 0.6, 12.0, 0.3, 0.8, 20.0))
            .phase(ExecPhase::new(8_000_000.0, 0.5, 2.0, 0.1, 0.7, 8.0))
            .build()
            .unwrap();
        let id = sim.launch(profile, Placement::pinned(0)).unwrap();
        let report = sim.run_to_completion(id).unwrap();
        let startup = report.startup.expect("startup report present");
        assert!((startup.counters.instructions - 2_000_000.0).abs() < 1.0);
        assert!(startup.wall_ms > 0.0);
        assert!(startup.counters.cycles < report.counters.cycles);
    }

    #[test]
    fn completion_event_fires_exactly_once() {
        let mut sim = sim();
        let id = sim
            .launch(compute_profile("a", 3_000_000.0), Placement::pinned(0))
            .unwrap();
        let mut completions = 0;
        for _ in 0..100 {
            for event in sim.step() {
                let Event::Completed { id: done, .. } = event;
                assert_eq!(done, id);
                completions += 1;
            }
        }
        assert_eq!(completions, 1);
    }

    #[test]
    fn report_errors() {
        let mut sim = sim();
        let bogus = InstanceId(42);
        assert_eq!(
            sim.report(bogus).unwrap_err(),
            SimError::UnknownInstance(bogus)
        );
        let id = sim
            .launch(compute_profile("a", 1e9), Placement::pinned(0))
            .unwrap();
        assert_eq!(sim.report(id).unwrap_err(), SimError::StillRunning(id));
    }

    #[test]
    fn placement_validation() {
        let mut sim = sim();
        assert_eq!(
            sim.launch(
                compute_profile("a", 1.0),
                Placement::pool(Vec::<usize>::new())
            )
            .unwrap_err(),
            SimError::EmptyPlacement
        );
        assert!(matches!(
            sim.launch(compute_profile("a", 1.0), Placement::pinned(99)),
            Err(SimError::UnknownCore { core: 99, .. })
        ));
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            for core in 0..8 {
                sim.launch(memory_profile("m", 30_000_000.0), Placement::pinned(core))
                    .unwrap();
            }
            let id = sim
                .launch(compute_profile("t", 10_000_000.0), Placement::pinned(8))
                .unwrap();
            sim.run_to_completion(id).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.completed_ms, b.completed_ms);
    }

    #[test]
    fn sampling_records_quanta() {
        let mut sim = sim();
        let id = sim
            .launch_sampled(compute_profile("a", 10_000_000.0), Placement::pinned(0))
            .unwrap();
        let report = sim.run_to_completion(id).unwrap();
        assert!(!report.samples.is_empty());
        let total: f64 = report.samples.iter().map(|s| s.instructions).sum();
        assert!((total - report.counters.instructions).abs() < 1.0);
        for s in &report.samples {
            assert!(s.ipc() >= 0.0);
        }
    }

    #[test]
    fn run_until_idle_finishes_everything() {
        let mut sim = sim();
        for core in 0..4 {
            sim.launch(compute_profile("w", 4_000_000.0), Placement::pinned(core))
                .unwrap();
        }
        let events = sim.run_until_idle().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(sim.active_instances(), 0);
    }

    #[test]
    fn turbo_governor_speeds_up_lone_function() {
        let spec = MachineSpec::cascade_lake();
        let mut turbo =
            Simulator::with_governor(spec.clone(), FrequencyGovernor::turbo(2.8, 3.9, 8));
        let id = turbo
            .launch(compute_profile("a", 20_000_000.0), Placement::pinned(0))
            .unwrap();
        let fast = turbo.run_to_completion(id).unwrap();

        let mut fixed = Simulator::new(spec);
        let id = fixed
            .launch(compute_profile("a", 20_000_000.0), Placement::pinned(0))
            .unwrap();
        let slow = fixed.run_to_completion(id).unwrap();
        assert!(fast.wall_ms() < slow.wall_ms());
    }

    /// One long phase, alone on a core: no switch overheads, so the slot's
    /// `mpki` is the phase's `l2_mpki`.
    fn lone_profile(cpi: f64, mpki: f64, ratio: f64, blocking: f64) -> ExecutionProfile {
        ExecutionProfile::builder("lone")
            .phase(ExecPhase::new(1e9, cpi, mpki, ratio, blocking, 24.0))
            .build()
            .unwrap()
    }

    /// The lone-domain memo starts small and grows to full size when a
    /// store finds its set full; it must hold, and so find, exactly what
    /// a memo allocated at full size holds. Each trial looks up keys
    /// from its own pool of 400, more than the memo's 256 entries, so it
    /// grows once and then overwrites; from the growth on, every set's
    /// tags and oldest way must match the full-size memo's.
    #[test]
    fn a_growing_lone_memo_holds_what_a_full_size_one_holds() {
        let snapshot = CongestionSnapshot::idle(&MachineSpec::cascade_lake());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let (mut hits, mut lookups) = (0, 0);
        for trial in 0..200u64 {
            let mut growing = LoneMemo::default();
            let mut full = LoneMemo::default();
            full.sets.resize_with(LONE_MEMO_SETS, LoneSet::default);
            for _ in 0..600 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = [trial, state % 400, 0, 0, 0, 0, 0, 0, 0, 0, 0];
                let hash = LoneMemo::hash(&key);
                lookups += 1;
                match (growing.get(hash, &key), full.get(hash, &key)) {
                    (Some(_), Some(_)) => hits += 1,
                    (None, None) => {
                        growing.put(hash, key, snapshot);
                        full.put(hash, key, snapshot);
                    }
                    (a, b) => panic!("trial {trial}: growing {a:?}, full size {b:?}"),
                }
                if growing.sets.len() == LONE_MEMO_SETS {
                    for (a, b) in growing.sets.iter().zip(&full.sets) {
                        assert_eq!((a.tags, a.oldest), (b.tags, b.oldest), "trial {trial}");
                    }
                } else {
                    assert_eq!(growing.sets.len(), LONE_MEMO_FIRST_SETS);
                }
            }
            assert_eq!(growing.sets.len(), LONE_MEMO_SETS, "trial {trial}");
        }
        assert!(
            hits > lookups / 10 && hits < lookups * 9 / 10,
            "{hits} hits"
        );
    }

    /// Rule 8 keys a lone domain's solve by every input the solve reads.
    /// From one state, each solve below changes one word of the key,
    /// reachable or not, and must solve afresh, bit for bit as the
    /// reference does; the unchanged state, solved again, is a hit.
    #[test]
    fn lone_memo_tells_apart_every_input_of_the_solve() {
        type KeyChange = (&'static str, fn(&mut Simulator));
        let changes: [KeyChange; 11] = [
            ("cycles", |sim| sim.governor = FrequencyGovernor::fixed(3.1)),
            ("pressure", |sim| sim.scratch.pressure[0] = 0.25),
            ("port utilisation", |sim| {
                sim.last_snapshots[0].l3_port_utilization += 0.1;
            }),
            ("bandwidth utilisation", |sim| {
                sim.last_snapshots[0].bandwidth_utilization += 0.1;
            }),
            ("starting pressure", |sim| {
                sim.last_snapshots[0].capacity_pressure += 0.1;
            }),
            ("L3 latency", |sim| sim.last_snapshots[0].l3_latency += 5.0),
            ("memory latency", |sim| {
                sim.last_snapshots[0].mem_latency += 20.0
            }),
            ("private CPI", |sim| {
                sim.contexts[0].profile = lone_profile(0.7, 10.0, 0.5, 0.8);
            }),
            // (20/1000)·0.4 is (10/1000)·0.8 bit for bit: only `mpki` moves.
            ("L2 MPKI", |sim| {
                sim.contexts[0].profile = lone_profile(0.6, 20.0, 0.5, 0.4);
            }),
            ("stall factor", |sim| {
                sim.contexts[0].profile = lone_profile(0.6, 10.0, 0.5, 0.6);
            }),
            ("L3 miss ratio", |sim| {
                sim.contexts[0].profile = lone_profile(0.6, 10.0, 0.6, 0.8);
            }),
        ];
        let spec = MachineSpec::cascade_lake();
        let mut memo = Simulator::new(spec.clone());
        let mut reference = Simulator::new(spec.clone());
        reference.reference = true;
        for sim in [&mut memo, &mut reference] {
            sim.launch(lone_profile(0.6, 10.0, 0.5, 0.8), Placement::pinned(0))
                .unwrap();
            sim.step();
        }
        let (start, pressure) = (memo.last_snapshots[0], memo.scratch.pressure[0]);
        // Resets the inputs to that state, applies `change`, and steps
        // once with the solve forced.
        let solve = |sim: &mut Simulator, change: fn(&mut Simulator)| {
            sim.governor = FrequencyGovernor::fixed(spec.frequency_ghz);
            sim.scratch.pressure[0] = pressure;
            sim.last_snapshots[0] = start;
            sim.contexts[0].profile = lone_profile(0.6, 10.0, 0.5, 0.8);
            change(sim);
            sim.scratch.settled = false;
            sim.step();
            sim.last_snapshots[0]
        };
        let unchanged = solve(&mut memo, |_| {});
        assert!(same_snapshot(&unchanged, &solve(&mut reference, |_| {})));
        for (input, change) in changes {
            let solved = solve(&mut memo, change);
            assert!(
                !same_snapshot(&solved, &unchanged),
                "changing the {input} must move the solve"
            );
            assert!(
                same_snapshot(&solved, &solve(&mut reference, change)),
                "changing the {input}: the memo served another state's solve"
            );
        }
        assert_eq!(memo.scratch.lone.hits, 0);
        assert!(same_snapshot(&solve(&mut memo, |_| {}), &unchanged));
        assert_eq!(memo.scratch.lone.hits, 1);
    }

    /// A startup phase of `startup` instructions, then a long body.
    fn two_phase_profile(startup: f64) -> ExecutionProfile {
        ExecutionProfile::builder("two-phase")
            .startup_phase(ExecPhase::new(startup, 0.6, 10.0, 0.5, 0.8, 24.0))
            .phase(ExecPhase::new(1e9, 0.7, 5.0, 0.4, 0.6, 24.0))
            .build()
            .unwrap()
    }

    /// Steps `sim` until a quantum leaves a stable plan (rule 9).
    fn step_until_stable(sim: &mut Simulator) {
        for _ in 0..100 {
            sim.step();
            if sim.stable {
                return;
            }
        }
        panic!("no stable plan within 100 quanta");
    }

    /// The bulk advance declines, advancing nothing, in each case where
    /// the next quantum would not repeat the last one's charges, or
    /// would record what it does not: right after a launch, after a
    /// phase change, after a solve that did not settle, with a sampled
    /// context in the plan, and under `reference`. Once the plan is
    /// stable it advances, up to the horizon or to the quantum before
    /// the phase ends.
    #[test]
    fn the_bulk_advance_declines_unless_the_plan_is_stable() {
        let mut sim = sim();
        sim.launch(two_phase_profile(2e7), Placement::pinned(0))
            .unwrap();
        assert_eq!(sim.advance_stable(100), 0, "right after a launch");
        sim.step();
        assert!(!sim.scratch.settled);
        assert_eq!(
            sim.advance_stable(100),
            0,
            "after a solve that did not settle"
        );
        step_until_stable(&mut sim);
        assert_eq!(sim.contexts[0].phase_idx, 0);
        let now = sim.now_ms();
        assert_eq!(sim.advance_stable(now + 1), 1, "up to the horizon");
        assert_eq!(sim.advance_stable(now + 1), 0, "at the horizon");
        let advanced = sim.advance_stable(now + 100);
        assert!(advanced > 0 && sim.now_ms() < now + 100, "to the phase end");
        assert!(sim.step().is_empty());
        assert_eq!(
            sim.contexts[0].phase_idx, 1,
            "the next quantum ends the phase"
        );
        assert_eq!(
            sim.advance_stable(sim.now_ms() + 100),
            0,
            "after a phase change"
        );
        step_until_stable(&mut sim);
        sim.launch(two_phase_profile(2e7), Placement::pinned(1))
            .unwrap();
        assert_eq!(
            sim.advance_stable(sim.now_ms() + 100),
            0,
            "right after a launch"
        );
        assert_eq!(sim.bulk_quanta(), 1 + advanced);

        // A sampled context in the plan, and the reference switch, each
        // decline a plan that is otherwise stable.
        for (sampled, reference) in [(true, false), (false, true), (false, false)] {
            let mut sim = self::sim();
            sim.reference = reference;
            let profile = two_phase_profile(2e7);
            if sampled {
                sim.launch_sampled(profile, Placement::pinned(0)).unwrap();
            } else {
                sim.launch(profile, Placement::pinned(0)).unwrap();
            }
            step_until_stable(&mut sim);
            let advanced = sim.advance_stable(sim.now_ms() + 100);
            assert_eq!(
                advanced > 0,
                !sampled && !reference,
                "sampled {sampled}, reference {reference}"
            );
        }
    }

    /// `spec` with two-way SMT, so that stepping pairs SMT siblings.
    fn with_smt(mut spec: MachineSpec) -> MachineSpec {
        spec.smt_ways = 2;
        spec
    }

    /// One socket; one socket with SMT-2, where the few occupied cores'
    /// threads fill while the rest stay free; or two sockets with
    /// SMT-2, so that stepping also crosses sharing domains.
    fn arb_spec() -> impl Strategy<Value = MachineSpec> {
        (0usize..3).prop_map(|kind| match kind {
            0 => MachineSpec::cascade_lake(),
            1 => with_smt(MachineSpec::cascade_lake()),
            _ => with_smt(MachineSpec::cascade_lake_dual()),
        })
    }

    fn arb_phase() -> impl Strategy<Value = ExecPhase> {
        (
            1.0e5f64..4.0e7, // instructions
            0.2f64..2.0,     // cpi_private
            0.0f64..30.0,    // l2_mpki
            0.0f64..1.0,     // l3_miss_ratio
            0.1f64..1.0,     // blocking
            0.5f64..120.0,   // footprint
        )
            .prop_map(|(i, cpi, mpki, ratio, blocking, fp)| {
                ExecPhase::new(i, cpi, mpki, ratio, blocking, fp)
            })
    }

    /// One to three body phases, behind a startup phase half the time,
    /// scaled down by up to 10× so that schedules drain quickly.
    fn arb_profile() -> impl Strategy<Value = ExecutionProfile> {
        (
            arb_phase(),
            prop::collection::vec(arb_phase(), 1..4),
            0usize..2,
            0.1f64..1.0,
        )
            .prop_map(|(startup, body, with_startup, scale)| {
                let mut builder = ExecutionProfile::builder("diff");
                if with_startup == 1 {
                    builder = builder.startup_phase(startup);
                }
                for phase in body {
                    builder = builder.phase(phase);
                }
                builder.build().unwrap().scaled(scale).unwrap()
            })
    }

    /// Pinned or pooled on the few cores around the dual socket's
    /// boundary (16), so that contexts time-share, pair as SMT siblings
    /// and span both domains.
    fn arb_placement() -> impl Strategy<Value = Placement> {
        (0usize..2, 14usize..18, 1usize..4).prop_map(|(pooled, core, width)| {
            if pooled == 1 {
                Placement::pool_range(core, core + width)
            } else {
                Placement::pinned(core)
            }
        })
    }

    /// A launch: profile, placement, and whether to sample it.
    type Launch = (ExecutionProfile, Placement, bool);

    /// `profile` with every phase's footprint set to the first one's.
    fn one_footprint(profile: &ExecutionProfile) -> ExecutionProfile {
        let footprint_mb = profile.phases()[0].footprint_mb;
        let mut builder = ExecutionProfile::builder("twin");
        for (i, &phase) in profile.phases().iter().enumerate() {
            let phase = ExecPhase {
                footprint_mb,
                ..phase
            };
            builder = if i < profile.startup_len() {
                builder.startup_phase(phase)
            } else {
                builder.phase(phase)
            };
        }
        builder.build().unwrap()
    }

    /// Up to five launches, each half the time as a pair of twins: the
    /// same phases at one footprint, the second stretched, on the same
    /// placement. Twins sharing a core alternate at equal demand until
    /// the shorter one changes phase, which leaves the live footprint as
    /// it was: the next plans swap twin for twin at different demand
    /// with nothing invalidated in between.
    fn arb_launches() -> impl Strategy<Value = Vec<Launch>> {
        prop::collection::vec(
            (
                arb_profile(),
                arb_placement(),
                0usize..2,
                0usize..2,
                1.2f64..3.0,
            ),
            0..6,
        )
        .prop_map(|launches| {
            let mut out = Vec::new();
            for (profile, placement, sampled, twin, stretch) in launches {
                if twin == 1 {
                    let profile = one_footprint(&profile);
                    let stretched = profile.scaled(stretch).unwrap();
                    out.push((profile, placement.clone(), sampled == 1));
                    out.push((stretched, placement, sampled == 1));
                } else {
                    out.push((profile, placement, sampled == 1));
                }
            }
            out
        })
    }

    /// One launch replayed alone: launched, drained, and launched again
    /// after each gap of idle quanta.
    fn arb_lone_replays() -> impl Strategy<Value = (Launch, Vec<u64>)> {
        (
            arb_profile(),
            arb_placement(),
            0usize..2,
            prop::collection::vec(1u64..4, 2..5),
        )
            .prop_map(|(profile, placement, sampled, gaps)| {
                ((profile, placement, sampled == 1), gaps)
            })
    }

    /// Rounds of launches, each followed by a number of quanta. Up to
    /// 110 contexts land on the few cores around the boundary, so later
    /// rounds launch into pools that are already time-sharing.
    fn arb_rounds() -> impl Strategy<Value = Vec<(Vec<Launch>, u64)>> {
        prop::collection::vec((arb_launches(), 1u64..16), 1..12)
    }

    /// Checks that the run queue holds exactly the active contexts in
    /// ascending `(last_run_ms, index)` order, the order that sorting
    /// them by that key gives.
    fn check_runqueue(sim: &Simulator) -> std::result::Result<(), TestCaseError> {
        let mut sorted: Vec<usize> = (0..sim.contexts.len())
            .filter(|&idx| sim.contexts[idx].is_active())
            .collect();
        sorted.sort_unstable_by_key(|&idx| (sim.contexts[idx].last_run_ms, idx));
        prop_assert_eq!(&sim.runqueue, &sorted);
        Ok(())
    }

    /// Steps both simulators once, `fresh` with every reused
    /// intermediate dropped first, and checks that the quantum's plan,
    /// events, per-domain snapshots and L3 total agree bit for bit and
    /// that both run queues are in order.
    fn lockstep(
        reusing: &mut Simulator,
        fresh: &mut Simulator,
    ) -> std::result::Result<(), TestCaseError> {
        fresh.invalidate_reuse();
        let bits = |events: Vec<Event>| -> Vec<(usize, u64)> {
            events
                .into_iter()
                .map(|Event::Completed { id, at_ms }| (id.0, at_ms.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(reusing.step()), bits(fresh.step()));
        // The plan just stepped is kept as the previous one.
        prop_assert!(
            same_plan(&reusing.scratch.prev_slots, &fresh.scratch.prev_slots),
            "plans diverged: {:?} vs {:?}",
            reusing.scratch.prev_slots,
            fresh.scratch.prev_slots
        );
        for (a, b) in reusing.last_snapshots.iter().zip(&fresh.last_snapshots) {
            prop_assert!(same_snapshot(a, b), "snapshots diverged: {a:?} vs {b:?}");
        }
        prop_assert_eq!(
            reusing.machine_l3_misses().to_bits(),
            fresh.machine_l3_misses().to_bits()
        );
        check_runqueue(reusing)?;
        check_runqueue(fresh)
    }

    /// Every bit of a context's state that a quantum writes: the
    /// counters, the progress through the profile, the run stamp, the
    /// startup window and its report, the samples and the completion
    /// time.
    fn context_bits(ctx: &Context) -> Vec<u64> {
        let counters = |c: &PmuCounters| {
            [
                c.cycles,
                c.instructions,
                c.stall_l2_cycles,
                c.l2_misses,
                c.l3_misses,
                c.context_switches,
            ]
            .map(f64::to_bits)
        };
        let mut bits = counters(&ctx.counters).to_vec();
        bits.extend([
            ctx.phase_idx as u64,
            ctx.instr_into_phase.to_bits(),
            ctx.last_run_ms,
            u64::from(ctx.has_run),
            u64::from(ctx.startup_pending),
            ctx.startup_quanta,
            ctx.startup_l3_rate_sum.to_bits(),
            ctx.completed_ms.map_or(u64::MAX, f64::to_bits),
        ]);
        if let Some(report) = &ctx.startup_report {
            bits.extend(counters(&report.counters));
            bits.extend([report.wall_ms, report.machine_l3_miss_rate].map(f64::to_bits));
        }
        for sample in &ctx.samples {
            bits.push(sample.time_ms);
            bits.extend([sample.instructions, sample.cycles, sample.l3_misses].map(f64::to_bits));
        }
        bits
    }

    /// Checks that two simulators agree bit for bit: clock, machine L3
    /// total, snapshots, run queue and every context.
    fn same_state(a: &Simulator, b: &Simulator) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(a.now_ms(), b.now_ms());
        prop_assert_eq!(
            a.machine_l3_misses().to_bits(),
            b.machine_l3_misses().to_bits()
        );
        for (x, y) in a.last_snapshots.iter().zip(&b.last_snapshots) {
            prop_assert!(same_snapshot(x, y), "snapshots diverged: {x:?} vs {y:?}");
        }
        prop_assert_eq!(&a.runqueue, &b.runqueue);
        prop_assert_eq!(a.contexts.len(), b.contexts.len());
        for (idx, (x, y)) in a.contexts.iter().zip(&b.contexts).enumerate() {
            prop_assert!(
                context_bits(x) == context_bits(y),
                "context {idx} diverged: {x:?} vs {y:?}"
            );
        }
        Ok(())
    }

    /// Steps `bulk` once and then advances it in bulk up to `horizon`
    /// quanta past its clock; steps `stepped` as many quanta one at a
    /// time. The quanta the advance covers must return no events, and
    /// both must end in the same state. Returns the quanta advanced.
    fn step_then_advance(
        bulk: &mut Simulator,
        stepped: &mut Simulator,
        horizon: u64,
    ) -> std::result::Result<u64, TestCaseError> {
        let bits = |events: Vec<Event>| -> Vec<(usize, u64)> {
            events
                .into_iter()
                .map(|Event::Completed { id, at_ms }| (id.0, at_ms.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(bulk.step()), bits(stepped.step()));
        let advanced = bulk.advance_stable(bulk.now_ms() + horizon);
        prop_assert!(advanced <= horizon);
        for _ in 0..advanced {
            prop_assert!(
                stepped.step().is_empty(),
                "a bulk quantum completed something"
            );
        }
        same_state(bulk, stepped)?;
        Ok(advanced)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Reuse is exact: over random launch/step schedules with pinned
        /// and pooled placements, startup phases and sampling, on one
        /// socket with and without SMT-2 and on two sockets with SMT-2,
        /// a simulator that reuses its intermediates and takes every fast
        /// path steps bit for bit like one that rebuilds and solves
        /// everything every quantum, in the straightforward form of each
        /// rule (`Simulator::reference`), through to the final reports.
        /// After every launch round and every quantum, the kept run queue
        /// equals the active contexts sorted by run stamp.
        #[test]
        fn reuse_equals_recomputing_every_quantum(rounds in arb_rounds(), spec in arb_spec()) {
            let mut reusing = Simulator::new(spec.clone());
            let mut fresh = Simulator::new(spec);
            fresh.reference = true;
            let mut ids = Vec::new();
            let mut quanta = 0u64;
            for (launches, steps) in rounds {
                for (profile, placement, sampled) in launches {
                    let (a, b) = if sampled {
                        (
                            reusing.launch_sampled(profile.clone(), placement.clone()),
                            fresh.launch_sampled(profile, placement),
                        )
                    } else {
                        (
                            reusing.launch(profile.clone(), placement.clone()),
                            fresh.launch(profile, placement),
                        )
                    };
                    prop_assert_eq!(a.clone(), b);
                    ids.push(a.unwrap());
                }
                check_runqueue(&reusing)?;
                for _ in 0..steps {
                    lockstep(&mut reusing, &mut fresh)?;
                    quanta += 1;
                }
            }
            while reusing.active_instances() > 0 || fresh.active_instances() > 0 {
                prop_assert!(quanta < 100_000, "short profiles must drain");
                lockstep(&mut reusing, &mut fresh)?;
                quanta += 1;
            }
            for id in ids {
                // Debug prints every float round-trip exactly, so equal
                // strings mean equal bits.
                prop_assert_eq!(
                    format!("{:?}", reusing.report(id)),
                    format!("{:?}", fresh.report(id))
                );
            }
            prop_assert_eq!(fresh.congestion_solves(), quanta);
            prop_assert!(reusing.congestion_solves() <= quanta);
        }

        /// The bulk advance is exact: over the schedules above, a
        /// simulator that advances every stable plan in bulk, up to a
        /// random horizon after each step, ends every step and every
        /// advance in the state of one that steps each quantum, and
        /// neither solves more.
        #[test]
        fn bulk_advance_equals_stepping_quantum_by_quantum(
            rounds in arb_rounds(),
            spec in arb_spec(),
            horizons in prop::collection::vec(0u64..40, 1..16),
        ) {
            let mut bulk = Simulator::new(spec.clone());
            let mut stepped = Simulator::new(spec);
            let mut horizon = horizons.iter().cycle();
            let mut advanced = 0;
            let mut quanta = 0u64;
            for (launches, steps) in rounds {
                for (profile, placement, sampled) in launches {
                    for sim in [&mut bulk, &mut stepped] {
                        if sampled {
                            sim.launch_sampled(profile.clone(), placement.clone()).unwrap();
                        } else {
                            sim.launch(profile.clone(), placement.clone()).unwrap();
                        }
                    }
                }
                for _ in 0..steps {
                    let horizon = *horizon.next().unwrap();
                    advanced += step_then_advance(&mut bulk, &mut stepped, horizon)?;
                    quanta += 1;
                }
            }
            while bulk.active_instances() > 0 || stepped.active_instances() > 0 {
                prop_assert!(quanta < 100_000, "short profiles must drain");
                let horizon = *horizon.next().unwrap();
                advanced += step_then_advance(&mut bulk, &mut stepped, horizon)?;
                quanta += 1;
            }
            prop_assert_eq!(bulk.bulk_quanta(), advanced);
            prop_assert_eq!(stepped.bulk_quanta(), 0);
            prop_assert_eq!(bulk.congestion_solves(), stepped.congestion_solves());
        }

        /// A lone schedule replayed after idle quanta walks the solves it
        /// walked before, so `reusing` is served from the lone-domain
        /// memo (rule 8) while `fresh` solves, and both still step bit
        /// for bit alike through to the final reports.
        #[test]
        fn replayed_lone_schedules_hit_the_memo(replays in arb_lone_replays(), spec in arb_spec()) {
            let ((profile, placement, sampled), gaps) = replays;
            let mut reusing = Simulator::new(spec.clone());
            let mut fresh = Simulator::new(spec);
            fresh.reference = true;
            let mut ids = Vec::new();
            let mut quanta = 0u64;
            for gap in gaps {
                for sim in [&mut reusing, &mut fresh] {
                    let id = if sampled {
                        sim.launch_sampled(profile.clone(), placement.clone())
                    } else {
                        sim.launch(profile.clone(), placement.clone())
                    };
                    ids.push(id.unwrap());
                }
                while reusing.active_instances() > 0 || fresh.active_instances() > 0 {
                    prop_assert!(quanta < 100_000, "short profiles must drain");
                    lockstep(&mut reusing, &mut fresh)?;
                    quanta += 1;
                }
                for _ in 0..gap {
                    lockstep(&mut reusing, &mut fresh)?;
                }
            }
            for pair in ids.chunks(2) {
                prop_assert_eq!(
                    format!("{:?}", reusing.report(pair[0])),
                    format!("{:?}", fresh.report(pair[1]))
                );
            }
            prop_assert!(reusing.scratch.lone.hits > 0, "the replays must hit the memo");
        }
    }
}
