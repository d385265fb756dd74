//! Analytic multicore contention simulator for the Litmus reproduction.
//!
//! The Litmus paper (Pei, Wang, Shin — ASPLOS '24) measures everything on a
//! real dual-socket Cascade Lake server through Linux perf. This crate is
//! the sandbox substitute: a deterministic, quantum-stepped simulator of a
//! multicore CPU whose *observable signals* are the ones Litmus pricing
//! consumes —
//!
//! * per-context PMU counters: cycles, instructions, **stall cycles due to
//!   L2 misses** (the paper's `cycle_activity.stalls_L2_miss`, which
//!   defines `T_shared`), L2/L3 miss counts;
//! * machine-wide L3 miss traffic (the supplementary Litmus-test metric of
//!   paper Fig. 10);
//! * per-millisecond IPC samples (paper Fig. 6 startup timelines).
//!
//! # Model
//!
//! Time advances in 1 ms quanta. Workloads are [`ExecutionProfile`]s — a
//! sequence of [`ExecPhase`]s, each describing instruction count, private
//! CPI, L2 miss rate, solo L3 miss ratio, memory-level-parallelism
//! blocking factor and cache footprint. Within each quantum the engine
//! solves a small fixed point, because every context's progress rate
//! depends on shared-resource latencies which depend on every context's
//! traffic:
//!
//! ```text
//! cpi        = cpi_private·f_switch·f_smt·f_couple + stall_per_instr
//! stall      = (l2_mpki/1000)·blocking·post_l2_latency
//! post_l2    = l3_lat·(1 + k_ring·U_l3) + miss·mem_lat·g(U_bw)
//! miss       = l3_ratio + (1 − l3_ratio)·pressure(Σ footprints / C_L3)
//! g(U)       = 1 + k_bw·U²/(1 − min(U, U_cap))
//! ```
//!
//! `T_shared` accumulates `stall·instructions`; everything else is
//! `T_private` — the same decomposition the paper obtains from the PMU.
//!
//! # Cost
//!
//! A quantum ([`Simulator::step`]) costs O(active contexts) and makes no
//! heap allocation once the simulator's reusable buffers have grown to
//! its largest active set and its first lone-domain solve has allocated
//! the memo of rule 8 below. Completed contexts stay addressable through
//! [`Simulator::report`] and [`Simulator::state`] for the simulator's
//! lifetime, but `step` never visits them, so a machine that has served
//! thousands of invocations steps as fast as a fresh one with the same
//! active set. Each launch boxes its context, so that thousands of them
//! never need one contiguous block: the list grows by a pointer each.
//!
//! Within a quantum, each intermediate is recomputed only when one of
//! its inputs changed and is otherwise reused bit for bit, so the output
//! is exactly that of recomputing everything. One invalidation signal
//! drives the first three rules below: it fires when the active set
//! changes (a launch, or completions pruned at the end of a step) or
//! when a step moves an active context to its next phase.
//!
//! 1. **Occupancy caches.** Per-core load and the per-core switch
//!    overheads are rebuilt only when the active set changed (the
//!    overheads once per run of bit-equal loads, since they are a
//!    function of the load), the per-domain live footprint and its
//!    capacity pressure only when the active set or a phase changed.
//! 2. **Exact fixed-point exit, per domain.** Each sharing domain runs
//!    its own damped fixed point, with its demand, snapshot and coupling
//!    in locals, and stops as soon as a round after the first
//!    reproduces its input demand (the domain's L2 and L3 miss rate)
//!    bit for bit. That demand is the domain's whole state, so every
//!    remaining round would recompute the same bits; the round count is
//!    only a cap. Solving the domains one at a time equals solving them
//!    jointly: a slot reads only its own domain's snapshot and a
//!    domain's demand sums only its own slots, so once one domain's
//!    demand repeats, every later joint round re-evaluates the same bits
//!    for it.
//! 3. **Solve reuse.** The solve is skipped when this quantum's plan
//!    equals the previous one slot for slot (as bits), nothing was
//!    invalidated since the previous quantum, and the last solve returned
//!    its starting snapshots bit for bit: the same inputs would return
//!    them again.
//! 4. **Kept run queue.** Scheduling walks the active contexts in
//!    least-recently-run order in O(active), with no sort. The order is
//!    kept, not rebuilt: a launch appends, and after each quantum the
//!    contexts that ran move to the back in index order while completed
//!    ones leave.
//! 5. **Miss ratios once per solve.** Each slot's effective L3 miss
//!    ratio is derived per solve, not per round: round 0 derives it from
//!    the starting snapshot's capacity pressure, and every later round
//!    reads one derived from the domain's current pressure, which every
//!    snapshot the solve evaluates carries.
//! 6. **Terms shared with the step.** The per-slot factors and steady
//!    miss ratio the solve built are the ones each context's first
//!    phase is charged with; only a phase change within the quantum
//!    rebuilds them. A reused solve (rule 3) has the same plan with
//!    nothing invalidated, so its stored factors still hold.
//! 7. **Reachable-thread exit.** Scheduling stops once the plan fills
//!    every hardware thread on a core some active context may use
//!    (`smt_ways` × the cores with non-zero load, recorded with the
//!    load): every context still queued would find its cores full.
//! 8. **Lone-domain memo.** A domain whose part of the plan is a single
//!    context looks its solve up before running it. The key is the bits
//!    of everything that solve reads besides the machine spec: the
//!    quantum's cycles, the domain's capacity pressure, the five fields
//!    of the starting snapshot that round 0 reads (both utilisations,
//!    the capacity pressure and both latencies), and the slot's private
//!    base, MPKI, stall factor and solo L3 miss ratio. The slot's steady
//!    miss ratio is a function of that ratio and the pressure, and one
//!    context runs. So a hit is exact: it returns the snapshot the fixed
//!    point would return from the same bits. Each simulator keeps its
//!    own memo of 256 entries, in 64 sets of four that overwrite their
//!    oldest entry, allocated at the first store. A function invoked
//!    alone walks the same solves from the same idle snapshot every
//!    time, which is what hits. Domains running two or more contexts
//!    are not looked up: time-shared plans rotate, and their solves
//!    rarely repeat.
//! 9. **Stable-plan bulk advance.** A quantum that reused the solve
//!    (rule 3) and changed nothing — no phase ended, nothing completed
//!    — had every active context running, so the run queue, the plan
//!    and the snapshots stay put, and each later quantum charges every
//!    slot the same amounts until a launch or a phase end.
//!    [`Simulator::advance_stable`] computes those amounts once per
//!    slot (CPI, instructions, cycles, stall cycles, L2 and L3 misses),
//!    through the same one-pass charge and phase-end test that a step
//!    uses, with the quantum's machine L3 sum, then makes per quantum
//!    only the additions a step makes, in the same order, and stops
//!    before the first quantum in which a phase would end. It declines,
//!    advancing nothing, when the last quantum did not leave the plan
//!    stable or something launched since, when a slot's quantum would
//!    need a second pass of the phase arithmetic, and when a context in
//!    the plan is sampled. A serving machine calls it between steps, so
//!    on a quiet fleet most quanta of a lone function's body cost a few
//!    additions instead of a step.
//!
//! [`Simulator::congestion_solves`] counts the quanta that still ran
//! the fixed point in some domain; a memo hit is not a solve.
//! [`Simulator::bulk_quanta`] counts the quanta advanced in bulk, which
//! never solve.
//!
//! # Examples
//!
//! ```
//! use litmus_sim::{ExecutionProfile, ExecPhase, MachineSpec, Placement, Simulator};
//!
//! let spec = MachineSpec::cascade_lake();
//! let mut sim = Simulator::new(spec);
//! let profile = ExecutionProfile::builder("demo")
//!     .phase(ExecPhase::new(10_000_000.0, 0.5, 8.0, 0.3, 0.7, 16.0))
//!     .build()
//!     .unwrap();
//! let id = sim.launch(profile, Placement::pinned(0)).unwrap();
//! let report = sim.run_to_completion(id).unwrap();
//! assert!(report.counters.instructions >= 10_000_000.0);
//! assert!(report.counters.t_shared_cycles() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contention;
mod engine;
mod error;
mod frequency;
mod pmu;
mod profile;
mod report;
mod spec;

pub use contention::{CongestionSnapshot, ContentionInputs, ContentionModel};
pub use engine::{Event, InstanceId, InstanceState, Placement, Simulator};
pub use error::SimError;
pub use frequency::FrequencyGovernor;
pub use pmu::{PmuCounters, PmuSample};
pub use profile::{ExecPhase, ExecutionProfile, ProfileBuilder};
pub use report::{ExecutionReport, StartupReport};
pub use spec::MachineSpec;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SimError>;

/// Length of a scheduling/accounting quantum in milliseconds.
///
/// All engine bookkeeping (PMU samples, congestion snapshots, round-robin
/// scheduling) happens at this granularity.
pub const QUANTUM_MS: f64 = 1.0;
