use litmus_sim::{
    Event, ExecutionProfile, ExecutionReport, FrequencyGovernor, InstanceId, MachineSpec,
    Placement, Simulator,
};
use litmus_workloads::{suite, BackfillPool, Benchmark, WorkloadMix};

use crate::error::PlatformError;
use crate::Result;

/// How the congested machine is organised (paper §7.1 vs §7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoRunEnv {
    /// One function per core: the function under test owns core 0,
    /// `co_runners` backfilled functions own cores `1..=co_runners`
    /// (§7.1, Figs. 2/3/11–13).
    OnePerCore {
        /// Number of co-running functions.
        co_runners: usize,
    },
    /// Temporal sharing: the function under test and `co_runners`
    /// fillers all share a pool of `cores` cores without exclusive
    /// assignment (§7.2, Figs. 15–21; e.g. 160 functions on 16 cores).
    Shared {
        /// Number of co-running functions.
        co_runners: usize,
        /// Cores in the shared pool.
        cores: usize,
    },
}

impl CoRunEnv {
    /// Cores this environment occupies (including the measurement slot).
    pub fn cores_needed(&self) -> usize {
        match *self {
            CoRunEnv::OnePerCore { co_runners } => co_runners + 1,
            CoRunEnv::Shared { cores, .. } => cores,
        }
    }

    /// Number of co-running functions kept alive.
    pub fn co_runners(&self) -> usize {
        match *self {
            CoRunEnv::OnePerCore { co_runners } => co_runners,
            CoRunEnv::Shared { co_runners, .. } => co_runners,
        }
    }

    /// Average functions per core, counting the one under test — the
    /// quantity Method 1 calibrates against (10 in the paper's §7.2
    /// setup).
    pub fn functions_per_core(&self) -> f64 {
        match *self {
            CoRunEnv::OnePerCore { .. } => 1.0,
            CoRunEnv::Shared { co_runners, cores } => (co_runners + 1) as f64 / cores as f64,
        }
    }
}

/// Configuration for a [`CoRunHarness`].
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Machine to simulate.
    pub spec: MachineSpec,
    /// Frequency policy (the paper pins 2.8 GHz except in §8).
    pub governor: FrequencyGovernor,
    /// Co-run organisation.
    pub env: CoRunEnv,
    /// Benchmarks the random co-runner mix draws from.
    pub mix_pool: Vec<Benchmark>,
    /// RNG seed for the mix (experiments are fully deterministic).
    pub seed: u64,
    /// Warm-up time before the first measurement, ms.
    pub warmup_ms: u64,
    /// Instruction-count scale applied to co-runner profiles (tests use
    /// small values; per-instruction behaviour is unchanged).
    pub mix_scale: f64,
}

impl HarnessConfig {
    /// Defaults matching §7.1: 26 co-runners one-per-core, the full
    /// Table-1 mix, 300 ms warm-up, pinned frequency.
    pub fn new(spec: MachineSpec) -> Self {
        let governor = FrequencyGovernor::fixed(spec.frequency_ghz);
        HarnessConfig {
            spec,
            governor,
            env: CoRunEnv::OnePerCore { co_runners: 26 },
            mix_pool: suite::benchmarks(),
            seed: 0xC0FFEE,
            warmup_ms: 300,
            mix_scale: 1.0,
        }
    }

    /// Sets the co-run environment.
    pub fn env(mut self, env: CoRunEnv) -> Self {
        self.env = env;
        self
    }

    /// Sets the frequency governor (§8 passes a turbo governor).
    pub fn governor(mut self, governor: FrequencyGovernor) -> Self {
        self.governor = governor;
        self
    }

    /// Sets the co-runner mix pool (§8 "Heavy Congestion" passes the
    /// eight memory-intensive picks).
    pub fn mix_pool(mut self, pool: Vec<Benchmark>) -> Self {
        self.mix_pool = pool;
        self
    }

    /// Sets the mix RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the warm-up duration in ms.
    pub fn warmup_ms(mut self, ms: u64) -> Self {
        self.warmup_ms = ms;
        self
    }

    /// Sets the co-runner profile scale.
    pub fn mix_scale(mut self, scale: f64) -> Self {
        self.mix_scale = scale;
        self
    }
}

/// A running congested machine with a measurement slot — the
/// experimental apparatus shared by every evaluation figure.
#[derive(Debug)]
pub struct CoRunHarness {
    sim: Simulator,
    pool: BackfillPool,
    test_placement: Placement,
    env: CoRunEnv,
    draining: bool,
}

impl CoRunHarness {
    /// Boots the environment: launches the co-runners and warms the
    /// machine up to steady state.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::EnvTooLarge`] if the environment does not fit.
    /// * [`PlatformError::EmptyMix`] for an empty mix pool.
    /// * [`PlatformError::Sim`] on launch failures.
    pub fn start(config: HarnessConfig) -> Result<Self> {
        let needed = config.env.cores_needed();
        if needed > config.spec.cores {
            return Err(PlatformError::EnvTooLarge {
                needed,
                cores: config.spec.cores,
            });
        }
        let mix = WorkloadMix::new(config.mix_pool.clone(), config.seed)
            .ok_or(PlatformError::EmptyMix)?
            .with_scale(config.mix_scale);
        let (filler_placement, test_placement) = match config.env {
            CoRunEnv::OnePerCore { co_runners } => (
                Placement::pool_range(1, co_runners + 1),
                Placement::pinned(0),
            ),
            CoRunEnv::Shared { cores, .. } => (
                Placement::pool_range(0, cores),
                Placement::pool_range(0, cores),
            ),
        };
        let mut sim = Simulator::with_governor(config.spec.clone(), config.governor);
        let mut pool = BackfillPool::from_mix(mix, filler_placement);
        pool.fill(&mut sim, config.env.co_runners())?;
        pool.run(&mut sim, config.warmup_ms)?;
        Ok(CoRunHarness {
            sim,
            pool,
            test_placement,
            env: config.env,
            draining: false,
        })
    }

    /// Puts the machine into drain: co-runners already executing finish
    /// but are no longer replaced, so the machine winds down to idle.
    /// Used when a cluster retires a machine. Draining is one-way — a
    /// retired machine is dropped, not reused.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Whether the machine is draining (backfill stopped).
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// The co-run environment.
    pub fn env(&self) -> CoRunEnv {
        self.env
    }

    /// The underlying simulator (congestion introspection for Fig. 7
    /// style monitoring).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Runs `profile` in the measurement slot to completion, keeping
    /// the co-runners backfilled throughout.
    ///
    /// # Errors
    ///
    /// Propagates launch/backfill failures.
    pub fn measure(&mut self, profile: ExecutionProfile) -> Result<ExecutionReport> {
        let id = self.sim.launch(profile, self.test_placement.clone())?;
        Ok(self.pool.run_until(&mut self.sim, id)?)
    }

    /// Advances the congested machine by `ms` without measuring.
    ///
    /// # Errors
    ///
    /// Propagates backfill failures.
    pub fn advance(&mut self, ms: u64) -> Result<()> {
        Ok(self.pool.run(&mut self.sim, ms)?)
    }

    /// Launches `profile` in the measurement slot *without* running it
    /// to completion — callers drive progress with [`CoRunHarness::step`]
    /// and harvest the report when the returned id completes. This is
    /// the building block external schedulers (e.g. a cluster driver)
    /// use to interleave many in-flight invocations on one machine.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn submit(&mut self, profile: ExecutionProfile) -> Result<InstanceId> {
        Ok(self.sim.launch(profile, self.test_placement.clone())?)
    }

    /// Advances the machine by exactly one scheduling quantum, keeping
    /// the co-runner population backfilled, and returns the quantum's
    /// completion events (which may include ids from
    /// [`CoRunHarness::submit`]).
    ///
    /// # Errors
    ///
    /// Propagates backfill launch failures.
    pub fn step(&mut self) -> Result<Vec<Event>> {
        let events = self.sim.step();
        if !self.draining {
            self.pool.backfill(&mut self.sim, &events)?;
        }
        Ok(events)
    }

    /// Advances the machine up to local sim time `until_ms` while its
    /// last quantum's plan stays stable, in one call
    /// ([`Simulator::advance_stable`]), and returns the quanta advanced
    /// (0 when the plan is not stable). Bit-identical to calling
    /// [`CoRunHarness::step`] once per quantum: the advance completes
    /// nothing, so backfill has nothing to replace.
    #[inline]
    pub fn advance_stable(&mut self, until_ms: u64) -> u64 {
        self.sim.advance_stable(until_ms)
    }

    /// Fast-forwards an *idle* machine (no active instances, serving or
    /// filler) to local sim time `target_ms` without stepping every
    /// quantum — bit-identical to calling [`CoRunHarness::step`] once
    /// per quantum, because an idle simulator's state is a fixed point
    /// after one settling quantum ([`Simulator::skip_idle_to`]) and
    /// backfill only reacts to completion events, of which an idle
    /// machine produces none. A no-op when `target_ms` is in the past.
    ///
    /// # Errors
    ///
    /// Propagates [`litmus_sim::SimError::SkipWhileActive`] when the
    /// machine is not idle.
    pub fn fast_forward_to(&mut self, target_ms: u64) -> Result<()> {
        Ok(self.sim.skip_idle_to(target_ms)?)
    }

    /// The report of a completed instance (see [`CoRunHarness::submit`]).
    ///
    /// # Errors
    ///
    /// Propagates [`litmus_sim::SimError`] for unknown or still-running
    /// instances.
    pub fn report(&self, id: InstanceId) -> Result<ExecutionReport> {
        Ok(self.sim.report(id)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(env: CoRunEnv) -> HarnessConfig {
        HarnessConfig::new(MachineSpec::cascade_lake())
            .env(env)
            .mix_scale(0.05)
            .warmup_ms(100)
    }

    #[test]
    fn env_accounting() {
        let one = CoRunEnv::OnePerCore { co_runners: 26 };
        assert_eq!(one.cores_needed(), 27);
        assert_eq!(one.co_runners(), 26);
        assert_eq!(one.functions_per_core(), 1.0);
        let shared = CoRunEnv::Shared {
            co_runners: 159,
            cores: 16,
        };
        assert_eq!(shared.cores_needed(), 16);
        assert_eq!(shared.functions_per_core(), 10.0);
    }

    #[test]
    fn oversized_env_is_rejected() {
        let config = fast_config(CoRunEnv::OnePerCore { co_runners: 32 });
        assert!(matches!(
            CoRunHarness::start(config),
            Err(PlatformError::EnvTooLarge { .. })
        ));
    }

    #[test]
    fn harness_keeps_corunners_alive_and_measures() {
        let config = fast_config(CoRunEnv::OnePerCore { co_runners: 8 });
        let mut harness = CoRunHarness::start(config).unwrap();
        assert_eq!(harness.sim().active_instances(), 8);
        let profile = suite::by_name("auth-go")
            .unwrap()
            .profile()
            .scaled(0.05)
            .unwrap();
        let report = harness.measure(profile).unwrap();
        assert_eq!(report.name, "auth-go");
        // Population unchanged after the measurement completes.
        assert_eq!(harness.sim().active_instances(), 8);
    }

    #[test]
    fn congested_measurement_is_slower_than_solo() {
        let profile = suite::by_name("bfs-py")
            .unwrap()
            .profile()
            .scaled(0.05)
            .unwrap();
        let mut solo_sim = Simulator::new(MachineSpec::cascade_lake());
        let id = solo_sim
            .launch(profile.clone(), Placement::pinned(0))
            .unwrap();
        let solo = solo_sim.run_to_completion(id).unwrap();

        let config = fast_config(CoRunEnv::OnePerCore { co_runners: 20 });
        let mut harness = CoRunHarness::start(config).unwrap();
        let congested = harness.measure(profile).unwrap();
        assert!(congested.wall_ms() > solo.wall_ms() * 1.02);
    }

    #[test]
    fn shared_env_time_shares_the_pool() {
        let config = fast_config(CoRunEnv::Shared {
            co_runners: 31,
            cores: 4,
        });
        let mut harness = CoRunHarness::start(config).unwrap();
        let profile = suite::by_name("auth-go")
            .unwrap()
            .profile()
            .scaled(0.05)
            .unwrap();
        let report = harness.measure(profile).unwrap();
        // Heavily shared pool: wall time must far exceed busy time.
        let busy = report.busy_ms(2.8);
        assert!(
            report.wall_ms() > busy * 3.0,
            "wall {} vs busy {busy}",
            report.wall_ms()
        );
        assert!(report.counters.context_switches > 0.0);
    }

    #[test]
    fn draining_stops_backfill_and_winds_down() {
        let config = fast_config(CoRunEnv::Shared {
            co_runners: 6,
            cores: 4,
        });
        let mut harness = CoRunHarness::start(config).unwrap();
        assert!(!harness.is_draining());
        assert_eq!(harness.sim().active_instances(), 6);
        harness.drain();
        assert!(harness.is_draining());
        // With backfill stopped, the filler population must strictly
        // shrink as co-runners complete, and never recover.
        let mut low_water = harness.sim().active_instances();
        for _ in 0..5_000 {
            let _ = harness.step().unwrap();
            let active = harness.sim().active_instances();
            assert!(active <= low_water, "backfill ran while draining");
            low_water = active;
            if active == 0 {
                break;
            }
        }
        assert_eq!(low_water, 0, "fillers never wound down");
    }

    #[test]
    fn advance_makes_progress() {
        let config = fast_config(CoRunEnv::OnePerCore { co_runners: 4 });
        let mut harness = CoRunHarness::start(config).unwrap();
        let t0 = harness.sim().now_ms();
        harness.advance(50).unwrap();
        assert_eq!(harness.sim().now_ms(), t0 + 50);
    }
}
