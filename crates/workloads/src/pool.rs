use litmus_sim::{
    Event, ExecutionReport, InstanceId, InstanceState, Placement, SimError, Simulator,
};

use crate::benchmark::Benchmark;
use crate::mix::WorkloadMix;

/// Keeps a fixed number of random filler functions alive on a simulator
/// — the paper's launch-on-completion protocol (§4: "whenever a function
/// finishes, a new randomly-selected function is launched to maintain a
/// total of 26 co-running functions").
///
/// # Examples
///
/// ```
/// use litmus_sim::{MachineSpec, Placement, Simulator};
/// use litmus_workloads::{suite, BackfillPool};
///
/// # fn main() -> Result<(), litmus_sim::SimError> {
/// let mut sim = Simulator::new(MachineSpec::cascade_lake());
/// let mut pool = BackfillPool::new(
///     suite::benchmarks(),
///     42,
///     Placement::pool_range(0, 8),
/// ).expect("non-empty pool");
/// pool.fill(&mut sim, 16)?;
/// pool.run(&mut sim, 100)?; // 100 ms with backfill
/// assert_eq!(pool.live(), 16);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct BackfillPool {
    mix: WorkloadMix,
    placement: Placement,
    live: Vec<InstanceId>,
}

impl BackfillPool {
    /// Creates a pool drawing fillers from `pool` with deterministic
    /// `seed`, launching them with `placement`.
    ///
    /// Returns `None` when `pool` is empty.
    pub fn new(pool: Vec<Benchmark>, seed: u64, placement: Placement) -> Option<Self> {
        Some(BackfillPool::from_mix(
            WorkloadMix::new(pool, seed)?,
            placement,
        ))
    }

    /// Creates a pool from a pre-configured [`WorkloadMix`] (e.g. a
    /// scaled one for fast tests).
    pub fn from_mix(mix: WorkloadMix, placement: Placement) -> Self {
        BackfillPool {
            mix,
            placement,
            live: Vec::new(),
        }
    }

    /// Number of currently live fillers.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// The placement fillers are launched with.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Launches fillers until `count` are alive.
    ///
    /// # Errors
    ///
    /// Propagates launch failures (invalid placement for the machine).
    pub fn fill(&mut self, sim: &mut Simulator, count: usize) -> Result<(), SimError> {
        while self.live.len() < count {
            let id = sim.launch(self.mix.next_profile(), self.placement.clone())?;
            self.live.push(id);
        }
        Ok(())
    }

    /// Steps `ms` quanta, backfilling completed fillers.
    ///
    /// # Errors
    ///
    /// Propagates backfill launch failures.
    pub fn run(&mut self, sim: &mut Simulator, ms: u64) -> Result<(), SimError> {
        for _ in 0..ms {
            let events = sim.step();
            self.backfill(sim, &events)?;
        }
        Ok(())
    }

    /// Steps until `target` completes (backfilling fillers throughout)
    /// and returns its report. A target that has already completed
    /// returns its report without stepping.
    ///
    /// # Errors
    ///
    /// Propagates backfill/report failures; [`SimError::UnknownInstance`]
    /// if `target` was never launched.
    pub fn run_until(
        &mut self,
        sim: &mut Simulator,
        target: InstanceId,
    ) -> Result<ExecutionReport, SimError> {
        // Validate the target before stepping forever on a bogus id, and
        // never wait for a completion event that has already fired.
        if sim.state(target)? == InstanceState::Completed {
            return sim.report(target);
        }
        loop {
            let events = sim.step();
            let done = events
                .iter()
                .any(|&Event::Completed { id, .. }| id == target);
            self.backfill(sim, &events)?;
            if done {
                return sim.report(target);
            }
        }
    }

    /// Replaces every completed filler among `events` with a fresh draw.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn backfill(&mut self, sim: &mut Simulator, events: &[Event]) -> Result<(), SimError> {
        for &Event::Completed { id, .. } in events {
            if let Some(pos) = self.live.iter().position(|&l| l == id) {
                self.live.swap_remove(pos);
                let new_id = sim.launch(self.mix.next_profile(), self.placement.clone())?;
                self.live.push(new_id);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use litmus_sim::MachineSpec;

    #[test]
    fn pool_maintains_population() {
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let mut pool =
            BackfillPool::new(suite::benchmarks(), 7, Placement::pool_range(0, 4)).unwrap();
        pool.fill(&mut sim, 8).unwrap();
        assert_eq!(pool.live(), 8);
        // Run long enough for completions to occur, population holds.
        pool.run(&mut sim, 3000).unwrap();
        assert_eq!(pool.live(), 8);
        assert_eq!(sim.active_instances(), 8);
    }

    #[test]
    fn run_until_returns_target_report() {
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let mut pool =
            BackfillPool::new(suite::benchmarks(), 7, Placement::pool_range(1, 5)).unwrap();
        pool.fill(&mut sim, 4).unwrap();
        let target = sim
            .launch(
                suite::by_name("auth-go").unwrap().profile(),
                Placement::pinned(0),
            )
            .unwrap();
        let report = pool.run_until(&mut sim, target).unwrap();
        assert_eq!(report.name, "auth-go");
    }

    #[test]
    fn run_until_rejects_unknown_target() {
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let mut pool =
            BackfillPool::new(suite::benchmarks(), 7, Placement::pool_range(0, 4)).unwrap();
        let bogus = {
            // An id from a different simulator.
            let mut other = Simulator::new(MachineSpec::cascade_lake());
            let id = other
                .launch(
                    suite::by_name("auth-go").unwrap().profile(),
                    Placement::pinned(0),
                )
                .unwrap();
            let _ = other;
            id
        };
        // The id value 0 may exist in `sim` only if something was
        // launched; here nothing was, so it must error.
        assert!(pool.run_until(&mut sim, bogus).is_err());
    }

    #[test]
    fn run_until_returns_at_once_for_completed_target() {
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let mut pool =
            BackfillPool::new(suite::benchmarks(), 7, Placement::pool_range(1, 5)).unwrap();
        pool.fill(&mut sim, 4).unwrap();
        let target = sim
            .launch(
                suite::by_name("auth-go").unwrap().profile(),
                Placement::pinned(0),
            )
            .unwrap();
        let first = pool.run_until(&mut sim, target).unwrap();
        let now = sim.now_ms();
        // A second call must not wait for a completion that already
        // fired: same report, no quantum stepped.
        assert_eq!(pool.run_until(&mut sim, target).unwrap(), first);
        assert_eq!(sim.now_ms(), now);
    }

    #[test]
    fn empty_pool_rejected() {
        assert!(BackfillPool::new(Vec::new(), 1, Placement::pinned(0)).is_none());
    }
}
