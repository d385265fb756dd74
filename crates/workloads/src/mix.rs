use litmus_sim::ExecutionProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::benchmark::Benchmark;

/// Randomised co-runner source implementing the paper's §4/§7.1
/// protocol: "whenever a function finishes, a new randomly-selected
/// function is launched to maintain a total of N co-running functions".
///
/// Deterministic for a given seed, so every experiment in this
/// repository is exactly reproducible.
///
/// # Examples
///
/// ```
/// use litmus_workloads::{suite, WorkloadMix};
///
/// let mut mix = WorkloadMix::new(suite::benchmarks(), 42).unwrap();
/// let first = mix.next_profile();
/// let mut again = WorkloadMix::new(suite::benchmarks(), 42).unwrap();
/// assert_eq!(first.name(), again.next_profile().name());
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    pool: Vec<Benchmark>,
    rng: StdRng,
    scale: f64,
    /// `pool[i]`'s profile at `scale`, built on its first draw.
    profiles: Vec<Option<ExecutionProfile>>,
}

impl WorkloadMix {
    /// Creates a mix drawing uniformly from `pool` with a fixed seed.
    ///
    /// Returns `None` when `pool` is empty.
    pub fn new(pool: Vec<Benchmark>, seed: u64) -> Option<Self> {
        if pool.is_empty() {
            return None;
        }
        Some(WorkloadMix {
            profiles: vec![None; pool.len()],
            pool,
            rng: StdRng::seed_from_u64(seed),
            scale: 1.0,
        })
    }

    /// Scales every drawn profile's instruction counts by `scale` —
    /// used to shrink experiments in tests without changing any
    /// per-instruction behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a positive finite number.
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite"
        );
        self.scale = scale;
        self.profiles.fill(None);
        self
    }

    /// The benchmarks this mix draws from.
    pub fn pool(&self) -> &[Benchmark] {
        &self.pool
    }

    /// Draws the next random benchmark.
    pub fn next_benchmark(&mut self) -> &Benchmark {
        let idx = self.next_index();
        &self.pool[idx]
    }

    /// Draws the next random benchmark and returns its profile, applying
    /// the configured scale. Each pool entry's profile is built once, on
    /// its first draw; later draws of it return a clone of the same
    /// shared profile. The draws themselves match
    /// [`WorkloadMix::next_benchmark`]'s.
    pub fn next_profile(&mut self) -> ExecutionProfile {
        let idx = self.next_index();
        let scale = self.scale;
        let benchmark = &self.pool[idx];
        self.profiles[idx]
            .get_or_insert_with(|| {
                let profile = benchmark.profile();
                if scale == 1.0 {
                    profile
                } else {
                    profile
                        .scaled(scale)
                        .expect("scale validated in with_scale") // lint:allow(panic-in-lib): with_scale rejected non-finite scale before storing it
                }
            })
            .clone()
    }

    fn next_index(&mut self) -> usize {
        self.rng.gen_range(0..self.pool.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn empty_pool_is_rejected() {
        assert!(WorkloadMix::new(Vec::new(), 1).is_none());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = WorkloadMix::new(suite::benchmarks(), 7).unwrap();
        let mut b = WorkloadMix::new(suite::benchmarks(), 7).unwrap();
        for _ in 0..50 {
            assert_eq!(a.next_benchmark().name(), b.next_benchmark().name());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = WorkloadMix::new(suite::benchmarks(), 1).unwrap();
        let mut b = WorkloadMix::new(suite::benchmarks(), 2).unwrap();
        let same = (0..50)
            .filter(|_| a.next_benchmark().name() == b.next_benchmark().name())
            .count();
        assert!(same < 50, "sequences must differ");
    }

    #[test]
    fn draws_cover_the_pool() {
        let mut mix = WorkloadMix::new(suite::benchmarks(), 3).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(mix.next_benchmark().name());
        }
        assert!(
            seen.len() > 20,
            "1000 draws should cover most of 27 benchmarks, saw {}",
            seen.len()
        );
    }
}
