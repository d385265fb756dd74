use litmus_core::{CalibrationEnv, DiscountModel, LitmusPricing, PricingTables, TableBuilder};
use litmus_sim::MachineSpec;

/// Global knobs for the reproduction harness.
///
/// `full()` runs at the fidelity `litmus-repro` uses by default;
/// `fast()` shrinks workloads and repetition counts for smoke runs and
/// CI (`litmus-repro --fast …`).
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Scale applied to workload bodies (1.0 = paper-length functions).
    pub scale: f64,
    /// Scale applied to reference bodies during table construction.
    pub table_scale: f64,
    /// Repetitions per test function in pricing experiments
    /// (the paper uses 30).
    pub reps: usize,
    /// Generator stress levels for table construction.
    pub levels: Vec<usize>,
    /// Warm-up before measurements, ms.
    pub warmup_ms: u64,
}

impl ReproConfig {
    /// Full-fidelity configuration (minutes of runtime for `all`).
    pub fn full() -> Self {
        ReproConfig {
            scale: 0.2,
            table_scale: 0.1,
            reps: 10,
            levels: vec![4, 8, 14, 20, 26, 30],
            warmup_ms: 300,
        }
    }

    /// Smoke-test configuration (seconds of runtime for `all`).
    pub fn fast() -> Self {
        ReproConfig {
            scale: 0.05,
            table_scale: 0.03,
            reps: 2,
            levels: vec![6, 14, 24],
            warmup_ms: 120,
        }
    }

    /// Builds dedicated-environment tables (§7.1 protocol) on `spec`.
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures.
    pub fn dedicated_tables(
        &self,
        spec: &MachineSpec,
    ) -> Result<PricingTables, litmus_core::CoreError> {
        TableBuilder::new(spec.clone())
            .levels(self.levels.iter().copied())
            .reference_scale(self.table_scale)
            .build()
    }

    /// Builds sharing-enabled tables (§7.2 "Method 2": 50 functions
    /// across 5 cores) on `spec`.
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures.
    pub fn shared_tables(
        &self,
        spec: &MachineSpec,
    ) -> Result<PricingTables, litmus_core::CoreError> {
        // Leave room for the generator threads: levels are capped so
        // generators + the 5-core pool fit the machine. Smaller machines
        // (Ice Lake: 16 cores) would be left with too few ladder points,
        // so re-spread the ladder below the cap when needed.
        let max_level = spec.cores.saturating_sub(5);
        let mut levels: Vec<usize> = self
            .levels
            .iter()
            .copied()
            .filter(|&l| l <= max_level)
            .collect();
        if levels.len() < 3 {
            levels = vec![
                (max_level / 3).max(1),
                (2 * max_level / 3).max(2),
                max_level,
            ];
            levels.dedup();
        }
        TableBuilder::new(spec.clone())
            .levels(levels)
            .env(CalibrationEnv::Shared {
                fillers: 50,
                cores: 5,
            })
            .reference_scale((self.table_scale * 0.5).max(0.01))
            .build()
    }

    /// Fits a pricing engine from tables.
    ///
    /// # Errors
    ///
    /// Propagates model-fitting failures.
    pub fn pricing(&self, tables: &PricingTables) -> Result<LitmusPricing, litmus_core::CoreError> {
        Ok(LitmusPricing::new(DiscountModel::fit(tables)?))
    }
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_is_cheaper_than_full() {
        let fast = ReproConfig::fast();
        let full = ReproConfig::full();
        assert!(fast.scale < full.scale);
        assert!(fast.reps < full.reps);
        assert!(fast.levels.len() <= full.levels.len());
    }

    #[test]
    fn shared_tables_cap_levels() {
        let config = ReproConfig::fast();
        let spec = MachineSpec::ice_lake(); // 16 cores
        let tables = config.shared_tables(&spec).unwrap();
        // Levels ≤ 11 must fit generators + 5-core pool.
        for gen in litmus_workloads::TrafficGenerator::ALL {
            for row in tables
                .congestion(litmus_workloads::Language::Python, gen)
                .unwrap()
            {
                assert!(row.level + 5 <= spec.cores);
            }
        }
    }
}
