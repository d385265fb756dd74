//! Property-based tests on workload-model invariants.

use litmus_sim::{MachineSpec, Placement, Simulator};
use litmus_workloads::{suite, Language, TrafficGenerator, WorkloadMix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Profiles stay valid under arbitrary scaling, preserving the
    /// startup/body split and scaling instruction counts exactly.
    #[test]
    fn profiles_scale_cleanly(
        idx in 0usize..27,
        scale in 0.01f64..10.0,
    ) {
        let bench = &suite::benchmarks()[idx];
        let profile = bench.profile();
        let scaled = profile.scaled(scale).unwrap();
        prop_assert_eq!(scaled.startup_len(), profile.startup_len());
        prop_assert!(
            (scaled.total_instructions() - profile.total_instructions() * scale)
                .abs()
                < 1.0
        );
        prop_assert!(
            (scaled.startup_instructions()
                - profile.startup_instructions() * scale)
                .abs()
                < 1.0
        );
    }

    /// Every benchmark runs to completion solo on every machine preset.
    #[test]
    fn benchmarks_complete_on_all_presets(idx in 0usize..27) {
        let bench = &suite::benchmarks()[idx];
        for spec in [
            MachineSpec::cascade_lake(),
            MachineSpec::cascade_lake_dual(),
            MachineSpec::ice_lake(),
        ] {
            let mut sim = Simulator::new(spec);
            let profile = bench.profile().scaled(0.02).unwrap();
            let id = sim.launch(profile, Placement::pinned(0)).unwrap();
            let report = sim.run_to_completion(id).unwrap();
            prop_assert!(report.counters.cycles > 0.0);
            prop_assert!(report.startup.is_some());
        }
    }

    /// The mix draws roughly uniformly: over many draws, every
    /// benchmark appears, and no benchmark dominates.
    #[test]
    fn mix_is_roughly_uniform(seed in 0u64..1000) {
        let mut mix = WorkloadMix::new(suite::benchmarks(), seed).unwrap();
        let mut counts = std::collections::HashMap::new();
        let draws = 27 * 40;
        for _ in 0..draws {
            *counts.entry(mix.next_benchmark().name()).or_insert(0usize) += 1;
        }
        prop_assert!(counts.len() >= 25, "draws cover the pool");
        let max = counts.values().max().copied().unwrap();
        prop_assert!(
            max < draws / 8,
            "no benchmark may dominate a uniform mix (max {max})"
        );
    }

    /// Memoized co-runner draws equal fresh builds: each
    /// `next_profile()` is the profile of the pool entry a same-seed
    /// mix's `next_benchmark()` draws, scaled when the scale is not 1.0.
    /// Draws made before `with_scale` run at 1.0, so the memo must be
    /// dropped when the scale changes.
    #[test]
    fn memoized_profiles_equal_fresh_builds(
        seed in 0u64..1_000_000,
        (before, after) in (0usize..40, 1usize..120),
        scale in (0u32..2, 0.01f64..5.0).prop_map(|(pick, s)| if pick == 0 { 1.0 } else { s }),
    ) {
        let pool = suite::benchmarks();
        let mut memo = WorkloadMix::new(pool.clone(), seed).unwrap();
        let mut fresh = WorkloadMix::new(pool.clone(), seed).unwrap();
        for n in 0..before + after {
            let at = if n < before { 1.0 } else { scale };
            if n == before && scale != 1.0 {
                memo = memo.with_scale(scale);
            }
            let drawn = fresh.next_benchmark();
            let i = pool.iter().position(|b| b == drawn).unwrap();
            let expected = if at == 1.0 {
                pool[i].profile()
            } else {
                pool[i].profile().scaled(at).unwrap()
            };
            prop_assert_eq!(memo.next_profile(), expected);
        }
    }

    /// Generator thread profiles scale linearly with duration and keep
    /// their defining character at any duration.
    #[test]
    fn generator_profiles_scale(duration in 1.0f64..1.0e6) {
        for gen in TrafficGenerator::ALL {
            let one = gen.thread_profile(1.0);
            let many = gen.thread_profile(duration);
            let ratio =
                many.total_instructions() / one.total_instructions();
            prop_assert!((ratio - duration).abs() < 1e-6 * duration.max(1.0));
            let phase = many.phases()[0];
            match gen {
                TrafficGenerator::CtGen => {
                    prop_assert!(phase.l3_miss_ratio < 0.1)
                }
                TrafficGenerator::MbGen => {
                    prop_assert!(phase.l3_miss_ratio > 0.7)
                }
            }
        }
    }
}

#[test]
fn startup_prefixes_are_shared_within_a_language() {
    // Every same-language pair shares an identical startup prefix —
    // the property Litmus tests fundamentally rely on (Fig. 6).
    for lang in Language::ALL {
        let benches: Vec<_> = suite::benchmarks()
            .into_iter()
            .filter(|b| b.language() == lang)
            .collect();
        let first = benches[0].profile();
        let prefix = &first.phases()[..first.startup_len()];
        for bench in &benches[1..] {
            let profile = bench.profile();
            assert_eq!(
                &profile.phases()[..profile.startup_len()],
                prefix,
                "{} must share {lang}'s startup",
                bench.name()
            );
        }
    }
}
