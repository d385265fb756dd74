//! Shape assertions against the paper's published numbers.
//!
//! These use reduced scales (shorter bodies, fewer reps) so they stay
//! test-suite friendly; the bands are correspondingly loose. The
//! full-scale numbers are printed by the `litmus-repro` binary (README,
//! *Reproducing paper figures*).

use litmus::prelude::*;

/// Paper Fig. 2/3: with ~26 co-runners, functions slow ≈11.5% on
/// average; `T_shared` inflates hugely while `T_private` barely moves.
#[test]
fn corun_slowdown_landscape_matches_figs_2_and_3() {
    let spec = MachineSpec::cascade_lake();
    let scale = 0.04;
    let probe_set = ["aes-py", "pager-py", "float-py", "cur-nj", "fib-go"];

    let mut slowdowns = Vec::new();
    let mut priv_ratios = Vec::new();
    let mut shared_ratios = Vec::new();
    for name in probe_set {
        let profile = suite::by_name(name)
            .unwrap()
            .profile()
            .scaled(scale)
            .unwrap();
        // Solo.
        let mut sim = Simulator::new(spec.clone());
        let id = sim.launch(profile.clone(), Placement::pinned(0)).unwrap();
        let solo = sim.run_to_completion(id).unwrap();
        // Congested.
        let config = HarnessConfig::new(spec.clone())
            .env(CoRunEnv::OnePerCore { co_runners: 26 })
            .mix_scale(scale)
            .warmup_ms(100);
        let mut harness = CoRunHarness::start(config).unwrap();
        let congested = harness.measure(profile).unwrap();

        slowdowns.push(congested.wall_ms() / solo.wall_ms());
        priv_ratios.push(
            congested.counters.t_private_per_instruction()
                / solo.counters.t_private_per_instruction(),
        );
        shared_ratios.push(
            congested.counters.t_shared_per_instruction()
                / solo.counters.t_shared_per_instruction(),
        );
    }
    let gmean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    let slow = gmean(&slowdowns);
    let p = gmean(&priv_ratios);
    let s = gmean(&shared_ratios);
    assert!(
        (1.04..1.30).contains(&slow),
        "gmean slowdown {slow} (paper ≈1.115)"
    );
    assert!(
        (1.0..1.10).contains(&p),
        "T_private inflation {p} (paper ≈1.04)"
    );
    assert!(s > 1.5, "T_shared inflation {s} (paper ≈2.81)");
    assert!(s > p * 1.4, "shared must dominate private inflation");
}

/// Paper Fig. 6: startups of the same language are near-identical; the
/// three languages have very different lengths (Go < Python < Node.js).
#[test]
fn startup_signatures_match_fig6() {
    let spec = MachineSpec::cascade_lake();
    let mut walls = Vec::new();
    for lang in Language::ALL {
        let baseline = StartupBaseline::measure(&spec, lang).unwrap();
        walls.push((lang, baseline.wall_ms));
    }
    let wall = |l: Language| walls.iter().find(|w| w.0 == l).unwrap().1;
    assert!(wall(Language::Go) < wall(Language::Python));
    assert!(wall(Language::Python) < wall(Language::NodeJs));
    // Two functions of the same language share the same startup probe.
    let a = suite::by_name("aes-py").unwrap().profile();
    let b = suite::by_name("pager-py").unwrap().profile();
    assert_eq!(a.phases()[..a.startup_len()], b.phases()[..b.startup_len()]);
}

/// Paper Fig. 9: startup slowdown correlates strongly with reference
/// slowdown (R² 0.836–0.989 across components and generators).
#[test]
fn startup_to_reference_regressions_match_fig9() {
    let tables = TableBuilder::new(MachineSpec::cascade_lake())
        .levels([4, 10, 16, 22, 28])
        .languages([Language::Python])
        .reference_scale(0.02)
        .build()
        .unwrap();
    let model = DiscountModel::fit(&tables).unwrap();
    let (ct, mb) = model.generator_models(Language::Python).unwrap();
    for gm in [ct, mb] {
        assert!(
            gm.shared_fit().r_squared() > 0.75,
            "{:?}: shared R² {} (paper ≥0.84)",
            gm.generator(),
            gm.shared_fit().r_squared()
        );
        assert!(
            gm.private_fit().r_squared() > 0.6,
            "{:?}: private R² {}",
            gm.generator(),
            gm.private_fit().r_squared()
        );
        // Slowdowns map positively.
        assert!(gm.shared_fit().slope() > 0.0);
    }
}

/// Paper Fig. 14: the temporal-sharing overhead on `T_private` grows
/// logarithmically and saturates around 20 co-resident functions.
#[test]
fn switch_overhead_matches_fig14() {
    let spec = MachineSpec::cascade_lake();
    let scale = 0.02;
    let profile = suite::by_name("aes-py")
        .unwrap()
        .profile()
        .scaled(scale)
        .unwrap();

    let t_priv_at = |count: usize| {
        let mut sim = Simulator::new(spec.clone());
        // `count` functions sharing core 0 (including the probe).
        let mut pool = BackfillPool::new(suite::benchmarks(), 9, Placement::pinned(0)).unwrap();
        if count > 1 {
            pool.fill(&mut sim, count - 1).unwrap();
            pool.run(&mut sim, 50).unwrap();
        }
        let id = sim.launch(profile.clone(), Placement::pinned(0)).unwrap();
        let report = pool.run_until(&mut sim, id).unwrap();
        report.counters.t_private_per_instruction()
    };

    let solo = t_priv_at(1);
    let at5 = t_priv_at(5) / solo;
    let at10 = t_priv_at(10) / solo;
    let at22 = t_priv_at(22) / solo;
    assert!(at5 > 1.0, "sharing inflates T_private, got {at5}");
    assert!(at10 >= at5 * 0.999, "growth is monotone: {at5} → {at10}");
    assert!(
        (1.005..1.08).contains(&at10),
        "≈1.025 at 10 functions/core (paper Fig. 14), got {at10}"
    );
    // Saturation: the 10 → 22 step is smaller than the 1 → 5 step.
    assert!(
        at22 - at10 < (at5 - 1.0) + 0.02,
        "saturating: {at10} → {at22}"
    );
}

/// Paper Fig. 1: CT-Gen dominates L2 misses, MB-Gen dominates L3
/// misses, and both scale with thread count.
#[test]
fn traffic_generators_match_fig1() {
    let spec = MachineSpec::cascade_lake();
    let run = |gen: TrafficGenerator, level: usize| {
        let mut sim = Simulator::new(spec.clone());
        let ids: Vec<_> = (0..level)
            .map(|core| {
                sim.launch(gen.thread_profile(30.0), Placement::pinned(core))
                    .unwrap()
            })
            .collect();
        sim.run_until_idle().unwrap();
        let mut l2 = 0.0;
        let mut l3 = 0.0;
        for id in ids {
            let r = sim.report(id).unwrap();
            l2 += r.counters.l2_misses;
            l3 += r.counters.l3_misses;
        }
        (l2, l3)
    };
    let (ct_l2_lo, _) = run(TrafficGenerator::CtGen, 4);
    let (ct_l2_hi, ct_l3_hi) = run(TrafficGenerator::CtGen, 16);
    let (mb_l2_hi, mb_l3_hi) = run(TrafficGenerator::MbGen, 16);
    assert!(ct_l2_hi > ct_l2_lo * 2.0, "CT L2 misses scale with threads");
    assert!(ct_l2_hi > mb_l2_hi, "CT-Gen dominates L2 misses (Fig. 1a)");
    assert!(
        mb_l3_hi > ct_l3_hi * 5.0,
        "MB-Gen dominates L3 misses (Fig. 1b)"
    );
}
