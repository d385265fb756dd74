//! Property-based tests on simulator invariants.

use litmus_sim::{
    ContentionInputs, ContentionModel, Event, ExecPhase, ExecutionProfile, ExecutionReport,
    InstanceId, InstanceState, MachineSpec, Placement, Simulator,
};
use proptest::prelude::*;

fn arb_phase() -> impl Strategy<Value = ExecPhase> {
    (
        1.0e5f64..5.0e7, // instructions
        0.2f64..2.0,     // cpi_private
        0.0f64..20.0,    // l2_mpki
        0.0f64..1.0,     // l3_miss_ratio
        0.1f64..1.0,     // blocking
        0.5f64..120.0,   // footprint
    )
        .prop_map(|(i, cpi, mpki, ratio, blocking, fp)| {
            ExecPhase::new(i, cpi, mpki, ratio, blocking, fp)
        })
}

fn profile_from(phases: Vec<ExecPhase>) -> ExecutionProfile {
    let mut builder = ExecutionProfile::builder("prop");
    for p in phases {
        builder = builder.phase(p);
    }
    builder.build().expect("arbitrary phases are in-range")
}

/// Two sockets with two-way SMT, so that stepping crosses sharing
/// domains and pairs SMT siblings.
fn dual_smt() -> MachineSpec {
    let mut spec = MachineSpec::cascade_lake_dual();
    spec.smt_ways = 2;
    spec
}

/// A profile short enough to finish within tens of quanta, with a
/// startup prefix half the time.
fn arb_short_profile() -> impl Strategy<Value = ExecutionProfile> {
    (arb_phase(), arb_phase(), 0usize..2, 0.01f64..0.2).prop_map(
        |(startup, body, with_startup, scale)| {
            let mut builder = ExecutionProfile::builder("short");
            if with_startup == 1 {
                builder = builder.startup_phase(startup);
            }
            builder
                .phase(body)
                .build()
                .and_then(|p| p.scaled(scale))
                .expect("arbitrary phases are in-range")
        },
    )
}

/// Pinned or pooled on the few cores around the socket boundary (16),
/// so that contexts time-share cores and pools span both domains.
fn arb_placement() -> impl Strategy<Value = Placement> {
    (0usize..2, 14usize..18, 1usize..4).prop_map(|(pooled, core, width)| {
        if pooled == 1 {
            Placement::pool_range(core, core + width)
        } else {
            Placement::pinned(core)
        }
    })
}

/// Rounds of launches, each followed by a number of quanta.
fn arb_rounds() -> impl Strategy<Value = Vec<(Vec<(ExecutionProfile, Placement)>, u64)>> {
    prop::collection::vec(
        (
            prop::collection::vec((arb_short_profile(), arb_placement()), 0..5),
            1u64..12,
        ),
        1..8,
    )
}

/// One step, checking the invariants the active list relies on: the
/// active count equals the ids whose state is `Active`, and completions
/// come in strictly ascending instance order.
fn checked_step(sim: &mut Simulator, ids: &[InstanceId]) -> Result<(), TestCaseError> {
    let done: Vec<InstanceId> = sim
        .step()
        .into_iter()
        .map(|Event::Completed { id, .. }| id)
        .collect();
    prop_assert!(
        done.windows(2).all(|pair| pair[0] < pair[1]),
        "completions out of instance order: {done:?}"
    );
    let active = ids
        .iter()
        .filter(|&&id| sim.state(id) == Ok(InstanceState::Active))
        .count();
    prop_assert_eq!(sim.active_instances(), active);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counters are internally consistent for any workload:
    /// instructions exactly match the profile, T_priv + T_shared equals
    /// total cycles, and L3 misses never exceed L2 misses.
    #[test]
    fn pmu_accounting_is_consistent(phases in prop::collection::vec(arb_phase(), 1..4)) {
        let profile = profile_from(phases);
        let expected_instr = profile.total_instructions();
        let mut sim = Simulator::new(MachineSpec::cascade_lake());
        let id = sim.launch(profile, Placement::pinned(0)).unwrap();
        let report = sim.run_to_completion(id).unwrap();
        let c = report.counters;
        prop_assert!((c.instructions - expected_instr).abs() < 1.0);
        prop_assert!(
            (c.t_private_cycles() + c.t_shared_cycles() - c.cycles).abs()
                < 1e-6 * c.cycles
        );
        prop_assert!(c.l3_misses <= c.l2_misses * (1.0 + 1e-9));
        prop_assert!(c.cycles > 0.0);
        prop_assert!(report.wall_ms() > 0.0);
    }

    /// Adding co-runners never speeds a workload up.
    #[test]
    fn corunners_never_speed_things_up(
        phase in arb_phase(),
        noise in arb_phase(),
        corunners in 1usize..12,
    ) {
        let profile = profile_from(vec![phase]);
        let mut solo = Simulator::new(MachineSpec::cascade_lake());
        let id = solo.launch(profile.clone(), Placement::pinned(0)).unwrap();
        let solo_report = solo.run_to_completion(id).unwrap();

        let mut busy = Simulator::new(MachineSpec::cascade_lake());
        for core in 1..=corunners {
            // Long-lived noise so it outlasts the measured workload.
            let noise_profile = profile_from(vec![ExecPhase::new(
                1.0e10,
                noise.cpi_private,
                noise.l2_mpki,
                noise.l3_miss_ratio,
                noise.blocking,
                noise.footprint_mb,
            )]);
            busy.launch(noise_profile, Placement::pinned(core)).unwrap();
        }
        let id = busy.launch(profile, Placement::pinned(0)).unwrap();
        let busy_report = busy.run_to_completion(id).unwrap();
        prop_assert!(
            busy_report.counters.cycles >= solo_report.counters.cycles * 0.999,
            "solo {} vs congested {}",
            solo_report.counters.cycles,
            busy_report.counters.cycles
        );
    }

    /// The contention model is monotone: more traffic never lowers
    /// latencies, and utilisations scale with demand.
    #[test]
    fn contention_model_is_monotone(
        l2_rate in 0.0f64..3.0e6,
        l3_rate in 0.0f64..2.0e6,
        footprint in 0.0f64..4096.0,
        bump in 1.01f64..3.0,
    ) {
        let model = ContentionModel::new(MachineSpec::cascade_lake());
        let l3_rate = l3_rate.min(l2_rate); // L3 misses ⊆ L2 misses
        let base = model.evaluate(
            ContentionInputs {
                l2_miss_rate: l2_rate,
                l3_miss_rate: l3_rate,
                total_footprint_mb: footprint,
            },
            8,
        );
        let more = model.evaluate(
            ContentionInputs {
                l2_miss_rate: l2_rate * bump,
                l3_miss_rate: l3_rate * bump,
                total_footprint_mb: footprint * bump,
            },
            8,
        );
        prop_assert!(more.l3_latency >= base.l3_latency);
        prop_assert!(more.mem_latency >= base.mem_latency);
        prop_assert!(more.capacity_pressure >= base.capacity_pressure);
        prop_assert!(base.l3_latency.is_finite());
        prop_assert!(more.mem_latency.is_finite());
    }

    /// Scaling a profile scales its cycles near-linearly when alone.
    #[test]
    fn scaled_profiles_scale_cycles(phase in arb_phase(), scale in 1.5f64..4.0) {
        let profile = profile_from(vec![phase]);
        let run = |p: ExecutionProfile| {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            let id = sim.launch(p, Placement::pinned(0)).unwrap();
            sim.run_to_completion(id).unwrap().counters.cycles
        };
        let base = run(profile.clone());
        let scaled = run(profile.scaled(scale).unwrap());
        let ratio = scaled / base;
        prop_assert!(
            (ratio / scale - 1.0).abs() < 0.02,
            "cycles ratio {ratio} vs scale {scale}"
        );
    }

    /// Determinism: identical launch sequences give identical counters.
    #[test]
    fn simulation_is_reproducible(phases in prop::collection::vec(arb_phase(), 1..3)) {
        let run = || {
            let mut sim = Simulator::new(MachineSpec::cascade_lake());
            let ids: Vec<_> = phases
                .iter()
                .enumerate()
                .map(|(core, &p)| {
                    sim.launch(profile_from(vec![p]), Placement::pinned(core))
                        .unwrap()
                })
                .collect();
            sim.run_until_idle().unwrap();
            ids.into_iter()
                .map(|id| sim.report(id).unwrap().counters)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Completed history is inert: a simulator that launched and
    /// finished a random history, then idled to `T`, runs a new batch
    /// bit-identically to a fresh simulator idled to the same `T`.
    #[test]
    fn completed_history_is_inert(
        history in arb_rounds(),
        batch in prop::collection::vec((arb_short_profile(), arb_placement()), 1..16),
        gap in 1u64..40,
    ) {
        let mut old = Simulator::new(dual_smt());
        for (launches, quanta) in history {
            for (profile, placement) in launches {
                old.launch(profile, placement).unwrap();
            }
            old.run_for_ms(quanta);
        }
        old.run_until_idle().unwrap();
        let at = old.now_ms() + gap;
        old.skip_idle_to(at).unwrap();
        let mut fresh = Simulator::new(dual_smt());
        fresh.skip_idle_to(at).unwrap();

        let run = |sim: &mut Simulator| -> Vec<ExecutionReport> {
            let ids: Vec<_> = batch
                .iter()
                .map(|(profile, placement)| {
                    sim.launch_sampled(profile.clone(), placement.clone()).unwrap()
                })
                .collect();
            sim.run_until_idle().unwrap();
            ids.into_iter().map(|id| sim.report(id).unwrap()).collect()
        };
        prop_assert_eq!(run(&mut old), run(&mut fresh));
    }

    /// Over random launch/step interleavings with pinned and pooled
    /// placements and startup phases, every step keeps the active count
    /// exact and reports completions in instance order, through to the
    /// final drain.
    #[test]
    fn active_count_and_completion_order_hold(rounds in arb_rounds()) {
        let mut sim = Simulator::new(dual_smt());
        let mut ids = Vec::new();
        for (launches, quanta) in rounds {
            for (profile, placement) in launches {
                ids.push(sim.launch(profile, placement).unwrap());
            }
            for _ in 0..quanta {
                checked_step(&mut sim, &ids)?;
            }
        }
        let deadline = sim.now_ms() + 100_000;
        while sim.active_instances() > 0 {
            prop_assert!(sim.now_ms() < deadline, "short profiles must drain");
            checked_step(&mut sim, &ids)?;
        }
    }
}
