//! Golden digests of whole simulations, pinned bit for bit.
//!
//! Each scenario steps a simulator quantum by quantum and folds every
//! observable into one FNV-1a digest through `f64::to_bits`: each
//! step's completion events, every domain's congestion snapshot, the
//! machine-wide L3 miss count and, at the end, every instance's full
//! report. Any change to the quantum's arithmetic or scheduling, however
//! small, moves a digest. The first six expected values come from a
//! simulator that rebuilt every intermediate and ran every congestion
//! solve to its full round count each quantum, so they pin the reuse in
//! `Simulator::step` to that straightforward computation, bit for bit.
//! The seventh comes from a simulator that sorted its active contexts by
//! run stamp every quantum, so it pins the kept run queue to that sort.
//! The eighth was computed in a separate checkout of the simulator as it
//! was before the per-domain solve: one joint fixed point over every
//! domain with each slot's miss ratio re-derived every round, slot terms
//! rebuilt in `advance`, and the whole run queue walked every quantum.
//! It pins the per-domain solve, the terms shared with `advance` and the
//! reachable-thread exit to that computation.
//! The ninth was computed in a separate checkout of the simulator as it
//! was before the lone-domain memo, when every lone domain ran its fixed
//! point. Its lone contexts replay the same solves and also meet solves
//! that differ from them only in the quantum's cycles, the domain's
//! capacity pressure or the L3 miss ratio, so it pins the memo's hits to
//! the solves they replace.
//! Built on the public API only.

use litmus_sim::{
    CongestionSnapshot, Event, ExecPhase, ExecutionProfile, ExecutionReport, FrequencyGovernor,
    InstanceId, MachineSpec, Placement, PmuCounters, Simulator,
};

/// FNV-1a over the little-endian bytes of every folded word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn snapshot(&mut self, s: &CongestionSnapshot) {
        self.f64(s.l3_port_utilization);
        self.f64(s.bandwidth_utilization);
        self.f64(s.capacity_pressure);
        self.f64(s.l3_latency);
        self.f64(s.mem_latency);
        self.f64(s.l3_miss_rate);
        self.usize(s.active_contexts);
    }

    fn counters(&mut self, c: &PmuCounters) {
        self.f64(c.cycles);
        self.f64(c.instructions);
        self.f64(c.stall_l2_cycles);
        self.f64(c.l2_misses);
        self.f64(c.l3_misses);
        self.f64(c.context_switches);
    }

    fn report(&mut self, r: &ExecutionReport) {
        for byte in r.name.bytes() {
            self.u64(u64::from(byte));
        }
        self.u64(r.launched_ms);
        self.f64(r.completed_ms);
        self.counters(&r.counters);
        match &r.startup {
            Some(startup) => {
                self.u64(1);
                self.counters(&startup.counters);
                self.f64(startup.wall_ms);
                self.f64(startup.machine_l3_miss_rate);
            }
            None => self.u64(0),
        }
        self.usize(r.samples.len());
        for sample in &r.samples {
            self.u64(sample.time_ms);
            self.f64(sample.instructions);
            self.f64(sample.cycles);
            self.f64(sample.l3_misses);
        }
    }
}

/// A simulator plus the digest of everything it has shown so far.
struct Recorder {
    sim: Simulator,
    ids: Vec<InstanceId>,
    digest: Digest,
}

impl Recorder {
    fn new(sim: Simulator) -> Self {
        Recorder {
            sim,
            ids: Vec::new(),
            digest: Digest::new(),
        }
    }

    fn launch(&mut self, profile: ExecutionProfile, placement: Placement) {
        let id = self.sim.launch(profile, placement).unwrap();
        self.ids.push(id);
    }

    fn launch_sampled(&mut self, profile: ExecutionProfile, placement: Placement) {
        let id = self.sim.launch_sampled(profile, placement).unwrap();
        self.ids.push(id);
    }

    /// Steps once, folds the quantum's observables and returns the
    /// instances that completed in it.
    fn step(&mut self) -> Vec<InstanceId> {
        let mut completed = Vec::new();
        for Event::Completed { id, at_ms } in self.sim.step() {
            self.digest.usize(id.as_usize());
            self.digest.f64(at_ms);
            completed.push(id);
        }
        self.digest.u64(self.sim.now_ms());
        for domain in 0..self.sim.spec().sockets {
            let snapshot = *self.sim.domain_congestion(domain).unwrap();
            self.digest.snapshot(&snapshot);
        }
        self.digest.f64(self.sim.machine_l3_misses());
        completed
    }

    fn steps(&mut self, quanta: u64) {
        for _ in 0..quanta {
            self.step();
        }
    }

    fn drain(&mut self) {
        while self.sim.active_instances() > 0 {
            assert!(self.sim.now_ms() < 1_000_000, "scenario must drain");
            self.step();
        }
    }

    /// Drains, folds every report, and returns the digest.
    fn finish(mut self) -> u64 {
        self.drain();
        for &id in &self.ids {
            let report = self.sim.report(id).unwrap();
            self.digest.report(&report);
        }
        self.digest.0
    }
}

/// Phase `kind` (mod 4) of a small zoo: compute-bound, memory-bound,
/// cache-hungry and middling, so that phase changes move every input of
/// the congestion solve.
fn phase(kind: usize, instructions: f64) -> ExecPhase {
    match kind % 4 {
        0 => ExecPhase::new(instructions, 0.5, 1.0, 0.1, 0.7, 4.0),
        1 => ExecPhase::new(instructions, 0.6, 30.0, 0.7, 0.85, 24.0),
        2 => ExecPhase::new(instructions, 0.8, 12.0, 0.3, 0.8, 40.0),
        _ => ExecPhase::new(instructions, 0.4, 6.0, 0.5, 0.6, 12.0),
    }
}

/// A body of `kinds.len()` phases of `instructions` each.
fn body(name: &str, kinds: &[usize], instructions: f64) -> ExecutionProfile {
    let mut builder = ExecutionProfile::builder(name);
    for &kind in kinds {
        builder = builder.phase(phase(kind, instructions));
    }
    builder.build().unwrap()
}

/// A startup prefix of `startup` phases followed by a two-phase body.
fn with_startup(name: &str, startup: usize, first: usize) -> ExecutionProfile {
    let mut builder = ExecutionProfile::builder(name);
    for i in 0..startup {
        builder = builder.startup_phase(phase(first + i, 1.5e6 + 2.5e5 * i as f64));
    }
    builder
        .phase(phase(first + startup, 6.0e6))
        .phase(phase(first + startup + 1, 4.0e6))
        .build()
        .unwrap()
}

fn assert_digest(scenario: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{scenario}: digest {actual:#018x}, expected {expected:#018x}"
    );
}

/// A long multi-phase context alone on core 0, with a visitor that
/// arrives mid-run, shares its core, and completes before it. Then two
/// twins time-share core 1: their phases differ in everything but the
/// footprint, and the first twin leaves its first phase while the
/// second is still in it, so one quantum's plan swaps twin for twin at
/// equal demand and the next at different demand with nothing launched,
/// completed or re-phased in between.
#[test]
fn lone_context_with_a_visitor() {
    let mut rec = Recorder::new(Simulator::new(MachineSpec::cascade_lake()));
    rec.launch(
        body("lone", &[0, 1, 2, 3, 1, 0, 2], 3.0e7),
        Placement::pinned(0),
    );
    rec.steps(40);
    rec.launch(body("visitor", &[1, 3], 8.0e6), Placement::pinned(0));
    rec.steps(5);
    let twin = |name: &str, first: f64| {
        ExecutionProfile::builder(name)
            .phase(ExecPhase::new(first, 0.5, 2.0, 0.2, 0.7, 8.0))
            .phase(ExecPhase::new(1.0e7, 0.7, 20.0, 0.6, 0.9, 8.0))
            .build()
            .unwrap()
    };
    rec.launch(twin("twin-a", 1.0e7), Placement::pinned(1));
    rec.launch(twin("twin-b", 2.5e7), Placement::pinned(1));
    assert_digest(
        "lone_context_with_a_visitor",
        rec.finish(),
        0x7827_fe31_41c1_b1b1,
    );
}

/// 24 multi-phase contexts pooled on 8 cores: the plan rotates every
/// quantum, and contexts finish at staggered times.
#[test]
fn twenty_four_pooled_on_eight_cores() {
    let mut rec = Recorder::new(Simulator::new(MachineSpec::cascade_lake()));
    for i in 0..24 {
        let kinds = [i % 3, (i / 3) % 4, (i + 1) % 2];
        let instructions = 3.0e6 + 7.5e5 * (i % 5) as f64;
        rec.launch(
            body(&format!("pool{i}"), &kinds, instructions),
            Placement::pool_range(0, 8),
        );
    }
    assert_digest(
        "twenty_four_pooled_on_eight_cores",
        rec.finish(),
        0x4fbb_c066_7883_dd39,
    );
}

/// Startup prefixes under `launch_sampled`, launched in waves so that
/// startup windows overlap other contexts' bodies.
#[test]
fn startup_phases_and_sampling() {
    let mut rec = Recorder::new(Simulator::new(MachineSpec::cascade_lake()));
    for wave in 0..3 {
        for i in 0..4 {
            let profile = with_startup(&format!("s{wave}.{i}"), 2 + i, wave + i);
            if (wave + i) % 2 == 0 {
                rec.launch_sampled(profile, Placement::pinned(i));
            } else {
                rec.launch_sampled(profile, Placement::pool_range(2, 6));
            }
        }
        rec.launch(
            body(&format!("plain{wave}"), &[1, 2], 5.0e6),
            Placement::pinned(7),
        );
        rec.steps(6);
    }
    assert_digest(
        "startup_phases_and_sampling",
        rec.finish(),
        0x8c55_0ed0_8da1_ae0f,
    );
}

/// Two sockets with two-way SMT: pinned contexts pair as siblings and
/// time-share, pools span the socket boundary at core 16.
#[test]
fn dual_socket_smt_across_the_boundary() {
    let mut spec = MachineSpec::cascade_lake_dual();
    spec.smt_ways = 2;
    let mut rec = Recorder::new(Simulator::new(spec));
    for i in 0..6 {
        rec.launch(
            body(&format!("pin{i}"), &[i % 4, (i + 2) % 4], 6.0e6),
            Placement::pinned(14 + i % 4),
        );
    }
    for i in 0..6 {
        let placement = if i % 2 == 0 {
            Placement::pool_range(15, 17)
        } else {
            Placement::pool([13, 16, 18])
        };
        rec.launch(
            body(&format!("span{i}"), &[(i + 1) % 4, i % 4, 3], 4.0e6),
            placement,
        );
    }
    rec.steps(12);
    rec.launch(with_startup("late", 3, 1), Placement::pool_range(14, 18));
    assert_digest(
        "dual_socket_smt_across_the_boundary",
        rec.finish(),
        0x4b97_b121_c083_cc15,
    );
}

/// The shape of a time-shared filler machine (§7.2): 20 startup-prefixed
/// fillers rotate through an 8-core pool, each filler that completes is
/// replaced by a fresh one before the next quantum, and a serving launch
/// joins the saturated rotation every seventh quantum. For 2,000 quanta,
/// launches land mid-rotation and completions leave from anywhere in it;
/// then everything drains.
#[test]
fn saturated_pool_with_backfill_and_serving() {
    let pool = || Placement::pool_range(0, 8);
    let filler = |n: usize| with_startup(&format!("fill{n}"), 1 + n % 3, n);
    let mut rec = Recorder::new(Simulator::new(MachineSpec::cascade_lake()));
    let mut fillers = Vec::new();
    for _ in 0..20 {
        rec.launch(filler(fillers.len()), pool());
        fillers.push(*rec.ids.last().unwrap());
    }
    for quantum in 0..2_000usize {
        for id in rec.step() {
            if fillers.contains(&id) {
                rec.launch(filler(fillers.len()), pool());
                fillers.push(*rec.ids.last().unwrap());
            }
        }
        if quantum % 7 == 0 {
            let serve = with_startup(&format!("serve{quantum}"), 2, quantum / 7);
            if quantum % 14 == 0 {
                rec.launch_sampled(serve, pool());
            } else {
                rec.launch(serve, pool());
            }
        }
    }
    assert_digest(
        "saturated_pool_with_backfill_and_serving",
        rec.finish(),
        0xd861_2e1f_4ef0_5ed7,
    );
}

/// One socket with two-way SMT, the shape no other scenario has. Two
/// overlapping pools and a pinned core keep more contexts live than
/// their six cores have hardware threads (12), so some quanta fill all
/// 12 with contexts still queued while the other 26 cores stay free.
/// Startup-prefixed contexts, one of them sampled, rotate through; each
/// completion is replaced before the next quantum for 600 quanta, and a
/// visitor pinned to core 9 widens the occupied cores for part of the
/// run. Then everything drains.
#[test]
fn single_socket_smt_overlapping_pools() {
    let mut spec = MachineSpec::cascade_lake();
    spec.smt_ways = 2;
    let placement = |n: usize| match n % 3 {
        0 => Placement::pool_range(0, 4),
        1 => Placement::pool_range(2, 6),
        _ => Placement::pinned(5),
    };
    let worker = |n: usize| with_startup(&format!("w{n}"), n % 3, n);
    let mut rec = Recorder::new(Simulator::new(spec));
    let mut launched = 0;
    for _ in 0..18 {
        if launched == 4 {
            rec.launch_sampled(worker(launched), placement(launched));
        } else {
            rec.launch(worker(launched), placement(launched));
        }
        launched += 1;
    }
    for quantum in 0..600usize {
        for _ in rec.step() {
            rec.launch(worker(launched), placement(launched));
            launched += 1;
        }
        if quantum == 200 {
            rec.launch(body("visitor", &[1, 2, 0], 4.0e6), Placement::pinned(9));
        }
    }
    assert_digest(
        "single_socket_smt_overlapping_pools",
        rec.finish(),
        0xb219_1198_fde6_657f,
    );
}

/// A turbo governor: the active count crosses the boost threshold in
/// both directions as contexts arrive and finish.
#[test]
fn turbo_governor() {
    let spec = MachineSpec::cascade_lake();
    let governor = FrequencyGovernor::turbo(2.8, 3.9, 4);
    let mut rec = Recorder::new(Simulator::with_governor(spec, governor));
    rec.launch(body("anchor", &[0, 1, 2, 3], 1.5e7), Placement::pinned(0));
    rec.steps(10);
    for i in 1..9 {
        rec.launch(
            body(
                &format!("burst{i}"),
                &[i % 4, (i + 1) % 4],
                2.0e6 * i as f64,
            ),
            Placement::pinned(i),
        );
        rec.steps(2);
    }
    assert_digest("turbo_governor", rec.finish(), 0x8696_89d1_6c11_fedd);
}

/// Idle gaps skipped with `skip_idle_to` between batches, including a
/// skip straight after the last completion (one settling quantum) and
/// one from an already-settled machine.
#[test]
fn skip_idle_gaps() {
    let mut rec = Recorder::new(Simulator::new(MachineSpec::cascade_lake()));
    for batch in 0..4 {
        for i in 0..3 {
            rec.launch(
                body(&format!("b{batch}.{i}"), &[batch + i, i], 3.0e6),
                Placement::pool_range(0, 2),
            );
        }
        rec.drain();
        let at = rec.sim.now_ms() + 17 * (batch as u64 + 1);
        rec.sim.skip_idle_to(at).unwrap();
        rec.digest.u64(rec.sim.now_ms());
        if batch % 2 == 1 {
            rec.step();
            let at = rec.sim.now_ms() + 5;
            rec.sim.skip_idle_to(at).unwrap();
            rec.digest.u64(rec.sim.now_ms());
        }
    }
    assert_digest("skip_idle_gaps", rec.finish(), 0xfdd6_5d22_773f_40ca);
}

/// Lone contexts, each the only one running in its domain, on two
/// sockets under a turbo governor. One startup-prefixed profile is
/// launched alone again and again with idle gaps skipped between, as is
/// a twin that differs from it only in every phase's L3 miss ratio, and
/// once sampled. Then it shares a core with a second context, so its
/// domain runs one context while another is live but descheduled, and
/// runs alone on that core again. Last, it runs on socket 0 while
/// contexts come and go on socket 1 and move the turbo frequency, and
/// once more with socket 1 idle. Then everything drains.
#[test]
fn lone_replays_on_turbo_sockets() {
    let governor = FrequencyGovernor::turbo(2.8, 3.9, 4);
    let mut rec = Recorder::new(Simulator::with_governor(
        MachineSpec::cascade_lake_dual(),
        governor,
    ));
    let solo = with_startup("solo", 1, 1);
    let mut twin = ExecutionProfile::builder("twin");
    for (i, &phase) in solo.phases().iter().enumerate() {
        let phase = ExecPhase {
            l3_miss_ratio: phase.l3_miss_ratio + 0.15,
            ..phase
        };
        twin = if i < solo.startup_len() {
            twin.startup_phase(phase)
        } else {
            twin.phase(phase)
        };
    }
    let twin = twin.build().unwrap();
    let gap = |rec: &mut Recorder, ms: u64| {
        rec.drain();
        let at = rec.sim.now_ms() + ms;
        rec.sim.skip_idle_to(at).unwrap();
        rec.digest.u64(rec.sim.now_ms());
    };
    for round in 0..3 {
        rec.launch(solo.clone(), Placement::pinned(0));
        gap(&mut rec, 9 + round);
        rec.launch(twin.clone(), Placement::pinned(0));
        gap(&mut rec, 4);
    }
    rec.launch_sampled(solo.clone(), Placement::pinned(3));
    gap(&mut rec, 6);
    rec.launch(solo.clone(), Placement::pinned(1));
    rec.launch(body("pair", &[1, 2], 4.0e6), Placement::pinned(1));
    gap(&mut rec, 5);
    rec.launch(solo.clone(), Placement::pinned(1));
    gap(&mut rec, 5);
    rec.launch(solo.clone(), Placement::pinned(2));
    for i in 0..8 {
        rec.launch(
            body(
                &format!("load{i}"),
                &[i % 4, (i + 1) % 4],
                1.5e6 * (i + 1) as f64,
            ),
            Placement::pinned(16 + i),
        );
    }
    gap(&mut rec, 7);
    rec.launch(solo, Placement::pinned(2));
    assert_digest(
        "lone_replays_on_turbo_sockets",
        rec.finish(),
        0x80f6_cb46_4177_b0e2,
    );
}
