use crate::spec::MachineSpec;

/// Aggregate shared-resource demand for one quantum, fed into the
/// [`ContentionModel`].
///
/// All rates are per millisecond (one quantum).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContentionInputs {
    /// Total L2 misses per ms issued by all running contexts
    /// (traffic arriving at the shared L3).
    pub l2_miss_rate: f64,
    /// Total L3 misses per ms (traffic arriving at DRAM).
    pub l3_miss_rate: f64,
    /// Sum of the live cache footprints of all running contexts, MiB.
    pub total_footprint_mb: f64,
}

/// The machine's congestion state for one quantum: utilisations and the
/// effective shared-resource latencies derived from them.
///
/// This is what a Litmus test ultimately observes (indirectly, through
/// the probe's slowdown and the machine L3 miss rate), and what the
/// paper's Fig. 7 sketches as the evolving "congestion level".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionSnapshot {
    /// L3 service-port utilisation (demand / capacity); may exceed 1 at
    /// the demand level, the latency feedback throttles it in equilibrium.
    pub l3_port_utilization: f64,
    /// DRAM bandwidth utilisation.
    pub bandwidth_utilization: f64,
    /// Fraction of would-be L3 hits converted to misses by capacity
    /// pressure this quantum.
    pub capacity_pressure: f64,
    /// Effective L3 hit latency in cycles (inflated by port contention).
    pub l3_latency: f64,
    /// Effective DRAM latency in cycles (inflated by queueing).
    pub mem_latency: f64,
    /// Machine-wide L3 misses per ms observed this quantum.
    pub l3_miss_rate: f64,
    /// Number of contexts that executed this quantum.
    pub active_contexts: usize,
}

impl CongestionSnapshot {
    /// A quiet machine: uncontended latencies, zero utilisation.
    pub fn idle(spec: &MachineSpec) -> Self {
        CongestionSnapshot {
            l3_port_utilization: 0.0,
            bandwidth_utilization: 0.0,
            capacity_pressure: 0.0,
            l3_latency: spec.l3_hit_latency,
            mem_latency: spec.mem_latency,
            l3_miss_rate: 0.0,
            active_contexts: 0,
        }
    }

    /// A scalar "congestion level" in the spirit of paper Fig. 7 —
    /// a weighted blend of the two utilisations, scaled to roughly match
    /// the 0–10 range the figure sketches.
    pub fn level(&self) -> f64 {
        (6.0 * self.l3_port_utilization + 6.0 * self.bandwidth_utilization).min(12.0)
    }
}

/// Pure functions mapping aggregate demand to effective latencies.
///
/// Separated from the engine so the model can be unit-tested and reused
/// by analytical code (e.g. table construction sanity checks).
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionModel {
    spec: MachineSpec,
}

impl ContentionModel {
    /// Creates a model over a machine specification.
    pub fn new(spec: MachineSpec) -> Self {
        ContentionModel { spec }
    }

    /// The underlying machine specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Computes the congestion state produced by `inputs` with
    /// `active_contexts` running contexts.
    pub fn evaluate(&self, inputs: ContentionInputs, active_contexts: usize) -> CongestionSnapshot {
        let capacity_pressure = self.capacity_pressure(inputs.total_footprint_mb);
        self.evaluate_at(inputs, capacity_pressure, active_contexts)
    }

    /// [`ContentionModel::evaluate`] with the footprint's capacity
    /// pressure already computed, for a caller that evaluates one
    /// footprint at many demands. `inputs.total_footprint_mb` is not
    /// read.
    pub(crate) fn evaluate_at(
        &self,
        inputs: ContentionInputs,
        capacity_pressure: f64,
        active_contexts: usize,
    ) -> CongestionSnapshot {
        let spec = &self.spec;
        let u_l3 = inputs.l2_miss_rate / spec.l3_service_lines_per_ms;
        let u_bw = inputs.l3_miss_rate / spec.mem_lines_per_ms;

        let l3_latency = spec.l3_hit_latency * (1.0 + spec.k_ring * u_l3);

        let u_eff = u_bw.min(spec.bw_util_cap);
        let queueing = 1.0 + spec.k_bw * u_eff * u_eff / (1.0 - u_eff);
        let thrash = 1.0 + spec.k_thrash * capacity_pressure;
        let mem_latency = spec.mem_latency * queueing * thrash;

        CongestionSnapshot {
            l3_port_utilization: u_l3,
            bandwidth_utilization: u_bw,
            capacity_pressure,
            l3_latency,
            mem_latency,
            l3_miss_rate: inputs.l3_miss_rate,
            active_contexts,
        }
    }

    /// Fraction of would-be L3 hits converted into misses when the
    /// aggregate working set overflows the cache: zero while everything
    /// fits, then approaching [`MachineSpec::pressure_max`] as the
    /// overflow grows. The square-root shape keeps heavy oversubscription
    /// levels distinguishable (4 GB of live working sets hurts more than
    /// 800 MB, but not 5× more) — matching the diminishing-returns
    /// congestion growth the paper observes between its 160- and
    /// 320-function configurations.
    pub fn capacity_pressure(&self, total_footprint_mb: f64) -> f64 {
        let cap = self.spec.l3_capacity_mb;
        if total_footprint_mb <= cap {
            return 0.0;
        }
        self.spec.pressure_max * (1.0 - (cap / total_footprint_mb).sqrt())
    }

    /// Effective L3 miss ratio for a phase with solo ratio `solo_ratio`
    /// under capacity pressure `pressure`.
    pub fn effective_miss_ratio(&self, solo_ratio: f64, pressure: f64) -> f64 {
        (solo_ratio + (1.0 - solo_ratio) * pressure).clamp(0.0, 1.0)
    }

    /// Post-L2 round-trip latency in cycles for a request stream with the
    /// given effective L3 miss ratio under `snapshot`'s congestion.
    pub fn post_l2_latency(&self, snapshot: &CongestionSnapshot, miss_ratio: f64) -> f64 {
        snapshot.l3_latency + miss_ratio * snapshot.mem_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ContentionModel {
        ContentionModel::new(MachineSpec::cascade_lake())
    }

    #[test]
    fn idle_machine_has_uncontended_latencies() {
        let m = model();
        let snap = m.evaluate(ContentionInputs::default(), 0);
        assert_eq!(snap.l3_latency, m.spec().l3_hit_latency);
        assert_eq!(snap.mem_latency, m.spec().mem_latency);
        assert_eq!(snap.capacity_pressure, 0.0);
        assert_eq!(snap.level(), 0.0);
    }

    #[test]
    fn l3_latency_grows_with_port_traffic() {
        let m = model();
        let lo = m.evaluate(
            ContentionInputs {
                l2_miss_rate: 100_000.0,
                ..Default::default()
            },
            4,
        );
        let hi = m.evaluate(
            ContentionInputs {
                l2_miss_rate: 1_500_000.0,
                ..Default::default()
            },
            31,
        );
        assert!(hi.l3_latency > lo.l3_latency);
        assert!(hi.l3_latency > m.spec().l3_hit_latency * 1.3);
        // L3-only traffic must not inflate memory latency.
        assert_eq!(lo.mem_latency, m.spec().mem_latency);
    }

    #[test]
    fn memory_latency_explodes_near_saturation() {
        let m = model();
        let half = m.evaluate(
            ContentionInputs {
                l3_miss_rate: m.spec().mem_lines_per_ms * 0.5,
                ..Default::default()
            },
            8,
        );
        let near = m.evaluate(
            ContentionInputs {
                l3_miss_rate: m.spec().mem_lines_per_ms * 0.92,
                ..Default::default()
            },
            31,
        );
        assert!(near.mem_latency > half.mem_latency * 2.0);
    }

    #[test]
    fn memory_latency_is_finite_when_oversubscribed() {
        let m = model();
        let snap = m.evaluate(
            ContentionInputs {
                l3_miss_rate: m.spec().mem_lines_per_ms * 5.0,
                ..Default::default()
            },
            31,
        );
        assert!(snap.mem_latency.is_finite());
        assert!(snap.bandwidth_utilization > 1.0);
    }

    #[test]
    fn capacity_pressure_kicks_in_past_capacity() {
        let m = model();
        assert_eq!(m.capacity_pressure(10.0), 0.0);
        assert_eq!(m.capacity_pressure(m.spec().l3_capacity_mb), 0.0);
        let p1 = m.capacity_pressure(m.spec().l3_capacity_mb * 2.0);
        let p2 = m.capacity_pressure(m.spec().l3_capacity_mb * 6.0);
        assert!(p1 > 0.0);
        assert!(p2 > p1);
        assert!(p2 <= m.spec().pressure_max);
    }

    #[test]
    fn effective_miss_ratio_interpolates_to_one() {
        let m = model();
        assert_eq!(m.effective_miss_ratio(0.2, 0.0), 0.2);
        let r = m.effective_miss_ratio(0.2, 0.5);
        assert!((r - 0.6).abs() < 1e-12);
        assert!(m.effective_miss_ratio(0.9, 1.0) <= 1.0);
    }

    #[test]
    fn post_l2_latency_combines_l3_and_memory() {
        let m = model();
        let snap = CongestionSnapshot::idle(m.spec());
        let pure_hit = m.post_l2_latency(&snap, 0.0);
        let pure_miss = m.post_l2_latency(&snap, 1.0);
        assert_eq!(pure_hit, m.spec().l3_hit_latency);
        assert_eq!(pure_miss, m.spec().l3_hit_latency + m.spec().mem_latency);
    }

    #[test]
    fn congestion_level_is_bounded() {
        let m = model();
        let snap = m.evaluate(
            ContentionInputs {
                l2_miss_rate: 1e9,
                l3_miss_rate: 1e9,
                total_footprint_mb: 1e6,
            },
            31,
        );
        assert!(snap.level() <= 12.0);
    }
}
