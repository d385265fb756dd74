use std::collections::BTreeMap;

use litmus_core::{
    CommercialPricing, DiscountModel, IdealPricing, Invoice, LitmusPricing, LitmusReading,
    PricingTables,
};
use litmus_platform::InvocationTrace;
use litmus_sim::{
    ExecutionProfile, ExecutionReport, MachineSpec, Placement, PmuCounters, Simulator,
};
use litmus_workloads::Benchmark;

use crate::error::ClusterError;
use crate::Result;

/// Everything a machine needs to launch an invocation and turn its
/// completion into an [`Invoice`], shared read-only across all machines
/// while they step in parallel: the fitted discount model, the
/// calibration tables (probe baselines) and, per warmed function, the
/// scaled profile every launch runs and the solo-oracle counters for
/// the ideal-price comparison.
#[derive(Debug, Clone)]
pub struct ServingContext {
    pricing: LitmusPricing,
    model: DiscountModel,
    tables: PricingTables,
    scale: f64,
    warmed: BTreeMap<&'static str, Warmed>,
}

/// One warmed function: its profile scaled by the context's scale,
/// built once and shared by every launch (an `Arc` clone), and the
/// counters of that profile's solo run.
#[derive(Debug, Clone)]
struct Warmed {
    profile: ExecutionProfile,
    solo: PmuCounters,
}

impl ServingContext {
    /// Builds a context pricing with `model` against `tables`, scaling
    /// every served function's instruction counts by `scale`
    /// (experiments shrink bodies for speed; per-instruction behaviour
    /// is unchanged).
    pub fn new(tables: PricingTables, model: DiscountModel, scale: f64) -> Self {
        ServingContext {
            pricing: LitmusPricing::new(model.clone()),
            model,
            tables,
            scale,
            warmed: BTreeMap::new(),
        }
    }

    /// The calibration tables (probe baselines, congestion index).
    pub fn tables(&self) -> &PricingTables {
        &self.tables
    }

    /// The fitted discount model.
    pub fn model(&self) -> &DiscountModel {
        &self.model
    }

    /// Warms every distinct function in `trace` with
    /// [`ServingContext::warm_function`] — the offline profiling pass a
    /// provider would do once per deployment.
    ///
    /// Streaming replays don't pre-scan a materialized trace; they call
    /// [`ServingContext::warm_function`] lazily instead. Both paths
    /// produce identical entries: each solo run happens on its own
    /// fresh simulator, so warming order cannot matter.
    ///
    /// # Errors
    ///
    /// Propagates solo-run failures.
    pub fn warm(&mut self, spec: &MachineSpec, trace: &InvocationTrace) -> Result<()> {
        for event in trace.events() {
            self.warm_function(spec, &event.function)?;
        }
        Ok(())
    }

    /// Whether `function` is already warmed.
    pub fn is_warmed(&self, function: &Benchmark) -> bool {
        self.warmed.contains_key(function.name())
    }

    /// Warms `function` (no-op when already warmed): builds its profile
    /// at the context's scale, runs it alone on an idle `spec` machine,
    /// and keeps both the profile, which every later launch of
    /// `function` runs, and the solo counters, which price its
    /// completions.
    ///
    /// # Errors
    ///
    /// Propagates solo-run failures.
    pub fn warm_function(&mut self, spec: &MachineSpec, function: &Benchmark) -> Result<()> {
        let name = function.name();
        if self.warmed.contains_key(name) {
            return Ok(());
        }
        let mut sim = Simulator::new(spec.clone());
        let profile = function
            .profile()
            .scaled(self.scale)
            .map_err(litmus_core::CoreError::from)?;
        let id = sim
            .launch(profile.clone(), Placement::pinned(0))
            .map_err(litmus_core::CoreError::from)?;
        let solo = sim
            .run_to_completion(id)
            .map_err(litmus_core::CoreError::from)?
            .counters;
        self.warmed.insert(name, Warmed { profile, solo });
        Ok(())
    }

    /// Number of warmed functions.
    pub fn warmed_functions(&self) -> usize {
        self.warmed.len()
    }

    /// The scaled profile a launch of `function` runs, shared with every
    /// other launch of it.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownFunction`] when `function` was never
    /// warmed.
    pub(crate) fn profile(&self, function: &Benchmark) -> Result<ExecutionProfile> {
        Ok(self.entry(function)?.profile.clone())
    }

    fn entry(&self, function: &Benchmark) -> Result<&Warmed> {
        self.warmed
            .get(function.name())
            .ok_or(ClusterError::UnknownFunction(function.name()))
    }

    /// Prices one completed invocation and returns the invoice plus the
    /// machine-congestion signal its startup probe produced (the
    /// presumed slowdown of a typical function, ≥ 1 — what
    /// [`crate::LitmusAware`] placement minimises).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownFunction`] when `function` was never
    ///   warmed;
    /// * propagated probe/pricing failures.
    pub fn price(&self, function: &Benchmark, report: &ExecutionReport) -> Result<(Invoice, f64)> {
        let solo = &self.entry(function)?.solo;
        let baseline = self.tables.baseline(function.language())?;
        let startup = report
            .startup
            .as_ref()
            .ok_or(litmus_core::CoreError::NoStartup)?;
        let reading = LitmusReading::from_startup(baseline, startup)?;
        let estimate = self.model.estimate(&reading)?;
        let counters = report.counters;
        let invoice = Invoice {
            function: function.name().to_owned(),
            counters,
            commercial: CommercialPricing::new().price(&counters),
            litmus: self.pricing.price(&reading, &counters)?,
            ideal: IdealPricing::new().price(&counters, solo),
        };
        Ok((invoice, estimate.total_slowdown))
    }
}
