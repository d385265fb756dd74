//! Deterministic, seeded expansion of minute-bucket counts into
//! per-invocation [`TraceEvent`]s, streamed in time order.
//!
//! The Azure trace records *how many* invocations each function saw
//! per minute plus *distribution sketches* of duration and memory; the
//! expander turns that into a concrete multi-tenant workload the
//! simulator can serve:
//!
//! * **apps → [`TenantId`]** — every distinct `owner/app` pair becomes
//!   one billing tenant (memory — and billing — are per app in the
//!   real platform), numbered in sorted-key order so the mapping is
//!   independent of CSV row order;
//! * **functions → [`TenantClass`]** — each function is classified by
//!   its mean duration and its app's mean allocated memory
//!   ([`TenantClass::classify`]), selecting the Table-1 workload pool
//!   whose resource character matches;
//! * **counts → arrivals** — each minute's count is placed inside the
//!   minute either evenly or as a Poisson batch
//!   ([`IntraMinute`]), from an RNG stream keyed by
//!   `(seed, function, minute)` so slicing or subsampling one stream
//!   never perturbs another;
//! * **duration sketch → body** — each invocation draws a duration
//!   quantile, the same uniform draw the function's
//!   [`PercentileSketch`](crate::PercentileSketch) samples with; the
//!   quantile's *rank* picks the benchmark from the class pool (sorted
//!   by solo duration), so a function's fast tail runs the pool's short
//!   bodies and its slow tail the long ones. The simulator's calibrated
//!   bodies stand in for wall-clock durations — what's preserved is
//!   each function's duration *spread*, mapped onto the pool's spread.
//!
//! A minute expands into compact arrival keys — time, tenant, and which
//! function and body — sorted into the canonical `(at_ms, tenant)`
//! order. The [`TraceEvent`], with its own copy of the body, is built
//! only when [`TraceSource::next_event`] hands it out, and
//! [`TraceSource::skip_event`] passes an arrival without building it.
//! A [`crate::TraceTransform::ScaleRate`] ahead of any window skips the
//! events it drops, so a thinned replay pays for placing every arrival
//! but builds only the events it keeps.

use std::collections::BTreeMap;

use litmus_platform::{ConcatSource, InvocationTrace, TenantId, TraceEvent, TraceSource};
use litmus_workloads::suite::{self, TenantClass};
use litmus_workloads::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::azure::{AzureDataset, AzureFunction};
use crate::error::TraceError;
use crate::Result;

/// How a minute's invocation count is placed inside the minute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraMinute {
    /// Evenly spaced on a centered grid — the smoothest arrival stream
    /// the counts admit.
    Even,
    /// Independent uniform offsets — the order statistics of a Poisson
    /// process conditioned on the minute's count, so arrivals clump
    /// the way memoryless traffic does. The default.
    #[default]
    Poisson,
}

/// Configuration of a trace expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpandConfig {
    /// Master seed; every `(function, minute)` pair derives its own
    /// independent stream from it.
    pub seed: u64,
    /// Intra-minute placement of each minute's count.
    pub placement: IntraMinute,
    /// Simulated length of one trace minute, ms. The real trace's
    /// minutes are 60 000 ms; experiments usually compress (a 15-minute
    /// fixture at `minute_ms = 400` replays in 6 simulated seconds).
    pub minute_ms: u64,
}

impl ExpandConfig {
    /// Poisson placement at real-time scale (60 000 ms minutes).
    pub fn new(seed: u64) -> Self {
        ExpandConfig {
            seed,
            placement: IntraMinute::default(),
            minute_ms: 60_000,
        }
    }

    /// Sets the intra-minute placement.
    pub fn placement(mut self, placement: IntraMinute) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the simulated minute length, ms (validated ≥ 1 when the
    /// source is built).
    pub fn minute_ms(mut self, ms: u64) -> Self {
        self.minute_ms = ms;
        self
    }
}

/// One `owner/app` pair's tenant assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAssignment {
    /// The assigned billing tenant.
    pub tenant: TenantId,
    /// Anonymized owning-customer hash.
    pub owner: String,
    /// Anonymized application hash.
    pub app: String,
}

/// Classifies one trace function into the tenant archetype whose
/// workload pool matches its resource character: its mean duration and
/// its app's mean allocated memory (zero when the trace has no memory
/// row for the app), through [`TenantClass::classify`].
///
/// This is the single classification path: the expander calls the same
/// private rule (`classify_with_memory`) with a pre-built per-app
/// lookup instead of the per-call [`AzureDataset::memory_of`] scan.
pub fn classify_function(dataset: &AzureDataset, function: &AzureFunction) -> TenantClass {
    classify_with_memory(
        function,
        dataset
            .memory_of(&function.owner, &function.app)
            .map(|app| app.mean_allocated_mb),
    )
}

/// The classification rule proper: mean duration plus the app's mean
/// allocated memory (`None` — no memory row — counts as zero).
fn classify_with_memory(function: &AzureFunction, memory_mb: Option<f64>) -> TenantClass {
    TenantClass::classify(function.mean_duration_ms, memory_mb.unwrap_or(0.0))
}

/// FNV-1a, the per-function seed-stream key (stable across runs and
/// platforms, unlike `std`'s `DefaultHasher`).
fn fnv1a64(parts: [&str; 3]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for byte in part.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator so ("ab", "c") and ("a", "bc") differ.
        hash ^= 0x1F;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One function's expansion plan.
#[derive(Debug, Clone)]
struct FunctionPlan {
    tenant: TenantId,
    key: u64,
    counts: Vec<u32>,
    /// The class pool, ascending by solo body duration, so a duration
    /// quantile rank indexes straight into it.
    pool: Vec<Benchmark>,
}

/// One expanded arrival before its [`TraceEvent`] is built: the sort
/// key plus where to find its body. Fields compare in declaration
/// order, and `order` (the position in expansion order) is unique
/// within a minute, so an unstable sort of arrivals equals a stable
/// sort by `(at_ms, tenant)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    at_ms: u64,
    tenant: TenantId,
    order: usize,
    plan: usize,
    pool: u32,
}

/// Streaming [`TraceSource`] over an expanded Azure trace: minutes are
/// expanded one at a time (memory stays proportional to the busiest
/// minute, never the trace), each minute's arrivals sorted into the
/// canonical `(at_ms, tenant)` order — so streaming is bit-identical
/// to materializing via [`AzureDataset::expand`] at the same seed.
///
/// Only the current minute's sorted arrival keys are buffered:
/// [`TraceSource::next_event`] builds each event as it hands it out,
/// and [`TraceSource::skip_event`] passes one without building it.
#[derive(Debug, Clone)]
pub struct AzureReplaySource {
    plans: Vec<FunctionPlan>,
    assignments: Vec<TenantAssignment>,
    seed: u64,
    placement: IntraMinute,
    minute_ms: u64,
    minutes: usize,
    next_minute: usize,
    arrivals: Vec<Arrival>,
    cursor: usize,
    remaining: usize,
}

/// Builds the canonical `owner/app` → [`TenantId`] assignment over a
/// set of trace days: the union of every day's app keys, ascending,
/// numbered densely from zero. With a single day this is exactly the
/// mapping [`AzureReplaySource::new`] derives; across days it is the
/// *shared* mapping that keeps a tenant's identity stable for the
/// whole replay ([`multi_day_source`] uses it for that).
pub fn union_assignments(days: &[AzureDataset]) -> Vec<TenantAssignment> {
    let mut app_keys: Vec<(String, String)> = days
        .iter()
        .flat_map(|day| {
            day.functions()
                .iter()
                .map(|f| (f.owner.clone(), f.app.clone()))
        })
        .collect();
    app_keys.sort();
    app_keys.dedup();
    app_keys
        .into_iter()
        .enumerate()
        .map(|(idx, (owner, app))| TenantAssignment {
            tenant: TenantId(idx as u32),
            owner,
            app,
        })
        .collect()
}

/// Streams `days` back to back as one [`ConcatSource`]: each day
/// expands under `config` (so each day has the same compressed minute
/// length) and starts where the previous day's span ends, with one
/// tenant map shared across days — an app keeps its [`TenantId`] for
/// the whole replay even when it is silent for days. Nothing is
/// materialized; memory tracks the busiest minute of the busiest day.
///
/// # Errors
///
/// [`TraceError::InvalidConfig`] when `days` is empty or
/// `config.minute_ms` is zero.
pub fn multi_day_source(
    days: &[AzureDataset],
    config: ExpandConfig,
) -> Result<ConcatSource<AzureReplaySource>> {
    if days.is_empty() {
        return Err(TraceError::InvalidConfig(
            "multi-day replay needs at least one day",
        ));
    }
    let assignments = union_assignments(days);
    let mut parts = Vec::with_capacity(days.len());
    let mut offset = 0u64;
    for day in days {
        let source = AzureReplaySource::with_tenants(day, config, assignments.clone())?;
        let span = source.span_ms();
        parts.push((offset, source));
        offset += span;
    }
    Ok(ConcatSource::new(parts).expect("day offsets ascend by construction")) // lint:allow(panic-in-lib): offsets are i*day_ms for ascending i, strictly increasing
}

impl AzureReplaySource {
    /// Builds the streaming expansion of `dataset` under `config`,
    /// deriving the tenant map from the dataset's own apps.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidConfig`] when `config.minute_ms` is zero.
    pub fn new(dataset: &AzureDataset, config: ExpandConfig) -> Result<Self> {
        Self::with_tenants(
            dataset,
            config,
            union_assignments(std::slice::from_ref(dataset)),
        )
    }

    /// Builds the streaming expansion with an externally supplied
    /// tenant map — how multi-day replays keep one app on one
    /// [`TenantId`] across day boundaries. `assignments` may cover
    /// apps this dataset never invokes (other days'), but must cover
    /// every app it does.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidConfig`] when `config.minute_ms` is zero,
    /// when `assignments` repeats an app, or when one of the dataset's
    /// apps is missing from it.
    pub fn with_tenants(
        dataset: &AzureDataset,
        config: ExpandConfig,
        assignments: Vec<TenantAssignment>,
    ) -> Result<Self> {
        if config.minute_ms == 0 {
            return Err(TraceError::InvalidConfig("minute_ms must be at least 1"));
        }

        // Sorted lookup over the provided map (sorted already when it
        // came from `union_assignments`; re-sorting is cheap and makes
        // caller-built maps order-insensitive).
        let mut lookup: Vec<(&str, &str, TenantId)> = assignments
            .iter()
            .map(|a| (a.owner.as_str(), a.app.as_str(), a.tenant))
            .collect();
        lookup.sort();
        if lookup
            .windows(2)
            .any(|pair| (pair[0].0, pair[0].1) == (pair[1].0, pair[1].1))
        {
            return Err(TraceError::InvalidConfig(
                "tenant assignments repeat an app",
            ));
        }
        let tenant_of = |owner: &str, app: &str| -> Result<TenantId> {
            lookup
                .binary_search_by(|probe| (probe.0, probe.1).cmp(&(owner, app)))
                .map(|idx| lookup[idx].2)
                .map_err(|_| {
                    TraceError::InvalidConfig("dataset app missing from tenant assignments")
                })
        };

        // One lookup table per join, built once: the full dataset has
        // tens of thousands of apps and hundreds of thousands of
        // functions per day, so per-function linear scans would make
        // ingestion quadratic.
        let memory_by_app: BTreeMap<(&str, &str), f64> = dataset
            .apps()
            .iter()
            .map(|app| {
                (
                    (app.owner.as_str(), app.app.as_str()),
                    app.mean_allocated_mb,
                )
            })
            .collect();
        let mut pool_by_class: BTreeMap<TenantClass, Vec<Benchmark>> = BTreeMap::new();
        for class in TenantClass::ALL {
            let mut pool = suite::tenant_pool(class);
            pool.sort_by(|a, b| {
                a.body_ms()
                    .total_cmp(&b.body_ms())
                    .then_with(|| a.name().cmp(b.name()))
            });
            pool_by_class.insert(class, pool);
        }

        // Plans in the dataset's canonical key order: expansion order
        // (and therefore tie-breaking among same-millisecond arrivals)
        // is canonical, not file order.
        let mut remaining = 0usize;
        let mut plans = Vec::with_capacity(dataset.functions().len());
        for function in dataset.functions() {
            let memory_mb = memory_by_app
                .get(&(function.owner.as_str(), function.app.as_str()))
                .copied();
            let class = classify_with_memory(function, memory_mb);
            remaining += function.total_invocations() as usize;
            plans.push(FunctionPlan {
                tenant: tenant_of(&function.owner, &function.app)?,
                key: fnv1a64([&function.owner, &function.app, &function.function]),
                counts: function.counts.clone(),
                pool: pool_by_class[&class].clone(),
            });
        }

        Ok(AzureReplaySource {
            plans,
            assignments,
            seed: config.seed,
            placement: config.placement,
            minute_ms: config.minute_ms,
            minutes: dataset.minutes(),
            next_minute: 0,
            arrivals: Vec::new(),
            cursor: 0,
            remaining,
        })
    }

    /// The `owner/app` → [`TenantId`] mapping this source expands
    /// under (ascending by tenant when it came from
    /// [`AzureReplaySource::new`] or [`union_assignments`]).
    pub fn assignments(&self) -> &[TenantAssignment] {
        &self.assignments
    }

    /// Simulated length of the whole trace, ms.
    pub fn span_ms(&self) -> u64 {
        self.minutes as u64 * self.minute_ms
    }

    fn expand_minute(&mut self, minute: usize) {
        self.arrivals.clear();
        self.cursor = 0;
        let base = minute as u64 * self.minute_ms;
        for (plan_idx, plan) in self.plans.iter().enumerate() {
            let count = plan.counts.get(minute).copied().unwrap_or(0) as u64;
            if count == 0 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ plan.key ^ (minute as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            for i in 0..count {
                let offset_ms = match self.placement {
                    IntraMinute::Even => (self.minute_ms * (2 * i + 1)) / (2 * count),
                    IntraMinute::Poisson => {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        (u * self.minute_ms as f64) as u64
                    }
                };
                // The duration quantile: only its rank matters, which
                // picks the body from the duration-sorted pool.
                let q: f64 = rng.gen_range(0.0..1.0);
                let pool_idx = ((q * plan.pool.len() as f64) as usize).min(plan.pool.len() - 1);
                self.arrivals.push(Arrival {
                    at_ms: base + offset_ms.min(self.minute_ms - 1),
                    tenant: plan.tenant,
                    order: self.arrivals.len(),
                    plan: plan_idx,
                    pool: pool_idx as u32,
                });
            }
        }
        self.arrivals.sort_unstable();
    }

    /// Consumes the next arrival, expanding minutes until one has any.
    fn next_arrival(&mut self) -> Option<Arrival> {
        while self.cursor >= self.arrivals.len() {
            if self.next_minute >= self.minutes {
                return None;
            }
            let minute = self.next_minute;
            self.next_minute += 1;
            self.expand_minute(minute);
        }
        let arrival = self.arrivals[self.cursor];
        self.cursor += 1;
        self.remaining -= 1;
        Some(arrival)
    }
}

impl TraceSource for AzureReplaySource {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let arrival = self.next_arrival()?;
        Some(TraceEvent {
            at_ms: arrival.at_ms,
            function: self.plans[arrival.plan].pool[arrival.pool as usize].clone(),
            tenant: arrival.tenant,
        })
    }

    fn skip_event(&mut self) -> Option<u64> {
        self.next_arrival().map(|arrival| arrival.at_ms)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl AzureDataset {
    /// Streaming expansion of this dataset — see [`AzureReplaySource`].
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidConfig`] for a zero `minute_ms`.
    pub fn source(&self, config: ExpandConfig) -> Result<AzureReplaySource> {
        AzureReplaySource::new(self, config)
    }

    /// Fully materialized expansion: [`AzureDataset::source`] collected
    /// into an [`InvocationTrace`]. Bit-identical to streaming the
    /// source through a replay at the same seed.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidConfig`] for a zero `minute_ms`.
    pub fn expand(&self, config: ExpandConfig) -> Result<InvocationTrace> {
        Ok(InvocationTrace::from_source(self.source(config)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use proptest::prelude::*;

    fn config() -> ExpandConfig {
        ExpandConfig::new(7).minute_ms(400)
    }

    /// Walks `source` to its end, skipping when `skip` says so and
    /// pulling otherwise, and returns every arrival time in order.
    /// `size_hint` must stay exact at every step.
    fn walk(mut source: impl TraceSource, mut skip: impl FnMut() -> bool) -> Vec<u64> {
        let mut times = Vec::new();
        loop {
            let left = source.size_hint().0;
            assert_eq!(source.size_hint(), (left, Some(left)));
            let at_ms = if skip() {
                source.skip_event()
            } else {
                source.next_event().map(|event| event.at_ms)
            };
            let Some(at_ms) = at_ms else {
                assert_eq!(left, 0, "ended with {left} events announced");
                break;
            };
            times.push(at_ms);
            assert_eq!(source.size_hint().0, left - 1);
        }
        times
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn skipping_walks_the_same_times_as_pulling(
            (seed, minute_ms, days) in (0u64..1_000, 50u64..2_000, 1usize..4),
            (skip_seed, skip_fraction) in (0u64..1_000, 0.0f64..1.0),
        ) {
            let days = vec![fixture::dataset(); days];
            let cfg = ExpandConfig::new(seed).minute_ms(minute_ms);
            let skips = || {
                let mut rng = StdRng::seed_from_u64(skip_seed);
                move || rng.gen_range(0.0..1.0) < skip_fraction
            };
            let pulled = walk(days[0].source(cfg).unwrap(), || false);
            prop_assert_eq!(pulled.len() as u64, days[0].total_invocations());
            prop_assert!(walk(days[0].source(cfg).unwrap(), skips()) == pulled);
            let chained = walk(multi_day_source(&days, cfg).unwrap(), || false);
            prop_assert_eq!(chained.len(), pulled.len() * days.len());
            prop_assert!(walk(multi_day_source(&days, cfg).unwrap(), skips()) == chained);
        }
    }

    #[test]
    fn expansion_is_deterministic_and_counts_match() {
        let dataset = fixture::dataset();
        let a = dataset.expand(config()).unwrap();
        let b = dataset.expand(config()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len() as u64, dataset.total_invocations());
        // Every tenant appears, numbered densely from zero.
        let source = dataset.source(config()).unwrap();
        assert_eq!(source.assignments().len(), a.tenants().len());
        for (idx, assignment) in source.assignments().iter().enumerate() {
            assert_eq!(assignment.tenant, TenantId(idx as u32));
        }
        // A different seed moves arrivals.
        let c = dataset.expand(ExpandConfig::new(8).minute_ms(400)).unwrap();
        assert_ne!(a, c);
        assert_eq!(a.len(), c.len(), "seed changes placement, not counts");
    }

    #[test]
    fn streaming_yields_exactly_the_materialized_trace() {
        let dataset = fixture::dataset();
        let materialized = dataset.expand(config()).unwrap();
        let mut source = dataset.source(config()).unwrap();
        assert_eq!(
            source.size_hint(),
            (materialized.len(), Some(materialized.len()))
        );
        let mut streamed = Vec::new();
        while let Some(event) = source.next_event() {
            streamed.push(event);
        }
        assert_eq!(streamed, materialized.events());
        assert_eq!(source.size_hint(), (0, Some(0)));
    }

    #[test]
    fn events_stay_inside_their_minute() {
        let dataset = fixture::dataset();
        for placement in [IntraMinute::Even, IntraMinute::Poisson] {
            let cfg = ExpandConfig::new(3).minute_ms(250).placement(placement);
            let mut source = dataset.source(cfg).unwrap();
            let span = source.span_ms();
            // Reconstruct per-minute totals and compare to the counts.
            let mut per_minute = vec![0u64; dataset.minutes()];
            while let Some(event) = source.next_event() {
                assert!(event.at_ms < span);
                per_minute[(event.at_ms / 250) as usize] += 1;
            }
            for (minute, total) in per_minute.iter().enumerate() {
                let expected: u64 = dataset
                    .functions()
                    .iter()
                    .map(|f| f.counts[minute] as u64)
                    .sum();
                assert_eq!(*total, expected, "minute {minute} ({placement:?})");
            }
        }
    }

    #[test]
    fn even_placement_spreads_the_minute() {
        let dataset = fixture::dataset();
        let cfg = ExpandConfig::new(1)
            .minute_ms(60_000)
            .placement(IntraMinute::Even);
        let trace = dataset.expand(cfg).unwrap();
        // The telemetry function alone puts ~120 events/minute on a
        // centered grid; the busiest half-minute can't hold much more
        // than half the events.
        let first_minute: Vec<u64> = trace
            .events()
            .iter()
            .filter(|e| e.at_ms < 60_000)
            .map(|e| e.at_ms)
            .collect();
        let early = first_minute.iter().filter(|&&at| at < 30_000).count();
        let late = first_minute.len() - early;
        assert!(
            early.abs_diff(late) * 10 < first_minute.len(),
            "even placement skewed: {early} vs {late}"
        );
    }

    #[test]
    fn classes_follow_duration_and_memory() {
        let dataset = fixture::dataset();
        let class_of = |name: &str| {
            let f = dataset
                .functions()
                .iter()
                .find(|f| f.function == name)
                .unwrap();
            classify_function(&dataset, f)
        };
        assert_eq!(class_of("auth"), TenantClass::Interactive);
        assert_eq!(class_of("telemetry"), TenantClass::Interactive);
        assert_eq!(class_of("pagerank"), TenantClass::Analytics);
        assert_eq!(class_of("infer"), TenantClass::Analytics);
        assert_eq!(class_of("resize"), TenantClass::Batch);
        // No memory row → classified on duration alone.
        assert_eq!(class_of("nightly"), TenantClass::Batch);
    }

    #[test]
    fn zero_minute_ms_is_rejected() {
        let dataset = fixture::dataset();
        assert!(matches!(
            dataset.source(ExpandConfig::new(1).minute_ms(0)),
            Err(TraceError::InvalidConfig(_))
        ));
    }

    #[test]
    fn multi_day_concatenation_offsets_each_day_by_its_span() {
        let day = fixture::dataset();
        let days = vec![day.clone(), day.clone()];
        let mut source = multi_day_source(&days, config()).unwrap();
        assert_eq!(source.parts(), 2);
        let single = day.expand(config()).unwrap();
        assert_eq!(
            source.size_hint(),
            (single.len() * 2, Some(single.len() * 2))
        );
        let mut events = Vec::new();
        while let Some(event) = source.next_event() {
            events.push(event);
        }
        assert_eq!(events.len(), single.len() * 2);
        // Day one streams exactly the single-day expansion; day two is
        // the same expansion (same seed, same per-function streams)
        // shifted by one day span.
        let span = day.minutes() as u64 * 400;
        assert_eq!(&events[..single.len()], single.events());
        for (a, b) in single.events().iter().zip(&events[single.len()..]) {
            assert_eq!(b.at_ms, a.at_ms + span);
            assert_eq!(b.tenant, a.tenant);
            assert_eq!(b.function, a.function);
        }
    }

    #[test]
    fn multi_day_tenant_map_is_shared_across_days() {
        use crate::AzureDataset;

        let full = fixture::dataset();
        // Day two drops the webshop app entirely (functions and
        // memory), leaving key gaps a per-day numbering would fill
        // differently.
        let keep = |csv: &str, col: usize| {
            let mut lines = csv.lines();
            let mut out = String::from(lines.next().unwrap());
            out.push('\n');
            for line in lines {
                if line.split(',').nth(col) != Some("webshop") {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            out
        };
        let partial = AzureDataset::from_csv(
            &keep(fixture::INVOCATIONS_CSV, 1),
            &keep(fixture::DURATIONS_CSV, 1),
            &keep(fixture::MEMORY_CSV, 1),
        )
        .unwrap();

        let days = vec![full.clone(), partial.clone()];
        let assignments = union_assignments(&days);
        assert_eq!(assignments.len(), 6, "union covers every app once");
        let mut source = multi_day_source(&days, config()).unwrap();
        let span = full.minutes() as u64 * 400;
        // Events from day two carry the *shared* tenant ids: exactly
        // the ids day one used for the surviving apps.
        let day_one_tenants: std::collections::HashSet<TenantId> = full
            .expand(config())
            .unwrap()
            .events()
            .iter()
            .map(|e| e.tenant)
            .collect();
        let webshop = assignments
            .iter()
            .find(|a| a.app == "webshop")
            .expect("union keeps day-one-only apps");
        let mut saw_day_two = false;
        while let Some(event) = source.next_event() {
            if event.at_ms >= span {
                saw_day_two = true;
                assert_ne!(event.tenant, webshop.tenant);
                assert!(day_one_tenants.contains(&event.tenant));
            }
        }
        assert!(saw_day_two);

        // A map that misses one of the dataset's apps is rejected.
        let partial_assignments = union_assignments(std::slice::from_ref(&partial));
        assert!(matches!(
            AzureReplaySource::with_tenants(&full, config(), partial_assignments),
            Err(TraceError::InvalidConfig(_))
        ));
        // As is a map that repeats an app.
        let mut doubled = union_assignments(std::slice::from_ref(&full));
        doubled.push(doubled[0].clone());
        assert!(matches!(
            AzureReplaySource::with_tenants(&full, config(), doubled),
            Err(TraceError::InvalidConfig(_))
        ));
    }
}
