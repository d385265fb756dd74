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
//! A minute expands into compact arrival keys — time, tenant and
//! expansion order — sorted into the canonical `(at_ms, tenant)` order,
//! beside a reference to each arrival's function and body. The
//! [`TraceEvent`], with its own copy of the body, is built only when
//! [`TraceSource::next_event`] hands it out, and
//! [`TraceSource::skip_events`] passes a run of arrivals without
//! building them. A
//! [`crate::TraceTransform::ScaleRate`] ahead of any window skips each
//! run of events it drops in one call, so a thinned replay pays for
//! placing and sorting every arrival but builds only the events it
//! keeps.

use std::collections::BTreeMap;

use litmus_platform::{
    ConcatSource, InvocationTrace, SkippedRun, TenantId, TraceEvent, TraceSource,
};
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

/// One expanded arrival's sort key: its time, its tenant, and its
/// position in expansion order. Fields compare in declaration order,
/// and `order` is unique within a minute, so a minute's keys are
/// distinct and any correct sort of them gives the stable sort by
/// `(at_ms, tenant)`. `order` also indexes the minute's bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ArrivalKey {
    at_ms: u64,
    tenant: TenantId,
    order: u32,
}

/// Where one arrival's body is: its function's plan, and the body's
/// index in the plan's pool.
#[derive(Debug, Clone, Copy)]
struct BodyRef {
    plan: u32,
    pool: u32,
}

/// Streaming [`TraceSource`] over an expanded Azure trace: minutes are
/// expanded one at a time (memory stays proportional to the busiest
/// minute, never the trace), each minute's arrivals sorted into the
/// canonical `(at_ms, tenant)` order — so streaming is bit-identical
/// to materializing via [`AzureDataset::expand`] at the same seed.
///
/// Only the current minute is buffered, as compact arrival keys
/// (time, tenant, expansion order: 16 bytes) beside each arrival's body
/// reference, indexed by that order; the keys alone are sorted, with
/// `sort_unstable`. [`TraceSource::next_event`] looks up an arrival's
/// body and builds its event only as it hands it out, and
/// [`TraceSource::skip_events`] passes a run without building it by
/// moving the cursor, expanding later minutes as the run reaches them.
/// The buffers are released once the source is exhausted, so a chain
/// of days holds only the current day's.
#[derive(Debug, Clone)]
pub struct AzureReplaySource {
    plans: Vec<FunctionPlan>,
    assignments: Vec<TenantAssignment>,
    seed: u64,
    placement: IntraMinute,
    minute_ms: u64,
    minutes: usize,
    next_minute: usize,
    /// The current minute's keys, sorted.
    keys: Vec<ArrivalKey>,
    /// The current minute's bodies, by expansion order.
    bodies: Vec<BodyRef>,
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

        // Arrival keys number a minute's arrivals, and body references
        // the plans, in 32 bits.
        let mut per_minute = vec![0u64; dataset.minutes()];
        for function in dataset.functions() {
            for (total, &count) in per_minute.iter_mut().zip(&function.counts) {
                *total += u64::from(count);
            }
        }
        if u32::try_from(dataset.functions().len()).is_err()
            || per_minute.iter().any(|&total| total > u64::from(u32::MAX))
        {
            return Err(TraceError::InvalidConfig(
                "a minute holds 2^32 or more arrivals, or the day as many functions",
            ));
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
            keys: Vec::new(),
            bodies: Vec::new(),
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

    /// Expands `minute` into its sorted keys and its bodies.
    fn expand_minute(&mut self, minute: usize) {
        self.keys.clear();
        self.bodies.clear();
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
                // `with_tenants` checked that the minute's arrivals and
                // the plans fit in 32 bits; a pool holds a few bodies.
                self.keys.push(ArrivalKey {
                    at_ms: base + offset_ms.min(self.minute_ms - 1),
                    tenant: plan.tenant,
                    order: self.bodies.len() as u32,
                });
                self.bodies.push(BodyRef {
                    plan: plan_idx as u32,
                    pool: pool_idx as u32,
                });
            }
        }
        self.keys.sort_unstable();
    }

    /// Expands minutes until the current one has an arrival left.
    /// Returns false once the trace is exhausted, and then releases the
    /// buffers.
    fn fill(&mut self) -> bool {
        while self.cursor >= self.keys.len() {
            if self.next_minute >= self.minutes {
                self.keys = Vec::new();
                self.bodies = Vec::new();
                self.cursor = 0;
                return false;
            }
            let minute = self.next_minute;
            self.next_minute += 1;
            self.expand_minute(minute);
        }
        true
    }
}

impl TraceSource for AzureReplaySource {
    fn next_event(&mut self) -> Option<TraceEvent> {
        if !self.fill() {
            return None;
        }
        let key = self.keys[self.cursor];
        self.cursor += 1;
        self.remaining -= 1;
        let body = self.bodies[key.order as usize];
        Some(TraceEvent {
            at_ms: key.at_ms,
            function: self.plans[body.plan as usize].pool[body.pool as usize].clone(),
            tenant: key.tenant,
        })
    }

    fn skip_events(&mut self, n: usize) -> Option<SkippedRun> {
        let mut run: Option<SkippedRun> = None;
        let mut left = n;
        while left > 0 && self.fill() {
            let take = left.min(self.keys.len() - self.cursor);
            let part = SkippedRun {
                count: take,
                first_ms: self.keys[self.cursor].at_ms,
                last_ms: self.keys[self.cursor + take - 1].at_ms,
            };
            self.cursor += take;
            self.remaining -= take;
            left -= take;
            run = Some(run.map_or(part, |run| run.then(part)));
        }
        run
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

    /// How `walk` passes the next events.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Pull,
        Run(usize),
    }

    /// Every arrival time of `source`, pulled one event at a time.
    fn pulled_times(mut source: impl TraceSource) -> Vec<u64> {
        std::iter::from_fn(|| source.next_event().map(|event| event.at_ms)).collect()
    }

    /// Walks `source` to its end, passing events as `steps` says, and
    /// checks what it passes against `expected`, every arrival time in
    /// order: an event by its time, a run by its count and its first and
    /// last times. `size_hint` must stay exact at every step. Returns
    /// each run's first and last time.
    fn walk(
        mut source: impl TraceSource,
        steps: impl IntoIterator<Item = Step>,
        expected: &[u64],
    ) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        let mut at = 0;
        for step in steps {
            let left = source.size_hint().0;
            assert_eq!(source.size_hint(), (left, Some(left)));
            assert_eq!(left, expected.len() - at);
            let passed = match step {
                Step::Pull => source
                    .next_event()
                    .map(|event| SkippedRun::one(event.at_ms)),
                Step::Run(n) => source.skip_events(n),
            };
            let Some(passed) = passed else {
                assert_eq!(left, 0, "ended with {left} events announced");
                return runs;
            };
            if let Step::Run(n) = step {
                assert_eq!(passed.count, n.min(left));
                runs.push((passed.first_ms, passed.last_ms));
            }
            let last = at + passed.count - 1;
            assert_eq!(
                (passed.first_ms, passed.last_ms),
                (expected[at], expected[last])
            );
            at = last + 1;
        }
        unreachable!("the steps never end")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Pulls, one-event skips and longer runs, mixed at random,
        /// walk the times pulling walks. The walk opens with a run longer
        /// than a day, so some run crosses a minute boundary and, on a
        /// chain, a day boundary.
        #[test]
        fn skipping_walks_the_same_times_as_pulling(
            (seed, minute_ms, days) in (0u64..1_000, 50u64..2_000, 1usize..4),
            (step_seed, skip_fraction, run_fraction) in (0u64..1_000, 0.0f64..1.0, 0.0f64..0.5),
            first_run in 1.0f64..2.0,
        ) {
            let days = vec![fixture::dataset(); days];
            let cfg = ExpandConfig::new(seed).minute_ms(minute_ms);
            let day_len = days[0].total_invocations() as usize;
            let steps = || {
                let mut rng = StdRng::seed_from_u64(step_seed);
                let first = Step::Run((first_run * day_len as f64) as usize + 1);
                std::iter::once(first).chain(std::iter::repeat_with(move || {
                    let draw: f64 = rng.gen_range(0.0..1.0);
                    if draw < run_fraction {
                        Step::Run(rng.gen_range(1..2 * day_len))
                    } else if rng.gen_range(0.0..1.0) < skip_fraction {
                        Step::Run(1)
                    } else {
                        Step::Pull
                    }
                }))
            };
            let pulled = pulled_times(days[0].source(cfg).unwrap());
            prop_assert_eq!(pulled.len(), day_len);
            walk(days[0].source(cfg).unwrap(), steps(), &pulled);
            let chained = pulled_times(multi_day_source(&days, cfg).unwrap());
            prop_assert_eq!(chained.len(), pulled.len() * days.len());
            let runs = walk(multi_day_source(&days, cfg).unwrap(), steps(), &chained);
            let crossed = |span_ms: u64| {
                runs.iter().any(|&(first, last)| first / span_ms != last / span_ms)
            };
            prop_assert!(crossed(minute_ms), "no run crossed a minute");
            let day_ms = days[0].minutes() as u64 * minute_ms;
            prop_assert!(days.len() == 1 || crossed(day_ms), "no run crossed a day");
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
    fn a_minute_of_2_pow_32_arrivals_is_rejected() {
        // Two functions at 3·10⁹ invocations in minute 1: each count
        // fits in 32 bits, their sum does not.
        let mut lines = fixture::INVOCATIONS_CSV.lines();
        let mut csv = format!("{}\n", lines.next().unwrap());
        for (row, line) in lines.enumerate() {
            let mut fields: Vec<&str> = line.split(',').collect();
            if row < 2 {
                fields[4] = "3000000000";
            }
            csv.push_str(&fields.join(","));
            csv.push('\n');
        }
        let dataset =
            AzureDataset::from_csv(&csv, fixture::DURATIONS_CSV, fixture::MEMORY_CSV).unwrap();
        assert!(matches!(
            dataset.source(config()),
            Err(TraceError::InvalidConfig(_))
        ));
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
