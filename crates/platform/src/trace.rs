use std::collections::BTreeMap;

use litmus_core::{
    BillingLedger, CommercialPricing, IdealPricing, Invoice, LitmusPricing, LitmusReading,
    PricingTables,
};
use litmus_sim::{
    Event, ExecutionProfile, InstanceId, MachineSpec, Placement, PmuCounters, Simulator,
};
use litmus_workloads::{Benchmark, WorkloadMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::PlatformError;
use crate::Result;

/// Identifier of the tenant (customer account) an invocation bills to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// One invocation request in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival time, ms.
    pub at_ms: u64,
    /// Which Table-1 function is invoked.
    pub function: Benchmark,
    /// Tenant the invocation bills to (single-tenant generators use
    /// [`TenantId`]'s default, tenant 0).
    pub tenant: TenantId,
}

/// A streaming supplier of trace events in global time order.
///
/// `TraceSource` is the single front door replays pull workloads
/// through: synthetic generators ([`SyntheticSource`]), materialized
/// traces ([`InvocationTrace::source`]) and external trace replays
/// (e.g. the Azure Functions expander in `litmus-trace`) all implement
/// it, so [`TraceDriver::replay_source`] and the cluster driver can
/// stream events in time-order chunks instead of materializing whole
/// traces.
///
/// # Invariants
///
/// * `next_event` yields events with non-decreasing `at_ms`;
/// * ties on `at_ms` are yielded in ascending [`TenantId`] order (the
///   same canonical order [`InvocationTrace::from_events`] sorts into),
///   so collecting a source and re-sorting is a no-op and streaming a
///   source through a replay is bit-identical to materializing it
///   first.
pub trait TraceSource {
    /// The next event in global time order, or `None` once the trace
    /// is exhausted.
    fn next_event(&mut self) -> Option<TraceEvent>;

    /// Consumes exactly the next `n` events that `n` calls to
    /// [`TraceSource::next_event`] would have yielded, stopping early
    /// only at the end of the trace, and returns the run it passed: how
    /// many events and the arrival times of the first and the last.
    /// `None` when it passed nothing (`n` is zero or the trace is
    /// exhausted); a run shorter than `n` means the trace is exhausted.
    /// Afterwards the source is where those `next_event` calls would
    /// have left it, so any interleaving of the two methods walks the
    /// same time sequence.
    ///
    /// A consumer that drops events by position alone (rate thinning)
    /// calls this once for each run of them. The default builds each
    /// event and discards it; a source that builds events lazily
    /// overrides it to move past the run without building any.
    fn skip_events(&mut self, n: usize) -> Option<SkippedRun> {
        if n == 0 {
            return None;
        }
        let mut run = SkippedRun::one(self.next_event()?.at_ms);
        while run.count < n {
            let Some(event) = self.next_event() else {
                break;
            };
            run = run.then(SkippedRun::one(event.at_ms));
        }
        Some(run)
    }

    /// `(lower, upper)` bounds on the number of remaining events, like
    /// [`Iterator::size_hint`]; used to pre-size replay buffers.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// A run of consecutive events passed by [`TraceSource::skip_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedRun {
    /// Events in the run, at least one.
    pub count: usize,
    /// Arrival time of the run's first event, ms.
    pub first_ms: u64,
    /// Arrival time of the run's last event, ms.
    pub last_ms: u64,
}

impl SkippedRun {
    /// The run of the single event arriving at `at_ms`.
    pub fn one(at_ms: u64) -> Self {
        SkippedRun {
            count: 1,
            first_ms: at_ms,
            last_ms: at_ms,
        }
    }

    /// This run followed directly by `next`.
    pub fn then(self, next: SkippedRun) -> Self {
        SkippedRun {
            count: self.count + next.count,
            first_ms: self.first_ms,
            last_ms: next.last_ms,
        }
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn next_event(&mut self) -> Option<TraceEvent> {
        (**self).next_event()
    }

    fn skip_events(&mut self, n: usize) -> Option<SkippedRun> {
        (**self).skip_events(n)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
}

/// One-event-lookahead adapter replays wrap around a [`TraceSource`]
/// to pull events in time-order chunks: everything arriving before a
/// slice boundary is drained without consuming the first event of the
/// next slice.
#[derive(Debug)]
pub struct ChunkedSource<S> {
    source: S,
    lookahead: Option<TraceEvent>,
    primed: bool,
}

impl<S: TraceSource> ChunkedSource<S> {
    /// Wraps `source` (no events are consumed until the first pull).
    pub fn new(source: S) -> Self {
        ChunkedSource {
            source,
            lookahead: None,
            primed: false,
        }
    }

    fn prime(&mut self) {
        if !self.primed {
            self.lookahead = self.source.next_event();
            self.primed = true;
        }
    }

    /// Arrival time of the next event, if any.
    pub fn peek_at_ms(&mut self) -> Option<u64> {
        self.prime();
        self.lookahead.as_ref().map(|e| e.at_ms)
    }

    /// Pops the next event if it arrives strictly before `before_ms`.
    pub fn next_before(&mut self, before_ms: u64) -> Option<TraceEvent> {
        self.prime();
        if self.lookahead.as_ref()?.at_ms < before_ms {
            let event = self.lookahead.take();
            self.lookahead = self.source.next_event();
            event
        } else {
            None
        }
    }

    /// Drains every event arriving strictly before `before_ms` into
    /// `out` — one chunk of the stream.
    pub fn fill_before(&mut self, before_ms: u64, out: &mut Vec<TraceEvent>) {
        while let Some(event) = self.next_before(before_ms) {
            out.push(event);
        }
    }

    /// Whether the underlying source has no events left.
    pub fn is_exhausted(&mut self) -> bool {
        self.prime();
        self.lookahead.is_none()
    }

    /// Remaining-event bounds, including the buffered lookahead.
    pub fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.source.size_hint();
        let buffered = usize::from(self.lookahead.is_some());
        (lo + buffered, hi.map(|h| h + buffered))
    }
}

/// Plays several [`TraceSource`]s back to back, each shifted onto the
/// global clock by its own start offset — the streaming analogue of
/// concatenating materialized traces, so a week-scale multi-day replay
/// can chain per-day sources without materializing any of them.
///
/// # Invariants
///
/// Offsets must be non-decreasing part to part
/// ([`ConcatSource::new`] rejects anything else), and each part must
/// keep its shifted events below the next part's offset — e.g. a
/// bounded source whose span is at most the gap to the next offset.
/// The output is checked: an event that would travel back in time
/// panics rather than silently corrupting the canonical replay order.
/// A run passed by [`TraceSource::skip_events`] is checked by its
/// first time, and its last time is what the next event is checked
/// against; the part itself yields the run in time order. So a part
/// that overruns the next part's offset is caught whether its last
/// events, or the next part's first, are pulled or skipped.
#[derive(Debug, Clone)]
pub struct ConcatSource<S> {
    /// `(start offset ms, source)`, played in order.
    parts: Vec<(u64, S)>,
    current: usize,
    last_ms: u64,
}

impl<S: TraceSource> ConcatSource<S> {
    /// Builds the chained source over `parts`, each a `(start offset,
    /// source)` pair. Returns `None` when offsets decrease.
    pub fn new(parts: Vec<(u64, S)>) -> Option<Self> {
        if parts.windows(2).any(|pair| pair[0].0 > pair[1].0) {
            return None;
        }
        Some(ConcatSource {
            parts,
            current: 0,
            last_ms: 0,
        })
    }

    /// How many parts the chain was built over.
    pub fn parts(&self) -> usize {
        self.parts.len()
    }
}

/// The time-order check of [`ConcatSource`]: a run of part `part`'s
/// events from `first_ms` to `last_ms` (on the global clock) may not
/// start before `last_ms_before`, the previous event's time. Returns the
/// time the next event is checked against.
fn check_order(part: usize, last_ms_before: u64, first_ms: u64, last_ms: u64) -> u64 {
    assert!(
        first_ms >= last_ms_before,
        "ConcatSource part {part} broke time order: event at {first_ms} ms \
         after {last_ms_before} ms (its span overruns the next part's offset)",
    );
    last_ms
}

impl<S: TraceSource> TraceSource for ConcatSource<S> {
    /// Pulls from the current part, moving on past exhausted ones, and
    /// returns the event shifted onto the global clock.
    fn next_event(&mut self) -> Option<TraceEvent> {
        while let Some((offset, source)) = self.parts.get_mut(self.current) {
            match source.next_event() {
                Some(mut event) => {
                    event.at_ms += *offset;
                    self.last_ms =
                        check_order(self.current, self.last_ms, event.at_ms, event.at_ms);
                    return Some(event);
                }
                None => self.current += 1,
            }
        }
        None
    }

    /// Forwards the run part by part, shifting each part's share onto
    /// the global clock and checking it as one run.
    fn skip_events(&mut self, n: usize) -> Option<SkippedRun> {
        let mut run: Option<SkippedRun> = None;
        while let Some((offset, source)) = self.parts.get_mut(self.current) {
            let left = n - run.map_or(0, |run| run.count);
            if left == 0 {
                break;
            }
            let Some(part) = source.skip_events(left) else {
                self.current += 1;
                continue;
            };
            let part = SkippedRun {
                first_ms: part.first_ms + *offset,
                last_ms: part.last_ms + *offset,
                ..part
            };
            self.last_ms = check_order(self.current, self.last_ms, part.first_ms, part.last_ms);
            run = Some(run.map_or(part, |run| run.then(part)));
        }
        run
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let mut lo = 0usize;
        let mut hi = Some(0usize);
        for (_, source) in &self.parts[self.current.min(self.parts.len())..] {
            let (part_lo, part_hi) = source.size_hint();
            lo += part_lo;
            hi = match (hi, part_hi) {
                (Some(h), Some(p)) => Some(h + p),
                _ => None,
            };
        }
        (lo, hi)
    }
}

/// Pass-through [`TraceSource`] adapter that counts arrivals per
/// fixed-width time bucket while a replay streams events — the
/// arrival-count tap predictive-autoscaling studies feed forecasters
/// from without a second pass over the trace.
///
/// The tap does not reorder, drop or buffer events; it only tallies.
/// Pass it by `&mut` into a replay (every replay API accepts
/// `&mut S: TraceSource`) and read [`CountingSource::bucket_counts`]
/// afterwards:
///
/// ```
/// use litmus_platform::{CountingSource, InvocationTrace, TraceSource};
/// use litmus_workloads::suite;
///
/// let trace = InvocationTrace::poisson(suite::benchmarks(), 80.0, 2_000, 7)
///     .expect("non-empty pool");
/// let mut tap = CountingSource::new(trace.source(), 500);
/// while let Some(_event) = tap.next_event() {}
/// assert_eq!(tap.total() as usize, trace.len());
/// assert_eq!(tap.bucket_counts().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CountingSource<S> {
    source: S,
    bucket_ms: u64,
    counts: Vec<u64>,
}

impl<S: TraceSource> CountingSource<S> {
    /// Wraps `source`, counting arrivals per `bucket_ms` window
    /// (minimum 1 ms). Buckets are indexed from time 0; gaps between
    /// arrivals appear as explicit zero buckets.
    pub fn new(source: S, bucket_ms: u64) -> Self {
        CountingSource {
            source,
            bucket_ms: bucket_ms.max(1),
            counts: Vec::new(),
        }
    }

    /// The bucket width, ms.
    pub fn bucket_ms(&self) -> u64 {
        self.bucket_ms
    }

    /// Arrivals counted per bucket so far, bucket 0 first. The last
    /// entry is the bucket of the latest event streamed; trailing
    /// silence is not materialized.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total arrivals streamed through the tap.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Unwraps the tap, returning the inner source and the counts.
    pub fn into_parts(self) -> (S, Vec<u64>) {
        (self.source, self.counts)
    }
}

impl<S: TraceSource> TraceSource for CountingSource<S> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let event = self.source.next_event()?;
        let bucket = (event.at_ms / self.bucket_ms) as usize;
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.source.size_hint()
    }
}

/// Arrival-rate shape of one tenant's traffic over time.
///
/// Rates are arrivals per second; time-varying patterns are sampled by
/// thinning a homogeneous Poisson process at the pattern's peak rate,
/// so every pattern stays exactly reproducible for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Constant-rate Poisson arrivals.
    Steady {
        /// Mean arrivals per second.
        rate_per_s: f64,
    },
    /// Baseline Poisson traffic with periodic bursts: every `period_ms`
    /// the rate jumps to `burst_rate_per_s` for `burst_ms`.
    Bursty {
        /// Rate outside bursts, arrivals per second.
        base_rate_per_s: f64,
        /// Rate inside bursts, arrivals per second.
        burst_rate_per_s: f64,
        /// Burst spacing (start to start), ms.
        period_ms: u64,
        /// Burst length, ms.
        burst_ms: u64,
    },
    /// Diurnal (sinusoidal) modulation around a mean rate:
    /// `rate(t) = mean·(1 + amplitude·sin(2πt/period))`, clamped at 0.
    Diurnal {
        /// Mean arrivals per second.
        mean_rate_per_s: f64,
        /// Relative swing in `[0, 1]` (1 = rate touches zero at trough).
        amplitude: f64,
        /// One full day-night cycle, ms.
        period_ms: u64,
    },
}

impl ArrivalPattern {
    /// Peak instantaneous rate, used as the thinning envelope.
    fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalPattern::Steady { rate_per_s } => rate_per_s,
            ArrivalPattern::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                ..
            } => base_rate_per_s.max(burst_rate_per_s),
            ArrivalPattern::Diurnal {
                mean_rate_per_s,
                amplitude,
                ..
            } => mean_rate_per_s * (1.0 + amplitude),
        }
    }

    /// Instantaneous rate at time `t_ms`.
    fn rate_at(&self, t_ms: f64) -> f64 {
        match *self {
            ArrivalPattern::Steady { rate_per_s } => rate_per_s,
            ArrivalPattern::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                period_ms,
                burst_ms,
            } => {
                let phase = (t_ms as u64) % period_ms.max(1);
                if phase < burst_ms {
                    burst_rate_per_s
                } else {
                    base_rate_per_s
                }
            }
            ArrivalPattern::Diurnal {
                mean_rate_per_s,
                amplitude,
                period_ms,
            } => {
                let phase = t_ms / period_ms.max(1) as f64 * std::f64::consts::TAU;
                (mean_rate_per_s * (1.0 + amplitude * phase.sin())).max(0.0)
            }
        }
    }

    fn is_valid(&self) -> bool {
        let finite_non_negative = |r: f64| r.is_finite() && r >= 0.0;
        let shape_ok = match *self {
            ArrivalPattern::Steady { rate_per_s } => rate_per_s.is_finite(),
            // A zero baseline (pure bursts) is meaningful; a NaN or
            // negative one is not — and it would silently skew the
            // thinning acceptance test rather than fail loudly.
            ArrivalPattern::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                ..
            } => finite_non_negative(base_rate_per_s) && burst_rate_per_s.is_finite(),
            ArrivalPattern::Diurnal {
                mean_rate_per_s,
                amplitude,
                ..
            } => mean_rate_per_s.is_finite() && (0.0..=1.0).contains(&amplitude),
        };
        let peak = self.peak_rate();
        shape_ok && peak > 0.0 && peak.is_finite()
    }
}

/// One tenant's contribution to a multi-tenant trace: who they are,
/// which functions they invoke and how their arrival rate evolves.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTraffic {
    /// The billing tenant.
    pub tenant: TenantId,
    /// Functions this tenant invokes (drawn uniformly).
    pub pool: Vec<Benchmark>,
    /// The tenant's arrival-rate shape.
    pub pattern: ArrivalPattern,
}

/// One tenant's live arrival stream: exponential inter-arrival gaps at
/// the pattern's peak rate, thinned to the instantaneous rate, with the
/// function drawn from the tenant's pool — exactly the process
/// [`InvocationTrace::multi_tenant`] materializes, yielded one event at
/// a time.
#[derive(Debug, Clone)]
struct PatternStream {
    tenant: TenantId,
    rng: StdRng,
    mix: WorkloadMix,
    pattern: ArrivalPattern,
    peak: f64,
    mean_gap_ms: f64,
    t: f64,
    duration_ms: u64,
}

impl PatternStream {
    fn new(traffic: TenantTraffic, duration_ms: u64, seed: u64) -> Option<Self> {
        if !traffic.pattern.is_valid() {
            return None;
        }
        let tenant_seed = seed ^ (traffic.tenant.0 as u64).wrapping_mul(0x9E37_79B9);
        let peak = traffic.pattern.peak_rate();
        Some(PatternStream {
            tenant: traffic.tenant,
            rng: StdRng::seed_from_u64(tenant_seed),
            mix: WorkloadMix::new(traffic.pool, tenant_seed ^ 0xABCD)?,
            pattern: traffic.pattern,
            peak,
            mean_gap_ms: 1000.0 / peak,
            t: 0.0,
            duration_ms,
        })
    }

    fn next(&mut self) -> Option<TraceEvent> {
        loop {
            // Inverse-CDF exponential sampling at the peak rate…
            let u: f64 = self.rng.gen_range(1e-12..1.0);
            self.t += -self.mean_gap_ms * u.ln();
            if self.t >= self.duration_ms as f64 {
                return None;
            }
            // …thinned down to the instantaneous rate. The acceptance
            // draw happens unconditionally so steady traffic consumes
            // the same stream shape.
            let keep: f64 = self.rng.gen_range(0.0..1.0);
            if keep * self.peak >= self.pattern.rate_at(self.t) {
                continue;
            }
            return Some(TraceEvent {
                at_ms: self.t as u64,
                function: self.mix.next_benchmark().clone(),
                tenant: self.tenant,
            });
        }
    }
}

/// Streaming form of the Steady/Bursty/Diurnal generators: per-tenant
/// [`ArrivalPattern`] streams merged into one globally time-ordered
/// event stream without ever materializing the trace.
///
/// [`InvocationTrace::multi_tenant`] is exactly this source collected,
/// so streaming a `SyntheticSource` through a replay is bit-identical
/// to replaying the materialized trace at the same seed.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    streams: Vec<PatternStream>,
    /// Front of each stream; the merge repeatedly takes the minimum by
    /// `(at_ms, tenant, stream index)`, reproducing the stable
    /// `(at_ms, tenant)` sort [`InvocationTrace::from_events`] applies.
    fronts: Vec<Option<TraceEvent>>,
}

impl SyntheticSource {
    /// Builds the merged stream over `tenants` for `duration_ms`,
    /// seeded like [`InvocationTrace::multi_tenant`] (each tenant draws
    /// from an independent RNG stream derived from `seed` and their
    /// [`TenantId`]).
    ///
    /// An empty `tenants` list yields an empty stream. Returns `None`
    /// when any pool is empty or any pattern is invalid.
    pub fn new(tenants: Vec<TenantTraffic>, duration_ms: u64, seed: u64) -> Option<Self> {
        let mut streams = Vec::with_capacity(tenants.len());
        for traffic in tenants {
            streams.push(PatternStream::new(traffic, duration_ms, seed)?);
        }
        let fronts = streams.iter_mut().map(PatternStream::next).collect();
        Some(SyntheticSource { streams, fronts })
    }
}

impl TraceSource for SyntheticSource {
    fn next_event(&mut self) -> Option<TraceEvent> {
        // Track the best front's sort key alongside its index, so the
        // comparison never has to re-index into `fronts`.
        let mut best: Option<(usize, (u64, TenantId))> = None;
        for (idx, front) in self.fronts.iter().enumerate() {
            let Some(event) = front else { continue };
            let key = (event.at_ms, event.tenant);
            let better = match best {
                None => true,
                Some((_, best_key)) => key < best_key,
            };
            if better {
                best = Some((idx, key));
            }
        }
        let (idx, _) = best?;
        let event = self.fronts[idx].take();
        self.fronts[idx] = self.streams[idx].next();
        event
    }
}

/// Borrowed streaming view over a materialized [`InvocationTrace`],
/// yielding its (already time-ordered) events one at a time.
#[derive(Debug, Clone)]
pub struct MaterializedSource<'a> {
    events: std::slice::Iter<'a, TraceEvent>,
}

impl TraceSource for MaterializedSource<'_> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        self.events.next().cloned()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.events.len();
        (remaining, Some(remaining))
    }
}

/// An invocation arrival trace.
///
/// # Examples
///
/// ```
/// use litmus_platform::InvocationTrace;
/// use litmus_workloads::suite;
///
/// let trace = InvocationTrace::poisson(suite::benchmarks(), 40.0, 2_000, 7)
///     .expect("non-empty pool");
/// assert!(!trace.events().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationTrace {
    events: Vec<TraceEvent>,
}

impl InvocationTrace {
    /// Builds a trace from explicit events (sorted by arrival time;
    /// ties broken by tenant so ordering is deterministic). An empty
    /// event list is a valid, empty trace — every constructor that
    /// takes a *collection of work* shares that invariant
    /// ([`InvocationTrace::multi_tenant`] included); only degenerate
    /// *parameters* (an empty function pool, an invalid pattern) are
    /// rejected.
    pub fn from_events(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| (e.at_ms, e.tenant));
        InvocationTrace { events }
    }

    /// Materializes a streaming [`TraceSource`] into a trace.
    pub fn from_source(mut source: impl TraceSource) -> Self {
        let mut events = Vec::with_capacity(source.size_hint().0);
        while let Some(event) = source.next_event() {
            events.push(event);
        }
        InvocationTrace::from_events(events)
    }

    /// Streaming view over this trace's events, for APIs that take a
    /// [`TraceSource`].
    pub fn source(&self) -> MaterializedSource<'_> {
        MaterializedSource {
            events: self.events.iter(),
        }
    }

    /// Synthesises a Poisson-like arrival process: exponential
    /// inter-arrival gaps at `rate_per_s` arrivals per second over
    /// `duration_ms`, drawing functions uniformly from `pool`.
    /// Deterministic for a given seed. All events bill to tenant 0.
    ///
    /// Returns `None` when `pool` is empty or the rate is not positive.
    pub fn poisson(
        pool: Vec<Benchmark>,
        rate_per_s: f64,
        duration_ms: u64,
        seed: u64,
    ) -> Option<Self> {
        InvocationTrace::multi_tenant(
            vec![TenantTraffic {
                tenant: TenantId::default(),
                pool,
                pattern: ArrivalPattern::Steady { rate_per_s },
            }],
            duration_ms,
            seed,
        )
    }

    /// Single-tenant bursty traffic (see [`ArrivalPattern::Bursty`]).
    ///
    /// Returns `None` when `pool` is empty, the burst rate is not
    /// positive, or the base rate is negative or non-finite (a zero
    /// base — traffic only in bursts — is allowed).
    pub fn bursty(
        pool: Vec<Benchmark>,
        base_rate_per_s: f64,
        burst_rate_per_s: f64,
        period_ms: u64,
        burst_ms: u64,
        duration_ms: u64,
        seed: u64,
    ) -> Option<Self> {
        InvocationTrace::multi_tenant(
            vec![TenantTraffic {
                tenant: TenantId::default(),
                pool,
                pattern: ArrivalPattern::Bursty {
                    base_rate_per_s,
                    burst_rate_per_s,
                    period_ms,
                    burst_ms,
                },
            }],
            duration_ms,
            seed,
        )
    }

    /// Single-tenant diurnal traffic (see [`ArrivalPattern::Diurnal`]).
    ///
    /// Returns `None` when `pool` is empty or the pattern is invalid.
    pub fn diurnal(
        pool: Vec<Benchmark>,
        mean_rate_per_s: f64,
        amplitude: f64,
        period_ms: u64,
        duration_ms: u64,
        seed: u64,
    ) -> Option<Self> {
        InvocationTrace::multi_tenant(
            vec![TenantTraffic {
                tenant: TenantId::default(),
                pool,
                pattern: ArrivalPattern::Diurnal {
                    mean_rate_per_s,
                    amplitude,
                    period_ms,
                },
            }],
            duration_ms,
            seed,
        )
    }

    /// Synthesises a multi-tenant trace: each tenant's arrivals follow
    /// their own [`ArrivalPattern`] (sampled by thinning, so
    /// time-varying rates stay exactly reproducible), and the streams
    /// merge into one globally time-ordered trace.
    ///
    /// Each tenant draws from an independent RNG stream derived from
    /// `seed` and their [`TenantId`], so adding a tenant never perturbs
    /// another tenant's arrivals.
    ///
    /// An empty `tenants` list yields an empty trace — consistent with
    /// [`InvocationTrace::from_events`] on an empty event list (no
    /// traffic is a valid workload). Returns `None` only for degenerate
    /// parameters: an empty function pool, or a pattern with a
    /// non-positive peak rate.
    ///
    /// This is [`SyntheticSource`] fully materialized: replaying the
    /// streaming source is bit-identical to replaying this trace.
    pub fn multi_tenant(tenants: Vec<TenantTraffic>, duration_ms: u64, seed: u64) -> Option<Self> {
        Some(InvocationTrace::from_source(SyntheticSource::new(
            tenants,
            duration_ms,
            seed,
        )?))
    }

    /// Merges two traces into one time-ordered trace.
    pub fn merge(self, other: InvocationTrace) -> InvocationTrace {
        let mut events = self.events;
        events.extend(other.events);
        InvocationTrace::from_events(events)
    }

    /// The trace events, sorted by arrival time.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of invocations in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct tenants appearing in the trace, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut tenants: Vec<TenantId> = self.events.iter().map(|e| e.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants
    }
}

/// Outcome of replaying a trace through the metering pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// One invoice per completed invocation, in completion order.
    pub ledger: BillingLedger,
    /// Invocations still running when the replay horizon was reached.
    pub unfinished: usize,
    /// Mean wall-clock latency of completed invocations, ms.
    pub mean_latency_ms: f64,
}

/// End-to-end production pipeline: arrivals → concurrent execution on a
/// shared-core machine → Litmus test per invocation → invoice per
/// completion — what a provider's metering plane does continuously.
#[derive(Debug, Clone)]
pub struct TraceDriver {
    spec: MachineSpec,
    cores: usize,
    scale: f64,
    drain_ms: u64,
}

impl TraceDriver {
    /// Creates a driver replaying onto the first `cores` cores of
    /// `spec` (functions time-share the pool).
    pub fn new(spec: MachineSpec, cores: usize) -> Self {
        TraceDriver {
            spec,
            cores,
            scale: 1.0,
            drain_ms: 60_000,
        }
    }

    /// Scales function bodies (tests use small values).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Maximum extra time after the last arrival to let stragglers
    /// finish before declaring them unfinished.
    pub fn drain_ms(mut self, ms: u64) -> Self {
        self.drain_ms = ms;
        self
    }

    /// Replays `trace`, pricing every completed invocation with
    /// `pricing` (tables supply probe baselines; each function's scaled
    /// profile and solo oracle are built once).
    ///
    /// Equivalent to [`TraceDriver::replay_source`] on
    /// [`InvocationTrace::source`].
    ///
    /// # Errors
    ///
    /// * [`PlatformError::EnvTooLarge`] if `cores` exceeds the machine.
    /// * Propagated simulation and pricing failures.
    pub fn replay(
        &self,
        trace: &InvocationTrace,
        pricing: &LitmusPricing,
        tables: &PricingTables,
    ) -> Result<TraceOutcome> {
        self.replay_source(trace.source(), pricing, tables)
    }

    /// Replays a streaming [`TraceSource`]: events are pulled in
    /// time-order chunks as simulated time advances, so the trace is
    /// never materialized and event buffering stays proportional to
    /// the invocations in flight. (The returned [`TraceOutcome`] still
    /// records one invoice and one latency sample per completion, so
    /// the *outcome* grows with the trace.) Each function's scaled
    /// profile and solo oracle are built lazily, the first time it
    /// appears, and every launch of it shares that profile.
    ///
    /// Bit-identical to materializing the source first and calling
    /// [`TraceDriver::replay`] — warming order cannot affect results
    /// (each solo oracle runs on its own idle simulator).
    ///
    /// # Errors
    ///
    /// * [`PlatformError::EnvTooLarge`] if `cores` exceeds the machine.
    /// * Propagated simulation and pricing failures.
    pub fn replay_source<S: TraceSource>(
        &self,
        source: S,
        pricing: &LitmusPricing,
        tables: &PricingTables,
    ) -> Result<TraceOutcome> {
        if self.cores > self.spec.cores || self.cores == 0 {
            return Err(PlatformError::EnvTooLarge {
                needed: self.cores,
                cores: self.spec.cores,
            });
        }
        let placement = Placement::pool_range(0, self.cores);
        let mut source = ChunkedSource::new(source);
        let mut sim = Simulator::new(self.spec.clone());

        // One entry per distinct function, filled lazily as functions
        // first appear in the stream: the scaled profile every launch of
        // it runs, and that profile's solo-oracle counters.
        let mut warmed: BTreeMap<&'static str, (ExecutionProfile, PmuCounters)> = BTreeMap::new();
        let mut pending: BTreeMap<InstanceId, Benchmark> = BTreeMap::new();
        let mut ledger = BillingLedger::new();
        let mut latencies = Vec::new();
        let mut last_arrival_ms = 0u64;

        loop {
            // Launch everything that has arrived by now.
            while let Some(event) = source.next_before(sim.now_ms() + 1) {
                let name = event.function.name();
                if !warmed.contains_key(name) {
                    let mut solo_sim = Simulator::new(self.spec.clone());
                    let profile = event.function.profile().scaled(self.scale)?;
                    let id = solo_sim.launch(profile.clone(), Placement::pinned(0))?;
                    let counters = solo_sim.run_to_completion(id)?.counters;
                    warmed.insert(name, (profile, counters));
                }
                let id = sim.launch(warmed[name].0.clone(), placement.clone())?;
                last_arrival_ms = last_arrival_ms.max(event.at_ms);
                pending.insert(id, event.function);
            }
            if source.is_exhausted()
                && (pending.is_empty() || sim.now_ms() >= last_arrival_ms + self.drain_ms)
            {
                break;
            }
            for completion in sim.step() {
                let Event::Completed { id, .. } = completion;
                let Some(bench) = pending.remove(&id) else {
                    continue;
                };
                let report = sim.report(id)?;
                let baseline = tables.baseline(bench.language())?;
                let startup = report
                    .startup
                    .as_ref()
                    .ok_or(litmus_core::CoreError::NoStartup)?;
                let reading = LitmusReading::from_startup(baseline, startup)?;
                let counters = report.counters;
                let solo = warmed[bench.name()].1;
                latencies.push(report.wall_ms());
                ledger.record(Invoice {
                    function: bench.name().to_owned(),
                    counters,
                    commercial: CommercialPricing::new().price(&counters),
                    litmus: pricing.price(&reading, &counters)?,
                    ideal: IdealPricing::new().price(&counters, &solo),
                });
            }
        }

        let mean_latency_ms = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        Ok(TraceOutcome {
            ledger,
            unfinished: pending.len(),
            mean_latency_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litmus_core::{DiscountModel, TableBuilder};
    use litmus_workloads::suite;

    fn pricing_setup() -> (LitmusPricing, PricingTables) {
        let tables = TableBuilder::new(MachineSpec::cascade_lake())
            .levels([6, 14, 24])
            .reference_scale(0.03)
            .build()
            .unwrap();
        let pricing = LitmusPricing::new(DiscountModel::fit(&tables).unwrap());
        (pricing, tables)
    }

    #[test]
    fn poisson_traces_are_deterministic_and_ordered() {
        let a = InvocationTrace::poisson(suite::benchmarks(), 50.0, 3000, 9).unwrap();
        let b = InvocationTrace::poisson(suite::benchmarks(), 50.0, 3000, 9).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for pair in a.events().windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
        // ~50/s over 3 s → ~150 arrivals; allow wide slack.
        assert!(a.len() > 75 && a.len() < 300, "{} arrivals", a.len());
    }

    #[test]
    fn poisson_rejects_bad_inputs() {
        assert!(InvocationTrace::poisson(Vec::new(), 10.0, 1000, 1).is_none());
        assert!(InvocationTrace::poisson(suite::benchmarks(), 0.0, 1000, 1).is_none());
        // No tenants is a valid (empty) workload, matching
        // `from_events(Vec::new())`; only degenerate parameters reject.
        assert!(InvocationTrace::multi_tenant(Vec::new(), 1000, 1)
            .is_some_and(|trace| trace.is_empty()));
        assert!(InvocationTrace::diurnal(
            suite::benchmarks(),
            50.0,
            1.7, // amplitude outside [0, 1]
            1000,
            1000,
            1
        )
        .is_none());
        // Every rate field is validated, not just the peak: a NaN or
        // negative base rate must reject, not silently skew thinning.
        for bad_base in [f64::NAN, -5.0] {
            assert!(InvocationTrace::bursty(
                suite::benchmarks(),
                bad_base,
                100.0,
                1000,
                200,
                2000,
                1
            )
            .is_none());
        }
        assert!(InvocationTrace::poisson(suite::benchmarks(), f64::NAN, 1000, 1).is_none());
        // A zero baseline (traffic only in bursts) is legitimate.
        let pure_bursts =
            InvocationTrace::bursty(suite::benchmarks(), 0.0, 200.0, 1000, 200, 4000, 1).unwrap();
        assert!(!pure_bursts.is_empty());
        assert!(pure_bursts.events().iter().all(|e| e.at_ms % 1000 < 200));
    }

    #[test]
    fn bursty_traces_concentrate_arrivals_in_bursts() {
        // 10/s baseline, 400/s bursts for 200 ms out of every 1000 ms.
        let trace =
            InvocationTrace::bursty(suite::benchmarks(), 10.0, 400.0, 1000, 200, 8_000, 5).unwrap();
        let in_burst = trace
            .events()
            .iter()
            .filter(|e| e.at_ms % 1000 < 200)
            .count();
        // Bursts cover 20% of the time but ~89% of the expected volume.
        assert!(
            in_burst as f64 > trace.len() as f64 * 0.7,
            "{in_burst}/{} arrivals in bursts",
            trace.len()
        );
        assert_eq!(
            trace,
            InvocationTrace::bursty(suite::benchmarks(), 10.0, 400.0, 1000, 200, 8_000, 5,)
                .unwrap()
        );
    }

    #[test]
    fn diurnal_traces_swing_between_peak_and_trough() {
        // One full cycle over 20 s; peak in the first half (sin > 0).
        let trace =
            InvocationTrace::diurnal(suite::benchmarks(), 40.0, 0.9, 20_000, 20_000, 6).unwrap();
        let first_half = trace.events().iter().filter(|e| e.at_ms < 10_000).count();
        let second_half = trace.len() - first_half;
        assert!(
            first_half as f64 > second_half as f64 * 2.0,
            "peak half {first_half} vs trough half {second_half}"
        );
    }

    #[test]
    fn multi_tenant_streams_are_independent_and_ordered() {
        let tenant = |id: u32, rate: f64| TenantTraffic {
            tenant: TenantId(id),
            pool: suite::benchmarks(),
            pattern: ArrivalPattern::Steady { rate_per_s: rate },
        };
        let both = InvocationTrace::multi_tenant(vec![tenant(1, 30.0), tenant(2, 60.0)], 5_000, 17)
            .unwrap();
        for pair in both.events().windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
        assert_eq!(both.tenants(), vec![TenantId(1), TenantId(2)]);
        let t1: Vec<_> = both
            .events()
            .iter()
            .filter(|e| e.tenant == TenantId(1))
            .collect();
        let t2 = both.len() - t1.len();
        // Tenant 2 arrives at twice the rate.
        assert!(
            t2 as f64 > t1.len() as f64 * 1.4,
            "{} vs {t2} arrivals",
            t1.len()
        );
        // Tenant 1's stream is identical when tenant 2 leaves: streams
        // are seeded per tenant, not shared.
        let alone = InvocationTrace::multi_tenant(vec![tenant(1, 30.0)], 5_000, 17).unwrap();
        let alone_events: Vec<_> = alone.events().iter().collect();
        assert_eq!(t1, alone_events);
    }

    #[test]
    fn synthetic_source_streams_exactly_the_materialized_trace() {
        let tenants = || {
            vec![
                TenantTraffic {
                    tenant: TenantId(3),
                    pool: suite::benchmarks(),
                    pattern: ArrivalPattern::Steady { rate_per_s: 40.0 },
                },
                TenantTraffic {
                    tenant: TenantId(1),
                    pool: suite::benchmarks(),
                    pattern: ArrivalPattern::Bursty {
                        base_rate_per_s: 5.0,
                        burst_rate_per_s: 120.0,
                        period_ms: 1_000,
                        burst_ms: 250,
                    },
                },
            ]
        };
        let materialized = InvocationTrace::multi_tenant(tenants(), 4_000, 99).unwrap();
        let mut source = SyntheticSource::new(tenants(), 4_000, 99).unwrap();
        let mut streamed = Vec::new();
        while let Some(event) = source.next_event() {
            streamed.push(event);
        }
        assert!(!streamed.is_empty());
        assert_eq!(streamed, materialized.events());
        // Collecting the source through `from_source` is the same
        // trace: the merge already yields the canonical order, so the
        // stable re-sort is a no-op.
        assert_eq!(
            InvocationTrace::from_source(SyntheticSource::new(tenants(), 4_000, 99).unwrap()),
            materialized
        );
    }

    /// Two parts whose first overruns the second's offset: part 0 spans
    /// about 2 s, part 1 starts at 500 ms.
    fn overrunning_concat(trace: &InvocationTrace) -> ConcatSource<MaterializedSource<'_>> {
        ConcatSource::new(vec![(0, trace.source()), (500, trace.source())]).unwrap()
    }

    #[test]
    #[should_panic(expected = "broke time order")]
    fn concat_rejects_a_pulled_event_out_of_order() {
        let trace = InvocationTrace::poisson(suite::benchmarks(), 60.0, 2_000, 12).unwrap();
        let mut source = overrunning_concat(&trace);
        while source.next_event().is_some() {}
    }

    #[test]
    #[should_panic(expected = "broke time order")]
    fn concat_rejects_a_skipped_event_out_of_order() {
        let trace = InvocationTrace::poisson(suite::benchmarks(), 60.0, 2_000, 12).unwrap();
        let mut source = overrunning_concat(&trace);
        while source.skip_events(1).is_some() {}
    }

    /// The overrun falls inside one bulk-skipped run: its first event is
    /// part 0's last, its second part 1's first.
    #[test]
    #[should_panic(expected = "broke time order")]
    fn concat_rejects_an_overrun_inside_a_skipped_run() {
        let trace = InvocationTrace::poisson(suite::benchmarks(), 60.0, 2_000, 12).unwrap();
        let mut source = overrunning_concat(&trace);
        let before = source.skip_events(trace.len() - 1).unwrap();
        assert_eq!(before.count, trace.len() - 1, "part 0 alone is in order");
        source.skip_events(2);
    }

    #[test]
    fn skipped_runs_walk_the_pulled_times() {
        let trace = InvocationTrace::poisson(suite::benchmarks(), 60.0, 2_000, 12).unwrap();
        let span = trace.events().last().unwrap().at_ms + 1;
        let concat =
            || ConcatSource::new(vec![(0, trace.source()), (span, trace.source())]).unwrap();
        let mut pulled = concat();
        let times: Vec<u64> = std::iter::from_fn(|| pulled.next_event().map(|e| e.at_ms)).collect();
        assert_eq!(times.len(), 2 * trace.len());
        for len in [1, 2, 7, trace.len(), times.len() + 3] {
            let mut source = concat();
            let mut at = 0;
            while let Some(run) = source.skip_events(len) {
                assert_eq!(run.count, len.min(times.len() - at));
                assert_eq!(
                    (run.first_ms, run.last_ms),
                    (times[at], times[at + run.count - 1])
                );
                at += run.count;
                assert_eq!(source.size_hint().0, times.len() - at);
            }
            assert_eq!(at, times.len(), "runs of {len}");
        }
        assert_eq!(concat().skip_events(0), None);
    }

    #[test]
    fn chunked_source_drains_in_time_order_chunks() {
        let trace = InvocationTrace::poisson(suite::benchmarks(), 60.0, 2_000, 12).unwrap();
        let mut chunked = ChunkedSource::new(trace.source());
        assert_eq!(chunked.size_hint(), (trace.len(), Some(trace.len())));
        let mut rebuilt = Vec::new();
        let mut boundary = 0;
        while !chunked.is_exhausted() {
            boundary += 500;
            let before = rebuilt.len();
            chunked.fill_before(boundary, &mut rebuilt);
            for event in &rebuilt[before..] {
                assert!(event.at_ms < boundary);
                assert!(event.at_ms + 500 >= boundary, "event leaked a chunk early");
            }
        }
        assert_eq!(rebuilt, trace.events());
    }

    #[test]
    fn streaming_replay_is_bit_identical_to_materialized() {
        // A source the driver does not construct itself (replay() is
        // replay_source() on trace.source(), so comparing those two
        // would be vacuous): hand-rolled, with no size hint, so the
        // chunked lookahead path is exercised end to end.
        struct OwnedSource(std::collections::VecDeque<TraceEvent>);
        impl TraceSource for OwnedSource {
            fn next_event(&mut self) -> Option<TraceEvent> {
                self.0.pop_front()
            }
        }

        let (pricing, tables) = pricing_setup();
        let trace = InvocationTrace::poisson(suite::benchmarks(), 90.0, 700, 21).unwrap();
        let driver = TraceDriver::new(MachineSpec::cascade_lake(), 8)
            .scale(0.04)
            .drain_ms(20_000);
        let materialized = driver.replay(&trace, &pricing, &tables).unwrap();
        let streamed = driver
            .replay_source(
                OwnedSource(trace.events().iter().cloned().collect()),
                &pricing,
                &tables,
            )
            .unwrap();
        assert_eq!(materialized, streamed);
        assert_eq!(materialized.ledger.len(), trace.len());
    }

    #[test]
    fn counting_tap_is_transparent_and_tallies_buckets() {
        let trace = InvocationTrace::poisson(suite::benchmarks(), 70.0, 3_000, 33).unwrap();
        let mut tap = CountingSource::new(trace.source(), 250);
        let mut streamed = Vec::new();
        while let Some(event) = tap.next_event() {
            streamed.push(event);
        }
        assert_eq!(streamed, trace.events(), "the tap must not perturb events");
        assert_eq!(tap.total() as usize, trace.len());
        // Counts match a direct bucketing of the trace.
        let buckets = trace
            .events()
            .iter()
            .map(|e| (e.at_ms / 250) as usize)
            .max()
            .unwrap()
            + 1;
        let mut expected = vec![0u64; buckets];
        for event in trace.events() {
            expected[(event.at_ms / 250) as usize] += 1;
        }
        assert_eq!(tap.bucket_counts(), expected);
        // A replay through the tap prices identically to one without.
        let (pricing, tables) = pricing_setup();
        let driver = TraceDriver::new(MachineSpec::cascade_lake(), 8)
            .scale(0.04)
            .drain_ms(20_000);
        let plain = driver.replay(&trace, &pricing, &tables).unwrap();
        let mut tap = CountingSource::new(trace.source(), 250);
        let tapped = driver.replay_source(&mut tap, &pricing, &tables).unwrap();
        assert_eq!(plain, tapped);
        assert_eq!(tap.total() as usize, trace.len());
    }

    #[test]
    fn merge_interleaves_by_time() {
        let a = InvocationTrace::poisson(suite::benchmarks(), 20.0, 2_000, 1).unwrap();
        let b = InvocationTrace::poisson(suite::benchmarks(), 20.0, 2_000, 2).unwrap();
        let merged = a.clone().merge(b.clone());
        assert_eq!(merged.len(), a.len() + b.len());
        for pair in merged.events().windows(2) {
            assert!(pair[0].at_ms <= pair[1].at_ms);
        }
    }

    #[test]
    fn replay_prices_every_completed_invocation() {
        let (pricing, tables) = pricing_setup();
        let trace = InvocationTrace::poisson(suite::benchmarks(), 120.0, 800, 3).unwrap();
        let outcome = TraceDriver::new(MachineSpec::cascade_lake(), 8)
            .scale(0.04)
            .drain_ms(20_000)
            .replay(&trace, &pricing, &tables)
            .unwrap();
        assert_eq!(outcome.unfinished, 0, "drain window must suffice");
        assert_eq!(outcome.ledger.len(), trace.len());
        assert!(outcome.mean_latency_ms > 0.0);
        // Litmus revenue ≤ commercial; discounts are genuine.
        assert!(outcome.ledger.litmus_revenue() <= outcome.ledger.commercial_revenue());
        assert!(outcome.ledger.average_discount() > 0.0);
    }

    #[test]
    fn empty_trace_replays_to_empty_ledger() {
        let (pricing, tables) = pricing_setup();
        let trace = InvocationTrace::from_events(Vec::new());
        let outcome = TraceDriver::new(MachineSpec::cascade_lake(), 4)
            .replay(&trace, &pricing, &tables)
            .unwrap();
        assert!(outcome.ledger.is_empty());
        assert_eq!(outcome.mean_latency_ms, 0.0);
    }

    #[test]
    fn oversized_core_pool_is_rejected() {
        let (pricing, tables) = pricing_setup();
        let trace = InvocationTrace::from_events(Vec::new());
        assert!(matches!(
            TraceDriver::new(MachineSpec::cascade_lake(), 64).replay(&trace, &pricing, &tables),
            Err(PlatformError::EnvTooLarge { .. })
        ));
    }
}
