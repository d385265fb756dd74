//! Order-preserving trace transforms, applicable to any streaming
//! [`TraceSource`] (or a materialized [`InvocationTrace`]): compress
//! time, thin the arrival rate, subsample tenants, slice a window.
//!
//! Every transform is a *monotone filter-map* on the stream — it may
//! drop events and shift times, but it never rewrites a tenant id and
//! never reorders a tenant's surviving events. One caveat on
//! *cross-tenant* order: compression can collapse distinct arrival
//! times into ties, and same-millisecond ties are always re-normalized
//! into the canonical ascending-tenant order [`TraceSource`] requires —
//! so a transformed source stays a valid time-ordered source, and
//! streaming it is bit-identical to materializing it.

use litmus_platform::{InvocationTrace, TenantId, TraceEvent, TraceSource};

use crate::error::TraceError;
use crate::Result;

/// One order-preserving rewrite of a trace stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceTransform {
    /// Divides every arrival time by `divisor` — replay a day-long
    /// trace in minutes while keeping every tenant's arrivals in their
    /// relative order. Distinct times that collapse into one
    /// millisecond become ties, and ties are re-sorted into the
    /// canonical `(at_ms, tenant)` order — cross-tenant positions
    /// within a tie may therefore differ from the input's.
    Compress {
        /// Time divisor, ≥ 1.
        divisor: u64,
    },
    /// Keeps each event independently with probability
    /// `keep_fraction`, decided by a deterministic per-event hash of
    /// the seed and the event's position in the *input* stream — so
    /// the same seed always keeps the same events, and composing
    /// further transforms downstream never re-rolls the dice.
    ///
    /// Because the decision needs only the position, a
    /// [`TransformedSource`] makes it before pulling the event whenever
    /// no [`TraceTransform::Window`] precedes this stage, and passes
    /// each run of dropped events with one [`TraceSource::skip_events`]
    /// call: a source that builds events lazily never builds the ones
    /// thinning drops.
    ScaleRate {
        /// Fraction of events to keep, in `[0, 1]`.
        keep_fraction: f64,
        /// Thinning seed.
        seed: u64,
    },
    /// Keeps only the listed tenants' events.
    Subsample {
        /// Tenants to keep.
        tenants: Vec<TenantId>,
    },
    /// Keeps events with `start_ms <= at_ms < end_ms`, rebasing times
    /// so the window starts at zero.
    Window {
        /// Inclusive window start, ms.
        start_ms: u64,
        /// Exclusive window end, ms.
        end_ms: u64,
    },
}

impl TraceTransform {
    fn validate(&self) -> Result<()> {
        match self {
            TraceTransform::Compress { divisor } => {
                if *divisor == 0 {
                    return Err(TraceError::InvalidConfig("compress divisor must be ≥ 1"));
                }
            }
            TraceTransform::ScaleRate { keep_fraction, .. } => {
                if !(0.0..=1.0).contains(keep_fraction) {
                    return Err(TraceError::InvalidConfig("keep_fraction must be in [0, 1]"));
                }
            }
            TraceTransform::Subsample { .. } => {}
            TraceTransform::Window { start_ms, end_ms } => {
                if start_ms >= end_ms {
                    return Err(TraceError::InvalidConfig(
                        "window start must precede its end",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether this stage drops input event `index` whatever the event
    /// holds: only thinning decides by position alone. The one
    /// keep/drop rule of [`TraceTransform::ScaleRate`], shared by
    /// [`TraceTransform::apply`] and the pre-pull check.
    fn drops_index(&self, index: u64) -> bool {
        match self {
            TraceTransform::ScaleRate {
                keep_fraction,
                seed,
            } => unit_hash(*seed, index) >= *keep_fraction,
            _ => false,
        }
    }

    /// Applies this transform to one event (`index` is the event's
    /// 0-based position in the *input* stream).
    fn apply(&self, mut event: TraceEvent, index: u64) -> Step {
        match self {
            TraceTransform::Compress { divisor } => {
                event.at_ms /= divisor;
                Step::Keep(event)
            }
            TraceTransform::ScaleRate { .. } => {
                if self.drops_index(index) {
                    Step::Drop
                } else {
                    Step::Keep(event)
                }
            }
            TraceTransform::Subsample { tenants } => {
                if tenants.contains(&event.tenant) {
                    Step::Keep(event)
                } else {
                    Step::Drop
                }
            }
            TraceTransform::Window { start_ms, end_ms } => {
                if event.at_ms < *start_ms {
                    Step::Drop
                } else if event.at_ms < *end_ms {
                    event.at_ms -= start_ms;
                    Step::Keep(event)
                } else {
                    // Every transform is monotone in time, so this
                    // stage's input can only grow: nothing later will
                    // ever re-enter the window.
                    Step::Finished
                }
            }
        }
    }
}

/// Outcome of one transform stage on one event.
enum Step {
    /// The (possibly rewritten) event continues down the chain.
    Keep(TraceEvent),
    /// This event is dropped; later events may still survive.
    Drop,
    /// This event is dropped and, by time-monotonicity, so is every
    /// later one — the stream can end without draining the source.
    Finished,
}

/// SplitMix64 finalizer over `(seed, index)`, mapped to `[0, 1)` — the
/// thinning coin for [`TraceTransform::ScaleRate`].
fn unit_hash(seed: u64, index: u64) -> f64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A [`TraceSource`] with a chain of [`TraceTransform`]s applied in
/// order, lazily, event by event.
///
/// The output honours the full [`TraceSource`] contract, including
/// ascending-tenant order among same-millisecond ties: compression can
/// *create* cross-tenant ties out of events the input ordered by their
/// original times, so each run of two or more equal output times is
/// buffered and re-sorted by tenant before it is yielded; an event
/// alone at its millisecond passes straight through. Memory therefore
/// tracks the largest tie run — one compressed millisecond's worth of
/// events — not the trace.
#[derive(Debug, Clone)]
pub struct TransformedSource<S> {
    source: S,
    transforms: Vec<TraceTransform>,
    /// Length of the chain's prefix before its first window: stages
    /// there may drop an event by its index before it is pulled. A
    /// stage after a window must see every event the window passes,
    /// because the window can end the stream on any of them.
    pre_pull: usize,
    index: u64,
    /// The current run of equal-`at_ms` output events, canonically
    /// ordered; drained front to back.
    ties: std::collections::VecDeque<TraceEvent>,
    /// First transformed event beyond the current run.
    pending: Option<TraceEvent>,
    /// Set once a window stage proves no later event can survive; the
    /// rest of the source is never pulled.
    finished: bool,
}

impl<S: TraceSource> TransformedSource<S> {
    /// Wraps `source`, applying `transforms` left to right to every
    /// event.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidConfig`] for a zero compress divisor, a
    /// keep fraction outside `[0, 1]`, or an inverted window.
    pub fn new(source: S, transforms: Vec<TraceTransform>) -> Result<Self> {
        for transform in &transforms {
            transform.validate()?;
        }
        let pre_pull = transforms
            .iter()
            .position(|t| matches!(t, TraceTransform::Window { .. }))
            .unwrap_or(transforms.len());
        Ok(TransformedSource {
            source,
            transforms,
            pre_pull,
            index: 0,
            ties: std::collections::VecDeque::new(),
            pending: None,
            finished: false,
        })
    }

    /// Pulls input events through the transform chain until one
    /// survives — or a window stage proves the stream is over, which
    /// ends it without draining (or expanding) the rest of the source.
    /// Events a pre-window stage drops by index are never built: each
    /// run of them, up to `MAX_SKIP_RUN` long, is passed with one
    /// [`TraceSource::skip_events`] call.
    fn next_transformed(&mut self) -> Option<TraceEvent> {
        'events: while !self.finished {
            let run = self.dropped_run();
            if run > 0 {
                let skipped = self.source.skip_events(run)?;
                self.index += skipped.count as u64;
                if run == MAX_SKIP_RUN {
                    // The run may go on past the cap.
                    continue;
                }
            }
            let index = self.index;
            let mut event = self.source.next_event()?;
            self.index += 1;
            for transform in &self.transforms {
                match transform.apply(event, index) {
                    Step::Keep(kept) => event = kept,
                    Step::Drop => continue 'events,
                    Step::Finished => {
                        self.finished = true;
                        return None;
                    }
                }
            }
            return Some(event);
        }
        None
    }

    /// How many input events from `index` on the pre-window stages drop
    /// by index alone, counted up to `MAX_SKIP_RUN`.
    fn dropped_run(&self) -> usize {
        let pre_pull = &self.transforms[..self.pre_pull];
        (0..MAX_SKIP_RUN)
            .take_while(|&k| {
                let index = self.index + k as u64;
                pre_pull.iter().any(|t| t.drops_index(index))
            })
            .count()
    }
}

/// Longest run of dropped input events [`TransformedSource`] counts
/// before skipping it: a chain that drops everything still pulls in
/// bounded steps.
const MAX_SKIP_RUN: usize = 1024;

impl<S: TraceSource> TraceSource for TransformedSource<S> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        if let Some(event) = self.ties.pop_front() {
            return Some(event);
        }
        // One event of lookahead: an event alone at its millisecond,
        // the usual case, goes straight out.
        let first = self.pending.take().or_else(|| self.next_transformed())?;
        let at_ms = first.at_ms;
        self.pending = self.next_transformed();
        if self.pending.as_ref().map(|e| e.at_ms) != Some(at_ms) {
            return Some(first);
        }
        // A tie: collect the run of equal output times and restore the
        // canonical ascending-tenant order (the sort is stable, so
        // same-tenant events keep their input order — exactly what the
        // materialized path's stable re-sort produces).
        self.ties.push_back(first);
        while let Some(event) = self.pending.take_if(|e| e.at_ms == at_ms) {
            self.ties.push_back(event);
            self.pending = self.next_transformed();
        }
        self.ties.make_contiguous().sort_by_key(|e| e.tenant);
        self.ties.pop_front()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = self.ties.len() + usize::from(self.pending.is_some());
        // Transforms only drop events, never add.
        (buffered, self.source.size_hint().1.map(|h| h + buffered))
    }
}

/// Applies `transforms` to a materialized trace (per-tenant event
/// order and tenant ids are preserved; same-millisecond ties created
/// by compression are re-normalized into the trace's canonical
/// `(at_ms, tenant)` order).
///
/// # Errors
///
/// Everything [`TransformedSource::new`] rejects.
pub fn apply(trace: &InvocationTrace, transforms: &[TraceTransform]) -> Result<InvocationTrace> {
    let source = TransformedSource::new(trace.source(), transforms.to_vec())?;
    Ok(InvocationTrace::from_source(source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{multi_day_source, ExpandConfig};
    use crate::fixture;
    use litmus_workloads::suite;
    use proptest::prelude::*;

    fn base_trace() -> InvocationTrace {
        fixture::dataset()
            .expand(ExpandConfig::new(11).minute_ms(1_000))
            .unwrap()
    }

    /// A time-ordered stream (one event every 10 ms) that counts how
    /// many events the chain actually pulls. It is endless for any
    /// chain that stops early; a chain that keeps pulling meets a
    /// safety stop after a million events and fails its pull count
    /// instead of hanging.
    struct CountingSource {
        next_at: u64,
        pulled: u64,
    }

    impl CountingSource {
        fn new() -> Self {
            CountingSource {
                next_at: 0,
                pulled: 0,
            }
        }
    }

    impl TraceSource for CountingSource {
        fn next_event(&mut self) -> Option<TraceEvent> {
            if self.pulled == 1_000_000 {
                return None;
            }
            let at_ms = self.next_at;
            self.next_at += 10;
            self.pulled += 1;
            Some(TraceEvent {
                at_ms,
                function: suite::by_name("auth-go").unwrap(),
                tenant: TenantId(0),
            })
        }
    }

    /// The chain's semantics as a plain loop: pull every input event
    /// with `next_event`, run it through each stage in order, stop at
    /// the first `Finished`, then restore the canonical tie order with
    /// a stable sort of the survivors.
    fn reference(mut source: impl TraceSource, transforms: &[TraceTransform]) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        'events: for index in 0.. {
            let Some(mut event) = source.next_event() else {
                break;
            };
            for transform in transforms {
                match transform.apply(event, index) {
                    Step::Keep(kept) => event = kept,
                    Step::Drop => continue 'events,
                    Step::Finished => break 'events,
                }
            }
            out.push(event);
        }
        out.sort_by_key(|e| (e.at_ms, e.tenant));
        out
    }

    fn drain(mut source: impl TraceSource) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        while let Some(event) = source.next_event() {
            out.push(event);
        }
        out
    }

    /// One generated chain stage: `kind` picks the transform (thinning
    /// twice as often as the others), the rest parameterize it within
    /// a trace spanning `span_ms`.
    fn stage((kind, a, b, fraction): (u32, u64, u64, f64), span_ms: u64) -> TraceTransform {
        match kind {
            0 | 1 => TraceTransform::ScaleRate {
                // Exercise the extremes as well as the interior.
                keep_fraction: match a % 8 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => fraction,
                },
                seed: b,
            },
            2 => {
                let start_ms = a % span_ms;
                TraceTransform::Window {
                    start_ms,
                    end_ms: start_ms + 1 + b % span_ms,
                }
            }
            3 => TraceTransform::Compress { divisor: 1 + a % 8 },
            _ => TraceTransform::Subsample {
                tenants: (0..6).filter(|t| a >> t & 1 == 1).map(TenantId).collect(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_chains_match_the_reference_loop(
            (days, minute_ms, seed) in (1usize..3, 50u64..400, 0u64..1_000),
            raw in prop::collection::vec((0u32..5, 0u64..1 << 20, 0u64..1 << 20, 0.0f64..1.0), 0..5),
        ) {
            let days = vec![fixture::dataset(); days];
            let config = ExpandConfig::new(seed).minute_ms(minute_ms);
            let span_ms = days.len() as u64 * days[0].minutes() as u64 * minute_ms;
            let transforms: Vec<TraceTransform> =
                raw.into_iter().map(|r| stage(r, span_ms)).collect();
            let expected = reference(multi_day_source(&days, config).unwrap(), &transforms);
            let source = multi_day_source(&days, config).unwrap();
            let streamed = drain(TransformedSource::new(source, transforms.clone()).unwrap());
            prop_assert_eq!(streamed.len(), expected.len());
            prop_assert!(streamed == expected, "chain {:?} diverged", transforms);
        }
    }

    #[test]
    fn compress_divides_times_and_keeps_every_event() {
        let trace = base_trace();
        let compressed = apply(&trace, &[TraceTransform::Compress { divisor: 4 }]).unwrap();
        assert_eq!(compressed.len(), trace.len());
        for (orig, new) in trace.events().iter().zip(compressed.events()) {
            assert_eq!(new.at_ms, orig.at_ms / 4);
        }
    }

    #[test]
    fn streamed_compression_restores_canonical_tie_order() {
        // Input is canonically ordered by (at_ms, tenant); dividing by
        // 4 collapses both events onto 1 ms with the tenants in
        // *descending* order — the stream must re-sort the tie.
        let event = |at_ms: u64, tenant: u32| TraceEvent {
            at_ms,
            function: suite::by_name("auth-go").unwrap(),
            tenant: TenantId(tenant),
        };
        let trace = InvocationTrace::from_events(vec![event(4, 1), event(5, 0)]);
        let transforms = vec![TraceTransform::Compress { divisor: 4 }];
        let mut streamed = Vec::new();
        let mut source = TransformedSource::new(trace.source(), transforms.clone()).unwrap();
        while let Some(event) = source.next_event() {
            streamed.push(event);
        }
        assert_eq!(
            streamed.iter().map(|e| e.tenant).collect::<Vec<_>>(),
            vec![TenantId(0), TenantId(1)],
            "ties must come out in ascending tenant order"
        );
        assert_eq!(streamed, apply(&trace, &transforms).unwrap().events());

        // And at fixture scale: the streamed sequence is exactly the
        // materialized one, for a tie-heavy compression.
        let trace = base_trace();
        let transforms = vec![TraceTransform::Compress { divisor: 200 }];
        let materialized = apply(&trace, &transforms).unwrap();
        let mut source = TransformedSource::new(trace.source(), transforms).unwrap();
        let mut streamed = Vec::new();
        while let Some(event) = source.next_event() {
            streamed.push(event);
        }
        assert_eq!(streamed, materialized.events());
    }

    #[test]
    fn scale_rate_thins_deterministically() {
        let trace = base_trace();
        let half = |seed| {
            apply(
                &trace,
                &[TraceTransform::ScaleRate {
                    keep_fraction: 0.5,
                    seed,
                }],
            )
            .unwrap()
        };
        let a = half(1);
        assert_eq!(a, half(1), "same seed, same survivors");
        assert_ne!(a, half(2), "different seed, different survivors");
        let ratio = a.len() as f64 / trace.len() as f64;
        assert!((0.4..0.6).contains(&ratio), "kept {ratio:.2}");
        // Extremes.
        assert_eq!(
            apply(
                &trace,
                &[TraceTransform::ScaleRate {
                    keep_fraction: 1.0,
                    seed: 9
                }]
            )
            .unwrap(),
            trace
        );
        assert!(apply(
            &trace,
            &[TraceTransform::ScaleRate {
                keep_fraction: 0.0,
                seed: 9
            }]
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn subsample_keeps_exactly_the_listed_tenants() {
        let trace = base_trace();
        let keep = vec![TenantId(0), TenantId(3)];
        let sampled = apply(
            &trace,
            &[TraceTransform::Subsample {
                tenants: keep.clone(),
            }],
        )
        .unwrap();
        assert!(!sampled.is_empty());
        assert!(sampled.events().iter().all(|e| keep.contains(&e.tenant)));
        let expected = trace
            .events()
            .iter()
            .filter(|e| keep.contains(&e.tenant))
            .count();
        assert_eq!(sampled.len(), expected);
    }

    #[test]
    fn window_short_circuits_past_its_end() {
        let mut source = TransformedSource::new(
            CountingSource::new(),
            vec![TraceTransform::Window {
                start_ms: 100,
                end_ms: 200,
            }],
        )
        .unwrap();
        let mut yielded = 0;
        while source.next_event().is_some() {
            yielded += 1;
        }
        assert_eq!(yielded, 10, "events at 100, 110, …, 190");
        // 0..=200 step 10 → 21 pulls: everything up to and including
        // the first past-the-end event, nothing beyond.
        assert_eq!(source.source.pulled, 21);
        // Exhaustion is sticky.
        assert!(source.next_event().is_none());
        assert_eq!(source.source.pulled, 21);
    }

    #[test]
    fn thinning_behind_a_window_still_ends_at_the_window() {
        // A thinning stage that drops everything, placed after the
        // window: the window must still see the first past-the-end
        // event and end the endless stream there.
        let mut source = TransformedSource::new(
            CountingSource::new(),
            vec![
                TraceTransform::Window {
                    start_ms: 100,
                    end_ms: 200,
                },
                TraceTransform::ScaleRate {
                    keep_fraction: 0.0,
                    seed: 3,
                },
            ],
        )
        .unwrap();
        assert!(source.next_event().is_none());
        assert_eq!(source.source.pulled, 21);
    }

    #[test]
    fn window_slices_and_rebases() {
        let trace = base_trace();
        let windowed = apply(
            &trace,
            &[TraceTransform::Window {
                start_ms: 2_000,
                end_ms: 5_000,
            }],
        )
        .unwrap();
        assert!(!windowed.is_empty());
        assert!(windowed.events().iter().all(|e| e.at_ms < 3_000));
        let expected = trace
            .events()
            .iter()
            .filter(|e| (2_000..5_000).contains(&e.at_ms))
            .count();
        assert_eq!(windowed.len(), expected);
    }

    #[test]
    fn chains_apply_in_order() {
        let trace = base_trace();
        // Window-then-compress ≠ compress-then-window at these params;
        // check the former's composition explicitly.
        let chained = apply(
            &trace,
            &[
                TraceTransform::Window {
                    start_ms: 1_000,
                    end_ms: 9_000,
                },
                TraceTransform::Compress { divisor: 2 },
            ],
        )
        .unwrap();
        let windowed = apply(
            &trace,
            &[TraceTransform::Window {
                start_ms: 1_000,
                end_ms: 9_000,
            }],
        )
        .unwrap();
        let both = apply(&windowed, &[TraceTransform::Compress { divisor: 2 }]).unwrap();
        assert_eq!(chained, both);
    }

    #[test]
    fn degenerate_transforms_are_rejected() {
        let trace = base_trace();
        assert!(apply(&trace, &[TraceTransform::Compress { divisor: 0 }]).is_err());
        assert!(apply(
            &trace,
            &[TraceTransform::ScaleRate {
                keep_fraction: 1.5,
                seed: 0
            }]
        )
        .is_err());
        assert!(apply(
            &trace,
            &[TraceTransform::Window {
                start_ms: 5,
                end_ms: 5
            }]
        )
        .is_err());
    }
}
