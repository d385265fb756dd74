//! Bounded ring-buffer flight recorder.
//!
//! Week-scale replays emit millions of timeline events; a live system
//! (and a crashing one) wants the *recent* history cheap and always
//! available. The [`FlightRecorder`] keeps the last `capacity` point
//! events in a ring: constant memory, O(1) per record, and the drop
//! count is tracked so a dump is honest about what it no longer holds.

use std::collections::VecDeque;

use crate::event::{EventKind, Fields, TimelineEvent};

/// A bounded ring of the most recent timeline events.
///
/// # Examples
///
/// ```
/// use litmus_telemetry::{FlightRecorder, TimelineEvent};
/// # use litmus_telemetry::EventKind;
///
/// let mut recorder = FlightRecorder::new(2);
/// for at_ms in [10, 20, 30] {
///     recorder.record(TimelineEvent {
///         at_ms,
///         name: "tick",
///         kind: EventKind::Point,
///         fields: vec![],
///     });
/// }
/// assert_eq!(recorder.seen(), 3);
/// assert_eq!(recorder.dropped(), 1);
/// let kept: Vec<u64> = recorder.dump().map(|e| e.at_ms).collect();
/// assert_eq!(kept, [20, 30]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<TimelineEvent>,
    seen: u64,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity),
            seen: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event, evicting the oldest once full.
    pub fn record(&mut self, event: TimelineEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.seen += 1;
    }

    /// Records a point event from borrowed fields. Once the ring is
    /// full this copies into the evicted slot, reusing its field
    /// storage instead of allocating a fresh `Vec` per event.
    pub(crate) fn record_point(&mut self, at_ms: u64, name: &'static str, fields: &Fields) {
        if self.events.len() < self.capacity {
            self.record(TimelineEvent {
                at_ms,
                name,
                kind: EventKind::Point,
                fields: fields.clone(),
            });
            return;
        }
        let Some(mut slot) = self.events.pop_front() else {
            return;
        };
        slot.at_ms = at_ms;
        slot.name = name;
        slot.kind = EventKind::Point;
        slot.fields.clone_from(fields);
        self.events.push_back(slot);
        self.seen += 1;
    }

    /// Events currently held, oldest first.
    pub fn dump(&self) -> impl Iterator<Item = &TimelineEvent> {
        self.events.iter()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events ever recorded (held + evicted).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.seen - self.events.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn tick(at_ms: u64) -> TimelineEvent {
        TimelineEvent {
            at_ms,
            name: "tick",
            kind: EventKind::Point,
            fields: vec![],
        }
    }

    #[test]
    fn ring_keeps_the_newest_events_in_order() {
        let mut recorder = FlightRecorder::new(3);
        for at in 0..10 {
            recorder.record(tick(at));
        }
        let kept: Vec<u64> = recorder.dump().map(|e| e.at_ms).collect();
        assert_eq!(kept, [7, 8, 9]);
        assert_eq!(recorder.seen(), 10);
        assert_eq!(recorder.dropped(), 7);
        assert_eq!(recorder.len(), 3);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut recorder = FlightRecorder::new(0);
        assert_eq!(recorder.capacity(), 1);
        recorder.record(tick(1));
        recorder.record(tick(2));
        assert_eq!(recorder.dump().map(|e| e.at_ms).collect::<Vec<_>>(), [2]);
    }
}
