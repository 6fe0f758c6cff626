//! Dataset container shared by all generators.

use impatience_core::{EvalPayload, Event, TickDuration, Timestamp, WatermarkClock};

/// A generated out-of-order dataset: events in **arrival (processing)
/// order**, each carrying its logical event time in `sync_time`.
///
/// Payloads follow the paper's evaluation setup (§VI-A): four 32-bit
/// integer fields.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short name for figure legends ("CloudLog", "AndroidLog", ...).
    pub name: String,
    /// Events in arrival order.
    pub events: Vec<Event<EvalPayload>>,
}

impl Dataset {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Event-time sequence in arrival order (for disorder measurement).
    pub fn event_times(&self) -> Vec<Timestamp> {
        self.events.iter().map(|e| e.sync_time).collect()
    }

    /// Fraction of events inside `latency` by the one lateness rule
    /// ([`WatermarkClock`]: delay against the high watermark before the
    /// arrival, `< latency`) — the completeness a single-latency
    /// buffer-and-sort plan punctuated after every arrival achieves
    /// (Table II).
    pub fn completeness_at(&self, latency: TickDuration) -> f64 {
        if self.events.is_empty() {
            return 1.0;
        }
        let mut clock = WatermarkClock::NEW;
        let delays = self.events.iter().map(|e| clock.arrive(e.sync_time));
        let inside = delays.filter(|d| *d < latency.as_ticks()).count();
        inside as f64 / self.events.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::Event;

    fn ds(ts: &[i64]) -> Dataset {
        Dataset {
            name: "test".into(),
            events: ts
                .iter()
                .map(|&t| Event::point(Timestamp::new(t), [0; 4]))
                .collect(),
        }
    }

    #[test]
    fn completeness_at_latency() {
        let d = ds(&[10, 20, 15, 5, 30]);
        // Delays: first, -10, 5, 15, -10; a delay equal to the latency is
        // outside it.
        assert_eq!(d.completeness_at(TickDuration::ticks(0)), 3.0 / 5.0);
        assert_eq!(d.completeness_at(TickDuration::ticks(5)), 3.0 / 5.0);
        assert_eq!(d.completeness_at(TickDuration::ticks(15)), 4.0 / 5.0);
        assert_eq!(d.completeness_at(TickDuration::ticks(16)), 1.0);
        assert_eq!(ds(&[]).completeness_at(TickDuration::ZERO), 1.0);
    }

    #[test]
    fn event_times_in_arrival_order() {
        let d = ds(&[3, 1, 2]);
        let ts: Vec<i64> = d.event_times().iter().map(|t| t.ticks()).collect();
        assert_eq!(ts, vec![3, 1, 2]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }
}
