//! Table I-style disorder reports.

use crate::distance::max_inversion_distance;
use crate::interleaved::min_interleaved_runs;
use crate::inversions::count_inversions;
use crate::runs::count_natural_runs;
use impatience_core::{Event, EventTimed, Timestamp};

/// The four disorder measures of §II computed over one stream, plus the
/// element count — the rows of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisorderReport {
    /// Number of events measured.
    pub events: usize,
    /// Strict inversions (`i < j`, `a[i] > a[j]`).
    pub inversions: u128,
    /// Maximum inversion span `j - i`.
    pub distance: usize,
    /// Maximal nondecreasing segments.
    pub runs: usize,
    /// Minimum number of sorted runs whose interleave produces the stream.
    pub interleaved: usize,
}

impl DisorderReport {
    /// Computes all four measures over a key sequence.
    pub fn compute<T: Ord + Copy>(keys: &[T]) -> Self {
        DisorderReport {
            events: keys.len(),
            inversions: count_inversions(keys),
            distance: max_inversion_distance(keys),
            runs: count_natural_runs(keys),
            interleaved: min_interleaved_runs(keys),
        }
    }

    /// Computes the measures over events' sync times, in arrival order.
    pub fn of_events<P>(events: &[Event<P>]) -> Self {
        let keys: Vec<Timestamp> = events.iter().map(|e| e.event_time()).collect();
        Self::compute(&keys)
    }

    /// Mean natural-run length (`events / runs`).
    pub fn mean_run_length(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.events as f64 / self.runs as f64
    }

    /// True when the stream was already sorted.
    pub fn is_sorted(&self) -> bool {
        self.inversions == 0
    }
}

impl core::fmt::Display for DisorderReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "Measure of disorder")?;
        writeln!(f, "  Events      {:>20}", self.events)?;
        writeln!(f, "  Inversions  {:>20}", self.inversions)?;
        writeln!(f, "  Distance    {:>20}", self.distance)?;
        writeln!(f, "  Runs        {:>20}", self.runs)?;
        write!(f, "  Interleaved {:>20}", self.interleaved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_stream_report() {
        let r = DisorderReport::compute(&[1i64, 2, 3, 4, 5]);
        assert!(r.is_sorted());
        assert_eq!(r.runs, 1);
        assert_eq!(r.interleaved, 1);
        assert_eq!(r.distance, 0);
        assert_eq!(r.events, 5);
        assert_eq!(r.mean_run_length(), 5.0);
    }

    #[test]
    fn paper_example_report() {
        let r = DisorderReport::compute(&[2i64, 6, 5, 1, 4, 3, 7, 8]);
        assert_eq!(r.inversions, 9);
        assert_eq!(r.distance, 4);
        assert_eq!(r.runs, 4);
        assert_eq!(r.interleaved, 4);
        assert!(!r.is_sorted());
        assert!((r.mean_run_length() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn of_events_uses_sync_time() {
        let evs: Vec<Event<u32>> = [3i64, 1, 2]
            .iter()
            .map(|&t| Event::point(Timestamp::new(t), 0))
            .collect();
        let r = DisorderReport::of_events(&evs);
        assert_eq!(r.inversions, 2);
        assert_eq!(r.runs, 2);
    }

    #[test]
    fn measure_hierarchy_invariant() {
        // interleaved <= runs <= events, distance < events, and
        // inversions <= n(n-1)/2.
        let v: Vec<i64> = (0..300).map(|i| (i * 73) % 91).collect();
        let r = DisorderReport::compute(&v);
        assert!(r.interleaved <= r.runs);
        assert!(r.runs <= r.events);
        assert!(r.distance < r.events);
        let n = r.events as u128;
        assert!(r.inversions <= n * (n - 1) / 2);
    }

    #[test]
    fn display_format() {
        let r = DisorderReport::compute(&[2i64, 1]);
        let d = format!("{r}");
        assert!(d.contains("Inversions"));
        assert!(d.contains("Interleaved"));
    }

    #[test]
    fn empty_report() {
        let r = DisorderReport::compute::<i64>(&[]);
        assert_eq!(r.events, 0);
        assert_eq!(r.mean_run_length(), 0.0);
        assert!(r.is_sorted());
    }
}
