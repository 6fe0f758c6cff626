//! Measurement drivers for the sorting benchmarks (Fig 7 / Fig 8).
//!
//! These drive `OnlineSorter`s directly — the paper's §VI-B measures the
//! sorting operator itself, not a whole query pipeline — with the ingress
//! punctuation rule (`watermark − reorder latency`, dropping events at or
//! below the last punctuation).

use impatience_core::{EvalPayload, Event, EventTimed, TickDuration, Timestamp};
use impatience_sort::{
    quicksort, timsort, HeapsortAlgorithm, ImpatienceConfig, ImpatienceSorter, OnlineSorter,
    SortAlgorithm,
};
use std::hint::black_box;
use std::time::Instant;

/// Fig 7 series names, legend order.
pub fn offline_sorter_names() -> Vec<&'static str> {
    vec![
        "Impatience",
        "Impt w/o HM",
        "Impt w/o HM&SRS",
        "Quicksort",
        "Timsort",
        "Heapsort",
    ]
}

/// Runs one offline sort (no punctuations: sort after receiving all
/// events, §VI-B1) and returns elapsed seconds.
pub fn run_offline_sorter(name: &str, events: &[Event<EvalPayload>]) -> f64 {
    let input = events.to_vec();
    let start = Instant::now();
    match name {
        "Impatience" | "Impt w/o HM" | "Impt w/o HM&SRS" => {
            let cfg = match name {
                "Impatience" => ImpatienceConfig::default(),
                "Impt w/o HM" => ImpatienceConfig::without_huffman(),
                _ => ImpatienceConfig::baseline(),
            };
            let mut s = ImpatienceSorter::with_config(cfg);
            for e in input {
                s.push(e);
            }
            let mut out = Vec::with_capacity(events.len());
            s.drain_all(&mut out);
            black_box(out.len());
        }
        "Quicksort" => {
            let mut v = input;
            quicksort(&mut v);
            black_box(v.len());
        }
        "Timsort" => {
            let mut v = input;
            timsort(&mut v);
            black_box(v.len());
        }
        "Heapsort" => {
            let mut v = input;
            HeapsortAlgorithm::sort(&mut v);
            black_box(v.len());
        }
        other => panic!("unknown offline sorter {other}"),
    }
    start.elapsed().as_secs_f64()
}

/// Result of one online drive.
#[derive(Debug, Clone, Copy)]
pub struct DriveOutcome {
    /// Wall-clock seconds.
    pub secs: f64,
    /// Events pushed into the sorter.
    pub pushed: usize,
    /// Events emitted across all punctuations.
    pub emitted: usize,
    /// Events dropped as too late for the reorder latency.
    pub dropped: usize,
}

impl DriveOutcome {
    /// Throughput in events/second over the *input* (pushed + dropped).
    pub fn throughput(&self) -> f64 {
        (self.pushed + self.dropped) as f64 / self.secs
    }
}

/// Drives an online sorter over an arrival sequence with a punctuation
/// every `frequency` events at `watermark − latency` (§VI-B2).
pub fn drive_online_sorter(
    sorter: &mut dyn OnlineSorter<Event<EvalPayload>>,
    events: &[Event<EvalPayload>],
    frequency: usize,
    latency: TickDuration,
) -> DriveOutcome {
    let mut out: Vec<Event<EvalPayload>> = Vec::with_capacity(frequency.min(1 << 20));
    let mut wm = Timestamp::MIN;
    let mut punct = Timestamp::MIN;
    let mut pushed = 0usize;
    let mut emitted = 0usize;
    let mut dropped = 0usize;
    let start = Instant::now();
    for (i, e) in events.iter().enumerate() {
        let t = e.event_time();
        if t > wm {
            wm = t;
        }
        if t <= punct {
            dropped += 1;
        } else {
            sorter.push(*e);
            pushed += 1;
        }
        if (i + 1) % frequency == 0 {
            let p = wm.saturating_sub(latency);
            if p > punct {
                punct = p;
                sorter.punctuate(p, &mut out);
                emitted += out.len();
                black_box(out.last().map(|e| e.sync_time));
                out.clear();
            }
        }
    }
    sorter.drain_all(&mut out);
    emitted += out.len();
    black_box(out.last().map(|e| e.sync_time));
    let secs = start.elapsed().as_secs_f64();
    DriveOutcome {
        secs,
        pushed,
        emitted,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_sort::{online_sorter_by_name, ONLINE_SORTER_NAMES};
    use impatience_workloads::{generate_synthetic, SyntheticConfig};

    fn small() -> Vec<Event<EvalPayload>> {
        generate_synthetic(&SyntheticConfig {
            events: 5_000,
            ..Default::default()
        })
        .events
    }

    #[test]
    fn offline_drivers_run() {
        let evs = small();
        for name in offline_sorter_names() {
            let secs = run_offline_sorter(name, &evs);
            assert!(secs > 0.0, "{name}");
        }
    }

    #[test]
    fn online_drive_accounts_for_everything() {
        let evs = small();
        for name in ONLINE_SORTER_NAMES {
            let mut s = online_sorter_by_name(name).unwrap();
            let o = drive_online_sorter(s.as_mut(), &evs, 100, TickDuration::ticks(1_000));
            assert_eq!(o.pushed + o.dropped, evs.len(), "{name}");
            assert_eq!(o.emitted, o.pushed, "{name}: everything pushed must emit");
            assert!(o.throughput() > 0.0);
        }
    }

    #[test]
    fn tight_latency_drops_events() {
        let evs = small();
        let mut s = online_sorter_by_name("Impatience").unwrap();
        let o = drive_online_sorter(s.as_mut(), &evs, 10, TickDuration::ticks(0));
        assert!(o.dropped > 0, "zero latency must drop late events");
        assert_eq!(o.pushed + o.dropped, evs.len());
    }
}
