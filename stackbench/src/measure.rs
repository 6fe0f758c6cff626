//! What a pass records and how the end-to-end metrics are derived.

use crate::stats::{median, percentile};
use impatience_core::Timestamp;
use std::collections::VecDeque;
use std::time::Instant;

/// Linux reports process CPU time in `USER_HZ` ticks, 100 per second on
/// every supported architecture.
const NS_PER_TICK: u64 = 10_000_000;

/// User + system CPU time of this process (all threads) in nanoseconds,
/// from `/proc/self/stat`. 0 where procfs is unavailable.
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields 3.. follow the
    // last ')'. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * NS_PER_TICK
}

/// One metric value plus the per-segment values `compare` uses to tell a
/// real difference from run-to-run spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// The same statistic over each fifth of the timed section.
    pub segments: Vec<f64>,
}

impl Metric {
    /// A metric without segment detail (counts, per-layer rows).
    pub fn plain(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            segments: Vec::new(),
        }
    }
}

/// The result of one pass over one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: requests, pushes and oracle comparisons.
    pub attempted: u64,
    /// Operations that failed, were refused, or mismatched the reference.
    pub failed: u64,
    /// Metrics produced (names must match the pass's list exactly).
    pub metrics: Vec<Metric>,
    /// Diagnostics for the human reader (stderr).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a plain metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric::plain(name, value));
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }
}

/// One fifth of the timed section.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Input events handed in.
    pub events: u64,
    /// Events per second of each repetition (first send to last output).
    pub rep_eps: Vec<f64>,
    /// Per-batch hand-off (or due time) to the output that finalises the
    /// batch, milliseconds.
    pub emit_ms: Vec<f64>,
}

/// How many segments the timed section is cut into.
pub const SEGMENTS: usize = 5;

/// Derives the timing metrics every workload reports from its segments.
/// `setup_s` is the median of the in-run set-ups.
pub fn end_to_end_metrics(setup_s: &[f64], segments: &[Segment]) -> Vec<Metric> {
    let live: Vec<&Segment> = segments.iter().filter(|s| s.events > 0).collect();
    let pooled = |f: fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
        live.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    vec![
        Metric {
            name: "setup_s".into(),
            value: median(setup_s),
            segments: setup_s.to_vec(),
        },
        Metric {
            name: "throughput_eps".into(),
            value: median(&pooled(|s| &s.rep_eps)),
            segments: live.iter().map(|s| median(&s.rep_eps)).collect(),
        },
        Metric {
            name: "emit_latency_ms_p50".into(),
            value: median(&pooled(|s| &s.emit_ms)),
            segments: live.iter().map(|s| median(&s.emit_ms)).collect(),
        },
    ]
}

/// Process CPU per input event over `reps` calls of `rep`, each handling
/// `events_per_rep` events. Callers pick `reps` so the whole takes about a
/// second: `/proc/self/stat` ticks are 10 ms.
pub fn cpu_ns_per_event(events_per_rep: usize, reps: usize, mut rep: impl FnMut()) -> f64 {
    let before = process_cpu_ns();
    for _ in 0..reps {
        rep();
    }
    process_cpu_ns().saturating_sub(before) as f64 / (reps * events_per_rep).max(1) as f64
}

/// Timings every pass can produce but the contract cannot gate, reported
/// as per-layer rows. The latency tails move between seeds with burst
/// placement and scheduler jitter by 30–60%; the reply median and the CPU
/// bill are steady within a quarter hour but, on the small-batch lockstep
/// workload, follow the hypervisor's wake-up latency (a socket round trip
/// is 9 µs in one phase and 60 µs in the next), which moved them by up to
/// 2× between otherwise identical runs.
pub fn put_ungated_timings(
    out: &mut Outcome,
    reply_ms: &[f64],
    emit_ms: &[f64],
    cpu_ns_per_event: f64,
) {
    out.put("stack.reply_latency_ms_p50", percentile(reply_ms, 50.0).0);
    out.put("stack.reply_latency_ms_p99", percentile(reply_ms, 99.0).0);
    out.put("stack.emit_latency_ms_p99", percentile(emit_ms, 99.0).0);
    out.put("stack.cpu_ns_per_event", cpu_ns_per_event);
}

/// Tracks when each input batch becomes final in the output.
///
/// A batch is final once an output punctuation reaches its *mark*: the
/// (window-aligned) highest event time handed in so far. Marks are a
/// running maximum, so batches finalise in hand-in order and one queue
/// suffices. Whatever is still pending when the stream completes is
/// finalised by the completion flush.
#[derive(Debug, Default)]
pub struct EmitTracker {
    pending: VecDeque<(Instant, Timestamp)>,
    high: Option<Timestamp>,
    /// Milliseconds from hand-in to finalisation, one per batch.
    pub emit_ms: Vec<f64>,
}

impl EmitTracker {
    /// Registers a batch handed in (or due) at `at` whose highest
    /// (window-aligned) event time is `max_mark`.
    pub fn hand_in(&mut self, at: Instant, max_mark: Timestamp) {
        let mark = self.high.map_or(max_mark, |h| h.max(max_mark));
        self.high = Some(mark);
        self.pending.push_back((at, mark));
    }

    /// An output punctuation `p` was observed at `now`.
    pub fn punctuation(&mut self, p: Timestamp, now: Instant) {
        while let Some(&(at, mark)) = self.pending.front() {
            if mark > p {
                break;
            }
            self.pending.pop_front();
            self.record(at, now);
        }
    }

    /// The stream completed at `now`: everything pending is final.
    pub fn completed(&mut self, now: Instant) {
        while let Some((at, _)) = self.pending.pop_front() {
            self.record(at, now);
        }
    }

    fn record(&mut self, at: Instant, now: Instant) {
        self.emit_ms
            .push(now.saturating_duration_since(at).as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ns() > before, "60 ms of spinning is >= 1 tick");
    }

    #[test]
    fn batches_finalise_in_order_at_their_running_max_mark() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = EmitTracker::default();
        t.hand_in(at(0), Timestamp::new(100));
        // A batch of old events: its own max is 40, but it queues behind
        // the first batch and inherits mark 100.
        t.hand_in(at(10), Timestamp::new(40));
        t.hand_in(at(20), Timestamp::new(300));
        t.punctuation(Timestamp::new(99), at(25));
        assert!(t.emit_ms.is_empty());
        t.punctuation(Timestamp::new(100), at(30));
        assert_eq!(t.emit_ms, vec![30.0, 20.0]);
        t.completed(at(50));
        assert_eq!(t.emit_ms, vec![30.0, 20.0, 30.0]);
    }

    #[test]
    fn derived_metrics_pool_samples_and_keep_segment_values() {
        let seg = |eps: f64, lat: f64| Segment {
            events: 1_000,
            rep_eps: vec![eps, eps * 1.1],
            emit_ms: vec![lat * 2.0; 2_000],
        };
        let m = end_to_end_metrics(&[0.3, 0.1, 0.2], &[seg(100.0, 1.0), seg(200.0, 3.0)]);
        let get = |n: &str| m.iter().find(|m| m.name == n).expect(n);
        assert_eq!(get("setup_s").value, 0.2);
        assert_eq!(
            get("throughput_eps").value,
            median(&[100.0, 110.0, 200.0, 220.0])
        );
        assert_eq!(get("throughput_eps").segments.len(), 2);
        assert_eq!(get("emit_latency_ms_p50").value, 4.0); // pooled: half 2.0, half 6.0
        assert_eq!(get("emit_latency_ms_p50").segments, vec![2.0, 6.0]);
        assert_eq!(m.len(), 3);
    }
}
