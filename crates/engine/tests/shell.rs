//! The stage shell through its public API: metering is inert and exact,
//! the fence turns a panic into one typed terminal error. (Ported from the
//! unit tests of the `MeteredObserver` / `PanicGuard` wrappers the shell
//! replaced, every assertion kept; what needs the shell's private parts
//! stays in `src/shell.rs`, the `Streamable`-level tests in
//! `src/streamable.rs` and `src/traced.rs`.)

use impatience_core::metrics::Counter;
use impatience_core::{Event, EventBatch, MetricsRegistry, StreamError, StreamMessage, Timestamp};
use impatience_engine::{Observer, OperatorMetrics, Output, SharedSink, StageShell};
use std::sync::{Arc, Mutex};

fn batch(ts: &[i64]) -> EventBatch<u32> {
    ts.iter()
        .map(|&t| Event::point(Timestamp::new(t), t as u32))
        .collect()
}

#[test]
fn metered_identity_is_transparent() {
    let registry = MetricsRegistry::new();
    let m = OperatorMetrics::register(&registry, "op");
    let (plain_out, plain_sink) = Output::<u32>::new();
    let (metered_out, metered_sink) = Output::<u32>::new();
    let mut plain: Box<dyn Observer<u32>> = Box::new(plain_sink);
    let mut metered: Box<dyn Observer<u32>> =
        Box::new(StageShell::new(Box::new(metered_sink)).metered(m.clone()));
    for obs in [&mut plain, &mut metered] {
        obs.on_batch(batch(&[3, 1, 2]));
        obs.on_punctuation(Timestamp::new(3));
        obs.on_batch(batch(&[9, 5]));
        obs.on_completed();
    }
    assert_eq!(plain_out.messages(), metered_out.messages());
    assert_eq!(m.batches_in.get(), 2);
    assert_eq!(m.events_in.get(), 5);
    assert_eq!(m.punctuations_in.get(), 1);
}

#[test]
fn watermark_lag_sampled_after_first_punctuation() {
    let m = OperatorMetrics::new();
    let (_out, sink) = Output::<u32>::new();
    let mut obs = StageShell::new(Box::new(sink)).metered(m.clone());
    obs.on_batch(batch(&[100])); // before any punctuation: not sampled
    obs.on_punctuation(Timestamp::new(10));
    obs.on_batch(batch(&[13, 10, 74])); // lags 3, 0, 64
    obs.on_completed();
    assert_eq!(m.watermark_lag.count(), 3);
    assert_eq!(m.watermark_lag.max(), 64);
    assert_eq!(m.watermark_lag.min(), 0);
    assert_eq!(m.watermark_lag.sum(), 67);
}

#[test]
fn watermark_lag_skips_filtered_rows_and_clamps_late_ones() {
    let m = OperatorMetrics::new();
    let (_out, sink) = Output::<u32>::new();
    let mut obs = StageShell::new(Box::new(sink)).metered(m.clone());
    obs.on_punctuation(Timestamp::new(10));
    let mut b = batch(&[4, 50, 12]); // lags 0 (late, clamped), -, 2
    b.filter_mut().filter_out(1);
    obs.on_batch(b);
    assert_eq!(m.events_in.get(), 2);
    assert_eq!(m.watermark_lag.count(), 2);
    assert_eq!(m.watermark_lag.sum(), 2);
}

struct PanicOn {
    at: i64,
    next: SharedSink<Box<dyn Observer<u32>>>,
}

impl Observer<u32> for PanicOn {
    fn on_batch(&mut self, batch: EventBatch<u32>) {
        for e in batch.iter_visible() {
            assert!(e.sync_time.ticks() != self.at, "boom at {}", self.at);
        }
        self.next.on_batch(batch);
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        self.next.on_punctuation(t);
    }
    fn on_completed(&mut self) {
        self.next.on_completed();
    }
    fn on_error(&mut self, err: StreamError) {
        self.next.on_error(err);
    }
}

fn fenced_over(
    at: i64,
    sink: Box<dyn Observer<u32>>,
    metrics: OperatorMetrics,
) -> (StageShell<u32>, Counter) {
    let shared = Arc::new(Mutex::new(sink));
    let op = PanicOn {
        at,
        next: SharedSink(shared.clone()),
    };
    let panics = Counter::new();
    let mut port = SharedSink(shared);
    let shell = StageShell::new(Box::new(op)).metered(metrics).fenced(
        "test.op",
        panics.clone(),
        move |err| port.on_error(err),
    );
    (shell, panics)
}

fn guard_over(at: i64) -> (Output<u32>, StageShell<u32>, Counter) {
    let (out, sink) = Output::<u32>::new();
    let (shell, panics) = fenced_over(at, Box::new(sink), OperatorMetrics::new());
    (out, shell, panics)
}

#[test]
fn transparent_when_nothing_panics() {
    let (out, mut guard, panics) = guard_over(-1);
    guard.on_batch(batch(&[1, 2]));
    guard.on_punctuation(Timestamp::new(2));
    guard.on_completed();
    assert_eq!(out.event_count(), 2);
    assert!(out.is_completed());
    assert!(out.error().is_none());
    assert_eq!(panics.get(), 0);
    assert!(!guard.is_poisoned());
}

#[test]
fn panic_becomes_typed_terminal_error() {
    let (out, mut guard, panics) = guard_over(5);
    guard.on_batch(batch(&[1]));
    guard.on_batch(batch(&[5])); // operator panics here
    guard.on_batch(batch(&[9])); // poisoned: swallowed
    guard.on_punctuation(Timestamp::new(9));
    guard.on_completed();
    assert!(guard.is_poisoned());
    assert_eq!(panics.get(), 1);
    match out.error() {
        Some(StreamError::OperatorPanicked { operator, message }) => {
            assert_eq!(operator, "test.op");
            assert!(message.contains("boom at 5"), "message: {message}");
        }
        other => panic!("expected OperatorPanicked, got {other:?}"),
    }
    assert!(!out.is_completed(), "no completion after the panic");
    assert_eq!(out.event_count(), 1, "traffic after the panic swallowed");
    // The last recorded message is pre-panic traffic, not completion.
    assert!(matches!(
        out.messages().last(),
        Some(StreamMessage::Batch(_))
    ));
}

#[test]
fn panic_mid_batch_poisons_once_and_stops_counting() {
    let (out, sink) = Output::<u32>::new();
    let metrics = OperatorMetrics::new();
    let (mut guard, panics) = fenced_over(5, Box::new(sink), metrics.clone());
    guard.on_punctuation(Timestamp::new(0));
    guard.on_batch(batch(&[1, 5, 2])); // panics on the second row
    assert_eq!(out.event_count(), 0, "the torn batch never got out");
    // The batch that killed the operator was counted on the way in;
    // nothing after the poison is.
    assert_eq!(metrics.batches_in.get(), 1);
    assert_eq!(metrics.watermark_lag.count(), 3);
    guard.on_batch(batch(&[7]));
    guard.on_error(StreamError::PushAfterCompleted);
    assert_eq!(metrics.batches_in.get(), 1);
    assert_eq!(panics.get(), 1, "poisoned once");
    assert!(
        matches!(out.error(), Some(StreamError::OperatorPanicked { .. })),
        "exactly one terminal error, the panic: {:?}",
        out.error()
    );
}

/// A sink whose error handler panics too.
struct PanickyErrorSink {
    errors_seen: Counter,
}

impl Observer<u32> for PanickyErrorSink {
    fn on_batch(&mut self, _batch: EventBatch<u32>) {}
    fn on_punctuation(&mut self, _t: Timestamp) {}
    fn on_completed(&mut self) {}
    fn on_error(&mut self, err: StreamError) {
        self.errors_seen.inc();
        panic!("error sink blew up on {err:?}");
    }
}

#[test]
fn secondary_panic_in_the_error_sink_is_swallowed_and_counted() {
    let errors_seen = Counter::new();
    let sink = PanickyErrorSink {
        errors_seen: errors_seen.clone(),
    };
    let (mut guard, panics) = fenced_over(5, Box::new(sink), OperatorMetrics::new());
    guard.on_batch(batch(&[5])); // operator panics, then the sink does
    assert!(guard.is_poisoned());
    assert_eq!(
        errors_seen.get(),
        1,
        "exactly one OperatorPanicked delivered"
    );
    assert_eq!(panics.get(), 2, "primary and secondary panic counted");
    guard.on_batch(batch(&[6]));
    guard.on_error(StreamError::PushAfterCompleted);
    guard.on_completed();
    assert_eq!(errors_seen.get(), 1, "poisoned: nothing further delivered");
    assert_eq!(panics.get(), 2);
}

#[test]
fn upstream_error_forwards_to_downstream_once() {
    let (out, mut guard, panics) = guard_over(-1);
    guard.on_error(StreamError::PushAfterCompleted);
    guard.on_error(StreamError::InvalidConfig("dup".into()));
    guard.on_completed();
    assert_eq!(out.error(), Some(StreamError::PushAfterCompleted));
    assert_eq!(panics.get(), 0);
}

#[test]
fn collector_sink_keeps_pre_panic_output() {
    let (out, mut guard, _panics) = guard_over(3);
    guard.on_batch(batch(&[1, 2]));
    guard.on_punctuation(Timestamp::new(2));
    guard.on_batch(batch(&[3]));
    assert_eq!(out.event_count(), 2);
    assert_eq!(out.last_punctuation(), Some(Timestamp::new(2)));
}
