//! The stage shell: everything the engine wraps around an operator, done
//! in one pass per message.
//!
//! A [`StageShell`] sits on an operator's *input* side and, depending on
//! what the chain asked for, does any of:
//!
//! * **panic fencing** ([`crate::Streamable::hardened`]) — a panic in the
//!   operator is caught with `catch_unwind`, **poisons** the stage (all
//!   further traffic is swallowed), is counted, and becomes one terminal
//!   [`StreamError::OperatorPanicked`] delivered to the stage's downstream,
//!   which forwards it, unflushed, to the pipeline's sink;
//! * **metering** ([`crate::Streamable::instrument`]) — batches / events /
//!   punctuations in and cumulative busy time ([`OperatorMetrics`]); the
//!   stage's out-traffic is counted by the shell's outlet, the port the
//!   operator writes into;
//! * **span emission** ([`crate::Streamable::traced`]) — one inclusive span
//!   per batch / punctuation plus a watermark instant per punctuation (see
//!   [`crate::traced`]).
//!
//! None of it alters the stream, and none of it visits an *event*:
//! counters take one atomic add per batch, so a metrics snapshot taken
//! between callbacks is exact. The one per-event instrument, watermark
//! lag, belongs to the sorting stage and is tallied by
//! [`SortOp`](crate::ops::SortOp) in the loop it already runs: below the
//! sort other stages see the same events, above it their input is ordered
//! and its lag is only the punctuation cadence.
//!
//! Busy time is *inclusive*: the shell times the wrapped operator's
//! handler, which itself pushes into everything downstream, so an
//! operator's exclusive time is its `busy_ns` minus the `busy_ns` of the
//! next metered operator.
//!
//! The fence needs a handle to the operator's downstream that survives the
//! operator being consumed by the panic, so fenced stages are built with a
//! shared (`Arc<Mutex<...>>`) outlet: the operator writes into it in normal
//! operation, and the shell writes the terminal error into the same cell
//! when the operator dies.

use crate::observer::Observer;
use crate::traced::{SpanRecorder, StageTrace};
use impatience_core::metrics::{Counter, MetricsRegistry};
use impatience_core::{EventBatch, Payload, StreamError, Timestamp};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Instant;

/// Shared handles to one operator's instruments, registered under
/// `{op}.events_in`-style names.
#[derive(Clone, Default)]
pub struct OperatorMetrics {
    /// Batches received.
    pub batches_in: Counter,
    /// Visible events received.
    pub events_in: Counter,
    /// Punctuations received.
    pub punctuations_in: Counter,
    /// Batches emitted downstream.
    pub batches_out: Counter,
    /// Visible events emitted downstream.
    pub events_out: Counter,
    /// Punctuations emitted downstream.
    pub punctuations_out: Counter,
    /// Nanoseconds spent inside the operator's handlers (inclusive of
    /// downstream — see the module docs).
    pub busy_ns: Counter,
}

impl OperatorMetrics {
    /// Fresh unregistered instruments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instruments backed by `registry` under `{op}.batches_in`,
    /// `{op}.events_in`, `{op}.punctuations_in`, `{op}.batches_out`,
    /// `{op}.events_out`, `{op}.punctuations_out` and `{op}.busy_ns`.
    pub fn register(registry: &MetricsRegistry, op: &str) -> Self {
        OperatorMetrics {
            batches_in: registry.counter(&format!("{op}.batches_in")),
            events_in: registry.counter(&format!("{op}.events_in")),
            punctuations_in: registry.counter(&format!("{op}.punctuations_in")),
            batches_out: registry.counter(&format!("{op}.batches_out")),
            events_out: registry.counter(&format!("{op}.events_out")),
            punctuations_out: registry.counter(&format!("{op}.punctuations_out")),
            busy_ns: registry.counter(&format!("{op}.busy_ns")),
        }
    }
}

thread_local! {
    static GUARDING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Silences the default panic report while a fence is actively catching,
/// chaining to the previous hook otherwise (so genuine unguarded panics —
/// and the testkit's own probes — still report normally).
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !GUARDING.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f` with panics captured; returns the panic message on failure.
pub(crate) fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    let was = GUARDING.with(Cell::get);
    GUARDING.with(|g| g.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    GUARDING.with(|g| g.set(was));
    result.map_err(|payload| payload_message(&*payload))
}

/// Where a fenced stage's terminal error goes: a handle onto the stage's
/// downstream that outlives the operator.
type ErrorPort = Box<dyn FnMut(StreamError) + Send>;

/// The panic fence of one stage.
struct Fence {
    /// Operator name reported in [`StreamError::OperatorPanicked`].
    name: String,
    /// Panics caught (primary and, while delivering the error, secondary).
    panics: Counter,
    port: ErrorPort,
}

impl Fence {
    /// Error delivery itself runs guarded: a sink that panics while
    /// handling the error must not escape either. A secondary panic is
    /// counted and swallowed — the stage is already poisoned.
    fn deliver(&mut self, err: StreamError) {
        let port = &mut self.port;
        if guarded(move || port(err)).is_err() {
            self.panics.inc();
        }
    }
}

/// The one wrapper around a stage's operator (see the module docs): a
/// transparent observer that forwards every message unchanged while
/// fencing, metering and tracing the operator as configured.
pub struct StageShell<P: Payload> {
    inner: Box<dyn Observer<P>>,
    metrics: Option<OperatorMetrics>,
    spans: Option<SpanRecorder>,
    fence: Option<Fence>,
    poisoned: bool,
}

impl<P: Payload> StageShell<P> {
    /// A shell around `inner` that does nothing yet.
    pub fn new(inner: Box<dyn Observer<P>>) -> Self {
        StageShell {
            inner,
            metrics: None,
            spans: None,
            fence: None,
            poisoned: false,
        }
    }

    /// Records the operator's in-traffic and busy time into `metrics`.
    pub fn metered(mut self, metrics: OperatorMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Fences the operator: a panic is counted in `panics` and becomes a
    /// terminal [`StreamError::OperatorPanicked`] naming `name`, handed to
    /// `port` — which must reach the operator's downstream without going
    /// through the operator. Upstream errors take the same route.
    pub fn fenced(
        mut self,
        name: impl Into<String>,
        panics: Counter,
        port: impl FnMut(StreamError) + Send + 'static,
    ) -> Self {
        self.fence = Some(Fence {
            name: name.into(),
            panics,
            port: Box::new(port),
        });
        self
    }

    /// Has the fenced operator panicked (or an upstream error passed)?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Hands one message to the operator: fenced, timed into `busy_ns`,
    /// and — when `span` carries the message's `(events, watermark)` —
    /// recorded as a span. A panicking message records neither.
    fn pass(
        &mut self,
        span: Option<(u64, Option<i64>)>,
        f: impl FnOnce(&mut Box<dyn Observer<P>>),
    ) {
        let span = match (&mut self.spans, span) {
            (Some(spans), Some((events, watermark))) => {
                let start = spans.now();
                if let Some(t) = watermark {
                    spans.watermark_instant(start, t);
                }
                Some((start, events, watermark))
            }
            _ => None,
        };
        let busy_from = self.metrics.as_ref().map(|_| Instant::now());
        let inner = &mut self.inner;
        match &mut self.fence {
            None => f(inner),
            Some(fence) => {
                if let Err(message) = guarded(|| f(inner)) {
                    self.poisoned = true;
                    fence.panics.inc();
                    let operator = fence.name.clone();
                    fence.deliver(StreamError::OperatorPanicked { operator, message });
                    return;
                }
            }
        }
        if let (Some(m), Some(from)) = (&self.metrics, busy_from) {
            m.busy_ns.add(from.elapsed().as_nanos() as u64);
        }
        if let (Some(spans), Some((start, events, watermark))) = (&mut self.spans, span) {
            spans.record(start, events, watermark);
        }
    }

    fn flush_spans(&mut self) {
        if let Some(spans) = &mut self.spans {
            spans.flush();
        }
    }
}

impl<P: Payload> Observer<P> for StageShell<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        if self.poisoned {
            return;
        }
        let events = batch.visible_len() as u64;
        if let Some(m) = &self.metrics {
            m.batches_in.inc();
            m.events_in.add(events);
        }
        self.pass(Some((events, None)), move |inner| inner.on_batch(batch));
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        if self.poisoned {
            return;
        }
        if let Some(m) = &self.metrics {
            m.punctuations_in.inc();
        }
        self.pass(Some((0, Some(t.ticks()))), move |inner| {
            inner.on_punctuation(t)
        });
    }

    fn on_completed(&mut self) {
        if self.poisoned {
            return;
        }
        self.pass(None, |inner| inner.on_completed());
        self.flush_spans();
    }

    fn on_error(&mut self, err: StreamError) {
        if self.poisoned {
            return;
        }
        match &mut self.fence {
            // The operator is bypassed: nothing it buffered may flush.
            Some(fence) => {
                self.poisoned = true;
                fence.deliver(err);
            }
            None => self.inner.on_error(err),
        }
        self.flush_spans();
    }
}

/// The shell's out-side port: what a metered stage's operator writes into.
/// Counts the stage's out-traffic and forwards every message unchanged.
pub(crate) struct Outlet<Q: Payload> {
    metrics: OperatorMetrics,
    sink: Box<dyn Observer<Q>>,
}

impl<Q: Payload> Observer<Q> for Outlet<Q> {
    fn on_batch(&mut self, batch: EventBatch<Q>) {
        self.metrics.batches_out.inc();
        self.metrics.events_out.add(batch.visible_len() as u64);
        self.sink.on_batch(batch);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.metrics.punctuations_out.inc();
        self.sink.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        self.sink.on_completed();
    }

    fn on_error(&mut self, err: StreamError) {
        self.sink.on_error(err);
    }
}

/// What the chain decided to wrap one stage in; minted per stage by
/// `Streamable`, consumed when the chain connects.
#[derive(Clone)]
pub(crate) struct StagePlan {
    pub(crate) metrics: Option<OperatorMetrics>,
    pub(crate) trace: Option<StageTrace>,
    /// The chain's panic counter, when the chain is hardened.
    pub(crate) panics: Option<Counter>,
}

impl StagePlan {
    /// The stage's downstream as the operator should see it.
    pub(crate) fn outlet<Q: Payload>(&self, sink: Box<dyn Observer<Q>>) -> Box<dyn Observer<Q>> {
        match &self.metrics {
            Some(m) => Box::new(Outlet {
                metrics: m.clone(),
                sink,
            }),
            None => sink,
        }
    }

    /// Wraps `op` in the planned shell — or in nothing, when nothing was
    /// asked for. `name` and `port` are the fence's (see
    /// [`StageShell::fenced`]).
    pub(crate) fn shell<P: Payload>(
        self,
        name: &str,
        op: Box<dyn Observer<P>>,
        port: impl FnMut(StreamError) + Send + 'static,
    ) -> Box<dyn Observer<P>> {
        if self.metrics.is_none() && self.trace.is_none() && self.panics.is_none() {
            return op;
        }
        let mut shell = StageShell::new(op);
        shell.metrics = self.metrics;
        shell.spans = self.trace.map(StageTrace::recorder);
        if let Some(panics) = self.panics {
            shell = shell.fenced(name, panics, port);
        }
        Box::new(shell)
    }
}

#[cfg(test)]
mod tests {
    //! Only what needs the module's private parts; the shell's behaviour
    //! through its public API is pinned in `tests/shell.rs`.
    use super::*;
    use crate::input_stream;
    use crate::observer::Output;
    use impatience_core::{Event, TickDuration};

    fn batch(ts: &[i64]) -> EventBatch<u32> {
        ts.iter()
            .map(|&t| Event::point(Timestamp::new(t), t as u32))
            .collect()
    }

    #[test]
    fn outlet_counts_out_traffic() {
        let m = OperatorMetrics::new();
        let (out, sink) = Output::<u32>::new();
        let mut outlet = Outlet {
            metrics: m.clone(),
            sink: Box::new(sink),
        };
        outlet.on_batch(batch(&[1, 2]));
        outlet.on_punctuation(Timestamp::new(2));
        outlet.on_completed();
        assert_eq!(m.batches_out.get(), 1);
        assert_eq!(m.events_out.get(), 2);
        assert_eq!(m.punctuations_out.get(), 1);
        assert_eq!(m.events_in.get(), 0, "the outlet leaves the in-side alone");
        assert_eq!(out.event_count(), 2);
        assert!(out.is_completed());
    }

    #[test]
    fn one_histogram_lock_per_non_empty_batch_at_the_sort_only() {
        use crate::ops::sort::LAG_FLUSHES;
        use crate::ops::SortPolicy;
        use impatience_core::MemoryMeter;
        use impatience_sort::ImpatienceSorter;
        let registry = MetricsRegistry::new();
        let (handle, stream) = input_stream::<u32>();
        let _out = stream
            .instrument(&registry, "p")
            .hardened()
            .where_(|e| e.payload != 2)
            .sorted(
                Box::new(ImpatienceSorter::new()),
                &MemoryMeter::new(),
                SortPolicy::new(),
            )
            .expect("drop policy sorts")
            .tumbling_window(TickDuration::ticks(10))
            .count()
            .collect_output();
        let flushes = || LAG_FLUSHES.with(Cell::get);
        let before = flushes();
        handle.push_events(
            (1..=5)
                .map(|t| Event::point(Timestamp::new(t), t as u32))
                .collect(),
        );
        assert_eq!(flushes(), before, "nothing sampled before a punctuation");
        handle.push_punctuation(Timestamp::new(5));
        // One 1000-event batch passes all four stages.
        handle.push_events(
            (0..1000)
                .map(|i| Event::point(Timestamp::new(6 + i / 400), 7))
                .collect(),
        );
        assert_eq!(
            flushes() - before,
            1,
            "one flush, at the sort, not per event"
        );
        handle.push_events(Vec::new());
        assert_eq!(flushes() - before, 1, "an empty batch flushes nothing");
        handle.push_punctuation(Timestamp::new(20)); // closes window [0, 10)
        assert_eq!(flushes() - before, 1, "sorter output is not sampled");
        handle.push_events(vec![Event::point(Timestamp::new(31), 1)]);
        assert_eq!(flushes() - before, 2);
        let lag = registry.histogram("p.01.sort.watermark_lag");
        assert_eq!(lag.count(), 1001);
        let rows: Vec<String> = registry
            .snapshot()
            .histograms
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            rows,
            ["p.01.sort.watermark_lag"],
            "no other stage has the row"
        );
    }
}
