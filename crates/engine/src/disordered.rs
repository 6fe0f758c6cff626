//! `DisorderedStreamable`: the sort-as-needed programming surface (§IV-B).
//!
//! A [`DisorderedStreamable`] represents a stream that has **not** been
//! sorted yet. It is a [`Streamable`] whose surface exposes only
//! order-insensitive operators — selection, projection, re-keying, and
//! the (timestamp-adjusting) tumbling window, each the engine's own
//! combinator — and two ways out:
//!
//! * [`DisorderedStreamable::to_streamable`] — run a sorting operator and
//!   obtain an ordered [`Streamable`] (the paper's first code sample);
//! * [`DisorderedStreamable::to_streamables`] — enter the Impatience
//!   framework with a set of reorder latencies (the [`ladder`](crate::ladder)).
//!
//! The settings a chain carries — a registry, a trace sink, a fence, a
//! checkpoint directory — are set here with the engine's own combinators
//! ([`instrument`](DisorderedStreamable::instrument),
//! [`traced`](DisorderedStreamable::traced),
//! [`hardened`](DisorderedStreamable::hardened),
//! [`checkpointed`](DisorderedStreamable::checkpointed)), and the ladder
//! hands them to every rung.
//!
//! Pushing operators below the sort is the whole point: selection shrinks
//! the sorted set, projection shrinks the events, windows collapse
//! distinct timestamps (Proposition 3.2) and *reduce disorder* — the
//! Fig 9 speedups.
//!
//! The surface remembers the size of its last tumbling window: selection,
//! projection and re-keying never touch `sync_time`, so what leaves them is
//! still aligned. The ladder reads that record to give each rung the
//! sorter [`SorterChoice::for_input`](crate::SorterChoice::for_input)
//! picks for aligned input. [`DisorderedStreamable::to_streamable`] ignores
//! it and always sorts with Impatience (see its docs).

use crate::checkpoint::CheckpointCtx;
use crate::ingress::{punctuate_arrivals, IngressPolicy};
use crate::streamable::{input_stream, InputHandle, Streamable};
use crate::traced::TraceCtx;
use impatience_core::{
    Event, MemoryMeter, MetricsRegistry, Payload, SnapshotError, StreamMessage, TickDuration,
};
use impatience_sort::ImpatienceSorter;
use std::path::PathBuf;

/// A disordered stream admitting only order-insensitive operators.
pub struct DisorderedStreamable<P: Payload> {
    /// The (possibly) disordered traffic, with every stage applied so far.
    pub(crate) stream: Streamable<P>,
    /// Size of the last tumbling window applied, whose starts every event
    /// now carries; `None` for unaligned input.
    pub(crate) window: Option<TickDuration>,
}

impl<P: Payload> DisorderedStreamable<P> {
    /// A static disordered source: replays `msgs` at subscribe time.
    /// Unlike [`Streamable::from_messages`], no ordering is required —
    /// only the punctuation contract matters, and even that is enforced
    /// downstream by dropping late events.
    pub fn from_messages(msgs: Vec<StreamMessage<P>>) -> Self {
        let (handle, ds) = Self::live();
        // The input buffers until subscribed; a push past the first
        // completion (the closing one included) is refused and moot.
        for m in msgs.into_iter().chain([StreamMessage::Completed]) {
            let _ = handle.push(m);
        }
        ds
    }

    /// A static disordered source from arrival-ordered events, punctuated
    /// per `policy` — the paper's `File.ToDisorderedStreamable()`.
    pub fn from_arrivals(arrivals: Vec<Event<P>>, policy: &IngressPolicy) -> Self {
        Self::from_messages(punctuate_arrivals(arrivals, policy))
    }

    /// A live disordered input.
    pub fn live() -> (InputHandle<P>, DisorderedStreamable<P>) {
        let (handle, stream) = input_stream::<P>();
        let ds = DisorderedStreamable {
            stream,
            window: None,
        };
        (handle, ds)
    }

    /// The engine's `f` applied to the stream; `sync_time` is untouched,
    /// so the window record holds.
    fn map<Q: Payload>(
        self,
        f: impl FnOnce(Streamable<P>) -> Streamable<Q>,
    ) -> DisorderedStreamable<Q> {
        DisorderedStreamable {
            stream: f(self.stream),
            window: self.window,
        }
    }

    /// Selection (order-insensitive).
    pub fn where_(self, pred: impl FnMut(&Event<P>) -> bool + Send + 'static) -> Self {
        self.map(|s| s.where_(pred))
    }

    /// Projection (order-insensitive).
    pub fn select<Q: Payload>(
        self,
        f: impl FnMut(&P) -> Q + Send + 'static,
    ) -> DisorderedStreamable<Q> {
        self.map(|s| s.select(f))
    }

    /// Re-keying (order-insensitive).
    pub fn re_key(self, f: impl FnMut(&Event<P>) -> u32 + Send + 'static) -> Self {
        self.map(|s| s.re_key(f))
    }

    /// Meters every stage chained after this call, and every ladder rung
    /// (see [`Streamable::instrument`]).
    pub fn instrument(self, registry: &MetricsRegistry, prefix: &str) -> Self {
        self.map(|s| s.instrument(registry, prefix))
    }

    /// Records spans of every stage chained after this call, and of every
    /// ladder rung (see [`Streamable::traced`]).
    pub fn traced(self, ctx: TraceCtx) -> Self {
        self.map(|s| s.traced(ctx))
    }

    /// Fences every stage chained after this call, and every ladder rung
    /// and relay (see [`Streamable::hardened`]).
    pub fn hardened(self) -> Self {
        self.map(Streamable::hardened)
    }

    /// Makes the section durable from this point, the ladder built on it
    /// included (see [`Streamable::checkpointed`]). Query the returned
    /// context's [`recovery`](CheckpointCtx::recovery) after subscribing
    /// the outputs to learn the ingest replay offset.
    pub fn checkpointed(
        self,
        dir: impl Into<PathBuf>,
        every_n_punctuations: u32,
    ) -> Result<(Self, CheckpointCtx), SnapshotError> {
        let window = self.window;
        let (stream, ctx) = self.stream.checkpointed(dir, every_n_punctuations)?;
        Ok((DisorderedStreamable { stream, window }, ctx))
    }

    /// Tumbling window below the sort (§IV-A2): aligns timestamps on the
    /// *disordered* stream, reducing both distinct values and disorder.
    /// Alignment is per event, so the engine's in-order operator serves
    /// unchanged; `size` must be positive.
    pub fn tumbling_window(self, size: TickDuration) -> Self {
        assert!(size.is_positive(), "window size must be positive");
        DisorderedStreamable {
            stream: self.stream.tumbling_window(size),
            window: Some(size),
        }
    }

    /// Ends the disordered section with an Impatience sorting operator —
    /// the paper's `ToStreamable()`.
    ///
    /// Always Impatience, even over windowed input, where the ladder's
    /// rungs run the bucket sorter: this is §IV-B's first code sample, and
    /// Fig 9(c) uses it to measure what a pushed-down window does to
    /// *Impatience* sort.
    pub fn to_streamable(self, meter: &MemoryMeter) -> Streamable<P> {
        self.stream
            .sorted(Box::new(ImpatienceSorter::new()), meter, Default::default())
            .expect("default sort policy")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::{validate_ordered_stream, Timestamp};

    fn ev(t: i64, p: u32) -> Event<u32> {
        Event::point(Timestamp::new(t), p)
    }

    fn msgs(ts: &[i64]) -> Vec<StreamMessage<u32>> {
        vec![
            StreamMessage::batch(ts.iter().map(|&t| ev(t, t as u32)).collect()),
            StreamMessage::Completed,
        ]
    }

    #[test]
    fn paper_first_sample_filter_window_sort_count() {
        // ds.Where(...).TumblingWindow(1s); ds.ToStreamable().Count()
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_messages(msgs(&[5, 3, 18, 1, 12, 25]));
        let counts = ds
            .where_(|e| e.payload != 3)
            .tumbling_window(TickDuration::ticks(10))
            .to_streamable(&meter)
            .count()
            .into_payloads();
        // Windows [0,10): {5,1}, [10,20): {18,12}, [20,30): {25}.
        assert_eq!(counts, vec![2, 2, 1]);
    }

    #[test]
    fn to_streamable_orders_a_disordered_source() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_messages(msgs(&[9, 2, 7, 1, 8]));
        let out = ds.to_streamable(&meter).collect_output();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![1, 2, 7, 8, 9]);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
    }

    #[test]
    fn select_and_rekey_below_sort() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_messages(msgs(&[3, 1, 2]));
        let events = ds
            .select(|p| *p * 10)
            .re_key(|e| e.payload % 2)
            .to_streamable(&meter)
            .into_events();
        let got: Vec<(i64, u32, u32)> = events
            .iter()
            .map(|e| (e.sync_time.ticks(), e.key, e.payload))
            .collect();
        assert_eq!(got, vec![(1, 0, 10), (2, 0, 20), (3, 0, 30)]);
    }

    #[test]
    fn window_below_sort_reduces_disorder() {
        // All events align to window 0: Impatience sees a single distinct
        // timestamp (Proposition 3.2's best case).
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_messages(msgs(&[5, 3, 8, 1, 9]));
        let events = ds
            .tumbling_window(TickDuration::ticks(100))
            .to_streamable(&meter)
            .into_events();
        assert!(events.iter().all(|e| e.sync_time == Timestamp::ZERO));
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn from_arrivals_applies_policy() {
        let policy = IngressPolicy {
            punctuation_frequency: 2,
            reorder_latency: TickDuration::ticks(100),
            batch_size: 2,
        };
        let arrivals: Vec<Event<u32>> = [10i64, 30, 20, 40].iter().map(|&t| ev(t, 0)).collect();
        let meter = MemoryMeter::new();
        let out = DisorderedStreamable::from_arrivals(arrivals, &policy)
            .to_streamable(&meter)
            .collect_output();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
    }

    #[test]
    fn live_disordered_stream() {
        let meter = MemoryMeter::new();
        let (handle, ds) = DisorderedStreamable::<u32>::live();
        let out = ds.to_streamable(&meter).collect_output();
        handle.push_events(vec![ev(3, 0), ev(1, 1)]);
        handle.push_punctuation(Timestamp::new(2));
        assert_eq!(out.event_count(), 1);
        handle.complete();
        assert_eq!(out.event_count(), 2);
        assert!(out.is_completed());
    }
}
