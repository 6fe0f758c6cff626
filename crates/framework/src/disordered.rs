//! `DisorderedStreamable`: the sort-as-needed programming surface (§IV-B).
//!
//! A [`DisorderedStreamable`] represents a stream that has **not** been
//! sorted yet. It exposes only order-insensitive operators — selection,
//! projection, re-keying, and the (timestamp-adjusting) tumbling window —
//! and two ways out:
//!
//! * [`DisorderedStreamable::to_streamable`] — run a sorting operator and
//!   obtain an ordered [`Streamable`] (the paper's first code sample);
//! * `to_streamables` (in [`crate::framework`]) — enter the Impatience
//!   framework with a set of reorder latencies.
//!
//! Pushing operators below the sort is the whole point: selection shrinks
//! the sorted set, projection shrinks the events, windows collapse
//! distinct timestamps (Proposition 3.2) and *reduce disorder* — the
//! Fig 9 speedups.

use impatience_core::{Event, MemoryMeter, Payload, StreamMessage, TickDuration};
use impatience_engine::ops::{FilterOp, ReKeyOp, SelectOp, TumblingWindowOp};
use impatience_engine::{IngressPolicy, InputHandle, Observer, Streamable};
use impatience_sort::ImpatienceSorter;

type Connector<P> = Box<dyn FnOnce(Box<dyn Observer<P>>) + Send>;

/// A disordered stream admitting only order-insensitive operators.
pub struct DisorderedStreamable<P: Payload> {
    connect: Connector<P>,
}

impl<P: Payload> DisorderedStreamable<P> {
    /// Wraps a raw connector producing (possibly) disordered traffic.
    pub fn from_connector(connect: impl FnOnce(Box<dyn Observer<P>>) + Send + 'static) -> Self {
        DisorderedStreamable {
            connect: Box::new(connect),
        }
    }

    /// A static disordered source: replays `msgs` at subscribe time.
    /// Unlike [`Streamable::from_messages`], no ordering is required —
    /// only the punctuation contract matters, and even that is enforced
    /// downstream by dropping late events.
    pub fn from_messages(msgs: Vec<StreamMessage<P>>) -> Self {
        DisorderedStreamable::from_connector(move |mut sink| {
            let mut completed = false;
            for m in msgs {
                if matches!(m, StreamMessage::Completed) {
                    completed = true;
                }
                sink.on_message(m);
            }
            if !completed {
                sink.on_completed();
            }
        })
    }

    /// A static disordered source from arrival-ordered events, punctuated
    /// per `policy` — the paper's `File.ToDisorderedStreamable()`.
    pub fn from_arrivals(arrivals: Vec<Event<P>>, policy: &IngressPolicy) -> Self {
        Self::from_messages(impatience_engine::punctuate_arrivals(arrivals, policy))
    }

    /// A live disordered input.
    pub fn live() -> (InputHandle<P>, DisorderedStreamable<P>) {
        let (handle, stream) = impatience_engine::input_stream::<P>();
        (
            handle,
            DisorderedStreamable::from_connector(move |sink| stream.subscribe_observer(sink)),
        )
    }

    /// Applies an operator-builder stage (crate-internal plumbing).
    pub(crate) fn apply<Q: Payload>(
        self,
        build: impl FnOnce(Box<dyn Observer<Q>>) -> Box<dyn Observer<P>> + Send + 'static,
    ) -> DisorderedStreamable<Q> {
        let upstream = self.connect;
        DisorderedStreamable::from_connector(move |sink| upstream(build(sink)))
    }

    /// Selection (order-insensitive).
    pub fn where_(self, pred: impl FnMut(&Event<P>) -> bool + Send + 'static) -> Self {
        self.apply(move |sink| Box::new(FilterOp::new(pred, sink)))
    }

    /// Projection (order-insensitive).
    pub fn select<Q: Payload>(
        self,
        f: impl FnMut(&P) -> Q + Send + 'static,
    ) -> DisorderedStreamable<Q> {
        self.apply(move |sink| Box::new(SelectOp::new(f, sink)))
    }

    /// Re-keying (order-insensitive).
    pub fn re_key(self, f: impl FnMut(&Event<P>) -> u32 + Send + 'static) -> Self {
        self.apply(move |sink| Box::new(ReKeyOp::new(f, sink)))
    }

    /// Tumbling window below the sort (§IV-A2): aligns timestamps on the
    /// *disordered* stream, reducing both distinct values and disorder.
    /// Alignment is per event, so the engine's in-order operator serves
    /// unchanged; `size` must be positive.
    pub fn tumbling_window(self, size: TickDuration) -> Self {
        assert!(size.is_positive(), "window size must be positive");
        self.apply(move |sink| Box::new(TumblingWindowOp::new(size, sink)))
    }

    /// Ends the disordered section with an Impatience sorting operator —
    /// the paper's `ToStreamable()`.
    pub fn to_streamable(self, meter: &MemoryMeter) -> Streamable<P> {
        Streamable::from_connector(self.connect)
            .sorted(Box::new(ImpatienceSorter::new()), meter, Default::default())
            .expect("default sort policy")
    }

    /// Consumes the handle, returning the raw connector (used by the
    /// framework builder).
    pub(crate) fn into_connector(self) -> Connector<P> {
        self.connect
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
