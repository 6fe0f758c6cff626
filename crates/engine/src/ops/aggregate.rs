//! Windowed aggregation over ordered streams.
//!
//! These operators exploit the engine's in-order contract: once an event
//! with a larger `sync_time` arrives (or a punctuation passes), a window is
//! provably complete and its aggregate can be emitted. They assume a
//! window operator upstream has aligned `sync_time` to window starts — an
//! unwindowed stream degenerates gracefully to per-instant aggregation.
//!
//! [`Aggregate`] deliberately separates `fold` from `combine` so the same
//! aggregate drives both a full query and the Impatience framework's
//! PIQ/merge split (§V-B): PIQ folds raw events into partials, the merge
//! side combines partials flowing out of union operators.

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use crate::ops::group::GroupTable;
use impatience_core::{
    hash_key, Event, EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, StreamError, Timestamp,
};

/// An incremental, mergeable aggregate function.
pub trait Aggregate<P: Payload>: Clone + Send + 'static {
    /// Accumulator state. `StateCodec` so an in-flight window survives a
    /// pipeline checkpoint/restore. `Send` (like the aggregate itself) so
    /// aggregating operators can run on sharded worker threads.
    type Acc: Clone + StateCodec + Send + 'static;
    /// Final (and partial — see [`Aggregate::combine`]) output payload.
    type Out: Payload;

    /// Fresh accumulator.
    fn init(&self) -> Self::Acc;
    /// Folds one event in.
    fn fold(&self, acc: &mut Self::Acc, e: &Event<P>);
    /// Produces the output payload.
    fn output(&self, acc: &Self::Acc) -> Self::Out;
    /// Combines two partial outputs (for PIQ/merge plans). Must satisfy
    /// `output(fold(a ∪ b)) == combine(output(fold(a)), output(fold(b)))`.
    fn combine(&self, a: &Self::Out, b: &Self::Out) -> Self::Out;
}

/// `COUNT(*)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountAgg;

impl<P: Payload> Aggregate<P> for CountAgg {
    type Acc = u64;
    type Out = u64;
    fn init(&self) -> u64 {
        0
    }
    fn fold(&self, acc: &mut u64, _e: &Event<P>) {
        *acc += 1;
    }
    fn output(&self, acc: &u64) -> u64 {
        *acc
    }
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

/// `SUM(f(payload))` over a projection to `i64`.
#[derive(Clone)]
pub struct SumAgg<P, F: Clone> {
    f: F,
    _p: core::marker::PhantomData<fn(P)>,
}

impl<P, F: Clone> SumAgg<P, F> {
    /// Sums `f(payload)`.
    pub fn new(f: F) -> Self {
        SumAgg {
            f,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, F: Fn(&P) -> i64 + Clone + Send + 'static> Aggregate<P> for SumAgg<P, F> {
    type Acc = i64;
    type Out = i64;
    fn init(&self) -> i64 {
        0
    }
    fn fold(&self, acc: &mut i64, e: &Event<P>) {
        *acc += (self.f)(&e.payload);
    }
    fn output(&self, acc: &i64) -> i64 {
        *acc
    }
    fn combine(&self, a: &i64, b: &i64) -> i64 {
        a + b
    }
}

/// `MIN(f(payload))`; `None` only for empty windows (never emitted).
#[derive(Clone)]
pub struct MinAgg<P, F: Clone> {
    f: F,
    _p: core::marker::PhantomData<fn(P)>,
}

impl<P, F: Clone> MinAgg<P, F> {
    /// Minimizes `f(payload)`.
    pub fn new(f: F) -> Self {
        MinAgg {
            f,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, F: Fn(&P) -> i64 + Clone + Send + 'static> Aggregate<P> for MinAgg<P, F> {
    type Acc = Option<i64>;
    type Out = i64;
    fn init(&self) -> Option<i64> {
        None
    }
    fn fold(&self, acc: &mut Option<i64>, e: &Event<P>) {
        let v = (self.f)(&e.payload);
        *acc = Some(acc.map_or(v, |a| a.min(v)));
    }
    fn output(&self, acc: &Option<i64>) -> i64 {
        acc.expect("MIN over an empty window")
    }
    fn combine(&self, a: &i64, b: &i64) -> i64 {
        *a.min(b)
    }
}

/// `MAX(f(payload))`.
#[derive(Clone)]
pub struct MaxAgg<P, F: Clone> {
    f: F,
    _p: core::marker::PhantomData<fn(P)>,
}

impl<P, F: Clone> MaxAgg<P, F> {
    /// Maximizes `f(payload)`.
    pub fn new(f: F) -> Self {
        MaxAgg {
            f,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, F: Fn(&P) -> i64 + Clone + Send + 'static> Aggregate<P> for MaxAgg<P, F> {
    type Acc = Option<i64>;
    type Out = i64;
    fn init(&self) -> Option<i64> {
        None
    }
    fn fold(&self, acc: &mut Option<i64>, e: &Event<P>) {
        let v = (self.f)(&e.payload);
        *acc = Some(acc.map_or(v, |a| a.max(v)));
    }
    fn output(&self, acc: &Option<i64>) -> i64 {
        acc.expect("MAX over an empty window")
    }
    fn combine(&self, a: &i64, b: &i64) -> i64 {
        *a.max(b)
    }
}

/// `AVG(f(payload))` — partial output is `(sum, count)` so it stays
/// mergeable; use [`mean_value`] to read the final average.
#[derive(Clone)]
pub struct MeanAgg<P, F: Clone> {
    f: F,
    _p: core::marker::PhantomData<fn(P)>,
}

impl<P, F: Clone> MeanAgg<P, F> {
    /// Averages `f(payload)`.
    pub fn new(f: F) -> Self {
        MeanAgg {
            f,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, F: Fn(&P) -> i64 + Clone + Send + 'static> Aggregate<P> for MeanAgg<P, F> {
    type Acc = (i64, u64);
    type Out = (i64, u64);
    fn init(&self) -> (i64, u64) {
        (0, 0)
    }
    fn fold(&self, acc: &mut (i64, u64), e: &Event<P>) {
        acc.0 += (self.f)(&e.payload);
        acc.1 += 1;
    }
    fn output(&self, acc: &(i64, u64)) -> (i64, u64) {
        *acc
    }
    fn combine(&self, a: &(i64, u64), b: &(i64, u64)) -> (i64, u64) {
        (a.0 + b.0, a.1 + b.1)
    }
}

/// Reads the final average out of a [`MeanAgg`] partial.
pub fn mean_value(partial: &(i64, u64)) -> f64 {
    if partial.1 == 0 {
        return 0.0;
    }
    partial.0 as f64 / partial.1 as f64
}

/// Ungrouped windowed aggregation: one output event per window.
pub struct WindowAggregateOp<P: Payload, A: Aggregate<P>, S> {
    agg: A,
    /// `(window_start, window_end, accumulator)` of the open window.
    current: Option<(Timestamp, Timestamp, A::Acc)>,
    next: S,
}

impl<P: Payload, A: Aggregate<P>, S> WindowAggregateOp<P, A, S> {
    /// Aggregates each window with `agg`.
    pub fn new(agg: A, next: S) -> Self {
        WindowAggregateOp {
            agg,
            current: None,
            next,
        }
    }

    fn emit_current(&mut self)
    where
        S: Observer<A::Out>,
    {
        if let Some((start, end, acc)) = self.current.take() {
            let mut batch = EventBatch::with_capacity(1);
            batch.push(Event {
                sync_time: start,
                other_time: end,
                key: 0,
                hash: hash_key(0),
                payload: self.agg.output(&acc),
            });
            self.next.on_batch(batch);
        }
    }
}

impl<P: Payload, A: Aggregate<P>, S: Send> Checkpointable for WindowAggregateOp<P, A, S> {
    fn state_id(&self) -> &'static str {
        "engine.window_aggregate"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.current.encode(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.current = Option::<(Timestamp, Timestamp, A::Acc)>::decode(r)?;
        Ok(())
    }
}

impl<P: Payload, A: Aggregate<P>, S: Observer<A::Out>> Observer<P> for WindowAggregateOp<P, A, S> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        for i in 0..batch.len() {
            if !batch.is_visible(i) {
                continue;
            }
            let e = &batch.events()[i];
            let same_window = matches!(&self.current, Some((start, ..)) if *start == e.sync_time);
            if !same_window {
                if let Some((start, ..)) = &self.current {
                    debug_assert!(
                        e.sync_time > *start,
                        "aggregate received out-of-order event"
                    );
                }
                self.emit_current();
                self.current = Some((e.sync_time, e.other_time, self.agg.init()));
            }
            let (agg, current) = (&self.agg, &mut self.current);
            if let Some((.., acc)) = current {
                agg.fold(acc, e);
            }
        }
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        if let Some((start, ..)) = &self.current {
            if *start <= t {
                self.emit_current();
            }
        }
        self.next.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        self.emit_current();
        self.next.on_completed();
    }

    fn on_error(&mut self, err: StreamError) {
        self.next.on_error(err);
    }
}

/// Grouped windowed aggregation (`GroupApply` + aggregate in the paper's
/// sample code): one output event per (window, key).
pub struct GroupedAggregateOp<P: Payload, A: Aggregate<P>, S> {
    agg: A,
    groups: GroupTable<A::Acc, A::Out>,
    next: S,
}

impl<P: Payload, A: Aggregate<P>, S> GroupedAggregateOp<P, A, S> {
    /// Aggregates each (window, key) group with `agg`.
    pub fn new(agg: A, next: S) -> Self {
        GroupedAggregateOp {
            agg,
            groups: GroupTable::new(),
            next,
        }
    }
}

impl<P: Payload, A: Aggregate<P>, S: Send> Checkpointable for GroupedAggregateOp<P, A, S> {
    fn state_id(&self) -> &'static str {
        "engine.grouped_aggregate"
    }

    /// Window, then `(key, accumulator)` pairs ascending by key.
    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        let live = self.groups.live_sorted();
        self.groups.window().encode(w);
        w.put_u64(live.len() as u64);
        for (key, acc) in live {
            key.encode(w);
            acc.encode(w);
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let window = Option::<(Timestamp, Timestamp)>::decode(r)?;
        let n = r.get_count()?;
        let mut groups = Vec::with_capacity(n);
        for _ in 0..n {
            groups.push((u32::decode(r)?, A::Acc::decode(r)?));
        }
        self.groups = GroupTable::restored("group_aggregate", window, groups)?;
        Ok(())
    }
}

impl<P: Payload, A: Aggregate<P>, S: Observer<A::Out>> Observer<P> for GroupedAggregateOp<P, A, S> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let agg = &self.agg;
        for i in 0..batch.len() {
            if !batch.is_visible(i) {
                continue;
            }
            let e = &batch.events()[i];
            self.groups
                .enter((e.sync_time, e.other_time), |acc| agg.output(acc));
            agg.fold(self.groups.upsert(e.key, || agg.init()).0, e);
        }
        self.groups.flush(&mut self.next);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        let agg = &self.agg;
        self.groups.close_through(t, |acc| agg.output(acc));
        self.groups.flush(&mut self.next);
        self.next.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        let agg = &self.agg;
        self.groups.close(|acc| agg.output(acc));
        self.groups.flush(&mut self.next);
        self.next.on_completed();
    }

    fn on_error(&mut self, err: StreamError) {
        self.next.on_error(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Output;

    fn windowed_batch(items: &[(i64, u32, u32)]) -> EventBatch<u32> {
        // (window_start, key, payload) — already aligned to 10-tick windows.
        items
            .iter()
            .map(|&(w, k, p)| Event::interval(Timestamp::new(w), Timestamp::new(w + 10), k, p))
            .collect()
    }

    #[test]
    fn ungrouped_count_per_window() {
        let (out, sink) = Output::<u64>::new();
        let mut op = WindowAggregateOp::new(CountAgg, sink);
        op.on_batch(windowed_batch(&[(0, 0, 1), (0, 0, 2), (10, 0, 3)]));
        // Window 0 closed by the arrival of window 10.
        assert_eq!(out.event_count(), 1);
        op.on_batch(windowed_batch(&[(10, 0, 4), (10, 0, 5)]));
        op.on_completed();
        let evs = out.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].payload, 2);
        assert_eq!(evs[1].payload, 3);
        assert_eq!(evs[0].sync_time, Timestamp::new(0));
        assert_eq!(evs[0].other_time, Timestamp::new(10));
        assert_eq!(evs[1].sync_time, Timestamp::new(10));
    }

    #[test]
    fn punctuation_closes_window() {
        let (out, sink) = Output::<u64>::new();
        let mut op = WindowAggregateOp::new(CountAgg, sink);
        op.on_batch(windowed_batch(&[(0, 0, 1)]));
        op.on_punctuation(Timestamp::new(-1));
        assert_eq!(out.event_count(), 0, "window 0 not yet closeable");
        op.on_punctuation(Timestamp::new(0));
        assert_eq!(out.event_count(), 1, "punctuation at start closes it");
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(0)));
    }

    #[test]
    fn sum_min_max_mean() {
        let (out, sink) = Output::<i64>::new();
        let mut op = WindowAggregateOp::new(SumAgg::new(|p: &u32| *p as i64), sink);
        op.on_batch(windowed_batch(&[(0, 0, 5), (0, 0, 7)]));
        op.on_completed();
        assert_eq!(out.events()[0].payload, 12);

        let (out, sink) = Output::<i64>::new();
        let mut op = WindowAggregateOp::new(MinAgg::new(|p: &u32| *p as i64), sink);
        op.on_batch(windowed_batch(&[(0, 0, 5), (0, 0, 3), (0, 0, 7)]));
        op.on_completed();
        assert_eq!(out.events()[0].payload, 3);

        let (out, sink) = Output::<i64>::new();
        let mut op = WindowAggregateOp::new(MaxAgg::new(|p: &u32| *p as i64), sink);
        op.on_batch(windowed_batch(&[(0, 0, 5), (0, 0, 3), (0, 0, 7)]));
        op.on_completed();
        assert_eq!(out.events()[0].payload, 7);

        let (out, sink) = Output::<(i64, u64)>::new();
        let mut op = WindowAggregateOp::new(MeanAgg::new(|p: &u32| *p as i64), sink);
        op.on_batch(windowed_batch(&[(0, 0, 4), (0, 0, 8)]));
        op.on_completed();
        let partial = out.events()[0].payload;
        assert_eq!(partial, (12, 2));
        assert!((mean_value(&partial) - 6.0).abs() < 1e-12);
        assert_eq!(mean_value(&(0, 0)), 0.0);
    }

    #[test]
    fn combine_laws() {
        // combine(output(a), output(b)) == output(a ∪ b) for each aggregate.
        let ev = |p: u32| Event::point(Timestamp::ZERO, p);
        let a_events = [ev(3), ev(9)];
        let b_events = [ev(1), ev(5), ev(20)];

        fn run<A: Aggregate<u32>>(agg: &A, evs: &[Event<u32>]) -> A::Out {
            let mut acc = agg.init();
            for e in evs {
                agg.fold(&mut acc, e);
            }
            agg.output(&acc)
        }

        let c = CountAgg;
        let all: Vec<Event<u32>> = a_events.iter().chain(&b_events).cloned().collect();
        assert_eq!(
            Aggregate::<u32>::combine(&c, &run(&c, &a_events), &run(&c, &b_events)),
            run(&c, &all)
        );
        let s = SumAgg::new(|p: &u32| *p as i64);
        assert_eq!(
            s.combine(&run(&s, &a_events), &run(&s, &b_events)),
            run(&s, &all)
        );
        let mn = MinAgg::new(|p: &u32| *p as i64);
        assert_eq!(
            mn.combine(&run(&mn, &a_events), &run(&mn, &b_events)),
            run(&mn, &all)
        );
        let mx = MaxAgg::new(|p: &u32| *p as i64);
        assert_eq!(
            mx.combine(&run(&mx, &a_events), &run(&mx, &b_events)),
            run(&mx, &all)
        );
        let me = MeanAgg::new(|p: &u32| *p as i64);
        assert_eq!(
            me.combine(&run(&me, &a_events), &run(&me, &b_events)),
            run(&me, &all)
        );
    }

    #[test]
    fn grouped_count_emits_sorted_keys() {
        let (out, sink) = Output::<u64>::new();
        let mut op = GroupedAggregateOp::new(CountAgg, sink);
        op.on_batch(windowed_batch(&[
            (0, 7, 0),
            (0, 2, 0),
            (0, 7, 0),
            (0, 5, 0),
        ]));
        op.on_batch(windowed_batch(&[(10, 1, 0)]));
        op.on_completed();
        let evs = out.events();
        let got: Vec<(u32, u64)> = evs.iter().map(|e| (e.key, e.payload)).collect();
        assert_eq!(got, vec![(2, 1), (5, 1), (7, 2), (1, 1)]);
        assert_eq!(evs[0].sync_time, Timestamp::new(0));
        assert_eq!(evs[3].sync_time, Timestamp::new(10));
        assert_eq!(evs[0].hash, impatience_core::hash_key(2));
    }

    #[test]
    fn grouped_punctuation_and_empty_windows() {
        let (out, sink) = Output::<u64>::new();
        let mut op = GroupedAggregateOp::new(CountAgg, sink);
        op.on_punctuation(Timestamp::new(100));
        assert_eq!(out.event_count(), 0, "no window, nothing to emit");
        op.on_batch(windowed_batch(&[(200, 3, 0)]));
        op.on_punctuation(Timestamp::new(250));
        assert_eq!(out.event_count(), 1);
        op.on_completed();
        assert_eq!(out.event_count(), 1, "no double emission");
    }

    #[test]
    fn filtered_rows_are_ignored() {
        let (out, sink) = Output::<u64>::new();
        let mut op = WindowAggregateOp::new(CountAgg, sink);
        let mut b = windowed_batch(&[(0, 0, 1), (0, 0, 2), (0, 0, 3)]);
        b.filter_mut().filter_out(1);
        op.on_batch(b);
        op.on_completed();
        assert_eq!(out.events()[0].payload, 2);
    }

    type CountOp = GroupedAggregateOp<u32, CountAgg, Box<dyn Observer<u64>>>;

    fn count_op() -> (Output<u64>, CountOp) {
        let (out, sink) = Output::<u64>::new();
        (out, GroupedAggregateOp::new(CountAgg, Box::new(sink)))
    }

    fn finish(out: &Output<u64>, mut op: CountOp) -> Vec<(i64, u32, u64)> {
        op.on_batch(windowed_batch(&[(0, 5, 0), (10, 9, 0)]));
        op.on_completed();
        out.events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.key, e.payload))
            .collect()
    }

    #[test]
    fn grouped_mid_window_checkpoint_round_trips() {
        let (_, mut op) = count_op();
        op.on_batch(windowed_batch(&[
            (-10, 8, 0),
            (0, 7, 0),
            (0, 2, 0),
            (0, 7, 0),
        ]));
        let mut w = SnapshotWriter::new();
        op.encode_state(&mut w).unwrap();
        let bytes = w.into_body();

        let (out, mut restored) = count_op();
        let mut r = SnapshotReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut again = SnapshotWriter::new();
        restored.encode_state(&mut again).unwrap();
        assert_eq!(again.into_body(), bytes);
        assert_eq!(
            finish(&out, restored),
            vec![(0, 2, 1), (0, 5, 1), (0, 7, 2), (10, 9, 1)]
        );
    }

    #[test]
    fn grouped_frame_repeating_a_key_is_refused_and_leaves_the_state_alone() {
        let mut w = SnapshotWriter::new();
        Some((Timestamp::new(0), Timestamp::new(10))).encode(&mut w);
        w.put_u64(3);
        for (key, acc) in [(4u32, 1u64), (9, 2), (4, 3)] {
            key.encode(&mut w);
            acc.encode(&mut w);
        }
        let (out, mut op) = count_op();
        op.on_batch(windowed_batch(&[(0, 7, 0)]));
        let err = op
            .restore_state(&mut SnapshotReader::new(&w.into_body()))
            .expect_err("key 4 twice");
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        assert!(err
            .to_string()
            .contains("group_aggregate snapshot repeats key 4"));
        assert_eq!(finish(&out, op), vec![(0, 5, 1), (0, 7, 1), (10, 9, 1)]);
    }
}
