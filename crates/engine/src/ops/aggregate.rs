//! Windowed aggregation over ordered streams.
//!
//! These operators exploit the engine's in-order contract: once an event
//! with a larger `sync_time` arrives (or a punctuation passes), a window is
//! provably complete and its aggregate can be emitted. They assume a
//! window operator upstream has aligned `sync_time` to window starts — an
//! unwindowed stream degenerates gracefully to per-instant aggregation.
//!
//! An [`Aggregate`] starts a group's accumulator from its first event and
//! folds each later one in. [`GroupedAggregateOp`] is the one grouped
//! operator: `group_aggregate` runs it over any aggregate, and
//! `reduce_by_key` over [`Reduce`], whose accumulator is the first payload
//! and whose fold is the caller's combine. In the Impatience framework's
//! PIQ/merge split (§V-B) the PIQ folds raw events into partials and the
//! merge — a user function, typically `reduce_by_key` — recombines them.

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use crate::ops::group::GroupTable;
use impatience_core::{
    hash_key, Event, EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, StreamError, Timestamp,
};

/// An incremental aggregate function.
pub trait Aggregate<P: Payload>: Clone + Send + 'static {
    /// Accumulator state. `StateCodec` so an in-flight window survives a
    /// pipeline checkpoint/restore. `Send` (like the aggregate itself) so
    /// aggregating operators can run on sharded worker threads.
    type Acc: Clone + StateCodec + Send + 'static;
    /// Output payload.
    type Out: Payload;

    /// The accumulator of a group whose first event is `e`.
    fn first(&self, e: &Event<P>) -> Self::Acc;
    /// Folds a later event of the same group in.
    fn fold(&self, acc: &mut Self::Acc, e: &Event<P>);
    /// Produces the output payload.
    fn output(&self, acc: &Self::Acc) -> Self::Out;
}

/// `COUNT(*)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountAgg;

impl<P: Payload> Aggregate<P> for CountAgg {
    type Acc = u64;
    type Out = u64;
    fn first(&self, _e: &Event<P>) -> u64 {
        1
    }
    fn fold(&self, acc: &mut u64, _e: &Event<P>) {
        *acc += 1;
    }
    fn output(&self, acc: &u64) -> u64 {
        *acc
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
    fn first(&self, e: &Event<P>) -> i64 {
        (self.f)(&e.payload)
    }
    fn fold(&self, acc: &mut i64, e: &Event<P>) {
        *acc += (self.f)(&e.payload);
    }
    fn output(&self, acc: &i64) -> i64 {
        *acc
    }
}

/// `reduce_by_key`'s aggregate: a group's value is its first payload, and
/// `combine(value, later)` merges each later payload into it, in order.
#[derive(Clone)]
pub struct Reduce<F>(pub F);

impl<P: Payload, F: Fn(&mut P, P) + Clone + Send + 'static> Aggregate<P> for Reduce<F> {
    type Acc = P;
    type Out = P;
    fn first(&self, e: &Event<P>) -> P {
        e.payload.clone()
    }
    fn fold(&self, acc: &mut P, e: &Event<P>) {
        (self.0)(acc, e.payload.clone());
    }
    fn output(&self, acc: &P) -> P {
        acc.clone()
    }
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
            match &mut self.current {
                Some((start, _, acc)) if *start == e.sync_time => self.agg.fold(acc, e),
                current => {
                    if let Some((start, ..)) = current {
                        debug_assert!(
                            e.sync_time > *start,
                            "aggregate received out-of-order event"
                        );
                    }
                    self.emit_current();
                    self.current = Some((e.sync_time, e.other_time, self.agg.first(e)));
                }
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
/// sample code): one output event per (window, key). `group_aggregate`
/// and `reduce_by_key` both build it.
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

    /// The group frame: the open window, then `(key, accumulator)` pairs
    /// ascending by key.
    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.groups.encode(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.groups = GroupTable::decode("group_aggregate", r)?;
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
            let (acc, live) = self.groups.upsert(e.key, || agg.first(e));
            if live {
                agg.fold(acc, e);
            }
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
    fn sum_per_window() {
        let (out, sink) = Output::<i64>::new();
        let mut op = WindowAggregateOp::new(SumAgg::new(|p: &u32| *p as i64), sink);
        op.on_batch(windowed_batch(&[(0, 0, 5), (0, 0, 7)]));
        op.on_completed();
        assert_eq!(out.events()[0].payload, 12);
    }

    /// Runs `agg` grouped over `batches`, then completes.
    fn grouped_outputs<A: Aggregate<u32>>(
        agg: A,
        batches: &[&[(i64, u32, u32)]],
    ) -> Vec<Event<A::Out>> {
        let (out, mut op) = boxed_op(agg);
        for batch in batches {
            op.on_batch(windowed_batch(batch));
        }
        op.on_completed();
        out.events()
    }

    #[test]
    fn grouped_count_emits_sorted_keys() {
        let batches: [&[(i64, u32, u32)]; 2] =
            [&[(0, 7, 3), (0, 2, 1), (0, 7, 9), (0, 5, 4)], &[(10, 1, 2)]];
        let evs = grouped_outputs(CountAgg, &batches);
        let got: Vec<(u32, u64)> = evs.iter().map(|e| (e.key, e.payload)).collect();
        assert_eq!(got, vec![(2, 1), (5, 1), (7, 2), (1, 1)]);
        assert_eq!(evs[0].sync_time, Timestamp::new(0));
        assert_eq!(evs[3].sync_time, Timestamp::new(10));
        assert_eq!(evs[0].hash, impatience_core::hash_key(2));
        // A non-additive combine: the largest payload per group.
        let max = Reduce(|a: &mut u32, b: u32| *a = (*a).max(b));
        let evs = grouped_outputs(max, &batches);
        let got: Vec<(u32, u32)> = evs.iter().map(|e| (e.key, e.payload)).collect();
        assert_eq!(got, vec![(2, 1), (5, 4), (7, 9), (1, 2)]);
        assert_eq!(evs[3].other_time, Timestamp::new(20));
    }

    #[test]
    fn grouped_punctuation_and_empty_windows() {
        let (out, mut op) = boxed_op(CountAgg);
        op.on_punctuation(Timestamp::new(100));
        assert_eq!(out.event_count(), 0, "no window, nothing to emit");
        op.on_batch(windowed_batch(&[(200, 3, 0)]));
        op.on_punctuation(Timestamp::new(250));
        assert_eq!(out.event_count(), 1);
        op.on_completed();
        assert_eq!(out.event_count(), 1, "no double emission");

        let (out, mut op) = boxed_op(Reduce(|a: &mut u32, b: u32| *a += b));
        op.on_batch(windowed_batch(&[(0, 9, 2)]));
        op.on_punctuation(Timestamp::new(-5));
        assert_eq!(out.event_count(), 0, "window 0 not yet closeable");
        op.on_punctuation(Timestamp::new(3));
        assert_eq!(
            out.events().iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![2]
        );
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

    type BoxedOp<A> = GroupedAggregateOp<u32, A, Box<dyn Observer<<A as Aggregate<u32>>::Out>>>;

    fn boxed_op<A: Aggregate<u32>>(agg: A) -> (Output<A::Out>, BoxedOp<A>) {
        let (out, sink) = Output::<A::Out>::new();
        (out, GroupedAggregateOp::new(agg, Box::new(sink)))
    }

    /// `(window start, key, output)` per emitted group.
    type Groups<O> = Vec<(i64, u32, O)>;

    fn finish<A: Aggregate<u32>>(out: &Output<A::Out>, mut op: BoxedOp<A>) -> Groups<A::Out> {
        op.on_batch(windowed_batch(&[(0, 5, 1), (10, 9, 2)]));
        op.on_completed();
        out.events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.key, e.payload.clone()))
            .collect()
    }

    /// A group frame: `window`, then `groups` in the order given.
    fn frame<V: StateCodec>(window: Option<(i64, i64)>, groups: &[(u32, V)]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        window
            .map(|(start, end)| (Timestamp::new(start), Timestamp::new(end)))
            .encode(&mut w);
        w.put_u64(groups.len() as u64);
        for (key, acc) in groups {
            key.encode(&mut w);
            acc.encode(&mut w);
        }
        w.into_body()
    }

    /// Checkpoints `agg` mid-window, restores into a fresh operator and
    /// finishes both input and restored run; returns the frame and output.
    fn mid_window_round_trip<A: Aggregate<u32>>(agg: A) -> (Vec<u8>, Groups<A::Out>) {
        let (_, mut op) = boxed_op(agg.clone());
        op.on_batch(windowed_batch(&[(-10, 8, 1)]));
        op.on_batch(windowed_batch(&[(0, 7, 3), (0, 2, 5), (0, 7, 4)]));
        let mut w = SnapshotWriter::new();
        op.encode_state(&mut w).unwrap();
        let bytes = w.into_body();

        let (out, mut restored) = boxed_op(agg);
        let mut r = SnapshotReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut again = SnapshotWriter::new();
        restored.encode_state(&mut again).unwrap();
        assert_eq!(again.into_body(), bytes);
        (bytes, finish(&out, restored))
    }

    #[test]
    fn grouped_mid_window_checkpoint_round_trips() {
        let (bytes, got) = mid_window_round_trip(CountAgg);
        assert_eq!(bytes, frame(Some((0, 10)), &[(2, 1u64), (7, 2)]));
        assert_eq!(got, vec![(0, 2, 1), (0, 5, 1), (0, 7, 2), (10, 9, 1)]);
        let (bytes, got) = mid_window_round_trip(Reduce(|a: &mut u32, b: u32| *a += b));
        let sums = frame(Some((0, 10)), &[(2, 5u32), (7, 7)]);
        assert_eq!(bytes, sums, "keys ascending, closed window gone");
        assert_eq!(got, vec![(0, 2, 5), (0, 5, 1), (0, 7, 7), (10, 9, 2)]);
    }

    /// Restore takes keys in any order, but refuses — leaving the state
    /// alone — what the writer never frames: a key twice, or groups with
    /// no open window (restored, they would be emitted as the next one's).
    #[test]
    fn grouped_frames_the_writer_never_produces_are_refused() {
        let (out, mut op) = boxed_op(CountAgg);
        op.restore_state(&mut SnapshotReader::new(&frame(
            Some((0, 10)),
            &[(9, 2u64), (4, 1)],
        )))
        .expect("any key order");
        assert_eq!(
            finish(&out, op),
            vec![(0, 4, 1), (0, 5, 1), (0, 9, 2), (10, 9, 1)]
        );
        for (bytes, refusal) in [
            (
                frame(Some((0, 10)), &[(4, 1u64), (9, 2), (4, 3)]),
                "group_aggregate snapshot repeats key 4",
            ),
            (
                frame(None, &[(5, 3u64)]),
                "group_aggregate snapshot holds 1 groups but no open window",
            ),
        ] {
            let (out, mut op) = boxed_op(CountAgg);
            op.on_batch(windowed_batch(&[(0, 7, 0)]));
            let err = op
                .restore_state(&mut SnapshotReader::new(&bytes))
                .expect_err(refusal);
            assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(refusal), "{err}");
            assert_eq!(finish(&out, op), vec![(0, 5, 1), (0, 7, 1), (10, 9, 1)]);
        }
    }
}
