//! Reduce-by-(window, key): combine partial results sharing a window start
//! and grouping key.
//!
//! This is the workhorse of the advanced Impatience framework's **merge**
//! stage (§V-B): after a union interleaves partial aggregates from two
//! latency partitions, events with the same `(sync_time, key)` are partial
//! results of the same logical group and must be combined (e.g. partial
//! counts added). Works on any ordered stream.

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use crate::ops::group::GroupTable;
use impatience_core::{
    EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, StreamError,
    Timestamp,
};

/// Combines same-window same-key events with a binary payload function.
pub struct ReduceByKeyOp<P, F, S> {
    combine: F,
    groups: GroupTable<P, P>,
    next: S,
}

impl<P, F, S> ReduceByKeyOp<P, F, S> {
    /// `combine(acc, incoming)` merges a later partial into the earlier one.
    pub fn new(combine: F, next: S) -> Self {
        ReduceByKeyOp {
            combine,
            groups: GroupTable::new(),
            next,
        }
    }
}

impl<P: Payload, F: Send, S: Send> Checkpointable for ReduceByKeyOp<P, F, S> {
    fn state_id(&self) -> &'static str {
        "engine.reduce_by_key"
    }

    /// Window, keys (ascending), then the values in the same order.
    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        let live = self.groups.live_sorted();
        self.groups.window().encode(w);
        w.put_u64(live.len() as u64);
        for (key, _) in &live {
            key.encode(w);
        }
        for (_, value) in &live {
            value.encode(w);
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let window = Option::<(Timestamp, Timestamp)>::decode(r)?;
        let keys = Vec::<u32>::decode(r)?;
        let mut groups = Vec::with_capacity(keys.len());
        for key in keys {
            groups.push((key, P::decode(r)?));
        }
        self.groups = GroupTable::restored("reduce_by_key", window, groups)?;
        Ok(())
    }
}

impl<P: Payload, F: FnMut(&mut P, P) + Send, S: Observer<P>> Observer<P>
    for ReduceByKeyOp<P, F, S>
{
    fn on_batch(&mut self, batch: EventBatch<P>) {
        for i in 0..batch.len() {
            if !batch.is_visible(i) {
                continue;
            }
            let e = &batch.events()[i];
            self.groups.enter((e.sync_time, e.other_time), P::clone);
            let (acc, partial) = self.groups.upsert(e.key, || e.payload.clone());
            if partial {
                (self.combine)(acc, e.payload.clone());
            }
        }
        self.groups.flush(&mut self.next);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.groups.close_through(t, P::clone);
        self.groups.flush(&mut self.next);
        self.next.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        self.groups.close(P::clone);
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
    use impatience_core::Event;

    fn partial(w: i64, key: u32, count: u64) -> Event<u64> {
        Event::interval(Timestamp::new(w), Timestamp::new(w + 10), key, count)
    }

    #[test]
    fn combines_partials_per_window_and_key() {
        let (out, sink) = Output::<u64>::new();
        let mut op = ReduceByKeyOp::new(|a: &mut u64, b: u64| *a += b, sink);
        op.on_batch(
            [partial(0, 1, 3), partial(0, 2, 5), partial(0, 1, 4)]
                .into_iter()
                .collect(),
        );
        op.on_batch([partial(10, 1, 7)].into_iter().collect());
        op.on_completed();
        let got: Vec<(i64, u32, u64)> = out
            .events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.key, e.payload))
            .collect();
        assert_eq!(got, vec![(0, 1, 7), (0, 2, 5), (10, 1, 7)]);
    }

    #[test]
    fn punctuation_flushes_closed_window() {
        let (out, sink) = Output::<u64>::new();
        let mut op = ReduceByKeyOp::new(|a: &mut u64, b: u64| *a += b, sink);
        op.on_batch([partial(0, 9, 2)].into_iter().collect());
        op.on_punctuation(Timestamp::new(-5));
        assert_eq!(out.event_count(), 0);
        op.on_punctuation(Timestamp::new(3));
        assert_eq!(out.event_count(), 1);
        assert_eq!(out.events()[0].payload, 2);
    }

    #[test]
    fn preserves_window_interval_and_hash() {
        let (out, sink) = Output::<u64>::new();
        let mut op = ReduceByKeyOp::new(|a: &mut u64, b: u64| *a += b, sink);
        op.on_batch([partial(20, 4, 1)].into_iter().collect());
        op.on_completed();
        let e = &out.events()[0];
        assert_eq!(e.sync_time, Timestamp::new(20));
        assert_eq!(e.other_time, Timestamp::new(30));
        assert_eq!(e.hash, impatience_core::hash_key(4));
    }

    #[test]
    fn non_additive_combines_work() {
        // e.g. taking a max across partials.
        let (out, sink) = Output::<u64>::new();
        let mut op = ReduceByKeyOp::new(|a: &mut u64, b: u64| *a = (*a).max(b), sink);
        op.on_batch(
            [partial(0, 1, 3), partial(0, 1, 9), partial(0, 1, 5)]
                .into_iter()
                .collect(),
        );
        op.on_completed();
        assert_eq!(out.events()[0].payload, 9);
    }

    type SumOp = ReduceByKeyOp<u64, fn(&mut u64, u64), Box<dyn Observer<u64>>>;

    fn sum_op() -> (crate::observer::Output<u64>, SumOp) {
        let (out, sink) = Output::<u64>::new();
        (out, ReduceByKeyOp::new(|a, b| *a += b, Box::new(sink)))
    }

    /// A `reduce_by_key` state frame: window `[0, 10)`, then `keys` and
    /// `values` in the order given.
    fn frame(keys: &[u32], values: &[u64]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        Some((Timestamp::new(0), Timestamp::new(10))).encode(&mut w);
        keys.to_vec().encode(&mut w);
        for v in values {
            v.encode(&mut w);
        }
        w.into_body()
    }

    fn finish(out: &Output<u64>, mut op: SumOp) -> Vec<(i64, u32, u64)> {
        op.on_batch([partial(0, 5, 1), partial(10, 9, 2)].into_iter().collect());
        op.on_completed();
        out.events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.key, e.payload))
            .collect()
    }

    #[test]
    fn mid_window_checkpoint_round_trips() {
        let (_, mut op) = sum_op();
        op.on_batch([partial(-10, 8, 1)].into_iter().collect());
        op.on_batch(
            [partial(0, 7, 3), partial(0, 2, 5), partial(0, 7, 4)]
                .into_iter()
                .collect(),
        );
        let mut w = SnapshotWriter::new();
        op.encode_state(&mut w).unwrap();
        let bytes = w.into_body();
        assert_eq!(
            bytes,
            frame(&[2, 7], &[5, 7]),
            "keys ascending, closed window gone"
        );

        let (out, mut restored) = sum_op();
        let mut r = SnapshotReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(
            finish(&out, restored),
            vec![(0, 2, 5), (0, 5, 1), (0, 7, 7), (10, 9, 2)]
        );
    }

    #[test]
    fn restores_a_snapshot_laid_out_in_arrival_order() {
        // What this operator wrote before its keys were kept sorted.
        let (out, mut op) = sum_op();
        op.restore_state(&mut SnapshotReader::new(&frame(&[7, 2, 40], &[7, 5, 1])))
            .unwrap();
        assert_eq!(
            finish(&out, op),
            vec![(0, 2, 5), (0, 5, 1), (0, 7, 7), (0, 40, 1), (10, 9, 2)]
        );
    }

    #[test]
    fn a_frame_repeating_a_key_is_refused_and_leaves_the_state_alone() {
        let (out, mut op) = sum_op();
        op.on_batch([partial(0, 7, 3)].into_iter().collect());
        let err = op
            .restore_state(&mut SnapshotReader::new(&frame(&[4, 9, 4], &[1, 2, 3])))
            .expect_err("key 4 twice");
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "{err}");
        assert!(err
            .to_string()
            .contains("reduce_by_key snapshot repeats key 4"));
        assert_eq!(finish(&out, op), vec![(0, 5, 1), (0, 7, 3), (10, 9, 2)]);
    }
}
