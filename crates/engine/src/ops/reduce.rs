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
use crate::ops::keymap::{key_map_with_capacity, KeyMap};
use impatience_core::{
    Event, EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec,
    StreamError, Timestamp,
};

/// Combines same-window same-key events with a binary payload function.
pub struct ReduceByKeyOp<P, F, S> {
    combine: F,
    window: Option<(Timestamp, Timestamp)>,
    groups: KeyMap<P>,
    /// Arrival order of keys, for deterministic output.
    order: Vec<u32>,
    next: S,
}

impl<P, F, S> ReduceByKeyOp<P, F, S> {
    /// `combine(acc, incoming)` merges a later partial into the earlier one.
    pub fn new(combine: F, next: S) -> Self {
        ReduceByKeyOp {
            combine,
            window: None,
            groups: KeyMap::default(),
            order: Vec::new(),
            next,
        }
    }
}

impl<P: Payload, F: FnMut(&mut P, P), S: Observer<P>> ReduceByKeyOp<P, F, S> {
    fn emit_window(&mut self) {
        let Some((start, end)) = self.window.take() else {
            return;
        };
        let mut keys = core::mem::take(&mut self.order);
        keys.sort_unstable();
        let mut batch = EventBatch::with_capacity(keys.len());
        for k in keys {
            let payload = self.groups.remove(&k).expect("key tracked but missing");
            batch.push(Event {
                sync_time: start,
                other_time: end,
                key: k,
                hash: impatience_core::hash_key(k),
                payload,
            });
        }
        debug_assert!(self.groups.is_empty());
        self.next.on_batch(batch);
    }
}

impl<P: Payload, F: Send, S: Send> Checkpointable for ReduceByKeyOp<P, F, S> {
    fn state_id(&self) -> &'static str {
        "engine.reduce_by_key"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.window.encode(w);
        // `order` is deterministic (arrival order), so encoding groups in
        // that sequence is byte-stable and restores both maps exactly.
        self.order.encode(w);
        for k in &self.order {
            self.groups[k].encode(w);
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let window = Option::<(Timestamp, Timestamp)>::decode(r)?;
        let order = Vec::<u32>::decode(r)?;
        let mut groups = key_map_with_capacity(order.len());
        for &k in &order {
            if groups.insert(k, P::decode(r)?).is_some() {
                return Err(SnapshotError::corrupt(format!(
                    "reduce_by_key snapshot repeats key {k}"
                )));
            }
        }
        self.window = window;
        self.order = order;
        self.groups = groups;
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
            match self.window {
                Some((start, _)) if start == e.sync_time => {}
                Some((start, _)) => {
                    debug_assert!(e.sync_time > start, "reduce saw out-of-order event");
                    self.emit_window();
                    self.window = Some((e.sync_time, e.other_time));
                }
                None => self.window = Some((e.sync_time, e.other_time)),
            }
            match self.groups.entry(e.key) {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    (self.combine)(o.get_mut(), e.payload.clone());
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(e.payload.clone());
                    self.order.push(e.key);
                }
            }
        }
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        if let Some((start, _)) = self.window {
            if start <= t {
                self.emit_window();
            }
        }
        self.next.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        self.emit_window();
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
}
