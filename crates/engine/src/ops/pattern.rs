//! Followed-by pattern matching.
//!
//! The paper's second framework example (§V-C) finds "users who click ad X
//! followed by clicking ad Y within a one-minute window". This operator
//! implements that primitive over an ordered stream: per grouping key, an
//! event matching `is_first` opens a pattern instance; a later event
//! matching `is_second` within `window` ticks emits a match. State is one
//! timestamp per key, garbage-collected as punctuations pass.

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use crate::ops::keymap::{key_map_with_capacity, KeyMap};
use impatience_core::{
    EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, StreamError,
    TickDuration, Timestamp,
};

/// The payload of an emitted match: the second event's payload, timed at
/// the second event, with `other_time` covering the span since the first.
pub struct FollowedByOp<P, F1, F2, S> {
    is_first: F1,
    is_second: F2,
    window: TickDuration,
    /// Per-key sync time of the most recent qualifying first event.
    open: KeyMap<Timestamp>,
    matches_emitted: u64,
    next: S,
    _p: core::marker::PhantomData<P>,
}

impl<P, F1, F2, S> FollowedByOp<P, F1, F2, S> {
    /// Matches `is_first` then `is_second` on the same key within `window`.
    pub fn new(is_first: F1, is_second: F2, window: TickDuration, next: S) -> Self {
        assert!(window.is_positive(), "pattern window must be positive");
        FollowedByOp {
            is_first,
            is_second,
            window,
            open: KeyMap::default(),
            matches_emitted: 0,
            next,
            _p: core::marker::PhantomData,
        }
    }

    /// Matches emitted so far.
    pub fn matches_emitted(&self) -> u64 {
        self.matches_emitted
    }
}

impl<P: Send, F1: Send, F2: Send, S: Send> Checkpointable for FollowedByOp<P, F1, F2, S> {
    fn state_id(&self) -> &'static str {
        "engine.followed_by"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.matches_emitted.encode(w);
        let mut keys: Vec<u32> = self.open.keys().copied().collect();
        keys.sort_unstable();
        w.put_u64(keys.len() as u64);
        for k in keys {
            k.encode(w);
            self.open[&k].encode(w);
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let matches_emitted = u64::decode(r)?;
        let n = r.get_count()?;
        let mut open = key_map_with_capacity(n);
        for _ in 0..n {
            let k = u32::decode(r)?;
            open.insert(k, Timestamp::decode(r)?);
        }
        self.matches_emitted = matches_emitted;
        self.open = open;
        Ok(())
    }
}

impl<P, F1, F2, S> Observer<P> for FollowedByOp<P, F1, F2, S>
where
    P: Payload,
    F1: FnMut(&P) -> bool + Send,
    F2: FnMut(&P) -> bool + Send,
    S: Observer<P>,
{
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let mut out = EventBatch::with_capacity(0);
        for i in 0..batch.len() {
            if !batch.is_visible(i) {
                continue;
            }
            let e = &batch.events()[i];
            // Check "second" before (re)opening so an event qualifying as
            // both (e.g. X == Y patterns) first completes an existing
            // instance and then opens a new one.
            if (self.is_second)(&e.payload) {
                if let Some(&t0) = self.open.get(&e.key) {
                    if t0 < e.sync_time && e.sync_time - t0 <= self.window {
                        let mut m = e.clone();
                        m.other_time = Timestamp(e.sync_time.ticks().saturating_add(1));
                        out.push(m);
                        self.matches_emitted += 1;
                        self.open.remove(&e.key);
                    }
                }
            }
            if (self.is_first)(&e.payload) {
                self.open.insert(e.key, e.sync_time);
            }
        }
        if !out.is_empty() {
            self.next.on_batch(out);
        }
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        // GC: instances opened more than `window` before the watermark can
        // never complete.
        let horizon = t.saturating_sub(self.window);
        self.open.retain(|_, &mut t0| t0 >= horizon);
        self.next.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        self.open.clear();
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

    /// payload = ad id clicked.
    fn click(t: i64, user: u32, ad: u32) -> Event<u32> {
        Event::keyed(Timestamp::new(t), user, ad)
    }

    const X: u32 = 1;
    const Y: u32 = 2;

    fn op(
        window: i64,
        sink: crate::observer::CollectorSink<u32>,
    ) -> FollowedByOp<
        u32,
        impl FnMut(&u32) -> bool,
        impl FnMut(&u32) -> bool,
        crate::observer::CollectorSink<u32>,
    > {
        FollowedByOp::new(
            |p: &u32| *p == X,
            |p: &u32| *p == Y,
            TickDuration::ticks(window),
            sink,
        )
    }

    #[test]
    fn matches_x_followed_by_y_within_window() {
        let (out, sink) = Output::<u32>::new();
        let mut p = op(60, sink);
        p.on_batch([click(0, 7, X), click(30, 7, Y)].into_iter().collect());
        p.on_completed();
        assert_eq!(out.event_count(), 1);
        let m = &out.events()[0];
        assert_eq!(m.key, 7);
        assert_eq!(m.sync_time, Timestamp::new(30));
        assert_eq!(p.matches_emitted(), 1);
    }

    #[test]
    fn no_match_outside_window_or_wrong_order() {
        let (out, sink) = Output::<u32>::new();
        let mut p = op(60, sink);
        p.on_batch(
            [
                click(0, 1, X),
                click(100, 1, Y), // too late for user 1
                click(0, 2, Y),
                click(10, 2, X), // wrong order for user 2
            ]
            .into_iter()
            .collect(),
        );
        p.on_completed();
        assert_eq!(out.event_count(), 0);
    }

    #[test]
    fn keys_are_independent() {
        let (out, sink) = Output::<u32>::new();
        let mut p = op(60, sink);
        p.on_batch(
            [click(0, 1, X), click(10, 2, Y), click(20, 1, Y)]
                .into_iter()
                .collect(),
        );
        p.on_completed();
        assert_eq!(out.event_count(), 1);
        assert_eq!(out.events()[0].key, 1);
    }

    #[test]
    fn second_x_resets_the_instance() {
        let (out, sink) = Output::<u32>::new();
        let mut p = op(60, sink);
        // X at 0, X at 50, Y at 100: only the second X is within window.
        p.on_batch(
            [click(0, 1, X), click(50, 1, X), click(100, 1, Y)]
                .into_iter()
                .collect(),
        );
        p.on_completed();
        assert_eq!(out.event_count(), 1);
    }

    #[test]
    fn match_consumes_the_first_event() {
        let (out, sink) = Output::<u32>::new();
        let mut p = op(60, sink);
        // One X, two Ys: only one match.
        p.on_batch(
            [click(0, 1, X), click(10, 1, Y), click(20, 1, Y)]
                .into_iter()
                .collect(),
        );
        p.on_completed();
        assert_eq!(out.event_count(), 1);
    }

    #[test]
    fn punctuation_gcs_stale_instances() {
        let (out, sink) = Output::<u32>::new();
        let mut p = op(60, sink);
        p.on_batch([click(0, 1, X)].into_iter().collect());
        assert_eq!(p.open.len(), 1);
        p.on_punctuation(Timestamp::new(200));
        assert_eq!(p.open.len(), 0, "instance beyond window collected");
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(200)));
    }

    #[test]
    fn same_predicate_pattern_x_then_x() {
        let (out, sink) = Output::<u32>::new();
        let mut p = FollowedByOp::new(
            |p: &u32| *p == X,
            |p: &u32| *p == X,
            TickDuration::ticks(60),
            sink,
        );
        p.on_batch(
            [click(0, 1, X), click(10, 1, X), click(20, 1, X)]
                .into_iter()
                .collect(),
        );
        p.on_completed();
        // 0→10 matches (consuming 0), 10 reopens, 10→20 matches.
        assert_eq!(out.event_count(), 2);
    }
}
