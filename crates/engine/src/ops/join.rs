//! Temporal equi-join.
//!
//! Join is the paper's canonical *order-sensitive* operator (§IV-A): it can
//! only run above the sorting operator, on in-order streams — which is
//! exactly why the Impatience architecture keeps it unmodified and feeds
//! it sorted data. This is a Trill-style symmetric interval join: events
//! from the two sides match when their grouping keys are equal and their
//! validity intervals `[sync, other)` overlap; the output event carries
//! the intersection of the intervals and a payload combined from both.
//!
//! Implementation: like [`super::union`], the two ordered inputs are
//! synchronized and processed in global `sync_time` order. Each processed
//! event probes the opposite side's per-key state for overlapping live
//! intervals (emitting matches timestamped at the later `sync_time`, which
//! keeps the output ordered), then joins its own side's state. State is
//! garbage-collected as the joint watermark passes interval ends.

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use crate::ops::keymap::{key_map_with_capacity, KeyMap};
use impatience_core::{
    Event, EventBatch, MemoryMeter, Payload, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, StreamError, Timestamp,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-tolerant lock on the shared join core (see `ops::union`).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One side's relation state: per key, the live intervals.
struct SideState<P> {
    by_key: KeyMap<Vec<Event<P>>>,
    bytes: usize,
}

impl<P: Payload> SideState<P> {
    fn new() -> Self {
        SideState {
            by_key: KeyMap::default(),
            bytes: 0,
        }
    }

    fn insert(&mut self, e: Event<P>, meter: &MemoryMeter) {
        let b = e.state_bytes();
        self.bytes += b;
        meter.charge(b);
        self.by_key.entry(e.key).or_default().push(e);
    }

    /// Drops intervals that ended at or before `horizon`.
    fn gc(&mut self, horizon: Timestamp, meter: &MemoryMeter) {
        let bytes = &mut self.bytes;
        self.by_key.retain(|_, v| {
            v.retain(|e| {
                let keep = e.other_time > horizon;
                if !keep {
                    let b = e.state_bytes();
                    *bytes -= b;
                    meter.release(b);
                }
                keep
            });
            !v.is_empty()
        });
    }
}

struct PendingSide<P> {
    buf: VecDeque<Event<P>>,
    wm: Timestamp,
    last_seen: Timestamp,
    done: bool,
}

impl<P: Payload> PendingSide<P> {
    fn new() -> Self {
        PendingSide {
            buf: VecDeque::new(),
            wm: Timestamp::MIN,
            last_seen: Timestamp::MIN,
            done: false,
        }
    }

    fn floor(&self) -> Timestamp {
        if self.done {
            Timestamp::MAX
        } else {
            self.wm.max(self.last_seen)
        }
    }

    fn punct_floor(&self) -> Timestamp {
        if self.done {
            Timestamp::MAX
        } else {
            self.wm
        }
    }
}

/// The user's combining closure (code, not state — never checkpointed).
/// `Send` so the whole join core can live on a sharded worker thread.
type Combine<L, R, Out> = Box<dyn FnMut(&L, &R) -> Out + Send>;

struct JoinCore<L: Payload, R: Payload, Out: Payload> {
    left_pending: PendingSide<L>,
    right_pending: PendingSide<R>,
    left_state: SideState<L>,
    right_state: SideState<R>,
    combine: Combine<L, R, Out>,
    sink: Box<dyn Observer<Out>>,
    meter: MemoryMeter,
    out_wm: Timestamp,
    completed: bool,
    failed: bool,
}

impl<L: Payload, R: Payload, Out: Payload> JoinCore<L, R, Out> {
    /// Processes buffered events in global sync order as far as progress
    /// allows.
    fn drain(&mut self) {
        let mut out = EventBatch::with_capacity(0);
        loop {
            let lf = self.left_pending.buf.front().map(|e| e.sync_time);
            let rf = self.right_pending.buf.front().map(|e| e.sync_time);
            let take_left = match (lf, rf) {
                (Some(l), Some(r)) => l <= r,
                (Some(l), None) => {
                    if l <= self.right_pending.floor() {
                        true
                    } else {
                        break;
                    }
                }
                (None, Some(r)) => {
                    if r <= self.left_pending.floor() {
                        false
                    } else {
                        break;
                    }
                }
                (None, None) => break,
            };
            if take_left {
                let e = self.left_pending.buf.pop_front().unwrap();
                // Probe right state.
                if let Some(cands) = self.right_state.by_key.get(&e.key) {
                    for r in cands {
                        if r.other_time > e.sync_time && e.other_time > r.sync_time {
                            out.push(Event {
                                sync_time: e.sync_time.max(r.sync_time),
                                other_time: e.other_time.min(r.other_time),
                                key: e.key,
                                hash: e.hash,
                                payload: (self.combine)(&e.payload, &r.payload),
                            });
                        }
                    }
                }
                self.left_state.insert(e, &self.meter);
            } else {
                let e = self.right_pending.buf.pop_front().unwrap();
                if let Some(cands) = self.left_state.by_key.get(&e.key) {
                    for l in cands {
                        if l.other_time > e.sync_time && e.other_time > l.sync_time {
                            out.push(Event {
                                sync_time: e.sync_time.max(l.sync_time),
                                other_time: e.other_time.min(l.other_time),
                                key: e.key,
                                hash: e.hash,
                                payload: (self.combine)(&l.payload, &e.payload),
                            });
                        }
                    }
                }
                self.right_state.insert(e, &self.meter);
            }
        }
        if !out.is_empty() {
            self.sink.on_batch(out);
        }
    }

    fn advance_punctuation(&mut self) {
        let p = self
            .left_pending
            .punct_floor()
            .min(self.right_pending.punct_floor());
        if p > self.out_wm && p != Timestamp::MAX {
            self.out_wm = p;
            // State whose interval ended at or before the watermark can
            // never match future events (their sync > watermark).
            self.left_state.gc(p, &self.meter);
            self.right_state.gc(p, &self.meter);
            self.sink.on_punctuation(p);
        }
    }

    fn fail(&mut self, err: StreamError) {
        if self.failed || self.completed {
            return;
        }
        self.failed = true;
        self.sink.on_error(err);
    }

    fn maybe_complete(&mut self) {
        if self.left_pending.done && self.right_pending.done && !self.completed && !self.failed {
            self.completed = true;
            self.left_state.gc(Timestamp::MAX, &self.meter);
            self.right_state.gc(Timestamp::MAX, &self.meter);
            self.sink.on_completed();
        }
    }
}

fn encode_pending<P: Payload>(side: &PendingSide<P>, w: &mut SnapshotWriter) {
    w.put_u64(side.buf.len() as u64);
    for e in &side.buf {
        e.encode(w);
    }
    side.wm.encode(w);
    side.last_seen.encode(w);
    side.done.encode(w);
}

fn decode_pending<P: Payload>(r: &mut SnapshotReader<'_>) -> Result<PendingSide<P>, SnapshotError> {
    let n = r.get_count()?;
    let mut buf = VecDeque::with_capacity(n);
    for _ in 0..n {
        buf.push_back(Event::<P>::decode(r)?);
    }
    Ok(PendingSide {
        buf,
        wm: Timestamp::decode(r)?,
        last_seen: Timestamp::decode(r)?,
        done: bool::decode(r)?,
    })
}

fn encode_relation<P: Payload>(state: &SideState<P>, w: &mut SnapshotWriter) {
    let mut keys: Vec<u32> = state.by_key.keys().copied().collect();
    keys.sort_unstable();
    w.put_u64(keys.len() as u64);
    for k in keys {
        k.encode(w);
        state.by_key[&k].encode(w);
    }
}

fn decode_relation<P: Payload>(r: &mut SnapshotReader<'_>) -> Result<SideState<P>, SnapshotError> {
    let n = r.get_count()?;
    let mut by_key = key_map_with_capacity(n);
    let mut bytes = 0usize;
    for _ in 0..n {
        let k = u32::decode(r)?;
        let v = Vec::<Event<P>>::decode(r)?;
        bytes += v.iter().map(Event::state_bytes).sum::<usize>();
        if by_key.insert(k, v).is_some() {
            return Err(SnapshotError::corrupt(format!(
                "join snapshot repeats key {k}"
            )));
        }
    }
    Ok(SideState { by_key, bytes })
}

/// The left input handle snapshots the whole shared join core: both
/// pending buffers, both relation states, and the output watermark. The
/// `combine` closure is code, not state, so it is not part of the frame.
impl<L: Payload, R: Payload, Out: Payload> Checkpointable for JoinInput<L, R, Out, true> {
    fn state_id(&self) -> &'static str {
        "engine.join"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        let core = lock(&self.core);
        encode_pending(&core.left_pending, w);
        encode_pending(&core.right_pending, w);
        encode_relation(&core.left_state, w);
        encode_relation(&core.right_state, w);
        core.out_wm.encode(w);
        core.completed.encode(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let left_pending = decode_pending::<L>(r)?;
        let right_pending = decode_pending::<R>(r)?;
        let left_state = decode_relation::<L>(r)?;
        let right_state = decode_relation::<R>(r)?;
        let out_wm = Timestamp::decode(r)?;
        let completed = bool::decode(r)?;
        let mut core = lock(&self.core);
        let old = core.left_state.bytes + core.right_state.bytes;
        core.meter
            .recharge(old, left_state.bytes + right_state.bytes);
        core.left_pending = left_pending;
        core.right_pending = right_pending;
        core.left_state = left_state;
        core.right_state = right_state;
        core.out_wm = out_wm;
        core.completed = completed;
        Ok(())
    }
}

/// One input endpoint of a temporal join.
pub struct JoinInput<L: Payload, R: Payload, Out: Payload, const LEFT: bool> {
    core: Arc<Mutex<JoinCore<L, R, Out>>>,
}

impl<L: Payload, R: Payload, Out: Payload, const LEFT: bool> Clone for JoinInput<L, R, Out, LEFT> {
    fn clone(&self) -> Self {
        JoinInput {
            core: self.core.clone(),
        }
    }
}

impl<L: Payload, R: Payload, Out: Payload> Observer<L> for JoinInput<L, R, Out, true> {
    fn on_batch(&mut self, batch: EventBatch<L>) {
        let mut core = lock(&self.core);
        if core.failed {
            return;
        }
        for e in batch.iter_visible() {
            debug_assert!(e.sync_time >= core.left_pending.last_seen);
            core.left_pending.last_seen = e.sync_time;
            core.left_pending.buf.push_back(e.clone());
        }
        core.drain();
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        let mut core = lock(&self.core);
        if core.failed {
            return;
        }
        core.left_pending.wm = core.left_pending.wm.max(t);
        core.drain();
        core.advance_punctuation();
    }
    fn on_completed(&mut self) {
        let mut core = lock(&self.core);
        if core.failed {
            return;
        }
        core.left_pending.done = true;
        core.drain();
        core.advance_punctuation();
        core.maybe_complete();
    }

    fn on_error(&mut self, err: StreamError) {
        lock(&self.core).fail(err);
    }
}

impl<L: Payload, R: Payload, Out: Payload> Observer<R> for JoinInput<L, R, Out, false> {
    fn on_batch(&mut self, batch: EventBatch<R>) {
        let mut core = lock(&self.core);
        if core.failed {
            return;
        }
        for e in batch.iter_visible() {
            debug_assert!(e.sync_time >= core.right_pending.last_seen);
            core.right_pending.last_seen = e.sync_time;
            core.right_pending.buf.push_back(e.clone());
        }
        core.drain();
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        let mut core = lock(&self.core);
        if core.failed {
            return;
        }
        core.right_pending.wm = core.right_pending.wm.max(t);
        core.drain();
        core.advance_punctuation();
    }
    fn on_completed(&mut self) {
        let mut core = lock(&self.core);
        if core.failed {
            return;
        }
        core.right_pending.done = true;
        core.drain();
        core.advance_punctuation();
        core.maybe_complete();
    }

    fn on_error(&mut self, err: StreamError) {
        lock(&self.core).fail(err);
    }
}

/// Builds a temporal equi-join: returns the left and right input
/// observers. Matches go to `sink`; relation state is charged to `meter`.
pub fn temporal_join<L, R, Out>(
    combine: impl FnMut(&L, &R) -> Out + Send + 'static,
    sink: Box<dyn Observer<Out>>,
    meter: MemoryMeter,
) -> (JoinInput<L, R, Out, true>, JoinInput<L, R, Out, false>)
where
    L: Payload,
    R: Payload,
    Out: Payload,
{
    let core = Arc::new(Mutex::new(JoinCore {
        left_pending: PendingSide::new(),
        right_pending: PendingSide::new(),
        left_state: SideState::new(),
        right_state: SideState::new(),
        combine: Box::new(combine),
        sink,
        meter,
        out_wm: Timestamp::MIN,
        completed: false,
        failed: false,
    }));
    (JoinInput { core: core.clone() }, JoinInput { core })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Output;
    use impatience_core::validate_ordered_stream;

    fn iv(start: i64, end: i64, key: u32, p: u32) -> Event<u32> {
        Event::interval(Timestamp::new(start), Timestamp::new(end), key, p)
    }

    type JoinFixture = (
        Output<(u32, u32)>,
        JoinInput<u32, u32, (u32, u32), true>,
        JoinInput<u32, u32, (u32, u32), false>,
        MemoryMeter,
    );

    fn setup() -> JoinFixture {
        let (out, sink) = Output::new();
        let meter = MemoryMeter::new();
        let (l, r) = temporal_join(|a: &u32, b: &u32| (*a, *b), Box::new(sink), meter.clone());
        (out, l, r, meter)
    }

    #[test]
    fn joins_overlapping_intervals_on_same_key() {
        let (out, mut l, mut r, _) = setup();
        l.on_batch([iv(0, 10, 1, 100)].into_iter().collect());
        r.on_batch([iv(5, 15, 1, 200)].into_iter().collect());
        l.on_completed();
        r.on_completed();
        let evs = out.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].payload, (100, 200));
        assert_eq!(evs[0].sync_time, Timestamp::new(5));
        assert_eq!(evs[0].other_time, Timestamp::new(10));
        assert!(out.is_completed());
    }

    #[test]
    fn no_match_on_disjoint_intervals_or_keys() {
        let (out, mut l, mut r, _) = setup();
        l.on_batch([iv(0, 5, 1, 100), iv(0, 50, 2, 101)].into_iter().collect());
        r.on_batch(
            [iv(5, 15, 1, 200), iv(10, 20, 3, 201)]
                .into_iter()
                .collect(),
        );
        l.on_completed();
        r.on_completed();
        // [0,5) vs [5,15): touching, not overlapping. Keys 2/3 unmatched.
        assert_eq!(out.event_count(), 0);
    }

    #[test]
    fn output_is_ordered_under_interleaved_input() {
        let (out, mut l, mut r, _) = setup();
        for t in [0i64, 10, 20, 30] {
            l.on_batch([iv(t, t + 15, 1, t as u32)].into_iter().collect());
            l.on_punctuation(Timestamp::new(t));
            r.on_batch(
                [iv(t + 5, t + 12, 1, (t + 1000) as u32)]
                    .into_iter()
                    .collect(),
            );
            r.on_punctuation(Timestamp::new(t + 5));
        }
        l.on_completed();
        r.on_completed();
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        assert!(out.event_count() >= 4, "got {}", out.event_count());
    }

    #[test]
    fn both_directions_match() {
        // Right arrives first, then left.
        let (out, mut l, mut r, _) = setup();
        r.on_batch([iv(0, 100, 7, 1)].into_iter().collect());
        r.on_punctuation(Timestamp::new(0));
        l.on_batch([iv(50, 60, 7, 2)].into_iter().collect());
        l.on_completed();
        r.on_completed();
        let evs = out.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].payload, (2, 1), "combine(left, right) order kept");
        assert_eq!(evs[0].sync_time, Timestamp::new(50));
    }

    #[test]
    fn state_is_gced_by_watermark() {
        let (out, mut l, mut r, meter) = setup();
        l.on_batch([iv(0, 10, 1, 1)].into_iter().collect());
        r.on_punctuation(Timestamp::new(0));
        l.on_punctuation(Timestamp::new(0));
        assert!(meter.current() > 0, "interval is live");
        // Both watermarks pass the interval end.
        l.on_punctuation(Timestamp::new(50));
        r.on_punctuation(Timestamp::new(50));
        assert_eq!(meter.current(), 0, "expired interval collected");
        l.on_completed();
        r.on_completed();
        let _ = out;
    }

    #[test]
    fn many_to_many_matches() {
        let (out, mut l, mut r, _) = setup();
        l.on_batch([iv(0, 100, 1, 1), iv(0, 100, 1, 2)].into_iter().collect());
        r.on_batch(
            [iv(0, 100, 1, 10), iv(50, 100, 1, 20)]
                .into_iter()
                .collect(),
        );
        l.on_completed();
        r.on_completed();
        assert_eq!(out.event_count(), 4, "2x2 cross product per key");
    }

    #[test]
    fn punctuation_forwarding_is_joint_minimum() {
        let (out, mut l, mut r, _) = setup();
        l.on_punctuation(Timestamp::new(30));
        assert_eq!(out.last_punctuation(), None);
        r.on_punctuation(Timestamp::new(10));
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(10)));
        l.on_completed();
        r.on_completed();
        assert!(out.is_completed());
    }
}
