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
//! Implementation: the two ordered inputs are synchronized like a
//! [`super::union()`]'s ([`super::sync`]) and taken in global `sync_time`
//! order. What the join adds is the merge: each event probes the opposite
//! side's per-key relation for overlapping live intervals (emitting
//! matches timestamped at the later `sync_time`, which keeps the output
//! ordered), then joins its own side's relation. A relation drops the
//! intervals the joint watermark passed.

use super::sync::{sync, Merge, Progress, SyncInput};
use crate::observer::Observer;
use crate::ops::keymap::{key_map_with_capacity, KeyMap};
use impatience_core::{
    Event, MemoryMeter, Payload, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec,
    Timestamp,
};

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

    fn encode(&self, w: &mut SnapshotWriter) {
        let mut keys: Vec<u32> = self.by_key.keys().copied().collect();
        keys.sort_unstable();
        w.put_u64(keys.len() as u64);
        for k in keys {
            k.encode(w);
            self.by_key[&k].encode(w);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
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
}

/// Appends a match for every interval of `others` under `e`'s key that
/// overlaps `e`, stamped with the intersection and `e`'s key and hash.
fn probe<P, Q, Out>(
    e: &Event<P>,
    others: &SideState<Q>,
    out: &mut Vec<Event<Out>>,
    mut pay: impl FnMut(&P, &Q) -> Out,
) {
    for o in others.by_key.get(&e.key).into_iter().flatten() {
        if o.other_time > e.sync_time && e.other_time > o.sync_time {
            out.push(Event {
                sync_time: e.sync_time.max(o.sync_time),
                other_time: e.other_time.min(o.other_time),
                key: e.key,
                hash: e.hash,
                payload: pay(&e.payload, &o.payload),
            });
        }
    }
}

/// The user's combining closure (code, not state — never checkpointed).
/// `Send` so the whole join core can live on a sharded worker thread.
type Combine<L, R, Out> = Box<dyn FnMut(&L, &R) -> Out + Send>;

/// The join's merge: both sides' relations and the combining closure.
pub struct Relations<L, R, Out> {
    left: SideState<L>,
    right: SideState<R>,
    combine: Combine<L, R, Out>,
}

impl<L: Payload, R: Payload, Out: Payload> Merge<L, R> for Relations<L, R, Out> {
    type Out = Out;
    const STATE_ID: &'static str = "engine.join";

    fn left(&mut self, e: Event<L>, out: &mut Vec<Event<Out>>, meter: &MemoryMeter) {
        probe(&e, &self.right, out, |l, r| (self.combine)(l, r));
        self.left.insert(e, meter);
    }

    fn right(&mut self, e: Event<R>, out: &mut Vec<Event<Out>>, meter: &MemoryMeter) {
        probe(&e, &self.left, out, |r, l| (self.combine)(l, r));
        self.right.insert(e, meter);
    }

    /// An interval that ended at or before the watermark can never match
    /// a future event (its sync is above the watermark).
    fn expire(&mut self, horizon: Timestamp, meter: &MemoryMeter) {
        self.left.gc(horizon, meter);
        self.right.gc(horizon, meter);
    }

    fn bytes(&self) -> usize {
        self.left.bytes + self.right.bytes
    }

    /// Both relations, `out_wm`, then `completed`. The `combine` closure
    /// is code, not state, so it is not part of the frame.
    fn encode(&self, progress: Progress, w: &mut SnapshotWriter) {
        self.left.encode(w);
        self.right.encode(w);
        progress.out_wm.encode(w);
        progress.completed.encode(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<Progress, SnapshotError> {
        let left = SideState::decode(r)?;
        let right = SideState::decode(r)?;
        let progress = Progress {
            out_wm: Timestamp::decode(r)?,
            completed: bool::decode(r)?,
            peak_bytes: 0,
        };
        self.left = left;
        self.right = right;
        Ok(progress)
    }
}

/// One input endpoint of a temporal join; the left one (`LEFT = true`) is
/// the join's checkpoint participant.
pub type JoinInput<L, R, Out, const LEFT: bool> = SyncInput<L, R, Relations<L, R, Out>, LEFT>;

/// Builds a temporal equi-join: returns the left and right input
/// observers. Matches go to `sink`. Events waiting for the other side and
/// both relations are charged to `meter`.
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
    let relations = Relations {
        left: SideState::new(),
        right: SideState::new(),
        combine: Box::new(combine),
    };
    sync(relations, sink, meter)
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
