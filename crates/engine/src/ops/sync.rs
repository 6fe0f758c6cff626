//! The synchronizer behind every two-input stage.
//!
//! The paper's union "merges and synchronizes two sorted streams into one
//! sorted stream (and thus is a blocking operator)" (§V-A), and the
//! temporal join runs the same synchronization. A side can release an
//! event only once the *other* side proves it will never produce an
//! earlier one — by its punctuation watermark, its own ordered event flow
//! or its completion. Until then the event waits on its side, charged to
//! the stage's [`MemoryMeter`].
//!
//! The core here owns that once: both sides' waiting events and progress,
//! the drain in global `sync_time` order (ties from the left), the joint
//! watermark, and the stage's one terminal message — completion, or the
//! first error. A punctuation below its side's watermark is that error,
//! [`StreamError::PunctuationRegressed`]. What a stage does with each event
//! taken in that order is its [`Merge`]: the union forwards it, the join
//! probes the other side's relation and inserts into its own.

use crate::checkpoint::Checkpointable;
use crate::lock;
use crate::observer::Observer;
use impatience_core::{
    Event, EventBatch, MemoryMeter, Payload, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, StreamError, Timestamp,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One input's waiting events and progress.
struct Side<P> {
    buf: VecDeque<Event<P>>,
    /// Punctuation watermark announced by this side.
    wm: Timestamp,
    /// Sync time of the most recent event seen (ordered input ⇒ future
    /// events are `>=` this).
    last_seen: Timestamp,
    done: bool,
    /// Bytes currently charged for `buf`.
    bytes: usize,
}

impl<P: Payload> Side<P> {
    fn new() -> Self {
        Side {
            buf: VecDeque::new(),
            wm: Timestamp::MIN,
            last_seen: Timestamp::MIN,
            done: false,
            bytes: 0,
        }
    }

    /// Largest `t` such that this side will never produce a future event
    /// with `sync_time < t`: future events are `> wm` and `>= last_seen`.
    fn floor(&self) -> Timestamp {
        if self.done {
            Timestamp::MAX
        } else {
            self.wm.max(self.last_seen)
        }
    }

    /// Punctuation-only progress bound (events do not retract punctuation).
    fn punct_floor(&self) -> Timestamp {
        if self.done {
            Timestamp::MAX
        } else {
            self.wm
        }
    }

    fn push(&mut self, batch: &EventBatch<P>, meter: &MemoryMeter) {
        for e in batch.iter_visible() {
            debug_assert!(
                e.sync_time >= self.last_seen,
                "two-input stage input regressed: {:?} < {:?}",
                e.sync_time,
                self.last_seen
            );
            self.last_seen = e.sync_time;
            let b = e.state_bytes();
            self.bytes += b;
            meter.charge(b);
            self.buf.push_back(e.clone());
        }
    }

    fn pop(&mut self, meter: &MemoryMeter) -> Event<P> {
        let e = self.buf.pop_front().expect("pop on an empty side");
        let b = e.state_bytes();
        self.bytes -= b;
        meter.release(b);
        e
    }

    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.buf.len() as u64);
        for e in &self.buf {
            e.encode(w);
        }
        self.wm.encode(w);
        self.last_seen.encode(w);
        self.done.encode(w);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_count()?;
        let mut buf = VecDeque::with_capacity(n);
        let mut bytes = 0usize;
        for _ in 0..n {
            let e = Event::<P>::decode(r)?;
            bytes += e.state_bytes();
            buf.push_back(e);
        }
        Ok(Side {
            buf,
            wm: Timestamp::decode(r)?,
            last_seen: Timestamp::decode(r)?,
            done: bool::decode(r)?,
            bytes,
        })
    }
}

/// The core's own progress, which a [`Merge`] lays out in its frame.
#[derive(Clone, Copy)]
pub struct Progress {
    /// Highest punctuation forwarded.
    pub out_wm: Timestamp,
    /// Completion forwarded.
    pub completed: bool,
    /// High water of the bytes waiting on both sides. Only the union's
    /// frame holds it; a join restores it as 0.
    pub peak_bytes: usize,
}

/// What a two-input stage does with each event the core takes, in global
/// `sync_time` order, and how it lays out its checkpoint frame.
pub trait Merge<L, R>: Send + 'static {
    /// The stage's output payload.
    type Out: Payload;
    /// The frame's state id.
    const STATE_ID: &'static str;
    /// Takes the next event, from the left input.
    fn left(&mut self, e: Event<L>, out: &mut Vec<Event<Self::Out>>, meter: &MemoryMeter);
    /// Takes the next event, from the right input.
    fn right(&mut self, e: Event<R>, out: &mut Vec<Event<Self::Out>>, meter: &MemoryMeter);
    /// The joint watermark passed `horizon` (`Timestamp::MAX` at
    /// completion): no future event from either side is at or below it.
    fn expire(&mut self, horizon: Timestamp, meter: &MemoryMeter);
    /// Bytes the merge's own state holds on the meter.
    fn bytes(&self) -> usize;
    /// Writes what follows the two sides in the frame: the merge's state
    /// and the core's progress, in the order the stage's format fixed.
    fn encode(&self, progress: Progress, w: &mut SnapshotWriter);
    /// Reads what [`Merge::encode`] wrote. On error the merge is unchanged.
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<Progress, SnapshotError>;
}

struct Core<L: Payload, R: Payload, M: Merge<L, R>> {
    left: Side<L>,
    right: Side<R>,
    merge: M,
    sink: Box<dyn Observer<M::Out>>,
    meter: MemoryMeter,
    progress: Progress,
    failed: bool,
}

impl<L: Payload, R: Payload, M: Merge<L, R>> Core<L, R, M> {
    fn waiting_bytes(&self) -> usize {
        self.left.bytes + self.right.bytes
    }

    /// Notes the waiting high water after a batch arrived and drains.
    fn received(&mut self) {
        self.progress.peak_bytes = self.progress.peak_bytes.max(self.waiting_bytes());
        self.drain();
    }

    /// Hands the merge every event provably next, in order.
    fn drain(&mut self) {
        let mut out = Vec::new();
        loop {
            let take_left = match (self.left.buf.front(), self.right.buf.front()) {
                (Some(l), Some(r)) => l.sync_time <= r.sync_time,
                (Some(l), None) if l.sync_time <= self.right.floor() => true,
                (None, Some(r)) if r.sync_time <= self.left.floor() => false,
                _ => break,
            };
            if take_left {
                let e = self.left.pop(&self.meter);
                self.merge.left(e, &mut out, &self.meter);
            } else {
                let e = self.right.pop(&self.meter);
                self.merge.right(e, &mut out, &self.meter);
            }
        }
        if !out.is_empty() {
            self.sink.on_batch(EventBatch::from_events(out));
        }
    }

    /// Forwards the joint watermark if it advanced, after the merge
    /// expired what it passed.
    fn advance_punctuation(&mut self) {
        let p = self.left.punct_floor().min(self.right.punct_floor());
        if p > self.progress.out_wm && p != Timestamp::MAX {
            self.progress.out_wm = p;
            self.merge.expire(p, &self.meter);
            self.sink.on_punctuation(p);
        }
    }

    fn punctuate(&mut self, left: bool, t: Timestamp) {
        if self.failed {
            return;
        }
        let wm = if left {
            &mut self.left.wm
        } else {
            &mut self.right.wm
        };
        if t < *wm {
            let previous = *wm;
            return self.fail(StreamError::PunctuationRegressed {
                previous,
                attempted: t,
            });
        }
        *wm = t;
        self.drain();
        self.advance_punctuation();
    }

    fn complete(&mut self, left: bool) {
        if self.failed {
            return;
        }
        if left {
            self.left.done = true;
        } else {
            self.right.done = true;
        }
        self.drain();
        self.advance_punctuation();
        if self.left.done && self.right.done && !self.progress.completed {
            self.progress.completed = true;
            debug_assert!(self.left.buf.is_empty() && self.right.buf.is_empty());
            self.merge.expire(Timestamp::MAX, &self.meter);
            self.sink.on_completed();
        }
    }

    fn fail(&mut self, err: StreamError) {
        if self.failed || self.progress.completed {
            return;
        }
        self.failed = true;
        self.sink.on_error(err);
    }
}

/// One input endpoint of a two-input stage: `LEFT` takes `L` events, the
/// other `R` events. Both endpoints share one core.
pub struct SyncInput<L: Payload, R: Payload, M: Merge<L, R>, const LEFT: bool> {
    core: Arc<Mutex<Core<L, R, M>>>,
}

impl<L: Payload, R: Payload, M: Merge<L, R>, const LEFT: bool> Clone for SyncInput<L, R, M, LEFT> {
    fn clone(&self) -> Self {
        SyncInput {
            core: self.core.clone(),
        }
    }
}

impl<L: Payload, R: Payload, M: Merge<L, R>> Observer<L> for SyncInput<L, R, M, true> {
    fn on_batch(&mut self, batch: EventBatch<L>) {
        let mut core = lock(&self.core);
        let core = &mut *core;
        if !core.failed {
            core.left.push(&batch, &core.meter);
            core.received();
        }
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        lock(&self.core).punctuate(true, t);
    }
    fn on_completed(&mut self) {
        lock(&self.core).complete(true);
    }
    fn on_error(&mut self, err: StreamError) {
        lock(&self.core).fail(err);
    }
}

impl<L: Payload, R: Payload, M: Merge<L, R>> Observer<R> for SyncInput<L, R, M, false> {
    fn on_batch(&mut self, batch: EventBatch<R>) {
        let mut core = lock(&self.core);
        let core = &mut *core;
        if !core.failed {
            core.right.push(&batch, &core.meter);
            core.received();
        }
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        lock(&self.core).punctuate(false, t);
    }
    fn on_completed(&mut self) {
        lock(&self.core).complete(false);
    }
    fn on_error(&mut self, err: StreamError) {
        lock(&self.core).fail(err);
    }
}

/// The left endpoint snapshots the whole shared core: both sides' waiting
/// events and progress, then whatever the merge lays out (its state and
/// the core's [`Progress`]). One registration covers both endpoints.
impl<L: Payload, R: Payload, M: Merge<L, R>> Checkpointable for SyncInput<L, R, M, true> {
    fn state_id(&self) -> &'static str {
        M::STATE_ID
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        let core = lock(&self.core);
        core.left.encode(w);
        core.right.encode(w);
        core.merge.encode(core.progress, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let left = Side::<L>::decode(r)?;
        let right = Side::<R>::decode(r)?;
        let mut core = lock(&self.core);
        let old = core.waiting_bytes() + core.merge.bytes();
        core.progress = core.merge.restore(r)?;
        core.left = left;
        core.right = right;
        let new = core.waiting_bytes() + core.merge.bytes();
        core.meter.recharge(old, new);
        Ok(())
    }
}

/// Builds a two-input stage around `merge`: returns the left and right
/// endpoints. Output goes to `sink`; waiting events and whatever the
/// merge holds are charged to `meter`.
pub(crate) fn sync<L: Payload, R: Payload, M: Merge<L, R>>(
    merge: M,
    sink: Box<dyn Observer<M::Out>>,
    meter: MemoryMeter,
) -> (SyncInput<L, R, M, true>, SyncInput<L, R, M, false>) {
    let core = Arc::new(Mutex::new(Core {
        left: Side::new(),
        right: Side::new(),
        merge,
        sink,
        meter,
        progress: Progress {
            out_wm: Timestamp::MIN,
            completed: false,
            peak_bytes: 0,
        },
        failed: false,
    }));
    (SyncInput { core: core.clone() }, SyncInput { core })
}
