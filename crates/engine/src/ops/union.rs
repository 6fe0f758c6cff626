//! Union: merge two ordered streams into one ordered stream.
//!
//! The paper's union "merges and synchronizes two sorted streams into one
//! sorted stream (and thus is a blocking operator)" (§V-A). A side can only
//! release an event once the *other* side proves it will never produce an
//! earlier one — via its punctuation watermark or its own ordered event
//! flow. Until then events are buffered, and that buffering is exactly the
//! memory cost Fig 10(b)/(d) measure: in the basic framework the
//! higher-latency union holds raw events for up to the latency gap, while
//! the advanced framework buffers only tiny PIQ partials.
//!
//! Every buffered byte is charged to a [`MemoryMeter`].

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use impatience_core::{
    Event, EventBatch, MemoryMeter, Payload, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, StreamError, Timestamp,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// The core is never locked across user code (the sink is called while the
/// lock is held, but a sink panic is caught by the hardened layer before it
/// unwinds through here in guarded pipelines) — recover from poison rather
/// than cascading.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Side<P> {
    buf: VecDeque<Event<P>>,
    /// Punctuation watermark announced by this side.
    wm: Timestamp,
    /// Sync time of the most recent event seen (ordered input ⇒ future
    /// events are `>=` this).
    last_seen: Timestamp,
    done: bool,
    /// Bytes currently charged for this side's buffer.
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

    /// Largest timestamp `t` such that this side will never produce a
    /// future event with `sync_time < t`... conservatively: future events
    /// are `> wm` and `>= last_seen`.
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

    fn push(&mut self, e: Event<P>, meter: &MemoryMeter) {
        debug_assert!(
            e.sync_time >= self.last_seen,
            "union input regressed: {:?} < {:?}",
            e.sync_time,
            self.last_seen
        );
        self.last_seen = e.sync_time;
        let b = e.state_bytes();
        self.bytes += b;
        meter.charge(b);
        self.buf.push_back(e);
    }

    fn pop(&mut self, meter: &MemoryMeter) -> Event<P> {
        let e = self.buf.pop_front().expect("pop on empty union side");
        let b = e.state_bytes();
        self.bytes -= b;
        meter.release(b);
        e
    }
}

struct UnionCore<P: Payload> {
    left: Side<P>,
    right: Side<P>,
    sink: Box<dyn Observer<P>>,
    meter: MemoryMeter,
    /// Highest punctuation already forwarded.
    out_wm: Timestamp,
    completed: bool,
    failed: bool,
    /// High-water mark of total buffered bytes (diagnostics).
    peak_bytes: usize,
}

impl<P: Payload> UnionCore<P> {
    fn note_peak(&mut self) {
        let cur = self.left.bytes + self.right.bytes;
        if cur > self.peak_bytes {
            self.peak_bytes = cur;
        }
    }

    /// Merges out every event provably safe to release, in order.
    fn drain(&mut self) {
        let mut out: Vec<Event<P>> = Vec::new();
        loop {
            let lf = self.left.buf.front().map(|e| e.sync_time);
            let rf = self.right.buf.front().map(|e| e.sync_time);
            match (lf, rf) {
                (Some(l), Some(r)) => {
                    // Both present: the smaller is globally next (ties left).
                    if r < l {
                        out.push(self.right.pop(&self.meter));
                    } else {
                        out.push(self.left.pop(&self.meter));
                    }
                }
                (Some(l), None) => {
                    if l <= self.right.floor() {
                        out.push(self.left.pop(&self.meter));
                    } else {
                        break;
                    }
                }
                (None, Some(r)) => {
                    if r <= self.left.floor() {
                        out.push(self.right.pop(&self.meter));
                    } else {
                        break;
                    }
                }
                (None, None) => break,
            }
        }
        if !out.is_empty() {
            self.sink.on_batch(EventBatch::from_events(out));
        }
    }

    /// Forwards punctuation progress if the joint watermark advanced.
    fn advance_punctuation(&mut self) {
        let p = self.left.punct_floor().min(self.right.punct_floor());
        if p > self.out_wm && p != Timestamp::MAX {
            self.out_wm = p;
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
        if self.left.done && self.right.done && !self.completed && !self.failed {
            self.completed = true;
            debug_assert!(self.left.buf.is_empty() && self.right.buf.is_empty());
            self.sink.on_completed();
        }
    }
}

/// One input endpoint of a union.
pub struct UnionInput<P: Payload> {
    core: Arc<Mutex<UnionCore<P>>>,
    is_left: bool,
}

impl<P: Payload> Clone for UnionInput<P> {
    fn clone(&self) -> Self {
        UnionInput {
            core: self.core.clone(),
            is_left: self.is_left,
        }
    }
}

impl<P: Payload> Observer<P> for UnionInput<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let mut core = lock(&self.core);
        let core = &mut *core;
        if core.failed {
            return;
        }
        {
            let side = if self.is_left {
                &mut core.left
            } else {
                &mut core.right
            };
            for e in batch.iter_visible() {
                side.push(e.clone(), &core.meter);
            }
        }
        core.note_peak();
        core.drain();
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        let mut core = lock(&self.core);
        let core = &mut *core;
        if core.failed {
            return;
        }
        {
            let side = if self.is_left {
                &mut core.left
            } else {
                &mut core.right
            };
            debug_assert!(t >= side.wm);
            side.wm = t;
        }
        core.drain();
        core.advance_punctuation();
    }

    fn on_completed(&mut self) {
        let mut core = lock(&self.core);
        let core = &mut *core;
        if core.failed {
            return;
        }
        {
            let side = if self.is_left {
                &mut core.left
            } else {
                &mut core.right
            };
            side.done = true;
        }
        core.drain();
        core.advance_punctuation();
        core.maybe_complete();
    }

    fn on_error(&mut self, err: StreamError) {
        lock(&self.core).fail(err);
    }
}

/// Diagnostic handle onto a union's buffering behaviour.
#[derive(Clone)]
pub struct UnionProbe<P: Payload> {
    core: Arc<Mutex<UnionCore<P>>>,
}

fn encode_side<P: Payload>(side: &Side<P>, w: &mut SnapshotWriter) {
    w.put_u64(side.buf.len() as u64);
    for e in &side.buf {
        e.encode(w);
    }
    side.wm.encode(w);
    side.last_seen.encode(w);
    side.done.encode(w);
}

fn decode_side<P: Payload>(r: &mut SnapshotReader<'_>) -> Result<Side<P>, SnapshotError> {
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

/// The probe snapshots the whole shared union core — both synchronization
/// buffers, both sides' progress, and the forwarded watermark. One
/// registration covers the two input endpoints.
impl<P: Payload> Checkpointable for UnionProbe<P> {
    fn state_id(&self) -> &'static str {
        "engine.union"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        let c = lock(&self.core);
        encode_side(&c.left, w);
        encode_side(&c.right, w);
        c.out_wm.encode(w);
        c.completed.encode(w);
        w.put_u64(c.peak_bytes as u64);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let left = decode_side::<P>(r)?;
        let right = decode_side::<P>(r)?;
        let out_wm = Timestamp::decode(r)?;
        let completed = bool::decode(r)?;
        let peak_bytes = r.get_u64()? as usize;
        let mut c = lock(&self.core);
        let old = c.left.bytes + c.right.bytes;
        c.meter.recharge(old, left.bytes + right.bytes);
        c.left = left;
        c.right = right;
        c.out_wm = out_wm;
        c.completed = completed;
        c.peak_bytes = peak_bytes;
        Ok(())
    }
}

impl<P: Payload> UnionProbe<P> {
    /// Peak bytes ever buffered by this union.
    pub fn peak_bytes(&self) -> usize {
        lock(&self.core).peak_bytes
    }

    /// Events currently buffered across both sides.
    pub fn buffered_events(&self) -> usize {
        let c = lock(&self.core);
        c.left.buf.len() + c.right.buf.len()
    }
}

/// Builds a union: returns the two input observers plus a probe.
///
/// Feed the left and right ordered streams into the endpoints; merged
/// ordered traffic flows into `sink`. Buffered state is charged to `meter`.
pub fn union<P: Payload>(
    sink: Box<dyn Observer<P>>,
    meter: MemoryMeter,
) -> (UnionInput<P>, UnionInput<P>, UnionProbe<P>) {
    let core = Arc::new(Mutex::new(UnionCore {
        left: Side::new(),
        right: Side::new(),
        sink,
        meter,
        out_wm: Timestamp::MIN,
        completed: false,
        failed: false,
        peak_bytes: 0,
    }));
    (
        UnionInput {
            core: core.clone(),
            is_left: true,
        },
        UnionInput {
            core: core.clone(),
            is_left: false,
        },
        UnionProbe { core },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Output;
    use impatience_core::validate_ordered_stream;

    fn ev(t: i64) -> Event<u32> {
        Event::point(Timestamp::new(t), t as u32)
    }

    fn batch(ts: &[i64]) -> EventBatch<u32> {
        ts.iter().map(|&t| ev(t)).collect()
    }

    #[test]
    fn merges_two_sorted_streams() {
        let (out, sink) = Output::<u32>::new();
        let meter = MemoryMeter::new();
        let (mut l, mut r, _probe) = union(Box::new(sink), meter);
        l.on_batch(batch(&[1, 3, 5]));
        r.on_batch(batch(&[2, 4, 6]));
        l.on_completed();
        r.on_completed();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![1, 2, 3, 4, 5, 6]);
        assert!(out.is_completed());
        assert!(validate_ordered_stream(&out.messages()).is_ok());
    }

    #[test]
    fn blocks_until_other_side_proves_progress() {
        let (out, sink) = Output::<u32>::new();
        let (mut l, mut r, probe) = union(Box::new(sink), MemoryMeter::new());
        l.on_batch(batch(&[10, 20]));
        assert_eq!(out.event_count(), 0, "right side silent: must buffer");
        assert_eq!(probe.buffered_events(), 2);
        r.on_punctuation(Timestamp::new(15));
        // Right will never produce anything <= 15: event 10 releases.
        assert_eq!(out.event_count(), 1);
        assert_eq!(probe.buffered_events(), 1);
        r.on_batch(batch(&[25]));
        // Right's own event at 25 proves nothing earlier will come: 20 and
        // then... 25 must wait for the left floor (left last_seen=20).
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10, 20]);
        l.on_completed();
        r.on_completed();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10, 20, 25]);
    }

    #[test]
    fn punctuation_is_joint_minimum() {
        let (out, sink) = Output::<u32>::new();
        let (mut l, mut r, _) = union::<u32>(Box::new(sink), MemoryMeter::new());
        l.on_punctuation(Timestamp::new(100));
        assert_eq!(out.last_punctuation(), None, "right not heard from");
        r.on_punctuation(Timestamp::new(40));
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(40)));
        r.on_punctuation(Timestamp::new(60));
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(60)));
        r.on_punctuation(Timestamp::new(300));
        assert_eq!(
            out.last_punctuation(),
            Some(Timestamp::new(100)),
            "left is now the laggard"
        );
    }

    #[test]
    fn memory_is_charged_and_released() {
        let meter = MemoryMeter::new();
        let (_out, sink) = Output::<u32>::new();
        let (mut l, mut r, probe) = union(Box::new(sink), meter.clone());
        l.on_batch(batch(&[1, 2, 3]));
        let held = meter.current();
        assert!(held >= 3 * core::mem::size_of::<Event<u32>>());
        assert_eq!(probe.buffered_events(), 3);
        r.on_punctuation(Timestamp::new(10));
        assert_eq!(meter.current(), 0, "all released after drain");
        assert_eq!(probe.buffered_events(), 0);
        assert!(probe.peak_bytes() >= held);
        l.on_completed();
        r.on_completed();
    }

    #[test]
    fn ties_preserve_order_without_violation() {
        let (out, sink) = Output::<u32>::new();
        let (mut l, mut r, _) = union(Box::new(sink), MemoryMeter::new());
        l.on_batch(batch(&[5, 5]));
        r.on_batch(batch(&[5]));
        l.on_completed();
        r.on_completed();
        assert_eq!(out.event_count(), 3);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        assert!(out.is_completed());
    }

    #[test]
    fn completion_of_one_side_unblocks_other() {
        let (out, sink) = Output::<u32>::new();
        let (mut l, mut r, _) = union(Box::new(sink), MemoryMeter::new());
        r.on_batch(batch(&[7, 8]));
        assert_eq!(out.event_count(), 0);
        l.on_completed();
        assert_eq!(out.event_count(), 2, "done side poses no constraint");
        assert!(!out.is_completed());
        r.on_completed();
        assert!(out.is_completed());
    }

    #[test]
    fn interleaved_progress_yields_ordered_output() {
        let (out, sink) = Output::<u32>::new();
        let (mut l, mut r, _) = union(Box::new(sink), MemoryMeter::new());
        let mut lt = 0i64;
        let mut rt = 0i64;
        for step in 0..50 {
            if step % 2 == 0 {
                lt += 3;
                l.on_batch(batch(&[lt]));
                l.on_punctuation(Timestamp::new(lt));
            } else {
                rt += 5;
                r.on_batch(batch(&[rt]));
                r.on_punctuation(Timestamp::new(rt));
            }
        }
        l.on_completed();
        r.on_completed();
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        assert_eq!(out.event_count(), 50);
        assert!(out.is_completed());
    }
}
