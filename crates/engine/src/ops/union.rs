//! Union: merge two ordered streams into one ordered stream.
//!
//! The paper's union "merges and synchronizes two sorted streams into one
//! sorted stream (and thus is a blocking operator)" (§V-A). The
//! synchronization is the one every two-input stage shares
//! ([`super::sync`]): an event waits until the *other* side proves it will
//! never produce an earlier one, and that waiting is exactly the memory
//! cost Fig 10(b)/(d) measure — in the basic framework the higher-latency
//! union holds raw events for up to the latency gap, while the advanced
//! framework buffers only tiny PIQ partials. What the union adds is the
//! merge: it forwards each event in the order the synchronizer takes it.
//!
//! Every waiting byte is charged to a [`MemoryMeter`].

use super::sync::{sync, Merge, Progress, SyncInput};
use crate::observer::Observer;
use impatience_core::{
    Event, MemoryMeter, Payload, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec,
    Timestamp,
};

/// The union's merge: forwards every event, holds nothing.
pub struct Forward;

impl<P: Payload> Merge<P, P> for Forward {
    type Out = P;
    const STATE_ID: &'static str = "engine.union";

    fn left(&mut self, e: Event<P>, out: &mut Vec<Event<P>>, _: &MemoryMeter) {
        out.push(e);
    }
    fn right(&mut self, e: Event<P>, out: &mut Vec<Event<P>>, _: &MemoryMeter) {
        out.push(e);
    }
    fn expire(&mut self, _: Timestamp, _: &MemoryMeter) {}
    fn bytes(&self) -> usize {
        0
    }

    /// `out_wm`, `completed`, then the waiting high water. Nothing reads
    /// the high water back; the frame keeps it because durable ladder
    /// slots already on disk hold it.
    fn encode(&self, progress: Progress, w: &mut SnapshotWriter) {
        progress.out_wm.encode(w);
        progress.completed.encode(w);
        w.put_u64(progress.peak_bytes as u64);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<Progress, SnapshotError> {
        Ok(Progress {
            out_wm: Timestamp::decode(r)?,
            completed: bool::decode(r)?,
            peak_bytes: r.get_u64()? as usize,
        })
    }
}

/// One input endpoint of a union; the left one (`LEFT = true`) is the
/// union's checkpoint participant.
pub type UnionInput<P, const LEFT: bool> = SyncInput<P, P, Forward, LEFT>;

/// Builds a union: returns the left and right input observers.
///
/// Feed the left and right ordered streams into the endpoints; merged
/// ordered traffic flows into `sink`. Waiting events are charged to
/// `meter`.
pub fn union<P: Payload>(
    sink: Box<dyn Observer<P>>,
    meter: MemoryMeter,
) -> (UnionInput<P, true>, UnionInput<P, false>) {
    sync(Forward, sink, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Output;
    use impatience_core::{validate_ordered_stream, EventBatch};

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
        let (mut l, mut r) = union(Box::new(sink), meter);
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
        let meter = MemoryMeter::new();
        let (mut l, mut r) = union(Box::new(sink), meter.clone());
        let one = core::mem::size_of::<Event<u32>>();
        l.on_batch(batch(&[10, 20]));
        assert_eq!(out.event_count(), 0, "right side silent: must buffer");
        assert_eq!(meter.current(), 2 * one);
        r.on_punctuation(Timestamp::new(15));
        // Right will never produce anything <= 15: event 10 releases.
        assert_eq!(out.event_count(), 1);
        assert_eq!(meter.current(), one);
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
        let (mut l, mut r) = union::<u32>(Box::new(sink), MemoryMeter::new());
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
        let (mut l, mut r) = union(Box::new(sink), meter.clone());
        l.on_batch(batch(&[1, 2, 3]));
        let held = meter.current();
        assert_eq!(held, 3 * core::mem::size_of::<Event<u32>>());
        r.on_punctuation(Timestamp::new(10));
        assert_eq!(meter.current(), 0, "all released after drain");
        assert_eq!(meter.peak(), held);
        l.on_completed();
        r.on_completed();
    }

    #[test]
    fn ties_preserve_order_without_violation() {
        let (out, sink) = Output::<u32>::new();
        let (mut l, mut r) = union(Box::new(sink), MemoryMeter::new());
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
        let (mut l, mut r) = union(Box::new(sink), MemoryMeter::new());
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
        let (mut l, mut r) = union(Box::new(sink), MemoryMeter::new());
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
