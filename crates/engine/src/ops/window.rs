//! Time-window operators.
//!
//! Trill models windows as *timestamp adjustment*, not as a property of
//! stateful operators (§IV-A2): a window operator rewrites each event's
//! `sync_time`/`other_time` to the window it contributes to and streams it
//! on. This separation is what lets the paper push windows below the sort —
//! aligning timestamps collapses distinct values (Proposition 3.2) and
//! *reduces disorder*, the Fig 9(c) effect.
//!
//! * [`TumblingWindowOp`] — `sync = t - t % size`, `other = sync + size`.
//!   Stateless: alignment is monotone, so an ordered input stays ordered.
//! * [`HoppingWindowOp`] — replicates each event into every window it
//!   overlaps (`size / hop` copies). Replication looks *backward* by up to
//!   `size - hop` ticks, so copies are buffered and released in order when
//!   punctuations guarantee no earlier window can appear.
//!
//! Punctuation adjustment: if the input guarantees "no future event
//! `<= t`", the output can only guarantee "no future window-start
//! `<= floor(t) - lookback - 1`" — a future event just above `t` may land
//! in the window containing `t`. Both operators forward that conservative
//! value.
//!
//! Tumbling alignment is per event, so the framework crate runs
//! [`TumblingWindowOp`] unchanged on *disordered* events before sorting.

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use impatience_core::{
    Event, EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec,
    StreamError, TickDuration, Timestamp,
};

/// Aligns one event to its tumbling window (the paper's
/// `eventTime - eventTime % 1000` / `+ 60000` formulas).
#[inline]
pub fn align_tumbling<P>(e: &mut Event<P>, size: TickDuration) {
    let start = e.sync_time.align_down(size);
    e.sync_time = start;
    e.other_time = start + size;
}

/// The window start containing `t` for hop `hop`.
#[inline]
pub fn hop_start(t: Timestamp, hop: TickDuration) -> Timestamp {
    t.align_down(hop)
}

/// Conservative output punctuation for a window of `size` aligned on
/// `grid`, given input punctuation `t`: the largest timestamp no future
/// window-start can be at or below.
#[inline]
pub fn window_punctuation(t: Timestamp, grid: TickDuration, lookback: TickDuration) -> Timestamp {
    if t == Timestamp::MAX {
        return Timestamp::MAX;
    }
    Timestamp(
        t.align_down(grid)
            .ticks()
            .saturating_sub(lookback.as_ticks())
            .saturating_sub(1),
    )
}

/// Tumbling (fixed, non-overlapping) window operator.
pub struct TumblingWindowOp<P, S> {
    size: TickDuration,
    next: S,
    _p: core::marker::PhantomData<P>,
}

impl<P, S> TumblingWindowOp<P, S> {
    /// Windows of `size` ticks; `size` must be positive.
    pub fn new(size: TickDuration, next: S) -> Self {
        assert!(size.is_positive(), "window size must be positive");
        TumblingWindowOp {
            size,
            next,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, S: Observer<P>> Observer<P> for TumblingWindowOp<P, S> {
    fn on_batch(&mut self, mut batch: EventBatch<P>) {
        let size = self.size;
        for i in 0..batch.len() {
            if batch.is_visible(i) {
                align_tumbling(&mut batch.events_mut()[i], size);
            }
        }
        self.next.on_batch(batch);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.next
            .on_punctuation(window_punctuation(t, self.size, TickDuration::ZERO));
    }

    fn on_completed(&mut self) {
        self.next.on_completed();
    }

    fn on_error(&mut self, err: StreamError) {
        self.next.on_error(err);
    }
}

/// Hopping (sliding) window operator: window `size`, advancing every `hop`.
///
/// Buffers replicated copies until a punctuation proves no earlier window
/// can still appear, then releases them in sync-time order.
pub struct HoppingWindowOp<P, S> {
    size: TickDuration,
    hop: TickDuration,
    copies: i64,
    /// Replicated copies awaiting release, kept unordered; sorted at flush.
    pending: Vec<Event<P>>,
    next: S,
}

impl<P: Payload, S> HoppingWindowOp<P, S> {
    /// `size` must be a positive multiple of positive `hop`.
    pub fn new(size: TickDuration, hop: TickDuration, next: S) -> Self {
        assert!(hop.is_positive() && size.is_positive());
        assert!(
            size.as_ticks() % hop.as_ticks() == 0,
            "window size must be a multiple of the hop"
        );
        HoppingWindowOp {
            size,
            hop,
            copies: size.as_ticks() / hop.as_ticks(),
            pending: Vec::new(),
            next,
        }
    }

    fn lookback(&self) -> TickDuration {
        TickDuration::ticks(self.hop.as_ticks() * (self.copies - 1))
    }

    fn flush_until(&mut self, bound: Timestamp)
    where
        S: Observer<P>,
    {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_by_key(|e| e.sync_time);
        let cnt = self.pending.partition_point(|e| e.sync_time <= bound);
        if cnt == 0 {
            return;
        }
        let rest = self.pending.split_off(cnt);
        let ready = core::mem::replace(&mut self.pending, rest);
        self.next.on_batch(EventBatch::from_events(ready));
    }
}

impl<P: Payload, S: Send> Checkpointable for HoppingWindowOp<P, S> {
    fn state_id(&self) -> &'static str {
        "engine.hopping_window"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.pending.encode(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.pending = Vec::<Event<P>>::decode(r)?;
        Ok(())
    }
}

impl<P: Payload, S: Observer<P>> Observer<P> for HoppingWindowOp<P, S> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        for e in batch.iter_visible() {
            let newest = hop_start(e.sync_time, self.hop);
            for c in (0..self.copies).rev() {
                let start = newest - TickDuration::ticks(self.hop.as_ticks() * c);
                let mut copy = e.clone();
                copy.sync_time = start;
                copy.other_time = start + self.size;
                self.pending.push(copy);
            }
        }
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        let bound = window_punctuation(t, self.hop, self.lookback());
        self.flush_until(bound);
        self.next.on_punctuation(bound);
    }

    fn on_completed(&mut self) {
        self.flush_until(Timestamp::MAX);
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

    #[test]
    fn tumbling_alignment_matches_paper_formula() {
        let mut e = Event::point(Timestamp::new(61_234), ());
        align_tumbling(&mut e, TickDuration::secs(1));
        assert_eq!(e.sync_time, Timestamp::new(61_000));
        assert_eq!(e.other_time, Timestamp::new(62_000));
    }

    #[test]
    fn tumbling_op_aligns_batches_and_punctuation() {
        let (out, sink) = Output::<u32>::new();
        let mut op = TumblingWindowOp::new(TickDuration::ticks(10), sink);
        let b: EventBatch<u32> = [3i64, 12, 25, 25]
            .iter()
            .map(|&t| Event::point(Timestamp::new(t), t as u32))
            .collect();
        op.on_batch(b);
        op.on_punctuation(Timestamp::new(27));
        let evs = out.events();
        let starts: Vec<i64> = evs.iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(starts, vec![0, 10, 20, 20]);
        assert!(evs
            .iter()
            .all(|e| e.other_time - e.sync_time == TickDuration::ticks(10)));
        // A future event at 28 still lands in window 20, so the forwarded
        // punctuation must sit below 20.
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(19)));
    }

    #[test]
    fn tumbling_reduces_disorder() {
        // §IV-A2: alignment eliminates disorder within each window.
        let times = [5i64, 3, 8, 1, 9, 2];
        let mut aligned: Vec<i64> = times
            .iter()
            .map(|&t| {
                let mut e = Event::point(Timestamp::new(t), ());
                align_tumbling(&mut e, TickDuration::ticks(10));
                e.sync_time.ticks()
            })
            .collect();
        assert!(aligned.iter().all(|&t| t == 0), "{aligned:?}");
        aligned.dedup();
        assert_eq!(aligned.len(), 1);
    }

    #[test]
    fn tumbling_max_punctuation_passes_through() {
        let (out, sink) = Output::<u32>::new();
        let mut op = TumblingWindowOp::new(TickDuration::ticks(10), sink);
        op.on_punctuation(Timestamp::MAX);
        assert_eq!(out.last_punctuation(), Some(Timestamp::MAX));
    }

    #[test]
    fn hopping_replicates_into_each_window() {
        let (out, sink) = Output::<u32>::new();
        // size 30, hop 10 → 3 copies per event.
        let mut op = HoppingWindowOp::new(TickDuration::ticks(30), TickDuration::ticks(10), sink);
        let b: EventBatch<u32> = [Event::point(Timestamp::new(25), 1u32)]
            .into_iter()
            .collect();
        op.on_batch(b);
        op.on_completed();
        let starts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        // Windows [0,30), [10,40), [20,50) all contain t=25, released in
        // ascending order at completion.
        assert_eq!(starts, vec![0, 10, 20]);
        for e in out.events() {
            assert!(e.sync_time.ticks() <= 25 && 25 < e.other_time.ticks());
            assert_eq!(e.other_time - e.sync_time, TickDuration::ticks(30));
        }
    }

    #[test]
    fn hopping_buffers_until_punctuation() {
        let (out, sink) = Output::<u32>::new();
        let mut op = HoppingWindowOp::new(TickDuration::ticks(30), TickDuration::ticks(10), sink);
        op.on_batch(
            [Event::point(Timestamp::new(25), 1u32)]
                .into_iter()
                .collect(),
        );
        assert_eq!(out.event_count(), 0, "copies held until progress known");
        // Punctuation 55: future events > 55 produce window starts
        // >= floor(55) - 20 = 30, so copies <= 29 can be released.
        op.on_punctuation(Timestamp::new(55));
        let starts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(starts, vec![0, 10, 20]);
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(29)));
    }

    #[test]
    fn hopping_output_is_ordered_across_batches() {
        let (out, sink) = Output::<u32>::new();
        let mut op = HoppingWindowOp::new(TickDuration::ticks(40), TickDuration::ticks(10), sink);
        op.on_batch(
            [Event::point(Timestamp::new(15), 1u32)]
                .into_iter()
                .collect(),
        );
        op.on_batch(
            [Event::point(Timestamp::new(18), 2u32)]
                .into_iter()
                .collect(),
        );
        op.on_batch(
            [Event::point(Timestamp::new(42), 3u32)]
                .into_iter()
                .collect(),
        );
        op.on_completed();
        let msgs = out.messages();
        assert!(impatience_core::validate_ordered_stream(&msgs).is_ok());
        assert_eq!(out.event_count(), 12);
    }

    #[test]
    fn hopping_with_hop_equal_size_is_tumbling() {
        let (out, sink) = Output::<u32>::new();
        let mut op = HoppingWindowOp::new(TickDuration::ticks(10), TickDuration::ticks(10), sink);
        op.on_batch(
            [Event::point(Timestamp::new(25), 1u32)]
                .into_iter()
                .collect(),
        );
        op.on_completed();
        let evs = out.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].sync_time, Timestamp::new(20));
    }

    #[test]
    fn negative_times_align_down() {
        let mut e = Event::point(Timestamp::new(-5), ());
        align_tumbling(&mut e, TickDuration::ticks(10));
        assert_eq!(e.sync_time, Timestamp::new(-10));
        assert_eq!(e.other_time, Timestamp::new(0));
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let (_, sink) = Output::<u32>::new();
        let _ = TumblingWindowOp::<u32, _>::new(TickDuration::ZERO, sink);
    }

    #[test]
    #[should_panic(expected = "multiple of the hop")]
    fn non_multiple_hop_panics() {
        let (_, sink) = Output::<u32>::new();
        let _ =
            HoppingWindowOp::<u32, _>::new(TickDuration::ticks(25), TickDuration::ticks(10), sink);
    }
}
