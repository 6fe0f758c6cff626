//! Time-window operators.
//!
//! Trill models windows as *timestamp adjustment*, not as a property of
//! stateful operators (§IV-A2): a window operator rewrites each event's
//! `sync_time`/`other_time` to the window it contributes to and streams it
//! on. This separation is what lets the paper push windows below the sort —
//! aligning timestamps collapses distinct values (Proposition 3.2) and
//! *reduces disorder*, the Fig 9(c) effect.
//!
//! [`TumblingWindowOp`] sets `sync = t - t % size`, `other = sync + size`.
//! It is stateless: alignment is monotone, so an ordered input stays
//! ordered.
//!
//! Punctuation adjustment: if the input guarantees "no future event
//! `<= t`", the output can only guarantee "no future window-start
//! `<= floor(t) - 1`" — a future event just above `t` may land in the
//! window containing `t`. The operator forwards that conservative value,
//! and nothing while `t` lies in the lowest window, whose start saturates
//! at `Timestamp::MIN`: no timestamp lies below it.
//!
//! Tumbling alignment is per event, so the framework crate runs
//! [`TumblingWindowOp`] unchanged on *disordered* events before sorting.

use crate::observer::Observer;
use impatience_core::{Event, EventBatch, Payload, StreamError, TickDuration, Timestamp};

/// Aligns one event to its tumbling window (the paper's
/// `eventTime - eventTime % 1000` / `+ 60000` formulas). Within one window
/// of either end of `i64` a bound is not representable and saturates: the
/// lowest window starts at [`Timestamp::MIN`], the highest ends at
/// [`Timestamp::MAX`].
#[inline]
pub fn align_tumbling<P>(e: &mut Event<P>, size: TickDuration) {
    // Both bounds from the window number: the lowest window's start
    // saturates, and so does the highest window's end (with one-tick
    // windows the window number is the time itself, so `+ 1` can overflow).
    let window = e.sync_time.ticks().div_euclid(size.as_ticks());
    e.sync_time = Timestamp(window.saturating_mul(size.as_ticks()));
    e.other_time = Timestamp(window.saturating_add(1).saturating_mul(size.as_ticks()));
}

/// Conservative output punctuation for windows aligned on `grid`, given
/// input punctuation `t`: the largest timestamp no future window-start can
/// be at or below. `None` while `t` lies in the lowest window: a future
/// event may still start at [`Timestamp::MIN`], so there is nothing to
/// promise.
#[inline]
fn window_punctuation(t: Timestamp, grid: TickDuration) -> Option<Timestamp> {
    if t == Timestamp::MAX {
        return Some(Timestamp::MAX);
    }
    let start = t.align_down(grid);
    (start > Timestamp::MIN).then(|| Timestamp(start.ticks() - 1))
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
        if let Some(p) = window_punctuation(t, self.size) {
            self.next.on_punctuation(p);
        }
    }

    fn on_completed(&mut self) {
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
    fn negative_times_align_down() {
        let mut e = Event::point(Timestamp::new(-5), ());
        align_tumbling(&mut e, TickDuration::ticks(10));
        assert_eq!(e.sync_time, Timestamp::new(-10));
        assert_eq!(e.other_time, Timestamp::new(0));
    }

    #[test]
    fn windows_saturate_at_both_ends_of_i64() {
        let size = TickDuration::ticks(100);
        let mut low = Event::point(Timestamp::new(i64::MIN + 5), ());
        align_tumbling(&mut low, size);
        assert_eq!(low.sync_time, Timestamp::MIN);
        assert_eq!(low.other_time, Timestamp::new(-9_223_372_036_854_775_800));
        let mut high = Event::point(Timestamp::new(i64::MAX - 5), ());
        align_tumbling(&mut high, size);
        assert_eq!(high.sync_time, Timestamp::new(9_223_372_036_854_775_800));
        assert_eq!(high.other_time, Timestamp::MAX);
        // A one-tick window at either end: the window number is the time
        // itself, so the end at `MAX` must saturate rather than overflow.
        let one = TickDuration::ticks(1);
        let mut lowest = Event::point(Timestamp::MIN, ());
        align_tumbling(&mut lowest, one);
        assert_eq!(lowest.sync_time, Timestamp::MIN);
        assert_eq!(lowest.other_time, Timestamp::new(i64::MIN + 1));
        let mut highest = Event::point(Timestamp::MAX, ());
        align_tumbling(&mut highest, one);
        assert_eq!(highest.sync_time, Timestamp::MAX);
        assert_eq!(highest.other_time, Timestamp::MAX);
        // In the lowest window no start lies below the saturated one: the
        // punctuation is swallowed. From the next window on it is exact.
        let (out, sink) = Output::<u32>::new();
        let mut op = TumblingWindowOp::new(size, sink);
        op.on_punctuation(Timestamp::MIN);
        op.on_punctuation(Timestamp::new(i64::MIN + 7));
        assert_eq!(out.last_punctuation(), None);
        op.on_punctuation(Timestamp::new(i64::MIN + 8));
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(i64::MIN + 7)));
        op.on_punctuation(Timestamp::new(i64::MAX - 5));
        assert_eq!(
            out.last_punctuation(),
            Some(Timestamp::new(9_223_372_036_854_775_799))
        );
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let (_, sink) = Output::<u32>::new();
        let _ = TumblingWindowOp::<u32, _>::new(TickDuration::ZERO, sink);
    }
}
