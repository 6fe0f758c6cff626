//! Logical time for the streaming stack.
//!
//! The paper distinguishes two notions of time (§II):
//!
//! * **Event time** — when the event logically occurred (also "application
//!   time"). Streams are sorted by event time before order-sensitive
//!   operators run.
//! * **Processing time** — when the event was ingested; the arrival order of
//!   a stream is by definition ordered in processing time.
//!
//! Both are represented as a [`Timestamp`]: a signed 64-bit tick count.
//! Ticks are dimensionless; the workload generators and benchmarks treat one
//! tick as one millisecond, matching the paper's examples (`{1 ms, 1 s,
//! 1 min, 1 h}` reorder latencies).

use core::fmt;
use std::ops::{Add, Sub};

/// A logical instant measured in ticks (milliseconds by convention).
///
/// `Timestamp` is a transparent newtype over `i64` so that batches of events
/// stay as flat and cache-friendly as Trill's columnar layout. It is `Copy`
/// and totally ordered; [`Timestamp::MIN`] and [`Timestamp::MAX`] act as
/// `-∞` / `+∞` sentinels (the paper's final punctuation `∞*`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The `-∞` sentinel; smaller than every real event time.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The `+∞` sentinel used by the final punctuation that flushes all
    /// buffered state.
    pub const MAX: Timestamp = Timestamp(i64::MAX);
    /// Tick zero.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from a raw tick count.
    #[inline]
    pub const fn new(ticks: i64) -> Self {
        Timestamp(ticks)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Saturating subtraction of a duration, used when deriving punctuation
    /// timestamps from a high watermark (`watermark - reorder_latency`).
    #[inline]
    pub const fn saturating_sub(self, d: TickDuration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }

    /// Saturating addition of a duration.
    #[inline]
    pub const fn saturating_add(self, d: TickDuration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Aligns this timestamp down to a window boundary:
    /// `t - t % size` for non-negative `t` (the paper's
    /// `eventTime - eventTime % 1000` example, §IV-A2).
    ///
    /// Negative timestamps align toward `-∞` so that windows tile the whole
    /// axis consistently. Within one window of `i64::MIN` the start is not
    /// representable and saturates at [`Timestamp::MIN`].
    #[inline]
    pub const fn align_down(self, size: TickDuration) -> Timestamp {
        debug_assert!(size.0 > 0);
        Timestamp(self.0.div_euclid(size.0).saturating_mul(size.0))
    }

    /// Euclidean distance in ticks between two instants.
    #[inline]
    pub const fn abs_diff(self, other: Timestamp) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Timestamp::MIN => write!(f, "T[-inf]"),
            Timestamp::MAX => write!(f, "T[+inf]"),
            Timestamp(t) => write!(f, "T[{t}]"),
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Timestamp {
    #[inline]
    fn from(t: i64) -> Self {
        Timestamp(t)
    }
}

impl Add<TickDuration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: TickDuration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<TickDuration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: TickDuration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TickDuration;
    #[inline]
    fn sub(self, rhs: Timestamp) -> TickDuration {
        TickDuration(self.0 - rhs.0)
    }
}

/// The ingress watermark clock: the one rule that decides lateness
/// (§III-A). An arrival's delay is `high − t` against the high watermark
/// *before* it (`MIN` before the first), unclamped — negative when it
/// raises the watermark — and saturating at the ends of `i64`. It is
/// inside latency `l` iff its delay is `< l`: the sort's `t > high − l`,
/// restated. Latency `l` allows the punctuation `high − l`, issued only
/// when it advances past the last one (`MIN` before the first, like a
/// sort's own watermark).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatermarkClock {
    /// The largest event time seen.
    pub high: Timestamp,
    /// The last punctuation issued.
    pub last: Timestamp,
}

impl WatermarkClock {
    /// A clock before its first arrival.
    pub const NEW: WatermarkClock = WatermarkClock {
        high: Timestamp::MIN,
        last: Timestamp::MIN,
    };

    /// Records an arrival at `t` and returns its delay in ticks.
    #[inline]
    pub fn arrive(&mut self, t: Timestamp) -> i64 {
        let delay = self.high.0.saturating_sub(t.0);
        self.high = self.high.max(t);
        delay
    }

    /// The first rung of a validated ladder an arrival with `delay` is inside
    /// (`ladder.len()` past the top), counted without a branch per rung.
    #[inline]
    pub fn rung(delay: i64, ladder: &[TickDuration]) -> usize {
        ladder.iter().filter(|l| l.0 <= delay).count()
    }

    /// The punctuation latency `l` allows now, if it advances.
    #[inline]
    pub fn punctuation(&self, l: TickDuration) -> Option<Timestamp> {
        Some(self.high.saturating_sub(l)).filter(|p| *p > self.last)
    }

    /// [`punctuation`](Self::punctuation), issued: it becomes the last.
    #[inline]
    pub fn punctuate(&mut self, l: TickDuration) -> Option<Timestamp> {
        self.last = self.punctuation(l)?;
        Some(self.last)
    }

    /// Each rung's last punctuation when a ladder is punctuated from one
    /// cut (the punctuation at latency 0): the last cut less its latency.
    pub fn rung_punctuations(
        self,
        ladder: &[TickDuration],
    ) -> impl Iterator<Item = Timestamp> + '_ {
        ladder.iter().map(move |l| self.last.saturating_sub(*l))
    }

    /// When the cut advances, rung `i` takes its new
    /// [`rung_punctuations`](Self::rung_punctuations) entry, unless that
    /// saturates at `MIN` and so has not advanced.
    pub fn punctuate_ladder(
        &mut self,
        ladder: &[TickDuration],
        mut emit: impl FnMut(usize, Timestamp),
    ) {
        if self.punctuate(TickDuration::ZERO).is_some() {
            for (i, p) in self.rung_punctuations(ladder).enumerate() {
                if p > Timestamp::MIN {
                    emit(i, p);
                }
            }
        }
    }
}

/// A span of logical time in ticks.
///
/// Reorder latencies, window sizes, and hop sizes are all `TickDuration`s.
/// The constructors mirror the units used throughout the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct TickDuration(pub i64);

impl TickDuration {
    /// Zero-length span.
    pub const ZERO: TickDuration = TickDuration(0);
    /// The longest representable span; used as an "infinite" reorder latency.
    pub const MAX: TickDuration = TickDuration(i64::MAX);

    /// A span of raw ticks.
    #[inline]
    pub const fn ticks(t: i64) -> Self {
        TickDuration(t)
    }

    /// `n` milliseconds (1 tick each, by convention).
    #[inline]
    pub const fn millis(n: i64) -> Self {
        TickDuration(n)
    }

    /// `n` seconds.
    #[inline]
    pub const fn secs(n: i64) -> Self {
        TickDuration(n * 1_000)
    }

    /// `n` minutes.
    #[inline]
    pub const fn minutes(n: i64) -> Self {
        TickDuration(n * 60_000)
    }

    /// `n` hours.
    #[inline]
    pub const fn hours(n: i64) -> Self {
        TickDuration(n * 3_600_000)
    }

    /// `n` days.
    #[inline]
    pub const fn days(n: i64) -> Self {
        TickDuration(n * 86_400_000)
    }

    /// Raw tick count of the span.
    #[inline]
    pub const fn as_ticks(self) -> i64 {
        self.0
    }

    /// True if the span is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }
}

impl fmt::Debug for TickDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.0;
        if t == i64::MAX {
            return write!(f, "inf");
        }
        if t >= 86_400_000 && t % 86_400_000 == 0 {
            write!(f, "{}d", t / 86_400_000)
        } else if t >= 3_600_000 && t % 3_600_000 == 0 {
            write!(f, "{}h", t / 3_600_000)
        } else if t >= 60_000 && t % 60_000 == 0 {
            write!(f, "{}m", t / 60_000)
        } else if t >= 1_000 && t % 1_000 == 0 {
            write!(f, "{}s", t / 1_000)
        } else {
            write!(f, "{t}ms")
        }
    }
}

impl fmt::Display for TickDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for TickDuration {
    type Output = TickDuration;
    #[inline]
    fn add(self, rhs: TickDuration) -> TickDuration {
        TickDuration(self.0 + rhs.0)
    }
}

impl Sub for TickDuration {
    type Output = TickDuration;
    #[inline]
    fn sub(self, rhs: TickDuration) -> TickDuration {
        TickDuration(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_sentinels() {
        assert!(Timestamp::MIN < Timestamp::new(-5));
        assert!(Timestamp::new(-5) < Timestamp::ZERO);
        assert!(Timestamp::ZERO < Timestamp::new(7));
        assert!(Timestamp::new(7) < Timestamp::MAX);
    }

    #[test]
    fn duration_units() {
        assert_eq!(TickDuration::secs(1).as_ticks(), 1_000);
        assert_eq!(TickDuration::minutes(2).as_ticks(), 120_000);
        assert_eq!(TickDuration::hours(1).as_ticks(), 3_600_000);
        assert_eq!(TickDuration::days(1).as_ticks(), 86_400_000);
        assert_eq!(TickDuration::millis(7).as_ticks(), 7);
    }

    #[test]
    fn align_down_matches_paper_formula() {
        // eventTime - eventTime % 1000 for positive times.
        let w = TickDuration::secs(1);
        assert_eq!(Timestamp::new(1234).align_down(w), Timestamp::new(1000));
        assert_eq!(Timestamp::new(999).align_down(w), Timestamp::new(0));
        assert_eq!(Timestamp::new(1000).align_down(w), Timestamp::new(1000));
        // Negative times tile toward -inf, keeping windows half-open and
        // non-overlapping.
        assert_eq!(Timestamp::new(-1).align_down(w), Timestamp::new(-1000));
        assert_eq!(Timestamp::new(-1000).align_down(w), Timestamp::new(-1000));
    }

    #[test]
    fn align_down_saturates_within_one_window_of_either_end() {
        let w = TickDuration::ticks(100);
        // The start of i64::MIN + 5's window lies below i64::MIN.
        assert_eq!(Timestamp::new(i64::MIN + 5).align_down(w), Timestamp::MIN);
        assert_eq!(Timestamp::MIN.align_down(w), Timestamp::MIN);
        // The first representable start is still exact.
        let first = -9_223_372_036_854_775_800;
        assert_eq!(
            Timestamp::new(first + 7).align_down(w),
            Timestamp::new(first)
        );
        // At the top the start is representable; only its end is not.
        assert_eq!(
            Timestamp::new(i64::MAX - 5).align_down(w),
            Timestamp::new(9_223_372_036_854_775_800)
        );
        assert_eq!(
            Timestamp::MAX.align_down(w),
            Timestamp::new(9_223_372_036_854_775_800)
        );
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::new(5_000);
        assert_eq!(t + TickDuration::secs(1), Timestamp::new(6_000));
        assert_eq!(t - TickDuration::secs(1), Timestamp::new(4_000));
        assert_eq!(Timestamp::new(9) - Timestamp::new(4), TickDuration(5));
        assert_eq!(t.abs_diff(Timestamp::new(4_000)), 1_000);
    }

    #[test]
    fn saturating_watermark_math() {
        // Deriving a punctuation from a watermark must not wrap near MIN.
        let wm = Timestamp::new(i64::MIN + 1);
        assert_eq!(wm.saturating_sub(TickDuration::hours(1)), Timestamp::MIN);
        let hi = Timestamp::new(i64::MAX - 1);
        assert_eq!(hi.saturating_add(TickDuration::hours(1)), Timestamp::MAX);
    }

    #[test]
    fn clock_delay_is_unclamped_against_the_high_before_the_arrival() {
        let mut c = WatermarkClock::NEW;
        assert_eq!(c.arrive(Timestamp::new(10)), i64::MIN, "first arrival");
        assert_eq!(c.arrive(Timestamp::new(20)), -10, "raises the watermark");
        assert_eq!(c.arrive(Timestamp::new(15)), 5);
        assert_eq!(c.arrive(Timestamp::new(20)), 0, "equal to the high");
        assert_eq!(c.arrive(Timestamp::MIN), i64::MAX, "saturates");
        assert_eq!(c.high, Timestamp::new(20));
        // Inside `l` iff delay < `l`: a delay equal to a rung is outside it.
        let ladder = [0, 5, 10].map(TickDuration::ticks);
        let rungs = [-10, 0, 4, 5, 9, 10, i64::MAX].map(|d| WatermarkClock::rung(d, &ladder));
        assert_eq!(rungs, [0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn clock_punctuates_only_when_it_advances() {
        let mut c = WatermarkClock::NEW;
        assert_eq!(c.punctuate(TickDuration::ZERO), None, "nothing seen");
        c.arrive(Timestamp::new(100));
        assert_eq!(
            c.punctuation(TickDuration::ticks(10)),
            Some(Timestamp::new(90))
        );
        assert_eq!(
            c.punctuate(TickDuration::ticks(10)),
            Some(Timestamp::new(90))
        );
        assert_eq!(c.punctuate(TickDuration::ticks(10)), None, "no advance");
        assert_eq!(
            c.punctuate(TickDuration::ticks(20)),
            None,
            "behind the last"
        );
        assert_eq!(
            c.punctuate(TickDuration::ticks(5)),
            Some(Timestamp::new(95))
        );
        // A ladder's rungs take the cut less their latency; one that
        // saturates at MIN has not advanced.
        let mut c = WatermarkClock::NEW;
        c.arrive(Timestamp::new(i64::MIN + 50));
        let ladder = [10, 100].map(TickDuration::ticks);
        let mut got = Vec::new();
        c.punctuate_ladder(&ladder, |i, p| got.push((i, p.ticks())));
        assert_eq!(got, vec![(0, i64::MIN + 40)]);
        c.punctuate_ladder(&ladder, |i, p| got.push((i, p.ticks())));
        assert_eq!(got.len(), 1, "the cut did not advance");
        assert_eq!(c.last, Timestamp::new(i64::MIN + 50));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TickDuration::secs(1)), "1s");
        assert_eq!(format!("{}", TickDuration::minutes(1)), "1m");
        assert_eq!(format!("{}", TickDuration::hours(2)), "2h");
        assert_eq!(format!("{}", TickDuration::days(1)), "1d");
        assert_eq!(format!("{}", TickDuration::millis(1500)), "1500ms");
        assert_eq!(format!("{}", TickDuration::MAX), "inf");
        assert_eq!(format!("{}", Timestamp::new(42)), "T[42]");
        assert_eq!(format!("{}", Timestamp::MAX), "T[+inf]");
        assert_eq!(format!("{}", Timestamp::MIN), "T[-inf]");
    }
}
