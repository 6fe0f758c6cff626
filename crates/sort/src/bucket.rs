//! The bucket sorter: the [`BucketGrid`] over buckets that keep their
//! items, for input a tumbling window below the sort has already aligned
//! (§IV). Within a time, items keep their arrival order — unlike
//! [`ImpatienceSorter`](crate::ImpatienceSorter), whose order among equal
//! times follows its merge shape.

use crate::buckets::{Bucket, BucketGrid};
use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, TickDuration, Timestamp,
};

/// The bucket sorter: one bucket of items per distinct buffered event time.
///
/// ```
/// use impatience_core::{TickDuration, Timestamp};
/// use impatience_sort::{BucketSorter, OnlineSorter};
///
/// // Window starts of a 100-tick tumbling window, out of order, each with
/// // its arrival number.
/// let mut s: BucketSorter<(i64, u32)> = BucketSorter::new(TickDuration::ticks(100));
/// for item in [(200, 0), (0, 1), (100, 2), (0, 3), (200, 4)] {
///     s.push(item);
/// }
/// let mut out = Vec::new();
/// s.punctuate(Timestamp::new(100), &mut out);
/// assert_eq!(out, vec![(0, 1), (0, 3), (100, 2)]);
/// out.clear();
/// s.drain_all(&mut out);
/// assert_eq!(out, vec![(200, 0), (200, 4)]);
/// ```
pub type BucketSorter<T> = BucketGrid<Vec<T>>;

impl<T: EventTimed + StateCodec> BucketSorter<T> {
    /// A sorter whose input times are expected `step` ticks apart (the
    /// hoisted window's size). Any positive `step` sorts correctly.
    pub fn new(step: TickDuration) -> Self {
        BucketGrid::with_shared((), step)
    }
}

/// A bucket of items in arrival order; its frame is the item count, then
/// the items.
impl<T: EventTimed + StateCodec> Bucket for Vec<T> {
    type Item = T;
    type Out = T;
    type Shared = ();
    /// The Impatience sorter's snapshot opens with its Huffman flag, 0 or
    /// 1, and refuses anything else.
    const TAG: u8 = b'B';
    const NAME: &'static str = "Bucket";
    const SNAPSHOT: &'static str = "bucket sorter";
    const ENTRY_BYTES: usize = core::mem::size_of::<T>();

    /// Without a spare, a new bucket is sized like the last one emitted,
    /// plus an eighth, so it rarely regrows.
    fn open(spare: Option<Self>, _: &T, last_len: usize) -> Self {
        spare.unwrap_or_else(|| Vec::with_capacity(last_len + last_len / 8 + 1))
    }

    #[inline]
    fn add(&mut self, _: &(), item: T) -> bool {
        self.push(item);
        true
    }

    fn buffered(&self) -> usize {
        self.len()
    }

    fn capacity_bytes(&self) -> usize {
        self.capacity() * core::mem::size_of::<T>()
    }

    fn take_whole(&mut self) -> Option<Vec<T>> {
        Some(core::mem::take(self))
    }

    fn close(&mut self, _: &(), out: &mut Vec<T>) {
        out.append(self);
    }

    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<(Timestamp, Self), SnapshotError> {
        let n = r.get_count()?;
        let bucket = (0..n)
            .map(|_| T::decode(r))
            .collect::<Result<Vec<T>, _>>()?;
        let time = bucket.first().map_or(Timestamp::MIN, T::event_time);
        if bucket.iter().any(|item| item.event_time() != time) {
            return Err(SnapshotError::corrupt(
                "bucket mixes event times in snapshot",
            ));
        }
        Ok((time, bucket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_sorted_until;
    use crate::OnlineSorter;

    fn window(step: i64) -> BucketSorter<i64> {
        BucketSorter::new(TickDuration::ticks(step))
    }

    #[test]
    fn unaligned_input_still_sorts() {
        // Times off the grid, and gaps in it, only make the guess miss.
        let data: Vec<i64> = (0..2000).map(|i| (i * 7919) % 1009 - 300).collect();
        let mut s = window(64);
        let (mut out, mut punctuation) = (Vec::new(), i64::MIN);
        for (i, &x) in data.iter().enumerate() {
            if x > punctuation {
                s.push(x);
            }
            if i % 100 == 99 {
                punctuation = punctuation.max(data[i] - 400);
                s.punctuate(Timestamp::new(punctuation), &mut out);
                assert_sorted_until(&out, Timestamp::new(punctuation));
            }
        }
        s.drain_all(&mut out);
        assert_sorted_until(&out, Timestamp::MAX);
        assert_eq!(s.buffered_len(), 0);
    }

    #[test]
    fn equal_times_keep_arrival_order() {
        let mut s: BucketSorter<(i64, u32)> = BucketSorter::new(TickDuration::ticks(10));
        let input = [(20, 0u32), (10, 1), (20, 2), (10, 3), (30, 4), (10, 5)];
        for item in input {
            s.push(item);
        }
        let mut out = Vec::new();
        s.drain_all(&mut out);
        let mut expect = input.to_vec();
        expect.sort_by_key(|(t, _)| *t);
        assert_eq!(out, expect);
    }

    #[test]
    fn a_lone_bucket_is_handed_over_and_new_ones_are_sized_like_it() {
        let mut s = window(100);
        for _ in 0..64 {
            s.push(0);
        }
        s.push(100);
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(0), &mut out);
        assert_eq!(out.len(), 64, "the lone ready bucket, handed over");
        assert_eq!(s.spare_count(), 0, "a bucket handed over is no spare");
        s.push(200);
        assert_eq!(s.buckets[1].1.capacity(), 64 + 8 + 1);
    }

    #[test]
    #[should_panic(expected = "bucket step must be positive")]
    fn zero_step_panics() {
        let _ = window(0);
    }
}
