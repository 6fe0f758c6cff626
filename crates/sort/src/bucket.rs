//! Bucket sort for input a tumbling window has already aligned.
//!
//! A window pushed below the sort collapses distinct timestamps
//! (Proposition 3.2, Fig 9(c)): every event carries its window start, so
//! the few dozen times in flight arrive as the window grid `front`,
//! `front + step`, `front + 2·step`, … . Impatience sort would still build
//! runs, cut their heads and merge them; here each distinct time gets one
//! bucket, a push lands in its bucket and a punctuation hands whole buckets
//! on, front first. Nothing is compared except to find the bucket.
//!
//! * **Finding the bucket.** Buckets sit in a `VecDeque` in ascending time
//!   order. A push guesses the index `(t − front) / step`, which is exact
//!   while every window between the front and `t` holds an event, checks
//!   the guess and falls back to a binary search. An unseen time inserts a
//!   bucket. Buckets are never indexed densely by window number: an
//!   outlier at `i64::MAX − 5` beside events at 0 costs one bucket.
//! * **Correct for any input.** Each bucket holds exactly one time, so the
//!   output is sorted whatever the times are; the window only makes the
//!   guess hit.
//! * **Stable.** Within a time, items keep their arrival order — unlike
//!   [`ImpatienceSorter`](crate::ImpatienceSorter), whose order among equal
//!   times follows its merge shape.
//! * **Few allocations.** A punctuation hands a lone ready bucket over
//!   whole. When several are ready it copies them into one output and
//!   keeps the emptied buckets as spares for the windows the next batch
//!   opens, so a batch spanning dozens of windows allocates none. Spares
//!   the next batch leaves unused are dropped at the next punctuation, and
//!   one that drains the sorter — a forced cut always does — frees them
//!   all. State bytes count spares: they are held memory.
//!
//! Budget shedding and spilling keep the [`OnlineSorter`] defaults (shed
//! nothing, spill nothing): the sorter has no run structure to shed from.

use crate::traits::OnlineSorter;
use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, TickDuration, Timestamp,
};
use std::collections::VecDeque;

/// First byte of a [`BucketSorter`] snapshot. The Impatience sorter's
/// snapshot opens with its Huffman flag, 0 or 1, and refuses anything
/// else; each sorter therefore refuses the other's state as corrupt.
const SNAPSHOT_TAG: u8 = b'B';

/// The bucket sorter: one bucket per distinct buffered event time.
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
#[derive(Debug)]
pub struct BucketSorter<T> {
    /// `(time, items)` in ascending time order; no bucket is empty.
    buckets: VecDeque<(Timestamp, Vec<T>)>,
    /// The expected distance between adjacent bucket times, ticks.
    step: u64,
    /// Items buffered across all buckets.
    len: usize,
    /// Bytes of item capacity across all buckets and spares.
    item_bytes: usize,
    /// Length of the last bucket emitted.
    last_emitted: usize,
    /// Buckets the last punctuation emptied, kept for the windows the next
    /// batch opens: a batch that spans many windows then allocates none.
    spares: Vec<Vec<T>>,
    last_punctuation: Timestamp,
}

impl<T: EventTimed> BucketSorter<T> {
    /// A sorter whose input times are expected `step` ticks apart (the
    /// hoisted window's size). Any positive `step` sorts correctly.
    pub fn new(step: TickDuration) -> Self {
        assert!(step.is_positive(), "bucket step must be positive");
        BucketSorter {
            buckets: VecDeque::new(),
            step: step.as_ticks() as u64,
            len: 0,
            item_bytes: 0,
            last_emitted: 0,
            spares: Vec::new(),
            last_punctuation: Timestamp::MIN,
        }
    }

    /// Number of buckets, one per distinct buffered time.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Appends `item` to `bucket`, accounting for any growth.
    #[inline]
    fn append(item_bytes: &mut usize, bucket: &mut Vec<T>, item: T) {
        let before = bucket.capacity();
        bucket.push(item);
        *item_bytes += (bucket.capacity() - before) * core::mem::size_of::<T>();
    }

    /// The guess missed: binary search, inserting a bucket for a new time.
    #[cold]
    fn push_searched(&mut self, t: Timestamp, item: T) {
        match self.buckets.binary_search_by_key(&t, |(time, _)| *time) {
            Ok(at) => Self::append(&mut self.item_bytes, &mut self.buckets[at].1, item),
            Err(at) => {
                // Without a spare, a new window is sized like the last one
                // emitted, plus an eighth, so it rarely regrows.
                let capacity = self.last_emitted + self.last_emitted / 8 + 1;
                let bucket = self.spares.pop().unwrap_or_else(|| {
                    let bucket = Vec::with_capacity(capacity);
                    self.item_bytes += bucket.capacity() * core::mem::size_of::<T>();
                    bucket
                });
                self.buckets.insert(at, (t, bucket));
                Self::append(&mut self.item_bytes, &mut self.buckets[at].1, item);
            }
        }
    }
}

impl<T: EventTimed + StateCodec + Send> OnlineSorter<T> for BucketSorter<T> {
    #[inline]
    fn push(&mut self, item: T) {
        let t = item.event_time();
        // A window start saturated at `Timestamp::MIN` may arrive while
        // `last_punctuation` still reads `MIN`, meaning "none yet".
        debug_assert!(
            t > self.last_punctuation || t == Timestamp::MIN,
            "item at {t:?} violates punctuation {:?}",
            self.last_punctuation
        );
        self.len += 1;
        if let Some((front, _)) = self.buckets.front() {
            // `abs_diff` cannot overflow, even between `MIN` and `MAX`.
            let last = self.buckets.len() as u64 - 1;
            let guess = (t.abs_diff(*front) / self.step).min(last) as usize;
            let (time, bucket) = &mut self.buckets[guess];
            if *time == t {
                Self::append(&mut self.item_bytes, bucket, item);
                return;
            }
        }
        self.push_searched(t, item);
    }

    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<T>) {
        debug_assert!(
            t >= self.last_punctuation,
            "punctuation regressed: {t:?} after {:?}",
            self.last_punctuation
        );
        self.last_punctuation = t;
        // Spares the last batch did not use go.
        for spare in self.spares.drain(..) {
            self.item_bytes -= spare.capacity() * core::mem::size_of::<T>();
        }
        let ready = self.buckets.partition_point(|(time, _)| *time <= t);
        if ready == 1 && out.is_empty() {
            // A lone bucket is handed over whole: no copy when `out` holds
            // nothing, which is how the engine calls.
            let (_, bucket) = self.buckets.pop_front().expect("one bucket is ready");
            self.len -= bucket.len();
            self.item_bytes -= bucket.capacity() * core::mem::size_of::<T>();
            self.last_emitted = bucket.len();
            *out = bucket;
        } else if ready > 0 {
            out.reserve(self.buckets.range(..ready).map(|(_, b)| b.len()).sum());
            for (_, mut bucket) in self.buckets.drain(..ready) {
                self.len -= bucket.len();
                self.last_emitted = bucket.len();
                out.append(&mut bucket);
                self.spares.push(bucket);
            }
        }
        if self.buckets.is_empty() {
            // Fully drained — a forced cut always is: an idle sorter
            // accounts for zero bytes.
            self.buckets = VecDeque::new();
            self.spares = Vec::new();
            self.item_bytes = 0;
        }
    }

    fn buffered_len(&self) -> usize {
        self.len
    }

    fn state_bytes(&self) -> usize {
        self.item_bytes
            + self.buckets.capacity() * core::mem::size_of::<(Timestamp, Vec<T>)>()
            + self.spares.capacity() * core::mem::size_of::<Vec<T>>()
    }

    fn name(&self) -> &'static str {
        "Bucket"
    }

    /// Tag, last punctuation, then each bucket's items in order.
    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put_u8(SNAPSHOT_TAG);
        w.put_i64(self.last_punctuation.ticks());
        w.put_u64(self.buckets.len() as u64);
        for (_, bucket) in &self.buckets {
            w.put_u64(bucket.len() as u64);
            for item in bucket {
                item.encode(w);
            }
        }
        Ok(())
    }

    /// Re-validates what `push` guarantees — every bucket non-empty, one
    /// time per bucket, times strictly ascending — so corrupt data that
    /// survives the frame checksum still cannot poison the sorter.
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        if tag != SNAPSHOT_TAG {
            return Err(SnapshotError::corrupt(format!(
                "not a bucket sorter snapshot (tag {tag})"
            )));
        }
        let last_punctuation = Timestamp::new(r.get_i64()?);
        let count = r.get_count()?;
        let mut buckets: VecDeque<(Timestamp, Vec<T>)> = VecDeque::with_capacity(count);
        let (mut len, mut item_bytes) = (0, 0);
        for _ in 0..count {
            let n = r.get_count()?;
            if n == 0 {
                return Err(SnapshotError::corrupt("empty bucket in snapshot"));
            }
            let bucket = (0..n)
                .map(|_| T::decode(r))
                .collect::<Result<Vec<T>, _>>()?;
            let time = bucket[0].event_time();
            if bucket.iter().any(|item| item.event_time() != time) {
                return Err(SnapshotError::corrupt(
                    "bucket mixes event times in snapshot",
                ));
            }
            if buckets.back().is_some_and(|(prev, _)| *prev >= time) {
                return Err(SnapshotError::corrupt(
                    "bucket times not strictly ascending in snapshot",
                ));
            }
            len += n;
            item_bytes += bucket.capacity() * core::mem::size_of::<T>();
            buckets.push_back((time, bucket));
        }
        // All fields decoded; only now mutate self, so a failed restore
        // leaves the sorter untouched.
        self.buckets = buckets;
        self.spares = Vec::new();
        self.len = len;
        self.item_bytes = item_bytes;
        self.last_punctuation = last_punctuation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_sorted_until;
    use crate::ImpatienceSorter;

    fn window(step: i64) -> BucketSorter<i64> {
        BucketSorter::new(TickDuration::ticks(step))
    }

    #[test]
    fn aligned_input_fills_one_bucket_per_window() {
        let mut s = window(100);
        for t in [300i64, 0, 100, 300, 200, 0, 100] {
            s.push(t);
        }
        assert_eq!(s.bucket_count(), 4);
        assert_eq!(s.buffered_len(), 7);
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(199), &mut out);
        assert_eq!(out, vec![0, 0, 100, 100]);
        assert_eq!(s.bucket_count(), 2);
        s.drain_all(&mut out);
        assert_eq!(out, vec![0, 0, 100, 100, 200, 300, 300]);
        assert_eq!(s.buffered_len(), 0);
        assert_eq!(s.state_bytes(), 0, "a drained sorter holds nothing");
    }

    #[test]
    fn unaligned_input_still_sorts() {
        // Times off the grid, and gaps in it, only make the guess miss.
        let data: Vec<i64> = (0..2000).map(|i| (i * 7919) % 1009 - 300).collect();
        let mut s = window(64);
        let mut out = Vec::new();
        for (i, &x) in data.iter().enumerate() {
            if x > s.last_punctuation.ticks() {
                s.push(x);
            }
            if i % 100 == 99 {
                s.punctuate(
                    Timestamp::new(data[i] - 400).max(s.last_punctuation),
                    &mut out,
                );
                assert_sorted_until(&out, s.last_punctuation);
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
    fn extremes_cost_one_bucket_each() {
        let mut s = window(100);
        for t in [0i64, i64::MAX - 5, 100, i64::MIN, 0, i64::MAX - 5] {
            s.push(t);
        }
        assert_eq!(s.bucket_count(), 4, "no bucket for the windows between");
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(100), &mut out);
        assert_eq!(out, vec![i64::MIN, 0, 0, 100]);
        s.drain_all(&mut out);
        assert_eq!(out[4..], [i64::MAX - 5, i64::MAX - 5]);
    }

    /// What `state_bytes` must read: every bucket's and spare's capacity,
    /// and both containers'.
    fn held_bytes(s: &BucketSorter<i64>) -> usize {
        let buckets: usize = s.buckets.iter().map(|(_, b)| b.capacity()).sum();
        let spares: usize = s.spares.iter().map(Vec::capacity).sum();
        (buckets + spares) * 8
            + s.buckets.capacity() * core::mem::size_of::<(Timestamp, Vec<i64>)>()
            + s.spares.capacity() * core::mem::size_of::<Vec<i64>>()
    }

    #[test]
    fn state_bytes_follow_capacity() {
        let mut s = window(1);
        assert_eq!(s.state_bytes(), 0);
        for t in 0..100i64 {
            s.push(t % 10);
        }
        assert_eq!(s.state_bytes(), held_bytes(&s));
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(4), &mut out);
        assert_eq!(s.spares.len(), 5, "five buckets emptied into one output");
        assert_eq!(s.state_bytes(), held_bytes(&s));
        s.push(20);
        s.push(30);
        assert_eq!(s.spares.len(), 3, "new windows take spares");
        assert_eq!(s.state_bytes(), held_bytes(&s));
        s.punctuate(Timestamp::new(5), &mut Vec::new());
        assert_eq!(
            s.spares.len(),
            0,
            "unused spares go at the next punctuation"
        );
        assert_eq!(s.state_bytes(), held_bytes(&s));
    }

    #[test]
    fn a_draining_punctuation_frees_everything() {
        let mut s = window(100);
        for t in [0i64, 100, 200, 0, 300] {
            s.push(t);
        }
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(300), &mut out);
        assert_eq!(out, vec![0, 0, 100, 200, 300]);
        assert_eq!(s.state_bytes(), 0, "no spares kept by an emptied sorter");
    }

    #[test]
    fn new_buckets_are_sized_like_the_last_window_emitted() {
        let mut s = window(100);
        for _ in 0..64 {
            s.push(0);
        }
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(0), &mut out);
        assert_eq!(out.len(), 64, "the lone ready bucket, handed over");
        s.push(200);
        assert_eq!(s.buckets[0].1.capacity(), 64 + 8 + 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_behaviour() {
        let mut s: BucketSorter<(i64, u32)> = BucketSorter::new(TickDuration::ticks(10));
        let mut out = Vec::new();
        for (i, t) in [20i64, 0, 10, 20, 30, 10].into_iter().enumerate() {
            s.push((t, i as u32));
        }
        s.punctuate(Timestamp::new(5), &mut out);
        let mut w = SnapshotWriter::new();
        s.encode_state(&mut w).unwrap();
        let body = w.into_body();

        let mut restored: BucketSorter<(i64, u32)> = BucketSorter::new(TickDuration::ticks(10));
        restored
            .restore_state(&mut SnapshotReader::new(&body))
            .unwrap();
        assert_eq!(restored.buffered_len(), s.buffered_len());
        assert_eq!(restored.bucket_count(), s.bucket_count());
        assert_eq!(restored.last_punctuation, s.last_punctuation);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for item in [(10, 9), (40, 10)] {
            s.push(item);
            restored.push(item);
        }
        s.drain_all(&mut a);
        restored.drain_all(&mut b);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                (10, 2),
                (10, 5),
                (10, 9),
                (20, 0),
                (20, 3),
                (30, 4),
                (40, 10)
            ]
        );
    }

    /// A snapshot body written bucket by bucket, as `encode_state` lays it
    /// out.
    fn body(buckets: &[&[i64]]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u8(SNAPSHOT_TAG);
        w.put_i64(i64::MIN);
        w.put_u64(buckets.len() as u64);
        for bucket in buckets {
            w.put_u64(bucket.len() as u64);
            for t in *bucket {
                t.encode(&mut w);
            }
        }
        w.into_body()
    }

    fn restore_error(bytes: &[u8]) -> String {
        let mut target = window(10);
        target.push(42);
        let err = target
            .restore_state(&mut SnapshotReader::new(bytes))
            .expect_err("refused");
        assert_eq!(target.buffered_len(), 1, "a failed restore left state");
        match err {
            SnapshotError::Corrupt { detail } => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_what_push_could_not_have_built() {
        let ok = body(&[&[1, 1], &[5]]);
        window(10)
            .restore_state(&mut SnapshotReader::new(&ok))
            .expect("a valid layout restores");
        assert!(restore_error(&body(&[&[1], &[]])).contains("empty bucket"));
        assert!(restore_error(&body(&[&[1, 2]])).contains("mixes event times"));
        assert!(restore_error(&body(&[&[5], &[5]])).contains("strictly ascending"));
        assert!(restore_error(&body(&[&[5], &[1]])).contains("strictly ascending"));
    }

    #[test]
    fn each_sorter_refuses_the_others_snapshot() {
        let mut impatience: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let mut bucket = window(10);
        for t in [30i64, 10, 20] {
            impatience.push(t);
            bucket.push(t);
        }
        let encode = |s: &dyn OnlineSorter<i64>| {
            let mut w = SnapshotWriter::new();
            s.encode_state(&mut w).unwrap();
            w.into_body()
        };
        let (from_impatience, from_bucket) = (encode(&impatience), encode(&bucket));

        assert!(restore_error(&from_impatience).contains("not a bucket sorter snapshot"));
        let err = ImpatienceSorter::<i64>::new()
            .restore_state(&mut SnapshotReader::new(&from_bucket))
            .expect_err("refused");
        assert!(
            matches!(&err, SnapshotError::Corrupt { detail } if detail.contains("huffman flag")),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "bucket step must be positive")]
    fn zero_step_panics() {
        let _ = window(0);
    }
}
