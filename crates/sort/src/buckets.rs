//! The bucket grid: one bucket per distinct buffered time, for input a
//! tumbling window has already aligned (Proposition 3.2, Fig 9(c)): every
//! event carries its window start, so the few dozen times in flight arrive
//! as the grid `front`, `front + step`, … . A push lands in its time's
//! bucket and a punctuation closes whole buckets, front first; nothing is
//! compared except to find the bucket. What a bucket does with its items
//! is its [`Bucket`] kind's: the [`BucketSorter`](crate::BucketSorter)
//! keeps them in arrival order, the engine's fused ladder rung folds each
//! into its key's group.
//!
//! * **Finding the bucket.** Buckets sit in a `VecDeque` in ascending time
//!   order. A push first tries the bucket the last push landed in — log
//!   arrivals come in runs within one window — then guesses the index
//!   `(t − front) / step`, which is exact while every window between the
//!   front and `t` holds an event, and falls back to a binary search. An
//!   unseen time opens a bucket. Buckets are never indexed densely by
//!   window number: an outlier at `i64::MAX − 5` beside events at 0 costs
//!   one bucket.
//! * **Correct for any input.** Each bucket holds exactly one time, so the
//!   output is in time order whatever the times are; the window only makes
//!   the guess hit.
//! * **Few allocations.** A punctuation closes the ready buckets into one
//!   output (a lone one its kind can hand over whole becomes the output)
//!   and keeps the emptied ones as spares for the times the next batch
//!   opens. Unused spares go at the next punctuation.
//! * **Charged by what is buffered.** State bytes are each kind's bytes per
//!   buffered entry plus a fixed overhead per bucket, whatever capacity the
//!   buckets and spares hold; that heap shows in
//!   [`OnlineSorter::capacity_bytes`].
//!
//! Budget shedding and spilling keep the [`OnlineSorter`] defaults (shed
//! nothing, spill nothing): the grid has no run structure to shed from.

use crate::traits::OnlineSorter;
use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, TickDuration, Timestamp,
};
use std::collections::VecDeque;

/// What one bucket of a [`BucketGrid`] holds: the items of one time, or
/// what they fold into.
pub trait Bucket: Sized {
    /// What a push hands the grid.
    type Item: EventTimed;
    /// What a closed bucket empties into the output as.
    type Out;
    /// What every bucket of one grid shares: the fold, if any.
    type Shared;
    /// First byte of the grid's snapshot; each kind refuses another's.
    const TAG: u8;
    /// The grid's [`OnlineSorter::name`].
    const NAME: &'static str;
    /// What a snapshot of this kind is called in a refusal.
    const SNAPSHOT: &'static str;
    /// Bytes charged per buffered entry.
    const ENTRY_BYTES: usize;

    /// A bucket for the time `first` opens: `spare`, an emptied bucket,
    /// when there is one. `last_len` is what the last closed bucket held.
    fn open(spare: Option<Self>, first: &Self::Item, last_len: usize) -> Self;

    /// Adds `item`; true when it is one more buffered entry.
    fn add(&mut self, shared: &Self::Shared, item: Self::Item) -> bool;

    /// Buffered entries, each of which the bucket emits once closed.
    fn buffered(&self) -> usize;

    /// Bytes of capacity the bucket holds.
    fn capacity_bytes(&self) -> usize;

    /// A lone ready bucket handed over whole as the output, when the kind
    /// can; the bucket is left empty and dropped.
    fn take_whole(&mut self) -> Option<Vec<Self::Out>> {
        None
    }

    /// Empties the bucket into `out`, in order; it then waits as a spare.
    fn close(&mut self, shared: &Self::Shared, out: &mut Vec<Self::Out>);

    /// Appends the bucket's frame.
    fn encode(&self, w: &mut SnapshotWriter);

    /// A bucket and its time decoded from a frame [`encode`](Self::encode)
    /// wrote, refusing what this kind could not have built.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<(Timestamp, Self), SnapshotError>;
}

/// One bucket per distinct buffered time, in ascending time order (see
/// the module docs). An [`OnlineSorter`] over any [`Bucket`] kind.
#[derive(Debug)]
pub struct BucketGrid<B: Bucket> {
    shared: B::Shared,
    /// `(time, bucket)` in ascending time order; no bucket is empty.
    pub(crate) buckets: VecDeque<(Timestamp, B)>,
    /// Buckets the last punctuation emptied, kept for the times the next
    /// batch opens.
    spares: Vec<B>,
    /// The expected distance between adjacent bucket times, ticks.
    step: u64,
    /// Index of the bucket the last push landed in.
    hit: usize,
    /// Entries buffered across all buckets.
    len: usize,
    /// Entries the last closed bucket held.
    last_len: usize,
    last_punctuation: Timestamp,
}

impl<B: Bucket> BucketGrid<B> {
    /// A grid whose buckets share `shared`, over times expected `step`
    /// ticks apart (the window's size). Any positive `step` is correct.
    pub fn with_shared(shared: B::Shared, step: TickDuration) -> Self {
        assert!(step.is_positive(), "bucket step must be positive");
        BucketGrid {
            shared,
            buckets: VecDeque::new(),
            spares: Vec::new(),
            step: step.as_ticks() as u64,
            hit: 0,
            len: 0,
            last_len: 0,
            last_punctuation: Timestamp::MIN,
        }
    }

    /// Number of buckets, one per distinct buffered time.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Emptied buckets kept for the times the next batch opens.
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// The index of the bucket for `first`'s time, opening one if there
    /// is none.
    #[inline]
    fn position(&mut self, first: &B::Item) -> usize {
        let t = first.event_time();
        if self
            .buckets
            .get(self.hit)
            .is_none_or(|(time, _)| *time != t)
        {
            self.hit = self.guess(t).unwrap_or_else(|| self.searched(t, first));
        }
        self.hit
    }

    /// The index `(t − front) / step`, if the bucket there holds `t`.
    #[inline]
    fn guess(&self, t: Timestamp) -> Option<usize> {
        let (front, _) = self.buckets.front()?;
        // `abs_diff` cannot overflow, even between `MIN` and `MAX`.
        let last = self.buckets.len() as u64 - 1;
        let guess = (t.abs_diff(*front) / self.step).min(last) as usize;
        (self.buckets[guess].0 == t).then_some(guess)
    }

    /// The guess missed: binary search, opening a bucket for a new time.
    #[cold]
    fn searched(&mut self, t: Timestamp, first: &B::Item) -> usize {
        match self.buckets.binary_search_by_key(&t, |(time, _)| *time) {
            Ok(at) => at,
            Err(at) => {
                let bucket = B::open(self.spares.pop(), first, self.last_len);
                self.buckets.insert(at, (t, bucket));
                at
            }
        }
    }
}

impl<B: Bucket + Send> OnlineSorter<B::Item, B::Out> for BucketGrid<B>
where
    B::Shared: Send,
{
    #[inline]
    fn push(&mut self, item: B::Item) {
        let t = item.event_time();
        // A window start saturated at `Timestamp::MIN` may arrive while
        // `last_punctuation` still reads `MIN`, meaning "none yet".
        debug_assert!(
            t > self.last_punctuation || t == Timestamp::MIN,
            "item at {t:?} violates punctuation {:?}",
            self.last_punctuation
        );
        let at = self.position(&item);
        self.len += usize::from(self.buckets[at].1.add(&self.shared, item));
    }

    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<B::Out>) {
        debug_assert!(
            t >= self.last_punctuation,
            "punctuation regressed: {t:?} after {:?}",
            self.last_punctuation
        );
        self.last_punctuation = t;
        // Spares the last batch did not use go.
        self.spares.clear();
        let mut ready = self.buckets.partition_point(|(time, _)| *time <= t);
        if ready == 1 && out.is_empty() {
            // No copy when `out` holds nothing, which is how the engine calls.
            let bucket = &mut self.buckets[0].1;
            let n = bucket.buffered();
            if let Some(whole) = bucket.take_whole() {
                self.len -= n;
                self.last_len = n;
                *out = whole;
                self.buckets.pop_front();
                ready = 0;
            }
        }
        out.reserve(self.buckets.range(..ready).map(|(_, b)| b.buffered()).sum());
        for (_, mut bucket) in self.buckets.drain(..ready) {
            self.last_len = bucket.buffered();
            self.len -= self.last_len;
            bucket.close(&self.shared, out);
            self.spares.push(bucket);
        }
    }

    fn buffered_len(&self) -> usize {
        self.len
    }

    fn state_bytes(&self) -> usize {
        self.len * B::ENTRY_BYTES + self.buckets.len() * core::mem::size_of::<(Timestamp, B)>()
    }

    fn capacity_bytes(&self) -> usize {
        let buckets = self.buckets.iter().map(|(_, bucket)| bucket);
        buckets
            .chain(&self.spares)
            .map(B::capacity_bytes)
            .sum::<usize>()
            + self.buckets.capacity() * core::mem::size_of::<(Timestamp, B)>()
            + self.spares.capacity() * core::mem::size_of::<B>()
    }

    fn name(&self) -> &'static str {
        B::NAME
    }

    /// Tag, last punctuation, then each bucket's frame in time order.
    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put_u8(B::TAG);
        w.put_i64(self.last_punctuation.ticks());
        w.put_u64(self.buckets.len() as u64);
        for (_, bucket) in &self.buckets {
            bucket.encode(w);
        }
        Ok(())
    }

    /// Re-validates what `push` guarantees — every bucket non-empty, times
    /// strictly ascending, and what the kind checks of its own frame — so
    /// corrupt data that survives the frame checksum still cannot poison
    /// the grid. A failed restore leaves the grid untouched.
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        if tag != B::TAG {
            let detail = format!("not a {} snapshot (tag {tag})", B::SNAPSHOT);
            return Err(SnapshotError::corrupt(detail));
        }
        let last_punctuation = Timestamp::new(r.get_i64()?);
        let count = r.get_count()?;
        let mut buckets: VecDeque<(Timestamp, B)> = VecDeque::with_capacity(count);
        let mut len = 0;
        for _ in 0..count {
            let (time, bucket) = B::decode(r)?;
            if bucket.buffered() == 0 {
                return Err(SnapshotError::corrupt("empty bucket in snapshot"));
            }
            if buckets.back().is_some_and(|(prev, _)| *prev >= time) {
                return Err(SnapshotError::corrupt(
                    "bucket times not strictly ascending in snapshot",
                ));
            }
            len += bucket.buffered();
            buckets.push_back((time, bucket));
        }
        self.buckets = buckets;
        self.spares = Vec::new();
        self.len = len;
        self.last_punctuation = last_punctuation;
        Ok(())
    }
}
