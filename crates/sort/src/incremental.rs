//! The generic incremental-sorting adapter (§VI-B).
//!
//! The paper adapts each offline algorithm to punctuations with "a general
//! solution": keep a **sorted buffer** and an **unsorted buffer**. New
//! events go to the unsorted buffer; on punctuation, sort the unsorted
//! buffer with the wrapped algorithm, merge it into the sorted buffer, then
//! binary-search the punctuation timestamp and emit the prefix. Each event
//! is *sorted* once but may be *rewritten* many times across merge phases —
//! the cost that Fig 8 shows growing with the buffered volume, and that
//! Impatience sort avoids by keeping state as cuttable sorted runs.

use crate::merge::binary_merge;
use crate::traits::{OnlineSorter, SortAlgorithm};
use impatience_core::{EventTimed, Timestamp};

/// Wraps a [`SortAlgorithm`] into an [`OnlineSorter`].
pub struct CutBuffer<T, A> {
    /// Sorted buffer with an advancing head (emitted prefix).
    sorted: Vec<T>,
    head: usize,
    /// Out-of-order arrivals since the last punctuation.
    unsorted: Vec<T>,
    last_punctuation: Timestamp,
    _alg: core::marker::PhantomData<A>,
}

impl<T: EventTimed + Clone, A: SortAlgorithm> CutBuffer<T, A> {
    /// An empty adapter around algorithm `A`.
    pub fn new() -> Self {
        CutBuffer {
            sorted: Vec::new(),
            head: 0,
            unsorted: Vec::new(),
            last_punctuation: Timestamp::MIN,
            _alg: core::marker::PhantomData,
        }
    }

    fn compact(&mut self) {
        if self.head >= 64 && self.head * 2 >= self.sorted.len() {
            // Reallocate to the live length so the bytes really come back.
            self.sorted = self.sorted[self.head..].to_vec();
            self.head = 0;
        }
    }
}

impl<T: EventTimed + Clone, A: SortAlgorithm> Default for CutBuffer<T, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: EventTimed + Clone + Send, A: SortAlgorithm + Send> OnlineSorter<T> for CutBuffer<T, A> {
    fn push(&mut self, item: T) {
        debug_assert!(item.event_time() > self.last_punctuation);
        self.unsorted.push(item);
    }

    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<T>) {
        debug_assert!(t >= self.last_punctuation);
        self.last_punctuation = t;
        if !self.unsorted.is_empty() {
            // Sort the newcomers with the wrapped algorithm...
            A::sort(&mut self.unsorted);
            // ...and merge them into the sorted buffer. Only the suffix at
            // or above the earliest newcomer is rewritten: for prompt data
            // that suffix is short, but a deeply late newcomer forces a
            // rewrite of nearly the whole buffered volume — the adapter's
            // fundamental cost, which grows with the buffered volume
            // (Fig 8's real-dataset gap).
            let newly = core::mem::take(&mut self.unsorted);
            let min_new = newly[0].event_time();
            let cut =
                self.head + self.sorted[self.head..].partition_point(|x| x.event_time() <= min_new);
            let tail = self.sorted.split_off(cut);
            let merged = binary_merge(tail, newly);
            self.sorted.extend(merged);
        }
        // Emit the prefix at or before the punctuation.
        let live = &self.sorted[self.head..];
        let cnt = live.partition_point(|x| x.event_time() <= t);
        if cnt > 0 {
            out.extend_from_slice(&live[..cnt]);
            self.head += cnt;
            self.compact();
        }
    }

    fn buffered_len(&self) -> usize {
        (self.sorted.len() - self.head) + self.unsorted.len()
    }

    fn state_bytes(&self) -> usize {
        self.buffered_len() * core::mem::size_of::<T>()
    }

    fn capacity_bytes(&self) -> usize {
        (self.sorted.capacity() + self.unsorted.capacity()) * core::mem::size_of::<T>()
    }

    fn name(&self) -> &'static str {
        A::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heapsort::HeapsortAlgorithm;
    use crate::patience::PatienceAlgorithm;
    use crate::quicksort::QuicksortAlgorithm;
    use crate::timsort::TimsortAlgorithm;
    use crate::traits::assert_sorted_until;

    fn exercise<A: SortAlgorithm + Send>() {
        let data: Vec<i64> = (0..2500).map(|i| (i * 7919) % 1300 + i / 100).collect();
        let mut s: CutBuffer<i64, A> = CutBuffer::new();
        let mut out = Vec::new();
        let mut accepted = Vec::new();
        let mut wm = i64::MIN;
        for (i, &x) in data.iter().enumerate() {
            if x > wm {
                s.push(x);
                accepted.push(x);
            }
            if i % 200 == 199 {
                let p = accepted.iter().copied().max().unwrap() - 400;
                if p > wm {
                    wm = p;
                    s.punctuate(Timestamp::new(p), &mut out);
                    assert_sorted_until(&out, Timestamp::new(p));
                }
            }
        }
        s.drain_all(&mut out);
        let mut expect = accepted;
        expect.sort_unstable();
        assert_eq!(out, expect, "{}", A::NAME);
    }

    #[test]
    fn quicksort_adapter() {
        exercise::<QuicksortAlgorithm>();
    }

    #[test]
    fn timsort_adapter() {
        exercise::<TimsortAlgorithm>();
    }

    #[test]
    fn patience_adapter() {
        exercise::<PatienceAlgorithm>();
    }

    #[test]
    fn heapsort_adapter() {
        exercise::<HeapsortAlgorithm>();
    }

    #[test]
    fn punctuate_without_data() {
        let mut s: CutBuffer<i64, QuicksortAlgorithm> = CutBuffer::new();
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(5), &mut out);
        assert!(out.is_empty());
        assert_eq!(s.buffered_len(), 0);
        assert_eq!(s.name(), "Quicksort");
    }

    #[test]
    fn emits_inclusive_prefix() {
        let mut s: CutBuffer<i64, TimsortAlgorithm> = CutBuffer::new();
        let mut out = Vec::new();
        for x in [5i64, 3, 5, 8] {
            s.push(x);
        }
        s.punctuate(Timestamp::new(5), &mut out);
        assert_eq!(out, vec![3, 5, 5]);
        assert_eq!(s.buffered_len(), 1);
        // Events may keep arriving after a flush.
        s.push(6);
        s.drain_all(&mut out);
        assert_eq!(out, vec![3, 5, 5, 6, 8]);
    }

    #[test]
    fn state_shrinks_after_compaction() {
        let mut s: CutBuffer<i64, QuicksortAlgorithm> = CutBuffer::new();
        let mut out = Vec::new();
        for x in 0..1000i64 {
            s.push(x);
        }
        s.punctuate(Timestamp::new(899), &mut out);
        assert_eq!(out.len(), 900);
        assert_eq!(s.buffered_len(), 100);
    }
}
