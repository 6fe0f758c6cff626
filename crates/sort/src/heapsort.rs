//! Heapsort baseline.
//!
//! Two faces, matching the paper's usage:
//!
//! * [`heapsort`] — in-place sift-down heapsort for the offline comparison
//!   of Fig 7 (the "not adaptive, flat line" series);
//! * [`HeapSorter`] — a priority-queue incremental sorter, "the sorting
//!   method used in today's stream processing engines" (§I, §III-A,
//!   StreamInsight's approach): push into a min-heap, pop everything
//!   `<= T` on punctuation. Naturally incremental, but every element pays
//!   `O(log n)` heap traffic and the cache misses that Fig 7/8 show.

use crate::traits::{OnlineSorter, SortAlgorithm};
use impatience_core::{EventTimed, Timestamp};
use std::collections::BinaryHeap;

/// In-place heapsort by event time. Not stable.
pub fn heapsort<T: EventTimed>(a: &mut [T]) {
    let n = a.len();
    if n < 2 {
        return;
    }
    // Build max-heap.
    for i in (0..n / 2).rev() {
        sift_down(a, i, n);
    }
    // Pop max to the end repeatedly.
    for end in (1..n).rev() {
        a.swap(0, end);
        sift_down(a, 0, end);
    }
}

fn sift_down<T: EventTimed>(a: &mut [T], mut root: usize, end: usize) {
    loop {
        let left = 2 * root + 1;
        if left >= end {
            return;
        }
        let right = left + 1;
        let mut largest = root;
        if a[left].event_time() > a[largest].event_time() {
            largest = left;
        }
        if right < end && a[right].event_time() > a[largest].event_time() {
            largest = right;
        }
        if largest == root {
            return;
        }
        a.swap(root, largest);
        root = largest;
    }
}

/// `SortAlgorithm` adapter for the offline benchmarks.
pub struct HeapsortAlgorithm;

impl SortAlgorithm for HeapsortAlgorithm {
    const NAME: &'static str = "Heapsort";

    fn sort<T: EventTimed + Clone>(items: &mut Vec<T>) {
        heapsort(items);
    }
}

/// Heap entry ordered by (event time, insertion sequence) — the sequence
/// number makes the pop order deterministic and FIFO among equal times
/// without requiring `T: Ord`.
struct HeapItem<T> {
    ts: Timestamp,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, o: &Self) -> bool {
        self.ts == o.ts && self.seq == o.seq
    }
}
impl<T> Eq for HeapItem<T> {}
impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, o: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<T> Ord for HeapItem<T> {
    fn cmp(&self, o: &Self) -> core::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-first.
        (o.ts, o.seq).cmp(&(self.ts, self.seq))
    }
}

/// The priority-queue incremental sorter used by first-generation SPEs.
pub struct HeapSorter<T> {
    heap: BinaryHeap<HeapItem<T>>,
    seq: u64,
    last_punctuation: Timestamp,
}

impl<T: EventTimed> HeapSorter<T> {
    /// An empty heap sorter.
    pub fn new() -> Self {
        HeapSorter {
            heap: BinaryHeap::new(),
            seq: 0,
            last_punctuation: Timestamp::MIN,
        }
    }
}

impl<T: EventTimed> Default for HeapSorter<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: EventTimed + Clone + Send> OnlineSorter<T> for HeapSorter<T> {
    fn push(&mut self, item: T) {
        debug_assert!(item.event_time() > self.last_punctuation);
        let ts = item.event_time();
        self.heap.push(HeapItem {
            ts,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<T>) {
        debug_assert!(t >= self.last_punctuation);
        self.last_punctuation = t;
        while let Some(top) = self.heap.peek() {
            if top.ts > t {
                break;
            }
            out.push(self.heap.pop().unwrap().item);
        }
    }

    fn buffered_len(&self) -> usize {
        self.heap.len()
    }

    fn state_bytes(&self) -> usize {
        self.heap.len() * core::mem::size_of::<HeapItem<T>>()
    }

    fn capacity_bytes(&self) -> usize {
        self.heap.capacity() * core::mem::size_of::<HeapItem<T>>()
    }

    fn name(&self) -> &'static str {
        "Heapsort"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_sorted_until;

    fn check(mut v: Vec<i64>) {
        let mut expect = v.clone();
        expect.sort_unstable();
        heapsort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn offline_basic_shapes() {
        check(vec![]);
        check(vec![1]);
        check(vec![2, 1]);
        check((0..1000).collect());
        check((0..1000).rev().collect());
        check((0..5000).map(|i| (i * 7919) % 2017).collect());
        check(vec![3; 100]);
    }

    #[test]
    fn online_incremental_flush() {
        let mut s: HeapSorter<i64> = HeapSorter::new();
        let mut out = Vec::new();
        for x in [5i64, 1, 9, 3, 7] {
            s.push(x);
        }
        s.punctuate(Timestamp::new(5), &mut out);
        assert_eq!(out, vec![1, 3, 5]);
        assert_eq!(s.buffered_len(), 2);
        s.drain_all(&mut out);
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
        assert_eq!(s.buffered_len(), 0);
    }

    #[test]
    fn online_fifo_among_equal_times() {
        let mut s: HeapSorter<(i64, u32)> = HeapSorter::new();
        let mut out = Vec::new();
        for (i, t) in [5i64, 5, 5, 2].into_iter().enumerate() {
            s.push((t, i as u32));
        }
        s.drain_all(&mut out);
        assert_eq!(out, vec![(2, 3), (5, 0), (5, 1), (5, 2)]);
    }

    #[test]
    fn online_punctuate_empty() {
        let mut s: HeapSorter<i64> = HeapSorter::new();
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(10), &mut out);
        assert!(out.is_empty());
        assert_eq!(s.name(), "Heapsort");
        assert_eq!(s.state_bytes(), 0);
    }

    #[test]
    fn online_matches_offline() {
        let data: Vec<i64> = (0..3000).map(|i| (i * 37) % 500 + 100).collect();
        let mut s: HeapSorter<i64> = HeapSorter::new();
        let mut out = Vec::new();
        for (i, &x) in data.iter().enumerate() {
            s.push(x);
            if i % 100 == 99 {
                // Punctuate below any future value to respect the contract.
                let p = Timestamp::new(99);
                s.punctuate(p, &mut out);
            }
        }
        s.drain_all(&mut out);
        assert_sorted_until(&out, Timestamp::MAX);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn algorithm_adapter() {
        let mut v = vec![9i64, 1, 5];
        HeapsortAlgorithm::sort(&mut v);
        assert_eq!(v, vec![1, 5, 9]);
        assert_eq!(HeapsortAlgorithm::NAME, "Heapsort");
    }
}
