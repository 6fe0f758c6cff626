//! Offline Patience sort (§III-B).
//!
//! The classic two-phase algorithm: **partition** the input into sorted runs
//! (each element appended to the first run whose tail `<= x`, found by
//! binary search over the strictly descending tails), then **merge** all
//! runs. Following Chandramouli & Goldstein (SIGMOD 2014), the merge is
//! Huffman-ordered binary merges rather than a heap.

use crate::merge::{merge_runs, MergePolicy};
use crate::runset::RunSet;
use crate::traits::SortAlgorithm;
use impatience_core::{EventTimed, Timestamp};

/// Offline Patience sort with Huffman merges.
#[derive(Debug, Clone, Copy)]
pub struct PatienceSort;

impl PatienceSort {
    /// Sorts `items`, returning the sorted vector and the number of runs
    /// the partition phase created (the paper's `k`).
    pub fn sort_counting_runs<T: EventTimed + Clone>(items: Vec<T>) -> (Vec<T>, usize) {
        let mut rs: RunSet<T> = RunSet::new(false);
        for item in items {
            rs.insert(item);
        }
        let k = rs.run_count();
        let runs = rs.cut_heads(Timestamp::MAX);
        (merge_runs(runs, MergePolicy::Huffman), k)
    }

    /// Runs only the partition phase, returning the run count — used by the
    /// Fig 5 experiment and the Proposition 3.1–3.3 property tests.
    pub fn partition_run_count<T: EventTimed + Clone>(items: &[T]) -> usize {
        let mut rs: RunSet<T> = RunSet::new(false);
        for item in items {
            rs.insert(item.clone());
        }
        rs.run_count()
    }
}

/// `SortAlgorithm` adapter: Patience sort with Huffman binary merges.
pub struct PatienceAlgorithm;

impl SortAlgorithm for PatienceAlgorithm {
    const NAME: &'static str = "Patience";

    fn sort<T: EventTimed + Clone>(items: &mut Vec<T>) {
        let taken = core::mem::take(items);
        let (sorted, _) = PatienceSort::sort_counting_runs(taken);
        *items = sorted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::sort_with;

    #[test]
    fn paper_example_runs_and_order() {
        let v = vec![2i64, 6, 5, 1, 4, 3, 7, 8];
        let (sorted, k) = PatienceSort::sort_counting_runs(v);
        assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(k, 4, "Fig 3 creates exactly 4 runs");
    }

    #[test]
    fn sorts_a_scrambled_input() {
        let data: Vec<i64> = (0..3000).map(|i| (i * 7919) % 2011).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let (sorted, _) = PatienceSort::sort_counting_runs(data);
        assert_eq!(sorted, expect);
    }

    #[test]
    fn proposition_3_2_distinct_timestamps_bound() {
        // k <= number of distinct values.
        let data: Vec<i64> = (0..500).map(|i| (i * 13) % 7).collect();
        let k = PatienceSort::partition_run_count(&data);
        assert!(k <= 7, "k={k} exceeds distinct-value bound");
    }

    #[test]
    fn proposition_3_3_natural_runs_bound() {
        let data: Vec<i64> = (0..400).map(|i| (i * 29) % 113).collect();
        let natural = 1 + data.windows(2).filter(|w| w[0] > w[1]).count();
        let k = PatienceSort::partition_run_count(&data);
        assert!(k <= natural, "k={k} exceeds natural-run bound {natural}");
    }

    #[test]
    fn sorted_input_is_single_run() {
        let data: Vec<i64> = (0..100).collect();
        assert_eq!(PatienceSort::partition_run_count(&data), 1);
        let data: Vec<i64> = (0..100).rev().collect();
        assert_eq!(PatienceSort::partition_run_count(&data), 100);
    }

    #[test]
    fn algorithm_adapter() {
        let sorted = sort_with::<PatienceAlgorithm, i64>(vec![3, 1, 2]);
        assert_eq!(sorted, vec![1, 2, 3]);
        assert_eq!(PatienceAlgorithm::NAME, "Patience");
        let empty = sort_with::<PatienceAlgorithm, i64>(vec![]);
        assert!(empty.is_empty());
    }
}
