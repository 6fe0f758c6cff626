//! # impatience-sort
//!
//! The sorting layer of the Impatience stack: **Impatience sort** (§III of
//! the ICDE 2018 paper) and every baseline it is evaluated against.
//!
//! * [`ImpatienceSorter`] — online Patience sort with head-run cut-off,
//!   Huffman merge (§III-E1) and speculative run selection (§III-E2);
//! * [`PatienceSort`] / [`PatienceAlgorithm`] — the offline ancestor;
//! * [`QuicksortAlgorithm`], [`TimsortAlgorithm`], [`HeapsortAlgorithm`] —
//!   from-scratch baselines (Fig 7/8);
//! * [`CutBuffer`] — the §VI-B sorted-buffer/unsorted-buffer adapter that
//!   turns any offline algorithm into an incremental one;
//! * [`HeapSorter`] — the priority-queue incremental sorter of
//!   first-generation SPEs;
//! * [`BucketSorter`] — one bucket per distinct time, for input a tumbling
//!   window below the sort has already aligned (§IV): the [`BucketGrid`]
//!   over buckets that keep their items, which the engine's fused ladder
//!   rungs run over group tables instead;
//! * [`merge`] — binary / Huffman run merging; [`loser_tree`] — the
//!   fallible k-way merge the external sorter runs over spilled runs.
//!
//! ```
//! use impatience_core::Timestamp;
//! use impatience_sort::{ImpatienceSorter, OnlineSorter};
//!
//! let mut sorter: ImpatienceSorter<i64> = ImpatienceSorter::new();
//! for t in [3, 1, 4, 1, 5, 9, 2, 6] { sorter.push(t); }
//! let mut out = Vec::new();
//! sorter.punctuate(Timestamp::new(4), &mut out);
//! assert_eq!(out, vec![1, 1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bucket;
pub mod buckets;
pub mod external;
pub mod gauges;
pub mod heapsort;
pub mod impatience;
pub mod incremental;
pub mod loser_tree;
pub mod merge;
pub mod patience;
pub mod quicksort;
pub mod runset;
pub mod tiered;
pub mod timsort;
pub mod traits;

pub use bucket::BucketSorter;
pub use buckets::{Bucket, BucketGrid};
pub use external::{
    ExternalImpatienceSorter, ExternalSortConfig, SpillStats, Tagged, RUN_MAGIC, RUN_VERSION,
};
pub use gauges::SorterGauges;
pub use heapsort::{heapsort, HeapSorter, HeapsortAlgorithm};
pub use impatience::{ImpatienceConfig, ImpatienceSorter};
pub use incremental::CutBuffer;
pub use loser_tree::{MergeSource, StreamingLoserTree, VecSource};
pub use merge::{binary_merge, merge_into, merge_runs, MergePolicy};
pub use patience::{PatienceAlgorithm, PatienceSort};
pub use quicksort::{insertion_sort, quicksort, QuicksortAlgorithm};
pub use runset::{RunSet, SortedRun};
pub use tiered::TieredMergePolicy;
pub use timsort::{timsort, TimsortAlgorithm};
pub use traits::{sort_with, OnlineSorter, SortAlgorithm};

/// The set of online sorters benchmarked in Fig 8, constructed by name.
///
/// Returns `None` for unknown names. Valid names: `"Impatience"`,
/// `"Patience"`, `"Quicksort"`, `"Timsort"`, `"Heapsort"`.
pub fn online_sorter_by_name<
    T: impatience_core::EventTimed + Clone + impatience_core::StateCodec + Send + 'static,
>(
    name: &str,
) -> Option<Box<dyn OnlineSorter<T>>> {
    match name {
        "Impatience" => Some(Box::new(ImpatienceSorter::new())),
        "Patience" => Some(Box::new(CutBuffer::<T, PatienceAlgorithm>::new())),
        "Quicksort" => Some(Box::new(CutBuffer::<T, QuicksortAlgorithm>::new())),
        "Timsort" => Some(Box::new(CutBuffer::<T, TimsortAlgorithm>::new())),
        "Heapsort" => Some(Box::new(HeapSorter::new())),
        _ => None,
    }
}

/// Names accepted by [`online_sorter_by_name`], in the paper's legend order.
pub const ONLINE_SORTER_NAMES: [&str; 5] =
    ["Impatience", "Patience", "Quicksort", "Timsort", "Heapsort"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorter_factory() {
        for name in ONLINE_SORTER_NAMES {
            let s = online_sorter_by_name::<i64>(name).unwrap();
            assert_eq!(s.name(), name);
        }
        assert!(online_sorter_by_name::<i64>("Bogosort").is_none());
    }

    #[test]
    fn factory_sorters_agree() {
        let data: Vec<i64> = (0..1000).map(|i| (i * 31) % 400 + 50).collect();
        let mut outputs = Vec::new();
        for name in ONLINE_SORTER_NAMES {
            let mut s = online_sorter_by_name::<i64>(name).unwrap();
            let mut out = Vec::new();
            for &x in &data {
                s.push(x);
            }
            s.punctuate(impatience_core::Timestamp::new(200), &mut out);
            s.drain_all(&mut out);
            outputs.push(out);
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
