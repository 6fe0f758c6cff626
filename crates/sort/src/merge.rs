//! Run-merging machinery.
//!
//! Three strategies for merging `k` sorted runs into one:
//!
//! * [`MergePolicy::Huffman`] — the paper's §III-E1 optimization: binary-
//!   merge the two *smallest* runs first. With the run-size skew typical of
//!   nearly sorted data, this minimizes total element moves; the reduction
//!   to Huffman coding makes it optimal among binary merge trees.
//! * [`MergePolicy::Sequential`] — balanced pairwise merge rounds in
//!   arrival order; the natural "no optimization" baseline.
//! * [`MergePolicy::LoserTree`] — classic heap-style k-way merge in a
//!   single pass, the strategy traditional Patience sort used before
//!   Chandramouli & Goldstein's SIGMOD 2014 paper showed binary merges win
//!   on modern CPUs.

use crate::loser_tree::{merge_sources, VecSource};
use impatience_core::EventTimed;
use std::collections::BinaryHeap;

/// Strategy for merging a set of sorted runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Merge the two smallest runs first (Huffman-optimal binary tree).
    #[default]
    Huffman,
    /// Balanced pairwise rounds in arrival order (`O(n log k)` but blind
    /// to run sizes) — the honest "no Huffman optimization" baseline.
    Sequential,
    /// Single-pass k-way merge with a loser tree.
    LoserTree,
}

impl MergePolicy {
    /// Human-readable name for ablation tables.
    pub fn name(self) -> &'static str {
        match self {
            MergePolicy::Huffman => "huffman",
            MergePolicy::Sequential => "sequential",
            MergePolicy::LoserTree => "loser-tree",
        }
    }
}

/// Merges two sorted vectors into one sorted vector.
///
/// Ties favour `a` (stable with respect to the run order). The inner loop
/// gallops: it finds each winning *stretch* with an exponential probe +
/// binary search and copies it with `extend_from_slice`, so merging runs
/// with locality (the normal case for nearly sorted log data) approaches
/// memcpy speed.
pub fn binary_merge<T: EventTimed + Clone>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    // Fast path: already concatenable (frequent under Huffman merging of
    // head runs cut at the same punctuation).
    if a.last().unwrap().event_time() <= b.first().unwrap().event_time() {
        let mut a = a;
        a.extend(b);
        return a;
    }
    if b.last().unwrap().event_time() < a.first().unwrap().event_time() {
        let mut b = b;
        b.extend(a);
        return b;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    merge_into(&a, &b, &mut out);
    out
}

/// Consecutive one-side wins before the merge switches to galloping.
const MIN_GALLOP: usize = 7;

/// Merges two sorted slices, appending to `out`. Ties favour `a`.
///
/// Adaptive, timsort-style: a tight element-wise loop handles finely
/// interleaved data; after [`MIN_GALLOP`] consecutive wins by one side it
/// switches to exponential search + bulk `extend_from_slice`, so runs with
/// long winning stretches merge at memcpy speed.
pub fn merge_into<T: EventTimed + Clone>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let (mut wins_a, mut wins_b) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if wins_a >= MIN_GALLOP {
            let key = b[j].event_time();
            let k = gallop(&a[i..], |x| x.event_time() <= key);
            out.extend_from_slice(&a[i..i + k]);
            i += k;
            if k < MIN_GALLOP {
                wins_a = 0;
            }
            if i < a.len() {
                out.push(b[j].clone());
                j += 1;
            }
        } else if wins_b >= MIN_GALLOP {
            let key = a[i].event_time();
            let k = gallop(&b[j..], |x| x.event_time() < key);
            out.extend_from_slice(&b[j..j + k]);
            j += k;
            if k < MIN_GALLOP {
                wins_b = 0;
            }
            if j < b.len() {
                out.push(a[i].clone());
                i += 1;
            }
        } else if a[i].event_time() <= b[j].event_time() {
            out.push(a[i].clone());
            i += 1;
            wins_a += 1;
            wins_b = 0;
        } else {
            out.push(b[j].clone());
            j += 1;
            wins_b += 1;
            wins_a = 0;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Length of the maximal prefix of `run` satisfying `pred`, found by an
/// exponential probe followed by a binary search of the last octave.
/// `pred` must be monotone (true-prefix).
#[inline]
fn gallop<T>(run: &[T], pred: impl Fn(&T) -> bool) -> usize {
    if run.is_empty() || !pred(&run[0]) {
        return 0;
    }
    let n = run.len();
    let mut prev = 0usize;
    let mut probe = 1usize;
    while probe < n && pred(&run[probe]) {
        prev = probe;
        probe = probe * 2 + 1;
    }
    let hi = probe.min(n);
    prev + 1 + run[prev + 1..hi].partition_point(|x| pred(x))
}

/// Merges `runs` (each sorted) into a single sorted vector using `policy`.
pub fn merge_runs<T: EventTimed + Clone>(runs: Vec<Vec<T>>, policy: MergePolicy) -> Vec<T> {
    let mut runs: Vec<Vec<T>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    match runs.len() {
        0 => return Vec::new(),
        1 => return runs.pop().unwrap(),
        _ => {}
    }
    match policy {
        MergePolicy::Huffman => huffman_merge(runs),
        MergePolicy::Sequential => balanced_rounds(runs),
        MergePolicy::LoserTree => loser_tree_merge(runs),
    }
}

/// Balanced pairwise rounds over a ping-pong slab: all runs are laid out
/// contiguously and each round merges adjacent segment pairs into the
/// other slab. Two allocations total regardless of `k`.
fn balanced_rounds<T: EventTimed + Clone>(runs: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut a: Vec<T> = Vec::with_capacity(total);
    let mut bounds: Vec<usize> = Vec::with_capacity(runs.len() + 1);
    bounds.push(0);
    for r in runs {
        a.extend(r);
        bounds.push(a.len());
    }
    let mut b: Vec<T> = Vec::with_capacity(total);
    while bounds.len() > 2 {
        b.clear();
        let mut next_bounds = Vec::with_capacity(bounds.len() / 2 + 2);
        next_bounds.push(0);
        let mut i = 0;
        while i + 2 < bounds.len() {
            merge_into(
                &a[bounds[i]..bounds[i + 1]],
                &a[bounds[i + 1]..bounds[i + 2]],
                &mut b,
            );
            next_bounds.push(b.len());
            i += 2;
        }
        if i + 1 < bounds.len() {
            b.extend_from_slice(&a[bounds[i]..bounds[i + 1]]);
            next_bounds.push(b.len());
        }
        core::mem::swap(&mut a, &mut b);
        bounds = next_bounds;
    }
    a
}

/// Huffman merge: repeatedly binary-merge the two shortest runs. Freed run
/// storage is pooled and reused, so allocator traffic stays constant in
/// `k`.
fn huffman_merge<T: EventTimed + Clone>(runs: Vec<Vec<T>>) -> Vec<T> {
    // Min-heap by length. BinaryHeap is a max-heap, so store negated sizes
    // via Reverse-style wrapper over (len, tie-break id).
    struct Entry<T> {
        len: usize,
        id: usize,
        run: Vec<T>,
    }
    impl<T> PartialEq for Entry<T> {
        fn eq(&self, o: &Self) -> bool {
            self.len == o.len && self.id == o.id
        }
    }
    impl<T> Eq for Entry<T> {}
    impl<T> PartialOrd for Entry<T> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl<T> Ord for Entry<T> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on id for determinism.
            o.len.cmp(&self.len).then(o.id.cmp(&self.id))
        }
    }

    let mut next_id = runs.len();
    let mut heap: BinaryHeap<Entry<T>> = runs
        .into_iter()
        .enumerate()
        .map(|(id, run)| Entry {
            len: run.len(),
            id,
            run,
        })
        .collect();
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        // Concat fast paths reuse an input's storage directly.
        let merged = if a.run.last().unwrap().event_time() <= b.run[0].event_time() {
            let mut m = a.run;
            m.extend_from_slice(&b.run);
            m
        } else if b.run.last().unwrap().event_time() < a.run[0].event_time() {
            let mut m = b.run;
            m.extend_from_slice(&a.run);
            m
        } else {
            let mut out = Vec::with_capacity(a.run.len() + b.run.len());
            merge_into(&a.run, &b.run, &mut out);
            out
        };
        heap.push(Entry {
            len: merged.len(),
            id: next_id,
            run: merged,
        });
        next_id += 1;
    }
    heap.pop().map(|e| e.run).unwrap_or_default()
}

/// A loser-tree (tournament) k-way merge: the streaming tree of
/// [`crate::loser_tree`] over in-memory sources, which cannot fail. Each
/// output element costs `⌈log₂ k⌉` comparisons and is moved, not cloned;
/// ties go to the lower run index.
fn loser_tree_merge<T: EventTimed>(runs: Vec<Vec<T>>) -> Vec<T> {
    let sources = runs.into_iter().map(VecSource::new).collect();
    merge_sources(sources, T::event_time).expect("in-memory sources cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: &[i64]) -> Vec<i64> {
        v.to_vec()
    }

    #[test]
    fn binary_merge_basic() {
        assert_eq!(
            binary_merge(ts(&[1, 3, 5]), ts(&[2, 4, 6])),
            vec![1, 2, 3, 4, 5, 6]
        );
        assert_eq!(binary_merge(ts(&[]), ts(&[1])), vec![1]);
        assert_eq!(binary_merge(ts(&[1]), ts(&[])), vec![1]);
    }

    #[test]
    fn binary_merge_concat_fast_paths() {
        assert_eq!(binary_merge(ts(&[1, 2]), ts(&[2, 3])), vec![1, 2, 2, 3]);
        assert_eq!(binary_merge(ts(&[5, 6]), ts(&[1, 2])), vec![1, 2, 5, 6]);
    }

    #[test]
    fn binary_merge_is_stable_towards_a() {
        // Events with equal times: a's must come first.
        let a = vec![(1i64, 'a'), (2, 'a')];
        let b = vec![(1i64, 'b'), (3, 'b')];
        let m = binary_merge(a, b);
        assert_eq!(m, vec![(1, 'a'), (1, 'b'), (2, 'a'), (3, 'b')]);
    }

    fn check_all_policies(runs: Vec<Vec<i64>>) {
        let mut expect: Vec<i64> = runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        for policy in [
            MergePolicy::Huffman,
            MergePolicy::Sequential,
            MergePolicy::LoserTree,
        ] {
            let got = merge_runs(runs.clone(), policy);
            assert_eq!(got, expect, "policy {policy:?}");
        }
    }

    #[test]
    fn merge_runs_policies_agree() {
        check_all_policies(vec![]);
        check_all_policies(vec![vec![1, 2, 3]]);
        check_all_policies(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        check_all_policies(vec![vec![], vec![5], vec![1, 9], vec![]]);
        check_all_policies(vec![
            vec![1; 5],
            vec![1, 1, 2],
            (0..100).collect(),
            vec![50],
        ]);
    }

    #[test]
    fn merge_runs_skewed_sizes() {
        // The Huffman case that matters: one giant run + many tiny ones.
        let mut runs = vec![(0..1000).map(|i| i * 2).collect::<Vec<i64>>()];
        for i in 0..20 {
            runs.push(vec![i * 97 + 1]);
        }
        check_all_policies(runs);
    }

    #[test]
    fn loser_tree_single_run() {
        let out = loser_tree_merge(vec![vec![1i64, 2, 3]]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn loser_tree_empty() {
        let out: Vec<i64> = loser_tree_merge(vec![]);
        assert!(out.is_empty());
        let out: Vec<i64> = loser_tree_merge(vec![vec![], vec![]]);
        assert!(out.is_empty());
    }

    #[test]
    fn loser_tree_many_runs() {
        let runs: Vec<Vec<i64>> = (0..17)
            .map(|r| (0..50).map(|i| (i * 17 + r) as i64).collect())
            .collect();
        let mut expect: Vec<i64> = runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        assert_eq!(loser_tree_merge(runs), expect);
    }

    #[test]
    fn policy_names() {
        assert_eq!(MergePolicy::Huffman.name(), "huffman");
        assert_eq!(MergePolicy::Sequential.name(), "sequential");
        assert_eq!(MergePolicy::LoserTree.name(), "loser-tree");
        assert_eq!(MergePolicy::default(), MergePolicy::Huffman);
    }
}
