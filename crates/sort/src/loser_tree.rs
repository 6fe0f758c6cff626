//! Streaming k-way loser-tree merge over fallible sources.
//!
//! The external sorter ([`crate::external`]) merges a mix of in-memory head
//! runs and on-disk run files whose readers do I/O and verify checksums, so
//! every pull can fail with a typed [`StreamError`]. [`StreamingLoserTree`]
//! is the workspace's one loser tree, built over that pull model: `k`
//! sources (run files, or infallible [`VecSource`]s over head runs) are
//! merged with `⌈log₂ k⌉` comparisons per emitted item, errors propagate out of
//! [`pop`](StreamingLoserTree::pop) instead of aborting, and ties are broken
//! by source index so the merge is deterministic and stable toward
//! earlier sources.

use impatience_core::StreamError;

/// A pull source of items in nondecreasing key order.
///
/// `next` returns `Ok(None)` at exhaustion; a typed error is terminal for
/// the merge that owns the source.
pub trait MergeSource {
    /// The item type produced.
    type Item;
    /// Pulls the next item.
    fn next(&mut self) -> Result<Option<Self::Item>, StreamError>;
}

/// An infallible in-memory source: any iterator of already-sorted items.
#[derive(Debug)]
pub struct VecSource<T>(pub std::vec::IntoIter<T>);

impl<T> VecSource<T> {
    /// Wraps a sorted vector.
    pub fn new(items: Vec<T>) -> Self {
        VecSource(items.into_iter())
    }
}

impl<T> MergeSource for VecSource<T> {
    type Item = T;
    fn next(&mut self) -> Result<Option<T>, StreamError> {
        Ok(self.0.next())
    }
}

/// A k-way merge over fallible [`MergeSource`]s, keyed by `key`.
///
/// The classic tournament loser tree: internal node `i` holds the loser of
/// the match played there, `tree[0]` holds the overall winner. After a pop
/// only the path from the winner's leaf to the root is replayed.
pub struct StreamingLoserTree<S, K, F>
where
    S: MergeSource,
    K: Ord + Copy,
    F: Fn(&S::Item) -> K,
{
    sources: Vec<S>,
    /// Current head of each source, with its cached key. `None` = exhausted
    /// (compares as `+∞`).
    heads: Vec<Option<(K, S::Item)>>,
    /// `tree[0]` is the winner; `tree[1..k]` hold losers.
    tree: Vec<usize>,
    key: F,
}

impl<S, K, F> StreamingLoserTree<S, K, F>
where
    S: MergeSource,
    K: Ord + Copy,
    F: Fn(&S::Item) -> K,
{
    /// Builds the tree, pulling one item from every source. A source error
    /// during priming is returned immediately.
    pub fn new(mut sources: Vec<S>, key: F) -> Result<Self, StreamError> {
        let k = sources.len();
        let mut heads = Vec::with_capacity(k);
        for s in &mut sources {
            heads.push(s.next()?.map(|item| ((key)(&item), item)));
        }
        let mut lt = StreamingLoserTree {
            sources,
            heads,
            tree: vec![usize::MAX; k.max(1)],
            key,
        };
        for i in 0..k {
            lt.adjust_initial(i);
        }
        Ok(lt)
    }

    /// True if source `a`'s head wins against source `b`'s (smaller key
    /// first; exhausted sources lose; ties go to the lower source index,
    /// which makes the merge stable toward earlier sources).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some((ka, _)), Some((kb, _))) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    fn adjust_initial(&mut self, leaf: usize) {
        let k = self.sources.len();
        let mut s = leaf;
        let mut node = (k + leaf) / 2;
        while node > 0 {
            if self.tree[node] == usize::MAX {
                // No opponent yet: park here and wait for one.
                self.tree[node] = s;
                return;
            }
            if self.beats(self.tree[node], s) {
                core::mem::swap(&mut self.tree[node], &mut s);
            }
            node /= 2;
        }
        self.tree[0] = s;
    }

    /// Replays matches from `leaf` to the root after its head changed.
    fn replay(&mut self, leaf: usize) {
        let k = self.sources.len();
        let mut s = leaf;
        let mut node = (k + leaf) / 2;
        while node > 0 {
            if self.beats(self.tree[node], s) {
                core::mem::swap(&mut self.tree[node], &mut s);
            }
            node /= 2;
        }
        self.tree[0] = s;
    }

    /// Removes and returns the smallest head across all sources, or
    /// `Ok(None)` when every source is exhausted. A refill error is
    /// terminal: the tree must not be popped again after it.
    pub fn pop(&mut self) -> Result<Option<S::Item>, StreamError> {
        if self.sources.is_empty() {
            return Ok(None);
        }
        let w = self.tree[0];
        let Some((_, item)) = self.heads[w].take() else {
            return Ok(None);
        };
        self.heads[w] = self.sources[w].next()?.map(|it| ((self.key)(&it), it));
        self.replay(w);
        Ok(Some(item))
    }

    /// Gives the sources back (e.g. to harvest per-source read state after
    /// the merge completes).
    pub fn into_sources(self) -> Vec<S> {
        self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges all sources to completion into a vector.
    fn merge_sources<S, K, F>(sources: Vec<S>, key: F) -> Result<Vec<S::Item>, StreamError>
    where
        S: MergeSource,
        K: Ord + Copy,
        F: Fn(&S::Item) -> K,
    {
        let mut tree = StreamingLoserTree::new(sources, key)?;
        let mut out = Vec::new();
        while let Some(item) = tree.pop()? {
            out.push(item);
        }
        Ok(out)
    }

    /// A source that fails after yielding `ok` items.
    struct Flaky {
        left: usize,
        v: i64,
    }
    impl MergeSource for Flaky {
        type Item = i64;
        fn next(&mut self) -> Result<Option<i64>, StreamError> {
            if self.left == 0 {
                return Err(StreamError::SpillFailed {
                    detail: "flaky source".into(),
                });
            }
            self.left -= 1;
            self.v += 1;
            Ok(Some(self.v))
        }
    }

    #[test]
    fn merges_sorted_sources() {
        for k in [0usize, 1, 2, 3, 5, 8, 13] {
            let sources: Vec<VecSource<i64>> = (0..k)
                .map(|i| VecSource::new((0..20).map(|j| (j * k + i) as i64).collect()))
                .collect();
            let out = merge_sources(sources, |&x| x).unwrap();
            let expect: Vec<i64> = (0..(20 * k) as i64).collect();
            assert_eq!(out, expect, "k={k}");
        }
    }

    #[test]
    fn ties_are_stable_toward_earlier_sources() {
        let sources = vec![
            VecSource::new(vec![(5i64, 'a'), (7, 'a')]),
            VecSource::new(vec![(5i64, 'b'), (7, 'b')]),
            VecSource::new(vec![(5i64, 'c')]),
        ];
        let out = merge_sources(sources, |&(k, _)| k).unwrap();
        let tags: Vec<char> = out.iter().map(|&(_, c)| c).collect();
        assert_eq!(tags, vec!['a', 'b', 'c', 'a', 'b']);
    }

    #[test]
    fn uneven_and_empty_sources() {
        let sources = vec![
            VecSource::new(vec![]),
            VecSource::new(vec![1i64, 4, 9]),
            VecSource::new(vec![2]),
            VecSource::new(vec![]),
            VecSource::new(vec![3, 5]),
        ];
        let out = merge_sources(sources, |&x| x).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 9]);
    }

    #[test]
    fn source_error_propagates_typed() {
        let sources = vec![
            Flaky { left: 2, v: 0 },
            Flaky {
                left: usize::MAX,
                v: 100,
            },
        ];
        let mut tree = StreamingLoserTree::new(sources, |&x| x).unwrap();
        let mut n = 0;
        let err = loop {
            match tree.pop() {
                Ok(Some(_)) => n += 1,
                Ok(None) => panic!("flaky source must fail before exhaustion"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StreamError::SpillFailed { .. }));
        assert!(n >= 1, "items before the fault still came out: {n}");
    }

    #[test]
    fn priming_error_propagates() {
        let sources = vec![Flaky { left: 0, v: 0 }];
        assert!(StreamingLoserTree::new(sources, |&x: &i64| x).is_err());
    }
}
