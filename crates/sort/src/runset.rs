//! The partition-phase data structure shared by Patience and Impatience
//! sort: a set of sorted runs whose tails are strictly descending.
//!
//! Each run supports cheap **head cut-off** (§III-D): removing the prefix of
//! events `<= T` is a binary search plus an offset bump, never a data move.
//! This is the property that lets Impatience sort answer a punctuation
//! without touching the bulk of its buffered data.

use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, Timestamp,
};

/// One sorted run with an advancing head offset.
#[derive(Debug, Clone)]
pub struct SortedRun<T> {
    data: Vec<T>,
    head: usize,
}

impl<T: EventTimed> SortedRun<T> {
    /// A new run seeded with one item.
    pub fn new(first: T) -> Self {
        SortedRun {
            data: vec![first],
            head: 0,
        }
    }

    /// Appends an item; must not be smaller than the current tail.
    #[inline]
    pub fn push(&mut self, item: T) {
        debug_assert!(
            self.data
                .last()
                .is_none_or(|t| t.event_time() <= item.event_time()),
            "append would break run order"
        );
        self.data.push(item);
    }

    /// Live items in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// True when fully consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.data.len()
    }

    /// Event time of the last element (the run's *tail*).
    #[inline]
    pub fn tail_time(&self) -> Timestamp {
        debug_assert!(!self.is_empty());
        self.data[self.data.len() - 1].event_time()
    }

    /// Event time of the first live element (the run's *head*).
    #[inline]
    pub fn head_time(&self) -> Timestamp {
        debug_assert!(!self.is_empty());
        self.data[self.head].event_time()
    }

    /// Live slice view.
    #[inline]
    pub fn live(&self) -> &[T] {
        &self.data[self.head..]
    }

    /// Cuts off the head run: all live items with `event_time <= t`,
    /// returned as an owned sorted vector. `O(log n)` search + one copy of
    /// just the cut items; periodically compacts consumed storage.
    pub fn cut_head(&mut self, t: Timestamp) -> Vec<T>
    where
        T: Clone,
    {
        let live = &self.data[self.head..];
        let cnt = live.partition_point(|x| x.event_time() <= t);
        if cnt == 0 {
            return Vec::new();
        }
        // Whole-run cut (the common case for the final/∞ punctuation):
        // move the storage out instead of copying it.
        if cnt == live.len() && self.head == 0 {
            return core::mem::take(&mut self.data);
        }
        let cut = live[..cnt].to_vec();
        self.head += cnt;
        self.maybe_compact();
        cut
    }

    /// Reclaims consumed prefix storage once it dominates the allocation.
    /// Moves the live items down and shrinks to exactly the live length,
    /// so memory accounting (and the allocator) actually get the bytes
    /// back.
    fn maybe_compact(&mut self) {
        if self.head >= 64 && self.head * 2 >= self.data.len() {
            self.data.drain(..self.head);
            self.data.shrink_to_fit();
            self.head = 0;
        }
    }

    /// Removes the first `n` live items (the earliest — most severely
    /// delayed), returning them in sorted order. Unlike
    /// [`cut_head`](SortedRun::cut_head)'s lazy compaction, the storage is
    /// compacted to exactly the surviving live length unconditionally, so a
    /// partial shed frees bytes the moment it happens — the memory meter
    /// must see the reclaim, not wait for a later threshold crossing.
    pub fn shed_head(&mut self, n: usize) -> Vec<T> {
        let n = n.min(self.len());
        if n == 0 {
            return Vec::new();
        }
        let shed = self.data.drain(..self.head + n).skip(self.head).collect();
        self.head = 0;
        self.data.shrink_to_fit();
        shed
    }

    /// Bytes held (capacity-based, matching allocator behaviour).
    pub fn state_bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<T>()
    }
}

/// A set of sorted runs with the Patience invariant: tails strictly
/// descending in creation order.
///
/// `insert` implements the partition phase (§III-B) with the optional
/// **speculative run selection** optimization (§III-E2): before binary
/// searching, try the run that received the previous element — out-of-order
/// logs contain long consecutive sorted stretches (AndroidLog), making this
/// hit constantly.
#[derive(Debug)]
pub struct RunSet<T> {
    runs: Vec<SortedRun<T>>,
    /// Cached tail times, parallel to `runs`, strictly descending.
    tails: Vec<Timestamp>,
    /// Index of the run that received the last insert (speculation target).
    last_insert: usize,
    speculative: bool,
    /// Lifetime counters for ablation reporting.
    speculative_hits: u64,
    speculative_misses: u64,
    binary_searches: u64,
}

impl<T: EventTimed + Clone> RunSet<T> {
    /// An empty run set; `speculative` toggles §III-E2.
    pub fn new(speculative: bool) -> Self {
        RunSet {
            runs: Vec::new(),
            tails: Vec::new(),
            last_insert: 0,
            speculative,
            speculative_hits: 0,
            speculative_misses: 0,
            binary_searches: 0,
        }
    }

    /// Number of live runs (the paper's `k`).
    #[inline]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total live items across runs.
    pub fn buffered_len(&self) -> usize {
        self.runs.iter().map(SortedRun::len).sum()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(SortedRun::is_empty)
    }

    /// Times the speculation fast path hit.
    pub fn speculative_hits(&self) -> u64 {
        self.speculative_hits
    }

    /// Times speculation was attempted but fell through to a binary search.
    /// Hit rate is `hits / (hits + misses)`; with speculation disabled both
    /// stay zero (every insert is a plain binary search, not a miss).
    pub fn speculative_misses(&self) -> u64 {
        self.speculative_misses
    }

    /// Times the slow binary-search path ran.
    pub fn binary_searches(&self) -> u64 {
        self.binary_searches
    }

    /// Inserts one item into the appropriate run (partition phase).
    pub fn insert(&mut self, item: T) {
        let ts = item.event_time();
        if self.speculative && !self.runs.is_empty() {
            // §III-E2, extended with the dominant special case: an on-time
            // event (at or above the largest tail) always extends run 0 —
            // one comparison instead of a binary search.
            if self.tails[0] <= ts {
                self.speculative_hits += 1;
                self.runs[0].push(item);
                self.tails[0] = ts;
                self.last_insert = 0;
                return;
            }
            // If the item fits between the last-inserted run's tail and
            // the tail of its predecessor, append directly — the strictly
            // descending tails invariant is preserved.
            let li = self.last_insert;
            if li < self.tails.len() && self.tails[li] <= ts && (li == 0 || self.tails[li - 1] > ts)
            {
                self.speculative_hits += 1;
                self.runs[li].push(item);
                self.tails[li] = ts;
                return;
            }
            self.speculative_misses += 1;
        }
        self.binary_searches += 1;
        // Tails are strictly descending: the first run whose tail <= ts is
        // the leftmost (largest-tail) run the item can extend.
        let idx = self.tails.partition_point(|&t| t > ts);
        if idx == self.runs.len() {
            self.runs.push(SortedRun::new(item));
            self.tails.push(ts);
        } else {
            self.runs[idx].push(item);
            self.tails[idx] = ts;
        }
        self.last_insert = idx;
        debug_assert!(self.tails_strictly_descending());
    }

    /// Cuts the head run (`<= t`) off every run, returning the non-empty
    /// head runs and dropping runs that became empty (§III-D).
    pub fn cut_heads(&mut self, t: Timestamp) -> Vec<Vec<T>> {
        let mut heads = Vec::new();
        // Only runs whose head <= t contribute; others are untouched.
        for run in &mut self.runs {
            if !run.is_empty() && run.head_time() <= t {
                let h = run.cut_head(t);
                if !h.is_empty() {
                    heads.push(h);
                }
            }
        }
        if heads.is_empty() {
            return heads;
        }
        // Remove exhausted runs; tails of survivors are unchanged, so the
        // descending invariant survives removal.
        if self.runs.iter().any(SortedRun::is_empty) {
            let (runs, mut i) = (&self.runs, 0);
            self.tails.retain(|_| {
                i += 1;
                !runs[i - 1].is_empty()
            });
            self.runs.retain(|run| !run.is_empty());
            self.last_insert = 0;
            if self.runs.is_empty() {
                // Fully drained: hand all capacity back so an idle sorter
                // accounts for zero bytes.
                self.runs = Vec::new();
                self.tails = Vec::new();
            }
        }
        debug_assert!(self.tails_strictly_descending());
        heads
    }

    /// Sheds the run with the smallest tail — the last run, holding the
    /// most severely delayed events — returning its live items in sorted
    /// order. Popping from the tail end trivially preserves the strictly
    /// descending tails invariant. Returns an empty vector when no runs
    /// are live.
    pub fn shed_oldest_run(&mut self) -> Vec<T> {
        while let Some(run) = self.runs.pop() {
            self.tails.pop();
            if self.last_insert >= self.runs.len() {
                self.last_insert = 0;
            }
            if !run.is_empty() {
                return run.live().to_vec();
            }
        }
        Vec::new()
    }

    /// Sheds up to `max_items` of the most severely delayed buffered items:
    /// the head (earliest) items of the smallest-tail run. A cap covering
    /// the whole run degenerates to [`shed_oldest_run`]; a partial shed
    /// compacts the run's storage so the freed bytes are visible in
    /// [`state_bytes`](RunSet::state_bytes) immediately — the fix for
    /// whole-run shedding dead-lettering more than the budget overage
    /// required. The tail is untouched by a head shed, so the strictly
    /// descending tails invariant holds trivially.
    ///
    /// [`shed_oldest_run`]: RunSet::shed_oldest_run
    pub fn shed_oldest_items(&mut self, max_items: usize) -> Vec<T> {
        if max_items == 0 {
            return Vec::new();
        }
        // Drop trailing empty runs so the cap applies to real items.
        while self.runs.last().is_some_and(SortedRun::is_empty) {
            self.runs.pop();
            self.tails.pop();
            if self.last_insert >= self.runs.len() {
                self.last_insert = 0;
            }
        }
        let Some(run) = self.runs.last_mut() else {
            return Vec::new();
        };
        if run.len() <= max_items {
            return self.shed_oldest_run();
        }
        let shed = run.shed_head(max_items);
        debug_assert!(self.tails_strictly_descending());
        shed
    }

    /// Bytes held across all runs plus the tails cache.
    pub fn state_bytes(&self) -> usize {
        self.runs.iter().map(SortedRun::state_bytes).sum::<usize>()
            + self.tails.capacity() * core::mem::size_of::<Timestamp>()
    }

    fn tails_strictly_descending(&self) -> bool {
        self.tails.windows(2).all(|w| w[0] > w[1])
    }
}

impl<T: EventTimed + Clone + StateCodec> RunSet<T> {
    /// Appends a snapshot of the run set to `w`: configuration, lifetime
    /// counters, and the *live* items of each non-empty run. Consumed head
    /// prefixes are dead state and are not persisted, so a restored run
    /// always starts at `head == 0`.
    pub fn encode_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.speculative as u8);
        w.put_u64(self.speculative_hits);
        w.put_u64(self.speculative_misses);
        w.put_u64(self.binary_searches);
        let live_runs: Vec<&SortedRun<T>> = self.runs.iter().filter(|r| !r.is_empty()).collect();
        w.put_u64(live_runs.len() as u64);
        for run in live_runs {
            let live = run.live();
            w.put_u64(live.len() as u64);
            for item in live {
                item.encode(w);
            }
        }
    }

    /// Decodes a run set previously written by
    /// [`encode_state`](RunSet::encode_state). Tails are recomputed from
    /// each run's last element; the Patience invariant (tails strictly
    /// descending) and per-run ordering are re-validated, so corrupt data
    /// that survives the frame checksum still cannot poison the sorter.
    pub fn decode_state(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let speculative = match r.get_u8()? {
            0 => false,
            1 => true,
            t => {
                return Err(SnapshotError::corrupt(format!(
                    "invalid speculative flag {t}"
                )))
            }
        };
        let mut rs = RunSet::new(speculative);
        rs.speculative_hits = r.get_u64()?;
        rs.speculative_misses = r.get_u64()?;
        rs.binary_searches = r.get_u64()?;
        let run_count = r.get_count()?;
        for _ in 0..run_count {
            let len = r.get_count()?;
            if len == 0 {
                return Err(SnapshotError::corrupt("empty run in snapshot"));
            }
            let mut prev = Timestamp::MIN;
            let mut run: Option<SortedRun<T>> = None;
            for _ in 0..len {
                let item = T::decode(r)?;
                let ts = item.event_time();
                if ts < prev {
                    return Err(SnapshotError::corrupt("run items out of order in snapshot"));
                }
                prev = ts;
                match &mut run {
                    None => run = Some(SortedRun::new(item)),
                    Some(run) => run.push(item),
                }
            }
            let run = run.expect("len > 0 guarantees a run");
            let tail = run.tail_time();
            if let Some(&last) = rs.tails.last() {
                if last <= tail {
                    return Err(SnapshotError::corrupt(
                        "run tails not strictly descending in snapshot",
                    ));
                }
            }
            rs.runs.push(run);
            rs.tails.push(tail);
        }
        Ok(rs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_partition_example() {
        // Fig 3: [2, 6, 5, 1, 4, 3, 7, 8] partitions into
        // Run0=[2,6,7,8], Run1=[5], Run2=[1,4], Run3=[3].
        let mut rs: RunSet<i64> = RunSet::new(false);
        for x in [2i64, 6, 5, 1, 4, 3, 7, 8] {
            rs.insert(x);
        }
        assert_eq!(rs.run_count(), 4);
        let runs: Vec<Vec<i64>> = rs.runs.iter().map(|r| r.live().to_vec()).collect();
        assert_eq!(runs, vec![vec![2, 6, 7, 8], vec![5], vec![1, 4], vec![3]]);
    }

    #[test]
    fn sorted_input_is_one_run() {
        for spec in [false, true] {
            let mut rs: RunSet<i64> = RunSet::new(spec);
            for x in 0..100 {
                rs.insert(x);
            }
            assert_eq!(rs.run_count(), 1, "speculative={spec}");
            assert_eq!(rs.buffered_len(), 100);
        }
    }

    #[test]
    fn speculation_hits_on_consecutive_sorted_stretches() {
        let mut rs: RunSet<i64> = RunSet::new(true);
        // AndroidLog-like: long sorted stretches with occasional jumps back.
        for base in [1000i64, 0, 2000] {
            for i in 0..50 {
                rs.insert(base + i);
            }
        }
        assert!(
            rs.speculative_hits() > 100,
            "hits={}",
            rs.speculative_hits()
        );
        // Same content without speculation must produce identical runs.
        let mut plain: RunSet<i64> = RunSet::new(false);
        for base in [1000i64, 0, 2000] {
            for i in 0..50 {
                plain.insert(base + i);
            }
        }
        assert_eq!(rs.run_count(), plain.run_count());
    }

    #[test]
    fn speculative_and_plain_produce_equal_runs() {
        // Speculation is a pure fast path: the chosen run must be identical.
        let data: Vec<i64> = (0..500).map(|i| (i * 37) % 97).collect();
        let mut a: RunSet<i64> = RunSet::new(true);
        let mut b: RunSet<i64> = RunSet::new(false);
        for &x in &data {
            a.insert(x);
            b.insert(x);
        }
        let ra: Vec<Vec<i64>> = a.runs.iter().map(|r| r.live().to_vec()).collect();
        let rb: Vec<Vec<i64>> = b.runs.iter().map(|r| r.live().to_vec()).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn cut_heads_paper_example() {
        // Fig 4: punctuation 2 cuts [2] from Run0 and [1] from Run2; Run2
        // survives with [4]... wait — Run2=[1,4], cutting <=2 leaves [4].
        let mut rs: RunSet<i64> = RunSet::new(false);
        for x in [2i64, 6, 5, 1] {
            rs.insert(x);
        }
        // Runs now: [2,6], [5], [1].
        assert_eq!(rs.run_count(), 3);
        let heads = rs.cut_heads(Timestamp::new(2));
        let mut cut: Vec<i64> = heads.into_iter().flatten().collect();
        cut.sort_unstable();
        assert_eq!(cut, vec![1, 2]);
        // Run [1] became empty and is removed.
        assert_eq!(rs.run_count(), 2);
        assert_eq!(rs.buffered_len(), 2); // 6 and 5
    }

    #[test]
    fn cut_heads_noop_below_all_heads() {
        let mut rs: RunSet<i64> = RunSet::new(false);
        for x in [10i64, 5, 20] {
            rs.insert(x);
        }
        let heads = rs.cut_heads(Timestamp::new(1));
        assert!(heads.is_empty());
        assert_eq!(rs.buffered_len(), 3);
    }

    #[test]
    fn run_head_cut_and_compaction() {
        let mut run = SortedRun::new(0i64);
        for x in 1..200 {
            run.push(x);
        }
        let cut = run.cut_head(Timestamp::new(149));
        assert_eq!(cut.len(), 150);
        assert_eq!(run.len(), 50);
        assert_eq!(run.head_time(), Timestamp::new(150));
        assert_eq!(run.tail_time(), Timestamp::new(199));
        // Compaction fired (head >= 64 and >= half): storage reclaimed.
        assert!(run.state_bytes() <= 200 * core::mem::size_of::<i64>());
        let rest = run.cut_head(Timestamp::MAX);
        assert_eq!(rest.len(), 50);
        assert!(run.is_empty());
    }

    #[test]
    fn equal_timestamps_extend_first_run() {
        let mut rs: RunSet<i64> = RunSet::new(false);
        for _ in 0..10 {
            rs.insert(7);
        }
        // tail <= x admits equal values: one run of ten 7s.
        assert_eq!(rs.run_count(), 1);
        assert_eq!(rs.buffered_len(), 10);
    }

    #[test]
    fn reverse_input_creates_n_runs() {
        let mut rs: RunSet<i64> = RunSet::new(true);
        for x in (0..50).rev() {
            rs.insert(x);
        }
        assert_eq!(rs.run_count(), 50);
    }

    #[test]
    fn speculative_misses_complement_hits() {
        // Reverse input defeats speculation: every attempt after the first
        // insert misses and falls through to a binary search.
        let mut rs: RunSet<i64> = RunSet::new(true);
        for x in (0..50).rev() {
            rs.insert(x);
        }
        assert_eq!(rs.speculative_hits(), 0);
        assert_eq!(rs.speculative_misses(), 49, "first insert has no target");
        assert_eq!(rs.binary_searches(), 50);
        // Every insert either hits or misses (once a target run exists).
        let mut mixed: RunSet<i64> = RunSet::new(true);
        let data: Vec<i64> = (0..500).map(|i| (i * 37) % 97).collect();
        for &x in &data {
            mixed.insert(x);
        }
        assert_eq!(
            mixed.speculative_hits() + mixed.speculative_misses(),
            data.len() as u64 - 1
        );
        // Speculation disabled: no hits, no misses, all binary searches.
        let mut plain: RunSet<i64> = RunSet::new(false);
        for &x in &data {
            plain.insert(x);
        }
        assert_eq!(plain.speculative_hits(), 0);
        assert_eq!(plain.speculative_misses(), 0);
        assert_eq!(plain.binary_searches(), data.len() as u64);
    }

    #[test]
    fn shed_oldest_run_pops_smallest_tail() {
        let mut rs: RunSet<i64> = RunSet::new(true);
        for x in [2i64, 6, 5, 1, 4, 3, 7, 8] {
            rs.insert(x);
        }
        // Runs (Fig 3): [2,6,7,8], [5], [1,4], [3] — tails 8 > 5 > 4 > 3.
        let shed = rs.shed_oldest_run();
        assert_eq!(shed, vec![3], "smallest-tail run goes first");
        assert_eq!(rs.run_count(), 3);
        let shed = rs.shed_oldest_run();
        assert_eq!(shed, vec![1, 4], "shed run comes out sorted");
        assert_eq!(rs.buffered_len(), 5);
        // Inserts still work after shedding (invariant intact).
        rs.insert(0);
        assert_eq!(rs.run_count(), 3);
        rs.shed_oldest_run();
        rs.shed_oldest_run();
        rs.shed_oldest_run();
        assert!(rs.shed_oldest_run().is_empty(), "empty set sheds nothing");
    }

    #[test]
    fn shed_oldest_items_caps_at_the_overage() {
        let mut rs: RunSet<i64> = RunSet::new(true);
        for x in [2i64, 6, 5, 1, 4, 3, 7, 8] {
            rs.insert(x);
        }
        // Runs (Fig 3): [2,6,7,8], [5], [1,4], [3] — tails 8 > 5 > 4 > 3.
        // Cap 1 over the one-item run [3] sheds the whole run.
        assert_eq!(rs.shed_oldest_items(1), vec![3]);
        assert_eq!(rs.run_count(), 3);
        // Cap 1 over [1,4] sheds only the head item; the run survives with
        // its tail (and so the descending-tails invariant) intact.
        assert_eq!(rs.shed_oldest_items(1), vec![1]);
        assert_eq!(rs.run_count(), 3);
        assert_eq!(rs.buffered_len(), 6);
        assert_eq!(rs.shed_oldest_items(5), vec![4]);
        assert_eq!(rs.run_count(), 2);
        // Inserts still route correctly after a partial shed.
        rs.insert(0);
        assert_eq!(rs.run_count(), 3);
        assert!(rs.shed_oldest_items(0).is_empty(), "zero cap sheds nothing");
    }

    #[test]
    fn partial_shed_frees_state_bytes_immediately() {
        let mut run = SortedRun::new(0i64);
        for x in 1..512 {
            run.push(x);
        }
        let before = run.state_bytes();
        let shed = run.shed_head(500);
        assert_eq!(shed.len(), 500);
        assert_eq!(run.len(), 12);
        assert!(
            run.state_bytes() <= 12 * core::mem::size_of::<i64>(),
            "partial shed must compact to the live length ({} B held)",
            run.state_bytes()
        );
        assert!(before > run.state_bytes());
        assert_eq!(run.head_time(), Timestamp::new(500));
        assert_eq!(run.tail_time(), Timestamp::new(511));
    }

    #[test]
    fn state_bytes_reflects_buffering() {
        let mut rs: RunSet<i64> = RunSet::new(false);
        assert_eq!(rs.buffered_len(), 0);
        for x in 0..1000 {
            rs.insert(x);
        }
        assert!(rs.state_bytes() >= 1000 * core::mem::size_of::<i64>());
        rs.cut_heads(Timestamp::MAX);
        assert!(rs.is_empty());
        assert_eq!(rs.run_count(), 0);
    }
}
