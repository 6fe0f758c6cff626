//! Impatience sort (§III-D/E): the paper's primary sorting contribution.
//!
//! An online variant of Patience sort. Events are partitioned into sorted
//! runs exactly as Patience sort does; on the i-th punctuation `Tᵢ` the
//! sorter cuts the *head run* (`event_time <= Tᵢ`) off every sorted run,
//! merges the head runs, and emits the result — sorting only the events
//! between `Tᵢ₋₁` and `Tᵢ` without touching the rest of the buffer. Runs
//! emptied by the cut are removed, which "gradually cleans up sorted runs
//! created by severely delayed events" (Fig 4/5).
//!
//! Two optimizations, both on by default and independently toggleable for
//! the Fig 7 ablation:
//!
//! * **Huffman merge** (§III-E1): head runs are merged smallest-pair-first.
//! * **Speculative run selection** (§III-E2): the partition phase tries the
//!   last-inserted run before binary searching.
//!
//! Order among *equal* event times: items keep their arrival order within
//! a run; across runs it follows the merge shape (Huffman pairs
//! non-adjacent runs, ties favour the first operand). That order is a
//! function of the input — the same pushes and punctuations always emit
//! the same sequence — but it is **not** arrival order, so this is not a
//! stable sort (`tests/props.rs`).

use crate::merge::{merge_runs, MergePolicy};
use crate::runset::RunSet;
use crate::traits::OnlineSorter;
use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, Timestamp,
};

/// Configuration for [`ImpatienceSorter`].
#[derive(Debug, Clone, Copy)]
pub struct ImpatienceConfig {
    /// Merge head runs smallest-first (§III-E1). When `false`, head runs
    /// merge sequentially — the "Impt w/o HM" series of Fig 7.
    pub huffman_merge: bool,
    /// Try the last-inserted run before binary searching (§III-E2). When
    /// `false` as well, the sorter degrades to plain online Patience — the
    /// "Impt w/o HM&SRS" series of Fig 7.
    pub speculative_run_selection: bool,
}

impl Default for ImpatienceConfig {
    fn default() -> Self {
        ImpatienceConfig {
            huffman_merge: true,
            speculative_run_selection: true,
        }
    }
}

impl ImpatienceConfig {
    /// Both optimizations off (the paper's plain Patience baseline).
    pub fn baseline() -> Self {
        ImpatienceConfig {
            huffman_merge: false,
            speculative_run_selection: false,
        }
    }

    /// Huffman merge off, speculation on.
    pub fn without_huffman() -> Self {
        ImpatienceConfig {
            huffman_merge: false,
            speculative_run_selection: true,
        }
    }
}

/// The Impatience sorter.
///
/// ```
/// use impatience_core::Timestamp;
/// use impatience_sort::{ImpatienceSorter, OnlineSorter};
///
/// // The paper's §III-A example stream: 2 6 5 1 2* 4 3 7 4* 8 ∞*
/// let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
/// let mut out = Vec::new();
/// for x in [2, 6, 5, 1] { s.push(x); }
/// s.punctuate(Timestamp::new(2), &mut out);
/// assert_eq!(out, vec![1, 2]);
/// out.clear();
/// for x in [4, 3, 7] { s.push(x); }
/// s.punctuate(Timestamp::new(4), &mut out);
/// assert_eq!(out, vec![3, 4]);
/// out.clear();
/// s.push(8);
/// s.drain_all(&mut out);
/// assert_eq!(out, vec![5, 6, 7, 8]);
/// ```
#[derive(Debug)]
pub struct ImpatienceSorter<T> {
    runs: RunSet<T>,
    huffman: bool,
    last_punctuation: Timestamp,
    /// Total items ever pushed (diagnostics).
    pushed: u64,
}

impl<T: EventTimed + Clone> ImpatienceSorter<T> {
    /// A sorter with both optimizations enabled.
    pub fn new() -> Self {
        Self::with_config(ImpatienceConfig::default())
    }

    /// A sorter with explicit optimization toggles.
    pub fn with_config(cfg: ImpatienceConfig) -> Self {
        ImpatienceSorter {
            runs: RunSet::new(cfg.speculative_run_selection),
            huffman: cfg.huffman_merge,
            last_punctuation: Timestamp::MIN,
            pushed: 0,
        }
    }

    /// Number of live sorted runs (the paper's `k`, plotted in Fig 5).
    pub fn run_count(&self) -> usize {
        self.runs.run_count()
    }

    /// Speculation fast-path hits (ablation diagnostics).
    pub fn speculative_hits(&self) -> u64 {
        self.runs.speculative_hits()
    }

    /// Speculation attempts that fell through to a binary search; hit rate
    /// is `hits / (hits + misses)`.
    pub fn speculative_misses(&self) -> u64 {
        self.runs.speculative_misses()
    }

    /// Partition-phase binary searches performed.
    pub fn binary_searches(&self) -> u64 {
        self.runs.binary_searches()
    }

    /// The most recent punctuation processed.
    pub fn watermark(&self) -> Timestamp {
        self.last_punctuation
    }
}

/// Appends `items` to `out` — by handing the vector over whole when `out`
/// holds nothing, which is how the engine calls: no copy of what is emitted.
fn hand_over<T>(items: Vec<T>, out: &mut Vec<T>) {
    if out.is_empty() {
        *out = items;
    } else {
        out.extend(items);
    }
}

impl<T: EventTimed + Clone> Default for ImpatienceSorter<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: EventTimed + Clone + StateCodec + Send> OnlineSorter<T> for ImpatienceSorter<T> {
    fn push(&mut self, item: T) {
        debug_assert!(
            item.event_time() > self.last_punctuation,
            "item at {:?} violates punctuation {:?}",
            item.event_time(),
            self.last_punctuation
        );
        self.pushed += 1;
        self.runs.insert(item);
    }

    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<T>) {
        debug_assert!(
            t >= self.last_punctuation,
            "punctuation regressed: {t:?} after {:?}",
            self.last_punctuation
        );
        self.last_punctuation = t;
        let heads = self.runs.cut_heads(t);
        if heads.is_empty() {
            return;
        }
        let policy = if self.huffman {
            MergePolicy::Huffman
        } else {
            MergePolicy::Sequential
        };
        hand_over(merge_runs(heads, policy), out);
    }

    fn buffered_len(&self) -> usize {
        self.runs.buffered_len()
    }

    fn state_bytes(&self) -> usize {
        self.runs.state_bytes()
    }

    fn name(&self) -> &'static str {
        "Impatience"
    }

    fn shed_oldest(&mut self, out: &mut Vec<T>) -> usize {
        let shed = self.runs.shed_oldest_run();
        let n = shed.len();
        hand_over(shed, out);
        n
    }

    fn shed_oldest_capped(&mut self, max_items: usize, out: &mut Vec<T>) -> usize {
        let shed = self.runs.shed_oldest_items(max_items);
        let n = shed.len();
        hand_over(shed, out);
        n
    }

    fn sync_gauges(&self, gauges: &crate::gauges::SorterGauges) {
        gauges.buffered.set(self.buffered_len() as i64);
        gauges.state_bytes.set(self.state_bytes() as i64);
        gauges.runs.set(self.run_count() as i64);
        gauges.speculative_hits.set(self.speculative_hits() as i64);
        gauges
            .speculative_misses
            .set(self.speculative_misses() as i64);
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put_u8(self.huffman as u8);
        w.put_i64(self.last_punctuation.ticks());
        w.put_u64(self.pushed);
        self.runs.encode_state(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let huffman = match r.get_u8()? {
            0 => false,
            1 => true,
            t => return Err(SnapshotError::corrupt(format!("invalid huffman flag {t}"))),
        };
        let last_punctuation = Timestamp::new(r.get_i64()?);
        let pushed = r.get_u64()?;
        let runs = RunSet::decode_state(r)?;
        // All fields decoded; only now mutate self, so a failed restore
        // leaves the sorter untouched.
        self.huffman = huffman;
        self.last_punctuation = last_punctuation;
        self.pushed = pushed;
        self.runs = runs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::assert_sorted_until;

    fn all_configs() -> Vec<(&'static str, ImpatienceConfig)> {
        vec![
            ("full", ImpatienceConfig::default()),
            ("no-hm", ImpatienceConfig::without_huffman()),
            ("baseline", ImpatienceConfig::baseline()),
        ]
    }

    #[test]
    fn paper_stream_fig4() {
        // Checked in the doctest too, but keep a unit test for all configs.
        for (label, cfg) in all_configs() {
            let mut s: ImpatienceSorter<i64> = ImpatienceSorter::with_config(cfg);
            let mut out = Vec::new();
            for x in [2i64, 6, 5, 1] {
                s.push(x);
            }
            s.punctuate(Timestamp::new(2), &mut out);
            assert_eq!(out, vec![1, 2], "{label}");
            // Fig 4(a): after punctuation 2 the run [1] vanished; 2 runs
            // remain ([6] and [5]).
            assert_eq!(s.run_count(), 2, "{label}");
            out.clear();
            for x in [4i64, 3, 7] {
                s.push(x);
            }
            s.punctuate(Timestamp::new(4), &mut out);
            assert_eq!(out, vec![3, 4], "{label}");
            // Fig 4(b): Impatience keeps 2 runs here where offline Patience
            // would be holding 4.
            assert_eq!(s.run_count(), 2, "{label}");
            out.clear();
            s.push(8);
            s.drain_all(&mut out);
            assert_eq!(out, vec![5, 6, 7, 8], "{label}");
            assert_eq!(s.buffered_len(), 0, "{label}");
            assert_eq!(s.run_count(), 0, "{label}");
        }
    }

    #[test]
    fn run_cleanup_after_burst_delay() {
        // A burst of severely late events inflates the run count; the next
        // punctuation that covers them must clean the runs up (§III-D's
        // "healthy status" recovery, Fig 5).
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let mut out = Vec::new();
        for x in 1000..1100i64 {
            s.push(x);
        }
        // Burst: 50 late events in reverse order -> ~50 new runs.
        for x in (100..150i64).rev() {
            s.push(x);
        }
        let inflated = s.run_count();
        assert!(inflated >= 50, "burst should inflate runs: {inflated}");
        s.punctuate(Timestamp::new(999), &mut out);
        assert_eq!(out.len(), 50);
        assert_sorted_until(&out, Timestamp::new(999));
        assert_eq!(s.run_count(), 1, "burst runs cleaned up");
    }

    #[test]
    fn incremental_equals_offline_sort() {
        let data: Vec<i64> = (0..2000).map(|i| (i * 7919) % 1009).collect();
        for (label, cfg) in all_configs() {
            let mut s: ImpatienceSorter<i64> = ImpatienceSorter::with_config(cfg);
            let mut out = Vec::new();
            let mut accepted = Vec::new();
            // Feed with periodic punctuations trailing the watermark;
            // items at or below the watermark would violate the contract
            // and are skipped (the ingress layer's job).
            let mut high = i64::MIN;
            for (i, &x) in data.iter().enumerate() {
                if x > s.watermark().ticks() || s.watermark() == Timestamp::MIN {
                    s.push(x);
                    accepted.push(x);
                    high = high.max(x);
                }
                if i % 100 == 99 {
                    let p = Timestamp::new(high - 600);
                    if p > s.watermark() {
                        s.punctuate(p, &mut out);
                    }
                }
            }
            s.drain_all(&mut out);
            let mut expect = accepted;
            expect.sort_unstable();
            assert_eq!(out, expect, "{label}");
        }
    }

    #[test]
    fn punctuate_on_empty_and_repeat() {
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let mut out = Vec::new();
        s.punctuate(Timestamp::new(5), &mut out);
        assert!(out.is_empty());
        s.punctuate(Timestamp::new(5), &mut out); // idempotent repeat
        assert!(out.is_empty());
        s.push(10);
        s.punctuate(Timestamp::new(7), &mut out);
        assert!(out.is_empty(), "10 is beyond punctuation 7");
        assert_eq!(s.buffered_len(), 1);
    }

    #[test]
    fn emits_items_equal_to_punctuation() {
        // Contract: flush all events <= T, inclusive.
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let mut out = Vec::new();
        for x in [5i64, 3, 5, 4] {
            s.push(x);
        }
        s.punctuate(Timestamp::new(5), &mut out);
        assert_eq!(out, vec![3, 4, 5, 5]);
        assert_eq!(s.buffered_len(), 0);
    }

    #[test]
    fn output_is_permutation_under_random_punctuation() {
        let data: Vec<i64> = (0..1000).map(|i| (i * 31 + (i % 13) * 97) % 500).collect();
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let mut out = Vec::new();
        let mut pending: Vec<i64> = Vec::new();
        let mut wm = i64::MIN;
        for (i, &x) in data.iter().enumerate() {
            if x > wm {
                s.push(x);
                pending.push(x);
            }
            if i % 37 == 36 {
                let p = pending.iter().copied().max().unwrap_or(0) - 50;
                if p > wm {
                    wm = p;
                    s.punctuate(Timestamp::new(p), &mut out);
                }
            }
        }
        s.drain_all(&mut out);
        let mut expect = pending;
        expect.sort_unstable();
        let mut got = out.clone();
        got.sort_unstable();
        assert_eq!(got, expect, "output must be a permutation of input");
        assert_sorted_until(&out, Timestamp::MAX);
    }

    #[test]
    fn diagnostics_counters() {
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        for x in 0..100 {
            s.push(x);
        }
        assert!(s.speculative_hits() + s.binary_searches() == 100);
        assert!(s.speculative_hits() >= 98, "sorted input should speculate");
        assert_eq!(s.name(), "Impatience");
        assert!(s.state_bytes() >= 100 * core::mem::size_of::<i64>());
    }

    #[test]
    fn shed_oldest_evicts_most_delayed_run() {
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        for x in [100i64, 101, 102, 50, 51, 5, 6] {
            s.push(x);
        }
        // Runs: [100,101,102], [50,51], [5,6] — tails 102 > 51 > 6.
        assert_eq!(s.run_count(), 3);
        let mut shed = Vec::new();
        let n = s.shed_oldest(&mut shed);
        assert_eq!(n, 2);
        assert_eq!(shed, vec![5, 6], "most-delayed run evicted, in order");
        assert_eq!(s.buffered_len(), 5);
        // The surviving buffer still honors the sorting contract.
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert_eq!(out, vec![50, 51, 100, 101, 102]);
        // Empty sorter sheds nothing (engine falls back to forced cuts).
        let mut empty: ImpatienceSorter<i64> = ImpatienceSorter::new();
        assert_eq!(empty.shed_oldest(&mut shed), 0);
    }

    #[test]
    fn shed_oldest_capped_frees_only_the_overage() {
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        for x in [100i64, 101, 102, 50, 51, 5, 6] {
            s.push(x);
        }
        // Runs: [100,101,102], [50,51], [5,6]. A cap of 1 sheds only the
        // head of the most-delayed run instead of the whole run.
        let mut shed = Vec::new();
        assert_eq!(s.shed_oldest_capped(1, &mut shed), 1);
        assert_eq!(shed, vec![5]);
        assert_eq!(s.buffered_len(), 6);
        let mut out = Vec::new();
        s.drain_all(&mut out);
        assert_eq!(out, vec![6, 50, 51, 100, 101, 102]);
    }

    #[test]
    fn snapshot_round_trip_preserves_behaviour() {
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let mut out = Vec::new();
        for x in [2i64, 6, 5, 1, 9, 4] {
            s.push(x);
        }
        s.punctuate(Timestamp::new(2), &mut out);
        out.clear();

        let mut w = SnapshotWriter::new();
        s.encode_state(&mut w).unwrap();
        let body = w.into_body();

        let mut restored: ImpatienceSorter<i64> = ImpatienceSorter::new();
        restored
            .restore_state(&mut SnapshotReader::new(&body))
            .unwrap();
        assert_eq!(restored.watermark(), s.watermark());
        assert_eq!(restored.run_count(), s.run_count());
        assert_eq!(restored.buffered_len(), s.buffered_len());

        // Both sorters must behave identically from here on.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for x in [7i64, 3] {
            s.push(x);
            restored.push(x);
        }
        s.drain_all(&mut a);
        restored.drain_all(&mut b);
        assert_eq!(a, b);
        assert_eq!(a, vec![3, 4, 5, 6, 7, 9]);
    }

    #[test]
    fn restore_rejects_corrupt_state_and_stays_usable() {
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        for x in [5i64, 1, 3] {
            s.push(x);
        }
        let mut w = SnapshotWriter::new();
        s.encode_state(&mut w).unwrap();
        let mut body = w.into_body();
        // Corrupting the run-count field produces a typed error, never a
        // panic, and leaves the target sorter untouched.
        let len = body.len();
        body[len - 1] ^= 0xFF;
        let mut target: ImpatienceSorter<i64> = ImpatienceSorter::new();
        target.push(42);
        assert!(target
            .restore_state(&mut SnapshotReader::new(&body))
            .is_err());
        assert_eq!(target.buffered_len(), 1, "failed restore left state");
    }

    #[test]
    fn works_with_event_payloads() {
        use impatience_core::Event;
        let mut s: ImpatienceSorter<Event<u32>> = ImpatienceSorter::new();
        let mut out = Vec::new();
        for (i, t) in [30i64, 10, 20].into_iter().enumerate() {
            s.push(Event::point(Timestamp::new(t), i as u32));
        }
        s.drain_all(&mut out);
        let ts: Vec<i64> = out.iter().map(|e| e.sync_time.ticks()).collect();
        let payloads: Vec<u32> = out.iter().map(|e| e.payload).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(payloads, vec![1, 2, 0], "payloads travel with events");
    }
}
