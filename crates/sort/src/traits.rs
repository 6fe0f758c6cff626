//! Sorter abstractions.
//!
//! Two shapes of sorter appear in the paper's evaluation (§VI-B):
//!
//! * **Online sorters** ([`OnlineSorter`]) ingest a disordered stream and,
//!   on every punctuation `T`, must emit all buffered items with
//!   `event_time <= T` in nondecreasing order. Impatience sort and Heapsort
//!   support this natively; the offline algorithms are adapted via
//!   [`crate::incremental::CutBuffer`]. A sorter may hand on something
//!   other than its items — a fold of them, as long as what it emits at a
//!   punctuation depends only on the items at or below it.
//! * **Offline algorithms** ([`SortAlgorithm`]) sort a slice in one shot.

use crate::gauges::SorterGauges;
use impatience_core::{
    EventTimed, SnapshotError, SnapshotReader, SnapshotWriter, StreamError, Timestamp,
};

/// An incremental sorter for out-of-order streams (§III-A's sorting
/// operator contract).
///
/// `T` is what the sorter buffers and `O` what a punctuation hands on:
/// the items themselves for every sorter in this crate (the default), or
/// a fold of them — the engine's fused sort + grouped aggregate emits one
/// group per window and key. Shedding hands back buffered `T`s either
/// way.
///
/// `Send` is a supertrait so a boxed sorter can live inside a sharded
/// pipeline's worker thread (`engine::sharded`); every sorter here is a
/// plain owned data structure, so the bound costs nothing.
pub trait OnlineSorter<T: EventTimed, O = T>: Send {
    /// Buffers one out-of-order item.
    fn push(&mut self, item: T);

    /// Buffers a batch of out-of-order items, as `push` would one by one in
    /// the batch's order. The default does exactly that; being compiled
    /// per sorter, it costs a boxed sorter one dynamic call per batch
    /// rather than one per item.
    fn push_batch(&mut self, items: Vec<T>) {
        for item in items {
            self.push(item);
        }
    }

    /// Handles a punctuation: appends to `out` every buffered item with
    /// `event_time <= t`, in nondecreasing event-time order, and removes
    /// them from the buffer.
    ///
    /// Punctuations must be nondecreasing; debug builds assert this.
    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<O>);

    /// Flushes everything (a punctuation at `+∞`).
    fn drain_all(&mut self, out: &mut Vec<O>) {
        self.punctuate(Timestamp::MAX, out);
    }

    /// Items currently buffered.
    fn buffered_len(&self) -> usize;

    /// Bytes of state buffered: the buffered items at their size plus a
    /// fixed overhead per run, bucket and spilled file (with its block
    /// index) — a function of the
    /// items and the run structure only, never of how a buffer grew, so a
    /// restored sorter charges what the one it was taken from did. The
    /// engine's memory budget charges this.
    fn state_bytes(&self) -> usize;

    /// Bytes of heap the sorter's buffers hold, spare capacity included:
    /// what [`state_bytes`](OnlineSorter::state_bytes) leaves out, published
    /// beside it and charged to no budget.
    fn capacity_bytes(&self) -> usize;

    /// Human-readable algorithm name (figure legends).
    fn name(&self) -> &'static str;

    /// Sheds at most `max_items` of the oldest (most severely delayed)
    /// buffered items — the head of the oldest run, or the whole run when
    /// the cap covers it — appending them to `out` (sorted) and returning
    /// the count. Used by the engine's
    /// [`ShedPolicy::ShedOldestRuns`](impatience_core::ShedPolicy) under
    /// memory pressure; the cap lets it shed only the budget *overage*.
    /// The shed items are *removed*, not emitted, and become dead letters
    /// upstream. The default — for sorters without a run structure —
    /// sheds nothing and returns 0, which signals the engine to fall back
    /// to a forced punctuation.
    fn shed_oldest_capped(&mut self, _max_items: usize, _out: &mut Vec<T>) -> usize {
        0
    }

    /// Spills cold state to disk until `state_bytes() <= target_bytes`,
    /// returning the number of runs spilled. The lossless rung of the
    /// degradation ladder ([`ShedPolicy::SpillColdRuns`]): nothing is
    /// dropped — spilled items are merged back at punctuation boundaries.
    /// The default has no spill support and returns `Ok(0)`, which signals
    /// the engine to fall back to a forced punctuation.
    ///
    /// [`ShedPolicy::SpillColdRuns`]: impatience_core::ShedPolicy
    fn spill_cold(&mut self, _target_bytes: usize) -> Result<usize, StreamError> {
        Ok(0)
    }

    /// Takes the pending typed fault, if any. Spill-capable sorters record
    /// disk faults hit inside [`punctuate`](OnlineSorter::punctuate) (whose
    /// signature cannot fail) here. The engine's sorting stage polls after
    /// every punctuation, drain and forced cut, and poisons the chain with
    /// the returned error; it does not poll after
    /// [`push`](OnlineSorter::push) or
    /// [`push_batch`](OnlineSorter::push_batch), which no sorter faults
    /// in — a spill's own fault comes back from
    /// [`spill_cold`](OnlineSorter::spill_cold). The default never faults.
    fn take_fault(&mut self) -> Option<StreamError> {
        None
    }

    /// Garbage-collects spill files that are provably unreferenced by every
    /// retained checkpoint generation. The engine forwards its
    /// checkpoint-committed notification here; deletion must be deferred to
    /// this hook because a run file unreferenced by the newest checkpoint
    /// may still be needed by the fallback generation. The default is a
    /// no-op.
    fn spill_gc(&mut self) {}

    /// Publishes current sorter state into `gauges`. The default covers the
    /// universal quantities (buffered events, state and capacity bytes);
    /// sorters with a run structure override it to also publish run counts
    /// and speculation counters.
    fn sync_gauges(&self, gauges: &SorterGauges) {
        gauges.buffered.set(self.buffered_len() as i64);
        gauges.state_bytes.set(self.state_bytes() as i64);
        gauges.capacity_bytes.set(self.capacity_bytes() as i64);
    }

    /// Appends a snapshot of all buffered state to `w`, for checkpointing.
    /// The default declines ([`SnapshotError::Unsupported`]): only sorters
    /// whose item type is a
    /// [`StateCodec`](impatience_core::StateCodec) and whose buffer
    /// structure is serializable (the Impatience sorter's run set) opt in.
    fn encode_state(&self, _w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported { what: self.name() })
    }

    /// Replaces this sorter's buffered state with a snapshot previously
    /// written by [`encode_state`](OnlineSorter::encode_state). On error
    /// the sorter is left unchanged. The default declines, matching
    /// `encode_state`.
    fn restore_state(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported { what: self.name() })
    }
}

/// A one-shot comparison sort keyed by event time.
///
/// Implementations must produce a permutation of the input in nondecreasing
/// `event_time` order. Stability is implementation-specific and documented
/// per algorithm (Timsort is stable; Quicksort and Heapsort are not).
pub trait SortAlgorithm {
    /// Algorithm name (figure legends).
    const NAME: &'static str;

    /// Sorts `items` by `event_time` in place.
    fn sort<T: EventTimed + Clone>(items: &mut Vec<T>);
}

/// Convenience: sorts a vector with the given algorithm and returns it.
pub fn sort_with<A: SortAlgorithm, T: EventTimed + Clone>(mut items: Vec<T>) -> Vec<T> {
    A::sort(&mut items);
    items
}

/// Checks the online-sorter output contract: `out` nondecreasing and every
/// element `<= t`. Test helper shared across the crate.
#[cfg(test)]
pub(crate) fn assert_sorted_until<T: EventTimed>(out: &[T], t: Timestamp) {
    for w in out.windows(2) {
        assert!(
            w[0].event_time() <= w[1].event_time(),
            "output not sorted: {:?} > {:?}",
            w[0].event_time(),
            w[1].event_time()
        );
    }
    if let Some(last) = out.last() {
        assert!(last.event_time() <= t, "emitted item beyond punctuation");
    }
}
