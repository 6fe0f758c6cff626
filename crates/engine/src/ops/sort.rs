//! The sorting operator: the only operator allowed to see disorder.
//!
//! Wraps any [`OnlineSorter`] (Impatience sort by default) as an observer.
//! Input batches may be arbitrarily out of order **between** punctuations;
//! on each punctuation `T` the operator emits every buffered event with
//! `sync_time <= T` as one ordered batch followed by the punctuation —
//! exactly the §III-A contract.
//!
//! Events at or below the previous punctuation are *late*; a
//! [`LatePolicy`] decides their fate: counted and dropped (the default and
//! the paper's single-sorter baseline), or diverted to a typed
//! [`DeadLetterQueue`]. (The third option — rerouting to a higher-latency
//! partition, §V — lives in the framework's partitioner, which keeps late
//! events from ever reaching a sorter.)
//!
//! Buffered bytes are continuously mirrored into a [`MemoryMeter`]. When
//! the meter carries an enforced budget, exceeding it triggers the
//! [`ShedPolicy`]: a **forced punctuation** that flushes the buffer early
//! at a degraded effective reorder latency, **shed-oldest** eviction that
//! dead-letters the most severely delayed events (capped at the overage, so
//! only what must go goes), or — the lossless rung — **spill-cold-runs**,
//! which seals cold runs into checksummed on-disk run files and merges them
//! back at punctuation boundaries. Under `SpillColdRuns` the full
//! degradation ladder is spill → forced punctuation → capped shed; each
//! rung only fires when the previous one could not get back under budget.
//! Disk faults surface through [`OnlineSorter::take_fault`] and poison the
//! chain with a typed error instead of aborting.
//!
//! The late decision itself is a [`LateGate`]. [`SortOp`] owns one; when
//! the spec builder runs per-event operators *below* the sort (§IV), a
//! second one stands in front of them as a [`LateGateOp`], so lateness is
//! still decided on an event's original time — before a window rewrites it —
//! and `SortOp`'s own gate then judges only what a forced cut made late.
//!
//! On an instrumented chain the operator also samples its input's
//! watermark lag: per visible input event, late ones included,
//! `sync_time − last punctuation received` in ticks, clamped at zero —
//! how far ahead of the watermark the input runs, the slack a reorder
//! latency must cover (Fig 5's disorder quantity). Events seen before any
//! punctuation are not sampled. It is merged into the histogram under one
//! lock per batch ([`Histogram::record_batch`]).
//!
//! A batch is admitted whole. One read pass over its visible events
//! tallies their lag, takes the highest admitted `sync_time` and counts
//! the late ones; the late events are then diverted, in arrival order, and
//! the rest go to the sorter in one [`OnlineSorter::push_batch`] call.

use crate::checkpoint::Checkpointable;
use crate::observer::Observer;
use impatience_core::metrics::{Counter, Histogram, MetricsRegistry};
use impatience_core::{
    DeadLetterQueue, DeadLetterReason, Event, EventBatch, LatePolicy, MemoryMeter, Payload,
    ShedPolicy, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, StreamError, Timestamp,
};
use impatience_sort::{OnlineSorter, SorterGauges};

/// Failure-model configuration for one sorting operator.
#[derive(Debug, Clone)]
pub struct SortPolicy<P: Payload> {
    /// What to do with events at or below the watermark.
    pub late: LatePolicy,
    /// What to shed once the meter's budget is exceeded.
    pub shed: ShedPolicy,
    /// Destination for dead-lettered events (late under
    /// [`LatePolicy::DeadLetter`], or evicted under
    /// [`ShedPolicy::ShedOldestRuns`]). Without a queue the events are
    /// still counted, just not retained.
    pub dead_letters: Option<DeadLetterQueue<P>>,
}

impl<P: Payload> Default for SortPolicy<P> {
    fn default() -> Self {
        SortPolicy {
            late: LatePolicy::default(),
            shed: ShedPolicy::default(),
            dead_letters: None,
        }
    }
}

impl<P: Payload> SortPolicy<P> {
    /// The default policy (drop late events, force punctuation on budget).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Shared counters for the sorter boundary's fault handling, registered
/// under `{prefix}.late_dropped` / `.dead_lettered` / `.shed_events` /
/// `.forced_punctuations`.
#[derive(Debug, Clone, Default)]
pub struct SortFaultCounters {
    /// Late events discarded under [`LatePolicy::Drop`].
    pub late_dropped: Counter,
    /// Events diverted to the dead-letter channel (late or shed).
    pub dead_lettered: Counter,
    /// Events evicted by [`ShedPolicy::ShedOldestRuns`].
    pub shed_events: Counter,
    /// Early flushes forced by [`ShedPolicy::ForcePunctuation`] (or by the
    /// shed fallback when no run could be evicted).
    pub forced_punctuations: Counter,
}

impl SortFaultCounters {
    /// Fresh unregistered counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters backed by `registry` under the `{prefix}.*` names above.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        SortFaultCounters {
            late_dropped: registry.counter(&format!("{prefix}.late_dropped")),
            dead_lettered: registry.counter(&format!("{prefix}.dead_lettered")),
            shed_events: registry.counter(&format!("{prefix}.shed_events")),
            forced_punctuations: registry.counter(&format!("{prefix}.forced_punctuations")),
        }
    }
}

/// The late-event decision of a sorting stage: the watermark events are
/// judged against, and what the [`LatePolicy`] does with the ones at or
/// below it.
pub struct LateGate<P: Payload> {
    watermark: Timestamp,
    late: LatePolicy,
    dead_letters: Option<DeadLetterQueue<P>>,
    /// The stage's fault counters: the gate counts late events into them,
    /// and a [`SortOp`] its sheds and forced cuts.
    faults: SortFaultCounters,
}

impl<P: Payload> LateGate<P> {
    /// A gate at watermark `MIN` applying `policy`'s late half, counting
    /// into `faults`.
    pub fn new(policy: &SortPolicy<P>, faults: SortFaultCounters) -> Self {
        LateGate {
            watermark: Timestamp::MIN,
            late: policy.late,
            dead_letters: policy.dead_letters.clone(),
            faults,
        }
    }

    /// Is an event at `t` late (at or below the watermark)?
    #[inline]
    pub fn is_late(&self, t: Timestamp) -> bool {
        t <= self.watermark
    }

    /// Disposes of one late event under the policy; `event` is only called
    /// when the event is retained (dead-lettered into a queue).
    pub fn divert(&self, event: impl FnOnce() -> Event<P>) {
        match self.late {
            // RerouteNextPartition is rejected at construction; treat a
            // stray instance as Drop rather than losing the event silently
            // AND wrongly — counting keeps the accounting honest.
            LatePolicy::Drop | LatePolicy::RerouteNextPartition => {
                self.faults.late_dropped.inc();
            }
            LatePolicy::DeadLetter => {
                self.faults.dead_lettered.inc();
                if let Some(q) = &self.dead_letters {
                    q.push(
                        event(),
                        DeadLetterReason::Late {
                            watermark: self.watermark,
                        },
                    );
                }
            }
        }
    }
}

/// A [`LateGate`] as a stage of its own: the front half of a sorting stage
/// whose [`SortOp`] runs further down the chain, behind per-event operators
/// that may rewrite timestamps. Late rows are marked in the filter bitmap
/// (and disposed of under the policy); punctuations advance the watermark
/// and pass through untranslated, so what reaches the sorter is exactly
/// what it would have admitted had it come first.
pub struct LateGateOp<P: Payload, S> {
    gate: LateGate<P>,
    failed: bool,
    next: S,
}

impl<P: Payload, S> LateGateOp<P, S> {
    /// Gates `next` with `gate`.
    pub fn new(gate: LateGate<P>, next: S) -> Self {
        LateGateOp {
            gate,
            failed: false,
            next,
        }
    }
}

impl<P: Payload, S: Send> Checkpointable for LateGateOp<P, S> {
    fn state_id(&self) -> &'static str {
        "engine.late_gate"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.gate.watermark.encode(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.gate.watermark = Timestamp::decode(r)?;
        Ok(())
    }
}

impl<P: Payload, S: Observer<P>> Observer<P> for LateGateOp<P, S> {
    fn on_batch(&mut self, mut batch: EventBatch<P>) {
        if self.failed {
            return;
        }
        for i in 0..batch.len() {
            if self.gate.is_late(batch.events()[i].sync_time) && batch.is_visible(i) {
                self.gate.divert(|| batch.events()[i].clone());
                batch.filter_mut().filter_out(i);
            }
        }
        self.next.on_batch(batch);
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        if self.failed {
            return;
        }
        // Same contract as `SortOp`, checked here because a translated
        // punctuation can hide a regression from the sorter behind it.
        if t < self.gate.watermark {
            self.failed = true;
            self.next.on_error(StreamError::PunctuationRegressed {
                previous: self.gate.watermark,
                attempted: t,
            });
            return;
        }
        self.gate.watermark = t;
        self.next.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        if !self.failed {
            self.next.on_completed();
        }
    }

    fn on_error(&mut self, err: StreamError) {
        if !self.failed {
            self.failed = true;
            self.next.on_error(err);
        }
    }
}

/// Sorting operator over an online sorter. It emits `Event<Q>`: the
/// sorted events themselves (`Q = P`), or what a folding sorter makes of
/// them — a ladder rung's fused sort and grouped aggregate hands on one
/// group per window and key (`ops::group::WindowTables`). Lateness, the
/// budget ladder, gauges, counters and the checkpoint frame are the same
/// either way.
pub struct SortOp<P: Payload, S, Q: Payload = P> {
    sorter: Box<dyn OnlineSorter<Event<P>, Event<Q>>>,
    meter: MemoryMeter,
    charged: usize,
    gate: LateGate<P>,
    /// Highest `sync_time` ever accepted into the sorter — the finite cut a
    /// forced punctuation flushes at.
    high: Timestamp,
    /// True once a forced cut has advanced the watermark past the
    /// upstream's punctuations. Part of the checkpointed state: after a
    /// restore, before the first input punctuation, the operator must
    /// still recognise replayed stale punctuations as progress rather
    /// than regressions.
    watermark_forced: bool,
    /// True when a [`LateGateOp`] upstream already judged lateness on
    /// original times: the own gate then judges only what a forced cut
    /// made late. Without a forced cut it could only misjudge: a window
    /// start saturated at `Timestamp::MIN` sits on the watermark `MIN`
    /// that means "no punctuation yet".
    behind_gate: bool,
    policy: SortPolicy<P>,
    failed: bool,
    gauges: Option<SorterGauges>,
    watermark_lag: Option<Histogram>,
    /// The last punctuation received — not the watermark, which a forced
    /// cut moves and a checkpoint restores: lag is measured, and a
    /// regression judged, against the input's own punctuations since this
    /// operator was built.
    last_punctuation: Option<Timestamp>,
    next: S,
}

#[cfg(test)]
thread_local! {
    /// Watermark-lag flushes (one histogram lock each) made on this thread.
    pub(crate) static LAG_FLUSHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<P: Payload, S, Q: Payload> SortOp<P, S, Q> {
    /// Wraps `sorter` with the default policy (drop late events, force
    /// punctuation under memory pressure); buffered state is charged to
    /// `meter`.
    pub fn new(
        sorter: Box<dyn OnlineSorter<Event<P>, Event<Q>>>,
        meter: MemoryMeter,
        next: S,
    ) -> Self {
        Self::with_policy(sorter, meter, SortPolicy::default(), next)
    }

    /// Wraps `sorter` with an explicit failure-model policy.
    ///
    /// [`LatePolicy::RerouteNextPartition`] is not accepted here — reroute
    /// needs the framework's partitioner; construct via
    /// [`crate::Streamable::sorted`] to get the typed error.
    pub fn with_policy(
        sorter: Box<dyn OnlineSorter<Event<P>, Event<Q>>>,
        meter: MemoryMeter,
        policy: SortPolicy<P>,
        next: S,
    ) -> Self {
        SortOp {
            sorter,
            meter,
            charged: 0,
            gate: LateGate::new(&policy, SortFaultCounters::new()),
            high: Timestamp::MIN,
            watermark_forced: false,
            behind_gate: false,
            policy,
            failed: false,
            gauges: None,
            watermark_lag: None,
            last_punctuation: None,
            next,
        }
    }

    /// Publishes sorter state into `gauges` at punctuation boundaries: the
    /// sync just before a flush captures the per-punctuation high-water
    /// marks (buffering and state bytes peak there), the one just after
    /// captures the post-flush level.
    pub fn with_gauges(mut self, gauges: SorterGauges) -> Self {
        self.gauges = Some(gauges);
        self
    }

    /// Samples the input's watermark lag into `histogram` (see the module
    /// docs).
    pub fn with_watermark_lag(mut self, histogram: Histogram) -> Self {
        self.watermark_lag = Some(histogram);
        self
    }

    /// Marks this operator as placed behind a [`LateGateOp`] (see the
    /// module docs).
    pub(crate) fn behind_late_gate(mut self) -> Self {
        self.behind_gate = true;
        self
    }

    /// Records fault handling into shared `counters` (for registry-backed
    /// snapshots).
    pub fn with_fault_counters(mut self, counters: SortFaultCounters) -> Self {
        self.gate.faults = counters;
        self
    }

    /// Events dropped for arriving at or below an already-emitted
    /// punctuation (under [`LatePolicy::Drop`]).
    pub fn dropped_late(&self) -> u64 {
        self.gate.faults.late_dropped.get()
    }

    /// Events diverted to the dead-letter channel (late + shed).
    pub fn dead_lettered(&self) -> u64 {
        self.gate.faults.dead_lettered.get()
    }

    /// Events evicted under [`ShedPolicy::ShedOldestRuns`].
    pub fn shed_events(&self) -> u64 {
        self.gate.faults.shed_events.get()
    }

    /// Early flushes forced by memory pressure.
    pub fn forced_punctuations(&self) -> u64 {
        self.gate.faults.forced_punctuations.get()
    }

    fn sync_meter(&mut self) {
        let now = self.sorter.state_bytes();
        self.meter.recharge(self.charged, now);
        self.charged = now;
    }

    fn sync_gauges(&self) {
        if let Some(g) = &self.gauges {
            self.sorter.sync_gauges(g);
        }
    }
}

impl<P: Payload, S: Observer<Q>, Q: Payload> SortOp<P, S, Q> {
    /// Polls the sorter for a pending disk fault (recorded inside
    /// `punctuate`, whose signature cannot fail) and poisons the chain with
    /// it. Returns `true` if the chain just failed.
    fn poll_fault(&mut self) -> bool {
        if let Some(e) = self.sorter.take_fault() {
            self.on_error(e);
            return true;
        }
        false
    }

    /// Sheds the oldest buffered events, capped at the current budget
    /// overage, dead-lettering what goes. Returns `true` if any progress
    /// was made. The cap frees exactly what the [`MemoryMeter`] recorded as
    /// over, instead of dead-lettering a whole run when only part of it
    /// exceeds the budget.
    fn shed_capped(&mut self) -> bool {
        let item_bytes = core::mem::size_of::<Event<P>>().max(1);
        let mut progress = false;
        let mut shed: Vec<Event<P>> = Vec::new();
        while self.meter.over_budget() {
            let Some(budget) = self.meter.budget() else {
                break;
            };
            let overage = self.meter.current().saturating_sub(budget);
            let cap = overage / item_bytes + 1;
            shed.clear();
            if self.sorter.shed_oldest_capped(cap, &mut shed) == 0 {
                break; // no run structure / nothing left: fall through
            }
            progress = true;
            self.gate.faults.shed_events.add(shed.len() as u64);
            for e in shed.drain(..) {
                self.gate.faults.dead_lettered.inc();
                if let Some(q) = &self.policy.dead_letters {
                    q.push(e, DeadLetterReason::Shed);
                }
            }
            self.sync_meter();
        }
        progress
    }

    /// Spills cold runs to disk until back under budget (the lossless
    /// rung). Returns `true` if the chain failed on a disk fault.
    fn spill_until_under_budget(&mut self) -> bool {
        loop {
            if !self.meter.over_budget() {
                return false;
            }
            let Some(budget) = self.meter.budget() else {
                return false;
            };
            // The meter may account more than this sorter; spill down to
            // half this sorter's share of the budget, so the next few
            // batches fit before it spills again.
            let overage = self.meter.current().saturating_sub(budget);
            let target = self.sorter.state_bytes().saturating_sub(overage) / 2;
            match self.sorter.spill_cold(target) {
                Ok(0) => return false, // no spill support / nothing cold left
                Ok(_) => self.sync_meter(),
                Err(e) => {
                    self.on_error(e);
                    return true;
                }
            }
        }
    }

    /// Flushes everything buffered by punctuating at the highest accepted
    /// sync_time (a finite cut — the sorter stays usable) and advances the
    /// watermark to it. The effective reorder latency degrades — events at
    /// or below this cut become late and fall under the late policy.
    fn forced_cut(&mut self) {
        // With nothing buffered — all shed, or the budget held by others
        // sharing the meter — the cut frees nothing, and punctuating the
        // sorter anyway would raise its floor above the gate's watermark:
        // the next event at the cut would be admitted below it.
        if self.sorter.buffered_len() == 0 {
            return;
        }
        let cut = self.high.max(self.gate.watermark);
        let mut out = Vec::new();
        self.sorter.punctuate(cut, &mut out);
        if self.poll_fault() {
            return;
        }
        self.sync_meter();
        self.sync_gauges();
        if !out.is_empty() {
            self.gate.faults.forced_punctuations.inc();
            self.gate.watermark = cut;
            self.watermark_forced = true;
            self.next.on_batch(EventBatch::from_events(out));
            self.next.on_punctuation(cut);
        }
    }

    /// Brings the sorter back under its memory budget, if one is set and
    /// exceeded, by walking the policy's degradation ladder.
    fn enforce_budget(&mut self) {
        if !self.meter.over_budget() || self.failed {
            return;
        }
        match self.policy.shed {
            ShedPolicy::SpillColdRuns => {
                // Rung 1 — lossless: freeze cold runs to disk.
                if self.spill_until_under_budget() {
                    return;
                }
                if !self.meter.over_budget() {
                    self.sync_gauges();
                    return;
                }
                // Rung 2: forced punctuation (keeps every event, degrades
                // the effective reorder latency).
                self.forced_cut();
                if self.failed || !self.meter.over_budget() {
                    return;
                }
                // Rung 3 — last resort: shed exactly the overage.
                self.shed_capped();
                self.sync_gauges();
            }
            ShedPolicy::ShedOldestRuns => {
                if self.shed_capped() && !self.meter.over_budget() {
                    self.sync_gauges();
                    return;
                }
                if self.meter.over_budget() {
                    self.forced_cut();
                }
            }
            ShedPolicy::ForcePunctuation => self.forced_cut(),
        }
    }
}

impl<P: Payload, S: Send, Q: Payload> Checkpointable for SortOp<P, S, Q> {
    fn state_id(&self) -> &'static str {
        "engine.sort"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.gate.watermark.encode(w);
        self.high.encode(w);
        w.put_u8(self.watermark_forced as u8);
        // The sorter decides whether its buffer is snapshottable; baseline
        // sorters without support surface `Unsupported`, which downgrades
        // the whole checkpoint to a counted skip.
        self.sorter.encode_state(w)
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let watermark = Timestamp::decode(r)?;
        let high = Timestamp::decode(r)?;
        let watermark_forced = r.get_u8()? != 0;
        self.sorter.restore_state(r)?;
        self.gate.watermark = watermark;
        self.high = high;
        self.watermark_forced = watermark_forced;
        self.sync_meter();
        Ok(())
    }

    fn on_checkpoint_committed(&mut self) {
        // A committed checkpoint retires one more retained generation;
        // spill files doomed two commits ago are now provably unreferenced
        // and can be reclaimed.
        self.sorter.spill_gc();
    }
}

impl<P: Payload, S: Observer<Q>, Q: Payload> Observer<P> for SortOp<P, S, Q> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        if self.failed {
            return;
        }
        let mut events = batch.into_visible();
        // One read pass: every event's lag, the highest admitted time, and
        // how many are late — none unless this stage judges lateness.
        let judge = !self.behind_gate || self.watermark_forced;
        let (gate, mut high, mut late) = (&self.gate, self.high, 0usize);
        let from = self.last_punctuation.map_or(0, Timestamp::ticks);
        let lags = events.iter().map(|e| {
            if judge && gate.is_late(e.sync_time) {
                late += 1;
            } else {
                high = high.max(e.sync_time);
            }
            e.sync_time.ticks().saturating_sub(from).max(0) as u64
        });
        let sampled = self.last_punctuation.and(self.watermark_lag.as_ref());
        if let Some(histogram) = sampled {
            #[cfg(test)]
            if !events.is_empty() {
                LAG_FLUSHES.with(|n| n.set(n.get() + 1));
            }
            histogram.record_batch(lags);
        } else {
            lags.for_each(drop);
        }
        self.high = high;
        if late > 0 {
            for e in events.extract_if(.., |e| self.gate.is_late(e.sync_time)) {
                self.gate.divert(|| e);
            }
        }
        self.sorter.push_batch(events);
        self.sync_meter();
        self.enforce_budget();
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        if self.failed {
            return;
        }
        let previous = self.last_punctuation.replace(t);
        if t < self.gate.watermark {
            // A regression is judged against the input's own punctuations.
            // A forced cut runs the watermark ahead of them, and what lies
            // between the last one and the cut is stale progress, swallowed
            // to keep downstream order intact; below the last one it is a
            // contract violation, forced cut or not: poison the chain with
            // a typed error instead of corrupting the output order. After a
            // restore, before the first input punctuation, there is no last
            // one and the restored flag decides: an operator whose watermark
            // ran ahead via a pre-crash forced cut swallows replayed
            // punctuations.
            let stale = previous.map_or(self.watermark_forced, |p| t >= p);
            if stale {
                return;
            }
            self.failed = true;
            self.next.on_error(StreamError::PunctuationRegressed {
                previous: previous.unwrap_or(self.gate.watermark),
                attempted: t,
            });
            return;
        }
        self.gate.watermark = t;
        self.sync_gauges();
        let mut out = Vec::new();
        self.sorter.punctuate(t, &mut out);
        if self.poll_fault() {
            return;
        }
        self.sync_meter();
        self.sync_gauges();
        if !out.is_empty() {
            self.next.on_batch(EventBatch::from_events(out));
        }
        self.next.on_punctuation(t);
    }

    fn on_completed(&mut self) {
        if self.failed {
            return;
        }
        self.sync_gauges();
        let mut out = Vec::new();
        self.sorter.drain_all(&mut out);
        if self.poll_fault() {
            return;
        }
        self.sync_meter();
        self.sync_gauges();
        if !out.is_empty() {
            self.next.on_batch(EventBatch::from_events(out));
        }
        self.next.on_completed();
    }

    fn on_error(&mut self, err: StreamError) {
        if self.failed {
            return;
        }
        self.failed = true;
        // The buffered events will never flush now; tombstone the live
        // gauges so snapshots don't report a dead sorter's state as live.
        if let Some(g) = &self.gauges {
            g.clear();
        }
        self.next.on_error(err);
    }
}

impl<P: Payload, S, Q: Payload> Drop for SortOp<P, S, Q> {
    fn drop(&mut self) {
        // Covers every death the observer protocol doesn't: panic-unwind
        // inside a shard worker, a dropped half-built chain, teardown after
        // completion (where the gauges already read zero — clearing is
        // idempotent). High-water marks are untouched.
        if let Some(g) = &self.gauges {
            g.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Output;
    use impatience_core::validate_ordered_stream;
    use impatience_sort::ImpatienceSorter;

    fn sort_op(
        sink: crate::observer::CollectorSink<u32>,
        meter: MemoryMeter,
    ) -> SortOp<u32, crate::observer::CollectorSink<u32>> {
        SortOp::new(Box::new(ImpatienceSorter::new()), meter, sink)
    }

    fn batch(ts: &[i64]) -> EventBatch<u32> {
        ts.iter()
            .map(|&t| Event::point(Timestamp::new(t), t as u32))
            .collect()
    }

    #[test]
    fn orders_the_paper_stream() {
        let (out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new());
        op.on_batch(batch(&[2, 6, 5, 1]));
        op.on_punctuation(Timestamp::new(2));
        op.on_batch(batch(&[4, 3, 7]));
        op.on_punctuation(Timestamp::new(4));
        op.on_batch(batch(&[8]));
        op.on_completed();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        assert_eq!(op.dropped_late(), 0);
    }

    #[test]
    fn drops_and_counts_late_events() {
        let (out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new());
        op.on_batch(batch(&[10]));
        op.on_punctuation(Timestamp::new(10));
        op.on_batch(batch(&[5, 10, 11])); // 5 and 10 are late
        op.on_completed();
        assert_eq!(op.dropped_late(), 2);
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10, 11]);
    }

    #[test]
    fn dead_letter_policy_diverts_late_events() {
        let (out, sink) = Output::<u32>::new();
        let dlq = DeadLetterQueue::new();
        let policy = SortPolicy {
            late: LatePolicy::DeadLetter,
            shed: ShedPolicy::default(),
            dead_letters: Some(dlq.clone()),
        };
        let mut op = SortOp::with_policy(
            Box::new(ImpatienceSorter::new()),
            MemoryMeter::new(),
            policy,
            sink,
        );
        op.on_batch(batch(&[8]));
        op.on_punctuation(Timestamp::new(10));
        op.on_batch(batch(&[9, 10])); // all late: `high` stays at 8
        assert_eq!(op.high, Timestamp::new(8));
        op.on_batch(batch(&[5, 12, 10, 11, 3])); // 5, 10 and 3 are late
        assert_eq!(op.high, Timestamp::new(12));
        op.on_completed();
        assert_eq!(op.dropped_late(), 0);
        assert_eq!(op.dead_lettered(), 5);
        let letters = dlq.drain();
        let late: Vec<i64> = letters.iter().map(|l| l.event.sync_time.ticks()).collect();
        assert_eq!(late, vec![9, 10, 5, 10, 3], "diverted in arrival order");
        assert!(letters.iter().all(|l| l.reason
            == DeadLetterReason::Late {
                watermark: Timestamp::new(10)
            }));
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![8, 11, 12], "on-time output unaffected");
    }

    #[test]
    fn watermark_lag_sampled_after_first_punctuation() {
        let lag = Histogram::new();
        let (_out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new()).with_watermark_lag(lag.clone());
        op.on_batch(batch(&[100])); // before any punctuation: not sampled
        op.on_punctuation(Timestamp::new(10));
        op.on_batch(batch(&[13, 10, 74])); // lags 3, 0 (late), 64
        op.on_completed();
        assert_eq!(lag.count(), 3);
        assert_eq!(lag.max(), 64);
        assert_eq!(lag.min(), 0);
        assert_eq!(lag.sum(), 67);
    }

    #[test]
    fn watermark_lag_skips_filtered_rows_and_clamps_late_ones() {
        let lag = Histogram::new();
        let (_out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new()).with_watermark_lag(lag.clone());
        op.on_punctuation(Timestamp::new(10));
        let mut b = batch(&[4, 50, 12]); // lags 0 (late, clamped), -, 2
        b.filter_mut().filter_out(1);
        op.on_batch(b);
        assert_eq!(op.dropped_late(), 1);
        assert_eq!(lag.count(), 2);
        assert_eq!(lag.sum(), 2);
    }

    #[test]
    fn watermark_lag_is_measured_against_received_punctuations() {
        // A forced cut moves the watermark to 19; lag still counts from
        // the last punctuation the input carried. The batch after the cut
        // mixes late and on-time events, for a plain sort and for one
        // behind a late gate, which judges lateness itself once a cut
        // forced its watermark.
        let budget = 4 * core::mem::size_of::<Event<u32>>();
        for behind_gate in [false, true] {
            let lag = Histogram::new();
            let dlq = DeadLetterQueue::new();
            let (out, sink) = Output::<u32>::new();
            let policy = SortPolicy {
                late: LatePolicy::DeadLetter,
                dead_letters: Some(dlq.clone()),
                ..SortPolicy::new()
            };
            let mut op = SortOp::with_policy(
                Box::new(ImpatienceSorter::new()),
                MemoryMeter::with_budget(budget),
                policy,
                sink,
            )
            .with_watermark_lag(lag.clone());
            if behind_gate {
                op = op.behind_late_gate();
            }
            op.on_punctuation(Timestamp::new(10));
            op.on_batch(batch(&[11, 12, 13, 14, 15, 16, 17, 18, 19]));
            assert!(op.forced_punctuations() > 0);
            assert_eq!(out.last_punctuation(), Some(Timestamp::new(19)));
            // Lags 10, 0 (late), 15, 9 (late), 0 (late), 12.
            op.on_batch(batch(&[20, 7, 25, 19, 3, 22]));
            let letters = dlq.drain();
            let late: Vec<i64> = letters.iter().map(|l| l.event.sync_time.ticks()).collect();
            assert_eq!(late, vec![7, 19, 3], "behind gate: {behind_gate}");
            assert!(letters.iter().all(|l| l.reason
                == DeadLetterReason::Late {
                    watermark: Timestamp::new(19)
                }));
            assert_eq!((op.dead_lettered(), op.dropped_late()), (3, 0));
            assert_eq!(lag.count(), 15, "every visible event, late ones too");
            assert_eq!(lag.sum(), (1..=9).sum::<u64>() + 46);
            // The next forced cut lands on the highest admitted time.
            assert_eq!(op.high, Timestamp::new(25));
            op.forced_cut();
            assert_eq!(out.last_punctuation(), Some(Timestamp::new(25)));
            let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
            assert_eq!(ts, (11..=20).chain([22, 25]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn meter_tracks_buffered_state() {
        let meter = MemoryMeter::new();
        let (_out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, meter.clone());
        op.on_batch(batch(&[100, 50, 75]));
        assert!(meter.current() >= 3 * core::mem::size_of::<Event<u32>>());
        op.on_punctuation(Timestamp::new(200));
        assert_eq!(meter.current(), 0, "flush released everything");
        assert!(meter.peak() > 0);
        op.on_completed();
    }

    #[test]
    fn filtered_rows_never_enter_the_sorter() {
        let (out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new());
        let mut b = batch(&[3, 1, 2]);
        b.filter_mut().filter_out(1);
        op.on_batch(b);
        op.on_completed();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![2, 3]);
    }

    #[test]
    fn empty_flushes_forward_punctuation_only() {
        let (out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new());
        op.on_punctuation(Timestamp::new(5));
        op.on_completed();
        let msgs = out.messages();
        assert_eq!(msgs.len(), 2); // punctuation + completed, no batch
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(5)));
    }

    #[test]
    fn regressed_punctuation_fails_typed() {
        let (out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new());
        op.on_batch(batch(&[10, 12]));
        op.on_punctuation(Timestamp::new(10));
        op.on_punctuation(Timestamp::new(4)); // regression
        op.on_batch(batch(&[13])); // poisoned: swallowed
        op.on_completed();
        assert_eq!(
            out.error(),
            Some(StreamError::PunctuationRegressed {
                previous: Timestamp::new(10),
                attempted: Timestamp::new(4),
            })
        );
        assert!(!out.is_completed(), "no completion after failure");
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10], "nothing flushed after the failure");
    }

    #[test]
    fn forced_punctuation_bounds_state() {
        let budget = 16 * core::mem::size_of::<Event<u32>>();
        let meter = MemoryMeter::with_budget(budget);
        let (out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, meter.clone());
        // Push far more than the budget admits, no upstream punctuation.
        for chunk in (0..200i64).collect::<Vec<_>>().chunks(10) {
            op.on_batch(
                chunk
                    .iter()
                    .map(|&t| Event::point(Timestamp::new(t), 0))
                    .collect(),
            );
            assert!(
                meter.current() <= budget,
                "budget enforced after every batch: {} > {budget}",
                meter.current()
            );
        }
        op.on_completed();
        assert!(op.forced_punctuations() > 0);
        assert_eq!(out.events().len(), 200, "forced cuts lose no events");
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        assert!(out.is_completed());
    }

    #[test]
    fn shed_oldest_runs_dead_letters_stragglers() {
        let budget = 24 * core::mem::size_of::<Event<u32>>();
        let meter = MemoryMeter::with_budget(budget);
        let dlq = DeadLetterQueue::new();
        let (out, sink) = Output::<u32>::new();
        let policy = SortPolicy {
            late: LatePolicy::Drop,
            shed: ShedPolicy::ShedOldestRuns,
            dead_letters: Some(dlq.clone()),
        };
        let mut op = SortOp::with_policy(
            Box::new(ImpatienceSorter::new()),
            meter.clone(),
            policy,
            sink,
        );
        // Mostly ascending traffic with interleaved severe stragglers: the
        // stragglers form low-tail runs, which shedding evicts first.
        let mut batch_events: Vec<Event<u32>> = Vec::new();
        for i in 0..400i64 {
            batch_events.push(Event::point(Timestamp::new(1_000 + i), 1));
            if i % 7 == 0 {
                batch_events.push(Event::point(Timestamp::new(i), 2)); // straggler
            }
            if batch_events.len() >= 8 {
                op.on_batch(batch_events.drain(..).collect());
                assert!(meter.current() <= budget, "budget holds");
            }
        }
        op.on_batch(batch_events.drain(..).collect());
        op.on_completed();
        assert!(op.shed_events() > 0, "pressure forced shedding");
        assert_eq!(op.shed_events(), dlq.total());
        assert_eq!(op.dead_lettered(), dlq.total());
        let letters = dlq.drain();
        assert!(letters.iter().all(|l| l.reason == DeadLetterReason::Shed));
        // Survivors still come out ordered; shed events are really gone.
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        let emitted = out.events().len() as u64 + op.shed_events();
        let total = 400 + (0..400).filter(|i| i % 7 == 0).count() as u64;
        assert_eq!(emitted, total, "every event emitted or shed, none lost");
    }

    #[test]
    fn dead_sorter_gauges_are_tombstoned() {
        use impatience_sort::SorterGauges;
        let registry = MetricsRegistry::new();
        let gauges = SorterGauges::register(&registry, "pipeline.00.sorter");
        {
            let (_out, sink) = Output::<u32>::new();
            let mut op = sort_op(sink, MemoryMeter::new()).with_gauges(gauges.clone());
            op.on_batch(batch(&[30, 10, 20]));
            op.on_punctuation(Timestamp::new(5)); // syncs gauges, flushes nothing
            assert!(gauges.buffered.get() > 0, "live state visible");
            op.on_error(StreamError::PushAfterCompleted);
            assert_eq!(gauges.buffered.get(), 0, "error tombstones the gauges");
            assert_eq!(gauges.runs.get(), 0);
            assert_eq!(gauges.state_bytes.get(), 0);
            assert!(gauges.buffered.high_water() > 0, "history survives");
        }
        // Drop path (panic-unwind equivalent): state dies with the operator.
        let (_out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new()).with_gauges(gauges.clone());
        op.on_batch(batch(&[30, 10, 20]));
        op.on_punctuation(Timestamp::new(5));
        assert!(gauges.buffered.get() > 0);
        drop(op);
        assert_eq!(gauges.buffered.get(), 0, "drop tombstones the gauges");
        assert_eq!(gauges.state_bytes.get(), 0);
    }

    fn spill_scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("impatience-sortop-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_cold_runs_is_lossless_under_budget() {
        use impatience_sort::{ExternalImpatienceSorter, ExternalSortConfig, SorterGauges};
        let dir = spill_scratch("lossless");
        let mut cfg = ExternalSortConfig::new(&dir);
        // Blocks big enough that frozen-run bookkeeping (one BlockMeta per
        // block) stays far below the budget.
        cfg.block_bytes = 4096;
        let registry = MetricsRegistry::new();
        let gauges = SorterGauges::register(&registry, "sorter");
        let budget = 48 * core::mem::size_of::<Event<u32>>();
        let meter = MemoryMeter::with_budget(budget);
        let dlq = DeadLetterQueue::new();
        let (out, sink) = Output::<u32>::new();
        let policy = SortPolicy {
            late: LatePolicy::Drop,
            shed: ShedPolicy::SpillColdRuns,
            dead_letters: Some(dlq.clone()),
        };
        let mut op = SortOp::with_policy(
            Box::new(ExternalImpatienceSorter::with_config(cfg)),
            meter.clone(),
            policy,
            sink,
        )
        .with_gauges(gauges.clone());
        // The same straggler-heavy shape that forces ShedOldestRuns to
        // dead-letter; under SpillColdRuns every event must survive.
        let mut batch_events: Vec<Event<u32>> = Vec::new();
        for i in 0..400i64 {
            batch_events.push(Event::point(Timestamp::new(1_000 + i), 1));
            if i % 7 == 0 {
                batch_events.push(Event::point(Timestamp::new(i), 2));
            }
            if batch_events.len() >= 8 {
                op.on_batch(batch_events.drain(..).collect());
                assert!(meter.current() <= budget, "budget holds");
            }
        }
        op.on_batch(batch_events.drain(..).collect());
        op.on_completed();
        assert!(
            gauges.spill_runs_spilled.get() > 0,
            "pressure forced spilling"
        );
        assert_eq!(
            op.forced_punctuations(),
            0,
            "spilling alone reclaimed enough"
        );
        assert_eq!(op.shed_events(), 0, "spill rung kept shedding at zero");
        assert_eq!(op.dead_lettered(), 0);
        assert_eq!(dlq.total(), 0);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        let total = 400 + (0..400).filter(|i| i % 7 == 0).count();
        assert_eq!(out.events().len(), total, "lossless: every event emitted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_disk_fault_poisons_chain_with_typed_error() {
        use impatience_sort::{ExternalImpatienceSorter, ExternalSortConfig};
        let dir = spill_scratch("fault");
        let mut cfg = ExternalSortConfig::new(&dir);
        cfg.block_bytes = 4096;
        let budget = 48 * core::mem::size_of::<Event<u32>>();
        let meter = MemoryMeter::with_budget(budget);
        let (out, sink) = Output::<u32>::new();
        let policy = SortPolicy {
            late: LatePolicy::Drop,
            shed: ShedPolicy::SpillColdRuns,
            dead_letters: None,
        };
        let mut op = SortOp::with_policy(
            Box::new(ExternalImpatienceSorter::with_config(cfg)),
            meter.clone(),
            policy,
            sink,
        );
        // Stragglers force cold runs onto disk.
        let mut batch_events: Vec<Event<u32>> = Vec::new();
        for i in 0..200i64 {
            batch_events.push(Event::point(Timestamp::new(1_000 + i), 1));
            if i % 5 == 0 {
                batch_events.push(Event::point(Timestamp::new(i), 2));
            }
            if batch_events.len() >= 8 {
                op.on_batch(batch_events.drain(..).collect());
            }
        }
        op.on_batch(batch_events.drain(..).collect());
        // Corrupt the final byte (the last block's CRC) of every run file:
        // the next merge that reads one must surface a typed error, never
        // abort.
        let mut damaged = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "run") {
                let len = path.metadata().unwrap().len();
                impatience_testkit::corrupt_byte(&path, len - 1).unwrap();
                damaged += 1;
            }
        }
        assert!(damaged > 0, "spill produced run files to damage");
        op.on_punctuation(Timestamp::new(2_000)); // merges frozen runs
        op.on_completed(); // poisoned: swallowed
        match out.error() {
            Some(StreamError::SpillFailed { .. }) => {}
            other => panic!("expected SpillFailed, got {other:?}"),
        }
        assert!(!out.is_completed(), "no completion after a spill fault");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn upstream_error_passes_through_once() {
        let (out, sink) = Output::<u32>::new();
        let mut op = sort_op(sink, MemoryMeter::new());
        op.on_batch(batch(&[7]));
        op.on_error(StreamError::PushAfterCompleted);
        op.on_error(StreamError::InvalidConfig("dup".into()));
        op.on_completed(); // poisoned: no flush
        assert_eq!(out.error(), Some(StreamError::PushAfterCompleted));
        assert!(out.events().is_empty(), "no flush after upstream failure");
    }
}
