//! The Impatience framework's latency ladder (§V), as one method of the
//! disordered section: [`DisorderedStreamable::to_streamables`], the
//! paper's `ToStreamables`.
//!
//! Given reorder latencies `{l₁ < l₂ < … < l_k}`, the ladder partitions a
//! disordered input by *event delay* into k in-order streams (the rungs)
//! and produces k output streams, where output i contains every event that
//! arrived within `l_i`, delivered with latency `l_i` — the
//! latency/completeness tradeoff as a user specification rather than a
//! single forced choice (Fig 1, Fig 6). A user-supplied **PIQ** (partial
//! input query) runs once per rung on its sorted stream and a **merge**
//! recombines partials after each union, so every input event is
//! evaluated once and unions buffer only intermediate results (Fig 6(b));
//! identity PIQ and merge give the basic framework (Fig 6(a)).
//!
//! Delay partitioning reads the one lateness rule, [`WatermarkClock`]: an
//! event is inside latency `l` iff its delay — `high − sync_time` against
//! the high watermark *before* it arrived, unclamped — is `< l`. It is
//! routed to the first rung it is inside, or dropped (and counted) if even
//! the largest latency cannot accommodate it; an event that raises the
//! watermark fits every rung, a 0-tick one included. Rung i is punctuated
//! at `high − l_i` on every input punctuation that advances the clock, so
//! its sorter flushes on exactly the cadence its latency promises.
//!
//! Each rung gets at most one batch per input batch. The partitioner
//! decides every event's rung in arrival order, noting the batch's maximal
//! same-rung runs, then copies each run into its rung's buffer as one
//! slice, sized to what the rung receives; when every visible event goes
//! to one rung, that rung takes the batch's own storage and nothing is
//! copied. Dropped and dead-lettered events are handled one by one, in
//! arrival order.
//!
//! Every rung picks its sorter by the planner's rule,
//! [`SorterChoice::for_input`](crate::spec::SorterChoice::for_input), from
//! the window the disordered section recorded: over the window starts of
//! input that [`DisorderedStreamable::tumbling_window`] aligned a rung runs
//! the [`BucketSorter`](impatience_sort::BucketSorter), one bucket per
//! start; without a window, or under [`ShedPolicy::ShedOldestRuns`],
//! Impatience.
//! The ladder never spills. The bucket sorter keeps arrival
//! order among equal times and a union takes ties from its faster (left)
//! side first, so with it the basic framework's output streams order
//! equal times by rung, then by arrival.
//!
//! # Fused rungs
//!
//! A rung's sort is placed by its PIQ, under the planner's rule
//! ([`PipelineSpec::plan`](crate::spec::PipelineSpec::plan)): filters
//! ahead of a grouped operator —
//! [`group_aggregate`](Streamable::group_aggregate) or
//! [`reduce_by_key`](Streamable::reduce_by_key) — run below it, and the
//! window that aligned the input is the one window ahead. On a
//! bucket-sorting rung the grouped operator then fuses into the sort
//! stage, which folds each admitted event into one group table per open
//! window start and, on a punctuation, closes every window at or below
//! it — in window order, keys ascending. The tables sit on the bucket
//! sorter's own grid ([`BucketGrid`](impatience_sort::BucketGrid)), which
//! finds, opens, reuses and closes them as it does buckets of events. It is legal because the PIQ
//! regroups: over window-aligned input its output depends only on each
//! `(window, key)` group's events, folded in arrival order within a
//! window, the order the bucket sorter keeps — so a combine need not be
//! commutative. The stage emits exactly the events sort → grouped
//! operator would, in fewer batches, and keeps the sort's late gate,
//! budget ladder, gauges and counters (`partitionNN.00.sorter.*`,
//! `.00.sort.*`) and its checkpoint frame, whose sorter state is then the
//! open windows' groups. Every other rung — an identity PIQ, a `re_key`,
//! a second window or any other op first, no window, `ShedOldestRuns` —
//! sorts, then runs the PIQ. A durable slot written by one plan is
//! refused, typed, by the other.
//!
//! The latencies must pass [`validate_ladder`], the rule every latency
//! ladder in the workspace shares: non-empty, at most 255 rungs,
//! non-negative and strictly increasing.
//!
//! # The boundary carries the chain
//!
//! As [`Streamable::sharded`] does for a shard, the ladder hands the
//! disordered section's settings to every rung: rung `i`'s input is
//! instrumented and traced under `partition{i:02}` (the trace on lane
//! `i`), fenced when the chain is hardened, and — unlike a shard's —
//! carries the checkpoint context, since a ladder runs on the source's one
//! thread. The merge and output relays carry the fence and the checkpoint
//! context only. The routing split (`framework.partition{i:02}.routed`,
//! `framework.dropped`, `framework.dead_lettered`) and each rung's latency
//! (`framework.partition{i:02}.latency_ticks`) land in the chain's
//! registry. Subscribe all outputs before feeding a durable ladder:
//! traffic buffered in an unsubscribed output relay is not part of any
//! operator's checkpointed state.

use crate::checkpoint::Checkpointable;
use crate::disordered::DisorderedStreamable;
use crate::observer::Observer;
use crate::ops::{union as build_union, SortPolicy};
use crate::streamable::{enrol, input_stream, InputHandle, Streamable};
use impatience_core::metrics::{Counter, MetricsRegistry};
use impatience_core::{
    validate_ladder, DeadLetterQueue, DeadLetterReason, Event, EventBatch, LatePolicy, MemoryMeter,
    Payload, ShedPolicy, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, StreamError,
    TickDuration, Timestamp, WatermarkClock,
};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Failure-model configuration for a ladder.
///
/// `late` decides the fate of an event outside the *fastest* latency `l₀`
/// (its delay reaches `l₀`): [`LatePolicy::RerouteNextPartition`] (the paper's §V
/// behaviour and the default) walks it into the first rung that can still
/// accommodate it; [`LatePolicy::Drop`] discards it immediately;
/// [`LatePolicy::DeadLetter`] diverts it to `dead_letters`. Events too
/// delayed even for the largest latency are dropped (counted) under the
/// first two policies and dead-lettered under the third.
///
/// `shed` and `dead_letters` are handed to every rung's sorting operator,
/// so a budget on the shared [`MemoryMeter`] degrades gracefully instead
/// of growing without bound.
#[derive(Clone)]
pub struct FrameworkPolicy<P: Payload> {
    /// Routing of events that missed the fastest rung.
    pub late: LatePolicy,
    /// Per-rung sorter shedding under memory pressure.
    /// [`ShedPolicy::ShedOldestRuns`] keeps every rung on Impatience, whose
    /// runs it sheds (see the module docs).
    pub shed: ShedPolicy,
    /// Destination for dead-lettered events (partitioner and sorters).
    pub dead_letters: Option<DeadLetterQueue<P>>,
}

impl<P: Payload> Default for FrameworkPolicy<P> {
    fn default() -> Self {
        FrameworkPolicy {
            late: LatePolicy::RerouteNextPartition,
            shed: ShedPolicy::default(),
            dead_letters: None,
        }
    }
}

/// Shared routing counters for completeness accounting (Table II), built on
/// the core metrics primitives so they can surface in a registry snapshot.
#[derive(Clone)]
pub struct FrameworkStats {
    routed: Arc<Vec<Counter>>,
    dropped: Counter,
    dead_lettered: Counter,
}

impl FrameworkStats {
    /// Counters backed by `registry` under
    /// `framework.partition{i:02}.routed`, `framework.dropped`, and
    /// `framework.dead_lettered`, so the Table-II routing split appears in
    /// snapshots. Without a registry they live in a private one that
    /// nothing exports.
    fn registered(k: usize, registry: Option<&MetricsRegistry>) -> Self {
        let r = registry.cloned().unwrap_or_else(MetricsRegistry::new);
        FrameworkStats {
            routed: Arc::new(
                (0..k)
                    .map(|i| r.counter(&format!("framework.partition{i:02}.routed")))
                    .collect(),
            ),
            dropped: r.counter("framework.dropped"),
            dead_lettered: r.counter("framework.dead_lettered"),
        }
    }

    /// Events routed to rung `i`.
    pub fn routed(&self, i: usize) -> u64 {
        self.routed[i].get()
    }

    /// Events dropped because they exceeded the largest latency.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Events diverted to the dead-letter channel at the partitioner.
    pub fn dead_lettered(&self) -> u64 {
        self.dead_lettered.get()
    }

    /// Total events seen (routed + dropped + dead-lettered).
    pub fn total(&self) -> u64 {
        self.routed.iter().map(Counter::get).sum::<u64>() + self.dropped() + self.dead_lettered()
    }

    /// Fraction of input events present in output stream `i` (which
    /// contains rungs `0..=i`).
    pub fn completeness(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let in_stream: u64 = self.routed.iter().take(i + 1).map(Counter::get).sum();
        in_stream as f64 / total as f64
    }
}

impl core::fmt::Debug for FrameworkStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "FrameworkStats(routed={:?}, dropped={}, dead_lettered={})",
            self.routed.iter().map(Counter::get).collect::<Vec<_>>(),
            self.dropped(),
            self.dead_lettered()
        )
    }
}

/// The sequence of output streams produced by a ladder — the paper's
/// `Streamables` abstraction (§V-C).
pub struct Streamables<Q: Payload> {
    streams: Vec<Option<Streamable<Q>>>,
    stats: FrameworkStats,
}

impl<Q: Payload> Streamables<Q> {
    /// Number of output streams (= number of reorder latencies).
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no streams were produced (never for a valid ladder).
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Takes ownership of output stream `i` (the paper's
    /// `ss.Streamable(i)`), returning a typed error for an out-of-range
    /// index or an already-taken stream.
    pub fn take_stream(&mut self, i: usize) -> Result<Streamable<Q>, StreamError> {
        let k = self.len();
        let slot = self.streams.get_mut(i).ok_or_else(|| {
            StreamError::InvalidConfig(format!(
                "output stream {i} out of range (framework has {k} streams)"
            ))
        })?;
        slot.take().ok_or_else(|| {
            StreamError::InvalidConfig(format!("output stream {i} already subscribed"))
        })
    }

    /// Routing statistics (completeness per stream).
    pub fn stats(&self) -> FrameworkStats {
        self.stats.clone()
    }
}

/// The delay-based partitioning operator (Fig 6's "partition").
struct Partitioner<P: Payload> {
    latencies: Vec<TickDuration>,
    parts: Vec<InputHandle<P>>,
    /// Each rung's share of the current batch, sized to it before the
    /// copy.
    scratch: Vec<Vec<Event<P>>>,
    /// The current batch's maximal same-rung runs of routed events, as
    /// `(rung, rows)`: the routing pass fills it, the copy pass reads it.
    runs: Vec<(usize, Range<usize>)>,
    /// Events routed to each rung in the current batch, added to
    /// `stats.routed` once per batch rather than once per event.
    tally: Vec<u64>,
    /// Delays, and each rung's punctuation: the last cut less its latency.
    clock: WatermarkClock,
    stats: FrameworkStats,
    late: LatePolicy,
    dead_letters: Option<DeadLetterQueue<P>>,
}

impl<P: Payload> Partitioner<P> {
    /// Publishes the batch's routing tally.
    fn publish_tally(&mut self) {
        for (routed, n) in self.stats.routed.iter().zip(&mut self.tally) {
            if *n > 0 {
                routed.add(core::mem::take(n));
            }
        }
    }

    fn flush_scratch(&mut self) {
        for (i, buf) in self.scratch.iter_mut().enumerate() {
            if !buf.is_empty() {
                self.parts[i].push_events(core::mem::take(buf));
            }
        }
    }

    fn divert(&mut self, e: &Event<P>) {
        self.stats.dead_lettered.inc();
        if let Some(q) = &self.dead_letters {
            q.push(
                e.clone(),
                DeadLetterReason::Late {
                    watermark: self.clock.high,
                },
            );
        }
    }
}

/// The partitioner's durable state is its watermark clock, framed as the
/// high watermark then each rung's last punctuation. `scratch`, `runs`
/// and `tally` are always empty at a punctuation boundary (every batch
/// flushes them), and the routing stats are advisory metrics rather than
/// replay-critical state.
impl<P: Payload> Checkpointable for Partitioner<P> {
    fn state_id(&self) -> &'static str {
        "framework.partitioner"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.clock.high.encode(w);
        let rungs = self.clock.rung_punctuations(&self.latencies);
        rungs.collect::<Vec<_>>().encode(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let high = Timestamp::decode(r)?;
        let rungs = Vec::<Timestamp>::decode(r)?;
        // While rung 0 sits at `MIN` no rung has advanced: a cut at `MIN`.
        let last = rungs.first().filter(|p| **p > Timestamp::MIN);
        let last = last.map_or(Timestamp::MIN, |p| p.saturating_add(self.latencies[0]));
        let clock = WatermarkClock { high, last };
        if !clock
            .rung_punctuations(&self.latencies)
            .eq(rungs.iter().copied())
        {
            let k = self.latencies.len();
            let why = format!("partitioner snapshot {rungs:?} does not fit the {k} rungs built");
            return Err(SnapshotError::corrupt(why));
        }
        self.clock = clock;
        Ok(())
    }
}

impl<P: Payload> Observer<P> for Partitioner<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let events = batch.into_visible();
        for (row, e) in events.iter().enumerate() {
            let i = WatermarkClock::rung(self.clock.arrive(e.sync_time), &self.latencies);
            // An event that missed the fastest rung is *late*; walking to
            // rung i is the reroute policy. Past the largest latency no
            // rung exists to reroute into.
            if i < self.latencies.len() && (i == 0 || self.late == LatePolicy::RerouteNextPartition)
            {
                self.tally[i] += 1;
                match self.runs.last_mut() {
                    Some((rung, rows)) if *rung == i && rows.end == row => rows.end += 1,
                    _ => self.runs.push((i, row..row + 1)),
                }
            } else if self.late == LatePolicy::DeadLetter {
                self.divert(e);
            } else {
                self.stats.dropped.inc();
            }
        }
        match self.runs.as_slice() {
            // Every visible event goes to one rung: it takes the batch's
            // own storage.
            [(i, rows)] if rows.len() == events.len() => {
                let i = *i;
                self.publish_tally();
                self.parts[i].push_events(events);
            }
            // Each run is one slice copy into a buffer sized to its rung's
            // share of the batch.
            runs => {
                for (buf, &n) in self.scratch.iter_mut().zip(&self.tally) {
                    buf.reserve_exact(n as usize);
                }
                for (i, rows) in runs {
                    self.scratch[*i].extend_from_slice(&events[rows.clone()]);
                }
                self.publish_tally();
                self.flush_scratch();
            }
        }
        self.runs.clear();
    }

    fn on_punctuation(&mut self, _t: Timestamp) {
        // Input punctuations are a cadence signal; each rung is punctuated
        // from the ladder's own watermark clock.
        let parts = &self.parts;
        self.clock
            .punctuate_ladder(&self.latencies, |i, p| parts[i].push_punctuation(p));
    }

    fn on_completed(&mut self) {
        self.flush_scratch();
        for h in &self.parts {
            h.complete();
        }
    }

    fn on_error(&mut self, err: StreamError) {
        self.flush_scratch();
        for h in &self.parts {
            h.push_error(err.clone());
        }
    }
}

/// The ladder's fan-out: output stream i−1's traffic also feeds union i's
/// left input (Fig 6).
struct Tee<A, B> {
    a: A,
    b: B,
}

impl<P: Payload, A: Observer<P>, B: Observer<P>> Observer<P> for Tee<A, B> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        self.a.on_batch(batch.clone());
        self.b.on_batch(batch);
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        self.a.on_punctuation(t);
        self.b.on_punctuation(t);
    }
    fn on_completed(&mut self) {
        self.a.on_completed();
        self.b.on_completed();
    }
    fn on_error(&mut self, err: StreamError) {
        self.a.on_error(err.clone());
        self.b.on_error(err);
    }
}

impl<P: Payload> DisorderedStreamable<P> {
    /// Enters the Impatience framework (§V-C's `ToStreamables`): runs this
    /// section through the latency ladder (see the [module docs](self))
    /// and returns its `k` output streams, stream `i` holding every event
    /// that arrived within `latencies[i]`. Each rung's sorter is picked
    /// for the window this section was aligned to.
    ///
    /// `piq` is instantiated once per rung on the rung's unplaced sort,
    /// which it places: a PIQ that opens with filters and a grouped
    /// operator runs the filters below the sort and, over window-aligned
    /// input, fuses the grouped operator into it ([fused
    /// rungs](self#fused-rungs)); any other PIQ runs on the sorted rung.
    /// `merge` is instantiated once per union output. For correct results
    /// the pair must satisfy the usual partial-aggregation law (e.g.
    /// per-window partial counts + addition); identity PIQ and merge give
    /// the basic framework (Fig 6(a)). Each rung inherits this section's
    /// instruments, fence, trace and checkpoint context ([the boundary
    /// carries the chain](self#the-boundary-carries-the-chain)).
    ///
    /// The ladder is built, and the source subscribed, by this call; an
    /// invalid ladder is refused before any rung or relay is built.
    pub fn to_streamables<Q: Payload>(
        self,
        latencies: &[TickDuration],
        piq: impl Fn(Streamable<P>) -> Streamable<Q> + 'static,
        merge: impl Fn(Streamable<Q>) -> Streamable<Q> + 'static,
        meter: &MemoryMeter,
        policy: FrameworkPolicy<P>,
    ) -> Result<Streamables<Q>, StreamError> {
        validate_ladder(latencies)?;
        let DisorderedStreamable { stream, window } = self;
        let Streamable {
            connect: source,
            ctx,
            ..
        } = stream.settle();
        let ckpt = ctx.checkpoint();
        let k = latencies.len();
        let stats = FrameworkStats::registered(k, ctx.registry());
        if let Some(r) = ctx.registry() {
            for (i, l) in latencies.iter().enumerate() {
                r.gauge(&format!("framework.partition{i:02}.latency_ticks"))
                    .set(l.as_ticks());
            }
        }
        let relay = || {
            let (h, mut s) = input_stream::<Q>();
            s.ctx = ctx.for_relay();
            (h, s)
        };

        // Output relays (buffer until subscribed).
        let (out_handles, out_streams): (Vec<_>, Vec<_>) = (0..k)
            .map(|_| {
                let (h, s) = relay();
                (h, Some(s))
            })
            .unzip();

        // Build the union/merge chain from the deepest stage (k-1) downward.
        // `stage_sink` consumes the current output stream's traffic. This
        // build order is deterministic, which makes the checkpoint
        // registration order stable across the runs that write and restore.
        let mut sinks: Vec<Box<dyn Observer<Q>>> = Vec::with_capacity(k);
        let mut stage_sink: Box<dyn Observer<Q>> = Box::new(out_handles[k - 1].clone());
        for i in (1..k).rev() {
            // union_i → merge_i → stage i's sink.
            let (merge_handle, merge_stream) = relay();
            merge(merge_stream).subscribe_observer(stage_sink);
            let (left, right) = build_union(Box::new(merge_handle), meter.clone());
            if let Some(c) = ckpt {
                // The ladder union's synchronization buffers are durable
                // state; its left input snapshots the whole union.
                c.register(Arc::new(Mutex::new(left.clone())));
            }
            sinks.push(Box::new(right));
            // Stage i−1 fans out: to output i−1 and into union_i's left input.
            stage_sink = Box::new(Tee {
                a: out_handles[i - 1].clone(),
                b: left,
            });
        }
        sinks.push(stage_sink);
        sinks.reverse();

        // Rungs: relay → sort → PIQ → stage sink, the sort placed by the
        // PIQ. The partitioner already filtered per-rung late events, so
        // any residual late event at a sorter is dropped (and counted).
        let mut parts = Vec::with_capacity(k);
        for (i, sink) in sinks.into_iter().enumerate() {
            let (h, mut rung) = input_stream::<P>();
            rung.ctx = ctx.for_rung(i);
            parts.push(h);
            let sort_policy = SortPolicy {
                late: LatePolicy::Drop,
                shed: policy.shed,
                dead_letters: policy.dead_letters.clone(),
            };
            piq(rung.sorted_unplaced(window, None, meter, sort_policy)?).subscribe_observer(sink);
        }

        // Subscribing the partitioner connects the source's checkpoint gate
        // last, so its recovery pass runs after every participant has
        // registered.
        let partitioner = Partitioner {
            latencies: latencies.to_vec(),
            scratch: (0..k).map(|_| Vec::new()).collect(),
            runs: Vec::new(),
            tally: vec![0; k],
            parts,
            clock: WatermarkClock::NEW,
            stats: stats.clone(),
            late: policy.late,
            dead_letters: policy.dead_letters,
        };
        source(enrol(ckpt.cloned(), partitioner));

        Ok(Streamables {
            streams: out_streams,
            stats,
        })
    }
}
