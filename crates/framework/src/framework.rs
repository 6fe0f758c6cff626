//! The Impatience framework (§V).
//!
//! Given reorder latencies `{l₁ < l₂ < … < l_k}`, the framework partitions
//! a disordered input by *event delay* into k in-order streams and
//! produces k output streams, where output i contains every event that
//! arrived within `l_i`, delivered with latency `l_i` — the
//! latency/completeness tradeoff as a user specification rather than a
//! single forced choice (Fig 1, Fig 6).
//!
//! * **Basic framework** ([`to_streamables_basic`], Fig 6(a)): raw events
//!   flow through sort → union chains. Downstream queries run redundantly
//!   per output, and unions buffer raw events across the latency gap.
//! * **Advanced framework** ([`to_streamables_advanced`], Fig 6(b)): a
//!   user-supplied **PIQ** (partial input query) runs once per partition
//!   and a **merge** function recombines partials after each union. Every
//!   input event is evaluated exactly once, and unions buffer only small
//!   intermediate results — the Fig 10 throughput (~2–3×) and memory
//!   (~30×) wins.
//!
//! Delay partitioning uses the ingress watermark clock: an event's delay
//! is `high_watermark − sync_time` at arrival; it is routed to the first
//! partition whose latency strictly exceeds that delay, or dropped (and
//! counted) if even the largest latency cannot accommodate it. Partition i
//! is punctuated at `watermark − l_i` on every input punctuation, so its
//! sorter flushes on exactly the cadence its latency promises.
//!
//! Every partition picks its sorter by the planner's rule,
//! [`SorterChoice::for_input`], from the surface the user built: when a
//! tumbling window aligned the disordered input, a rung sees only window
//! starts and runs the [`BucketSorter`](impatience_sort::BucketSorter),
//! one bucket per start; without a window, or under
//! [`ShedPolicy::ShedOldestRuns`], it runs Impatience. The framework never
//! spills. The bucket sorter keeps arrival order among equal times and a
//! union takes ties from its faster (left) side first, so with it the basic
//! framework's output streams order equal times by partition, then by
//! arrival.
//!
//! The latencies must pass [`validate_ladder`], the rule every latency
//! ladder in the workspace shares: non-empty, at most 255 rungs,
//! non-negative and strictly increasing.

use crate::disordered::DisorderedStreamable;
use crate::plumbing::TeeOp;
use impatience_core::metrics::{Counter, MetricsRegistry};
use impatience_core::{
    validate_ladder, DeadLetterQueue, DeadLetterReason, Event, LatePolicy, MemoryMeter, Payload,
    ShedPolicy, SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, StreamError,
    TickDuration, Timestamp, TraceSink,
};
use impatience_engine::ops::{union as build_union, SortPolicy};
use impatience_engine::{
    input_stream, CheckpointCtx, Checkpointable, InputHandle, Observer, SharedSink, SorterChoice,
    Streamable, TraceCtx,
};

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Failure-model configuration for a framework instance.
///
/// `late` decides the fate of an event whose delay exceeds the *fastest*
/// latency `l₀`: [`LatePolicy::RerouteNextPartition`] (the paper's §V
/// behaviour and the default) walks it into the first partition that can
/// still accommodate it; [`LatePolicy::Drop`] discards it immediately;
/// [`LatePolicy::DeadLetter`] diverts it to `dead_letters`. Events too
/// delayed even for the largest latency are dropped (counted) under the
/// first two policies and dead-lettered under the third.
///
/// `shed` and `dead_letters` are handed to every partition's sorting
/// operator, so a budget on the shared [`MemoryMeter`] degrades gracefully
/// instead of growing without bound.
pub struct FrameworkPolicy<P: Payload> {
    /// Routing of events that missed the fastest partition.
    pub late: LatePolicy,
    /// Per-partition sorter shedding under memory pressure.
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

impl<P: Payload> Clone for FrameworkPolicy<P> {
    fn clone(&self) -> Self {
        FrameworkPolicy {
            late: self.late,
            shed: self.shed,
            dead_letters: self.dead_letters.clone(),
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

    /// Events routed to partition `i`.
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
    /// contains partitions `0..=i`).
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

/// The sequence of output streams produced by the framework — the paper's
/// `Streamables` abstraction (§V-C).
pub struct Streamables<Q: Payload> {
    streams: Vec<Option<Streamable<Q>>>,
    latencies: Vec<TickDuration>,
    stats: FrameworkStats,
    ckpt: Option<CheckpointCtx>,
}

impl<Q: Payload> Streamables<Q> {
    /// Number of output streams (= number of reorder latencies).
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no streams were produced (never for a valid config).
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Takes ownership of output stream `i` (the paper's
    /// `ss.Streamable(i)`), returning a typed error for an out-of-range
    /// index or an already-taken stream.
    pub fn take_stream(&mut self, i: usize) -> Result<Streamable<Q>, StreamError> {
        let slot = self.streams.get_mut(i).ok_or_else(|| {
            StreamError::InvalidConfig(format!(
                "output stream {i} out of range (framework has {} streams)",
                self.latencies.len()
            ))
        })?;
        slot.take().ok_or_else(|| {
            StreamError::InvalidConfig(format!("output stream {i} already subscribed"))
        })
    }

    /// Reorder latency of output stream `i`.
    pub fn latency(&self, i: usize) -> TickDuration {
        self.latencies[i]
    }

    /// Routing statistics (completeness per stream).
    pub fn stats(&self) -> FrameworkStats {
        self.stats.clone()
    }

    /// The checkpoint context of a durable build
    /// ([`FrameworkOptions::durable`]); `None` otherwise.
    pub fn checkpoint(&self) -> Option<&CheckpointCtx> {
        self.ckpt.as_ref()
    }
}

/// The delay-based partitioning operator (Fig 6's "partition").
struct Partitioner<P: Payload> {
    latencies: Vec<TickDuration>,
    parts: Vec<InputHandle<P>>,
    scratch: Vec<Vec<Event<P>>>,
    /// Events routed to each partition in the current batch, added to
    /// `stats.routed` once per batch rather than once per event.
    tally: Vec<u64>,
    wm: Timestamp,
    last_punct: Vec<Timestamp>,
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
            q.push(e.clone(), DeadLetterReason::Late { watermark: self.wm });
        }
    }
}

/// The partitioner's durable state is its watermark clock: the high
/// watermark that delays are measured against and the last punctuation
/// emitted into each partition. `scratch` and `tally` are always empty at
/// a punctuation boundary (every batch flushes them), and the routing
/// stats are advisory metrics rather than replay-critical state.
impl<P: Payload> Checkpointable for Partitioner<P> {
    fn state_id(&self) -> &'static str {
        "framework.partitioner"
    }

    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.wm.encode(w);
        self.last_punct.encode(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let wm = Timestamp::decode(r)?;
        let last_punct = Vec::<Timestamp>::decode(r)?;
        if last_punct.len() != self.latencies.len() {
            return Err(SnapshotError::corrupt(format!(
                "partitioner snapshot has {} partitions but the framework built {}",
                last_punct.len(),
                self.latencies.len()
            )));
        }
        self.wm = wm;
        self.last_punct = last_punct;
        Ok(())
    }
}

impl<P: Payload> Observer<P> for Partitioner<P> {
    fn on_batch(&mut self, batch: impatience_core::EventBatch<P>) {
        for e in batch.iter_visible() {
            if e.sync_time > self.wm {
                self.wm = e.sync_time;
            }
            // `wm ≥ sync_time` here, so `abs_diff` is the delay; unlike
            // `wm − sync_time` it cannot overflow between the ends of `i64`.
            let delay = self.wm.abs_diff(e.sync_time);
            // First partition whose latency strictly exceeds the delay
            // (strictness matches the partition's punctuation rule
            // `wm − lᵢ`: admitted events are strictly above it). Latencies
            // were validated non-negative.
            match self
                .latencies
                .iter()
                .position(|l| delay < l.as_ticks() as u64)
            {
                Some(i) => {
                    // An event that missed the fastest partition is *late*;
                    // walking to partition i is the reroute policy.
                    if i > 0 && self.late != LatePolicy::RerouteNextPartition {
                        match self.late {
                            LatePolicy::Drop => self.stats.dropped.inc(),
                            LatePolicy::DeadLetter => self.divert(e),
                            LatePolicy::RerouteNextPartition => unreachable!(),
                        }
                        continue;
                    }
                    self.tally[i] += 1;
                    self.scratch[i].push(e.clone());
                }
                None => {
                    // Too delayed even for the largest latency: no
                    // partition exists to reroute into.
                    if self.late == LatePolicy::DeadLetter {
                        self.divert(e);
                    } else {
                        self.stats.dropped.inc();
                    }
                }
            }
        }
        self.publish_tally();
        self.flush_scratch();
    }

    fn on_punctuation(&mut self, _t: Timestamp) {
        // Input punctuations are a cadence signal; each partition is
        // punctuated from the framework's own watermark clock.
        for i in 0..self.parts.len() {
            let p = self.wm.saturating_sub(self.latencies[i]);
            if p > self.last_punct[i] {
                self.last_punct[i] = p;
                self.parts[i].push_punctuation(p);
            }
        }
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

/// Everything a framework build can carry beyond the ladder itself. One
/// value, one field per aspect; the default is the plain framework.
pub struct FrameworkOptions<P: Payload> {
    /// Failure model: late-event routing at the partitioner, shed and
    /// dead-letter behaviour of every partition sorter.
    pub policy: FrameworkPolicy<P>,
    /// Publishes into this registry:
    ///
    /// * `framework.partition{i:02}.routed` / `framework.dropped` /
    ///   `framework.dead_lettered` — the Table-II routing split
    ///   (completeness of stream `i` is `routed(0..=i) / total`);
    /// * `framework.partition{i:02}.latency_ticks` — the reorder latency
    ///   `lᵢ` each partition promises;
    /// * per-operator metrics and sorter gauges for every partition
    ///   pipeline, under `partition{i:02}.*` prefixes (see
    ///   [`Streamable::instrument`]).
    pub registry: Option<MetricsRegistry>,
    /// Records every partition pipeline's spans into this sink under a
    /// `partition{i:02}` label prefix on trace lane `i`, so an exported
    /// trace shows one track per latency partition — the Table-II
    /// latency/completeness ladder, rendered. Sampled provenance probes
    /// can be layered on through `piq` (the closure receives the
    /// partition's sorted stream, which already carries the trace
    /// context).
    pub trace: Option<TraceSink>,
    /// `(dir, every_n_punctuations)`: makes the whole ladder durable —
    /// partitioner watermark clock, every partition sorter, every PIQ and
    /// merge operator, and the union synchronization buffers checkpoint
    /// into `dir` after every `every_n_punctuations` input punctuations,
    /// and restore from the newest valid checkpoint when the framework is
    /// built over a non-empty `dir`.
    ///
    /// [`Streamables::checkpoint`] then returns the [`CheckpointCtx`];
    /// query [`CheckpointCtx::recovery`] after subscribing the outputs to
    /// learn the ingest replay offset. Output streams carry the context,
    /// so a [`Streamable::checkpoint_egress`] stage on them feeds the
    /// committed output prefix. Subscribe all outputs before feeding
    /// input: traffic buffered in an unsubscribed output relay is not part
    /// of any operator's checkpointed state.
    pub durable: Option<(PathBuf, u32)>,
}

impl<P: Payload> Default for FrameworkOptions<P> {
    fn default() -> Self {
        FrameworkOptions {
            policy: FrameworkPolicy::default(),
            registry: None,
            trace: None,
            durable: None,
        }
    }
}

/// Builds the Impatience framework over `ds` (Fig 6) — the one entry
/// point; every aspect of a build is a field of `opts`.
///
/// `piq` is instantiated once per partition on the partition's *sorted*
/// stream; `merge` once per union output. For correct results the pair
/// must satisfy the usual partial-aggregation law (e.g. per-window partial
/// counts + addition). Returns the `k` output streams.
pub fn to_streamables_advanced<P, Q>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    piq: impl Fn(Streamable<P>) -> Streamable<Q> + 'static,
    merge: impl Fn(Streamable<Q>) -> Streamable<Q> + 'static,
    meter: &MemoryMeter,
    opts: FrameworkOptions<P>,
) -> Result<Streamables<Q>, StreamError>
where
    P: Payload,
    Q: Payload,
{
    validate_ladder(latencies)?;
    let registry = opts.registry.as_ref();
    let policy = opts.policy;
    // The disordered source, behind the checkpoint gate when durable, so
    // the gate counts exactly the messages the partitioner consumes.
    let DisorderedStreamable {
        stream: source,
        window,
    } = ds;
    let (source, ctx) = match opts.durable {
        Some((dir, every_n)) => {
            let (source, ctx) =
                source
                    .checkpointed(dir, every_n)
                    .map_err(|e| StreamError::RecoveryFailed {
                        detail: e.to_string(),
                    })?;
            (source, Some(ctx))
        }
        None => (source, None),
    };
    if let (Some(c), Some(r)) = (&ctx, registry) {
        c.bind_metrics(r, "framework");
    }
    let k = latencies.len();
    let stats = FrameworkStats::registered(k, registry);
    if let Some(r) = registry {
        for (i, l) in latencies.iter().enumerate() {
            r.gauge(&format!("framework.partition{i:02}.latency_ticks"))
                .set(l.as_ticks());
        }
    }

    // Output relays (buffer until subscribed). With a checkpoint context
    // they carry it, so `checkpoint_egress` works on the outputs.
    let mut out_handles: Vec<InputHandle<Q>> = Vec::with_capacity(k);
    let mut out_streams: Vec<Option<Streamable<Q>>> = Vec::with_capacity(k);
    for _ in 0..k {
        let (h, s) = input_stream::<Q>();
        out_handles.push(h);
        let s = match &ctx {
            Some(c) => s.with_checkpoint(c),
            None => s,
        };
        out_streams.push(Some(s));
    }

    // Build the union/merge chain from the deepest stage (k-1) downward.
    // `stage_sink[i]` consumes the i-th output stream's traffic. This
    // build order is deterministic, which makes the checkpoint
    // registration order stable across the runs that write and restore.
    let mut right_inputs: Vec<Option<Box<dyn Observer<Q>>>> = (0..k).map(|_| None).collect();
    let mut stage_sink: Box<dyn Observer<Q>> = Box::new(out_handles[k - 1].clone());
    for i in (1..k).rev() {
        // union_i → merge_i → stage i's sink.
        let (merge_handle, merge_stream) = input_stream::<Q>();
        let merge_stream = match &ctx {
            Some(c) => merge_stream.with_checkpoint(c),
            None => merge_stream,
        };
        merge(merge_stream).subscribe_observer(stage_sink);
        let (left, right) = build_union(Box::new(merge_handle), meter.clone());
        if let Some(c) = &ctx {
            // The ladder union's synchronization buffers are durable state;
            // its left input snapshots the whole union.
            c.register(Arc::new(Mutex::new(left.clone())));
        }
        right_inputs[i] = Some(Box::new(right));
        // Stage i−1 fans out: to output i−1 and into union_i's left input.
        stage_sink = Box::new(TeeOp::new(out_handles[i - 1].clone(), left));
    }

    // Partition pipelines: relay → sort → PIQ → stage sink. The sorter is
    // the planner's pick for this input: buckets when a window aligned it.
    let sorter_choice = SorterChoice::for_input(window, false, policy.shed);
    let mut part_handles: Vec<InputHandle<P>> = Vec::with_capacity(k);
    let mut sinks: Vec<Box<dyn Observer<Q>>> = Vec::with_capacity(k);
    sinks.push(stage_sink);
    for r in right_inputs.into_iter().skip(1) {
        sinks.push(r.expect("union right input built"));
    }
    for (i, sink) in sinks.into_iter().enumerate() {
        let (ph, ps) = input_stream::<P>();
        part_handles.push(ph);
        let ps = match &opts.trace {
            // Lane i mirrors the Table-II partition index; the prefix tags
            // every span this partition's sort/PIQ stages record.
            Some(sink) => ps.traced(
                TraceCtx::new(sink)
                    .with_prefix(format!("partition{i:02}"))
                    .for_shard(i),
            ),
            None => ps,
        };
        let ps = match registry {
            Some(r) => ps.instrument(r, &format!("partition{i:02}")),
            None => ps,
        };
        let ps = match &ctx {
            Some(c) => ps.with_checkpoint(c),
            None => ps,
        };
        // The partitioner already filtered per-partition late events, so
        // any residual late event at a sorter is dropped (and counted);
        // shed/dead-letter behaviour follows the framework policy.
        let sort_policy = SortPolicy {
            late: LatePolicy::Drop,
            shed: policy.shed,
            dead_letters: policy.dead_letters.clone(),
        };
        piq(ps.sorted(sorter_choice.sorter(None), meter, sort_policy)?).subscribe_observer(sink);
    }

    // Subscribing the partitioner builds the checkpoint gate last, so its
    // recovery pass runs after every participant has registered.
    let partitioner = Partitioner {
        latencies: latencies.to_vec(),
        scratch: (0..k).map(|_| Vec::new()).collect(),
        tally: vec![0; k],
        parts: part_handles,
        wm: Timestamp::MIN,
        last_punct: vec![Timestamp::MIN; k],
        stats: stats.clone(),
        late: policy.late,
        dead_letters: policy.dead_letters,
    };
    let partitioner: Box<dyn Observer<P>> = match &ctx {
        Some(c) => {
            let shared = Arc::new(Mutex::new(partitioner));
            c.register(shared.clone());
            Box::new(SharedSink(shared))
        }
        None => Box::new(partitioner),
    };
    source.subscribe_observer(partitioner);

    Ok(Streamables {
        streams: out_streams,
        latencies: latencies.to_vec(),
        stats,
        ckpt: ctx,
    })
}

/// The basic Impatience framework (Fig 6(a)): identity PIQ and merge, so
/// raw events flow through the sort/union chain and the user runs their
/// query per output stream — with the redundant-computation and
/// raw-event-buffering costs the advanced framework removes.
///
/// A spelling of [`to_streamables_advanced`] kept because the frozen
/// `stackbench/src/framework.rs` imports this name.
pub fn to_streamables_basic<P: Payload>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    meter: &MemoryMeter,
) -> Result<Streamables<P>, StreamError> {
    to_streamables_advanced(ds, latencies, |s| s, |s| s, meter, Default::default())
}

/// [`to_streamables_advanced`] with only [`FrameworkOptions::registry`]
/// set. Kept because the frozen `stackbench/src/framework.rs` imports
/// this name; the benchmark change that moves it drops this.
pub fn to_streamables_advanced_metered<P, Q>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    piq: impl Fn(Streamable<P>) -> Streamable<Q> + 'static,
    merge: impl Fn(Streamable<Q>) -> Streamable<Q> + 'static,
    meter: &MemoryMeter,
    registry: Option<&MetricsRegistry>,
) -> Result<Streamables<Q>, StreamError>
where
    P: Payload,
    Q: Payload,
{
    to_streamables_advanced(
        ds,
        latencies,
        piq,
        merge,
        meter,
        FrameworkOptions {
            registry: registry.cloned(),
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::{validate_ordered_stream, StreamMessage};
    use impatience_engine::IngressPolicy;

    fn ev(t: i64) -> Event<u32> {
        Event::point(Timestamp::new(t), t as u32)
    }

    /// Arrival sequence with known delays: (sync_time, …) where some
    /// events trail the watermark.
    fn arrivals() -> Vec<Event<u32>> {
        // wm:      10  20  20  30  30   40  40
        // delay:    0   0   5   0  25    0  35
        [10i64, 20, 15, 30, 5, 40, 5]
            .iter()
            .map(|&t| ev(t))
            .collect()
    }

    fn policy() -> IngressPolicy {
        IngressPolicy {
            punctuation_frequency: 1,
            reorder_latency: TickDuration::ZERO,
            batch_size: 1,
        }
    }

    fn latencies() -> Vec<TickDuration> {
        vec![
            TickDuration::ticks(10),
            TickDuration::ticks(30),
            TickDuration::ticks(100),
        ]
    }

    /// The basic framework (identity PIQ and merge) under `opts`.
    fn basic_with(
        ds: DisorderedStreamable<u32>,
        latencies: &[TickDuration],
        meter: &MemoryMeter,
        opts: FrameworkOptions<u32>,
    ) -> Streamables<u32> {
        to_streamables_advanced(ds, latencies, |s| s, |s| s, meter, opts).unwrap()
    }

    #[test]
    fn validates_latency_config() {
        let meter = MemoryMeter::new();
        let bad: Vec<(Vec<TickDuration>, &str)> = vec![
            (vec![], "empty"),
            (
                vec![TickDuration::ticks(5), TickDuration::ticks(5)],
                "non-increasing",
            ),
            (
                vec![TickDuration::ticks(9), TickDuration::ticks(3)],
                "decreasing",
            ),
            (vec![TickDuration::ticks(-1)], "negative"),
            ((0..256).map(TickDuration::ticks).collect(), "256 rungs"),
        ];
        for (ls, label) in bad {
            let ds = DisorderedStreamable::<u32>::from_messages(vec![]);
            assert!(
                to_streamables_basic(ds, &ls, &meter).is_err(),
                "{label} accepted"
            );
        }
    }

    #[test]
    fn basic_framework_stream_i_contains_partitions_up_to_i() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &latencies(), &meter).unwrap();
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Delays: 0,0,5,0,25,0,35 → partitions 0,0,0,0,1,0,2; none dropped.
        let times = |o: &impatience_engine::Output<u32>| -> Vec<i64> {
            o.events().iter().map(|e| e.sync_time.ticks()).collect()
        };
        assert_eq!(times(&outs[0]), vec![10, 15, 20, 30, 40]);
        assert_eq!(times(&outs[1]), vec![5, 10, 15, 20, 30, 40]);
        assert_eq!(times(&outs[2]), vec![5, 5, 10, 15, 20, 30, 40]);
        for o in &outs {
            assert!(validate_ordered_stream(&o.messages()).is_ok());
            assert!(o.is_completed());
        }
        let stats = ss.stats();
        assert_eq!(stats.routed(0), 5);
        assert_eq!(stats.routed(1), 1);
        assert_eq!(stats.routed(2), 1);
        assert_eq!(stats.dropped(), 0);
        assert!((stats.completeness(0) - 5.0 / 7.0).abs() < 1e-9);
        assert!((stats.completeness(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn events_beyond_max_latency_are_dropped() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        // Max latency 30: the delay-35 event is dropped.
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(30)];
        let mut ss = to_streamables_basic(ds, &ls, &meter).unwrap();
        let out_last = ss
            .take_stream(1)
            .expect("take output stream")
            .collect_output();
        assert_eq!(out_last.event_count(), 6);
        assert_eq!(ss.stats().dropped(), 1);
        assert!(ss.stats().completeness(1) < 1.0);
    }

    #[test]
    fn advanced_framework_counts_match_basic_query() {
        // Tumbling-window count with PIQ = windowed count per partition,
        // merge = add partial counts (the paper's Q1 shape).
        let meter = MemoryMeter::new();
        let window = TickDuration::ticks(20);
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy()).tumbling_window(window);
        let mut ss = to_streamables_advanced(
            ds,
            &latencies(),
            |s: Streamable<u32>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            Default::default(),
        )
        .unwrap();
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Full data windows (size 20): {5,5,10,15} → w0: but window op is
        // below the framework: events aligned before partitioning.
        // Aligned times: 10→0, 20→20, 15→0, 30→20, 5→0, 40→40, 5→0.
        // Complete counts: w0: 4 (10,15,5,5), w20: 2 (20,30), w40: 1 (40).
        let counts = |o: &impatience_engine::Output<u64>| -> Vec<(i64, u64)> {
            o.events()
                .iter()
                .map(|e| (e.sync_time.ticks(), e.payload))
                .collect()
        };
        // The last (most complete) stream must carry the exact counts.
        assert_eq!(counts(&outs[2]), vec![(0, 4), (20, 2), (40, 1)]);
        // Earlier streams under-count only where late events were missed.
        for o in &outs {
            assert!(validate_ordered_stream(&o.messages()).is_ok());
            assert!(o.is_completed());
        }
        let c0 = counts(&outs[0]);
        assert!(c0.iter().all(|&(w, c)| {
            counts(&outs[2])
                .iter()
                .find(|&&(w2, _)| w2 == w)
                .is_some_and(|&(_, c2)| c <= c2)
        }));
    }

    #[test]
    fn traced_framework_tags_spans_per_partition() {
        use impatience_core::trace::{TraceClock, TraceConfig};
        let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
        let meter = MemoryMeter::new();
        let window = TickDuration::ticks(20);
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy()).tumbling_window(window);
        let mut ss = to_streamables_advanced(
            ds,
            &latencies(),
            |s: Streamable<u32>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            FrameworkOptions {
                trace: Some(sink.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        for o in &outs {
            assert!(o.is_completed());
        }
        // Tracing must not change the query results.
        let counts: Vec<(i64, u64)> = outs[2]
            .events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.payload))
            .collect();
        assert_eq!(counts, vec![(0, 4), (20, 2), (40, 1)]);
        // Every partition's sort + PIQ stages recorded under its own tag
        // and lane, mirroring the Table-II latency ladder.
        let spans = sink.spans();
        for i in 0..3u32 {
            let tag = format!("partition{i:02}.");
            let mine: Vec<_> = spans.iter().filter(|s| s.op.starts_with(&tag)).collect();
            assert!(!mine.is_empty(), "no spans for partition {i}");
            assert!(mine.iter().all(|s| s.shard == i), "lane mismatch");
            assert!(
                mine.iter()
                    .any(|s| s.kind == impatience_core::SpanKind::Sort),
                "partition {i} missing sort span"
            );
            assert!(
                mine.iter().any(|s| s.op.ends_with(".count")),
                "partition {i} missing PIQ span"
            );
        }
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn advanced_buffers_less_than_basic() {
        // The Fig 10(b) effect in miniature: the basic framework's unions
        // buffer raw events; the advanced one buffers per-window partials.
        let window = TickDuration::ticks(100);
        let n = 20_000usize;
        // Sorted arrivals with occasional stragglers delayed ~5000 ticks.
        let arrivals: Vec<Event<u32>> = (0..n)
            .map(|i| {
                let t = if i % 100 == 99 {
                    (i as i64) - 5_000
                } else {
                    i as i64
                };
                ev(t.max(0))
            })
            .collect();
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(10_000)];
        let pol = IngressPolicy {
            punctuation_frequency: 100,
            reorder_latency: TickDuration::ZERO,
            batch_size: 512,
        };

        let basic_meter = MemoryMeter::new();
        let ds =
            DisorderedStreamable::from_arrivals(arrivals.clone(), &pol).tumbling_window(window);
        let mut ss = to_streamables_basic(ds, &ls, &basic_meter).unwrap();
        // Subscribe both outputs (queries applied per stream, redundantly).
        let _o0 = ss
            .take_stream(0)
            .expect("take output stream")
            .count()
            .collect_output();
        let _o1 = ss
            .take_stream(1)
            .expect("take output stream")
            .count()
            .collect_output();

        let adv_meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals, &pol).tumbling_window(window);
        let mut ss = to_streamables_advanced(
            ds,
            &ls,
            |s: Streamable<u32>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &adv_meter,
            Default::default(),
        )
        .unwrap();
        let _a0 = ss
            .take_stream(0)
            .expect("take output stream")
            .collect_output();
        let _a1 = ss
            .take_stream(1)
            .expect("take output stream")
            .collect_output();

        assert!(
            adv_meter.peak() * 3 < basic_meter.peak(),
            "advanced peak {} not well below basic peak {}",
            adv_meter.peak(),
            basic_meter.peak()
        );
    }

    #[test]
    fn single_latency_framework_is_buffer_and_sort() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &[TickDuration::ticks(10)], &meter).unwrap();
        assert_eq!(ss.len(), 1);
        let out = ss
            .take_stream(0)
            .expect("take output stream")
            .collect_output();
        // Only delay<10 events survive: 10,20,15,30,5(d25 dropped),40,5.
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10, 15, 20, 30, 40]);
        assert_eq!(ss.stats().dropped(), 2);
    }

    #[test]
    fn streams_complete_and_carry_final_punctuation() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &latencies(), &meter).unwrap();
        for i in 0..ss.len() {
            let out = ss
                .take_stream(i)
                .expect("take output stream")
                .collect_output();
            assert!(out.is_completed(), "stream {i}");
            assert!(matches!(
                out.messages().last(),
                Some(StreamMessage::Completed)
            ));
        }
        assert_eq!(meter.current(), 0, "all buffered state released");
    }

    #[test]
    fn metered_framework_publishes_table_ii_metrics() {
        let registry = MetricsRegistry::new();
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = basic_with(
            ds,
            &latencies(),
            &meter,
            FrameworkOptions {
                registry: Some(registry.clone()),
                ..Default::default()
            },
        );
        let _outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Routing split surfaces through the registry (delays 0,0,5,0,25,0,35).
        assert_eq!(registry.counter("framework.partition00.routed").get(), 5);
        assert_eq!(registry.counter("framework.partition01.routed").get(), 1);
        assert_eq!(registry.counter("framework.partition02.routed").get(), 1);
        assert_eq!(registry.counter("framework.dropped").get(), 0);
        assert_eq!(
            registry.gauge("framework.partition01.latency_ticks").get(),
            30
        );
        // Partition pipelines are instrumented: sorter gauges + op counters.
        assert_eq!(registry.counter("partition00.00.sort.events_in").get(), 5);
        assert!(
            registry
                .gauge("partition00.00.sorter.state_bytes")
                .high_water()
                > 0
        );
        // FrameworkStats reads the same storage.
        assert_eq!(ss.stats().routed(0), 5);
        assert!((ss.stats().completeness(2) - 1.0).abs() < 1e-9);
        // Metered and unmetered frameworks produce identical streams.
        let plain_meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut plain = to_streamables_basic(ds, &latencies(), &plain_meter).unwrap();
        let plain_outs: Vec<_> = (0..3)
            .map(|i| {
                plain
                    .take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        for (a, b) in _outs.iter().zip(&plain_outs) {
            assert_eq!(a.messages(), b.messages());
        }
    }

    /// `ds`, aligned by a tumbling window of `window` when one is given.
    fn maybe_windowed(
        ds: DisorderedStreamable<u32>,
        window: Option<TickDuration>,
    ) -> DisorderedStreamable<u32> {
        match window {
            Some(w) => ds.tumbling_window(w),
            None => ds,
        }
    }

    /// Each rung picks its sorter by the planner's rule: over window starts
    /// it buckets (no Impatience runs), also behind a later `where_`;
    /// without the window, or under `ShedOldestRuns`, it keeps Impatience.
    #[test]
    fn rungs_bucket_window_aligned_input() {
        let window = Some(TickDuration::ticks(20));
        let cases = [
            (window, ShedPolicy::default(), true),
            (None, ShedPolicy::default(), false),
            (window, ShedPolicy::ShedOldestRuns, false),
        ];
        for (window, shed, bucket) in cases {
            let registry = MetricsRegistry::new();
            let meter = MemoryMeter::new();
            let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
            let mut ss = basic_with(
                maybe_windowed(ds, window).where_(|e| e.payload != 7),
                &latencies(),
                &meter,
                FrameworkOptions {
                    policy: FrameworkPolicy {
                        shed,
                        ..FrameworkPolicy::default()
                    },
                    registry: Some(registry.clone()),
                    ..Default::default()
                },
            );
            for i in 0..3 {
                let out = ss
                    .take_stream(i)
                    .expect("take output stream")
                    .collect_output();
                assert!(out.is_completed());
                let runs = registry
                    .gauge(&format!("partition{i:02}.00.sorter.runs"))
                    .high_water();
                assert_eq!(
                    runs == 0,
                    bucket,
                    "rung {i} runs high water {runs} ({window:?}, {shed:?})"
                );
            }
        }
    }

    /// An arrival at `i64::MIN + 5` behind a watermark of 1000: its delay
    /// does not fit in an `i64` and exceeds every latency, so the event is
    /// dropped, neither wrapped into the fastest rung nor a panic. A window
    /// aligns it to `MIN`, which changes nothing.
    #[test]
    fn delay_between_the_ends_of_i64_drops_the_event() {
        for window in [None, Some(TickDuration::ticks(10))] {
            let meter = MemoryMeter::new();
            let ds =
                DisorderedStreamable::from_arrivals(vec![ev(1000), ev(i64::MIN + 5)], &policy());
            let mut ss = to_streamables_basic(maybe_windowed(ds, window), &latencies(), &meter)
                .expect("valid ladder");
            for i in 0..3 {
                let out = ss
                    .take_stream(i)
                    .expect("take output stream")
                    .collect_output();
                let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
                assert_eq!(ts, vec![1000], "stream {i} ({window:?})");
            }
            let stats = ss.stats();
            let routed: Vec<u64> = (0..3).map(|i| stats.routed(i)).collect();
            assert_eq!(routed, vec![1, 0, 0], "{window:?}");
            assert_eq!(stats.dropped(), 1, "{window:?}");
        }
    }

    #[test]
    fn drop_policy_discards_events_that_miss_the_fastest_partition() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let fp = FrameworkPolicy {
            late: impatience_core::LatePolicy::Drop,
            ..FrameworkPolicy::default()
        };
        let mut ss = basic_with(
            ds,
            &latencies(),
            &meter,
            FrameworkOptions {
                policy: fp,
                ..Default::default()
            },
        );
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Delays 0,0,5,0,25,0,35: only the five delay<10 events survive;
        // the two reroutable stragglers are dropped instead.
        let stats = ss.stats();
        assert_eq!(stats.routed(0), 5);
        assert_eq!(stats.routed(1), 0);
        assert_eq!(stats.routed(2), 0);
        assert_eq!(stats.dropped(), 2);
        assert_eq!(stats.total(), 7);
        for o in &outs {
            assert_eq!(o.event_count(), 5);
            assert!(o.is_completed());
        }
    }

    #[test]
    fn dead_letter_policy_diverts_and_accounts() {
        let meter = MemoryMeter::new();
        let dlq = impatience_core::DeadLetterQueue::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let fp = FrameworkPolicy {
            late: impatience_core::LatePolicy::DeadLetter,
            dead_letters: Some(dlq.clone()),
            ..FrameworkPolicy::default()
        };
        // Max latency 30, so the delay-35 event has no partition at all —
        // it is dead-lettered too, not silently dropped.
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(30)];
        let mut ss = basic_with(
            ds,
            &ls,
            &meter,
            FrameworkOptions {
                policy: fp,
                ..Default::default()
            },
        );
        let _outs: Vec<_> = (0..2)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        let stats = ss.stats();
        assert_eq!(stats.routed(0), 5);
        assert_eq!(stats.dropped(), 0);
        assert_eq!(stats.dead_lettered(), 2, "delay-25 and delay-35 events");
        assert_eq!(stats.total(), 7);
        assert_eq!(dlq.total(), 2);
        let letters = dlq.drain();
        assert!(letters
            .iter()
            .all(|l| matches!(l.reason, impatience_core::DeadLetterReason::Late { .. })));
    }

    #[test]
    fn dead_lettered_registry_counter_is_published() {
        let registry = MetricsRegistry::new();
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let fp = FrameworkPolicy {
            late: impatience_core::LatePolicy::DeadLetter,
            ..FrameworkPolicy::default()
        };
        let mut ss = basic_with(
            ds,
            &latencies(),
            &meter,
            FrameworkOptions {
                policy: fp,
                registry: Some(registry.clone()),
                ..Default::default()
            },
        );
        let _outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Counted even without an attached queue.
        assert_eq!(registry.counter("framework.dead_lettered").get(), 2);
        assert_eq!(ss.stats().dead_lettered(), 2);
    }

    #[test]
    fn take_stream_returns_typed_errors() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &[TickDuration::ticks(10)], &meter).unwrap();
        assert!(ss.take_stream(5).is_err(), "out of range");
        assert!(ss.take_stream(0).is_ok());
        match ss.take_stream(0) {
            Err(StreamError::InvalidConfig(msg)) => {
                assert!(msg.contains("already subscribed"), "{msg}")
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected an error for a taken stream"),
        }
    }

    #[test]
    #[should_panic(expected = "already subscribed")]
    fn taking_a_stream_twice_panics() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &[TickDuration::ticks(10)], &meter).unwrap();
        let _a = ss.take_stream(0).expect("take output stream");
        let _b = ss.take_stream(0).expect("take output stream");
    }

    /// The message tape used by the durable-framework tests: batches and
    /// punctuations interleaved so checkpoints land at known indices.
    fn durable_tape() -> Vec<StreamMessage<u32>> {
        vec![
            StreamMessage::batch(vec![ev(10), ev(20), ev(15)]),
            StreamMessage::punctuation(20),
            StreamMessage::batch(vec![ev(30), ev(5)]),
            StreamMessage::punctuation(30),
            StreamMessage::batch(vec![ev(40), ev(25)]),
            StreamMessage::punctuation(40),
            StreamMessage::Completed,
        ]
    }

    /// Builds a durable basic framework over `dir`, subscribes both
    /// outputs, feeds tape messages `range`, and returns the context plus
    /// the per-stream collected outputs.
    fn durable_run(
        dir: &std::path::Path,
        range: core::ops::Range<usize>,
    ) -> (
        impatience_engine::CheckpointCtx,
        Vec<impatience_engine::Output<u32>>,
    ) {
        let meter = MemoryMeter::new();
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(30)];
        let (h, ds) = DisorderedStreamable::live();
        let mut ss = basic_with(
            ds,
            &ls,
            &meter,
            FrameworkOptions {
                durable: Some((dir.to_path_buf(), 1)),
                ..Default::default()
            },
        );
        let ctx = ss.checkpoint().expect("durable build").clone();
        let outs: Vec<_> = (0..2)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .checkpoint_egress()
                    .collect_output()
            })
            .collect();
        let tape = durable_tape();
        for m in &tape[range] {
            h.push(m.clone()).expect("push");
        }
        (ctx, outs)
    }

    #[test]
    fn durable_framework_restores_ladder_state_across_crash() {
        let base = std::env::temp_dir().join(format!("impatience-fw-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let reference_dir = base.join("reference");
        let crashed_dir = base.join("crashed");

        // Uncrashed reference: the whole tape in one incarnation.
        let (_ctx, reference) = durable_run(&reference_dir, 0..7);

        // Crash right after the punctuation at tape index 3 (the gate has
        // checkpointed: 4 messages seen), then recover and feed the rest.
        let (ctx, first) = durable_run(&crashed_dir, 0..4);
        assert!(ctx.recovery().is_none(), "first incarnation is fresh");
        let events_before: Vec<Vec<Event<u32>>> =
            first.iter().map(|o| o.events().to_vec()).collect();
        drop(first);

        let (ctx, second) = durable_run(&crashed_dir, 4..7);
        let rec = ctx.recovery().expect("framework checkpoint recovered");
        assert_eq!(rec.messages_seen, 4, "replay the ingest tape from index 4");
        assert!(rec.fallback.is_none());

        // Exactly-once conformance per output stream: the uncrashed tape
        // equals the pre-crash prefix plus the post-recovery suffix.
        for (i, reference) in reference.iter().enumerate() {
            let mut combined = events_before[i].clone();
            combined.extend(second[i].events().to_vec());
            assert_eq!(
                reference.events(),
                combined,
                "stream {i} diverged across the crash"
            );
            assert!(second[i].is_completed(), "stream {i} completed");
        }
    }
}
