//! Opt-in structured tracing for streamable chains (see
//! [`impatience_core::trace`] for the data model).
//!
//! [`Streamable::traced`](crate::Streamable::traced) threads a [`TraceCtx`]
//! along a chain the same way `instrument` threads a metrics registry:
//! every stage appended afterwards gets a span recorder in its
//! [`StageShell`](crate::StageShell), recording one span per
//! batch/punctuation — labelled `{prefix}.{stage:02}.{name}` — into a
//! private [`SpanRing`], drained into the shared [`TraceSink`] at egress
//! (completion, error, or drop).
//! Spans are *inclusive*: a stage's duration covers its downstream, so the
//! laminar nesting of intervals reconstructs the operator chain in
//! `chrome://tracing`.
//!
//! Latency provenance rides on three probe combinators:
//!
//! * [`trace_ingress`](crate::Streamable::trace_ingress) — stamps the
//!   sampled subset of events at the pipeline's entry;
//! * [`trace_mark`](crate::Streamable::trace_mark) — attributes
//!   time-since-last-probe to a [`LatencyStage`] at a stage boundary;
//! * [`trace_egress`](crate::Streamable::trace_egress) — closes the
//!   sampled records, feeding the decomposed latency histograms. Place it
//!   *before* any window operator: windows rewrite `sync_time`, which is
//!   half of an event's provenance identity.
//!
//! Mark and egress sit downstream of a sorter: they exploit tick-ordering
//! to replace a per-event scan with a per-batch range query over the
//! in-flight sample set.
//!
//! Tracing never alters the stream: a traced pipeline produces exactly the
//! output of an untraced one (proven differentially in
//! `tests/trace_conformance.rs` under the deterministic logical clock).

use crate::observer::Observer;
use impatience_core::trace::{
    LatencyStage, ProvenanceTracker, SpanKind, SpanRecord, SpanRing, TraceSink,
};
use impatience_core::{EventBatch, Payload, StreamError, Timestamp};
use std::sync::Arc;

/// Tracing context carried along a streamable chain: the shared sink plus
/// the label prefix and shard lane that stages record under.
#[derive(Clone)]
pub struct TraceCtx {
    sink: TraceSink,
    prefix: String,
    shard: u32,
}

impl TraceCtx {
    /// A context recording into `sink` under the default `pipeline` prefix
    /// on shard lane 0.
    pub fn new(sink: &TraceSink) -> Self {
        TraceCtx {
            sink: sink.clone(),
            prefix: "pipeline".to_string(),
            shard: 0,
        }
    }

    /// Replaces the label prefix (e.g. `shard01`, `partition02`).
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// Assigns the shard lane (the `tid` of the Chrome export).
    pub fn for_shard(mut self, shard: usize) -> Self {
        self.shard = shard as u32;
        self
    }

    /// The shared sink this context records into.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }
}

/// Per-chain trace state: the context plus the stage counter (mirrors the
/// `Instrument` state of the metrics layer).
pub(crate) struct TraceState {
    ctx: TraceCtx,
    stage: usize,
}

impl TraceState {
    pub(crate) fn new(ctx: TraceCtx) -> Self {
        TraceState { ctx, stage: 0 }
    }

    /// Takes the next stage number and advances the counter.
    pub(crate) fn claim_stage(&mut self) -> usize {
        self.stage += 1;
        self.stage - 1
    }

    /// Mints the recorder of the stage that claimed number `stage`.
    pub(crate) fn stage(&self, stage: usize, name: &str) -> StageTrace {
        let label = format!("{}.{stage:02}.{name}", self.ctx.prefix);
        StageTrace {
            label: label.into(),
            kind: kind_of(name),
            shard: self.ctx.shard,
            sink: self.ctx.sink.clone(),
        }
    }
}

/// Everything a stage needs to record spans. Cloning (binary operators
/// trace each leg) mints an independent ring per recorder.
#[derive(Clone)]
pub(crate) struct StageTrace {
    label: Arc<str>,
    kind: SpanKind,
    shard: u32,
    sink: TraceSink,
}

impl StageTrace {
    /// Mints the stage's span recorder, with a ring of its own.
    pub(crate) fn recorder(self) -> SpanRecorder {
        SpanRecorder {
            ring: self.sink.ring(),
            stage: self,
            flushed: false,
        }
    }
}

/// Maps a stage name to the [`SpanKind`] of its spans. Provenance probes
/// are named `mark_{stage}` / `egress_{stage}`, so suffix matching gives
/// them their stage's kind.
fn kind_of(name: &str) -> SpanKind {
    match name {
        "ingress" => SpanKind::Ingress,
        "checkpoint" => SpanKind::Checkpoint,
        n if n.ends_with("sort") => SpanKind::Sort,
        n if n.ends_with("queue") => SpanKind::Queue,
        n if n.ends_with("merge") => SpanKind::Merge,
        _ => SpanKind::Operator,
    }
}

/// The span half of a [`StageShell`](crate::StageShell): one inclusive
/// span per batch/punctuation the stage handles, plus a watermark instant
/// per punctuation. Spans accumulate in a private ring (no locking on the
/// hot path, and the label is shared, so recording never allocates) and
/// drain into the sink exactly once — at completion, error, or drop,
/// whichever comes first — so even a panic-killed chain surrenders its
/// spans.
pub(crate) struct SpanRecorder {
    stage: StageTrace,
    ring: SpanRing,
    flushed: bool,
}

impl SpanRecorder {
    /// The trace clock's reading (a logical clock ticks on every call).
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.stage.sink.clock().now_ns()
    }

    fn push(&mut self, kind: SpanKind, start_ns: u64, dur_ns: u64, events: u64, wm: Option<i64>) {
        self.ring.push(SpanRecord {
            op: self.stage.label.clone(),
            shard: self.stage.shard,
            kind,
            start_ns,
            dur_ns,
            events,
            watermark: wm,
        });
    }

    /// Records the zero-length instant of a punctuation arriving at `at_ns`.
    pub(crate) fn watermark_instant(&mut self, at_ns: u64, ticks: i64) {
        self.push(SpanKind::Watermark, at_ns, 0, 0, Some(ticks));
    }

    /// Closes a span opened at `start_ns`: reads the clock for its end.
    pub(crate) fn record(&mut self, start_ns: u64, events: u64, watermark: Option<i64>) {
        let dur_ns = self.now().saturating_sub(start_ns);
        self.push(self.stage.kind, start_ns, dur_ns, events, watermark);
    }

    /// Surrenders the ring to the sink; later calls are no-ops.
    pub(crate) fn flush(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let ring = std::mem::replace(&mut self.ring, SpanRing::with_capacity(0));
        self.stage.sink.absorb(ring);
    }
}

impl Drop for SpanRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Transparent probe applying `f` to each batch's `(sync_time, key)`
/// identities before forwarding. All other traffic passes through.
struct ProvProbe<P: Payload, F> {
    f: F,
    next: Box<dyn Observer<P>>,
}

impl<P: Payload, F> Observer<P> for ProvProbe<P, F>
where
    F: FnMut(&EventBatch<P>) + Send,
{
    fn on_batch(&mut self, batch: EventBatch<P>) {
        (self.f)(&batch);
        self.next.on_batch(batch);
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        self.next.on_punctuation(t);
    }
    fn on_completed(&mut self) {
        self.next.on_completed();
    }
    fn on_error(&mut self, err: StreamError) {
        self.next.on_error(err);
    }
}

fn identities<P: Payload>(batch: &EventBatch<P>) -> impl Iterator<Item = (i64, u32)> + '_ {
    batch.iter_visible().map(|e| (e.sync_time.ticks(), e.key))
}

fn probe_name(verb: &str, stage: LatencyStage) -> String {
    format!("{verb}_{}", stage.as_str())
}

/// Live sample identities present in a tick-sorted batch: range-queries
/// the tracker's in-flight set by the batch's tick bounds, then binary
/// searches each candidate in the event slice — per-batch cost
/// `O(candidates · log n)` with **zero** per-event work, where a linear
/// scan would re-walk the whole (cache-cold) event array.
///
/// Correctness relies on the batch being sorted by `sync_time` — the
/// contract of everything downstream of a sorter in this engine — and is
/// debug-asserted; on an unsorted batch in release builds, candidates can
/// be silently missed (they stay in flight and show up in the summary).
fn present_in_sorted<P: Payload>(
    prov: &ProvenanceTracker,
    batch: &EventBatch<P>,
) -> Vec<(i64, u32)> {
    let events = batch.events();
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return Vec::new();
    };
    debug_assert!(
        events.windows(2).all(|w| w[0].sync_time <= w[1].sync_time),
        "sorted provenance probe placed on an unsorted stream"
    );
    let candidates = prov.candidates_in(first.sync_time.ticks(), last.sync_time.ticks());
    let mut present = Vec::new();
    for id in candidates {
        // Find any event at the candidate's tick, then walk the equal-tick
        // run for the key (events within one tick are unordered).
        if let Ok(hit) = events.binary_search_by(|e| e.sync_time.ticks().cmp(&id.0)) {
            let mut i = hit;
            while i > 0 && events[i - 1].sync_time.ticks() == id.0 {
                i -= 1;
            }
            while i < events.len() && events[i].sync_time.ticks() == id.0 {
                if events[i].key == id.1 && batch.is_visible(i) {
                    present.push(id);
                    break;
                }
                i += 1;
            }
        }
    }
    present
}

impl<P: Payload> crate::Streamable<P> {
    /// A transparent stage named `name` that shows every batch to `f`.
    fn probe(
        self,
        name: &str,
        f: impl FnMut(&EventBatch<P>) + Send + 'static,
    ) -> crate::Streamable<P> {
        self.apply_named(name, move |sink| Box::new(ProvProbe { f, next: sink }))
    }

    /// Provenance entry point: stamps the events selected by the sink's
    /// hash-based sampling predicate. Place it at the pipeline's entry,
    /// before the checkpoint gate and any shard split. Traced chains
    /// record an `ingress` span for the probe itself.
    ///
    /// The sampling decision is a pure function of each event's identity,
    /// so the common per-event cost is a handful of ALU ops with no lock
    /// and no shared state; the tracker is only locked when a batch
    /// actually contains sampled events. When no rows are filtered the
    /// probe walks the contiguous event slice instead of the bitmap-driven
    /// visible iterator — the common case on hot paths, where the bitmap
    /// walk would roughly double the scan cost.
    pub fn trace_ingress(self, ctx: &TraceCtx) -> crate::Streamable<P> {
        let prov = ctx.sink().provenance().clone();
        self.probe("ingress", move |batch| {
            if batch.filter().none_filtered() {
                let ids = batch.events().iter().map(|e| (e.sync_time.ticks(), e.key));
                prov.ingress_many(ids);
            } else {
                prov.ingress_many(identities(batch));
            }
        })
    }

    /// Provenance stage boundary on the *sorted* side of a sorter:
    /// attributes time-since-last-probe to `stage` for every tracked event
    /// passing through. Instead of scanning every event, it range-queries
    /// the in-flight sample set by the batch's tick bounds and
    /// binary-searches the few candidates — zero per-event cost, which is
    /// what keeps full-pipeline tracing inside its overhead budget. The
    /// batch must be sorted by `sync_time` (debug-asserted).
    pub fn trace_mark(self, ctx: &TraceCtx, stage: LatencyStage) -> crate::Streamable<P> {
        let prov = ctx.sink().provenance().clone();
        self.probe(&probe_name("mark", stage), move |batch| {
            let hits = present_in_sorted(&prov, batch);
            if !hits.is_empty() {
                prov.mark_many(stage, hits);
            }
        })
    }

    /// Provenance exit point: closes tracked events (final leg attributed
    /// to `stage`) and feeds the latency histograms — same tick-bound
    /// range query and sortedness contract as
    /// [`trace_mark`](Self::trace_mark). Must run before any window
    /// operator rewrites `sync_time`.
    pub fn trace_egress(self, ctx: &TraceCtx, stage: LatencyStage) -> crate::Streamable<P> {
        let prov = ctx.sink().provenance().clone();
        self.probe(&probe_name("egress", stage), move |batch| {
            let hits = present_in_sorted(&prov, batch);
            if !hits.is_empty() {
                prov.finish_many(stage, hits);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_stream;
    use impatience_core::trace::TraceClock;
    use impatience_core::{Event, MemoryMeter, TickDuration, TraceConfig};

    fn evs(ts: &[i64]) -> Vec<Event<u32>> {
        ts.iter()
            .map(|&t| Event::point(Timestamp::new(t), t as u32))
            .collect()
    }

    fn logical_sink(sample_every: u64) -> TraceSink {
        TraceSink::with(
            TraceClock::logical(),
            TraceConfig {
                sample_every,
                ..TraceConfig::default()
            },
        )
    }

    #[test]
    fn traced_pipeline_output_is_identical() {
        let run = |sink: Option<&TraceSink>| {
            let meter = MemoryMeter::new();
            let (handle, stream) = input_stream::<u32>();
            let stream = match sink {
                Some(s) => {
                    let ctx = TraceCtx::new(s);
                    stream.traced(ctx.clone()).trace_ingress(&ctx)
                }
                None => stream,
            };
            let out = stream
                .sorted(
                    Box::new(impatience_sort::ImpatienceSorter::new()),
                    &meter,
                    Default::default(),
                )
                .expect("default sort policy")
                .where_(|e| e.payload != 6)
                .tumbling_window(TickDuration::ticks(4))
                .count()
                .collect_output();
            handle.push_events(evs(&[2, 6, 5, 1]));
            handle.push_punctuation(Timestamp::new(2));
            handle.push_events(evs(&[4, 3, 7]));
            handle.push_punctuation(Timestamp::new(4));
            handle.push_events(evs(&[8]));
            handle.complete();
            out.messages()
        };
        let sink = logical_sink(1);
        assert_eq!(run(None), run(Some(&sink)), "tracing is inert");
        assert!(sink.span_count() > 0);
        assert_eq!(sink.dropped(), 0);
        // One recorder per traced stage: ingress, sort, where, window, count.
        assert_eq!(sink.recorder_count(), 5);
        let ops: std::collections::BTreeSet<String> =
            sink.spans().iter().map(|s| s.op.to_string()).collect();
        for expected in [
            "pipeline.00.ingress",
            "pipeline.01.sort",
            "pipeline.02.where",
            "pipeline.03.tumbling_window",
            "pipeline.04.count",
        ] {
            assert!(ops.contains(expected), "missing {expected} in {ops:?}");
        }
    }

    #[test]
    fn span_kinds_follow_stage_names() {
        assert_eq!(kind_of("ingress"), SpanKind::Ingress);
        assert_eq!(kind_of("checkpoint"), SpanKind::Checkpoint);
        assert_eq!(kind_of("sort"), SpanKind::Sort);
        assert_eq!(kind_of("mark_sort"), SpanKind::Sort);
        assert_eq!(kind_of("mark_queue"), SpanKind::Queue);
        assert_eq!(kind_of("egress_merge"), SpanKind::Merge);
        assert_eq!(kind_of("tumbling_window"), SpanKind::Operator);
    }

    #[test]
    fn provenance_probes_decompose_pipeline_latency() {
        let sink = logical_sink(1);
        let ctx = TraceCtx::new(&sink);
        let meter = MemoryMeter::new();
        let (handle, stream) = input_stream::<u32>();
        let out = stream
            .traced(ctx.clone())
            .trace_ingress(&ctx)
            .sorted(
                Box::new(impatience_sort::ImpatienceSorter::new()),
                &meter,
                Default::default(),
            )
            .expect("default sort policy")
            .trace_mark(&ctx, LatencyStage::Sort)
            .trace_egress(&ctx, LatencyStage::Operator)
            .collect_output();
        handle.push_events(evs(&[3, 1, 2]));
        handle.push_punctuation(Timestamp::new(3));
        handle.complete();
        assert_eq!(out.event_count(), 3);
        let prov = sink.provenance();
        assert_eq!(prov.sampled(), 3);
        assert_eq!(prov.completed(), 3);
        assert_eq!(prov.in_flight(), 0);
        assert_eq!(prov.total_latency().count(), 3);
        assert!(prov.component_latency(LatencyStage::Sort).sum() > 0);
        assert!(prov.component_latency(LatencyStage::Operator).sum() > 0);
        assert_eq!(prov.component_latency(LatencyStage::Queue).sum(), 0);
    }

    #[test]
    fn range_query_probes_retire_every_sample() {
        let sink = logical_sink(1);
        let ctx = TraceCtx::new(&sink);
        let meter = MemoryMeter::new();
        let (handle, stream) = input_stream::<u32>();
        let out = stream
            .traced(ctx.clone())
            .trace_ingress(&ctx)
            .sorted(
                Box::new(impatience_sort::ImpatienceSorter::new()),
                &meter,
                Default::default(),
            )
            .expect("default sort policy")
            .trace_mark(&ctx, LatencyStage::Sort)
            .trace_egress(&ctx, LatencyStage::Operator)
            .collect_output();
        handle.push_events(evs(&[5, 2, 4, 1, 3]));
        handle.push_punctuation(Timestamp::new(5));
        handle.complete();
        assert_eq!(out.event_count(), 5);
        let prov = sink.provenance();
        assert_eq!(
            (prov.sampled(), prov.completed(), prov.in_flight()),
            (5, 5, 0),
            "every sample retired at egress"
        );
    }

    #[test]
    fn spans_flush_on_error_and_drop() {
        let sink = logical_sink(1);
        let ctx = TraceCtx::new(&sink);
        let (handle, stream) = input_stream::<u32>();
        let out = stream.traced(ctx).count().collect_output();
        handle.push_events(evs(&[1]));
        handle.push_error(StreamError::PushAfterCompleted);
        assert!(out.error().is_some());
        // The error is terminal: the stage must have drained its ring.
        assert_eq!(sink.recorder_count(), 1);
        assert!(sink.span_count() > 0);
    }

    #[test]
    fn watermark_instants_carry_punctuation_ticks() {
        let sink = logical_sink(1);
        let ctx = TraceCtx::new(&sink);
        let (handle, stream) = input_stream::<u32>();
        let _out = stream.traced(ctx).count().collect_output();
        handle.push_events(evs(&[1]));
        handle.push_punctuation(Timestamp::new(9));
        handle.complete();
        let instants: Vec<SpanRecord> = sink
            .spans()
            .into_iter()
            .filter(|s| s.kind == SpanKind::Watermark)
            .collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].watermark, Some(9));
    }
}
