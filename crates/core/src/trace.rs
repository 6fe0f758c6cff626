//! Structured tracing: span records, per-shard ring buffers, a shared
//! [`TraceSink`], sampled event-latency provenance, and exporters.
//!
//! The model mirrors the metrics layer ([`crate::metrics`]) but answers a
//! different question: not *how much* work each operator did, but *where a
//! given event's end-to-end latency went*. Two instruments cooperate:
//!
//! * **Spans** — operators record [`SpanRecord`]s (operator name, shard id,
//!   kind, start, duration, batch size) into a private fixed-capacity
//!   [`SpanRing`]. Rings are owned by one recorder — lock-free within a
//!   shard — and drained into the shared [`TraceSink`] at egress
//!   (completion, error, or drop), so the hot path never takes the sink
//!   lock. A full ring keeps the oldest spans and counts drops.
//! * **Provenance** — the [`ProvenanceTracker`] hash-samples an expected
//!   1-in-N subset of ingress events, stamps them, and follows them by
//!   identity (`(sync_time, key)` — an event's identity is stable across
//!   shard queues, sorting, checkpoint gates, and the low-watermark merge,
//!   and only changes when a window rewrites timestamps). The sampling
//!   decision is a pure function of the identity, so every probe on every
//!   shard agrees on the sampled population without shared state. Probes
//!   attribute elapsed time since the last probe to a [`LatencyStage`],
//!   yielding ingress→egress latency histograms decomposed into
//!   queue/sort/operator/merge components.
//!
//! Time comes from a [`TraceClock`]: wall-clock for real profiles, or a
//! deterministic logical clock (every reading is a fresh tick) so
//! differential tests can prove traced pipelines are byte-identical to
//! untraced ones and produce stable span output.
//!
//! Exporters: [`TraceSink::to_chrome_trace`] (a `chrome://tracing` /
//! Perfetto loadable trace-event JSON), [`TraceSink::to_folded`]
//! (folded-stack text for flamegraph tooling), and [`TraceSink::summary`]
//! (the `{"kind":"trace"}` object embedded in bench snapshots).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::Histogram;

/// Nanoseconds per logical tick: logical-clock readings advance by this
/// much per call, so even in deterministic mode spans have nonzero,
/// strictly ordered durations (1 µs per tick renders legibly in
/// `chrome://tracing`).
pub const LOGICAL_TICK_NS: u64 = 1_000;

/// The time source behind a [`TraceSink`].
///
/// Cheap to clone; clones of a logical clock share the tick counter, so
/// readings are unique and strictly increasing across every recorder and
/// thread of a pipeline.
#[derive(Clone, Debug)]
pub enum TraceClock {
    /// Real elapsed time since the clock was created.
    Wall(Instant),
    /// Deterministic mode: each reading consumes one tick
    /// ([`LOGICAL_TICK_NS`] apart). Runs that make the same sequence of
    /// clock calls read the same timestamps.
    Logical(Arc<AtomicU64>),
}

impl TraceClock {
    /// A wall clock starting now.
    pub fn wall() -> Self {
        TraceClock::Wall(Instant::now())
    }

    /// A fresh deterministic logical clock.
    pub fn logical() -> Self {
        TraceClock::Logical(Arc::new(AtomicU64::new(0)))
    }

    /// Nanoseconds since the clock's origin. Logical clocks tick forward
    /// on every call.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self {
            TraceClock::Wall(base) => base.elapsed().as_nanos() as u64,
            TraceClock::Logical(ticks) => {
                (ticks.fetch_add(1, Ordering::Relaxed) + 1) * LOGICAL_TICK_NS
            }
        }
    }
}

/// What a span measures; the `cat` field of the Chrome export.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The ingress stamp point where provenance sampling happens.
    Ingress,
    /// Time spent waiting in a shard queue (`start` is the enqueue stamp).
    Queue,
    /// A stateless or windowing operator.
    Operator,
    /// The sort stage (reorder buffer drain).
    Sort,
    /// The low-watermark merge of a sharded pipeline.
    Merge,
    /// A checkpoint gate.
    Checkpoint,
    /// A watermark instant (zero duration; carries the punctuation tick).
    Watermark,
}

impl SpanKind {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Ingress => "ingress",
            SpanKind::Queue => "queue",
            SpanKind::Operator => "operator",
            SpanKind::Sort => "sort",
            SpanKind::Merge => "merge",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Watermark => "watermark",
        }
    }
}

/// One recorded span (or watermark instant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Operator label, e.g. `pipeline.02.sort` or `shard01.queue`. Shared
    /// with the recorder that minted it, so recording a span never
    /// allocates.
    pub op: Arc<str>,
    /// Shard lane (0 for unsharded stages; the merge uses its own lane).
    pub shard: u32,
    /// What the span measures.
    pub kind: SpanKind,
    /// Start, in clock nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for watermark instants).
    pub dur_ns: u64,
    /// Visible events processed under this span.
    pub events: u64,
    /// Punctuation tick, for watermark instants and punctuation spans.
    pub watermark: Option<i64>,
}

impl SpanRecord {
    /// End of the span, saturating.
    #[inline]
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// A fixed-capacity span buffer owned by exactly one recorder — pushes are
/// plain `Vec` writes, no locking. When full it keeps the *oldest* spans
/// (the interesting ramp-up) and counts what it sheds. Drain into the
/// shared sink with [`TraceSink::absorb`].
#[derive(Debug)]
pub struct SpanRing {
    capacity: usize,
    spans: Vec<SpanRecord>,
    dropped: u64,
}

impl SpanRing {
    /// A ring that keeps at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRing {
            capacity,
            // Most recorders never fill; don't reserve megabytes up front.
            spans: Vec::with_capacity(capacity.min(256)),
            dropped: 0,
        }
    }

    /// Records one span, shedding it (counted) if the ring is full.
    #[inline]
    pub fn push(&mut self, span: SpanRecord) {
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans shed because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Tuning knobs for a [`TraceSink`].
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Capacity of each recorder's [`SpanRing`].
    pub ring_capacity: usize,
    /// Expected provenance sampling period: an ingress event is stamped
    /// and followed iff its identity hash falls under `u64::MAX / N`, an
    /// expected 1-in-N rate. `1` samples everything (tests); the default
    /// keeps the tracked population far below one lock acquisition per
    /// event.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 65_536,
            sample_every: 1_024,
        }
    }
}

#[derive(Default)]
struct SinkInner {
    spans: Vec<SpanRecord>,
    dropped: u64,
    recorders: u64,
}

/// The shared collection point for one traced run. Clones share state;
/// handles are `Send + Sync`. Recorders write into private [`SpanRing`]s
/// and [`TraceSink::absorb`] them at egress, so the sink lock is taken
/// once per recorder lifetime, not per span.
#[derive(Clone)]
pub struct TraceSink {
    clock: TraceClock,
    config: TraceConfig,
    inner: Arc<Mutex<SinkInner>>,
    provenance: ProvenanceTracker,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink {
    /// Wall-clock sink with default configuration.
    pub fn new() -> Self {
        Self::with(TraceClock::wall(), TraceConfig::default())
    }

    /// Deterministic logical-clock sink with default configuration.
    pub fn logical() -> Self {
        Self::with(TraceClock::logical(), TraceConfig::default())
    }

    /// Sink with an explicit clock and configuration.
    pub fn with(clock: TraceClock, config: TraceConfig) -> Self {
        let provenance = ProvenanceTracker::new(clock.clone(), config.sample_every);
        TraceSink {
            clock,
            config,
            inner: Arc::new(Mutex::new(SinkInner::default())),
            provenance,
        }
    }

    /// The sink's time source.
    pub fn clock(&self) -> &TraceClock {
        &self.clock
    }

    /// The sink's configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// The sampled latency-provenance tracker shared by this sink.
    pub fn provenance(&self) -> &ProvenanceTracker {
        &self.provenance
    }

    /// Mints a fresh recorder ring sized per the sink's configuration.
    pub fn ring(&self) -> SpanRing {
        SpanRing::with_capacity(self.config.ring_capacity)
    }

    /// Drains one recorder's ring into the sink (one lock per recorder
    /// lifetime).
    pub fn absorb(&self, ring: SpanRing) {
        let mut inner = lock(&self.inner);
        inner.spans.extend(ring.spans);
        inner.dropped += ring.dropped;
        inner.recorders += 1;
    }

    /// Copy of every absorbed span, in a deterministic
    /// `(start, shard, op)` order independent of thread drain order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = lock(&self.inner).spans.clone();
        spans.sort_by(|a, b| {
            (a.start_ns, a.shard, &a.op, a.dur_ns).cmp(&(b.start_ns, b.shard, &b.op, b.dur_ns))
        });
        spans
    }

    /// Number of absorbed spans (watermark instants included).
    pub fn span_count(&self) -> usize {
        lock(&self.inner).spans.len()
    }

    /// Total spans shed by full rings.
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped
    }

    /// Number of recorder rings drained so far.
    pub fn recorder_count(&self) -> u64 {
        lock(&self.inner).recorders
    }

    /// Exports the trace in the Chrome trace-event format: load the
    /// serialized object in `chrome://tracing` or Perfetto. Spans become
    /// `ph:"X"` complete events (`ts`/`dur` in microseconds, `tid` = shard
    /// lane); watermarks become `ph:"i"` thread-scoped instants carrying
    /// the punctuation tick.
    pub fn to_chrome_trace(&self) -> Json {
        let events: Vec<Json> = self
            .spans()
            .into_iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_string(), Json::from(s.op.to_string())),
                    ("cat".to_string(), Json::from(s.kind.as_str())),
                ];
                let mut args = Vec::new();
                if s.kind == SpanKind::Watermark {
                    fields.push(("ph".to_string(), Json::from("i")));
                    fields.push(("s".to_string(), Json::from("t")));
                } else {
                    fields.push(("ph".to_string(), Json::from("X")));
                    args.push(("events".to_string(), Json::from(s.events)));
                }
                fields.push(("ts".to_string(), Json::from(s.start_ns as f64 / 1_000.0)));
                if s.kind != SpanKind::Watermark {
                    fields.push(("dur".to_string(), Json::from(s.dur_ns as f64 / 1_000.0)));
                }
                fields.push(("pid".to_string(), Json::from(1u32)));
                fields.push(("tid".to_string(), Json::from(s.shard)));
                if let Some(w) = s.watermark {
                    args.push(("watermark".to_string(), Json::from(w)));
                }
                if !args.is_empty() {
                    fields.push(("args".to_string(), Json::Object(args)));
                }
                Json::Object(fields)
            })
            .collect();
        Json::Object(vec![
            ("traceEvents".to_string(), Json::Array(events)),
            ("displayTimeUnit".to_string(), Json::from("ms")),
        ])
    }

    /// Exports the trace as folded-stack text (`shardNN;op total_ns` per
    /// line, name-sorted) for `flamegraph.pl`-style tooling. Watermark
    /// instants carry no duration and are excluded.
    pub fn to_folded(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for s in self.spans() {
            if s.kind == SpanKind::Watermark {
                continue;
            }
            let frame = format!("shard{:02};{}", s.shard, s.op);
            *agg.entry(frame).or_insert(0) += s.dur_ns;
        }
        let mut out = String::new();
        for (frame, ns) in agg {
            out.push_str(&frame);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }

    /// The `{"kind":"trace"}` summary object embedded in bench snapshots:
    /// span/watermark/drop/recorder totals, a per-kind span census, and
    /// the provenance latency decomposition.
    pub fn summary(&self) -> Json {
        let mut spans = 0u64;
        let mut watermarks = 0u64;
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        let (dropped, recorders) = {
            let inner = lock(&self.inner);
            for s in &inner.spans {
                if s.kind == SpanKind::Watermark {
                    watermarks += 1;
                } else {
                    spans += 1;
                }
                *by_kind.entry(s.kind.as_str()).or_insert(0) += 1;
            }
            (inner.dropped, inner.recorders)
        };
        Json::Object(vec![
            ("spans".to_string(), Json::from(spans)),
            ("watermarks".to_string(), Json::from(watermarks)),
            ("dropped".to_string(), Json::from(dropped)),
            ("recorders".to_string(), Json::from(recorders)),
            (
                "by_kind".to_string(),
                Json::Object(
                    by_kind
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::from(v)))
                        .collect(),
                ),
            ),
            ("provenance".to_string(), self.provenance.summary_json()),
        ])
    }
}

impl core::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "TraceSink({} spans, {} dropped, {} recorders)",
            self.span_count(),
            self.dropped(),
            self.recorder_count()
        )
    }
}

/// The component a provenance probe attributes elapsed time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyStage {
    /// Shard-queue wait (ingress → worker dequeue).
    Queue,
    /// Reorder-buffer residence in the sort stage.
    Sort,
    /// Downstream operator work.
    Operator,
    /// The low-watermark merge of a sharded pipeline.
    Merge,
}

impl LatencyStage {
    /// Every stage, in component-index order.
    pub const ALL: [LatencyStage; 4] = [
        LatencyStage::Queue,
        LatencyStage::Sort,
        LatencyStage::Operator,
        LatencyStage::Merge,
    ];

    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            LatencyStage::Queue => "queue",
            LatencyStage::Sort => "sort",
            LatencyStage::Operator => "operator",
            LatencyStage::Merge => "merge",
        }
    }

    #[inline]
    fn index(&self) -> usize {
        *self as usize
    }
}

struct ProvEntry {
    ingress_ns: u64,
    last_ns: u64,
    components: [u64; 4],
}

#[derive(Default)]
struct ProvInner {
    sampled: u64,
    completed: u64,
    /// In-flight samples, ordered by identity so probes on tick-sorted
    /// streams can range-query by a batch's tick bounds instead of
    /// scanning the batch.
    live: BTreeMap<(i64, u32), ProvEntry>,
}

/// The sampling hash of an identity: one multiplicative (Fibonacci-style)
/// hash, no memory access. An identity is sampled when its hash falls
/// under the tracker's threshold, so every probe — ingress, mark, egress,
/// on any shard — agrees on the sampled population with four ALU ops per
/// event and no shared state.
#[inline]
fn sample_hash(id: (i64, u32)) -> u64 {
    ((id.0 as u64) ^ ((id.1 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Sampled event-latency provenance: stamps a deterministic ~1/N subset
/// of ingress events and follows them by `(sync_time, key)` identity
/// through the pipeline. Probes call [`ProvenanceTracker::mark_many`] at
/// stage boundaries to attribute the time since the event's previous
/// probe to a [`LatencyStage`]; [`ProvenanceTracker::finish_many`] closes
/// the record at egress and feeds the total and per-component histograms.
///
/// Sampling is hash-based (the trace-id sampling of distributed tracers):
/// an identity is sampled iff `hash(sync_time, key) <= u64::MAX / N`.
/// The decision is a pure function of the identity, so the hot-path
/// contract is strong: a non-sampled event (the vast majority) costs four
/// ALU ops at every probe — no lock, no atomic, no shared cache line —
/// and the same events are sampled regardless of shard count, batch
/// boundaries, or thread interleaving. The tracker mutex is taken at most
/// once per batch, and only for batches that contain sampled events.
#[derive(Clone)]
pub struct ProvenanceTracker {
    clock: TraceClock,
    sample_every: u64,
    /// `hash <= threshold` ⇔ sampled; precomputed `u64::MAX / sample_every`.
    threshold: u64,
    /// In-flight sample count mirror: probes skip scanning entirely while
    /// it is zero (before the first stamp, after the last egress).
    live_count: Arc<AtomicU64>,
    inner: Arc<Mutex<ProvInner>>,
    total: Histogram,
    components: [Histogram; 4],
}

impl ProvenanceTracker {
    /// Tracker sampling identities at an expected 1-in-`sample_every`
    /// rate (minimum 1 = sample everything).
    pub fn new(clock: TraceClock, sample_every: u64) -> Self {
        let sample_every = sample_every.max(1);
        ProvenanceTracker {
            clock,
            sample_every,
            threshold: u64::MAX / sample_every,
            inner: Arc::new(Mutex::new(ProvInner::default())),
            live_count: Arc::new(AtomicU64::new(0)),
            total: Histogram::new(),
            components: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// The expected sampling period this tracker was built with.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// True iff this identity belongs to the sampled population — a pure
    /// function of the identity, identical at every probe.
    #[inline]
    pub fn is_sampled(&self, id: (i64, u32)) -> bool {
        sample_hash(id) <= self.threshold
    }

    /// Stamps every given identity *now*, bypassing the sampling
    /// predicate — for callers that own the sampling decision. An
    /// identity already in flight is not re-stamped. One lock per call.
    fn stamp_many(&self, ids: impl IntoIterator<Item = (i64, u32)>) {
        let now = self.clock.now_ns();
        let mut inner = lock(&self.inner);
        for id in ids {
            if let std::collections::btree_map::Entry::Vacant(e) = inner.live.entry(id) {
                e.insert(ProvEntry {
                    ingress_ns: now,
                    last_ns: now,
                    components: [0; 4],
                });
                inner.sampled += 1;
            }
        }
        self.live_count
            .store(inner.live.len() as u64, Ordering::Release);
    }

    /// Observes a batch of ingress events (as `(sync_time_ticks, key)`
    /// identities) and stamps the ones the sampling predicate selects.
    /// An identity already in flight is not re-stamped; batches with no
    /// sampled identities never touch the lock.
    pub fn ingress_many(&self, events: impl IntoIterator<Item = (i64, u32)>) {
        let picked = self.scan(events);
        if !picked.is_empty() {
            self.stamp_many(picked);
        }
    }

    /// Scans a batch with the sampling predicate, returning the sampled
    /// identities. Pure ALU per event; no shared state touched.
    #[inline]
    fn scan(&self, events: impl IntoIterator<Item = (i64, u32)>) -> Vec<(i64, u32)> {
        let mut hits = Vec::new();
        for id in events {
            if sample_hash(id) <= self.threshold {
                hits.push(id);
            }
        }
        hits
    }

    /// In-flight sample identities whose tick lies in `lo..=hi` — the
    /// candidates a tick-sorted batch with those bounds could retire.
    /// With nothing in flight the call is one atomic load; otherwise one
    /// lock and a range walk over the (small) live set, independent of
    /// batch size.
    pub fn candidates_in(&self, lo: i64, hi: i64) -> Vec<(i64, u32)> {
        if self.live_count.load(Ordering::Acquire) == 0 || lo > hi {
            return Vec::new();
        }
        let inner = lock(&self.inner);
        inner
            .live
            .range((lo, u32::MIN)..=(hi, u32::MAX))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Attributes elapsed-since-last-probe time to `stage` for every
    /// tracked event in the batch. A non-sampled identity costs four ALU
    /// ops; with nothing in flight the whole call is one atomic load.
    pub fn mark_many(&self, stage: LatencyStage, events: impl IntoIterator<Item = (i64, u32)>) {
        if self.live_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let now = self.clock.now_ns();
        let hits = self.scan(events);
        if hits.is_empty() {
            return;
        }
        let mut inner = lock(&self.inner);
        for id in hits {
            if let Some(e) = inner.live.get_mut(&id) {
                e.components[stage.index()] += now.saturating_sub(e.last_ns);
                e.last_ns = now;
            }
        }
    }

    /// Closes tracked events at egress: the final leg is attributed to
    /// `stage`, then the total and component histograms are fed. Same
    /// hot-path costs as [`ProvenanceTracker::mark_many`].
    pub fn finish_many(&self, stage: LatencyStage, events: impl IntoIterator<Item = (i64, u32)>) {
        if self.live_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let now = self.clock.now_ns();
        let hits = self.scan(events);
        if hits.is_empty() {
            return;
        }
        let mut done: Vec<(u64, [u64; 4])> = Vec::new();
        {
            let mut inner = lock(&self.inner);
            for id in hits {
                if let Some(mut e) = inner.live.remove(&id) {
                    e.components[stage.index()] += now.saturating_sub(e.last_ns);
                    inner.completed += 1;
                    done.push((now.saturating_sub(e.ingress_ns), e.components));
                }
            }
            self.live_count
                .store(inner.live.len() as u64, Ordering::Release);
        }
        for (total, components) in done {
            self.total.record(total);
            for (i, c) in components.iter().enumerate() {
                self.components[i].record(*c);
            }
        }
    }

    /// Events stamped so far.
    pub fn sampled(&self) -> u64 {
        lock(&self.inner).sampled
    }

    /// Stamped events that reached egress.
    pub fn completed(&self) -> u64 {
        lock(&self.inner).completed
    }

    /// Stamped events still in flight (includes sampled events a policy
    /// later dropped or shed — they never reach egress).
    pub fn in_flight(&self) -> usize {
        lock(&self.inner).live.len()
    }

    /// Ingress→egress latency histogram over completed samples.
    pub fn total_latency(&self) -> &Histogram {
        &self.total
    }

    /// Per-component latency histogram over completed samples.
    pub fn component_latency(&self, stage: LatencyStage) -> &Histogram {
        &self.components[stage.index()]
    }

    /// The `provenance` object of [`TraceSink::summary`].
    fn summary_json(&self) -> Json {
        let (sampled, completed, in_flight) = {
            let inner = lock(&self.inner);
            (inner.sampled, inner.completed, inner.live.len())
        };
        let mut latency = vec![("total".to_string(), hist_json(&self.total))];
        for stage in LatencyStage::ALL {
            latency.push((
                stage.as_str().to_string(),
                hist_json(&self.components[stage.index()]),
            ));
        }
        Json::Object(vec![
            ("sampled".to_string(), Json::from(sampled)),
            ("completed".to_string(), Json::from(completed)),
            ("in_flight".to_string(), Json::from(in_flight as u64)),
            ("latency_ns".to_string(), Json::Object(latency)),
        ])
    }
}

impl core::fmt::Debug for ProvenanceTracker {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ProvenanceTracker(sampled={} completed={} in_flight={})",
            self.sampled(),
            self.completed(),
            self.in_flight()
        )
    }
}

fn hist_json(h: &Histogram) -> Json {
    Json::Object(vec![
        ("count".to_string(), Json::from(h.count())),
        ("sum".to_string(), Json::from(h.sum())),
        ("min".to_string(), Json::from(h.min())),
        ("max".to_string(), Json::from(h.max())),
        ("mean".to_string(), Json::from(h.mean())),
    ])
}

/// Same poison-recovery stance as the metrics layer: a recorder that
/// panicked mid-drain only risks its own spans; recover the rest.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: &str, shard: u32, kind: SpanKind, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            op: op.into(),
            shard,
            kind,
            start_ns: start,
            dur_ns: dur,
            events: 1,
            watermark: None,
        }
    }

    #[test]
    fn logical_clock_is_deterministic_and_strictly_increasing() {
        let a = TraceClock::logical();
        let b = TraceClock::logical();
        let ra: Vec<u64> = (0..5).map(|_| a.now_ns()).collect();
        let rb: Vec<u64> = (0..5).map(|_| b.now_ns()).collect();
        assert_eq!(ra, rb, "independent logical clocks read identically");
        assert!(ra.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(ra[0], LOGICAL_TICK_NS);
        // Clones share the counter: interleaved readings stay unique.
        let c = a.clone();
        assert!(c.now_ns() > ra[4]);
        assert!(a.now_ns() > ra[4]);
    }

    #[test]
    fn ring_keeps_oldest_and_counts_drops() {
        let mut ring = SpanRing::with_capacity(2);
        ring.push(span("a", 0, SpanKind::Operator, 1, 1));
        ring.push(span("b", 0, SpanKind::Operator, 2, 1));
        ring.push(span("c", 0, SpanKind::Operator, 3, 1));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let sink = TraceSink::with(
            TraceClock::logical(),
            TraceConfig {
                ring_capacity: 2,
                sample_every: 1,
            },
        );
        sink.absorb(ring);
        assert_eq!(sink.span_count(), 2);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.recorder_count(), 1);
        let ops: Vec<String> = sink.spans().iter().map(|s| s.op.to_string()).collect();
        assert_eq!(ops, ["a", "b"], "the oldest spans survive");
    }

    #[test]
    fn sink_spans_sort_deterministically() {
        let sink = TraceSink::logical();
        let mut r1 = sink.ring();
        r1.push(span("late", 1, SpanKind::Operator, 30, 5));
        let mut r2 = sink.ring();
        r2.push(span("early", 0, SpanKind::Sort, 10, 5));
        // Absorb in "wrong" order; export order is by start time.
        sink.absorb(r1);
        sink.absorb(r2);
        let ops: Vec<String> = sink.spans().iter().map(|s| s.op.to_string()).collect();
        assert_eq!(ops, ["early", "late"]);
    }

    #[test]
    fn chrome_export_round_trips_through_json_parse() {
        let sink = TraceSink::logical();
        let mut ring = sink.ring();
        ring.push(span("pipeline.00.sort", 0, SpanKind::Sort, 1_000, 2_500));
        ring.push(SpanRecord {
            op: "watermark".into(),
            shard: 0,
            kind: SpanKind::Watermark,
            start_ns: 4_000,
            dur_ns: 0,
            events: 0,
            watermark: Some(77),
        });
        sink.absorb(ring);
        let text = sink.to_chrome_trace().to_string();
        let parsed = Json::parse(&text).expect("chrome trace parses back");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let x = &events[0];
        assert_eq!(x.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(x.get("cat").and_then(Json::as_str), Some("sort"));
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(2.5));
        let i = &events[1];
        assert_eq!(i.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            i.get("args")
                .and_then(|a| a.get("watermark"))
                .and_then(Json::as_i64),
            Some(77)
        );
    }

    #[test]
    fn folded_output_aggregates_by_shard_and_op() {
        let sink = TraceSink::logical();
        let mut ring = sink.ring();
        ring.push(span("sort", 0, SpanKind::Sort, 0, 100));
        ring.push(span("sort", 0, SpanKind::Sort, 200, 50));
        ring.push(span("count", 1, SpanKind::Operator, 0, 30));
        ring.push(SpanRecord {
            op: "wm".into(),
            shard: 0,
            kind: SpanKind::Watermark,
            start_ns: 5,
            dur_ns: 0,
            events: 0,
            watermark: Some(1),
        });
        sink.absorb(ring);
        assert_eq!(sink.to_folded(), "shard00;sort 150\nshard01;count 30\n");
    }

    #[test]
    fn provenance_decomposes_latency_exactly_under_logical_clock() {
        let clock = TraceClock::logical();
        let prov = ProvenanceTracker::new(clock, 1);
        let id = (42i64, 7u32);
        prov.ingress_many([id]); // t = 1 tick
        prov.mark_many(LatencyStage::Queue, [id]); // t = 2: queue += 1 tick
        prov.mark_many(LatencyStage::Sort, [id]); // t = 3: sort += 1 tick
        prov.finish_many(LatencyStage::Merge, [id]); // t = 4: merge += 1 tick
        assert_eq!(prov.sampled(), 1);
        assert_eq!(prov.completed(), 1);
        assert_eq!(prov.in_flight(), 0);
        assert_eq!(prov.total_latency().count(), 1);
        assert_eq!(prov.total_latency().sum(), 3 * LOGICAL_TICK_NS);
        let by_stage: Vec<u64> = LatencyStage::ALL
            .iter()
            .map(|s| prov.component_latency(*s).sum())
            .collect();
        assert_eq!(
            by_stage,
            [LOGICAL_TICK_NS, LOGICAL_TICK_NS, 0, LOGICAL_TICK_NS]
        );
        // Components account for the whole end-to-end latency.
        assert_eq!(by_stage.iter().sum::<u64>(), prov.total_latency().sum());
    }

    #[test]
    fn provenance_sampling_is_a_pure_function_of_identity() {
        let prov = ProvenanceTracker::new(TraceClock::logical(), 4);
        let ids: Vec<(i64, u32)> = (0..1_000).map(|i| (i as i64, i)).collect();
        let expected = ids.iter().filter(|id| prov.is_sampled(**id)).count() as u64;
        prov.ingress_many(ids.iter().copied());
        assert_eq!(prov.sampled(), expected);
        // Roughly the expected 1-in-4 rate, and the predicate discriminates.
        assert!(
            (100..500).contains(&expected),
            "sampled {expected} of 1000 at an expected 1/4 rate"
        );
        // Re-observing the same identities never double-stamps.
        prov.ingress_many(ids.iter().copied());
        assert_eq!(prov.sampled(), expected);
        // Non-sampled identities are no-ops everywhere.
        let out = ids
            .iter()
            .copied()
            .find(|id| !prov.is_sampled(*id))
            .expect("a 1/4 rate leaves non-sampled identities");
        prov.mark_many(LatencyStage::Queue, [out]);
        prov.finish_many(LatencyStage::Merge, [out]);
        assert_eq!(prov.completed(), 0);
        assert_eq!(prov.in_flight(), expected as usize);
    }

    #[test]
    fn summary_reports_census_and_provenance() {
        let sink = TraceSink::with(
            TraceClock::logical(),
            TraceConfig {
                sample_every: 1,
                ..TraceConfig::default()
            },
        );
        let mut ring = sink.ring();
        ring.push(span("sort", 0, SpanKind::Sort, 0, 10));
        ring.push(SpanRecord {
            op: "wm".into(),
            shard: 0,
            kind: SpanKind::Watermark,
            start_ns: 11,
            dur_ns: 0,
            events: 0,
            watermark: Some(3),
        });
        sink.absorb(ring);
        sink.provenance().ingress_many([(1, 1)]);
        sink.provenance()
            .finish_many(LatencyStage::Operator, [(1, 1)]);
        let text = sink.summary().to_string();
        let parsed = Json::parse(&text).expect("summary parses");
        assert_eq!(parsed.get("spans").and_then(Json::as_i64), Some(1));
        assert_eq!(parsed.get("watermarks").and_then(Json::as_i64), Some(1));
        assert_eq!(parsed.get("dropped").and_then(Json::as_i64), Some(0));
        assert_eq!(
            parsed
                .get("by_kind")
                .and_then(|k| k.get("sort"))
                .and_then(Json::as_i64),
            Some(1)
        );
        let prov = parsed.get("provenance").expect("provenance block");
        assert_eq!(prov.get("completed").and_then(Json::as_i64), Some(1));
        assert!(prov
            .get("latency_ns")
            .and_then(|l| l.get("total"))
            .and_then(|t| t.get("count"))
            .is_some());
    }
}
