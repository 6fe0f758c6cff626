//! Sharded multi-core execution: N hash-partitioned copies of a pipeline
//! on worker threads, joined by a deterministic low-watermark merge.
//!
//! [`Streamable::sharded`] splits a stream by `hash(key) % n`, runs one
//! copy of a user-built pipeline per shard on its own worker thread (fed
//! through a bounded `std::sync::mpsc::sync_channel` — the backpressure
//! edge), and re-joins the shard outputs at egress into a single totally
//! ordered stream. Because each shard receives a `Streamable` and returns a
//! `Streamable`, the whole combinator surface — windows, aggregates,
//! sorting — composes unchanged inside a shard.
//!
//! # The boundary carries the chain
//!
//! Settings live on the chain, and `sharded` hands them to every shard:
//! shard `i`'s input is instrumented under `{prefix}.shard{i:02}`, fenced
//! when the chain is hardened, and traced under `{trace prefix}.shard{i:02}`
//! on lane `i`. The `shard.*` counters register in the chain's registry,
//! and the queue-wait and merge spans record into its trace sink. The
//! checkpoint context stays behind: a gate's quiescence argument holds on
//! one thread only.
//!
//! # Determinism
//!
//! The egress merge is *lockstep*: it only ever processes messages from
//! the shard with the **minimal** output watermark (ties broken by lowest
//! shard index), advancing that shard's watermark at each of its
//! punctuations. Whenever the global low watermark `W = min_i w_i`
//! advances, every buffered event with `sync_time <= W` is released in
//! `(sync_time, key)` order (stable per shard) followed by one punctuation
//! at `W`. Which shard is consulted next is therefore a function of the
//! per-shard message *sequences* alone — never of thread timing — and the
//! per-shard sequences are themselves deterministic (each worker processes
//! a deterministic subsequence of the input through a deterministic
//! pipeline). Output is byte-identical across runs *and across shard
//! counts* for key-local pipelines.
//!
//! # The key-local contract
//!
//! Sharding partitions by key, so per-shard pipelines must be **key-local**:
//! an operator whose output for a key depends only on events of that key
//! (grouped aggregates, per-key reductions, patterns, sorting, selection,
//! projection) shards transparently. Global aggregates (`count()` over all
//! keys) produce per-shard partials instead; combine them downstream of
//! the merge (e.g. `reduce_by_key`) if a global result is needed.
//!
//! # Failure model
//!
//! A panicking shard (or one that delivers a typed error) terminates the
//! pipeline with **exactly one** typed [`StreamError`] — the first error
//! wins, later ones are dropped — while the remaining shards drain and
//! join. There is no watchdog: an idle source is not a fault, and a shard
//! stuck in user code hangs the pipeline exactly as a stuck operator hangs
//! an unsharded chain.

use crate::observer::Observer;
use crate::streamable::{input_stream, ChainCtx, Streamable};
use impatience_core::trace::{SpanKind, SpanRecord, SpanRing, TraceClock, TraceSink};
use impatience_core::{
    hash_key, ConfigError, Counter, Event, EventBatch, Gauge, MetricsRegistry, Payload,
    StreamError, StreamMessage, Timestamp,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Capacity of each ingress→worker channel, in messages (not events). A
/// full channel blocks the source: this is the one backpressure edge.
pub const SHARD_QUEUE_MESSAGES: usize = 1024;

// ---------------------------------------------------------------------------
// Context, metrics
// ---------------------------------------------------------------------------

/// Per-shard build context handed to the pipeline factory: which copy this
/// is and how many exist (e.g. for per-shard spill directories).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCtx {
    /// This shard's index in `0..shards`.
    pub index: usize,
    /// Total number of shards.
    pub shards: usize,
}

impl ShardCtx {
    /// A per-shard spill directory under `root` (`root/shard-NN`), so
    /// external sorters on different worker threads never share run files.
    /// The directory is not created here; the external sorter creates it
    /// lazily on first spill.
    pub fn spill_dir(&self, root: impl AsRef<std::path::Path>) -> std::path::PathBuf {
        root.as_ref().join(format!("shard-{:02}", self.index))
    }
}

#[derive(Clone)]
struct ShardMetrics {
    ingress_events: Counter,
    ingress_punctuations: Counter,
    merge_events: Counter,
    merge_punctuations: Counter,
    errors: Counter,
    workers: Gauge,
}

impl ShardMetrics {
    /// Without a registry the instruments live in a private one that
    /// nothing exports.
    fn new(registry: Option<&MetricsRegistry>) -> Self {
        let r = registry.cloned().unwrap_or_else(MetricsRegistry::new);
        ShardMetrics {
            ingress_events: r.counter("shard.ingress.events"),
            ingress_punctuations: r.counter("shard.ingress.punctuations"),
            merge_events: r.counter("shard.merge.events"),
            merge_punctuations: r.counter("shard.merge.punctuations"),
            errors: r.counter("shard.errors"),
            workers: r.gauge("shard.workers"),
        }
    }
}

// ---------------------------------------------------------------------------
// Plumbing: channel messages, worker, sink
// ---------------------------------------------------------------------------

/// What travels ingress→worker: the stream protocol plus the error leg
/// (which [`StreamMessage`] does not carry). The `u64` is the enqueue
/// timestamp (trace-clock ns) used for queue-wait spans; `0` means
/// "untraced" and is skipped by the worker.
enum ShardMsg<P> {
    Msg(StreamMessage<P>, u64),
    Error(StreamError),
}

/// What travels worker→merge: the shard's output, or its terminal error.
type ShardOut<Q> = Result<StreamMessage<Q>, StreamError>;

type ShardBuild<P, Q> = dyn Fn(Streamable<P>, ShardCtx) -> Streamable<Q> + Send + Sync;

/// Terminal sink of each worker's pipeline copy. The output channel is
/// unbounded, so a worker never blocks on the merge; a send fails only
/// once the merge has ended the stream, and the message is moot then.
struct ChannelSink<Q: Payload> {
    tx: Sender<ShardOut<Q>>,
}

impl<Q: Payload> Observer<Q> for ChannelSink<Q> {
    fn on_batch(&mut self, batch: EventBatch<Q>) {
        let _ = self.tx.send(Ok(StreamMessage::Batch(batch)));
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        let _ = self.tx.send(Ok(StreamMessage::Punctuation(t)));
    }

    fn on_completed(&mut self) {
        let _ = self.tx.send(Ok(StreamMessage::Completed));
    }

    fn on_error(&mut self, err: StreamError) {
        let _ = self.tx.send(Err(err));
    }
}

/// Worker thread body: build the shard's pipeline copy *on this thread*,
/// then pump the input channel into it until a terminal message or until
/// the ingress drops its sender. A panic anywhere (pipeline construction or
/// processing) is converted into a typed terminal error on the output.
fn shard_worker<P: Payload, Q: Payload>(
    index: usize,
    shards: usize,
    chain: ChainCtx,
    input: Receiver<ShardMsg<P>>,
    output: Sender<ShardOut<Q>>,
    build: Arc<ShardBuild<P, Q>>,
) {
    let panic_lane = output.clone();
    let trace = chain.trace_sink().cloned();
    let result = crate::shell::guarded(move || {
        let (handle, mut stream) = input_stream::<P>();
        stream.ctx = chain;
        build(stream, ShardCtx { index, shards })
            .subscribe_observer(Box::new(ChannelSink { tx: output }));
        // Per-shard recorder: queue-wait spans land in a thread-local ring
        // (no cross-thread contention) and are surrendered to the sink once
        // at drain time. A panicking worker loses its ring — acceptable, the
        // typed error it emits is the signal that matters then.
        let mut recorder = trace.as_ref().map(|sink| (sink.clone(), sink.ring()));
        let queue_label: Arc<str> = format!("shard{index:02}.queue").into();
        loop {
            match input.recv() {
                Ok(ShardMsg::Msg(msg, enqueued_ns)) => {
                    if enqueued_ns > 0 {
                        if let Some((sink, ring)) = recorder.as_mut() {
                            let now = sink.clock().now_ns();
                            let (events, watermark) = match &msg {
                                StreamMessage::Batch(b) => (b.visible_len() as u64, None),
                                StreamMessage::Punctuation(t) => (0, Some(t.ticks())),
                                StreamMessage::Completed => (0, None),
                            };
                            ring.push(SpanRecord {
                                op: queue_label.clone(),
                                shard: index as u32,
                                kind: SpanKind::Queue,
                                start_ns: enqueued_ns,
                                dur_ns: now.saturating_sub(enqueued_ns),
                                events,
                                watermark,
                            });
                        }
                    }
                    let terminal = matches!(msg, StreamMessage::Completed);
                    if handle.push(msg).is_err() || terminal {
                        break;
                    }
                }
                Ok(ShardMsg::Error(err)) => {
                    handle.push_error(err);
                    break;
                }
                // The ingress dropped its sender without a terminal (the
                // source vanished, or the merge ended the stream): flush
                // the pipeline so buffered state still drains.
                Err(_) => {
                    let _ = handle.push(StreamMessage::Completed);
                    break;
                }
            }
        }
        if let Some((sink, ring)) = recorder {
            sink.absorb(ring);
        }
    });
    if let Err(message) = result {
        let _ = panic_lane.send(Err(StreamError::OperatorPanicked {
            operator: format!("shard{index:02}"),
            message,
        }));
    }
}

// ---------------------------------------------------------------------------
// Egress merge
// ---------------------------------------------------------------------------

/// The merge's output side: per-shard buffers, the downstream observer and
/// the merge's span ring. Merge spans ride lane `n` (one past the shards)
/// so they render on their own track in chrome://tracing.
struct Egress<Q: Payload> {
    buffers: Vec<Vec<Event<Q>>>,
    downstream: Box<dyn Observer<Q>>,
    metrics: ShardMetrics,
    recorder: Option<(TraceSink, SpanRing)>,
}

impl<Q: Payload> Egress<Q> {
    /// Releases every buffered event with `sync_time <= w` across all
    /// shard buffers as one batch in `(sync_time, key)` order, with a merge
    /// span around a non-empty release. Stable sort + shard index iteration
    /// order keep per-shard tie order intact; ties *across* shards cannot
    /// collide on `(sync_time, key)` because shards partition the key space.
    fn release(&mut self, w: Timestamp, span_watermark: Option<i64>) {
        let start_ns = self
            .recorder
            .as_ref()
            .map(|(sink, _)| sink.clock().now_ns());
        let mut out: Vec<Event<Q>> = Vec::new();
        for buf in self.buffers.iter_mut() {
            // Shard output is an ordered stream, so the releasable events
            // form a prefix.
            let cut = buf.partition_point(|e| e.sync_time <= w);
            out.extend(buf.drain(..cut));
        }
        if out.is_empty() {
            return;
        }
        out.sort_by_key(|e| (e.sync_time, e.key));
        let released = out.len() as u64;
        self.metrics.merge_events.add(released);
        self.downstream.on_batch(EventBatch::from_events(out));
        self.record(SpanKind::Merge, start_ns, released, span_watermark);
    }

    /// Releases everything at or below `w`, then punctuates at `w`.
    fn punctuate(&mut self, w: Timestamp) {
        self.release(w, Some(w.ticks()));
        self.metrics.merge_punctuations.inc();
        self.downstream.on_punctuation(w);
        self.record(SpanKind::Watermark, None, 0, Some(w.ticks()));
    }

    /// A span from `start_ns` to now, or an instant now without a start.
    fn record(&mut self, kind: SpanKind, start_ns: Option<u64>, events: u64, w: Option<i64>) {
        let lane = self.buffers.len() as u32;
        if let Some((sink, ring)) = self.recorder.as_mut() {
            let now = sink.clock().now_ns();
            let start_ns = start_ns.unwrap_or(now);
            ring.push(SpanRecord {
                op: "merge".into(),
                shard: lane,
                kind,
                start_ns,
                dur_ns: now.saturating_sub(start_ns),
                events,
                watermark: w,
            });
        }
    }
}

/// Merge thread body — the deterministic lockstep low-watermark merge (see
/// the module docs for the determinism argument). It blocks on exactly the
/// lockstep target's channel; workers never block on output, so the other
/// shards keep draining their inputs meanwhile and no cycle of waits can
/// form. On exit it raises `stopped` *before* the end of the stream becomes
/// visible downstream, so no source push after that end is routed.
fn shard_merge<Q: Payload>(
    outputs: Vec<Receiver<ShardOut<Q>>>,
    stopped: Arc<AtomicBool>,
    mut egress: Egress<Q>,
) {
    let n = outputs.len();
    let mut wm = vec![Timestamp::MIN; n];
    let mut done = vec![false; n];
    let mut last_w = Timestamp::MIN;
    let end = loop {
        if done.iter().all(|&d| d) {
            break Ok(());
        }
        // Lockstep rule: only the shard with the minimal watermark may be
        // processed (ties -> lowest index), so progression is a function
        // of message content, never of thread timing.
        let i = (0..n)
            .filter(|&k| !done[k])
            .min_by_key(|&k| (wm[k], k))
            .expect("at least one active shard");
        match outputs[i].recv() {
            Ok(Ok(StreamMessage::Batch(batch))) => egress.buffers[i].extend(batch.into_visible()),
            Ok(Ok(StreamMessage::Punctuation(t))) => {
                if t < wm[i] {
                    break Err(StreamError::PunctuationRegressed {
                        previous: wm[i],
                        attempted: t,
                    });
                }
                wm[i] = t;
            }
            // A disconnected channel means that worker is done.
            Ok(Ok(StreamMessage::Completed)) | Err(_) => done[i] = true,
            // First error wins; later shard errors are dropped with their
            // channels.
            Ok(Err(err)) => break Err(err),
        }
        // A watermark may have advanced (punctuation) or left the min
        // computation (completion): release and punctuate on advance.
        if let Some(w) = (0..n).filter(|&k| !done[k]).map(|k| wm[k]).min() {
            if w > last_w {
                last_w = w;
                egress.punctuate(w);
            }
        }
    };
    stopped.store(true, Ordering::Release);
    match end {
        Ok(()) => {
            // Final flush: everything left is above the last watermark.
            egress.release(Timestamp::MAX, None);
            egress.downstream.on_completed();
        }
        Err(err) => {
            egress.metrics.errors.inc();
            egress.downstream.on_error(err);
        }
    }
    if let Some((sink, ring)) = egress.recorder {
        sink.absorb(ring);
    }
}

// ---------------------------------------------------------------------------
// Ingress router
// ---------------------------------------------------------------------------

/// The observer handed to the upstream source: routes each event to
/// `hash_key(key) % n`, broadcasts punctuations/terminals to every shard,
/// and joins the whole worker/merge fleet when the source terminates (so a
/// finished subscribe call implies fully delivered downstream output).
struct ShardIngress<P: Payload> {
    /// One sender per shard; emptied once the merge has ended the stream.
    senders: Vec<SyncSender<ShardMsg<P>>>,
    /// Raised (Release) by the merge when it ends the stream, read
    /// (Acquire) here; it guards no other data.
    stopped: Arc<AtomicBool>,
    /// The workers, then the merge.
    threads: Vec<JoinHandle<()>>,
    metrics: ShardMetrics,
    /// Trace clock for enqueue stamps; `None` sends stamp `0` (untraced).
    clock: Option<TraceClock>,
}

impl<P: Payload> ShardIngress<P> {
    /// One clock read covers every send in the same observer call.
    fn stamp(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_ns())
    }

    /// Once the merge has ended the stream, routes nothing more: dropping
    /// the senders lets every worker drain, complete its pipeline and exit.
    fn check_stopped(&mut self) {
        if self.stopped.load(Ordering::Acquire) {
            self.senders.clear();
        }
    }

    /// Sends `msg(stamp)` to every shard; a send to a worker that already
    /// died fails and is moot.
    fn broadcast(&mut self, msg: impl Fn(u64) -> ShardMsg<P>) {
        let stamp = self.stamp();
        self.check_stopped();
        for tx in &self.senders {
            let _ = tx.send(msg(stamp));
        }
    }

    fn join_all(&mut self) {
        self.senders.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<P: Payload> Observer<P> for ShardIngress<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let stamp = self.stamp();
        self.check_stopped();
        let routed = &self.metrics.ingress_events;
        let n = self.senders.len() as u64;
        if n <= 1 {
            if let Some(tx) = self.senders.first() {
                routed.add(batch.visible_len() as u64);
                let _ = tx.send(ShardMsg::Msg(StreamMessage::Batch(batch), stamp));
            }
            return;
        }
        let mut parts: Vec<Vec<Event<P>>> = vec![Vec::new(); n as usize];
        for e in batch.into_visible() {
            parts[(hash_key(e.key) % n) as usize].push(e);
        }
        for (tx, part) in self.senders.iter().zip(parts) {
            if part.is_empty() {
                continue;
            }
            routed.add(part.len() as u64);
            let _ = tx.send(ShardMsg::Msg(StreamMessage::batch(part), stamp));
        }
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.metrics.ingress_punctuations.inc();
        self.broadcast(|stamp| ShardMsg::Msg(StreamMessage::Punctuation(t), stamp));
    }

    fn on_completed(&mut self) {
        self.broadcast(|stamp| ShardMsg::Msg(StreamMessage::Completed, stamp));
        self.join_all();
    }

    fn on_error(&mut self, err: StreamError) {
        self.broadcast(|_| ShardMsg::Error(err.clone()));
        self.join_all();
    }
}

impl<P: Payload> Drop for ShardIngress<P> {
    fn drop(&mut self) {
        // Source dropped without a terminal: dropping the senders makes
        // each worker flush (complete) its pipeline, so buffered state
        // still drains downstream; then wait the fleet out.
        self.join_all();
    }
}

// ---------------------------------------------------------------------------
// Public combinators
// ---------------------------------------------------------------------------

impl<P: Payload> Streamable<P> {
    /// Runs `shards` hash-partitioned copies of the `build` pipeline on
    /// worker threads and re-joins their outputs into one totally ordered
    /// stream (see the [module docs](self) for the determinism and
    /// key-locality contracts). `build` is called once per shard, *on*
    /// that shard's worker thread.
    ///
    /// Each shard's input inherits this chain's instruments, fence and
    /// trace ([the boundary carries the
    /// chain](self#the-boundary-carries-the-chain)); a `build` that calls
    /// `instrument` or `traced` itself overrides what it inherited. Stages
    /// chained onto the returned stream keep this chain's instruments,
    /// fence and trace, but not its checkpoint context: they run on the
    /// merge's thread.
    ///
    /// Zero shards start no thread: the stream ends with
    /// [`StreamError::InvalidConfig`] at subscribe time.
    pub fn sharded<Q: Payload>(
        self,
        shards: usize,
        build: impl Fn(Streamable<P>, ShardCtx) -> Streamable<Q> + Send + Sync + 'static,
    ) -> Streamable<Q> {
        let Streamable {
            connect: source,
            ctx,
            ..
        } = self.settle();
        let chains: Vec<ChainCtx> = (0..shards).map(|i| ctx.for_shard(i)).collect();
        let registry = ctx.registry().cloned();
        let trace = ctx.trace_sink().cloned();
        let connect = move |mut downstream: Box<dyn Observer<Q>>| {
            if shards == 0 {
                return downstream.on_error(ConfigError::new("shards", "must be >= 1").into());
            }
            let metrics = ShardMetrics::new(registry.as_ref());
            metrics.workers.set(shards as i64);
            let build: Arc<ShardBuild<P, Q>> = Arc::new(build);
            let mut senders = Vec::with_capacity(shards);
            let mut outputs = Vec::with_capacity(shards);
            let mut threads = Vec::with_capacity(shards + 1);
            for (i, chain) in chains.into_iter().enumerate() {
                let (tx, input) = sync_channel(SHARD_QUEUE_MESSAGES);
                let (output, rx) = channel();
                senders.push(tx);
                outputs.push(rx);
                let build = build.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("shard{i:02}"))
                        .spawn(move || shard_worker(i, shards, chain, input, output, build))
                        .expect("spawn shard worker"),
                );
            }
            let stopped = Arc::new(AtomicBool::new(false));
            let egress = Egress {
                buffers: (0..shards).map(|_| Vec::new()).collect(),
                downstream,
                metrics: metrics.clone(),
                recorder: trace.as_ref().map(|sink| (sink.clone(), sink.ring())),
            };
            threads.push({
                let stopped = stopped.clone();
                std::thread::Builder::new()
                    .name("shard-merge".into())
                    .spawn(move || shard_merge(outputs, stopped, egress))
                    .expect("spawn shard merge")
            });
            source(Box::new(ShardIngress {
                senders,
                stopped,
                threads,
                metrics,
                clock: trace.as_ref().map(|t| t.clock().clone()),
            }));
        };
        let mut merged = Streamable::from_connector(connect);
        merged.ctx = ctx.past_merge();
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::validate_ordered_stream;
    use std::sync::Mutex;

    fn ev(t: i64, key: u32, p: u32) -> Event<u32> {
        Event::keyed(Timestamp::new(t), key, p)
    }

    fn source(events: Vec<Event<u32>>, puncts: &[i64]) -> Streamable<u32> {
        let mut msgs = vec![StreamMessage::batch(events)];
        for &p in puncts {
            msgs.push(StreamMessage::Punctuation(Timestamp::new(p)));
        }
        msgs.push(StreamMessage::Completed);
        // from_messages validates ordering; build by hand for full control.
        let (handle, stream) = input_stream::<u32>();
        Streamable::from_connector(move |sink| {
            stream.subscribe_observer(sink);
            for m in msgs {
                handle.push(m).expect("push");
            }
        })
    }

    #[test]
    fn identity_sharding_is_ordered_and_complete() {
        let events: Vec<Event<u32>> = (0..40).map(|i| ev(i, (i % 8) as u32, i as u32)).collect();
        let out = source(events, &[39]).sharded(4, |s, _| s).collect_output();
        assert!(out.is_completed());
        assert_eq!(out.event_count(), 40);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        // Released in (sync_time, key) order.
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn shard_counts_agree_byte_for_byte() {
        let events: Vec<Event<u32>> = (0..60)
            .map(|i| ev(i / 3, (i % 10) as u32, i as u32))
            .collect();
        let runs: Vec<Vec<StreamMessage<u32>>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| {
                source(events.clone(), &[5, 11, 19])
                    .sharded(n, |s, _| s.where_(|e| e.payload % 7 != 3))
                    .collect_output()
                    .messages()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0], runs[3]);
    }

    #[test]
    fn panicking_shard_yields_exactly_one_typed_error() {
        let events: Vec<Event<u32>> = (0..32).map(|i| ev(i, (i % 4) as u32, i as u32)).collect();
        let out = source(events, &[31])
            .sharded(4, |s, ctx| {
                let bad = ctx.index == 2;
                s.select(move |p| {
                    if bad && *p >= 10 {
                        panic!("shard under test blew up");
                    }
                    *p
                })
            })
            .collect_output();
        let err = out.error().expect("typed terminal error");
        assert!(
            matches!(err, StreamError::OperatorPanicked { ref operator, .. } if operator == "shard02"),
            "unexpected error: {err:?}"
        );
        assert!(!out.is_completed(), "error and completion both delivered");
    }

    #[test]
    fn ctx_reports_index_and_count() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let record = seen.clone();
        let out = source(vec![ev(1, 0, 1)], &[1])
            .sharded(3, move |s, ctx| {
                record.lock().unwrap().push((ctx.index, ctx.shards));
                s
            })
            .collect_output();
        assert!(out.is_completed());
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn traced_sharded_records_queue_merge_and_watermark_spans() {
        use impatience_core::trace::{TraceClock, TraceConfig};
        let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
        let events: Vec<Event<u32>> = (0..40).map(|i| ev(i, (i % 8) as u32, i as u32)).collect();
        let traced = source(events.clone(), &[10, 25, 39])
            .traced(crate::TraceCtx::new(&sink))
            .sharded(4, |s, _| s)
            .collect_output();
        assert!(traced.is_completed());
        // Tracing must not change the output.
        let plain = source(events, &[10, 25, 39])
            .sharded(4, |s, _| s)
            .collect_output();
        assert_eq!(traced.messages(), plain.messages());

        let spans = sink.spans();
        let queued: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Queue).collect();
        assert!(!queued.is_empty(), "no queue-wait spans recorded");
        assert!(queued.iter().all(|s| s.op.ends_with(".queue")));
        // Every shard lane saw traffic (punctuations broadcast to all 4).
        let lanes: std::collections::BTreeSet<u32> = queued.iter().map(|s| s.shard).collect();
        assert_eq!(lanes.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let merges = spans.iter().filter(|s| s.kind == SpanKind::Merge).count();
        assert!(merges > 0, "no merge release spans recorded");
        let wms: Vec<i64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Watermark)
            .filter_map(|s| s.watermark)
            .collect();
        assert_eq!(wms, vec![10, 25, 39], "merge watermark instants");
        assert_eq!(sink.dropped(), 0);
        // 4 worker rings + 1 merge ring surrendered.
        assert_eq!(sink.recorder_count(), 5);
    }
}
