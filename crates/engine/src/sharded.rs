//! Sharded multi-core execution: N hash-partitioned copies of a pipeline
//! on worker threads, joined by a deterministic low-watermark merge.
//!
//! [`Streamable::sharded`] splits a stream by `hash(key) % n`, runs one
//! copy of a user-built pipeline per shard on its own worker thread
//! (connected by bounded SPSC queues with backpressure), and re-joins the
//! shard outputs at egress into a single totally ordered stream. Because
//! each shard receives a `Streamable` and returns a `Streamable`, the
//! whole combinator surface — `instrument`, `hardened`, checkpointing,
//! windows, aggregates — composes unchanged inside a shard.
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
//! join within a bounded stall timeout ([`ShardOptions::stall_timeout`]).
//! A shard that neither produces nor terminates within that timeout
//! surfaces as [`StreamError::ShardStalled`] instead of deadlocking.

use crate::observer::Observer;
use crate::streamable::{input_stream, Streamable};
use impatience_core::trace::{SpanKind, SpanRecord, SpanRing, TraceClock, TraceSink};
use impatience_core::{
    Counter, Event, EventBatch, Gauge, MetricsRegistry, Payload, StreamError, StreamMessage,
    Timestamp,
};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Bounded SPSC queue
// ---------------------------------------------------------------------------

/// Outcome of a [`ShardQueue::try_push`]: the rejected value rides along so
/// the producer can retry or drop it deliberately.
#[derive(Debug)]
pub enum TryPush<T> {
    /// The queue is at capacity; the value was not enqueued.
    Full(T),
    /// The queue is closed; the value was not enqueued.
    Closed(T),
}

/// Outcome of a [`ShardQueue::pop_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// A value was dequeued.
    Msg(T),
    /// The timeout elapsed with the queue still empty and open.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

struct QueueInner<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking queue connecting exactly one producer to one
/// consumer (SPSC by convention; the implementation tolerates more).
///
/// `push` blocks while the queue is full — this is the backpressure edge
/// between the sharding ingress and each worker, and between each worker
/// and the egress merge. `close` wakes every waiter: subsequent pushes are
/// rejected, pops drain the residue and then report
/// [`Pop::Closed`] / `None`.
pub struct ShardQueue<T> {
    cap: usize,
    inner: Mutex<QueueInner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> ShardQueue<T> {
    /// A queue admitting at most `cap` buffered values (`cap >= 1`).
    pub fn bounded(cap: usize) -> Self {
        assert!(cap >= 1, "shard queue capacity must be >= 1");
        ShardQueue {
            cap,
            inner: Mutex::new(QueueInner {
                buf: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocking push. Returns `false` (dropping `v`) iff the queue closed.
    pub fn push(&self, v: T) -> bool {
        let mut st = lock(&self.inner);
        loop {
            if st.closed {
                return false;
            }
            if st.buf.len() < self.cap {
                st.buf.push_back(v);
                drop(st);
                self.not_empty.notify_one();
                return true;
            }
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking push.
    pub fn try_push(&self, v: T) -> Result<(), TryPush<T>> {
        let mut st = lock(&self.inner);
        if st.closed {
            return Err(TryPush::Closed(v));
        }
        if st.buf.len() >= self.cap {
            return Err(TryPush::Full(v));
        }
        st.buf.push_back(v);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Push that ignores the capacity bound (never blocks): the priority
    /// lane for terminal errors from a dying worker. Returns `false` iff
    /// the queue closed.
    pub fn push_unbounded(&self, v: T) -> bool {
        let mut st = lock(&self.inner);
        if st.closed {
            return false;
        }
        st.buf.push_back(v);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Blocking pop. `None` means closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock(&self.inner);
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(v);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = lock(&self.inner);
        let v = st.buf.pop_front();
        drop(st);
        if v.is_some() {
            self.not_full.notify_one();
        }
        v
    }

    /// Pop waiting at most `timeout` for a value.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.inner);
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Pop::Msg(v);
            }
            if st.closed {
                return Pop::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::TimedOut;
            }
            let (guard, _) = self
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Closes the queue and wakes every blocked producer and consumer.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Whether [`ShardQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.inner).closed
    }

    /// Buffered (pushed, not yet popped) values.
    pub fn len(&self) -> usize {
        lock(&self.inner).buf.len()
    }

    /// Whether the queue holds no buffered values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

// ---------------------------------------------------------------------------
// Options, context, metrics
// ---------------------------------------------------------------------------

/// Per-shard build context handed to the pipeline factory: which copy this
/// is and how many exist (e.g. for per-shard metric prefixes).
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

/// Tuning for [`Streamable::sharded`]; `n.into()` is `n` shards with the
/// defaults.
#[derive(Clone)]
pub struct ShardOptions {
    /// Number of worker shards (`>= 1`).
    pub shards: usize,
    /// Capacity of each SPSC queue (messages, not events).
    pub queue_capacity: usize,
    /// How long the egress merge waits on a silent shard before giving up
    /// with [`StreamError::ShardStalled`]. Bounds pipeline join time.
    pub stall_timeout: Duration,
    /// Registry for the `shard.*` counters (ingress/merge traffic, errors,
    /// worker gauge); `None` keeps the instruments private and unexported.
    pub registry: Option<MetricsRegistry>,
    /// Trace sink for shard-queue wait spans and merge spans (see
    /// [`crate::traced`]); `None` disables span recording entirely.
    pub trace: Option<TraceSink>,
}

impl ShardOptions {
    /// Defaults: 1024-message queues, 10 s stall timeout, no registry, no
    /// tracing.
    pub fn new(shards: usize) -> Self {
        ShardOptions {
            shards,
            queue_capacity: 1024,
            stall_timeout: Duration::from_secs(10),
            registry: None,
            trace: None,
        }
    }

    /// Sets the number of worker shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the per-queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Overrides the merge stall timeout.
    pub fn with_stall_timeout(mut self, t: Duration) -> Self {
        self.stall_timeout = t;
        self
    }

    /// Publishes the `shard.*` instruments into `registry`.
    pub fn with_registry(mut self, registry: &MetricsRegistry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Enables span recording into `sink`: the ingress stamps each queued
    /// message, workers turn the stamps into `shardNN.queue` wait spans,
    /// and the egress merge records release spans plus watermark instants
    /// (all on the sink's clock, so a logical-clock sink keeps sharded
    /// traces deterministic in structure).
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(sink.clone());
        self
    }
}

impl Default for ShardOptions {
    /// A single shard with the standard queue and stall settings.
    fn default() -> Self {
        ShardOptions::new(1)
    }
}

impl From<usize> for ShardOptions {
    fn from(shards: usize) -> Self {
        ShardOptions::new(shards)
    }
}

impl impatience_core::Validate for ShardOptions {
    fn validate(&self) -> Result<(), impatience_core::ConfigError> {
        use impatience_core::ConfigError;
        if self.shards == 0 {
            return Err(ConfigError::new("shards", "must be >= 1"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "must be >= 1"));
        }
        if self.stall_timeout.is_zero() {
            return Err(ConfigError::new("stall_timeout", "must be positive"));
        }
        Ok(())
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
    fn new(registry: Option<&MetricsRegistry>) -> Self {
        match registry {
            Some(r) => ShardMetrics {
                ingress_events: r.counter("shard.ingress.events"),
                ingress_punctuations: r.counter("shard.ingress.punctuations"),
                merge_events: r.counter("shard.merge.events"),
                merge_punctuations: r.counter("shard.merge.punctuations"),
                errors: r.counter("shard.errors"),
                workers: r.gauge("shard.workers"),
            },
            None => ShardMetrics {
                ingress_events: Counter::new(),
                ingress_punctuations: Counter::new(),
                merge_events: Counter::new(),
                merge_punctuations: Counter::new(),
                errors: Counter::new(),
                workers: Gauge::new(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Plumbing: queue messages, worker, sink
// ---------------------------------------------------------------------------

/// What travels through the shard queues: the stream protocol plus the
/// error leg (which [`StreamMessage`] does not carry). The `u64` is the
/// enqueue timestamp (trace-clock ns) used for queue-wait spans; `0` means
/// "untraced" and is skipped by the consumer.
enum ShardMsg<P> {
    Msg(StreamMessage<P>, u64),
    Error(StreamError),
}

type ShardBuild<P, Q> = dyn Fn(Streamable<P>, ShardCtx) -> Streamable<Q> + Send + Sync;

/// Terminal sink of each worker's pipeline copy: forwards every message
/// into the shard's output queue (blocking — this is the worker→merge
/// backpressure edge). Errors take the unbounded priority lane so a dying
/// pipeline can always report.
struct QueueSink<Q: Payload> {
    queue: Arc<ShardQueue<ShardMsg<Q>>>,
}

impl<Q: Payload> Observer<Q> for QueueSink<Q> {
    fn on_batch(&mut self, batch: EventBatch<Q>) {
        // Output-queue wait is merge scheduling, not shard work: no stamp.
        self.queue
            .push(ShardMsg::Msg(StreamMessage::Batch(batch), 0));
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.queue
            .push(ShardMsg::Msg(StreamMessage::Punctuation(t), 0));
    }

    fn on_completed(&mut self) {
        self.queue.push(ShardMsg::Msg(StreamMessage::Completed, 0));
    }

    fn on_error(&mut self, err: StreamError) {
        self.queue.push_unbounded(ShardMsg::Error(err));
    }
}

/// Worker thread body: build the shard's pipeline copy *on this thread*,
/// then pump the input queue into it until a terminal message or queue
/// closure. A panic anywhere (pipeline construction or processing) is
/// converted into a typed terminal error on the output queue.
fn shard_worker<P: Payload, Q: Payload>(
    index: usize,
    shards: usize,
    input: Arc<ShardQueue<ShardMsg<P>>>,
    output: Arc<ShardQueue<ShardMsg<Q>>>,
    build: Arc<ShardBuild<P, Q>>,
    trace: Option<TraceSink>,
) {
    let panic_lane = output.clone();
    let result = crate::shell::guarded(move || {
        let (handle, stream) = input_stream::<P>();
        build(stream, ShardCtx { index, shards })
            .subscribe_observer(Box::new(QueueSink { queue: output }));
        // Per-shard recorder: queue-wait spans land in a thread-local ring
        // (no cross-thread contention) and are surrendered to the sink once
        // at drain time. A panicking worker loses its ring — acceptable, the
        // typed error it emits is the signal that matters then.
        let mut recorder = trace.as_ref().map(|sink| (sink.clone(), sink.ring()));
        let queue_label: Arc<str> = format!("shard{index:02}.queue").into();
        loop {
            match input.pop() {
                Some(ShardMsg::Msg(msg, enqueued_ns)) => {
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
                Some(ShardMsg::Error(err)) => {
                    handle.push_error(err);
                    break;
                }
                // Closed without a terminal (the source was dropped):
                // flush the pipeline so buffered state still drains.
                None => {
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
        panic_lane.push_unbounded(ShardMsg::Error(StreamError::OperatorPanicked {
            operator: format!("shard{index:02}"),
            message,
        }));
    }
}

// ---------------------------------------------------------------------------
// Egress merge
// ---------------------------------------------------------------------------

/// Releases every buffered event with `sync_time <= w` across all shard
/// buffers as one batch in `(sync_time, key)` order. Stable sort + shard
/// index iteration order keep per-shard tie order intact; ties *across*
/// shards cannot collide on `(sync_time, key)` because shards partition
/// the key space.
fn release_up_to<Q: Payload>(
    buffers: &mut [Vec<Event<Q>>],
    w: Timestamp,
    downstream: &mut Box<dyn Observer<Q>>,
    metrics: &ShardMetrics,
) -> usize {
    let mut out: Vec<Event<Q>> = Vec::new();
    for buf in buffers.iter_mut() {
        // Shard output is an ordered stream, so the releasable events form
        // a prefix.
        let cut = buf.partition_point(|e| e.sync_time <= w);
        out.extend(buf.drain(..cut));
    }
    if out.is_empty() {
        return 0;
    }
    out.sort_by_key(|e| (e.sync_time, e.key));
    metrics.merge_events.add(out.len() as u64);
    let released = out.len();
    downstream.on_batch(EventBatch::from_events(out));
    released
}

/// Merge thread body — the deterministic lockstep low-watermark merge (see
/// the module docs for the determinism argument). On exit (completion,
/// first error, or stall) it closes every queue so workers and the ingress
/// can never block on a dead pipeline.
fn shard_merge<Q: Payload>(
    outputs: Vec<Arc<ShardQueue<ShardMsg<Q>>>>,
    close_inputs: Vec<Box<dyn Fn() + Send>>,
    mut downstream: Box<dyn Observer<Q>>,
    metrics: ShardMetrics,
    stall_timeout: Duration,
    trace: Option<TraceSink>,
) {
    let n = outputs.len();
    // Merge spans ride lane `n` (one past the shards) so they render on
    // their own track in chrome://tracing.
    let mut recorder = trace.as_ref().map(|sink| (sink.clone(), sink.ring()));
    let record_release = |recorder: &mut Option<(TraceSink, SpanRing)>,
                          start_ns: u64,
                          released: usize,
                          w: Option<i64>| {
        if released == 0 {
            return;
        }
        if let Some((sink, ring)) = recorder.as_mut() {
            let end = sink.clock().now_ns();
            ring.push(SpanRecord {
                op: "merge".into(),
                shard: n as u32,
                kind: SpanKind::Merge,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
                events: released as u64,
                watermark: w,
            });
        }
    };
    let release_start = |recorder: &Option<(TraceSink, SpanRing)>| -> u64 {
        recorder
            .as_ref()
            .map_or(0, |(sink, _)| sink.clock().now_ns())
    };
    let poll = (stall_timeout / 20).clamp(Duration::from_millis(1), Duration::from_millis(25));
    let mut pending: Vec<VecDeque<ShardMsg<Q>>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut buffers: Vec<Vec<Event<Q>>> = (0..n).map(|_| Vec::new()).collect();
    let mut wm = vec![Timestamp::MIN; n];
    let mut done = vec![false; n];
    let mut last_w = Timestamp::MIN;
    // Stall tracking: how long we have been waiting on the *current*
    // lockstep target without it yielding a message.
    let mut waiting_on = usize::MAX;
    let mut waited_since = Instant::now();

    'merge: loop {
        if done.iter().all(|&d| d) {
            // Final flush: everything left is above the last watermark.
            let start = release_start(&recorder);
            let released = release_up_to(&mut buffers, Timestamp::MAX, &mut downstream, &metrics);
            record_release(&mut recorder, start, released, None);
            downstream.on_completed();
            break 'merge;
        }
        // Lockstep rule: only the shard with the minimal watermark may be
        // processed (ties -> lowest index), so progression is a function
        // of message content, never of thread timing.
        let i = (0..n)
            .filter(|&k| !done[k])
            .min_by_key(|&k| (wm[k], k))
            .expect("at least one active shard");
        if i != waiting_on {
            waiting_on = i;
            waited_since = Instant::now();
        }
        if let Some(msg) = pending[i].pop_front() {
            waited_since = Instant::now();
            match msg {
                ShardMsg::Msg(StreamMessage::Batch(batch), _enq) => {
                    for j in 0..batch.len() {
                        if batch.is_visible(j) {
                            buffers[i].push(batch.events()[j].clone());
                        }
                    }
                }
                ShardMsg::Msg(StreamMessage::Punctuation(t), _enq) => {
                    if t < wm[i] {
                        metrics.errors.inc();
                        downstream.on_error(StreamError::PunctuationRegressed {
                            previous: wm[i],
                            attempted: t,
                        });
                        break 'merge;
                    }
                    wm[i] = t;
                }
                ShardMsg::Msg(StreamMessage::Completed, _enq) => {
                    done[i] = true;
                }
                ShardMsg::Error(err) => {
                    // First error wins; the pipeline tears down and later
                    // shard errors are dropped with their queues.
                    metrics.errors.inc();
                    downstream.on_error(err);
                    break 'merge;
                }
            }
            // A watermark may have advanced (punctuation) or left the min
            // computation (completion): release and punctuate on advance.
            if let Some(w) = (0..n).filter(|&k| !done[k]).map(|k| wm[k]).min() {
                if w > last_w {
                    last_w = w;
                    let start = release_start(&recorder);
                    let released = release_up_to(&mut buffers, w, &mut downstream, &metrics);
                    record_release(&mut recorder, start, released, Some(w.ticks()));
                    metrics.merge_punctuations.inc();
                    downstream.on_punctuation(w);
                    if let Some((sink, ring)) = recorder.as_mut() {
                        ring.push(SpanRecord {
                            op: "merge".into(),
                            shard: n as u32,
                            kind: SpanKind::Watermark,
                            start_ns: sink.clock().now_ns(),
                            dur_ns: 0,
                            events: 0,
                            watermark: Some(w.ticks()),
                        });
                    }
                }
            }
            continue;
        }
        // The lockstep target has nothing pending: drain every queue
        // (consuming from non-target shards is buffering, not processing —
        // it cannot affect emission order, but it unblocks their workers
        // and, transitively, the ingress; this is what makes the lockstep
        // rule deadlock-free under bounded queues).
        for (k, queue) in outputs.iter().enumerate() {
            while let Some(m) = queue.try_pop() {
                pending[k].push_back(m);
            }
        }
        if !pending[i].is_empty() {
            continue;
        }
        match outputs[i].pop_timeout(poll) {
            Pop::Msg(m) => pending[i].push_back(m),
            // Outputs are only closed by this merge; treat a foreign close
            // as that worker completing.
            Pop::Closed => done[i] = true,
            Pop::TimedOut => {
                if waited_since.elapsed() >= stall_timeout {
                    metrics.errors.inc();
                    downstream.on_error(StreamError::ShardStalled {
                        shard: i,
                        waited_ms: waited_since.elapsed().as_millis() as u64,
                    });
                    break 'merge;
                }
            }
        }
    }
    // Tear down: unblock every worker (closed output swallows their
    // pushes) and the ingress (closed input swallows its routing).
    for close in &close_inputs {
        close();
    }
    for queue in &outputs {
        queue.close();
    }
    if let Some((sink, ring)) = recorder {
        sink.absorb(ring);
    }
}

// ---------------------------------------------------------------------------
// Ingress router
// ---------------------------------------------------------------------------

/// The observer handed to the upstream source: routes each event to
/// `hash % n`, broadcasts punctuations/terminals to every shard, and joins
/// the whole worker/merge fleet when the source terminates (so a finished
/// subscribe call implies fully delivered downstream output).
struct ShardIngress<P: Payload> {
    queues: Vec<Arc<ShardQueue<ShardMsg<P>>>>,
    workers: Vec<JoinHandle<()>>,
    merge: Option<JoinHandle<()>>,
    metrics: ShardMetrics,
    /// Trace clock for enqueue stamps; `None` pushes stamp `0` (untraced).
    clock: Option<TraceClock>,
}

impl<P: Payload> ShardIngress<P> {
    /// One clock read covers every queue push in the same observer call.
    fn stamp(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_ns())
    }

    fn broadcast(&self, msg: &StreamMessage<P>) {
        let stamp = self.stamp();
        for queue in &self.queues {
            // clone() per shard: punctuations and terminals are tiny.
            queue.push(ShardMsg::Msg(msg.clone(), stamp));
        }
    }

    fn join_all(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(m) = self.merge.take() {
            let _ = m.join();
        }
    }
}

impl<P: Payload> Observer<P> for ShardIngress<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let n = self.queues.len();
        let stamp = self.stamp();
        if n == 1 {
            self.metrics.ingress_events.add(batch.visible_len() as u64);
            self.queues[0].push(ShardMsg::Msg(StreamMessage::Batch(batch), stamp));
            return;
        }
        let mut parts: Vec<Vec<Event<P>>> = vec![Vec::new(); n];
        for i in 0..batch.len() {
            if !batch.is_visible(i) {
                continue;
            }
            let e = &batch.events()[i];
            parts[(e.hash % n as u64) as usize].push(e.clone());
        }
        for (k, events) in parts.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            self.metrics.ingress_events.add(events.len() as u64);
            self.queues[k].push(ShardMsg::Msg(StreamMessage::batch(events), stamp));
        }
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.metrics.ingress_punctuations.inc();
        self.broadcast(&StreamMessage::Punctuation(t));
    }

    fn on_completed(&mut self) {
        self.broadcast(&StreamMessage::Completed);
        self.join_all();
    }

    fn on_error(&mut self, err: StreamError) {
        for queue in &self.queues {
            queue.push(ShardMsg::Error(err.clone()));
        }
        self.join_all();
    }
}

impl<P: Payload> Drop for ShardIngress<P> {
    fn drop(&mut self) {
        // Source dropped without a terminal: closing the inputs makes each
        // worker flush (complete) its pipeline, so buffered state still
        // drains downstream; then wait the fleet out.
        for queue in &self.queues {
            queue.close();
        }
        self.join_all();
    }
}

// ---------------------------------------------------------------------------
// Public combinators
// ---------------------------------------------------------------------------

impl<P: Payload> Streamable<P> {
    /// Runs `opts.shards` hash-partitioned copies of the `build` pipeline
    /// on worker threads and re-joins their outputs into one totally
    /// ordered stream (see the [module docs](self) for the determinism and
    /// key-locality contracts). `opts` is a shard count or a full
    /// [`ShardOptions`]. `build` is called once per shard, *on* that
    /// shard's worker thread.
    ///
    /// Options that fail [`Validate`](impatience_core::Validate) (zero
    /// shards, queue capacity or stall timeout) start no thread: the
    /// stream ends with [`StreamError::InvalidConfig`] at subscribe time.
    pub fn sharded<Q: Payload>(
        self,
        opts: impl Into<ShardOptions>,
        build: impl Fn(Streamable<P>, ShardCtx) -> Streamable<Q> + Send + Sync + 'static,
    ) -> Streamable<Q> {
        let opts = opts.into();
        Streamable::from_connector(move |mut downstream: Box<dyn Observer<Q>>| {
            if let Err(e) = impatience_core::Validate::validate(&opts) {
                return downstream.on_error(e.into());
            }
            let n = opts.shards;
            let metrics = ShardMetrics::new(opts.registry.as_ref());
            metrics.workers.set(n as i64);
            let inputs: Vec<Arc<ShardQueue<ShardMsg<P>>>> = (0..n)
                .map(|_| Arc::new(ShardQueue::bounded(opts.queue_capacity)))
                .collect();
            let outputs: Vec<Arc<ShardQueue<ShardMsg<Q>>>> = (0..n)
                .map(|_| Arc::new(ShardQueue::bounded(opts.queue_capacity)))
                .collect();
            let build: Arc<ShardBuild<P, Q>> = Arc::new(build);
            let workers: Vec<JoinHandle<()>> = (0..n)
                .map(|i| {
                    let input = inputs[i].clone();
                    let output = outputs[i].clone();
                    let build = build.clone();
                    let trace = opts.trace.clone();
                    std::thread::Builder::new()
                        .name(format!("shard{i:02}"))
                        .spawn(move || shard_worker(i, n, input, output, build, trace))
                        .expect("spawn shard worker")
                })
                .collect();
            let close_inputs: Vec<Box<dyn Fn() + Send>> = inputs
                .iter()
                .map(|q| {
                    let q = q.clone();
                    Box::new(move || q.close()) as Box<dyn Fn() + Send>
                })
                .collect();
            let merge = {
                let outputs = outputs.clone();
                let metrics = metrics.clone();
                let stall = opts.stall_timeout;
                let trace = opts.trace.clone();
                std::thread::Builder::new()
                    .name("shard-merge".into())
                    .spawn(move || {
                        shard_merge(outputs, close_inputs, downstream, metrics, stall, trace)
                    })
                    .expect("spawn shard merge")
            };
            self.subscribe_observer(Box::new(ShardIngress {
                queues: inputs,
                workers,
                merge: Some(merge),
                metrics,
                clock: opts.trace.as_ref().map(|t| t.clock().clone()),
            }));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::validate_ordered_stream;

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
        let opts = ShardOptions::new(4).with_stall_timeout(Duration::from_secs(5));
        let out = source(events, &[31])
            .sharded(opts, |s, ctx| {
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
                lock(&record).push((ctx.index, ctx.shards));
                s
            })
            .collect_output();
        assert!(out.is_completed());
        let mut got = lock(&seen).clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn traced_sharded_records_queue_merge_and_watermark_spans() {
        use impatience_core::trace::{TraceClock, TraceConfig};
        let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
        let events: Vec<Event<u32>> = (0..40).map(|i| ev(i, (i % 8) as u32, i as u32)).collect();
        let opts = ShardOptions::new(4).with_trace(&sink);
        let traced = source(events.clone(), &[10, 25, 39])
            .sharded(opts, |s, _| s)
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

    #[test]
    fn queue_backpressure_and_close() {
        let q: ShardQueue<u32> = ShardQueue::bounded(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(matches!(q.try_push(3), Err(TryPush::Full(3))));
        assert_eq!(q.try_pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        q.close();
        assert!(matches!(q.try_push(4), Err(TryPush::Closed(4))));
        // Residue drains after close, then Closed.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    }
}
