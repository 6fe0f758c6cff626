//! The `Streamable` abstraction: Trill's immutable stream handle (§IV-B).
//!
//! A [`Streamable`] is a lazy description of an **ordered** stream: a
//! continuation that, given a terminal observer, builds the operator chain
//! and connects it to the source. Chaining operators composes
//! continuations; nothing runs until a subscription method is called.
//!
//! Sources come in two flavours:
//!
//! * static ([`Streamable::from_messages`] / `from_ordered_events`) — the
//!   whole stream is known; it is driven synchronously at subscribe time;
//! * live ([`input_stream`]) — subscription wires the chain to an
//!   [`InputHandle`] that the caller pushes into afterwards, which is how
//!   the benchmarks and the Impatience framework pump data.

use crate::checkpoint::{CheckpointCtx, CheckpointGate, Checkpointable, Checkpointer};
use crate::observer::{FnSink, Observer, Output, SharedSink};
use crate::ops;
use crate::shell::{OperatorMetrics, StagePlan};
use crate::traced::{TraceCtx, TraceState};
use impatience_core::metrics::Counter;
use impatience_core::{
    Event, EventBatch, LatePolicy, MemoryMeter, MetricsRegistry, Payload, SnapshotError,
    StreamError, StreamMessage, TickDuration, Timestamp,
};
use impatience_sort::{OnlineSorter, SorterGauges};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Connectors are `Send` so a whole pipeline description can move onto a
/// sharded worker thread and be built there (`crate::sharded`).
type Connector<P> = Box<dyn FnOnce(Box<dyn Observer<P>>) + Send>;

/// Input/shared-cell locks are never held across a poisoning panic that we
/// don't already convert to a typed error — recover rather than cascade.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Instrumentation context carried along a streamable chain: every stage
/// appended after [`Streamable::instrument`] registers its operator metrics
/// under `{prefix}.{stage:02}.{name}` and is metered by its shell.
struct Instrument {
    registry: MetricsRegistry,
    prefix: String,
    stage: usize,
}

/// What a chain carries from stage to stage: the settings every stage
/// appended later is wrapped by (see [`crate::shell`]).
struct ChainCtx {
    instr: Option<Instrument>,
    hardened: bool,
    /// Operator panics caught across the chain. Registered as
    /// `{prefix}.operator_panics` by [`Streamable::instrument`]; otherwise
    /// a private counter.
    panics: Counter,
    /// Checkpoint context: when present, stateful stages chained after
    /// [`Streamable::checkpointed`] (or [`Streamable::with_checkpoint`])
    /// register themselves for state capture at connect time.
    ckpt: Option<CheckpointCtx>,
    /// Tracing context: when present, stages chained after
    /// [`Streamable::traced`] record spans into the context's sink (see
    /// [`crate::traced`]).
    trace: Option<TraceState>,
}

/// A stage's number in its chain's labels (`{prefix}.{stage:02}.{name}`),
/// on the metrics side and on the trace side. Claimed in the order stages
/// are *described*, which need not be the order they run in: the spec
/// builder describes the sort first and may place per-event operators
/// ahead of it, and a label names the described position.
#[derive(Clone, Copy)]
struct StageSlot {
    instr: usize,
    trace: usize,
}

impl ChainCtx {
    /// Takes the next stage number on both sides and advances the counters.
    fn claim_stage(&mut self) -> StageSlot {
        let instr = self.instr.as_mut().map_or(0, |ins| {
            ins.stage += 1;
            ins.stage - 1
        });
        let trace = self.trace.as_mut().map_or(0, |t| t.claim_stage());
        StageSlot { instr, trace }
    }

    /// Plans the shell of the stage that claimed `slot`. Also returns the
    /// name its fence reports: the metrics label on an instrumented chain,
    /// the bare operator name otherwise.
    fn plan_stage(&self, slot: StageSlot, name: &str) -> (StagePlan, String) {
        let (metrics, label) = match &self.instr {
            Some(ins) => {
                let label = format!("{}.{:02}.{name}", ins.prefix, slot.instr);
                (
                    Some(OperatorMetrics::register(&ins.registry, &label)),
                    label,
                )
            }
            None => (None, name.to_string()),
        };
        let plan = StagePlan {
            metrics,
            trace: self.trace.as_ref().map(|t| t.stage(slot.trace, name)),
            panics: self.hardened.then(|| self.panics.clone()),
        };
        (plan, label)
    }

    /// Claims and plans the next stage.
    fn next_stage(&mut self, name: &str) -> (StagePlan, String) {
        let slot = self.claim_stage();
        self.plan_stage(slot, name)
    }
}

/// Shares a stateful operator with the chain's checkpoint context, when it
/// has one, so the gate can encode and restore it.
fn enrol<P: Payload, O>(ckpt: Option<CheckpointCtx>, op: O) -> Box<dyn Observer<P>>
where
    O: Observer<P> + Checkpointable + 'static,
{
    match ckpt {
        Some(ctx) => {
            let shared = Arc::new(Mutex::new(op));
            ctx.register(shared.clone());
            Box::new(SharedSink(shared))
        }
        None => Box::new(op),
    }
}

/// A lazily constructed ordered stream of events with payload `P`.
pub struct Streamable<P: Payload> {
    connect: Connector<P>,
    ctx: ChainCtx,
}

impl<P: Payload> Streamable<P> {
    /// Builds a streamable from a raw connector.
    pub fn from_connector(connect: impl FnOnce(Box<dyn Observer<P>>) + Send + 'static) -> Self {
        Streamable {
            connect: Box::new(connect),
            ctx: ChainCtx {
                instr: None,
                hardened: false,
                panics: Counter::new(),
                ckpt: None,
                trace: None,
            },
        }
    }

    /// Enables per-operator instrumentation: every stage chained after this
    /// call is metered by its [`StageShell`](crate::StageShell), whose
    /// instruments register in `registry` under
    /// `{prefix}.{stage:02}.{operator}` names (see [`OperatorMetrics`] for
    /// the per-operator instrument set). Instrumentation never alters the
    /// stream: an instrumented pipeline produces exactly the output of an
    /// uninstrumented one.
    ///
    /// A `{prefix}.operator_panics` counter is registered eagerly (at
    /// zero), so every instrumented snapshot carries it whether or not the
    /// chain is also [`hardened`](Streamable::hardened).
    pub fn instrument(mut self, registry: &MetricsRegistry, prefix: &str) -> Self {
        self.ctx.panics = registry.counter(&format!("{prefix}.operator_panics"));
        self.ctx.instr = Some(Instrument {
            registry: registry.clone(),
            prefix: prefix.to_string(),
            stage: 0,
        });
        self
    }

    /// Enables structured tracing: every stage chained after this call
    /// records spans — labelled `{prefix}.{stage:02}.{name}` — into the
    /// context's [`TraceSink`](impatience_core::TraceSink) (see
    /// [`crate::traced`] for the span and provenance model). Like
    /// instrumentation, tracing never alters the stream.
    pub fn traced(mut self, ctx: TraceCtx) -> Self {
        self.ctx.trace = Some(TraceState::new(ctx));
        self
    }

    /// Enables panic isolation: every stage chained after this call is
    /// fenced by its [`StageShell`](crate::StageShell). An operator panic
    /// no longer aborts the process — the fence catches it, **poisons**
    /// the chain (all further traffic is swallowed), counts it (see
    /// [`Streamable::instrument`]'s `operator_panics` counter), and
    /// delivers a terminal [`StreamError::OperatorPanicked`] to the
    /// pipeline's sink via [`Observer::on_error`].
    ///
    /// Hardening never alters the stream of a panic-free run: a hardened
    /// pipeline produces exactly the output of a bare one.
    pub fn hardened(mut self) -> Self {
        self.ctx.hardened = true;
        self
    }

    /// A static source that replays `msgs` at subscribe time. The messages
    /// must satisfy the ordered-stream contract (debug-asserted).
    pub fn from_messages(msgs: Vec<StreamMessage<P>>) -> Self {
        debug_assert!(
            impatience_core::validate_ordered_stream(&msgs).is_ok(),
            "from_messages requires an ordered stream"
        );
        Streamable::from_connector(move |mut sink| {
            let mut completed = false;
            for m in msgs {
                if matches!(m, StreamMessage::Completed) {
                    completed = true;
                }
                sink.on_message(m);
            }
            if !completed {
                sink.on_completed();
            }
        })
    }

    /// A static source over already-ordered events (one batch, completed).
    pub fn from_ordered_events(events: Vec<Event<P>>) -> Self {
        Streamable::from_messages(vec![
            StreamMessage::Batch(EventBatch::from_events(events)),
            StreamMessage::Completed,
        ])
    }

    /// Applies an operator-builder stage.
    pub fn apply<Q: Payload>(
        self,
        build: impl FnOnce(Box<dyn Observer<Q>>) -> Box<dyn Observer<P>> + Send + 'static,
    ) -> Streamable<Q> {
        self.apply_named("op", build)
    }

    /// Applies an operator-builder stage under an operator name. On an
    /// instrumented, traced or hardened chain the operator is wrapped in
    /// one [`StageShell`](crate::StageShell) doing all that was asked for
    /// (and writes into the shell's metering outlet); otherwise it
    /// connects bare.
    pub(crate) fn apply_named<Q: Payload>(
        mut self,
        name: &str,
        build: impl FnOnce(Box<dyn Observer<Q>>) -> Box<dyn Observer<P>> + Send + 'static,
    ) -> Streamable<Q> {
        let slot = self.ctx.claim_stage();
        self.apply_at(slot, name, build)
    }

    /// [`apply_named`](Self::apply_named) under a stage number claimed
    /// earlier.
    fn apply_at<Q: Payload>(
        self,
        slot: StageSlot,
        name: &str,
        build: impl FnOnce(Box<dyn Observer<Q>>) -> Box<dyn Observer<P>> + Send + 'static,
    ) -> Streamable<Q> {
        let upstream = self.connect;
        let (plan, label) = self.ctx.plan_stage(slot, name);
        let connect = move |sink: Box<dyn Observer<Q>>| {
            let outlet = plan.outlet(sink);
            if plan.panics.is_none() {
                // No fence: the error port is never called.
                return upstream(plan.shell(&label, build(outlet), drop));
            }
            // The operator writes into a shared view of its outlet; the
            // fence writes the terminal error into the same cell if the
            // operator dies mid-handler.
            let shared = Arc::new(Mutex::new(outlet));
            let mut port = SharedSink(shared.clone());
            let op = build(Box::new(SharedSink(shared)));
            upstream(plan.shell(&label, op, move |err| port.on_error(err)));
        };
        Streamable {
            connect: Box::new(connect),
            ctx: self.ctx,
        }
    }

    /// [`apply_named`](Self::apply_named) for operators whose state can be
    /// checkpointed: when the chain carries a [`CheckpointCtx`], the built
    /// operator is registered as a checkpoint participant (shared behind an
    /// `Arc<Mutex<_>>` so the gate can encode/restore it). Without a
    /// context this is exactly `apply_named` — zero overhead.
    fn apply_stateful<Q: Payload, O>(
        self,
        name: &str,
        build: impl FnOnce(Box<dyn Observer<Q>>) -> O + Send + 'static,
    ) -> Streamable<Q>
    where
        O: Observer<P> + Checkpointable + 'static,
    {
        let ckpt = self.ctx.ckpt.clone();
        self.apply_named(name, move |sink| enrol(ckpt, build(sink)))
    }

    /// Makes the pipeline durable: attaches a fresh [`CheckpointCtx`] (so
    /// every stateful stage chained afterwards registers for state
    /// capture) and inserts a [`CheckpointGate`] at this point — call it
    /// directly on the source, before any operators.
    ///
    /// The gate counts every ingested message, writes a checkpoint into
    /// `dir` after every `every_n_punctuations` punctuations (and at
    /// completion), and at subscribe time restores the newest valid
    /// checkpoint found in `dir`, falling back one generation on
    /// corruption. Query the returned context for
    /// [`recovery`](CheckpointCtx::recovery) after subscribing to learn
    /// the WAL replay offset and committed output prefix.
    pub fn checkpointed(
        mut self,
        dir: impl Into<PathBuf>,
        every_n_punctuations: u32,
    ) -> Result<(Streamable<P>, CheckpointCtx), SnapshotError> {
        let checkpointer = Checkpointer::open(dir)?;
        let ctx = CheckpointCtx::new();
        self.ctx.ckpt = Some(ctx.clone());
        let gate_ctx = ctx.clone();
        let stream = self.apply_named("checkpoint", move |sink| {
            Box::new(CheckpointGate::new(
                gate_ctx,
                checkpointer,
                every_n_punctuations,
                sink,
            ))
        });
        Ok((stream, ctx))
    }

    /// Attaches an existing checkpoint context without inserting a gate —
    /// the framework crate uses this to enrol partition pipelines with the
    /// ladder's shared context.
    pub fn with_checkpoint(mut self, ctx: &CheckpointCtx) -> Self {
        self.ctx.ckpt = Some(ctx.clone());
        self
    }

    /// Marks this point as the pipeline's visible output: every event
    /// passing through bumps the checkpoint context's egress counter,
    /// which checkpoints persist as the committed output prefix for
    /// exactly-once consumers. A no-op on chains without a context.
    pub fn checkpoint_egress(self) -> Streamable<P> {
        match &self.ctx.ckpt {
            Some(ctx) => {
                let counter = ctx.egress_counter();
                self.apply_named("egress", move |sink| {
                    Box::new(EgressCounter {
                        counter,
                        next: sink,
                    })
                })
            }
            None => self,
        }
    }

    /// Selection: keeps events matching `pred` (bitmap-marking, §VI-C).
    pub fn where_(self, pred: impl FnMut(&Event<P>) -> bool + Send + 'static) -> Streamable<P> {
        self.apply_named("where", move |sink| {
            Box::new(ops::FilterOp::new(pred, sink))
        })
    }

    /// Projection: maps payloads, preserving event metadata.
    pub fn select<Q: Payload>(self, f: impl FnMut(&P) -> Q + Send + 'static) -> Streamable<Q> {
        self.apply_named("select", move |sink| Box::new(ops::SelectOp::new(f, sink)))
    }

    /// Re-keys events (grouping key + hash).
    pub fn re_key(self, f: impl FnMut(&Event<P>) -> u32 + Send + 'static) -> Streamable<P> {
        self.apply_named("re_key", move |sink| Box::new(ops::ReKeyOp::new(f, sink)))
    }

    /// Tumbling window of `size`: aligns event lifetimes to fixed windows.
    pub fn tumbling_window(self, size: TickDuration) -> Streamable<P> {
        self.apply_named("tumbling_window", move |sink| {
            Box::new(ops::TumblingWindowOp::new(size, sink))
        })
    }

    /// Hopping window of `size` advancing every `hop`.
    pub fn hopping_window(self, size: TickDuration, hop: TickDuration) -> Streamable<P> {
        self.apply_stateful("hopping_window", move |sink| {
            ops::HoppingWindowOp::new(size, hop, sink)
        })
    }

    /// Windowed aggregate over the whole stream (one result per window).
    pub fn aggregate<A: ops::Aggregate<P>>(self, agg: A) -> Streamable<A::Out> {
        self.apply_stateful("aggregate", move |sink| {
            ops::WindowAggregateOp::new(agg, sink)
        })
    }

    /// Windowed aggregate per grouping key.
    pub fn group_aggregate<A: ops::Aggregate<P>>(self, agg: A) -> Streamable<A::Out> {
        self.apply_stateful("group_aggregate", move |sink| {
            ops::GroupedAggregateOp::new(agg, sink)
        })
    }

    /// `COUNT(*)` per window — the paper's `.Count()`.
    pub fn count(self) -> Streamable<u64> {
        self.apply_stateful("count", move |sink| {
            ops::WindowAggregateOp::new(ops::CountAgg, sink)
        })
    }

    /// Combines same-(window, key) events with `combine`.
    pub fn reduce_by_key(self, combine: impl FnMut(&mut P, P) + Send + 'static) -> Streamable<P> {
        self.apply_stateful("reduce_by_key", move |sink| {
            ops::ReduceByKeyOp::new(combine, sink)
        })
    }

    /// Keeps the `k` highest-scored events per window.
    pub fn top_k(self, k: usize, score: impl FnMut(&P) -> i64 + Send + 'static) -> Streamable<P> {
        self.apply_stateful("top_k", move |sink| ops::TopKOp::new(k, score, sink))
    }

    /// Emits `second`-matching events preceded by a `first`-matching event
    /// on the same key within `window`.
    pub fn followed_by(
        self,
        first: impl FnMut(&P) -> bool + Send + 'static,
        second: impl FnMut(&P) -> bool + Send + 'static,
        window: TickDuration,
    ) -> Streamable<P> {
        self.apply_stateful("followed_by", move |sink| {
            ops::FollowedByOp::new(first, second, window, sink)
        })
    }

    /// Temporal equi-join with `other`: matches events with equal keys and
    /// overlapping validity intervals, combining payloads with `combine`.
    /// Relation state is charged to `meter`. An order-sensitive operator
    /// (§IV-A): both inputs must be ordered streams.
    pub fn join<R: Payload, Out: Payload>(
        mut self,
        other: Streamable<R>,
        combine: impl FnMut(&P, &R) -> Out + Send + 'static,
        meter: &MemoryMeter,
    ) -> Streamable<Out> {
        let meter = meter.clone();
        let ckpt = self.ctx.ckpt.clone();
        // Binary operator: one plan shared by both inputs (the in-side
        // counters sum over the two legs, each leg records spans under the
        // same label into its own ring) plus one outlet.
        let (plan, _) = self.ctx.next_stage("join");
        let left_connect = self.connect;
        let right_connect = other.connect;
        let connect = move |sink: Box<dyn Observer<Out>>| {
            let (l, r) = ops::temporal_join(combine, plan.outlet(sink), meter);
            if let Some(ctx) = &ckpt {
                // One input handle snapshots the whole shared join core.
                ctx.register(Arc::new(Mutex::new(l.clone())));
            }
            // A leg's error port is a second handle onto the shared join
            // core: a caught panic fails the core, which forwards one
            // typed error to the sink and stops all further output.
            let (mut l_port, mut r_port) = (l.clone(), r.clone());
            left_connect(
                plan.clone()
                    .shell("join.left", Box::new(l), move |err| l_port.on_error(err)),
            );
            right_connect(plan.shell("join.right", Box::new(r), move |err| r_port.on_error(err)));
        };
        Streamable {
            connect: Box::new(connect),
            ctx: self.ctx,
        }
    }

    /// Merges this stream with `other` into one ordered stream; events
    /// buffered for synchronization are charged to `meter` (§V-A).
    pub fn union(mut self, other: Streamable<P>, meter: &MemoryMeter) -> Streamable<P> {
        let meter = meter.clone();
        let ckpt = self.ctx.ckpt.clone();
        let (plan, _) = self.ctx.next_stage("union");
        let left_connect = self.connect;
        let right_connect = other.connect;
        let connect = move |sink: Box<dyn Observer<P>>| {
            let (l, r, probe) = ops::union(plan.outlet(sink), meter);
            if let Some(ctx) = &ckpt {
                // The probe views the shared union core: both sides'
                // synchronization buffers snapshot through it.
                ctx.register(Arc::new(Mutex::new(probe)));
            }
            let (mut l_port, mut r_port) = (l.clone(), r.clone());
            left_connect(
                plan.clone()
                    .shell("union.left", Box::new(l), move |err| l_port.on_error(err)),
            );
            right_connect(plan.shell("union.right", Box::new(r), move |err| r_port.on_error(err)));
        };
        Streamable {
            connect: Box::new(connect),
            ctx: self.ctx,
        }
    }

    /// Terminal: connects an arbitrary observer.
    pub fn subscribe_observer(self, sink: Box<dyn Observer<P>>) {
        (self.connect)(sink);
    }

    /// Terminal: invokes `f` per visible event (the paper's
    /// `Subscribe(e => ...)`).
    pub fn subscribe(self, f: impl FnMut(&Event<P>) + Send + 'static) {
        self.subscribe_observer(Box::new(FnSink::new(f)));
    }

    /// Terminal: collects all traffic into an [`Output`] handle.
    pub fn collect_output(self) -> Output<P> {
        let (out, sink) = Output::new();
        self.subscribe_observer(Box::new(sink));
        out
    }

    /// Terminal convenience for static pipelines: run and return events.
    pub fn into_events(self) -> Vec<Event<P>> {
        self.collect_output().events()
    }

    /// Terminal convenience: run and return payloads of visible events.
    pub fn into_payloads(self) -> Vec<P> {
        self.into_events().into_iter().map(|e| e.payload).collect()
    }
}

/// A disordered stream handle that must pass through a sorting operator
/// before order-sensitive operators apply — constructed by the framework
/// crate's `DisorderedStreamable`; here it is the raw `sort` stage.
impl<P: Payload> Streamable<P> {
    /// Sorting stage over a *disordered* upstream: buffers in `sorter`,
    /// flushing on punctuations; the result is an ordered stream. Buffered
    /// state is charged to `meter`. `policy` is the failure model: what
    /// to do with late events ([`LatePolicy`]; the default drops and
    /// counts them), and what to shed when `meter` carries an enforced
    /// budget and the sorter exceeds it
    /// ([`ShedPolicy`](impatience_core::ShedPolicy)).
    ///
    /// Returns [`StreamError::InvalidConfig`] for
    /// [`LatePolicy::RerouteNextPartition`]: reroute requires the
    /// partitioned Impatience framework (`impatience-framework`), which
    /// routes late events *before* they reach a sorter; a standalone
    /// sorting stage has no next partition to hand them to.
    ///
    /// On an instrumented chain the stage additionally publishes
    /// [`SorterGauges`] (run count, buffered events, state-byte high-water
    /// mark, speculation counters) under `{prefix}.{stage:02}.sorter.*`
    /// and [`SortFaultCounters`](ops::SortFaultCounters) under
    /// `{prefix}.{stage:02}.sort.*`.
    pub fn sorted(
        mut self,
        sorter: Box<dyn OnlineSorter<Event<P>>>,
        meter: &MemoryMeter,
        policy: ops::SortPolicy<P>,
    ) -> Result<Streamable<P>, StreamError> {
        let stage = self.claim_sort(sorter, meter, policy)?;
        Ok(self.place_sort(stage))
    }

    /// The first half of [`sorted`](Self::sorted): checks `policy`, takes
    /// the sorting stage's number and registers its gauges and fault
    /// counters under it. Stages applied between this call and
    /// [`place_sort`](Self::place_sort) run *below* the sort (§IV) yet are
    /// numbered after it.
    pub(crate) fn claim_sort(
        &mut self,
        sorter: Box<dyn OnlineSorter<Event<P>>>,
        meter: &MemoryMeter,
        policy: ops::SortPolicy<P>,
    ) -> Result<SortStage<P>, StreamError> {
        if policy.late == LatePolicy::RerouteNextPartition {
            return Err(StreamError::InvalidConfig(
                "LatePolicy::RerouteNextPartition requires the partitioned framework; \
                 a standalone sorting stage has no next partition"
                    .into(),
            ));
        }
        let slot = self.ctx.claim_stage();
        let (gauges, faults) = match self.ctx.instr.as_ref() {
            Some(ins) => {
                let base = format!("{}.{:02}", ins.prefix, slot.instr);
                (
                    Some(SorterGauges::register(
                        &ins.registry,
                        &format!("{base}.sorter"),
                    )),
                    ops::SortFaultCounters::register(&ins.registry, &format!("{base}.sort")),
                )
            }
            None => (None, ops::SortFaultCounters::new()),
        };
        Ok(SortStage {
            slot,
            sorter,
            meter: meter.clone(),
            policy,
            gauges,
            faults,
        })
    }

    /// Decides lateness *here*, on original event times, for a sort placed
    /// further down: a [`LateGateOp`](ops::LateGateOp) under `stage`'s
    /// policy and counters. It is the front half of that stage, so it
    /// takes no stage number and no shell of its own; it owns a watermark,
    /// so it is a checkpoint participant.
    pub(crate) fn late_gate(self, stage: &SortStage<P>) -> Streamable<P> {
        let gate = ops::LateGate::new(&stage.policy, stage.faults.clone());
        let ckpt = self.ctx.ckpt.clone();
        let upstream = self.connect;
        Streamable {
            connect: Box::new(move |sink| upstream(enrol(ckpt, ops::LateGateOp::new(gate, sink)))),
            ctx: self.ctx,
        }
    }

    /// The second half of [`sorted`](Self::sorted): the sorting operator
    /// at this point of the chain, under the number `stage` claimed.
    pub(crate) fn place_sort(self, stage: SortStage<P>) -> Streamable<P> {
        let ckpt = self.ctx.ckpt.clone();
        self.apply_at(stage.slot, "sort", move |sink| {
            let op = ops::SortOp::with_policy(stage.sorter, stage.meter, stage.policy, sink)
                .with_fault_counters(stage.faults);
            enrol(
                ckpt,
                match stage.gauges {
                    Some(g) => op.with_gauges(g),
                    None => op,
                },
            )
        })
    }
}

/// A sorting stage between [`Streamable::claim_sort`] and
/// [`Streamable::place_sort`].
pub(crate) struct SortStage<P: Payload> {
    slot: StageSlot,
    sorter: Box<dyn OnlineSorter<Event<P>>>,
    meter: MemoryMeter,
    policy: ops::SortPolicy<P>,
    gauges: Option<SorterGauges>,
    faults: ops::SortFaultCounters,
}

/// Counts visible output events into the checkpoint context's egress
/// counter (see [`Streamable::checkpoint_egress`]).
struct EgressCounter<P: Payload> {
    counter: Counter,
    next: Box<dyn Observer<P>>,
}

impl<P: Payload> Observer<P> for EgressCounter<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        self.counter.add(batch.visible_len() as u64);
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

struct InputState<P: Payload> {
    sink: Option<Box<dyn Observer<P>>>,
    /// Messages pushed before the chain was subscribed.
    pending: Vec<StreamMessage<P>>,
    /// A terminal error pushed before the chain was subscribed (replayed
    /// after the pending messages).
    pending_error: Option<StreamError>,
    completed: bool,
}

/// The push endpoint of a live input stream.
pub struct InputHandle<P: Payload> {
    state: Arc<Mutex<InputState<P>>>,
}

impl<P: Payload> Clone for InputHandle<P> {
    fn clone(&self) -> Self {
        InputHandle {
            state: self.state.clone(),
        }
    }
}

impl<P: Payload> InputHandle<P> {
    fn deliver(&self, msg: StreamMessage<P>) {
        self.try_deliver(msg).expect("push after completion");
    }

    fn try_deliver(&self, msg: StreamMessage<P>) -> Result<(), StreamError> {
        let mut st = lock(&self.state);
        if st.completed {
            return Err(StreamError::PushAfterCompleted);
        }
        if matches!(msg, StreamMessage::Completed) {
            st.completed = true;
        }
        match &mut st.sink {
            Some(sink) => sink.on_message(msg),
            None => st.pending.push(msg),
        }
        Ok(())
    }

    /// Pushes a batch of events.
    pub fn push_batch(&self, batch: EventBatch<P>) {
        self.deliver(StreamMessage::Batch(batch));
    }

    /// Pushes loose events as one batch.
    pub fn push_events(&self, events: Vec<Event<P>>) {
        self.deliver(StreamMessage::batch(events));
    }

    /// Pushes a punctuation.
    pub fn push_punctuation(&self, t: Timestamp) {
        self.deliver(StreamMessage::Punctuation(t));
    }

    /// The canonical fallible push: delivers any message, returning
    /// [`StreamError::PushAfterCompleted`] if the stream is already
    /// complete.
    pub fn push(&self, msg: StreamMessage<P>) -> Result<(), StreamError> {
        self.try_deliver(msg)
    }

    /// Completes the stream.
    pub fn complete(&self) {
        self.deliver(StreamMessage::Completed);
    }

    /// Delivers a terminal error into the chain. The stream is considered
    /// complete afterwards; errors pushed after completion (or a second
    /// error) are ignored.
    pub fn push_error(&self, err: StreamError) {
        let mut st = lock(&self.state);
        if st.completed {
            return;
        }
        st.completed = true;
        match &mut st.sink {
            Some(sink) => sink.on_error(err),
            None => st.pending_error = Some(err),
        }
    }
}

///// Creates a live input: push into the [`InputHandle`], consume via the
/// [`Streamable`]. Messages pushed before subscription are buffered and
/// replayed at subscribe time.
pub fn input_stream<P: Payload>() -> (InputHandle<P>, Streamable<P>) {
    let state = Arc::new(Mutex::new(InputState {
        sink: None,
        pending: Vec::new(),
        pending_error: None,
        completed: false,
    }));
    let handle = InputHandle {
        state: state.clone(),
    };
    let streamable = Streamable::from_connector(move |mut sink| {
        let mut st = lock(&state);
        assert!(st.sink.is_none(), "input stream already subscribed");
        for m in st.pending.drain(..) {
            sink.on_message(m);
        }
        if let Some(err) = st.pending_error.take() {
            sink.on_error(err);
        }
        st.sink = Some(sink);
    });
    (handle, streamable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evs(ts: &[i64]) -> Vec<Event<u32>> {
        ts.iter()
            .map(|&t| Event::point(Timestamp::new(t), t as u32))
            .collect()
    }

    #[test]
    fn static_pipeline_end_to_end() {
        // where → select → window → count over an ordered source.
        let result = Streamable::from_ordered_events(evs(&[1, 2, 3, 11, 12, 25]))
            .where_(|e| e.payload != 2)
            .select(|p| *p as u64)
            .tumbling_window(TickDuration::ticks(10))
            .count()
            .into_payloads();
        // Windows [0,10): {1,3}, [10,20): {11,12}, [20,30): {25}.
        assert_eq!(result, vec![2, 2, 1]);
    }

    #[test]
    fn live_input_pipeline() {
        let (handle, stream) = input_stream::<u32>();
        let out = stream
            .tumbling_window(TickDuration::ticks(10))
            .count()
            .collect_output();
        handle.push_events(evs(&[1, 5]));
        handle.push_punctuation(Timestamp::new(5));
        assert_eq!(out.event_count(), 0, "window 0 still open (punct < 10)");
        handle.push_events(evs(&[12]));
        handle.push_punctuation(Timestamp::new(12));
        assert_eq!(out.event_count(), 1, "window 0 closed");
        handle.complete();
        let counts: Vec<u64> = out.events().iter().map(|e| e.payload).collect();
        assert_eq!(counts, vec![2, 1]);
        assert!(out.is_completed());
    }

    #[test]
    fn push_before_subscribe_is_replayed() {
        let (handle, stream) = input_stream::<u32>();
        handle.push_events(evs(&[7]));
        handle.complete();
        let out = stream.collect_output();
        assert_eq!(out.event_count(), 1);
        assert!(out.is_completed());
    }

    #[test]
    fn union_of_static_sources() {
        let meter = MemoryMeter::new();
        let a = Streamable::from_ordered_events(evs(&[1, 4, 9]));
        let b = Streamable::from_ordered_events(evs(&[2, 3, 10]));
        let merged = a.union(b, &meter).into_events();
        let ts: Vec<i64> = merged.iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![1, 2, 3, 4, 9, 10]);
        assert_eq!(meter.current(), 0);
        assert!(meter.peak() > 0, "left side was buffered");
    }

    #[test]
    fn sorted_turns_disorder_into_order() {
        let meter = MemoryMeter::new();
        // Bypass the ordered-stream debug check by pushing via a live input.
        let (handle, stream) = input_stream::<u32>();
        let out = stream
            .sorted(
                Box::new(impatience_sort::ImpatienceSorter::new()),
                &meter,
                Default::default(),
            )
            .expect("default sort policy")
            .collect_output();
        handle.push_events(evs(&[2, 6, 5, 1]));
        handle.push_punctuation(Timestamp::new(2));
        handle.push_events(evs(&[4, 3, 7]));
        handle.push_punctuation(Timestamp::new(4));
        handle.push_events(evs(&[8]));
        handle.complete();
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(impatience_core::validate_ordered_stream(&out.messages()).is_ok());
    }

    #[test]
    fn subscribe_callback() {
        let seen = Arc::new(Mutex::new(0u32));
        let seen2 = seen.clone();
        Streamable::from_ordered_events(evs(&[1, 2, 3]))
            .subscribe(move |e| *seen2.lock().unwrap() += e.payload);
        assert_eq!(*seen.lock().unwrap(), 1 + 2 + 3);
    }

    #[test]
    #[should_panic(expected = "push after completion")]
    fn push_after_complete_panics() {
        let (handle, stream) = input_stream::<u32>();
        let _out = stream.collect_output();
        handle.complete();
        handle.push_events(evs(&[1]));
    }

    #[test]
    fn instrumented_pipeline_output_is_identical() {
        let run = |registry: Option<&MetricsRegistry>| {
            let meter = MemoryMeter::new();
            let (handle, stream) = input_stream::<u32>();
            let stream = match registry {
                Some(r) => stream.instrument(r, "pipeline"),
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
        let registry = MetricsRegistry::new();
        assert_eq!(run(None), run(Some(&registry)), "instrumentation is inert");
        // Stage names follow chain order; in/out traffic is conserved
        // through the identity-count stages.
        assert_eq!(registry.counter("pipeline.00.sort.events_in").get(), 8);
        assert_eq!(
            registry.counter("pipeline.00.sort.punctuations_in").get(),
            2
        );
        assert_eq!(
            registry.counter("pipeline.01.where.events_in").get(),
            registry.counter("pipeline.00.sort.events_out").get()
        );
        assert_eq!(registry.counter("pipeline.01.where.events_out").get(), 7);
        assert_eq!(
            registry.counter("pipeline.03.count.events_out").get(),
            3,
            "three closed windows"
        );
        assert!(registry.gauge("pipeline.00.sorter.runs").high_water() > 0);
        assert!(
            registry
                .gauge("pipeline.00.sorter.state_bytes")
                .high_water()
                > 0
        );
        assert!(registry.histogram("pipeline.00.sort.watermark_lag").count() > 0);
    }

    #[test]
    fn instrumented_union_counts_both_legs() {
        let registry = MetricsRegistry::new();
        let meter = MemoryMeter::new();
        let a = Streamable::from_ordered_events(evs(&[1, 4])).instrument(&registry, "u");
        let b = Streamable::from_ordered_events(evs(&[2, 3]));
        let merged = a.union(b, &meter).into_events();
        assert_eq!(merged.len(), 4);
        assert_eq!(registry.counter("u.00.union.events_in").get(), 4);
        assert_eq!(registry.counter("u.00.union.events_out").get(), 4);
    }

    #[test]
    fn hardened_pipeline_is_transparent_when_healthy() {
        let run = |hardened: bool| {
            let stream = Streamable::from_ordered_events(evs(&[1, 2, 3, 11, 12, 25]));
            let stream = if hardened { stream.hardened() } else { stream };
            stream
                .where_(|e| e.payload != 2)
                .tumbling_window(TickDuration::ticks(10))
                .count()
                .collect_output()
                .messages()
        };
        assert_eq!(run(false), run(true), "hardening is inert without faults");
    }

    #[test]
    fn hardened_pipeline_converts_panic_to_typed_error() {
        let registry = MetricsRegistry::new();
        let out = Streamable::from_ordered_events(evs(&[1, 2, 3, 4]))
            .instrument(&registry, "p")
            .hardened()
            .select(|p: &u32| {
                assert!(*p != 3, "poison payload");
                *p
            })
            .collect_output();
        match out.error() {
            Some(StreamError::OperatorPanicked { operator, message }) => {
                assert_eq!(operator, "p.00.select");
                assert!(message.contains("poison payload"), "{message}");
            }
            other => panic!("expected OperatorPanicked, got {other:?}"),
        }
        assert!(!out.is_completed(), "no completion after a panic");
        assert_eq!(registry.counter("p.operator_panics").get(), 1);
    }

    #[test]
    fn instrument_registers_panic_counter_even_unhardened() {
        let registry = MetricsRegistry::new();
        let _out = Streamable::from_ordered_events(evs(&[1]))
            .instrument(&registry, "q")
            .count()
            .collect_output();
        let snap = registry.snapshot();
        assert!(
            snap.counters.iter().any(|(k, _)| k == "q.operator_panics"),
            "operator_panics missing from snapshot: {:?}",
            snap.counters
        );
    }

    #[test]
    fn hardened_union_leg_panic_poisons_merged_stream() {
        let meter = MemoryMeter::new();
        let a = Streamable::from_ordered_events(evs(&[1, 4, 9]))
            .hardened()
            .select(|p: &u32| {
                assert!(*p != 4, "leg poison");
                *p
            });
        let b = Streamable::from_ordered_events(evs(&[2, 3, 10]));
        let out = a.union(b, &meter).collect_output();
        match out.error() {
            Some(StreamError::OperatorPanicked { message, .. }) => {
                assert!(message.contains("leg poison"), "{message}")
            }
            other => panic!("expected OperatorPanicked, got {other:?}"),
        }
        assert!(!out.is_completed());
    }

    #[test]
    fn sorted_rejects_reroute() {
        let meter = MemoryMeter::new();
        let err = Streamable::from_ordered_events(evs(&[1]))
            .sorted(
                Box::new(impatience_sort::ImpatienceSorter::new()),
                &meter,
                ops::SortPolicy {
                    late: LatePolicy::RerouteNextPartition,
                    ..ops::SortPolicy::default()
                },
            )
            .err();
        match err {
            Some(StreamError::InvalidConfig(msg)) => {
                assert!(msg.contains("partitioned framework"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn sorted_registers_fault_counters() {
        let registry = MetricsRegistry::new();
        let meter = MemoryMeter::new();
        let (handle, stream) = input_stream::<u32>();
        let dlq = impatience_core::DeadLetterQueue::new();
        let out = stream
            .instrument(&registry, "fp")
            .sorted(
                Box::new(impatience_sort::ImpatienceSorter::new()),
                &meter,
                ops::SortPolicy {
                    late: LatePolicy::DeadLetter,
                    dead_letters: Some(dlq.clone()),
                    ..ops::SortPolicy::default()
                },
            )
            .unwrap()
            .collect_output();
        handle.push_events(evs(&[5, 3]));
        handle.push_punctuation(Timestamp::new(5));
        handle.push_events(evs(&[4])); // late: at or below punctuation 5
        handle.complete();
        assert_eq!(out.event_count(), 2);
        assert_eq!(registry.counter("fp.00.sort.dead_lettered").get(), 1);
        assert_eq!(dlq.total(), 1);
        assert!(out.is_completed());
    }

    #[test]
    fn push_error_reaches_the_sink_live_and_replayed() {
        // Live: error after subscription.
        let (handle, stream) = input_stream::<u32>();
        let out = stream.collect_output();
        handle.push_events(evs(&[1]));
        handle.push_error(StreamError::PushAfterCompleted);
        assert_eq!(out.error(), Some(StreamError::PushAfterCompleted));
        assert!(!out.is_completed());
        // Terminal: pushes after the error are rejected.
        assert!(handle.push(StreamMessage::punctuation(9)).is_err());

        // Replayed: error before subscription is delivered at subscribe.
        let (handle, stream) = input_stream::<u32>();
        handle.push_events(evs(&[2]));
        handle.push_error(StreamError::PushAfterCompleted);
        let out = stream.collect_output();
        assert_eq!(out.event_count(), 1, "pre-error traffic replayed first");
        assert_eq!(out.error(), Some(StreamError::PushAfterCompleted));
    }

    #[test]
    fn re_key_then_group_count() {
        let events: Vec<Event<u32>> = (0..10)
            .map(|i| Event::point(Timestamp::new(0), i % 3))
            .collect();
        let result = Streamable::from_ordered_events(events)
            .re_key(|e| e.payload)
            .tumbling_window(TickDuration::ticks(10))
            .group_aggregate(ops::CountAgg)
            .into_events();
        let got: Vec<(u32, u64)> = result.iter().map(|e| (e.key, e.payload)).collect();
        assert_eq!(got, vec![(0, 4), (1, 3), (2, 3)]);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "impatience-stream-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Builds the canonical checkpointed test pipeline over `dir`.
    fn ckpt_pipeline(dir: &std::path::Path) -> (InputHandle<u32>, CheckpointCtx, Output<u64>) {
        let (handle, stream) = input_stream::<u32>();
        let (stream, ctx) = stream.checkpointed(dir, 1).unwrap();
        let out = stream
            .tumbling_window(TickDuration::ticks(10))
            .count()
            .checkpoint_egress()
            .collect_output();
        (handle, ctx, out)
    }

    #[test]
    fn checkpointed_pipeline_restores_operator_state_across_crash() {
        let dir = ckpt_dir("restore");

        // First incarnation: two events land in window [0,10), a punctuation
        // below the window end checkpoints the open window, then we "crash"
        // by dropping everything without completing.
        {
            let (handle, ctx, out) = ckpt_pipeline(&dir);
            assert!(ctx.recovery().is_none(), "fresh directory");
            handle.push_events(evs(&[1, 5]));
            handle.push_punctuation(Timestamp::new(7));
            assert_eq!(out.event_count(), 0, "window still open");
        }

        // Second incarnation: the gate restores the partial count of 2, so
        // one more event and a closing punctuation yield a count of 3.
        let (handle, ctx, out) = ckpt_pipeline(&dir);
        let rec = ctx.recovery().expect("checkpoint recovered");
        assert_eq!(rec.messages_seen, 2, "batch + punctuation were durable");
        assert_eq!(rec.egress_events, 0, "nothing was emitted pre-crash");
        assert!(rec.fallback.is_none());
        handle.push_events(evs(&[8]));
        handle.push_punctuation(Timestamp::new(30));
        handle.complete();
        let counts: Vec<u64> = out.events().iter().map(|e| e.payload).collect();
        assert_eq!(counts, vec![3], "restored partial count carried over");
        assert!(out.is_completed());
    }

    #[test]
    fn checkpointed_pipeline_reports_committed_output_prefix() {
        let dir = ckpt_dir("egress");
        {
            let (handle, _ctx, out) = ckpt_pipeline(&dir);
            handle.push_events(evs(&[1, 5]));
            handle.push_punctuation(Timestamp::new(10)); // closes window 0
            assert_eq!(out.event_count(), 1);
        }
        let (_handle, ctx, _out) = ckpt_pipeline(&dir);
        let rec = ctx.recovery().expect("checkpoint recovered");
        assert_eq!(
            rec.egress_events, 1,
            "the emitted window count is committed output"
        );
        assert_eq!(rec.messages_seen, 2);
    }

    #[test]
    fn checkpointed_join_round_trips_relation_state() {
        let dir = ckpt_dir("join");
        let meter = MemoryMeter::new();
        let run = |crash: bool, meter: &MemoryMeter| {
            let (lh, left) = input_stream::<u32>();
            let (rh, right) = input_stream::<u32>();
            let (left, ctx) = left.checkpointed(&dir, 1).unwrap();
            let out = left
                .join(right, |a: &u32, b: &u32| (*a, *b), meter)
                .checkpoint_egress()
                .collect_output();
            let iv = |s: i64, e: i64, k: u32, p: u32| {
                vec![Event::interval(Timestamp::new(s), Timestamp::new(e), k, p)]
            };
            // Right-side progress first so the left interval joins the
            // relation state (and is metered) instead of sitting pending.
            rh.push_punctuation(Timestamp::new(0));
            lh.push_events(iv(0, 100, 7, 1));
            lh.push_punctuation(Timestamp::new(0)); // checkpoint: left interval live
            if crash {
                return (out, ctx);
            }
            rh.push_events(iv(50, 60, 7, 2));
            lh.complete();
            rh.complete();
            (out, ctx)
        };
        let (out, ctx) = run(true, &meter);
        assert!(ctx.recovery().is_none());
        drop(out);
        let before = meter.current();
        assert!(before > 0, "left interval is charged");

        // Recover into a fresh meter: the restored relation state must be
        // recharged there, and the join must still match.
        let meter2 = MemoryMeter::new();
        let (lh, left) = input_stream::<u32>();
        let (rh, right) = input_stream::<u32>();
        let (left, ctx) = left.checkpointed(&dir, 1).unwrap();
        let out = left
            .join(right, |a: &u32, b: &u32| (*a, *b), &meter2)
            .checkpoint_egress()
            .collect_output();
        let rec = ctx.recovery().expect("join checkpoint recovered");
        assert_eq!(rec.messages_seen, 2);
        assert!(meter2.current() > 0, "restored interval recharged");
        rh.push_events(vec![Event::interval(
            Timestamp::new(50),
            Timestamp::new(60),
            7,
            2,
        )]);
        lh.complete();
        rh.complete();
        let evs = out.events();
        assert_eq!(evs.len(), 1, "restored left interval matched");
        assert_eq!(evs[0].payload, (1, 2));
        assert!(out.is_completed());
    }

    #[test]
    fn checkpoint_metrics_are_bound_and_counted() {
        let dir = ckpt_dir("metrics");
        let registry = MetricsRegistry::new();
        {
            let (handle, ctx, _out) = ckpt_pipeline(&dir);
            ctx.bind_metrics(&registry, "pipeline");
            handle.push_events(evs(&[1]));
            handle.push_punctuation(Timestamp::new(10));
            handle.complete();
        }
        // Punctuation checkpoint + completion checkpoint.
        assert_eq!(registry.counter("pipeline.checkpoint.written").get(), 2);
        assert!(registry.counter("pipeline.checkpoint.bytes").get() > 0);
        assert_eq!(registry.counter("pipeline.recovery.restores").get(), 0);

        let registry2 = MetricsRegistry::new();
        let (_handle, ctx, _out) = ckpt_pipeline(&dir);
        ctx.bind_metrics(&registry2, "pipeline");
        // bind_metrics happens after subscribe here, so the restore was
        // counted into the ctx's own metrics before binding; the recovery
        // info is the observable signal.
        assert!(ctx.recovery().is_some());
    }
}
