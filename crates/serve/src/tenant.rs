//! One tenant: a declarative config and the runtime that lowers it.
//!
//! A [`TenantConfig`] is a [`PipelineSpec`] plus the service-level knobs
//! the engine doesn't know about: a per-tenant memory budget (admission
//! currency) and durability (write-ahead ingest journaling under the
//! tenant's own directory tree). A [`TenantRuntime`] owns everything a
//! tenant touches — pipeline, metrics registry, memory meter, WAL,
//! checkpoint/spill directories (`<root>/<name>/{wal,ckpt,spill}`), and
//! the adaptive reorder-latency controller — so dropping the runtime
//! fully evicts the tenant and no state is shared across tenants except
//! the admission budget.
//!
//! **Adaptive punctuation.** The service, not the client, emits
//! punctuations: after each ingested batch it punctuates at
//! `high − l(t)`, when that advances, by the tenant's [`WatermarkClock`],
//! where `l(t)` is either the spec's fixed reorder latency or the live
//! choice of an [`AdaptiveLatency`] controller fed every arrival (§III of
//! the paper, made a service property). The chosen latency, rung,
//! windowed completeness, and switch count are published as
//! `serve.adaptive.*` gauges in the tenant's registry.

use crate::error::ServeError;
use impatience_core::trace::TraceSink;
use impatience_core::{
    json, ConfigError, Counter, Event, Json, MemoryMeter, MetricsRegistry, StreamError,
    StreamMessage, TickDuration, Timestamp, Validate, WatermarkClock,
};
use impatience_disorder::{AdaptiveConfig, AdaptiveGauges, AdaptiveLatency};
use impatience_engine::traced::TraceCtx;
use impatience_engine::{
    BuiltPipeline, CollectorSink, Observer, Output, PipelineEnv, PipelineSpec, ReorderSpec,
    WalIngress,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Declarative description of one tenant: the pipeline spec plus the
/// service-level knobs (admission budget, durability).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantConfig {
    /// The pipeline to run, declaratively.
    pub pipeline: PipelineSpec,
    /// Bytes of sorter state this tenant may hold; also the amount the
    /// admission controller charges against the service-wide budget.
    /// `None` runs unbudgeted (admission charges its default).
    pub memory_budget: Option<usize>,
    /// Journal every ingested message to a per-tenant WAL so the tenant
    /// can be restarted; combined with `pipeline.checkpoint` this gives
    /// exactly-once recovery (checkpoint restore + WAL suffix replay). A
    /// checkpoint is for a durable tenant only: without the WAL a restored
    /// slot has no suffix to replay, so validation refuses it.
    pub durable: bool,
}

impl TenantConfig {
    /// A config running `pipeline` with default service knobs.
    pub fn new(pipeline: PipelineSpec) -> Self {
        TenantConfig {
            pipeline,
            ..TenantConfig::default()
        }
    }

    /// Sets the per-tenant memory budget (bytes).
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Enables (or disables) WAL journaling of ingested messages.
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    /// The tenant's name (the pipeline's name: metrics prefix and
    /// directory component).
    pub fn name(&self) -> &str {
        &self.pipeline.name
    }

    /// The wire form:
    /// `{"pipeline": {...}, "memory_budget": N, "durable": bool}`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("pipeline".to_string(), self.pipeline.to_json())];
        if let Some(b) = self.memory_budget {
            fields.push(("memory_budget".to_string(), Json::Int(b as i128)));
        }
        fields.push(("durable".to_string(), Json::Bool(self.durable)));
        Json::Object(fields)
    }

    /// Parses and validates the wire form.
    pub fn from_json(v: &Json) -> Result<TenantConfig, ConfigError> {
        let spec = v
            .get("pipeline")
            .ok_or_else(|| ConfigError::new("pipeline", "missing pipeline spec"))?;
        let config = TenantConfig {
            pipeline: PipelineSpec::from_json(spec).map_err(|e| e.scoped("pipeline"))?,
            memory_budget: match v.get("memory_budget") {
                None | Some(Json::Null) => None,
                Some(b) => Some(b.as_i64().filter(|b| *b > 0).ok_or_else(|| {
                    ConfigError::new("memory_budget", "must be a positive integer")
                })? as usize),
            },
            durable: v.get("durable").and_then(Json::as_bool).unwrap_or_default(),
        };
        config.validate()?;
        Ok(config)
    }
}

impl Validate for TenantConfig {
    fn validate(&self) -> Result<(), ConfigError> {
        self.pipeline.validate().map_err(|e| e.scoped("pipeline"))?;
        if self.memory_budget == Some(0) {
            return Err(ConfigError::new("memory_budget", "must be > 0 bytes"));
        }
        if self.durable && self.pipeline.shards > 1 {
            return Err(ConfigError::new(
                "durable",
                "durable tenants must be unsharded (WAL replay targets one pipeline)",
            ));
        }
        if !self.durable && self.pipeline.checkpoint.is_some() {
            return Err(ConfigError::new(
                "pipeline.checkpoint",
                "needs a durable tenant (without the WAL a restored slot has no suffix to replay)",
            ));
        }
        Ok(())
    }
}

/// Output released by one request against a tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Released {
    /// Events, in emission order.
    pub events: Vec<Event<i64>>,
    /// Punctuations crossed.
    pub puncts: Vec<Timestamp>,
    /// True once the stream completed.
    pub completed: bool,
}

struct ServeCounters {
    events_in: Counter,
    events_out: Counter,
    punctuations: Counter,
    wal_appends: Counter,
    wal_syncs: Counter,
}

/// The live runtime of one admitted tenant. See the module docs.
pub struct TenantRuntime {
    config: TenantConfig,
    root: PathBuf,
    registry: MetricsRegistry,
    meter: MemoryMeter,
    trace: Option<TraceSink>,
    wal: Option<Arc<Mutex<WalIngress<i64>>>>,
    adaptive: Option<AdaptiveLatency>,
    fixed_latency: TickDuration,
    /// The high watermark and the last punctuation pushed; carried across
    /// a reconfigure, rebuilt by WAL replay.
    clock: WatermarkClock,
    built: BuiltPipeline,
    /// The pipeline's output: what it released, and whether it failed or
    /// completed — the one record of either.
    out: Output<i64>,
    /// A second handle onto `out`, for the one failure the pipeline cannot
    /// deliver to its own sink: a panic unwinding out of an unhardened push.
    out_sink: CollectorSink<i64>,
    serve: ServeCounters,
    applied_seq: u64,
    /// The newest durable WAL record's tag.
    journaled_seq: u64,
}

impl core::fmt::Debug for TenantRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TenantRuntime")
            .field("name", &self.config.pipeline.name)
            .field("durable", &self.config.durable)
            .field("watermark", &self.clock.high)
            .field("error", &self.out.error())
            .finish_non_exhaustive()
    }
}

fn serve_counters(registry: &MetricsRegistry) -> ServeCounters {
    ServeCounters {
        events_in: registry.counter("serve.events_in"),
        events_out: registry.counter("serve.events_out"),
        punctuations: registry.counter("serve.punctuations"),
        wal_appends: registry.counter("serve.wal_appends"),
        wal_syncs: registry.counter("serve.wal_syncs"),
    }
}

fn adaptive_of(
    registry: &MetricsRegistry,
    reorder: &ReorderSpec,
) -> Result<(Option<AdaptiveLatency>, TickDuration), ConfigError> {
    match reorder {
        ReorderSpec::Fixed { latency } => Ok((None, *latency)),
        ReorderSpec::Adaptive {
            ladder,
            quality,
            window,
            hold,
        } => {
            let mut controller = AdaptiveLatency::new(
                AdaptiveConfig::new()
                    .with_ladder(ladder.clone())
                    .with_quality(*quality)
                    .with_window(*window)
                    .with_hold(*hold),
            )
            .map_err(|e| e.scoped("reorder"))?;
            controller.bind_gauges(AdaptiveGauges {
                latency: registry.gauge("serve.adaptive.latency"),
                rung: registry.gauge("serve.adaptive.rung"),
                completeness_ppm: registry.gauge("serve.adaptive.completeness_ppm"),
                max_delay: registry.gauge("serve.adaptive.max_delay"),
                switches: registry.counter("serve.adaptive.switches"),
            });
            let start = controller.current();
            Ok((Some(controller), start))
        }
    }
}

/// What a tenant's config lowers to: the trace sink (when traced), the
/// built pipeline and its output, and the reorder-latency controller.
struct Lowered {
    trace: Option<TraceSink>,
    built: BuiltPipeline,
    out: Output<i64>,
    out_sink: CollectorSink<i64>,
    adaptive: Option<AdaptiveLatency>,
    fixed_latency: TickDuration,
}

/// Builds `config`'s pipeline against the tenant's registry and meter,
/// with checkpoints and spills under `root` — the one build path of
/// [`TenantRuntime::start`] and [`TenantRuntime::reconfigure`]. A pipeline
/// that fails while it is built (a checkpoint slot it cannot restore) is a
/// typed error here.
fn lower(
    config: &TenantConfig,
    root: &Path,
    registry: &MetricsRegistry,
    meter: &MemoryMeter,
) -> Result<Lowered, ServeError> {
    let trace = config.pipeline.traced.then(TraceSink::logical);
    let mut env = PipelineEnv::new().with_registry(registry).with_meter(meter);
    if let Some(sink) = &trace {
        env = env.with_trace(TraceCtx::new(sink));
    }
    if config.pipeline.checkpoint.is_some() {
        env = env.with_checkpoint_dir(root.join("ckpt"));
    }
    if config.pipeline.sort.spill {
        env = env.with_spill_dir(root.join("spill"));
    }
    let (out, out_sink) = Output::new();
    let built = config.pipeline.build(&env, Box::new(out_sink.clone()))?;
    if let Some(e) = out.error() {
        return Err(e.into());
    }
    let (adaptive, fixed_latency) = adaptive_of(registry, &config.pipeline.reorder)?;
    Ok(Lowered {
        trace,
        built,
        out,
        out_sink,
        adaptive,
        fixed_latency,
    })
}

impl TenantRuntime {
    /// Admits the tenant onto disk and builds its pipeline. For durable
    /// tenants this is also crash recovery: the newest checkpoint is
    /// restored and the WAL suffix replayed (its re-emitted output is
    /// buffered for the next drain). Every failure is typed; nothing
    /// panics across this boundary.
    pub fn start(config: TenantConfig, service_root: &Path) -> Result<TenantRuntime, ServeError> {
        config.validate()?;
        let root = service_root.join(config.name());
        std::fs::create_dir_all(&root)
            .map_err(|e| ServeError::io(&format!("create tenant dir {}", root.display()), e))?;

        let registry = MetricsRegistry::new();
        let meter = match config.memory_budget {
            Some(b) => MemoryMeter::with_budget(b),
            None => MemoryMeter::new(),
        };
        meter.bind_over_release_counter(registry.counter("memory.over_releases"));
        let Lowered {
            trace,
            built,
            out,
            out_sink,
            adaptive,
            fixed_latency,
        } = lower(&config, &root, &registry, &meter)?;

        let mut runtime = TenantRuntime {
            serve: serve_counters(&registry),
            config,
            root,
            registry,
            meter,
            trace,
            wal: None,
            adaptive,
            fixed_latency,
            clock: WatermarkClock::NEW,
            built,
            out,
            out_sink,
            applied_seq: 0,
            journaled_seq: 0,
        };
        runtime.recover()?;
        Ok(runtime)
    }

    /// Opens the WAL and replays the suffix past the restored checkpoint.
    fn recover(&mut self) -> Result<(), ServeError> {
        if !self.config.durable {
            return Ok(());
        }
        let wal_dir = self.root.join("wal");
        let wal = WalIngress::<i64>::open(&wal_dir).map_err(|e| ServeError::Io {
            detail: format!("open wal {}: {e}", wal_dir.display()),
        })?;
        let replay_from = self
            .built
            .ckpt
            .as_ref()
            .and_then(|c| c.recovery())
            .map_or(0, |r| r.messages_seen);
        // The durable high-water is the newest surviving record's tag.
        // Tags never decrease along the log (each record takes
        // `applied_seq`, which only grows), and truncation never deletes
        // the last segment, which holds the newest synced record. So the
        // scan runs from the start of the log, not the replay suffix: a
        // checkpoint may cover every record, and then none is replayed.
        let mut durable_high = 0;
        let replayed =
            WalIngress::<i64>::replay_tagged_from(&wal_dir, 0).map_err(|e| ServeError::Io {
                detail: format!("replay wal {}: {e}", wal_dir.display()),
            })?;
        for (index, tag, msg) in replayed {
            durable_high = durable_high.max(tag);
            if index < replay_from {
                continue;
            }
            // The clock sees what the live run pushed, in the same order.
            match &msg {
                StreamMessage::Batch(b) => b.iter_visible().for_each(|e| {
                    self.clock.arrive(e.sync_time);
                }),
                StreamMessage::Punctuation(t) => self.clock.last = *t,
                StreamMessage::Completed => {}
            }
            self.push(msg)?;
        }
        let wal = Arc::new(Mutex::new(wal));
        if let Some(ctx) = &self.built.ckpt {
            let w = Arc::clone(&wal);
            ctx.on_checkpoint(move |note| {
                if let Ok(mut w) = w.lock() {
                    let _ = w.truncate_before(note.safe_truncate_index);
                }
            });
        }
        self.wal = Some(wal);
        self.journaled_seq = durable_high;
        // Reconfigure wiped `wal/` but carries the high-water in memory.
        self.journal_applied_seq()?;
        self.applied_seq = self.applied_seq.max(durable_high);
        Ok(())
    }

    /// Makes `applied_seq` durable when no WAL record carries it yet —
    /// after `reconfigure` wiped the log, or after sequenced requests
    /// that journal nothing: one empty batch tagged with it. Pushing it
    /// keeps WAL index and checkpoint message count aligned.
    fn journal_applied_seq(&mut self) -> Result<(), ServeError> {
        if self.wal.is_none() || self.applied_seq <= self.journaled_seq {
            return Ok(());
        }
        let carry = StreamMessage::batch(Vec::new());
        self.journal(&[&carry])?;
        self.push(carry)
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        self.config.name()
    }

    /// The tenant's current config.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// The tenant's private metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The reorder latency punctuation currently trails the watermark by.
    pub fn current_latency(&self) -> TickDuration {
        self.adaptive
            .as_ref()
            .map_or(self.fixed_latency, AdaptiveLatency::current)
    }

    /// Recovery info of the restored checkpoint, if this start recovered.
    pub fn recovery_info(&self) -> Json {
        match self.built.ckpt.as_ref().and_then(|c| c.recovery()) {
            Some(r) => json!({
                "recovered": true,
                "generation": r.generation as i64,
                "messages_restored": r.messages_seen as i64,
                "committed_prefix": r.egress_events as i64,
            }),
            None => json!({"recovered": false}),
        }
    }

    /// Refuses a request to a tenant whose pipeline failed (every request
    /// after the one that failed it) or completed.
    fn guard(&self) -> Result<(), ServeError> {
        if let Some(e) = self.out.error() {
            return Err(ServeError::TenantFailed {
                tenant: self.config.pipeline.name.clone(),
                detail: e.to_string(),
            });
        }
        if self.out.is_completed() {
            return Err(ServeError::Stream(StreamError::PushAfterCompleted));
        }
        Ok(())
    }

    /// Pushes one message and returns the pipeline's failure, if the push
    /// failed it: an error the pipeline delivered to its sink (a hardened
    /// stage's panic, a punctuation regression), or a raw panic out of an
    /// unhardened chain, which is recorded into the same output first.
    fn push(&mut self, msg: StreamMessage<i64>) -> Result<(), ServeError> {
        let handle = &self.built.handle;
        let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.push(msg)));
        let result = match pushed {
            Ok(r) => r,
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "pipeline panicked".to_string());
                Err(StreamError::OperatorPanicked {
                    operator: "pipeline".to_string(),
                    message: detail,
                })
            }
        };
        if let Err(e) = result {
            self.out_sink.on_error(e);
        }
        match self.out.error() {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Group commit: appends every record of one request, then syncs
    /// once. Callers journal *before* pushing any of `msgs`, so the
    /// pipeline never consumes — and a checkpoint never covers — a record
    /// that is not yet durable, and nothing is released to the session
    /// layer ahead of the sync.
    fn journal(&mut self, msgs: &[&StreamMessage<i64>]) -> Result<(), ServeError> {
        if let Some(wal) = &self.wal {
            let mut w = wal.lock().unwrap_or_else(|e| e.into_inner());
            // Each record is tagged with the session sequence it was
            // applied under (0 for unsequenced ingest), so WAL durability
            // and session acks advance together: once this returns, the
            // sequence is recoverable and may be acked to the client.
            let failed = |e| ServeError::Io {
                detail: format!("wal append: {e}"),
            };
            for msg in msgs {
                w.append_tagged(msg, self.applied_seq).map_err(failed)?;
                self.serve.wal_appends.inc();
            }
            w.sync().map_err(failed)?;
            self.serve.wal_syncs.inc();
            self.journaled_seq = self.applied_seq;
        }
        Ok(())
    }

    /// The session sequence most recently applied by this runtime. For
    /// durable tenants it is durable once a record carrying it is
    /// journaled: by the request itself, or — for requests that journal
    /// nothing — by `drain_shutdown`. Acks up to this value are safe: a
    /// resuming client need not resend them.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Records the session sequence about to be applied; the next
    /// journaled record carries it as its WAL tag. Called by the session
    /// layer before each sequenced operation.
    pub fn note_seq(&mut self, seq: u64) {
        self.applied_seq = self.applied_seq.max(seq);
    }

    /// The WAL index the next journaled record will take — the durable
    /// offset acks are tied to. `None` for non-durable tenants.
    pub fn wal_durable_index(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| {
            let w = w.lock().unwrap_or_else(|e| e.into_inner());
            w.next_index()
        })
    }

    /// Whether the tenant's stream has completed.
    pub fn is_completed(&self) -> bool {
        self.out.is_completed()
    }

    /// Whether the tenant's pipeline has terminally failed.
    pub fn is_failed(&self) -> bool {
        self.out.error().is_some()
    }

    /// Graceful-drain shutdown: journal the applied sequence if no record
    /// carries it yet, punctuate at the watermark (releasing everything
    /// reorderable), force a checkpoint at that punctuation, and sync the
    /// WAL — so a restart after shutdown replays (almost) nothing.
    /// Best-effort: a completed or failed tenant just drains.
    pub fn drain_shutdown(&mut self) -> Released {
        if self.guard().is_ok()
            && self.journal_applied_seq().is_ok()
            && self.clock.high != Timestamp::MIN
        {
            if let Some(ctx) = &self.built.ckpt {
                ctx.request_checkpoint();
            }
            if let Some(high) = self.clock.punctuation(TickDuration::ZERO) {
                let _ = self.force_punctuate(high);
            }
        }
        if let Some(wal) = &self.wal {
            let mut w = wal.lock().unwrap_or_else(|e| e.into_inner());
            let _ = w.sync();
        }
        self.drain()
    }

    /// Ingests one disordered batch, then punctuates at `high − l(t)` if
    /// that frontier advanced. A durable tenant journals both records and
    /// syncs once before either is pushed.
    pub fn ingest(&mut self, batch: Vec<Event<i64>>) -> Result<(), ServeError> {
        self.guard()?;
        if batch.is_empty() {
            return Ok(());
        }
        let n = batch.len() as u64;
        for e in &batch {
            self.clock.arrive(e.sync_time);
            if let Some(a) = &mut self.adaptive {
                a.observe(e.sync_time);
            }
        }
        let batch = StreamMessage::batch(batch);
        let target = self.clock.punctuation(self.current_latency());
        match target {
            Some(t) => self.journal(&[&batch, &StreamMessage::Punctuation(t)])?,
            None => self.journal(&[&batch])?,
        }
        self.push(batch)?;
        self.serve.events_in.add(n);
        if let Some(t) = target {
            self.push_punctuation(t)?;
        }
        Ok(())
    }

    /// Punctuates at `t` unconditionally (drains, tests). Regressions are
    /// rejected by the pipeline with a typed error.
    pub fn force_punctuate(&mut self, t: Timestamp) -> Result<(), ServeError> {
        self.guard()?;
        self.journal(&[&StreamMessage::Punctuation(t)])?;
        self.push_punctuation(t)
    }

    /// Hands the already-journaled punctuation at `t` to the pipeline.
    fn push_punctuation(&mut self, t: Timestamp) -> Result<(), ServeError> {
        self.push(StreamMessage::Punctuation(t))?;
        self.clock.last = t;
        self.serve.punctuations.inc();
        Ok(())
    }

    /// Completes the tenant's stream, flushing all buffered state.
    pub fn complete(&mut self) -> Result<(), ServeError> {
        self.guard()?;
        let msg = StreamMessage::Completed;
        self.journal(&[&msg])?;
        self.push(msg)
    }

    /// Drains output released since the last drain.
    pub fn drain(&mut self) -> Released {
        let mut released = Released::default();
        for msg in self.out.take_messages() {
            match msg {
                // The first batch moves in whole; later ones append.
                StreamMessage::Batch(b) if released.events.is_empty() => {
                    released.events = b.into_visible();
                }
                StreamMessage::Batch(b) => released.events.extend(b.into_visible()),
                StreamMessage::Punctuation(t) => released.puncts.push(t),
                StreamMessage::Completed => released.completed = true,
            }
        }
        self.serve.events_out.add(released.events.len() as u64);
        released
    }

    /// The tenant's metrics snapshot (registry JSON), including the
    /// `serve.*` counters and, for adaptive tenants, the
    /// `serve.adaptive.*` gauges.
    pub fn metrics(&self) -> Json {
        self.registry.snapshot().to_json()
    }

    /// The tenant's trace summary, when the spec enables tracing.
    pub fn trace_summary(&self) -> Option<Json> {
        self.trace.as_ref().map(|t| t.summary())
    }

    /// Hot-swaps the tenant onto a new config: the old pipeline is
    /// completed and its final output returned, durable state is reset
    /// (a flushed stream needs no replay), and the new pipeline starts
    /// with the watermark and punctuation cursors carried over. The
    /// tenant name must not change.
    pub fn reconfigure(&mut self, config: TenantConfig) -> Result<Released, ServeError> {
        config.validate()?;
        if config.name() != self.config.name() {
            return Err(
                ConfigError::new("pipeline.name", "reconfigure may not rename a tenant").into(),
            );
        }
        // A failed pipeline is replaced wholesale; only a live one flushes.
        if self.guard().is_ok() {
            self.push(StreamMessage::Completed)?;
        }
        let mut released = self.drain();
        released.completed = false;

        // Durable state described the *old* pipeline; a flushed stream
        // replays nothing, so reset it for the new shape (`recover`
        // re-journals the applied sequence into the fresh log).
        self.wal = None;
        for sub in ["wal", "ckpt"] {
            let dir = self.root.join(sub);
            if dir.exists() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| ServeError::io(&format!("reset {}", dir.display()), e))?;
            }
        }

        let lowered = lower(&config, &self.root, &self.registry, &self.meter)?;
        self.trace = lowered.trace;
        self.built = lowered.built;
        self.out = lowered.out;
        self.out_sink = lowered.out_sink;
        self.adaptive = lowered.adaptive;
        self.fixed_latency = lowered.fixed_latency;
        self.config = config;
        self.recover()?;
        Ok(released)
    }

    /// Simulates a crash + restart of a durable tenant: the live pipeline
    /// is dropped, then rebuilt exactly as [`TenantRuntime::start`] would
    /// — newest checkpoint restored, WAL suffix replayed. The replayed
    /// suffix's output lands in the next [`TenantRuntime::drain`];
    /// [`TenantRuntime::recovery_info`] reports the committed prefix.
    pub fn restart(&mut self) -> Result<(), ServeError> {
        if !self.config.durable {
            return Err(ConfigError::new("durable", "only durable tenants can restart").into());
        }
        let config = self.config.clone();
        let root = self.root.parent().unwrap_or(&self.root).to_path_buf();
        *self = TenantRuntime::start(config, &root)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_engine::OpSpec;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-tenant-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn keyed(t: i64, k: u32, p: i64) -> Event<i64> {
        Event::keyed(Timestamp::new(t), k, p)
    }

    fn spec(name: &str) -> PipelineSpec {
        PipelineSpec::new(name).with_op(OpSpec::Scale { factor: 2 })
    }

    #[test]
    fn config_json_round_trips() {
        let config = TenantConfig::new(spec("t0"))
            .with_memory_budget(1 << 20)
            .with_durable(false);
        let back = TenantConfig::from_json(&config.to_json()).expect("parse");
        assert_eq!(back, config);
    }

    #[test]
    fn config_rejections_are_field_precise() {
        let bad = Json::parse(r#"{"pipeline": {"name": "x", "shards": 2}, "durable": true}"#)
            .expect("json");
        let err = TenantConfig::from_json(&bad).expect_err("durable sharded");
        assert_eq!(err.field, "durable");
        let bad = Json::parse(r#"{"pipeline": {"name": "x"}, "memory_budget": -5}"#).expect("json");
        let err = TenantConfig::from_json(&bad).expect_err("negative budget");
        assert_eq!(err.field, "memory_budget");
        let bad = Json::parse(r#"{"pipeline": {"name": "x", "checkpoint": {"every_n": 4}}}"#)
            .expect("json");
        let err = TenantConfig::from_json(&bad).expect_err("checkpoint without durable");
        assert_eq!(err.field, "pipeline.checkpoint");
    }

    #[test]
    fn ingest_punctuates_behind_watermark_and_releases_output() {
        let root = scratch("basic");
        let config = TenantConfig::new(spec("t1").with_reorder(ReorderSpec::Fixed {
            latency: TickDuration::ticks(10),
        }));
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        rt.ingest((0..100).map(|i| keyed(i, 0, i)).collect())
            .expect("ingest");
        let released = rt.drain();
        // Punctuation trails the watermark (99) by the fixed latency.
        assert_eq!(released.puncts, vec![Timestamp::new(89)]);
        assert!(released
            .events
            .iter()
            .all(|e| e.sync_time <= Timestamp::new(89)));
        rt.complete().expect("complete");
        let tail = rt.drain();
        assert!(tail.completed);
        let total = released.events.len() + tail.events.len();
        assert_eq!(total, 100);
    }

    #[test]
    fn durable_tenant_restart_recovers_and_replays() {
        let root = scratch("durable");
        let config = TenantConfig::new(spec("t2").with_checkpoint(2)).with_durable(true);
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        let events: Vec<_> = (0..200).map(|i| keyed(i, (i % 4) as u32, i)).collect();
        for chunk in events.chunks(50) {
            rt.ingest(chunk.to_vec()).expect("ingest");
        }
        let before = rt.drain();
        assert!(!before.events.is_empty());
        rt.restart().expect("restart");
        let info = rt.recovery_info();
        assert_eq!(info.get("recovered").and_then(Json::as_bool), Some(true));
        let committed = info
            .get("committed_prefix")
            .and_then(Json::as_i64)
            .expect("prefix") as usize;
        // Everything drained before the crash is within the committed
        // prefix plus the replayed suffix now buffered.
        let replayed = rt.drain();
        rt.complete().expect("complete");
        let tail = rt.drain();
        let after: Vec<_> = replayed.events.into_iter().chain(tail.events).collect();
        // Committed prefix + post-restart output covers the full stream.
        let mut solo =
            TenantRuntime::start(TenantConfig::new(spec("solo2")), &scratch("durable-solo"))
                .expect("solo");
        solo.ingest(events).expect("ingest");
        solo.complete().expect("complete");
        let reference = solo.drain().events;
        assert_eq!(before.events[..committed], reference[..committed]);
        assert_eq!(after, reference[committed..]);
    }

    #[test]
    fn one_request_is_one_sync_however_many_records_it_journals() {
        let root = scratch("group-commit");
        let config = TenantConfig::new(spec("t8").with_reorder(ReorderSpec::Fixed {
            latency: TickDuration::ticks(10),
        }))
        .with_durable(true);
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        let counter = |rt: &TenantRuntime, name: &str| {
            rt.metrics()
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_i64)
                .unwrap_or(0)
        };
        // The frontier advances: batch record + punctuation record.
        rt.ingest((0..100).map(|i| keyed(i, 0, i)).collect())
            .expect("ingest");
        assert_eq!(counter(&rt, "serve.punctuations"), 1);
        assert_eq!(counter(&rt, "serve.wal_appends"), 2);
        assert_eq!(counter(&rt, "serve.wal_syncs"), 1);
        // A batch wholly behind the watermark: one record, still one sync.
        rt.ingest((90..95).map(|i| keyed(i, 0, i)).collect())
            .expect("ingest");
        assert_eq!(counter(&rt, "serve.punctuations"), 1);
        assert_eq!(counter(&rt, "serve.wal_appends"), 3);
        assert_eq!(counter(&rt, "serve.wal_syncs"), 2);
        // Both records of the first request were durable before its
        // output was released: a restart replays them to the same state.
        let before = rt.drain();
        assert_eq!(before.puncts, vec![Timestamp::new(89)]);
        rt.restart().expect("restart");
        assert_eq!(rt.drain(), before);
    }

    #[test]
    fn adaptive_latency_converges_and_publishes_gauges() {
        let root = scratch("adaptive");
        let ladder = vec![
            TickDuration::ticks(1),
            TickDuration::ticks(8),
            TickDuration::ticks(64),
        ];
        let config = TenantConfig::new(spec("t3").with_reorder(ReorderSpec::Adaptive {
            ladder: ladder.clone(),
            quality: 0.99,
            window: 128,
            hold: 2,
        }));
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        assert_eq!(
            rt.current_latency(),
            TickDuration::ticks(64),
            "starts patient"
        );
        // A nearly-ordered stream: the controller should step down.
        for chunk in (0..2_000i64).collect::<Vec<_>>().chunks(100) {
            rt.ingest(chunk.iter().map(|&i| keyed(i, 0, i)).collect())
                .expect("ingest");
        }
        assert!(
            rt.current_latency() < TickDuration::ticks(64),
            "stayed at the top rung"
        );
        let snap = rt.metrics();
        let gauges = snap.get("gauges").expect("gauges");
        let latency = gauges.get("serve.adaptive.latency").expect("latency gauge");
        assert_eq!(
            latency.get("value").and_then(Json::as_i64),
            Some(rt.current_latency().as_ticks())
        );
        assert!(
            snap.get("counters")
                .and_then(|c| c.get("serve.adaptive.switches"))
                .and_then(Json::as_i64)
                .unwrap_or(0)
                > 0
        );
    }

    /// A pipeline failure fails the request that hit it with the typed
    /// cause and every later request with `TenantFailed`: a panic fenced
    /// by the default hardened spec (delivered to the pipeline's sink), a
    /// panic unwinding out of an unhardened push, and a punctuation below
    /// the served one (the tenant punctuated at 100, latency 0).
    #[test]
    fn a_pipeline_failure_is_typed_now_and_tenant_failed_later() {
        type Request = fn(&mut TenantRuntime) -> Result<(), ServeError>;
        let ingest: Request = |rt| rt.ingest((0..=100).map(|i| keyed(i, 0, i)).collect());
        let regress: Request = |rt| {
            rt.ingest((0..=100).map(|i| keyed(i, 0, i)).collect())?;
            rt.force_punctuate(Timestamp::new(50))
        };
        let poisoned = PipelineSpec::new("t4").with_op(OpSpec::PanicOn { value: 13 });
        let cases = [
            (poisoned.clone(), ingest, "OperatorPanicked"),
            (poisoned.with_hardened(false), ingest, "OperatorPanicked"),
            (PipelineSpec::new("t11"), regress, "PunctuationRegressed"),
        ];
        for (i, (pipeline, request, cause)) in cases.into_iter().enumerate() {
            let root = scratch(&format!("failure-{i}"));
            let mut rt = TenantRuntime::start(TenantConfig::new(pipeline), &root).expect("start");
            match request(&mut rt) {
                Err(ServeError::Stream(e)) => assert!(format!("{e:?}").starts_with(cause), "{e:?}"),
                other => panic!("case {i}: expected {cause}, got {other:?}"),
            }
            assert!(rt.is_failed(), "case {i}");
            for later in [rt.ingest(vec![keyed(200, 0, 1)]), rt.complete()] {
                assert!(
                    matches!(later, Err(ServeError::TenantFailed { .. })),
                    "case {i}: {later:?}"
                );
            }
        }
    }

    #[test]
    fn a_slot_that_cannot_be_restored_refuses_the_start_and_the_open() {
        let root = scratch("unrestorable");
        let config = TenantConfig::new(spec("t12").with_checkpoint(1)).with_durable(true);
        let mut rt = TenantRuntime::start(config.clone(), &root).expect("start");
        // Two punctuations, two checkpoints: both slots are written.
        rt.ingest(vec![keyed(1, 0, 1)]).expect("ingest");
        rt.ingest(vec![keyed(2, 0, 2)]).expect("ingest");
        drop(rt);
        let ckpt = root.join("t12").join("ckpt");
        for slot in ["ckpt-a.bin", "ckpt-b.bin"] {
            assert!(ckpt.join(slot).exists(), "{slot} written");
            std::fs::write(ckpt.join(slot), b"not a checkpoint").expect("corrupt slot");
        }
        let err = TenantRuntime::start(config.clone(), &root).expect_err("unrestorable");
        assert!(
            matches!(err, ServeError::Stream(StreamError::RecoveryFailed { .. })),
            "{err:?}"
        );

        // Over a socket, `open` answers with the typed error frame.
        let mut server =
            crate::Server::start(crate::ServerConfig::new(&root)).expect("server start");
        let mut client =
            crate::Client::connect(server.addr(), crate::WireMode::Binary).expect("connect");
        let err = client.open(&config).expect_err("unrestorable");
        assert!(
            matches!(&err, ServeError::Stream(_) if err.to_string().contains("crash recovery")),
            "{err:?}"
        );
        server.shutdown();
    }

    #[test]
    fn a_ladder_past_255_rungs_is_refused_before_the_tenant_touches_disk() {
        let root = scratch("ladder");
        let config = TenantConfig::new(spec("t13").with_reorder(ReorderSpec::Adaptive {
            ladder: (0..256).map(TickDuration::ticks).collect(),
            quality: 0.99,
            window: 64,
            hold: 2,
        }));
        let err = TenantRuntime::start(config, &root).expect_err("256 rungs");
        assert!(
            matches!(&err, ServeError::Config(e) if e.field == "pipeline.reorder.ladder"),
            "{err:?}"
        );
        assert!(
            !root.join("t13").exists(),
            "no tenant directory left behind"
        );
    }

    #[test]
    fn applied_seq_survives_restart_behind_a_covering_checkpoint() {
        let root = scratch("applied-seq");
        let config = TenantConfig::new(
            spec("t6")
                .with_reorder(ReorderSpec::Fixed {
                    latency: TickDuration::ticks(4),
                })
                .with_checkpoint(1),
        )
        .with_durable(true);
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        let events: Vec<_> = (1..=200i64).map(|i| keyed(i, 0, i)).collect();
        for (i, chunk) in events.chunks(20).enumerate() {
            rt.note_seq(i as u64 + 1);
            rt.ingest(chunk.to_vec()).expect("ingest");
        }
        assert_eq!(rt.applied_seq(), 10);

        // Graceful drain forces a checkpoint covering every journaled
        // record, so the restart replays (almost) nothing. The
        // regression this guards: the high-water must come back from
        // the full-log tag scan, not only from the replayed suffix —
        // otherwise durable_seq under-reports and a resuming client's
        // resends would be re-applied as fresh.
        let _ = rt.drain_shutdown();
        rt.restart().expect("restart");
        assert_eq!(
            rt.applied_seq(),
            10,
            "the applied high-water must survive a covered restart"
        );

        // A second shutdown/restart cycle with no new sequenced work:
        // nothing left to replay at all, so only the tags of covered
        // records — kept by the never-truncated tail segment — carry it.
        let _ = rt.drain_shutdown();
        rt.restart().expect("second restart");
        assert_eq!(
            rt.applied_seq(),
            10,
            "covered tags must carry the high-water"
        );
    }

    #[test]
    fn applied_seq_survives_a_covered_restart_after_the_wal_rolls() {
        let root = scratch("applied-seq-rolled");
        let config = TenantConfig::new(
            spec("t9")
                .with_reorder(ReorderSpec::Fixed {
                    latency: TickDuration::ticks(4),
                })
                .with_checkpoint(4),
        )
        .with_durable(true);
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        // 160 requests of 1 000 events, 28 B each on disk: over 4 MiB of
        // WAL, so the log rolls and checkpoints delete whole segments of
        // tagged records.
        const PER: i64 = 1_000;
        for seq in 1..=160u64 {
            let base = (seq as i64 - 1) * PER;
            rt.note_seq(seq);
            rt.ingest((base..base + PER).map(|i| keyed(i, 0, i)).collect())
                .expect("ingest");
            rt.drain();
        }
        let wal = root.join("t9").join("wal");
        assert!(
            !wal.join(format!("wal-{:020}.seg", 0)).exists(),
            "truncation deleted the first segment"
        );

        let _ = rt.drain_shutdown();
        rt.restart().expect("restart");
        assert_eq!(
            rt.applied_seq(),
            160,
            "the tail segment's tags carry the high-water"
        );
    }

    #[test]
    fn a_sequence_that_journals_nothing_survives_a_graceful_restart() {
        let root = scratch("applied-seq-unjournaled");
        let config = TenantConfig::new(spec("t10").with_checkpoint(2)).with_durable(true);
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        rt.note_seq(1);
        rt.ingest(vec![keyed(5, 0, 1)]).expect("ingest");
        rt.note_seq(2);
        rt.ingest(Vec::new())
            .expect("an empty ingest journals nothing");
        let _ = rt.drain_shutdown();
        rt.restart().expect("restart");
        assert_eq!(rt.applied_seq(), 2, "drain_shutdown must journal it");
    }

    #[test]
    fn reconfigure_carries_applied_seq_into_the_fresh_wal() {
        let root = scratch("reconf-seq");
        let config = TenantConfig::new(spec("t7").with_checkpoint(2)).with_durable(true);
        let mut rt = TenantRuntime::start(config, &root).expect("start");
        rt.note_seq(7);
        rt.ingest((0..10).map(|i| keyed(i, 0, i)).collect())
            .expect("ingest");
        let next = TenantConfig::new(spec("t7").with_checkpoint(2)).with_durable(true);
        rt.reconfigure(next).expect("reconfigure");
        assert_eq!(rt.applied_seq(), 7, "reconfigure must not reset the seq");
        // The swap wiped the WAL dir; the empty record reconfigure
        // journals carries the value, so a crash right after the swap
        // recovers it.
        rt.restart().expect("restart");
        assert_eq!(rt.applied_seq(), 7, "carried seq must be durable");
    }

    #[test]
    fn reconfigure_flushes_then_applies_the_new_spec() {
        let root = scratch("reconf");
        let mut rt = TenantRuntime::start(TenantConfig::new(spec("t5")), &root).expect("start");
        rt.ingest((0..10).map(|i| keyed(i, 0, i)).collect())
            .expect("ingest");
        // Scale{2} -> FilterMin{10}: outputs switch shape after the swap.
        let next =
            TenantConfig::new(PipelineSpec::new("t5").with_op(OpSpec::FilterMin { min: 10 }));
        let flushed = rt.reconfigure(next).expect("reconfigure");
        assert_eq!(
            flushed.events.iter().map(|e| e.payload).collect::<Vec<_>>(),
            (0..10).map(|i| i * 2).collect::<Vec<_>>()
        );
        rt.ingest((5..15).map(|i| keyed(100 + i, 0, i)).collect())
            .expect("ingest");
        rt.complete().expect("complete");
        let out = rt.drain();
        assert!(out.completed);
        assert_eq!(
            out.events.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![10, 11, 12, 13, 14]
        );
        let err = rt
            .reconfigure(TenantConfig::new(spec("renamed")))
            .expect_err("rename");
        assert!(matches!(err, ServeError::Config(_)), "{err:?}");
    }
}
