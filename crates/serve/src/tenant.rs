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
//! `watermark − l(t)` where `l(t)` is either the spec's fixed reorder
//! latency or the live choice of an
//! [`AdaptiveLatency`](impatience_disorder::AdaptiveLatency) controller
//! fed every arrival (§III of the paper, made a service property). The
//! chosen latency, rung, windowed completeness, and switch count are
//! published as `serve.adaptive.*` gauges in the tenant's registry.

use crate::error::ServeError;
use impatience_core::trace::TraceSink;
use impatience_core::{
    json, ConfigError, Counter, Event, Json, MemoryMeter, MetricsRegistry, StreamError,
    StreamMessage, TickDuration, Timestamp, Validate,
};
use impatience_disorder::{AdaptiveConfig, AdaptiveGauges, AdaptiveLatency};
use impatience_engine::traced::TraceCtx;
use impatience_engine::{
    BuiltPipeline, Output, PipelineEnv, PipelineSpec, ReorderSpec, WalIngress,
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
    /// exactly-once recovery (checkpoint restore + WAL suffix replay).
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
    watermark: Timestamp,
    last_punct: Option<Timestamp>,
    built: BuiltPipeline,
    out: Output<i64>,
    serve: ServeCounters,
    failed: Option<StreamError>,
    completed: bool,
    applied_seq: u64,
    /// The newest durable WAL record's tag.
    journaled_seq: u64,
}

impl core::fmt::Debug for TenantRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TenantRuntime")
            .field("name", &self.config.pipeline.name)
            .field("durable", &self.config.durable)
            .field("watermark", &self.watermark)
            .field("failed", &self.failed)
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
        let trace = config.pipeline.traced.then(TraceSink::logical);

        let mut env = PipelineEnv::new()
            .with_registry(&registry)
            .with_meter(&meter);
        if let Some(sink) = &trace {
            env = env.with_trace(TraceCtx::new(sink));
        }
        if config.pipeline.checkpoint.is_some() {
            env = env.with_checkpoint_dir(root.join("ckpt"));
        }
        if config.pipeline.sort.spill {
            env = env.with_spill_dir(root.join("spill"));
        }

        let (out, sink) = Output::new();
        let built = config.pipeline.build(&env, Box::new(sink))?;
        let (adaptive, fixed_latency) = adaptive_of(&registry, &config.pipeline.reorder)?;

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
            watermark: Timestamp::MIN,
            last_punct: None,
            built,
            out,
            failed: None,
            completed: false,
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
            self.apply_replayed(&msg);
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

    /// Rebuilds watermark/punctuation cursors from a replayed message so
    /// post-recovery punctuation stays monotone.
    fn apply_replayed(&mut self, msg: &StreamMessage<i64>) {
        match msg {
            StreamMessage::Batch(b) => {
                for e in b.iter_visible() {
                    self.watermark = self.watermark.max(e.sync_time);
                }
            }
            StreamMessage::Punctuation(t) => {
                self.last_punct = Some(self.last_punct.map_or(*t, |p| p.max(*t)));
            }
            StreamMessage::Completed => self.completed = true,
        }
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

    fn guard(&self) -> Result<(), ServeError> {
        if let Some(e) = &self.failed {
            return Err(ServeError::TenantFailed {
                tenant: self.config.pipeline.name.clone(),
                detail: e.to_string(),
            });
        }
        if self.completed {
            return Err(ServeError::Stream(StreamError::PushAfterCompleted));
        }
        Ok(())
    }

    /// Pushes one message, converting a raw panic (an unhardened chaos
    /// operator) into a typed terminal failure of *this* tenant.
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
            self.failed = Some(e.clone());
            return Err(e.into());
        }
        Ok(())
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
        self.completed
    }

    /// Whether the tenant's pipeline has terminally failed.
    pub fn is_failed(&self) -> bool {
        self.failed.is_some()
    }

    /// Graceful-drain shutdown: journal the applied sequence if no record
    /// carries it yet, punctuate at the watermark (releasing everything
    /// reorderable), force a checkpoint at that punctuation, and sync the
    /// WAL — so a restart after shutdown replays (almost) nothing.
    /// Best-effort: a completed or failed tenant just drains.
    pub fn drain_shutdown(&mut self) -> Released {
        if self.guard().is_ok()
            && self.journal_applied_seq().is_ok()
            && self.watermark != Timestamp::MIN
        {
            if let Some(ctx) = &self.built.ckpt {
                ctx.request_checkpoint();
            }
            if self.last_punct.is_none_or(|p| self.watermark > p) {
                let _ = self.force_punctuate(self.watermark);
            }
        }
        if let Some(wal) = &self.wal {
            let mut w = wal.lock().unwrap_or_else(|e| e.into_inner());
            let _ = w.sync();
        }
        self.drain()
    }

    /// Ingests one disordered batch, then punctuates at
    /// `watermark − l(t)` if that frontier advanced. A durable tenant
    /// journals both records and syncs once before either is pushed.
    pub fn ingest(&mut self, batch: Vec<Event<i64>>) -> Result<(), ServeError> {
        self.guard()?;
        if batch.is_empty() {
            return Ok(());
        }
        let n = batch.len() as u64;
        for e in &batch {
            self.watermark = self.watermark.max(e.sync_time);
            if let Some(a) = &mut self.adaptive {
                a.observe(e.sync_time);
            }
        }
        let batch = StreamMessage::batch(batch);
        let target = self.watermark.saturating_sub(self.current_latency());
        let punctuates =
            self.watermark != Timestamp::MIN && self.last_punct.is_none_or(|p| target > p);
        if punctuates {
            self.journal(&[&batch, &StreamMessage::Punctuation(target)])?;
        } else {
            self.journal(&[&batch])?;
        }
        self.push(batch)?;
        self.serve.events_in.add(n);
        if punctuates {
            self.push_punctuation(target)?;
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
        self.last_punct = Some(t);
        self.serve.punctuations.inc();
        Ok(())
    }

    /// Completes the tenant's stream, flushing all buffered state.
    pub fn complete(&mut self) -> Result<(), ServeError> {
        self.guard()?;
        let msg = StreamMessage::Completed;
        self.journal(&[&msg])?;
        self.push(msg)?;
        self.completed = true;
        Ok(())
    }

    /// Drains output released since the last drain.
    pub fn drain(&mut self) -> Released {
        let mut released = Released::default();
        for msg in self.out.take_messages() {
            match msg {
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
        if self.failed.is_none() && !self.completed {
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

        let mut env = PipelineEnv::new()
            .with_registry(&self.registry)
            .with_meter(&self.meter);
        self.trace = config.pipeline.traced.then(TraceSink::logical);
        if let Some(sink) = &self.trace {
            env = env.with_trace(TraceCtx::new(sink));
        }
        if config.pipeline.checkpoint.is_some() {
            env = env.with_checkpoint_dir(self.root.join("ckpt"));
        }
        if config.pipeline.sort.spill {
            env = env.with_spill_dir(self.root.join("spill"));
        }
        let (out, sink) = Output::new();
        self.built = config.pipeline.build(&env, Box::new(sink))?;
        let (adaptive, fixed_latency) = adaptive_of(&self.registry, &config.pipeline.reorder)?;
        self.adaptive = adaptive;
        self.fixed_latency = fixed_latency;
        self.out = out;
        self.config = config;
        self.failed = None;
        self.completed = false;
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

    #[test]
    fn unhardened_panic_becomes_a_typed_tenant_failure() {
        let root = scratch("panic");
        let mut pipeline = PipelineSpec::new("t4").with_op(OpSpec::PanicOn { value: 13 });
        pipeline.hardened = false;
        let mut rt = TenantRuntime::start(TenantConfig::new(pipeline), &root).expect("start");
        let err = rt
            .ingest((0..20).map(|i| keyed(i, 0, i)).collect())
            .expect_err("poison payload");
        assert!(
            matches!(
                err,
                ServeError::Stream(StreamError::OperatorPanicked { .. })
            ),
            "{err:?}"
        );
        // The tenant is dead; further pushes are typed, not panics.
        let err = rt
            .ingest(vec![keyed(30, 0, 30)])
            .expect_err("failed tenant");
        assert!(matches!(err, ServeError::TenantFailed { .. }), "{err:?}");
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
