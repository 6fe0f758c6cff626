//! Declarative pipeline specification — the serving layer's front door.
//!
//! Historically every durable pipeline in this workspace was wired by
//! hand-stacking six combinators in one blessed order (`traced` →
//! `checkpointed` → `instrument` → `hardened` → `sorted` → `sharded`),
//! and getting that order wrong silently produced un-metered, un-guarded,
//! or un-checkpointed chains. A [`PipelineSpec`] makes the stack *data*:
//! it is parsed from [`core::json`](mod@impatience_core::json), validated with
//! typed [`ConfigError`]s, and lowered by a single builder
//! ([`PipelineSpec::build`]) that owns the canonical combinator order. A
//! multi-tenant service can therefore construct, restart, and
//! hot-reconfigure pipelines from specs alone — no tenant-specific Rust.
//!
//! The payload algebra is fixed to `i64` (the serving layer's wire
//! payload); every [`OpSpec`] is closed over it, so op chains compose
//! without type-level surprises.
//!
//! Lowering order (identical to the hand-written canonical pipeline in
//! `tests/surface_differential.rs`):
//!
//! 1. `input_stream` — the push endpoint;
//! 2. `traced(ctx)` — span recording, when the spec asks and the
//!    environment provides a clock;
//! 3. `checkpointed(dir, every_n)` — two-slot durable snapshots;
//! 4. `instrument(registry, name)` + checkpoint metric binding;
//! 5. `hardened()` — panic isolation;
//! 6. `sorted_unplaced(..)` — the only disorder-tolerant stage, placed by
//!    the op chain (Impatience sort, spilling under `spill`, or the bucket
//!    sorter when a window runs below it — see below);
//! 7. the [`OpSpec`] chain;
//! 8. `checkpoint_egress()` — committed-output accounting;
//!
//! or, for `shards > 1`, steps 6–7 run *inside* each shard of a
//! `sharded` stage (per-shard sorters) joined by the deterministic
//! low-watermark merge. Each shard inherits steps 2, 4 and 5 from the
//! chain: spans under `{trace prefix}.shard{NN}` on lane `NN`, instruments
//! under `{name}.shard{NN}`, and the fence.
//!
//! Steps 6–7 are **sort-as-needed** (paper §IV): the op chain places the
//! sort, moving leading filters and windows *below* it when what consumes
//! the sorted stream cannot tell the difference — `late gate → hoisted ops
//! → sort → remaining ops` — and [`PipelineSpec::plan`] displays what it
//! decides. Labels still name spec positions (`{name}.00.sort`, op *i* at
//! `{name}.{i+1:02}`), wherever the ops run.

use crate::checkpoint::CheckpointCtx;
use crate::observer::Observer;
use crate::ops::{self, SortPolicy};
use crate::streamable::{input_stream, InputHandle, Streamable};
use crate::traced::TraceCtx;
use impatience_core::json::Json;
use impatience_core::{
    json, validate_adaptive, ConfigError, DeadLetterQueue, Event, LatePolicy, MemoryMeter,
    MetricsRegistry, Payload, ShedPolicy, StreamError, TickDuration, Validate,
};
use impatience_sort::{BucketSorter, ExternalImpatienceSorter, ImpatienceSorter, OnlineSorter};
use std::path::PathBuf;

/// One operator in the fixed `i64` op algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    /// Keep events with `payload >= min` (`where_`).
    FilterMin {
        /// Minimum payload kept.
        min: i64,
    },
    /// Multiply payloads by `factor` (`select`).
    Scale {
        /// Wrapping multiplier.
        factor: i64,
    },
    /// Align lifetimes to tumbling windows of `size` ticks.
    TumblingWindow {
        /// Window size, ticks.
        size: TickDuration,
    },
    /// Sum payloads per (window, key) (`reduce_by_key`).
    SumByKey,
    /// Keep the `k` largest payloads per window (`top_k`).
    TopK {
        /// Events retained per window.
        k: usize,
    },
    /// Deterministic fault injector for the failure-model tests: panics
    /// the operator when it sees `payload == value`. Under a `hardened`
    /// spec the panic becomes a typed [`StreamError::OperatorPanicked`] on
    /// this pipeline only.
    PanicOn {
        /// The poison payload.
        value: i64,
    },
}

impl OpSpec {
    fn from_json(v: &Json, index: usize) -> Result<OpSpec, ConfigError> {
        let field = format!("ops[{index}]");
        let name = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError::new(&field, "missing string field \"op\""))?;
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| ConfigError::new(format!("{field}.{key}"), "missing integer"))
        };
        match name {
            "filter_min" => Ok(OpSpec::FilterMin { min: int("min")? }),
            "scale" => Ok(OpSpec::Scale {
                factor: int("factor")?,
            }),
            "tumbling_window" => Ok(OpSpec::TumblingWindow {
                size: TickDuration::ticks(int("size")?),
            }),
            "sum_by_key" => Ok(OpSpec::SumByKey),
            "top_k" => Ok(OpSpec::TopK {
                k: usize::try_from(int("k")?)
                    .map_err(|_| ConfigError::new(format!("{field}.k"), "must be >= 1"))?,
            }),
            "panic_on" => Ok(OpSpec::PanicOn {
                value: int("value")?,
            }),
            other => Err(ConfigError::new(
                field,
                format!(
                    "unknown op {other:?} (filter_min | scale | tumbling_window | sum_by_key | \
                     top_k | panic_on)"
                ),
            )),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            OpSpec::FilterMin { min } => json!({"op": "filter_min", "min": *min}),
            OpSpec::Scale { factor } => json!({"op": "scale", "factor": *factor}),
            OpSpec::TumblingWindow { size } => {
                json!({"op": "tumbling_window", "size": size.as_ticks()})
            }
            OpSpec::SumByKey => json!({"op": "sum_by_key"}),
            OpSpec::TopK { k } => json!({"op": "top_k", "k": *k as i64}),
            OpSpec::PanicOn { value } => json!({"op": "panic_on", "value": *value}),
        }
    }

    fn validate(&self, index: usize) -> Result<(), ConfigError> {
        let field = format!("ops[{index}]");
        match self {
            OpSpec::TumblingWindow { size } if !size.is_positive() => {
                Err(ConfigError::new(field + ".size", "must be positive"))
            }
            OpSpec::TopK { k: 0 } => Err(ConfigError::new(field + ".k", "must be >= 1")),
            _ => Ok(()),
        }
    }

    /// What this op reads of its input's order — the property the planner
    /// decides on (see [`PipelineSpec::plan`]).
    pub fn class(&self) -> OpClass {
        match self {
            OpSpec::FilterMin { .. }
            | OpSpec::Scale { .. }
            | OpSpec::TumblingWindow { .. }
            | OpSpec::PanicOn { .. } => OpClass::PerEvent,
            // Wrapping add is commutative and associative, and keys are
            // sorted at emit.
            OpSpec::SumByKey => OpClass::Regrouping,
            // Equal scores keep their input order.
            OpSpec::TopK { .. } => OpClass::OrderReading,
        }
    }

    /// What running this per-event op below the sort does. A filter
    /// removes events and a window collapses distinct timestamps
    /// (Proposition 3.2); `Scale` shrinks nothing (i64 → i64) and the
    /// spec differential pins *when* `PanicOn` fires.
    fn hoist(&self) -> Hoist {
        match self {
            OpSpec::FilterMin { .. } => Hoist::Shrinks,
            OpSpec::TumblingWindow { size } => Hoist::Window(*size),
            _ => Hoist::Stays,
        }
    }

    /// The operator name in this op's stage label (`{name}.{stage:02}.*`).
    fn stage_name(&self) -> &'static str {
        match self {
            OpSpec::FilterMin { .. } | OpSpec::PanicOn { .. } => "where",
            OpSpec::Scale { .. } => "select",
            OpSpec::TumblingWindow { .. } => "tumbling_window",
            OpSpec::SumByKey => "reduce_by_key",
            OpSpec::TopK { .. } => "top_k",
        }
    }

    /// Chains this op. `Scale` and `PanicOn` go through the per-event
    /// entry that does not shrink the sort, not `select` (which places an
    /// unplaced sort first) or `where_` (which may run below it).
    fn apply(&self, s: Streamable<i64>) -> Streamable<i64> {
        let (name, hoist) = (self.stage_name(), self.hoist());
        match self.clone() {
            OpSpec::FilterMin { min } => s.where_(move |e| e.payload >= min),
            OpSpec::Scale { factor } => s.per_event(name, hoist, move |sink| {
                let scale = move |p: &i64| p.wrapping_mul(factor);
                Box::new(ops::SelectOp::new(scale, sink))
            }),
            OpSpec::TumblingWindow { size } => s.tumbling_window(size),
            OpSpec::SumByKey => s.reduce_by_key(|acc, p| *acc = acc.wrapping_add(p)),
            OpSpec::TopK { k } => s.top_k(k, |p| *p),
            OpSpec::PanicOn { value } => s.per_event(name, hoist, move |sink| {
                let poison = move |e: &Event<i64>| {
                    assert!(e.payload != value, "chaos op: poison payload {value}");
                    true
                };
                Box::new(ops::FilterOp::new(poison, sink))
            }),
        }
    }
}

/// What an op reads of the order of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Maps or drops one event at a time; reads no order at all.
    PerEvent,
    /// Output depends only on the *multiset* of events per timestamp: the
    /// order among equal timestamps — which the sorter does not fix across
    /// runs — cannot show.
    Regrouping,
    /// Output depends on the order among equal timestamps.
    OrderReading,
}

/// The sorter a plan's sort stage runs (see [`PipelineSpec::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SorterChoice {
    /// [`ImpatienceSorter`], or under `sort.spill` the external sorter
    /// built on it.
    Impatience,
    /// [`BucketSorter`], guessing buckets `step` apart: the hoisted
    /// window's size.
    Bucket {
        /// The hoisted window's size.
        step: TickDuration,
    },
}

impl SorterChoice {
    /// The one rule for which sorter sorts an input, applied wherever a
    /// sort is placed and read by [`PipelineSpec::plan`]. `window` is the
    /// size of the tumbling window that last aligned the input, if any. Aligned input carries a few window starts, one bucket each,
    /// so it runs the [`BucketSorter`] — unless `spill` is set or `shed` is
    /// [`ShedPolicy::ShedOldestRuns`]: spilling and shedding the oldest run
    /// work on Impatience's runs.
    pub fn for_input(window: Option<TickDuration>, spill: bool, shed: ShedPolicy) -> Self {
        match window {
            Some(step) if !spill && shed != ShedPolicy::ShedOldestRuns => {
                SorterChoice::Bucket { step }
            }
            _ => SorterChoice::Impatience,
        }
    }

    /// Builds the chosen sorter. Impatience spills into `spill_dir` when it
    /// is given one (the [`ExternalImpatienceSorter`]) and sorts in memory
    /// otherwise; the bucket sorter never spills.
    pub fn sorter<P: Payload>(self, spill_dir: Option<PathBuf>) -> Box<dyn OnlineSorter<Event<P>>> {
        match (self, spill_dir) {
            (SorterChoice::Bucket { step }, _) => Box::new(BucketSorter::new(step)),
            (SorterChoice::Impatience, Some(dir)) => Box::new(ExternalImpatienceSorter::new(dir)),
            (SorterChoice::Impatience, None) => Box::new(ImpatienceSorter::new()),
        }
    }
}

/// What running a per-event op below a sort does: it drops events
/// (`Shrinks`), aligns them to a tumbling window of the given size, which
/// collapses distinct times, or neither (`Stays`, and so do the ops after it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hoist {
    Shrinks,
    Window(TickDuration),
    Stays,
}

/// Sort-as-needed (§IV), the one rule for what runs below a sort that a
/// regrouping consumer reads, asked by [`PipelineSpec::plan`] and by the
/// grouped operator over an unplaced sort: how many of the per-event ops
/// `ahead` of the consumer go below, and the window that last aligned
/// what reaches the sort — the last one below, else `aligned`, the one
/// that aligned the input before the sort was claimed.
///
/// The leading run of ops that shrink the sort goes below, a window only
/// when it is the one window ahead, `aligned` counted: it translates
/// punctuation `p` to `start(p) − 1`, exactly the last window the consumer
/// may close, so the sorter cuts where the consumer would have emitted.
/// Two in cascade translate conservatively, and the sorter would hold a
/// finished window longer than the sort-first chain (DESIGN.md §5); then
/// only the filters ahead of the first window move.
pub(crate) fn below_sort(
    ahead: impl Iterator<Item = Hoist> + Clone,
    aligned: Option<TickDuration>,
) -> (usize, Option<TickDuration>) {
    let window = |h: Hoist| match h {
        Hoist::Window(size) => Some(size),
        _ => None,
    };
    let lone = ahead.clone().filter_map(window).count() + usize::from(aligned.is_some()) == 1;
    let below = (ahead.clone())
        .take_while(|h| *h == Hoist::Shrinks || lone && window(*h).is_some())
        .count();
    let last = ahead.take(below).filter_map(window).last();
    (below, last.or(aligned))
}

/// The order a spec's stages run in and the sorter its sort stage runs
/// (see [`PipelineSpec::plan`]). Displays as
/// `gate → 01.where → 02.tumbling_window → 00.sort[bucket] → 03.reduce_by_key`:
/// physical order left to right, each stage under its label, and the sort
/// marked `[bucket]` when it runs the [`BucketSorter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Leading ops that run below (ahead of) the sort, behind a late gate.
    hoisted: usize,
    sorter: SorterChoice,
    ops: Vec<&'static str>,
}

impl Plan {
    /// How many leading ops run below the sort.
    pub fn hoisted(&self) -> usize {
        self.hoisted
    }

    /// Which sorter the sort stage runs.
    pub fn sorter(&self) -> SorterChoice {
        self.sorter
    }
}

impl core::fmt::Display for Plan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let op = |i: usize| format!("{:02}.{}", i + 1, self.ops[i]);
        let mut stages = Vec::with_capacity(self.ops.len() + 2);
        if self.hoisted > 0 {
            stages.push("gate".to_string());
        }
        stages.extend((0..self.hoisted).map(op));
        stages.push(match self.sorter {
            SorterChoice::Impatience => "00.sort".to_string(),
            SorterChoice::Bucket { .. } => "00.sort[bucket]".to_string(),
        });
        stages.extend((self.hoisted..self.ops.len()).map(op));
        f.write_str(&stages.join(" → "))
    }
}

/// Durable-snapshot section of a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Snapshot cadence: every N punctuations.
    pub every_n: u32,
}

/// Sorting-stage section of a spec: the failure model of the single
/// disorder-tolerant stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortSpec {
    /// Late-event policy (reroute is rejected — that needs the partitioned
    /// framework, not a standalone stage).
    pub late: LatePolicy,
    /// Budget-pressure policy.
    pub shed: ShedPolicy,
    /// Bounded dead-letter queue capacity, when late/shed events should be
    /// retained for audit rather than just counted.
    pub dead_letter_capacity: Option<usize>,
    /// Use the external (spill-to-disk) sorter; requires a spill directory
    /// in the [`PipelineEnv`].
    pub spill: bool,
}

/// How ingress reorder latency is chosen for this pipeline. The engine
/// carries this as data for the ingress driver (the serving layer): a
/// fixed latency, or a quality-driven adaptive controller over a ladder
/// (lowered onto `impatience-disorder`'s online selector by the service).
#[derive(Debug, Clone, PartialEq)]
pub enum ReorderSpec {
    /// Punctuate a fixed `latency` behind the watermark.
    Fixed {
        /// The reorder latency.
        latency: TickDuration,
    },
    /// Pick the smallest ladder latency meeting a completeness target,
    /// online, from the live tardiness distribution.
    Adaptive {
        /// Candidate latencies, strictly increasing.
        ladder: Vec<TickDuration>,
        /// Completeness target in `(0, 1]`.
        quality: f64,
        /// Sliding-window size, arrivals.
        window: usize,
        /// Decisions to hold before stepping down the ladder.
        hold: u32,
    },
}

impl Default for ReorderSpec {
    fn default() -> Self {
        ReorderSpec::Fixed {
            latency: TickDuration::ZERO,
        }
    }
}

/// The most worker shards a spec may ask for: each is a thread, and a
/// client's spec must not start thousands.
pub const MAX_SHARDS: usize = 8;

/// A complete declarative pipeline: what used to be six hand-stacked
/// combinator calls, as validated data. See the module docs for the
/// lowering order and [`PipelineSpec::from_json`] for the wire schema.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Pipeline name: the metrics prefix and the per-tenant directory
    /// stem. `[A-Za-z0-9_-]+`.
    pub name: String,
    /// Register per-stage instruments (events/punctuations, sorter gauges,
    /// fault counters) into the environment's registry.
    pub instrument: bool,
    /// Record spans into the environment's trace clock.
    pub traced: bool,
    /// Isolate operator panics as typed errors.
    pub hardened: bool,
    /// Worker shards; 1 = run unsharded.
    pub shards: usize,
    /// Two-slot durable snapshots, when present.
    pub checkpoint: Option<CheckpointSpec>,
    /// The sorting stage's failure model.
    pub sort: SortSpec,
    /// Ingress reorder-latency selection (data for the ingress driver).
    pub reorder: ReorderSpec,
    /// The operator chain over the sorted stream ([`plan`](Self::plan)
    /// decides which leading ops physically run below the sort).
    pub ops: Vec<OpSpec>,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        PipelineSpec {
            name: "pipeline".to_string(),
            instrument: true,
            traced: false,
            hardened: true,
            shards: 1,
            checkpoint: None,
            sort: SortSpec::default(),
            reorder: ReorderSpec::default(),
            ops: Vec::new(),
        }
    }
}

impl PipelineSpec {
    /// A default spec named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        PipelineSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Sets instrumenting.
    pub fn with_instrument(mut self, on: bool) -> Self {
        self.instrument = on;
        self
    }

    /// Sets tracing.
    pub fn with_traced(mut self, on: bool) -> Self {
        self.traced = on;
        self
    }

    /// Sets panic isolation.
    pub fn with_hardened(mut self, on: bool) -> Self {
        self.hardened = on;
        self
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables checkpointing every `every_n` punctuations.
    pub fn with_checkpoint(mut self, every_n: u32) -> Self {
        self.checkpoint = Some(CheckpointSpec { every_n });
        self
    }

    /// Sets the sort section.
    pub fn with_sort(mut self, sort: SortSpec) -> Self {
        self.sort = sort;
        self
    }

    /// Sets the reorder section.
    pub fn with_reorder(mut self, reorder: ReorderSpec) -> Self {
        self.reorder = reorder;
        self
    }

    /// Appends an op.
    pub fn with_op(mut self, op: OpSpec) -> Self {
        self.ops.push(op);
        self
    }

    /// Parses the JSON wire schema. Every field except `name` is optional
    /// and defaults as in [`PipelineSpec::default`]:
    ///
    /// ```json
    /// {
    ///   "name": "tenant-a",
    ///   "instrument": true, "traced": false, "hardened": true,
    ///   "shards": 1,
    ///   "checkpoint": {"every_n": 16},
    ///   "sort": {"late": "drop", "shed": "force_punctuation",
    ///            "dead_letter_capacity": 65536, "spill": false},
    ///   "reorder": {"mode": "adaptive", "ladder": [1, 8, 64, 512],
    ///               "quality": 0.999, "window": 4096, "hold": 3},
    ///   "ops": [{"op": "filter_min", "min": 0},
    ///           {"op": "tumbling_window", "size": 100},
    ///           {"op": "sum_by_key"}]
    /// }
    /// ```
    ///
    /// The parsed spec is [`validate`](Validate::validate)d before being
    /// returned, so a `Ok` spec is always buildable (given a satisfying
    /// environment).
    pub fn from_json(v: &Json) -> Result<PipelineSpec, ConfigError> {
        let mut spec = PipelineSpec {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| ConfigError::new("name", "missing string field"))?
                .to_string(),
            ..PipelineSpec::default()
        };
        let flag = |key: &str, default: bool| -> Result<bool, ConfigError> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j
                    .as_bool()
                    .ok_or_else(|| ConfigError::new(key, "must be a boolean")),
            }
        };
        spec.instrument = flag("instrument", spec.instrument)?;
        spec.traced = flag("traced", spec.traced)?;
        spec.hardened = flag("hardened", spec.hardened)?;
        if let Some(j) = v.get("shards") {
            spec.shards = j
                .as_i64()
                .filter(|n| *n >= 0)
                .ok_or_else(|| ConfigError::new("shards", "must be a non-negative integer"))?
                as usize;
        }
        if let Some(j) = v.get("checkpoint") {
            let every_n = j
                .get("every_n")
                .and_then(Json::as_i64)
                .ok_or_else(|| ConfigError::new("checkpoint.every_n", "missing integer"))?;
            if !(1..=u32::MAX as i64).contains(&every_n) {
                return Err(ConfigError::new("checkpoint.every_n", "must be >= 1"));
            }
            spec.checkpoint = Some(CheckpointSpec {
                every_n: every_n as u32,
            });
        }
        if let Some(j) = v.get("sort") {
            let mut sort = SortSpec::default();
            if let Some(late) = j.get("late") {
                let name = late
                    .as_str()
                    .ok_or_else(|| ConfigError::new("sort.late", "must be a string"))?;
                sort.late = LatePolicy::from_name(name).map_err(|e| e.scoped("sort"))?;
            }
            if let Some(shed) = j.get("shed") {
                let name = shed
                    .as_str()
                    .ok_or_else(|| ConfigError::new("sort.shed", "must be a string"))?;
                sort.shed = ShedPolicy::from_name(name).map_err(|e| e.scoped("sort"))?;
            }
            if let Some(cap) = j.get("dead_letter_capacity") {
                sort.dead_letter_capacity =
                    Some(cap.as_i64().filter(|n| *n >= 1).ok_or_else(|| {
                        ConfigError::new("sort.dead_letter_capacity", "must be >= 1")
                    })? as usize);
            }
            if let Some(spill) = j.get("spill") {
                sort.spill = spill
                    .as_bool()
                    .ok_or_else(|| ConfigError::new("sort.spill", "must be a boolean"))?;
            }
            spec.sort = sort;
        }
        if let Some(j) = v.get("reorder") {
            spec.reorder = parse_reorder(j)?;
        }
        if let Some(j) = v.get("ops") {
            let arr = j
                .as_array()
                .ok_or_else(|| ConfigError::new("ops", "must be an array"))?;
            spec.ops = arr
                .iter()
                .enumerate()
                .map(|(i, op)| OpSpec::from_json(op, i))
                .collect::<Result<_, _>>()?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes back to the wire schema ([`from_json`](Self::from_json)
    /// round-trips).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("instrument".to_string(), Json::Bool(self.instrument)),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("hardened".to_string(), Json::Bool(self.hardened)),
            ("shards".to_string(), Json::Int(self.shards as i128)),
        ];
        if let Some(c) = &self.checkpoint {
            obj.push((
                "checkpoint".to_string(),
                json!({"every_n": c.every_n as i64}),
            ));
        }
        let mut sort = vec![
            ("late".to_string(), Json::Str(self.sort.late.name().into())),
            ("shed".to_string(), Json::Str(self.sort.shed.name().into())),
        ];
        if let Some(cap) = self.sort.dead_letter_capacity {
            sort.push(("dead_letter_capacity".to_string(), Json::Int(cap as i128)));
        }
        sort.push(("spill".to_string(), Json::Bool(self.sort.spill)));
        obj.push(("sort".to_string(), Json::Object(sort)));
        let reorder = match &self.reorder {
            ReorderSpec::Fixed { latency } => {
                json!({"mode": "fixed", "latency": latency.as_ticks()})
            }
            ReorderSpec::Adaptive {
                ladder,
                quality,
                window,
                hold,
            } => json!({
                "mode": "adaptive",
                "ladder": Json::Array(
                    ladder.iter().map(|l| Json::Int(l.as_ticks() as i128)).collect()
                ),
                "quality": *quality,
                "window": *window as i64,
                "hold": *hold as i64
            }),
        };
        obj.push(("reorder".to_string(), reorder));
        obj.push((
            "ops".to_string(),
            Json::Array(self.ops.iter().map(OpSpec::to_json).collect()),
        ));
        Json::Object(obj)
    }
}

fn parse_reorder(j: &Json) -> Result<ReorderSpec, ConfigError> {
    let mode = j
        .get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| ConfigError::new("reorder.mode", "missing string (fixed | adaptive)"))?;
    match mode {
        "fixed" => {
            let latency = j
                .get("latency")
                .and_then(Json::as_i64)
                .ok_or_else(|| ConfigError::new("reorder.latency", "missing integer"))?;
            Ok(ReorderSpec::Fixed {
                latency: TickDuration::ticks(latency),
            })
        }
        "adaptive" => {
            let ladder = j
                .get("ladder")
                .and_then(Json::as_array)
                .ok_or_else(|| ConfigError::new("reorder.ladder", "missing array"))?
                .iter()
                .map(|l| {
                    l.as_i64()
                        .map(TickDuration::ticks)
                        .ok_or_else(|| ConfigError::new("reorder.ladder", "entries are integers"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let quality = match j.get("quality") {
                None => 0.999,
                Some(q) => q
                    .as_f64()
                    .ok_or_else(|| ConfigError::new("reorder.quality", "must be a number"))?,
            };
            let window = match j.get("window") {
                None => 4096,
                Some(w) => w.as_i64().filter(|n| *n >= 1).ok_or_else(|| {
                    ConfigError::new("reorder.window", "must be a positive integer")
                })? as usize,
            };
            let hold = match j.get("hold") {
                None => 3,
                Some(h) => h
                    .as_i64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| {
                        ConfigError::new("reorder.hold", "must be an integer in 0..=4294967295")
                    })?,
            };
            Ok(ReorderSpec::Adaptive {
                ladder,
                quality,
                window,
                hold,
            })
        }
        other => Err(ConfigError::new(
            "reorder.mode",
            format!("unknown mode {other:?} (fixed | adaptive)"),
        )),
    }
}

impl Validate for PipelineSpec {
    fn validate(&self) -> Result<(), ConfigError> {
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(ConfigError::new(
                "name",
                "must be non-empty [A-Za-z0-9_-]+ (it names directories and metric prefixes)",
            ));
        }
        if self.shards == 0 {
            return Err(ConfigError::new("shards", "must be >= 1"));
        }
        if self.shards > MAX_SHARDS {
            return Err(ConfigError::new(
                "shards",
                format!("must be <= {MAX_SHARDS} (each shard is a worker thread)"),
            ));
        }
        if self.shards > 1 && self.checkpoint.is_some() {
            return Err(ConfigError::new(
                "shards",
                "checkpointed pipelines cannot shard (snapshot consistency across workers is \
                 not yet defined); drop `checkpoint` or set shards to 1",
            ));
        }
        if self.sort.late == LatePolicy::RerouteNextPartition {
            return Err(ConfigError::new(
                "sort.late",
                "reroute requires the partitioned framework; a spec pipeline has a single \
                 standalone sorting stage",
            ));
        }
        if let Some(c) = &self.checkpoint {
            if c.every_n == 0 {
                return Err(ConfigError::new("checkpoint.every_n", "must be >= 1"));
            }
        }
        match &self.reorder {
            ReorderSpec::Fixed { latency } => {
                if *latency < TickDuration::ZERO {
                    return Err(ConfigError::new("reorder.latency", "must be non-negative"));
                }
            }
            ReorderSpec::Adaptive {
                ladder,
                quality,
                window,
                ..
            } => {
                validate_adaptive(ladder, *quality, *window).map_err(|e| e.scoped("reorder"))?;
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            op.validate(i)?;
        }
        Ok(())
    }
}

/// Everything a spec needs from its surroundings to become a live
/// pipeline: shared instruments, the memory account, durable directories.
/// Follows the workspace builder convention (`Default` + `with_*`).
#[derive(Default)]
pub struct PipelineEnv {
    /// Registry the spec's instruments are registered into (when
    /// `spec.instrument`).
    pub registry: Option<MetricsRegistry>,
    /// The memory account charged by the sorting stage; give it a budget
    /// to arm the spec's shed policy.
    pub meter: MemoryMeter,
    /// Trace clock (required when `spec.traced`).
    pub trace: Option<TraceCtx>,
    /// Durable snapshot directory (required when `spec.checkpoint`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Spill directory (required when `spec.sort.spill`; sharded specs
    /// spill under per-shard subdirectories).
    pub spill_dir: Option<PathBuf>,
}

impl PipelineEnv {
    /// An empty environment: no registry, unbudgeted meter, no durable
    /// directories.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers instruments into `registry`.
    pub fn with_registry(mut self, registry: &MetricsRegistry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Charges sorter state to `meter`.
    pub fn with_meter(mut self, meter: &MemoryMeter) -> Self {
        self.meter = meter.clone();
        self
    }

    /// Records spans on `trace`.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Stores checkpoints under `dir`.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Spills cold runs under `dir`.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// A live pipeline lowered from a spec: push into `handle`, observe the
/// spec's sink.
pub struct BuiltPipeline {
    /// The ingress push endpoint.
    pub handle: InputHandle<i64>,
    /// Checkpoint control (recovery info, gating) for durable specs.
    pub ckpt: Option<CheckpointCtx>,
    /// The dead-letter queue, when the spec asked for one.
    pub dead_letters: Option<DeadLetterQueue<i64>>,
}

impl core::fmt::Debug for BuiltPipeline {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BuiltPipeline(durable={}, dead_letters={})",
            self.ckpt.is_some(),
            self.dead_letters.is_some()
        )
    }
}

impl PipelineSpec {
    /// Sort-as-needed (§IV): which leading ops [`build`](Self::build) runs
    /// below the sort, and which sorter sorts what they leave — a pure
    /// function of `ops` and `sort`, by the rule the built chain decides by.
    ///
    /// The *consumer* is the first op that is not [`OpClass::PerEvent`].
    /// Ops ahead of it may move below the sort only when it is
    /// [`OpClass::Regrouping`]: the sorter's order among equal timestamps
    /// depends on its merge shape, and so on what was filtered or aligned
    /// before it, and only a consumer that cannot see that order keeps the
    /// rewrite byte-identical. With an order-reading consumer, or none (the
    /// sink itself then sees tie order), the plan is sort-first. With a
    /// window below, the sort runs a [`BucketSorter`]
    /// ([`SorterChoice::for_input`]), whose order among equal times —
    /// arrival order — the regrouping consumer cannot see either.
    pub fn plan(&self) -> Plan {
        let consumer = self
            .ops
            .iter()
            .position(|op| op.class() != OpClass::PerEvent)
            .filter(|&at| self.ops[at].class() == OpClass::Regrouping);
        let ahead = self.ops[..consumer.unwrap_or(0)].iter().map(OpSpec::hoist);
        let (hoisted, window) = below_sort(ahead, None);
        Plan {
            hoisted,
            sorter: SorterChoice::for_input(window, self.sort.spill, self.sort.shed),
            ops: self.ops.iter().map(OpSpec::stage_name).collect(),
        }
    }

    /// Lowers the spec onto the combinator substrate in the canonical
    /// order (see the module docs) and subscribes `sink` as the terminal
    /// observer. Returns the push endpoint plus durable/audit handles.
    ///
    /// Environment requirements are checked up front with typed errors:
    /// `spec.traced` needs `env.trace`, `spec.checkpoint` needs
    /// `env.checkpoint_dir`, `spec.sort.spill` needs `env.spill_dir`.
    pub fn build(
        &self,
        env: &PipelineEnv,
        sink: Box<dyn Observer<i64>>,
    ) -> Result<BuiltPipeline, StreamError> {
        self.validate()?;
        if self.traced && env.trace.is_none() {
            return Err(ConfigError::new("traced", "environment provides no trace clock").into());
        }
        if self.checkpoint.is_some() && env.checkpoint_dir.is_none() {
            return Err(ConfigError::new(
                "checkpoint",
                "environment provides no checkpoint directory",
            )
            .into());
        }
        if self.sort.spill && env.spill_dir.is_none() {
            return Err(
                ConfigError::new("sort.spill", "environment provides no spill directory").into(),
            );
        }

        let dead_letters = self.sort.dead_letter_capacity.map(DeadLetterQueue::bounded);
        let (handle, mut s) = input_stream::<i64>();
        if self.traced {
            s = s.traced(env.trace.clone().expect("checked above"));
        }
        let mut ckpt = None;
        if let Some(c) = &self.checkpoint {
            let dir = env.checkpoint_dir.clone().expect("checked above");
            let (cs, ctx) =
                s.checkpointed(dir, c.every_n)
                    .map_err(|e| StreamError::RecoveryFailed {
                        detail: format!("opening checkpoint dir: {e}"),
                    })?;
            s = cs;
            ckpt = Some(ctx);
        }
        if self.instrument {
            if let Some(registry) = &env.registry {
                if let Some(ctx) = &ckpt {
                    ctx.bind_metrics(registry, &self.name);
                }
                s = s.instrument(registry, &self.name);
            }
        }
        if self.hardened {
            s = s.hardened();
        }

        // Steps 6–7, once per pipeline or once per shard: the sort under
        // the spec's policy, claimed unplaced, and the op chain, which
        // places it. Only a `spill` spec's sorter is given a directory.
        let spill_root = env.spill_dir.clone().filter(|_| self.sort.spill);
        let sort_then_ops = {
            let (ops, meter) = (self.ops.clone(), env.meter.clone());
            let policy = SortPolicy {
                late: self.sort.late,
                shed: self.sort.shed,
                dead_letters: dead_letters.clone(),
            };
            move |s: Streamable<i64>, spill_dir: Option<PathBuf>| {
                let s = s.sorted_unplaced(None, spill_dir, &meter, policy.clone())?;
                Ok::<_, StreamError>(ops.iter().fold(s, |s, op| op.apply(s)))
            }
        };
        if self.shards > 1 {
            s = s.sharded(self.shards, move |ss, ctx| {
                let spill_dir = spill_root.as_ref().map(|root| ctx.spill_dir(root));
                sort_then_ops(ss, spill_dir).expect("validated spec: policy accepted")
            });
        } else {
            s = sort_then_ops(s, spill_root)?;
        }

        s = s.checkpoint_egress();
        s.subscribe_observer(sink);
        Ok(BuiltPipeline {
            handle,
            ckpt,
            dead_letters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::{StreamMessage, Timestamp};

    fn ev(t: i64, key: u32, p: i64) -> Event<i64> {
        Event::keyed(Timestamp::new(t), key, p)
    }

    fn disordered_messages() -> Vec<StreamMessage<i64>> {
        let mut msgs = Vec::new();
        let mut batch = Vec::new();
        for i in 0..400i64 {
            // Mild disorder: odd events 7 ticks behind.
            let t = if i % 2 == 1 { i - 7 } else { i };
            batch.push(ev(t.max(0), (i % 8) as u32, i));
            if batch.len() == 32 {
                msgs.push(StreamMessage::batch(std::mem::take(&mut batch)));
                msgs.push(StreamMessage::Punctuation(Timestamp::new(i - 16)));
            }
        }
        if !batch.is_empty() {
            msgs.push(StreamMessage::batch(batch));
        }
        msgs.push(StreamMessage::Punctuation(Timestamp::new(399)));
        msgs.push(StreamMessage::Completed);
        msgs
    }

    fn demo_spec() -> PipelineSpec {
        PipelineSpec::new("demo")
            .with_op(OpSpec::FilterMin { min: 10 })
            .with_op(OpSpec::Scale { factor: 3 })
    }

    #[test]
    fn json_round_trip() {
        let spec = demo_spec()
            .with_checkpoint(16)
            .with_shards(1)
            .with_reorder(ReorderSpec::Adaptive {
                ladder: vec![TickDuration::ticks(1), TickDuration::ticks(64)],
                quality: 0.99,
                window: 512,
                hold: 2,
            })
            .with_sort(SortSpec {
                late: LatePolicy::DeadLetter,
                shed: ShedPolicy::ShedOldestRuns,
                dead_letter_capacity: Some(1024),
                spill: false,
            });
        let j = spec.to_json();
        let back = PipelineSpec::from_json(&j).expect("round-trip parses");
        assert_eq!(spec, back);
    }

    #[test]
    fn parse_rejects_with_typed_errors() {
        let cases: Vec<(Json, &str)> = vec![
            (json!({"shards": 2}), "name"),
            (json!({"name": "x", "shards": 0}), "shards"),
            (json!({"name": "x", "shards": 1_000_000}), "shards"),
            (
                json!({"name": "x", "reorder": json!({"mode": "adaptive",
                    "ladder": json!([1, 2]), "window": 1_000_000_000_000i64})}),
                "reorder.window",
            ),
            (
                json!({"name": "x", "shards": 4, "checkpoint": json!({"every_n": 8})}),
                "shards",
            ),
            (
                json!({"name": "x", "sort": json!({"late": "reroute"})}),
                "sort.late",
            ),
            (
                json!({"name": "x", "sort": json!({"shed": "never"})}),
                "sort.shed",
            ),
            (
                json!({"name": "x", "reorder": json!({"mode": "adaptive", "ladder": json!([5, 5])})}),
                "reorder.ladder",
            ),
            (
                json!({"name": "x", "reorder":
                    json!({"mode": "adaptive", "ladder": json!([1, 2]), "quality": 1.5})}),
                "reorder.quality",
            ),
            (
                json!({"name": "x", "ops": json!([json!({"op": "warp"})])}),
                "ops[0]",
            ),
            (
                json!({"name": "x", "ops": json!([json!({"op": "top_k", "k": 0})])}),
                "ops[0].k",
            ),
            (
                json!({"name": "x", "ops": json!([json!({"op": "top_k", "k": -1})])}),
                "ops[0].k",
            ),
            (
                json!({"name": "x", "reorder":
                    json!({"mode": "adaptive", "ladder": json!([1, 2]), "hold": 4_294_967_296i64})}),
                "reorder.hold",
            ),
            (json!({"name": "bad name"}), "name"),
            // One more rung than a byte can index.
            (
                json!({"name": "x", "reorder": json!({"mode": "adaptive",
                    "ladder": Json::Array((0..256).map(Json::Int).collect())})}),
                "reorder.ladder",
            ),
        ];
        for (j, field) in cases {
            let err = PipelineSpec::from_json(&j).expect_err(&format!("{j} must be rejected"));
            assert_eq!(err.field, field, "wrong field for {j}: {err}");
        }
    }

    #[test]
    fn build_matches_hand_stacked_combinators() {
        // The builder's lowering must be observationally identical to the
        // hand-written stack it replaces.
        let spec = demo_spec();
        let env = PipelineEnv::new();
        let (out, sink) = crate::observer::Output::new();
        let built = spec.build(&env, Box::new(sink)).expect("build");
        for m in disordered_messages() {
            built.handle.push(m).expect("push");
        }
        let from_spec = out.events();

        let (handle, s) = input_stream::<i64>();
        let meter = MemoryMeter::new();
        let out2 = s
            .hardened()
            .sorted(
                Box::new(ImpatienceSorter::new()),
                &meter,
                SortPolicy::default(),
            )
            .expect("sorted")
            .where_(|e| e.payload >= 10)
            .select(|p| p.wrapping_mul(3))
            .collect_output();
        for m in disordered_messages() {
            handle.push(m).expect("push");
        }
        assert_eq!(from_spec, out2.events());
        assert!(!from_spec.is_empty());
    }

    #[test]
    fn planner_truth_table() {
        use OpSpec::*;
        let f = FilterMin { min: 3 };
        let sc = Scale { factor: 2 };
        let w = TumblingWindow {
            size: TickDuration::ticks(100),
        };
        let w2 = TumblingWindow {
            size: TickDuration::ticks(1_000),
        };
        let sum = SumByKey;
        let top = TopK { k: 2 };
        let boom = PanicOn { value: 13 };
        let cases: Vec<(Vec<OpSpec>, usize, &str)> = vec![
            (vec![], 0, "00.sort"),
            // No consumer hides tie order from the sink: sort-first.
            (vec![f.clone()], 0, "00.sort → 01.where"),
            (vec![w.clone()], 0, "00.sort → 01.tumbling_window"),
            (
                vec![f.clone(), w.clone()],
                0,
                "00.sort → 01.where → 02.tumbling_window",
            ),
            (vec![sc.clone()], 0, "00.sort → 01.select"),
            (vec![sum.clone()], 0, "00.sort → 01.reduce_by_key"),
            // A regrouping consumer: the leading filters and windows go below.
            (
                vec![f.clone(), sum.clone()],
                1,
                "gate → 01.where → 00.sort → 02.reduce_by_key",
            ),
            (
                vec![w.clone(), sum.clone()],
                1,
                "gate → 01.tumbling_window → 00.sort[bucket] → 02.reduce_by_key",
            ),
            (
                vec![f.clone(), w.clone(), sum.clone()],
                2,
                "gate → 01.where → 02.tumbling_window → 00.sort[bucket] → 03.reduce_by_key",
            ),
            (
                vec![w.clone(), f.clone(), sum.clone()],
                2,
                "gate → 01.tumbling_window → 02.where → 00.sort[bucket] → 03.reduce_by_key",
            ),
            // Two windows ahead of the consumer: cascaded punctuation
            // translation is lossy, so no window moves — only the filters
            // ahead of the first.
            (
                vec![w.clone(), w2.clone(), sum.clone()],
                0,
                "00.sort → 01.tumbling_window → 02.tumbling_window → 03.reduce_by_key",
            ),
            (
                vec![f.clone(), w.clone(), w2, sum.clone()],
                1,
                "gate → 01.where → 00.sort → 02.tumbling_window → 03.tumbling_window → \
                 04.reduce_by_key",
            ),
            // A window behind the consumer does not count.
            (
                vec![w.clone(), sum.clone(), w.clone(), sum.clone()],
                1,
                "gate → 01.tumbling_window → 00.sort[bucket] → 02.reduce_by_key → 03.tumbling_window → \
                 04.reduce_by_key",
            ),
            // What follows the regrouping op does not matter.
            (
                vec![w.clone(), sum.clone(), top.clone()],
                1,
                "gate → 01.tumbling_window → 00.sort[bucket] → 02.reduce_by_key → 03.top_k",
            ),
            (
                vec![f.clone(), sum.clone(), w.clone(), sum.clone()],
                1,
                "gate → 01.where → 00.sort → 02.reduce_by_key → 03.tumbling_window → \
                 04.reduce_by_key",
            ),
            // An order-reading consumer: sort-first.
            (
                vec![w.clone(), top.clone()],
                0,
                "00.sort → 01.tumbling_window → 02.top_k",
            ),
            (
                vec![f.clone(), w.clone(), top.clone(), sum.clone()],
                0,
                "00.sort → 01.where → 02.tumbling_window → 03.top_k → 04.reduce_by_key",
            ),
            // `Scale` and `PanicOn` never move, and end the hoisted run.
            (
                vec![sc.clone(), f.clone(), sum.clone()],
                0,
                "00.sort → 01.select → 02.where → 03.reduce_by_key",
            ),
            (
                vec![f.clone(), sc, w.clone(), sum.clone()],
                1,
                "gate → 01.where → 00.sort → 02.select → 03.tumbling_window → 04.reduce_by_key",
            ),
            (
                vec![boom.clone(), w.clone(), sum.clone()],
                0,
                "00.sort → 01.where → 02.tumbling_window → 03.reduce_by_key",
            ),
            (
                vec![w.clone(), boom, sum.clone()],
                1,
                "gate → 01.tumbling_window → 00.sort[bucket] → 02.where → 03.reduce_by_key",
            ),
        ];
        for (ops, hoisted, shown) in cases {
            let mut spec = PipelineSpec::new("p");
            spec.ops = ops;
            let plan = spec.plan();
            assert_eq!(plan.hoisted(), hoisted, "{:?}", spec.ops);
            assert_eq!(plan.to_string(), shown, "{:?}", spec.ops);
        }
        // The sort section picks the sorter, never the hoist: spilling and
        // shedding the oldest run need Impatience's runs.
        let shed = |shed| SortSpec {
            shed,
            ..SortSpec::default()
        };
        let bucket = SorterChoice::Bucket {
            step: TickDuration::ticks(100),
        };
        let sections = [
            (shed(ShedPolicy::ForcePunctuation), bucket),
            (shed(ShedPolicy::SpillColdRuns), bucket),
            (shed(ShedPolicy::ShedOldestRuns), SorterChoice::Impatience),
            (
                SortSpec {
                    spill: true,
                    ..SortSpec::default()
                },
                SorterChoice::Impatience,
            ),
            (
                SortSpec {
                    spill: true,
                    shed: ShedPolicy::SpillColdRuns,
                    ..SortSpec::default()
                },
                SorterChoice::Impatience,
            ),
        ];
        for (sort, sorter) in sections {
            let spec = PipelineSpec::new("p")
                .with_sort(sort.clone())
                .with_op(w.clone())
                .with_op(sum.clone());
            let plan = spec.plan();
            assert_eq!((plan.hoisted(), plan.sorter()), (1, sorter), "{sort:?}");
            let shown = match sorter {
                SorterChoice::Impatience => "00.sort",
                SorterChoice::Bucket { .. } => "00.sort[bucket]",
            };
            assert_eq!(
                plan.to_string(),
                format!("gate → 01.tumbling_window → {shown} → 02.reduce_by_key"),
                "{sort:?}"
            );
        }
    }

    #[test]
    fn planner_rule_holds_for_every_shape_up_to_four_ops() {
        let kinds = [
            OpSpec::FilterMin { min: 3 },
            OpSpec::Scale { factor: 2 },
            OpSpec::TumblingWindow {
                size: TickDuration::ticks(100),
            },
            OpSpec::SumByKey,
            OpSpec::TopK { k: 2 },
            OpSpec::PanicOn { value: 13 },
        ];
        // The rule, restated by op name.
        let expected = |ops: &[OpSpec]| {
            let mut windows_ahead = 0;
            let mut regrouped = false;
            for op in ops {
                match op {
                    OpSpec::TumblingWindow { .. } => windows_ahead += 1,
                    OpSpec::SumByKey => regrouped = true,
                    OpSpec::TopK { .. } => {}
                    _ => continue,
                }
                if !matches!(op, OpSpec::TumblingWindow { .. }) {
                    break;
                }
            }
            let mut hoisted = 0;
            for op in ops {
                match op {
                    OpSpec::FilterMin { .. } if regrouped => hoisted += 1,
                    OpSpec::TumblingWindow { .. } if regrouped && windows_ahead == 1 => {
                        hoisted += 1
                    }
                    _ => break,
                }
            }
            hoisted
        };
        let mut shapes: Vec<Vec<OpSpec>> = vec![Vec::new()];
        let mut checked = 0;
        for _len in 0..=4 {
            for ops in &shapes {
                let mut spec = PipelineSpec::new("p");
                spec.ops = ops.clone();
                let plan = spec.plan();
                assert_eq!(plan.hoisted(), expected(ops), "{ops:?}");
                // What the chain built is what the plan says.
                assert_eq!(built_order(&spec), plan.to_string(), "{ops:?}");
                checked += 1;
            }
            shapes = shapes
                .iter()
                .flat_map(|ops| {
                    kinds.iter().map(move |k| {
                        let mut next = ops.clone();
                        next.push(k.clone());
                        next
                    })
                })
                .collect();
        }
        assert_eq!(checked, 1 + 6 + 36 + 216 + 1296);
    }

    /// Forty events, disordered within each batch and none late, and one
    /// punctuation after the first twenty that leaves events in any sort.
    /// No payload is 13, the shape test's `PanicOn` value.
    fn short_stream() -> Vec<StreamMessage<i64>> {
        let events = |from: i64| {
            let evs = (from..from + 20).map(|i| ev(10 * (i ^ 1), (i % 3) as u32, 2 * i));
            StreamMessage::batch(evs.collect())
        };
        vec![
            events(0),
            StreamMessage::Punctuation(Timestamp::new(150)),
            events(20),
        ]
    }

    /// The physical order of `spec`'s built stages, displayed as [`Plan`]
    /// displays it, read from the counters of a [`short_stream`] run. The
    /// sort holds events at the end, so a stage below it takes in more
    /// events than the sort lets out and a stage above it at most as many;
    /// a sorter that never built a run is the bucket sorter.
    fn built_order(spec: &PipelineSpec) -> String {
        let registry = MetricsRegistry::new();
        let (out, sink) = crate::observer::Output::new();
        let env = PipelineEnv::new().with_registry(&registry);
        let built = spec.build(&env, Box::new(sink)).expect("build");
        for m in short_stream() {
            built.handle.push(m).expect("push");
        }
        let count = |stage: &str, side: &str| {
            let label = stage.trim_end_matches("[bucket]");
            registry.counter(&format!("p.{label}.events_{side}")).get()
        };
        let sort_out = count("00.sort", "out");
        assert!(sort_out < count("00.sort", "in"), "the sort holds events");
        let (below, above): (Vec<_>, Vec<_>) = (spec.ops.iter().enumerate())
            .map(|(i, op)| format!("{:02}.{}", i + 1, op.stage_name()))
            .partition(|stage| count(stage, "in") > sort_out);
        let sort = match registry.gauge("p.00.sorter.runs").high_water() {
            0 => "00.sort[bucket]",
            _ => "00.sort",
        };
        let stages: Vec<String> = (below.iter().cloned())
            .chain([sort.to_string()])
            .chain(above)
            .collect();
        // Each stage hands on what the next takes in, from the first, which
        // takes in every event, to the sink.
        assert_eq!(count(&stages[0], "in"), 40);
        for pair in stages.windows(2) {
            assert_eq!(count(&pair[0], "out"), count(&pair[1], "in"), "{pair:?}");
        }
        let last = stages.last().expect("a sort");
        assert_eq!(count(last, "out"), out.events().len() as u64);
        let gate = (!below.is_empty()).then(|| "gate".to_string());
        let shown: Vec<String> = gate.into_iter().chain(stages).collect();
        shown.join(" → ")
    }

    #[test]
    fn labels_name_spec_positions_in_a_hoisted_plan() {
        let registry = MetricsRegistry::new();
        let env = PipelineEnv::new().with_registry(&registry);
        let spec = PipelineSpec::new("h")
            .with_op(OpSpec::FilterMin { min: 10 })
            .with_op(OpSpec::TumblingWindow {
                size: TickDuration::ticks(50),
            })
            .with_op(OpSpec::SumByKey);
        assert_eq!(spec.plan().hoisted(), 2);
        let (out, sink) = crate::observer::Output::new();
        let built = spec.build(&env, Box::new(sink)).expect("build");
        for m in disordered_messages() {
            built.handle.push(m).expect("push");
        }
        assert!(out.is_completed());
        let count = |name: &str| registry.counter(name).get();
        // The filter runs first and sees everything the gate let through;
        // the sorter, third in the chain, is still stage 00.
        assert_eq!(
            count("h.01.where.events_in") + count("h.00.sort.late_dropped"),
            400
        );
        assert_eq!(
            count("h.00.sort.events_in"),
            count("h.02.tumbling_window.events_out")
        );
        assert_eq!(
            count("h.03.reduce_by_key.events_in"),
            count("h.00.sort.events_out")
        );
        // The bucket sorter publishes what it holds, and no runs.
        assert!(registry.gauge("h.00.sorter.buffered_events").high_water() > 0);
        assert_eq!(registry.gauge("h.00.sorter.runs").high_water(), 0);
    }

    #[test]
    fn plan_names_every_op_as_its_stage_registers() {
        // `Plan` prints labels it does not mint; `Streamable` mints them.
        let ops = [
            OpSpec::FilterMin { min: 0 },
            OpSpec::Scale { factor: 1 },
            OpSpec::TumblingWindow {
                size: TickDuration::ticks(10),
            },
            OpSpec::SumByKey,
            OpSpec::TopK { k: 1 },
            OpSpec::PanicOn { value: -1 },
        ];
        let registry = MetricsRegistry::new();
        let mut spec = PipelineSpec::new("n");
        spec.ops = ops.to_vec();
        let sink = Box::new(crate::observer::BlackHoleSink::new());
        let _built = spec
            .build(&PipelineEnv::new().with_registry(&registry), sink)
            .expect("build");
        let snapshot = registry.snapshot().to_json().to_string();
        // (The gate is the unlabelled front half of stage 00.)
        for stage in spec
            .plan()
            .to_string()
            .split(" → ")
            .filter(|s| *s != "gate")
        {
            assert!(
                snapshot.contains(&format!("\"n.{stage}.events_in\"")),
                "{stage} is not a registered stage"
            );
        }
    }

    #[test]
    fn instrumented_build_registers_canonical_names() {
        let registry = MetricsRegistry::new();
        let env = PipelineEnv::new().with_registry(&registry);
        let spec = demo_spec();
        let (out, sink) = crate::observer::Output::new();
        let built = spec.build(&env, Box::new(sink)).expect("build");
        for m in disordered_messages() {
            built.handle.push(m).expect("push");
        }
        let _ = out.events();
        let json = registry.snapshot().to_json().to_string();
        for needle in [
            "demo.00.sort.events_in",
            "demo.00.sort.late_dropped",
            "demo.00.sorter.runs",
            "demo.operator_panics",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn durable_build_checkpoints_and_recovers() {
        let dir = std::env::temp_dir().join(format!("spec-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = PipelineEnv::new().with_checkpoint_dir(&dir);
        let spec = demo_spec().with_checkpoint(2);
        {
            let (out, sink) = crate::observer::Output::new();
            let built = spec.build(&env, Box::new(sink)).expect("build");
            assert!(built.ckpt.is_some());
            for m in disordered_messages() {
                built.handle.push(m).expect("push");
            }
            let _ = out.events();
        }
        // Second build against the same directory restores.
        let (out, sink) = crate::observer::Output::new();
        let built = spec.build(&env, Box::new(sink)).expect("rebuild");
        let info = built
            .ckpt
            .as_ref()
            .expect("durable")
            .recovery()
            .expect("a restore happened");
        assert!(info.messages_seen > 0);
        drop(out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_env_requirements_are_typed() {
        let spec = demo_spec().with_checkpoint(4);
        let err = spec
            .build(
                &PipelineEnv::new(),
                Box::new(crate::observer::BlackHoleSink::new()),
            )
            .expect_err("missing checkpoint dir");
        match err {
            StreamError::InvalidConfig(msg) => assert!(msg.contains("checkpoint"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
