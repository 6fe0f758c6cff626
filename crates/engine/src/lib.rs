//! # impatience-engine
//!
//! A Trill-like, single-threaded, batched, push-based streaming engine —
//! the substrate the Impatience paper builds on. All operators here are
//! **in-order** operators: the sorting operator ([`ops::SortOp`], wrapping
//! Impatience sort) is the only component that ever sees disorder, which is
//! the architectural bet of the paper (§I, §V-B): high-performance in-order
//! operators, used unmodified.
//!
//! Key pieces:
//!
//! * [`Streamable`] — Trill's immutable stream abstraction (§IV-B), with
//!   `where_` / `select` / `tumbling_window` / `aggregate` /
//!   `group_aggregate` / `union` / `top_k` / `followed_by` combinators;
//! * [`observer`] — the push protocol and terminal sinks;
//! * [`ops`] — the operator implementations (bitmap selection §VI-C,
//!   timestamp-adjusting windows §IV-A2, synchronizing union §V-A, ...);
//! * [`ingress`] — punctuation policies (`watermark − reorder_latency`)
//!   and disordered-to-ordered entry points;
//! * [`shell`] — the one wrapper around every stage ([`StageShell`]):
//!   opt-in per-operator instrumentation ([`Streamable::instrument`]:
//!   traffic counters, busy time, watermark-lag histograms, sorter
//!   gauges), panic fencing ([`Streamable::hardened`]) and span emission,
//!   in one pass with no shared-state work per event;
//! * [`checkpoint`] — durable pipelines: operator-state checkpoint/restore
//!   ([`Streamable::checkpointed`]) backed by two-slot atomic snapshots,
//!   paired with the write-ahead ingest log ([`ingress::Wal`]) for
//!   exactly-once crash recovery;
//! * [`sharded`] — multi-core execution: [`Streamable::sharded`] runs N
//!   hash-partitioned copies of a pipeline on worker threads behind bounded
//!   channels and re-joins them with a deterministic low-watermark merge;
//! * [`traced`] — opt-in structured tracing ([`Streamable::traced`]):
//!   per-stage span recording into lock-free rings, shard-queue wait
//!   timing, and sampled ingress→egress latency provenance decomposed by
//!   stage, exportable as Chrome trace-event JSON.
//!
//! ```
//! use impatience_core::{Event, TickDuration, Timestamp};
//! use impatience_engine::Streamable;
//!
//! let events: Vec<Event<u32>> = (0..100)
//!     .map(|i| Event::point(Timestamp::new(i), (i % 7) as u32))
//!     .collect();
//! let counts = Streamable::from_ordered_events(events)
//!     .where_(|e| e.payload < 5)
//!     .tumbling_window(TickDuration::ticks(50))
//!     .count()
//!     .into_payloads();
//! assert_eq!(counts.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod ingress;
pub mod observer;
pub mod ops;
pub mod sharded;
pub mod shell;
pub mod spec;
pub mod streamable;
pub mod traced;

pub use checkpoint::{
    CheckpointCtx, CheckpointGate, CheckpointMetrics, CheckpointNote, Checkpointable, Checkpointer,
    RecoveryInfo, CHECKPOINT_MAGIC,
};
pub use ingress::{ingress_sorted, punctuate_arrivals, replay_wal, IngressPolicy, Wal, WalIngress};
pub use observer::{BlackHoleSink, CollectorSink, FnSink, Observer, Output, SharedSink};
pub use sharded::{ShardCtx, ShardOptions, SHARD_QUEUE_MESSAGES};
pub use shell::{OperatorMetrics, StageShell};
pub use spec::{
    BuiltPipeline, CheckpointSpec, OpClass, OpSpec, PipelineEnv, PipelineSpec, Plan, ReorderSpec,
    SortSpec,
};
pub use streamable::{input_stream, InputHandle, Streamable};
pub use traced::TraceCtx;
