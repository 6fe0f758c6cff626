//! # impatience-core
//!
//! Core data model for the Impatience streaming stack — a Rust reproduction
//! of *"Impatience is a Virtue: Revisiting Disorder in High-Performance Log
//! Analytics"* (Chandramouli, Goldstein, Li — ICDE 2018).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Timestamp`] / [`TickDuration`] — logical event and processing time;
//! * [`Event`] — the Trill-style event layout (two 64-bit timestamps,
//!   32-bit key, 64-bit hash, payload);
//! * [`EventBatch`] + [`FilterBitmap`] — batched data with
//!   bitmap-based selection, matching Trill's columnar execution model;
//! * [`StreamMessage`] — batches and punctuations, plus validators for the
//!   punctuation and ordered-stream contracts;
//! * [`MemoryMeter`] — deterministic accounting of buffered operator state
//!   (the paper's Fig 10 memory metric);
//! * [`MetricsRegistry`] — named counters, gauges, and log2 histograms with
//!   deterministic JSON snapshot export ([`MetricsSnapshot`]).
//!
//! Higher layers: `impatience-sort` (the sorting algorithms),
//! `impatience-engine` (the in-order operator substrate, sort-as-needed and
//! the Impatience framework), and `impatience-workloads` (the datasets).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod bitmap;
pub mod config;
pub mod error;
pub mod event;
pub mod json;
pub mod memory;
pub mod message;
pub mod metrics;
pub mod policy;
pub mod snapshot;
pub mod time;
pub mod trace;

pub use batch::{EventBatch, DEFAULT_BATCH_SIZE};
pub use bitmap::FilterBitmap;
pub use config::{validate_adaptive, validate_ladder, ConfigError, Validate, MAX_ADAPTIVE_WINDOW};
pub use error::{Result, StreamError};
pub use event::{hash_key, EvalPayload, Event, EventTimed, Payload};
pub use json::{Json, JsonError};
pub use memory::{format_bytes, MemoryMeter};
pub use message::{validate_ordered_stream, validate_punctuation_contract, StreamMessage};
pub use metrics::{
    Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use policy::{DeadLetter, DeadLetterQueue, DeadLetterReason, LatePolicy, ShedPolicy};
pub use snapshot::{
    crc32c, decode_framed, encode_framed, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, SNAPSHOT_VERSION,
};
pub use time::{TickDuration, Timestamp, WatermarkClock};
pub use trace::{
    LatencyStage, ProvenanceTracker, SpanKind, SpanRecord, SpanRing, TraceClock, TraceConfig,
    TraceSink,
};
