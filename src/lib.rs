//! # impatience
//!
//! A Rust implementation of **"Impatience is a Virtue: Revisiting Disorder
//! in High-Performance Log Analytics"** (Chandramouli, Goldstein, Li —
//! ICDE 2018): Impatience sort, sort-as-needed execution, and the
//! Impatience framework, together with the Trill-like streaming substrate
//! they run on.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `impatience-core` | events, batches, punctuations, memory accounting |
//! | [`disorder`] | `impatience-disorder` | inversions / distance / runs / interleaved |
//! | [`sort`] | `impatience-sort` | Impatience & Patience sort + baselines |
//! | [`engine`] | `impatience-engine` | in-order streaming operators, `DisorderedStreamable` and the Impatience framework |
//! | [`workloads`] | `impatience-workloads` | CloudLog / AndroidLog / synthetic generators |
//!
//! ## Quickstart
//!
//! ```
//! use impatience::prelude::*;
//!
//! // A disordered click stream: the paper's §III-A example.
//! let mut sorter: ImpatienceSorter<i64> = ImpatienceSorter::new();
//! for t in [2, 6, 5, 1] { sorter.push(t); }
//! let mut out = Vec::new();
//! sorter.punctuate(Timestamp::new(2), &mut out);
//! assert_eq!(out, vec![1, 2]);
//! ```
//!
//! See `examples/` for end-to-end scenarios (multi-latency dashboard,
//! ad-click analytics with the advanced framework, pattern funnels) and
//! `crates/bench` for the harness regenerating every table and figure of
//! the paper.

#![warn(missing_docs)]

pub use impatience_core as core;
pub use impatience_disorder as disorder;
pub use impatience_engine as engine;
pub use impatience_sort as sort;
pub use impatience_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use impatience_core::{
        EvalPayload, Event, EventBatch, Json, MemoryMeter, MetricsRegistry, MetricsSnapshot,
        Payload, StreamMessage, TickDuration, Timestamp,
    };
    pub use impatience_disorder::DisorderReport;
    pub use impatience_engine::ops::{CountAgg, SumAgg};
    pub use impatience_engine::{
        DisorderedStreamable, IngressPolicy, InputHandle, Output, Streamable, Streamables,
    };
    pub use impatience_sort::{
        CutBuffer, HeapSorter, ImpatienceConfig, ImpatienceSorter, OnlineSorter, PatienceSort,
        SortAlgorithm,
    };
    pub use impatience_workloads::{
        generate_androidlog, generate_cloudlog, generate_synthetic, AndroidLogConfig,
        CloudLogConfig, Dataset, SyntheticConfig,
    };
}

/// README.md's code blocks, compiled (and, unless `no_run`, executed) as
/// doctests, so the README can only name functions that exist.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
