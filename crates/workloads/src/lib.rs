//! # impatience-workloads
//!
//! Out-of-order stream generators reproducing the disorder structure of
//! the paper's evaluation datasets (§II, §VI-A):
//!
//! * [`generate_synthetic`] — the paper's parametric generator: a sorted
//!   stream with `p%` of events delayed by `|N(0, d)|` ticks;
//! * [`generate_cloudlog`] — the CloudLog model (many servers forwarding
//!   immediately + failure bursts): fine-grained chaos, coarse-grained
//!   order;
//! * [`generate_androidlog`] — the AndroidLog / Device Analyzer model
//!   (devices uploading long ordered batches hours late): fine-grained
//!   order, coarse-grained chaos.
//!
//! The real CloudLog (Microsoft-internal) and AndroidLog (Cambridge Device
//! Analyzer) datasets are not redistributable; these models are calibrated
//! against the published Table I statistics and Fig 2 shapes, which is the
//! structure the sorting algorithms and the Impatience framework react to.
//! See DESIGN.md §3 for the substitution argument.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod androidlog;
pub mod cloudlog;
pub mod dataset;
pub mod rand_util;
pub mod synthetic;

pub use androidlog::{generate_androidlog, AndroidLogConfig};
pub use cloudlog::{generate_cloudlog, CloudLogConfig};
pub use dataset::Dataset;
pub use synthetic::{generate_synthetic, SyntheticConfig};
