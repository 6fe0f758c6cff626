//! # impatience-disorder
//!
//! The four measures of stream disorder from §II of the Impatience paper
//! (Estivill-Castro & Wood's adaptive-sorting measures, specialized for
//! event streams):
//!
//! * [`count_inversions`] — strict out-of-order pairs (`u128`: Table I's
//!   AndroidLog hits `7.3 × 10^13`);
//! * [`max_inversion_distance`] — how far the worst-delayed event must
//!   travel to its sorted position;
//! * [`count_natural_runs`] — maximal nondecreasing segments;
//! * [`min_interleaved_runs`] — the minimum number of sorted streams whose
//!   interleave reproduces the input, the bound in Proposition 3.1.
//!
//! All algorithms are `O(n log n)` with brute-force references exposed for
//! testing. [`DisorderReport`] bundles them into a Table I row.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distance;
pub mod interleaved;
pub mod inversions;
pub mod online;
pub mod report;
pub mod runs;

pub use distance::{max_inversion_distance, max_inversion_distance_naive};
pub use interleaved::{
    longest_strictly_decreasing, longest_strictly_decreasing_naive, min_interleaved_runs,
};
pub use inversions::{count_inversions, count_inversions_naive};
pub use online::{AdaptiveConfig, AdaptiveGauges, AdaptiveLatency, DelayWindow};
pub use report::DisorderReport;
pub use runs::{count_natural_runs, mean_run_length, natural_run_lengths};
