//! Sampling helpers for the workload generators, and the one ordering
//! helper their arrival keys share.
//!
//! These are re-exports of the in-tree samplers in
//! [`impatience_testkit::rng`] (the workspace deliberately avoids `rand` /
//! `rand_distr`; Box–Muller and inverse-CDF sampling cover everything the
//! generators need). Kept as a module so generator code keeps reading
//! `rand_util::normal(...)`.

pub use impatience_testkit::rng::{exponential, log_normal, normal};

/// `t`'s bits with the sign flipped: unsigned order is then signed order,
/// so a time can lead a packed sort key.
pub(crate) fn ordered_bits(t: i64) -> u64 {
    t as u64 ^ 1 << 63
}
