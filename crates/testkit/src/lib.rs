//! # impatience-testkit
//!
//! In-tree, zero-dependency test infrastructure for the Impatience
//! workspace. This crate exists so the whole repository builds and tests
//! **offline**: no registry access, no vendored third-party code.
//!
//! Subsystems:
//!
//! * [`rng`] — a deterministic, seedable PRNG (SplitMix64-seeded
//!   xoshiro256**) with a `rand`-style [`rng::Rng`] trait, uniform ranges,
//!   and the `normal` / `exponential` / `log_normal` samplers the workload
//!   generators need;
//! * [`prop`] — a minimal property-testing harness: composable strategies
//!   ([`prop::vec`], integer ranges, tuples, [`prop::Strategy::prop_map`]),
//!   a case runner with greedy input shrinking, and fixed-seed replay via
//!   `IMPATIENCE_PROP_SEED`;
//! * [`crash`] — seeded crash-point selection plus on-disk damage
//!   (bit flips, torn tails) for the checkpoint/WAL recovery suite;
//! * [`netchaos`] — a seeded in-process TCP fault proxy (kills, resets,
//!   stalls, partial writes, duplicate frames at frame boundaries) and a
//!   malformed-frame fuzzer for wire-protocol robustness suites;
//! * [`spec`] — a seeded, shrinking generator of `(PipelineSpec,
//!   arrivals)` cases for the spec-path differential, with stream faults
//!   (duplicates, far stragglers, a regressed punctuation, extreme
//!   payloads) laid over the arrivals;
//! * [`trace`] — structural assertions over recorded trace spans
//!   (the laminar-nesting invariant) for the trace conformance suite.
//!
//! ## Replaying a property failure
//!
//! When a property fails, the harness shrinks the input greedily and panics
//! with a report containing the failing case seed:
//!
//! ```text
//! [impatience-testkit] property 'online_sorters_sort_correctly' failed
//!   case 17 of 128, seed 0x9e3779b97f4a7c15
//!   replay with: IMPATIENCE_PROP_SEED=0x9e3779b97f4a7c15 cargo test <test name>
//! ```
//!
//! Setting `IMPATIENCE_PROP_SEED` runs exactly that case (no other cases,
//! no re-seeding), which makes failures bit-for-bit reproducible on any
//! machine. `IMPATIENCE_PROP_CASES` overrides the case count globally.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crash;
pub mod netchaos;
pub mod prop;
pub mod rng;
pub mod spec;
pub mod trace;

pub use crash::{
    corrupt_byte, corrupt_random_byte, crash_point, files_with_suffix, inject_disk_fault,
    newest_with_suffix, tear_tail, truncate_file, CrashPoint, DiskFault,
};
pub use netchaos::{seeded_fault_plan, Attack, FaultProxy, NetFault, WireFuzzer};
pub use rng::{Rng, SeedableRng, StdRng};
pub use spec::{Faults, FaultsLaid, SpecCase, SpecCases};
pub use trace::assert_laminar;
