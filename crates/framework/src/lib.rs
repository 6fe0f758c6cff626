//! # impatience-framework
//!
//! A shim that keeps the frozen `stackbench/` benchmark building: it holds
//! exactly the names `stackbench/src/framework.rs` imports. The Impatience
//! framework itself is the engine's —
//! [`DisorderedStreamable::to_streamables`] — and nothing in the workspace
//! depends on this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use impatience_core::{MemoryMeter, MetricsRegistry, Payload, StreamError, TickDuration};
use impatience_engine::{Streamable, Streamables};

pub use impatience_engine::{DisorderedStreamable, FrameworkStats};

/// The basic framework (Fig 6(a)): [`DisorderedStreamable::to_streamables`]
/// with identity PIQ and merge and the default policy.
pub fn to_streamables_basic<P: Payload>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    meter: &MemoryMeter,
) -> Result<Streamables<P>, StreamError> {
    ds.to_streamables(latencies, |s| s, |s| s, meter, Default::default())
}

/// [`DisorderedStreamable::to_streamables`] with the default policy over
/// `ds` instrumented into `registry` under `framework`, when one is given.
pub fn to_streamables_advanced_metered<P: Payload, Q: Payload>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    piq: impl Fn(Streamable<P>) -> Streamable<Q> + 'static,
    merge: impl Fn(Streamable<Q>) -> Streamable<Q> + 'static,
    meter: &MemoryMeter,
    registry: Option<&MetricsRegistry>,
) -> Result<Streamables<Q>, StreamError> {
    let ds = match registry {
        Some(r) => ds.instrument(r, "framework"),
        None => ds,
    };
    ds.to_streamables(latencies, piq, merge, meter, Default::default())
}
