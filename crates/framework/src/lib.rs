//! # impatience-framework
//!
//! The user-facing layer of the Impatience stack, reproducing §IV-B and §V
//! of the paper:
//!
//! * [`DisorderedStreamable`] — sort-as-needed execution: order-insensitive
//!   operators (selection, projection, windowing) run *below* the sorting
//!   operator, then `to_streamable()` sorts once, as late and as cheaply
//!   as possible;
//! * [`to_streamables_advanced`] — the **Impatience framework**: a set of
//!   reorder latencies yields a set of output streams trading latency
//!   against completeness, with user PIQ/merge functions for single-pass
//!   evaluation and tiny union buffers ([`to_streamables_basic`] is the
//!   identity-PIQ spelling); every further aspect of a build — failure
//!   policy, metrics, tracing, durability — is a field of
//!   [`FrameworkOptions`].
//!
//! ```
//! use impatience_core::{Event, MemoryMeter, TickDuration, Timestamp};
//! use impatience_engine::{IngressPolicy, Streamable};
//! use impatience_framework::{to_streamables_advanced, DisorderedStreamable};
//!
//! // One-second windowed count with reorder latencies {1s, 1min}.
//! let arrivals: Vec<Event<u32>> = (0..10_000)
//!     .map(|i| Event::point(Timestamp::new(i as i64), 0u32))
//!     .collect();
//! let meter = MemoryMeter::new();
//! let ds = DisorderedStreamable::from_arrivals(
//!     arrivals,
//!     &IngressPolicy::new(1_000, TickDuration::ZERO),
//! )
//! .tumbling_window(TickDuration::secs(1));
//! let mut ss = to_streamables_advanced(
//!     ds,
//!     &[TickDuration::secs(1), TickDuration::minutes(1)],
//!     |s: Streamable<u32>| s.count(),
//!     |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
//!     &meter,
//!     Default::default(),
//! )
//! .unwrap();
//! let quick = ss.take_stream(0).expect("take output stream").collect_output();
//! let complete = ss.take_stream(1).expect("take output stream").collect_output();
//! assert_eq!(complete.events().len(), 10); // ten 1s windows
//! assert!(quick.event_count() <= complete.event_count());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disordered;
pub mod framework;
pub mod plumbing;

pub use disordered::DisorderedStreamable;
pub use framework::{
    to_streamables_advanced, to_streamables_advanced_metered, to_streamables_basic,
    FrameworkOptions, FrameworkPolicy, FrameworkStats, Streamables,
};
pub use plumbing::{HandleSink, TeeOp};
