//! Operator implementations (observer combinators).
//!
//! Each operator is an [`crate::observer::Observer`] wrapping its
//! downstream sink. `crate::streamable::Streamable` provides the fluent
//! construction API; the operators are public for users wiring custom
//! topologies by hand.
//!
//! The two-input stages, [`union()`] and [`temporal_join`], share one
//! synchronizer (the private `sync` module): it holds each input's waiting
//! events and watermark, takes events in global `sync_time` order and
//! forwards the joint watermark. Each stage adds only its merge — the
//! union forwards every event, the join probes, inserts and expires. Each
//! returns a left and a right endpoint; the left one is the stage's
//! checkpoint participant.

pub mod aggregate;
pub mod filter;
mod group;
mod join;
mod keymap;
pub mod pattern;
pub mod project;
pub mod sort;
mod sync;
pub mod topk;
mod union;
pub mod window;

pub use aggregate::{Aggregate, CountAgg, GroupedAggregateOp, Reduce, SumAgg, WindowAggregateOp};
pub use filter::FilterOp;
pub(crate) use group::WindowTables;
pub use join::{temporal_join, JoinInput};
pub use pattern::FollowedByOp;
pub use project::{ReKeyOp, SelectOp};
pub use sort::{LateGate, LateGateOp, SortFaultCounters, SortOp, SortPolicy};
pub use topk::TopKOp;
pub use union::{union, UnionInput};
pub use window::{align_tumbling, TumblingWindowOp};
