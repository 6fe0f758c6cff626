//! Operator implementations (observer combinators).
//!
//! Each operator is an [`crate::observer::Observer`] wrapping its
//! downstream sink. `crate::streamable::Streamable` provides the fluent
//! construction API; these modules are public for users wiring custom
//! topologies by hand.

pub mod aggregate;
pub mod filter;
mod group;
pub mod join;
mod keymap;
pub mod pattern;
pub mod project;
pub mod reduce;
pub mod sort;
pub mod topk;
pub mod union;
pub mod window;

pub use aggregate::{Aggregate, CountAgg, GroupedAggregateOp, SumAgg, WindowAggregateOp};
pub use filter::FilterOp;
pub use join::{temporal_join, JoinInput};
pub use pattern::FollowedByOp;
pub use project::{ReKeyOp, SelectOp};
pub use reduce::ReduceByKeyOp;
pub use sort::{LateGate, LateGateOp, SortFaultCounters, SortOp, SortPolicy};
pub use topk::TopKOp;
pub use union::{union, UnionInput, UnionProbe};
pub use window::{align_tumbling, TumblingWindowOp};
