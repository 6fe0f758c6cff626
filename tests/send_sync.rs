//! Compile-time thread-safety battery: the types that cross shard
//! boundaries must be `Send` (and the shared handles `Sync`). Each
//! assertion here is a build break, not a runtime check — a regression
//! back to `Rc`/`RefCell` in any of these types fails `cargo test` before
//! a single test runs.

use impatience_core::metrics::{Counter, Gauge, Histogram};
use impatience_core::{
    DeadLetterQueue, Event, EventBatch, MemoryMeter, MetricsRegistry, StreamError, StreamMessage,
};
use impatience_engine::{
    CheckpointCtx, InputHandle, Observer, Output, ShardCtx, ShardOptions, Streamable,
};
use impatience_sort::{ImpatienceSorter, OnlineSorter};

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn stream_protocol_types_are_send() {
    // The messages themselves: what travels through shard channels.
    assert_send::<Event<u32>>();
    assert_send::<EventBatch<u32>>();
    assert_send::<StreamMessage<u32>>();
    assert_send::<StreamError>();
    assert_send::<Event<Vec<String>>>();
    assert_send::<StreamMessage<Vec<String>>>();
}

#[test]
fn observer_chains_are_send() {
    // Observer: Send is a supertrait, so boxed chains cross threads.
    assert_send::<Box<dyn Observer<u32>>>();
    assert_send::<Box<dyn Observer<Vec<u8>>>>();
}

#[test]
fn pipeline_endpoints_are_send() {
    assert_send::<Streamable<u32>>();
    assert_send::<InputHandle<u32>>();
    assert_send::<Output<u32>>();
    // Sorters run inside shard worker threads.
    assert_send::<ImpatienceSorter<Event<u32>>>();
    assert_send::<Box<dyn OnlineSorter<Event<u32>>>>();
}

#[test]
fn shared_handles_are_send_and_sync() {
    // Handles cloned across shard workers: metric instruments, memory
    // accounts, dead-letter queues.
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<MemoryMeter>();
    assert_send_sync::<DeadLetterQueue<u32>>();
}

#[test]
fn sharding_plumbing_is_send_and_sync() {
    assert_send::<ShardOptions>();
    assert_send_sync::<ShardCtx>();
    assert_send::<CheckpointCtx>();
}
