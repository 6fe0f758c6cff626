//! Stress and edge-case tests for the engine: degenerate streams, deep
//! operator chains, punctuation-only traffic, and pathological batch
//! shapes.

use impatience_core::{
    validate_ordered_stream, Event, EventBatch, MemoryMeter, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::ops::CountAgg;
use impatience_engine::{input_stream, Streamable};

fn ev(t: i64) -> Event<u32> {
    Event::point(Timestamp::new(t), t as u32)
}

#[test]
fn empty_stream_through_full_pipeline() {
    let meter = MemoryMeter::new();
    let out = Streamable::<u32>::from_messages(vec![])
        .where_(|_| true)
        .select(|p| *p as u64)
        .tumbling_window(TickDuration::ticks(10))
        .count()
        .union(
            Streamable::from_messages(vec![StreamMessage::<u32>::Completed]).count(),
            &meter,
        )
        .collect_output();
    assert!(out.is_completed());
    assert_eq!(out.event_count(), 0);
}

#[test]
fn single_event_per_batch_deep_chain() {
    let msgs: Vec<StreamMessage<u32>> = (0..200)
        .flat_map(|i| {
            [
                StreamMessage::batch(vec![ev(i)]),
                StreamMessage::punctuation(i - 1),
            ]
        })
        .chain([StreamMessage::Completed])
        .collect();
    // Ten chained stages.
    let out = Streamable::from_messages(msgs)
        .where_(|e| e.payload % 2 == 0)
        .select(|p| *p)
        .re_key(|e| e.payload % 5)
        .where_(|e| e.key != 4)
        .select(|p| *p as u64)
        .tumbling_window(TickDuration::ticks(20))
        .group_aggregate(CountAgg)
        .reduce_by_key(|a, b| *a += b)
        .top_k(3, |c| *c as i64)
        .where_(|_| true)
        .collect_output();
    assert!(out.is_completed());
    assert!(validate_ordered_stream(&out.messages()).is_ok());
    assert!(out.event_count() > 0);
}

#[test]
fn nested_unions_stay_ordered_and_release_memory() {
    let meter = MemoryMeter::new();
    let mk = |offset: i64| {
        Streamable::from_ordered_events((0..100).map(|i| ev(i * 4 + offset)).collect())
    };
    let out = mk(0)
        .union(mk(1), &meter)
        .union(mk(2).union(mk(3), &meter), &meter)
        .collect_output();
    assert_eq!(out.event_count(), 400);
    assert!(validate_ordered_stream(&out.messages()).is_ok());
    assert_eq!(meter.current(), 0);
    assert!(meter.peak() > 0);
}

#[test]
fn join_of_windowed_aggregates() {
    // Join two derived aggregate streams on the window key: compare the
    // event counts of two sources per window.
    let meter = MemoryMeter::new();
    let a: Vec<Event<u32>> = (0..300).map(ev).collect();
    let b: Vec<Event<u32>> = (0..300).filter(|i| i % 3 == 0).map(ev).collect();
    let w = TickDuration::ticks(50);
    let counts = |evs: Vec<Event<u32>>| {
        Streamable::from_ordered_events(evs)
            .tumbling_window(w)
            .count()
            // key aggregates by window start so the join can match them
            .re_key(|e| (e.sync_time.ticks() / 50) as u32)
    };
    let out = counts(a)
        .join(counts(b), |ca: &u64, cb: &u64| (*ca, *cb), &meter)
        .collect_output();
    let evs = out.events();
    assert_eq!(evs.len(), 6, "one comparison per window");
    for e in &evs {
        assert_eq!(e.payload.0, 50);
        assert!((16..=17).contains(&e.payload.1));
    }
    assert!(out.is_completed());
}

#[test]
fn huge_batch_then_tiny_batches() {
    let (handle, stream) = input_stream::<u32>();
    let out = stream
        .tumbling_window(TickDuration::ticks(1000))
        .count()
        .collect_output();
    handle.push_events((0..50_000).map(ev).collect());
    handle.push_punctuation(Timestamp::new(50_000));
    for i in 50_000..50_100 {
        handle.push_events(vec![ev(i)]);
    }
    handle.complete();
    let total: u64 = out.events().iter().map(|e| e.payload).sum();
    assert_eq!(total, 50_100);
}

#[test]
fn filtered_batches_propagate_without_effect() {
    // A batch whose rows are all filtered must not perturb aggregates or
    // ordering anywhere downstream.
    let mut dead: EventBatch<u32> = (0..10).map(ev).collect();
    for i in 0..10 {
        dead.filter_mut().filter_out(i);
    }
    let msgs = vec![
        StreamMessage::Batch(dead),
        StreamMessage::batch(vec![ev(100)]),
        StreamMessage::Completed,
    ];
    let counts = Streamable::from_messages(msgs)
        .tumbling_window(TickDuration::ticks(10))
        .count()
        .into_payloads();
    assert_eq!(counts, vec![1]);
}

#[test]
fn watermark_jump_to_max_flushes_everything() {
    let (handle, stream) = input_stream::<u32>();
    let meter = MemoryMeter::new();
    let out = stream
        .sorted(
            Box::new(impatience_sort::ImpatienceSorter::new()),
            &meter,
            Default::default(),
        )
        .expect("default sort policy")
        .collect_output();
    handle.push_events(vec![ev(5), ev(3), ev(9)]);
    handle.push_punctuation(Timestamp::MAX);
    assert_eq!(out.event_count(), 3);
    assert_eq!(meter.current(), 0);
    handle.complete();
    assert!(out.is_completed());
}
