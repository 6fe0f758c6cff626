//! Seeded stress tests for the sharded execution plumbing: queue
//! backpressure, worker lifecycle edges (producer finishes first, consumer
//! drops mid-stream), punctuation-regression surfacing, and randomized
//! interleavings that must preserve FIFO order.

use impatience_core::{
    validate_ordered_stream, Event, EventBatch, StreamError, StreamMessage, Timestamp,
};
use impatience_engine::{
    input_stream, Observer, Pop, ShardOptions, ShardQueue, Streamable, TryPush,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// Tiny deterministic PRNG (splitmix64) so interleavings replay from a seed
// without any external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e3779b97f4a7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[test]
fn backpressure_bounds_occupancy_and_preserves_fifo() {
    for seed in 0..20u64 {
        let cap = 1 + (seed as usize % 7);
        let q: Arc<ShardQueue<u64>> = Arc::new(ShardQueue::bounded(cap));
        let high_water = Arc::new(AtomicUsize::new(0));
        let total = 2_000u64;

        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for v in 0..total {
                    assert!(q.push(v), "queue closed under the producer");
                }
                q.close();
            })
        };
        let consumer = {
            let q = q.clone();
            let high_water = high_water.clone();
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed);
                let mut got = Vec::with_capacity(total as usize);
                loop {
                    high_water.fetch_max(q.len(), Ordering::Relaxed);
                    match q.pop() {
                        Some(v) => got.push(v),
                        None => break,
                    }
                    // Vary consumer pace to exercise full/empty transitions.
                    if rng.below(16) == 0 {
                        std::thread::yield_now();
                    }
                }
                got
            })
        };

        producer.join().unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(
            got,
            (0..total).collect::<Vec<_>>(),
            "seed {seed}: FIFO broken"
        );
        assert!(
            high_water.load(Ordering::Relaxed) <= cap,
            "seed {seed}: occupancy {} exceeded capacity {cap}",
            high_water.load(Ordering::Relaxed)
        );
    }
}

#[test]
fn producer_finishing_first_leaves_residue_drainable() {
    let q: ShardQueue<u32> = ShardQueue::bounded(64);
    for v in 0..50 {
        assert!(q.push(v));
    }
    q.close();
    // Everything pushed before the close is still delivered, in order.
    let mut got = Vec::new();
    while let Some(v) = q.pop() {
        got.push(v);
    }
    assert_eq!(got, (0..50).collect::<Vec<_>>());
    assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    assert!(!q.push(99), "push after close must be rejected");
}

#[test]
fn consumer_dropping_mid_stream_unblocks_producer() {
    let q: Arc<ShardQueue<u64>> = Arc::new(ShardQueue::bounded(4));
    let producer = {
        let q = q.clone();
        std::thread::spawn(move || {
            let mut pushed = 0u64;
            // Blocks once the consumer stops; must return when it closes.
            while q.push(pushed) {
                pushed += 1;
            }
            pushed
        })
    };
    // Consume a few values, then walk away like a dying merge would.
    for _ in 0..8 {
        q.pop();
    }
    std::thread::sleep(Duration::from_millis(20));
    q.close();
    let pushed = producer.join().unwrap();
    assert!(pushed >= 8, "producer made progress before the close");
    assert!(
        matches!(q.try_push(0), Err(TryPush::Closed(0))),
        "closed queue keeps rejecting"
    );
}

#[test]
fn unbounded_push_bypasses_a_full_queue() {
    let q: ShardQueue<u32> = ShardQueue::bounded(1);
    assert!(q.try_push(1).is_ok());
    assert!(matches!(q.try_push(2), Err(TryPush::Full(2))));
    // The error lane must never block on a full queue.
    assert!(q.push_unbounded(3));
    assert_eq!(q.len(), 2);
    assert_eq!(q.try_pop(), Some(1));
    assert_eq!(q.try_pop(), Some(3));
}

/// Relays traffic unchanged, but after each punctuation at or above
/// `trip_at` re-issues one `regress_by` ticks lower.
struct Regressor {
    trip_at: i64,
    regress_by: i64,
    next: Box<dyn Observer<u32>>,
}

impl Observer<u32> for Regressor {
    fn on_batch(&mut self, batch: EventBatch<u32>) {
        self.next.on_batch(batch);
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        self.next.on_punctuation(t);
        if t.ticks() >= self.trip_at {
            self.next
                .on_punctuation(Timestamp::new(t.ticks() - self.regress_by));
        }
    }
    fn on_completed(&mut self) {
        self.next.on_completed();
    }
    fn on_error(&mut self, err: StreamError) {
        self.next.on_error(err);
    }
}

#[test]
fn punctuation_regression_inside_a_shard_surfaces_typed() {
    // A shard pipeline that re-issues a lower punctuation: the merge must
    // terminate with PunctuationRegressed, not emit unordered output.
    let (handle, stream) = input_stream::<u32>();
    let opts = ShardOptions::new(2).with_stall_timeout(Duration::from_secs(5));
    let sharded = stream.sharded(opts, |s, ctx| {
        let bad = ctx.index == 1;
        Streamable::from_connector(move |sink| {
            let relay: Box<dyn Observer<u32>> = if bad {
                Box::new(Regressor {
                    trip_at: 10,
                    regress_by: 5,
                    next: sink,
                })
            } else {
                sink
            };
            s.subscribe_observer(relay);
        })
    });
    let out = sharded.collect_output();
    for i in 0..20i64 {
        handle.push_events(vec![Event::keyed(
            Timestamp::new(i),
            (i % 4) as u32,
            i as u32,
        )]);
        if i % 5 == 4 {
            handle.push_punctuation(Timestamp::new(i));
        }
    }
    handle.complete();
    let err = out.error().expect("merge must surface the regression");
    assert!(
        matches!(err, StreamError::PunctuationRegressed { .. }),
        "unexpected error: {err:?}"
    );
    assert!(!out.is_completed());
}

#[test]
fn invalid_shard_options_surface_a_typed_error() {
    // One entry point validates once: a zero shard count, queue capacity
    // or stall timeout ends the stream with InvalidConfig at subscribe
    // time — no panic, and no shard built (a build would panic on its
    // worker and surface as OperatorPanicked instead).
    let cases: [(&str, ShardOptions); 3] = [
        ("shards", 0.into()),
        (
            "queue_capacity",
            ShardOptions::new(2).with_queue_capacity(0),
        ),
        (
            "stall_timeout",
            ShardOptions::new(2).with_stall_timeout(Duration::ZERO),
        ),
    ];
    for (field, opts) in cases {
        let (_handle, stream) = input_stream::<u32>();
        let out = stream
            .sharded(opts, |_, _| -> Streamable<u32> {
                panic!("an invalid configuration builds no shard")
            })
            .collect_output();
        match out.error() {
            Some(StreamError::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{field} = 0: expected InvalidConfig, got {other:?}"),
        }
        assert!(!out.is_completed(), "{field}: error and completion both");
    }
}

/// Deterministic seed-derived input: bursts of keyed events with
/// occasional punctuations, ending in completion.
fn seeded_input(seed: u64) -> Vec<StreamMessage<u32>> {
    let mut rng = Rng::new(0xDEC0DE ^ seed);
    let mut msgs = Vec::new();
    let mut t = 0i64;
    let mut wm = i64::MIN;
    for _ in 0..200 {
        let burst = 1 + rng.below(4);
        let events: Vec<Event<u32>> = (0..burst)
            .map(|j| {
                Event::keyed(
                    Timestamp::new(t + (j as i64 % 3)),
                    rng.below(8) as u32,
                    rng.below(1000) as u32,
                )
            })
            .collect();
        msgs.push(StreamMessage::batch(events));
        t += 3;
        if rng.below(4) == 0 && t - 1 > wm {
            wm = t - 1;
            msgs.push(StreamMessage::Punctuation(Timestamp::new(wm)));
        }
    }
    msgs.push(StreamMessage::Completed);
    msgs
}

fn run_sharded(
    input: &[StreamMessage<u32>],
    shards: usize,
    queue_capacity: usize,
    jitter_seed: Option<u64>,
) -> Vec<StreamMessage<u32>> {
    let (handle, stream) = input_stream::<u32>();
    let opts = ShardOptions::new(shards).with_queue_capacity(queue_capacity);
    let out = stream
        .sharded(opts, |s, _| s.where_(|e| e.payload % 5 != 2))
        .collect_output();
    let mut rng = jitter_seed.map(Rng::new);
    for msg in input {
        handle.push(msg.clone()).expect("push");
        // Randomize producer pacing: under tiny queue capacities this
        // shifts which pushes block, i.e. the thread interleaving.
        if let Some(rng) = rng.as_mut() {
            if rng.below(8) == 0 {
                std::thread::yield_now();
            }
            if rng.below(64) == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    out.messages()
}

#[test]
fn seeded_interleavings_are_byte_identical() {
    // The same seed-derived input, run across shard counts, queue
    // capacities, and randomized producer pacing: every run must emit the
    // exact same message sequence.
    for seed in 0..6u64 {
        let input = seeded_input(seed);
        let reference = run_sharded(&input, 1, 1024, None);
        assert!(
            matches!(reference.last(), Some(StreamMessage::Completed)),
            "seed {seed}: reference run did not complete"
        );
        assert!(
            validate_ordered_stream(&reference).is_ok(),
            "seed {seed}: reference output unordered"
        );
        for shards in [2usize, 4] {
            for cap in [1usize, 2, 1024] {
                for jitter in 0..3u64 {
                    let got = run_sharded(&input, shards, cap, Some(seed * 100 + jitter));
                    assert_eq!(
                        got, reference,
                        "seed {seed}, {shards} shards, cap {cap}, jitter {jitter}: \
                         output diverged from the single-shard run"
                    );
                }
            }
        }
    }
}
