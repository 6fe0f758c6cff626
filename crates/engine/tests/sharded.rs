//! Seeded stress tests for the sharded execution plumbing: lifecycle edges
//! (an idle source, a shard dying mid-stream), punctuation-regression
//! surfacing, option validation, and randomized interleavings that must
//! not change a byte of output.

use impatience_core::{
    validate_ordered_stream, Event, EventBatch, MetricsRegistry, StreamError, StreamMessage,
    Timestamp,
};
use impatience_engine::{
    input_stream, Observer, Output, PipelineEnv, PipelineSpec, Streamable, SHARD_QUEUE_MESSAGES,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    /// Randomized pacing: an occasional yield or short sleep shifts which
    /// thread runs when.
    fn pace(&mut self) {
        if self.below(8) == 0 {
            std::thread::yield_now();
        }
        if self.below(64) == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[test]
fn an_idle_source_does_not_end_a_sharded_pipeline() {
    // A quiet source is not a fault: a stall watchdog once ended exactly
    // this stream with a typed error and lost every later event.
    let (out, sink) = Output::new();
    let built = PipelineSpec::new("idle")
        .with_shards(2)
        .build(&PipelineEnv::new(), Box::new(sink))
        .expect("build");
    let feed = |t: i64| {
        let events = (0..4u32)
            .map(|k| Event::keyed(Timestamp::new(t), k, t))
            .collect();
        built
            .handle
            .push(StreamMessage::batch(events))
            .expect("push");
        built
            .handle
            .push(StreamMessage::Punctuation(Timestamp::new(t)))
            .expect("push");
    };
    feed(1);
    std::thread::sleep(Duration::from_secs(1));
    feed(5);
    built.handle.push(StreamMessage::Completed).expect("push");
    assert_eq!(out.error(), None);
    assert!(out.is_completed());
    assert_eq!(out.event_count(), 8);
}

/// Counts the drops of one shard's pipeline: each worker's copy is torn
/// down on its own thread before that thread ends.
struct DropCount(Arc<AtomicUsize>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn a_dead_shard_stops_routing_and_every_thread_joins() {
    const SHARDS: usize = 4;
    const BAD: usize = 1;
    let reached = Arc::new(AtomicUsize::new(0));
    let torn_down = Arc::new(AtomicUsize::new(0));
    let (handle, stream) = input_stream::<u32>();
    let out = {
        let (reached, torn_down) = (reached.clone(), torn_down.clone());
        stream
            .sharded(SHARDS, move |s, ctx| {
                let guard = DropCount(torn_down.clone());
                let reached = reached.clone();
                let bad = ctx.index == BAD;
                s.where_(move |_| {
                    let _ = &guard;
                    if bad {
                        panic!("shard under test blew up");
                    }
                    reached.fetch_add(1, Ordering::SeqCst);
                    true
                })
            })
            .collect_output()
    };
    // Sixteen keys cover all four shards; the punctuation moves the
    // lockstep merge past shard 0 onto the dead shard.
    handle.push_events(
        (0..16u32)
            .map(|k| Event::keyed(Timestamp::new(1), k, k))
            .collect(),
    );
    handle.push_punctuation(Timestamp::new(1));
    let deadline = Instant::now() + Duration::from_secs(10);
    while out.error().is_none() {
        assert!(Instant::now() < deadline, "the typed error never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = reached.load(Ordering::SeqCst);
    for i in 0..10_000u32 {
        handle.push_events(vec![Event::keyed(Timestamp::new(2), i % 16, i)]);
    }
    // Returns only once every worker and the merge have joined.
    handle.complete();
    let after = reached.load(Ordering::SeqCst);
    assert!(
        after - before <= SHARDS * SHARD_QUEUE_MESSAGES,
        "{} events reached healthy shards after the error",
        after - before
    );
    assert_eq!(torn_down.load(Ordering::SeqCst), SHARDS);
    assert!(
        matches!(out.error(), Some(StreamError::OperatorPanicked { ref operator, .. }) if operator == "shard01"),
        "unexpected error: {:?}",
        out.error()
    );
    assert!(!out.is_completed(), "error and completion both delivered");
}

/// An `instrument(&r, "p").hardened()` chain split two ways over sixteen
/// keys (both shards get traffic), `where_` in each shard, `select` after
/// the merge; `bad` names a shard whose `where_` panics.
fn inheriting_run(bad: Option<usize>) -> (MetricsRegistry, Output<u32>) {
    let registry = MetricsRegistry::new();
    let (handle, stream) = input_stream::<u32>();
    let out = stream
        .instrument(&registry, "p")
        .hardened()
        .sharded(2, move |s, ctx| {
            let poisoned = bad == Some(ctx.index);
            s.where_(move |_| {
                assert!(!poisoned, "shard under test blew up");
                true
            })
        })
        .select(|p| *p)
        .collect_output();
    handle.push_events(
        (0..16u32)
            .map(|k| Event::keyed(Timestamp::new(1), k, k))
            .collect(),
    );
    handle.push_punctuation(Timestamp::new(1));
    handle.complete();
    (registry, out)
}

#[test]
fn shards_inherit_the_chains_instruments_and_fence() {
    // A panic in shard 1 is caught by the inherited fence, named by the
    // inherited label and counted under the shard's prefix.
    let (r, out) = inheriting_run(Some(1));
    match out.error() {
        Some(StreamError::OperatorPanicked { operator, message }) => {
            assert_eq!(operator, "p.shard01.00.where");
            assert!(message.contains("shard under test blew up"), "{message}");
        }
        other => panic!("expected OperatorPanicked, got {other:?}"),
    }
    assert!(!out.is_completed(), "error and completion both delivered");
    assert_eq!(r.counter("p.shard01.operator_panics").get(), 1);
    assert_eq!(r.counter("p.shard00.operator_panics").get(), 0);
    assert!(r.counter("p.shard00.00.where.events_in").get() > 0);
    assert_eq!(r.counter("shard.ingress.events").get(), 16);

    // Healthy: every shard is metered under its prefix, the `shard.*`
    // counters land in the chain's registry, and the stage after the
    // merge is metered under the chain's own prefix.
    let (r, out) = inheriting_run(None);
    assert!(out.is_completed() && out.error().is_none());
    assert_eq!(out.event_count(), 16);
    let shard_in = |i: usize| {
        r.counter(&format!("p.shard{i:02}.00.where.events_in"))
            .get()
    };
    assert!(
        shard_in(0) > 0 && shard_in(1) > 0,
        "both shards got traffic"
    );
    assert_eq!(shard_in(0) + shard_in(1), 16);
    assert_eq!(r.counter("shard.ingress.events").get(), 16);
    assert_eq!(r.counter("shard.merge.events").get(), 16);
    assert_eq!(r.counter("p.00.select.events_in").get(), 16);
    assert_eq!(r.counter("p.operator_panics").get(), 0);
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
    let sharded = stream.sharded(2, |s, ctx| {
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
    // One entry point validates once: a zero shard count ends the stream
    // with InvalidConfig at subscribe time — no panic, and no shard built
    // (a build would panic on its worker and surface as OperatorPanicked
    // instead).
    let (_handle, stream) = input_stream::<u32>();
    let out = stream
        .sharded(0, |_, _| -> Streamable<u32> {
            panic!("an invalid configuration builds no shard")
        })
        .collect_output();
    match out.error() {
        Some(StreamError::InvalidConfig(msg)) => assert!(msg.contains("shards"), "{msg}"),
        other => panic!("shards = 0: expected InvalidConfig, got {other:?}"),
    }
    assert!(!out.is_completed(), "error and completion both");
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
    jitter_seed: Option<u64>,
) -> Vec<StreamMessage<u32>> {
    let (handle, stream) = input_stream::<u32>();
    let out = stream
        .sharded(shards, move |s, ctx| {
            // Worker-side pacing, seeded per shard: each worker stalls at
            // its own points, so shards run ahead of and behind each other.
            let mut rng = jitter_seed.map(|seed| Rng::new(seed ^ ((ctx.index as u64) << 32)));
            s.where_(move |e| {
                if let Some(rng) = rng.as_mut() {
                    rng.pace();
                }
                e.payload % 5 != 2
            })
        })
        .collect_output();
    let mut rng = jitter_seed.map(Rng::new);
    for msg in input {
        handle.push(msg.clone()).expect("push");
        if let Some(rng) = rng.as_mut() {
            rng.pace();
        }
    }
    out.messages()
}

#[test]
fn seeded_interleavings_are_byte_identical() {
    // The same seed-derived input, run across shard counts with randomized
    // producer and worker pacing: every run must emit the exact same
    // message sequence.
    for seed in 0..6u64 {
        let input = seeded_input(seed);
        let reference = run_sharded(&input, 1, None);
        assert!(
            matches!(reference.last(), Some(StreamMessage::Completed)),
            "seed {seed}: reference run did not complete"
        );
        assert!(
            validate_ordered_stream(&reference).is_ok(),
            "seed {seed}: reference output unordered"
        );
        for shards in [2usize, 4] {
            for jitter in 0..3u64 {
                let got = run_sharded(&input, shards, Some(seed * 100 + jitter));
                assert_eq!(
                    got, reference,
                    "seed {seed}, {shards} shards, jitter {jitter}: \
                     output diverged from the single-shard run"
                );
            }
        }
    }
}
