//! Snapshot codec properties: round-trips and corruption detection.
//!
//! Three layers, all seeded and shrinkable via the in-tree harness:
//!
//! 1. **codec** — every [`StateCodec`] primitive and composite
//!    (integers, strings, vectors, options, tuples, timestamps, events,
//!    stream messages) decodes back to exactly what was encoded, leaving
//!    the reader exhausted;
//! 2. **frame** — flipping *any single byte* of a sealed frame (magic,
//!    version, length, body, or checksum) makes decoding return a typed
//!    [`SnapshotError`] — never a panic, never a silently wrong value;
//! 3. **operators** — every `Checkpointable` operator the engine ships
//!    (Impatience and bucket sorters, the late gate, grouped and windowed
//!    aggregates, reduce-by-key, top-k, followed-by, union, join)
//!    round-trips its state through a real on-disk checkpoint, and a
//!    seeded one-byte corruption of the only retained slot surfaces as a
//!    typed [`StreamError::RecoveryFailed`] with no completion. The bucket
//!    sorter and the late gate are reached the way the engine reaches
//!    them: through the `PipelineSpec` plan that runs a window below the
//!    sort.

use impatience::prelude::*;
use impatience_core::{
    decode_framed, encode_framed, SnapshotReader, SnapshotWriter, StreamError, StreamMessage,
};
use impatience_engine::{
    input_stream, CheckpointCtx, InputHandle, OpSpec, Output, PipelineEnv, PipelineSpec,
    SorterChoice,
};
use impatience_sort::ImpatienceSorter;
use impatience_testkit::crash::{corrupt_byte, files_with_suffix};
use impatience_testkit::props;
use impatience_testkit::{Rng, SeedableRng, StdRng};
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"PROPTEST";

fn base_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "impatience-snapprops-{}-{tag}-{seed}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A seeded value exercising every composite codec at once.
type Composite = (
    (u64, i64, bool),
    Vec<Option<(String, u32)>>,
    (Timestamp, TickDuration, Vec<u8>),
);

fn composite(seed: u64) -> Composite {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = rng.gen_range(0..8usize);
    let opts = (0..entries)
        .map(|i| {
            if rng.gen_bool(0.3) {
                None
            } else {
                Some((
                    format!("k{}-{}", i, rng.gen_range(0u32..99)),
                    rng.gen_range(0u32..u32::MAX),
                ))
            }
        })
        .collect();
    (
        (
            rng.gen_range(0u64..u64::MAX),
            rng.gen_range(i64::MIN / 2..i64::MAX / 2),
            rng.gen_bool(0.5),
        ),
        opts,
        (
            Timestamp::new(rng.gen_range(-1000i64..1_000_000)),
            TickDuration::ticks(rng.gen_range(0i64..1_000_000)),
            (0..rng.gen_range(0..16usize))
                .map(|_| rng.gen_range(0u8..=255))
                .collect(),
        ),
    )
}

fn seeded_message(rng: &mut StdRng) -> StreamMessage<u32> {
    match rng.gen_range(0u32..4) {
        0 => StreamMessage::Punctuation(Timestamp::new(rng.gen_range(0i64..10_000))),
        1 => StreamMessage::Completed,
        _ => {
            let n = rng.gen_range(1..6usize);
            let events = (0..n)
                .map(|_| {
                    let start = rng.gen_range(0i64..10_000);
                    Event::interval(
                        Timestamp::new(start),
                        Timestamp::new(start + rng.gen_range(1i64..100)),
                        rng.gen_range(0u32..8),
                        rng.gen_range(0u32..1000),
                    )
                })
                .collect();
            StreamMessage::batch(events)
        }
    }
}

props! {
    cases = 300;

    /// Layer 1: composite codec round-trip with reader exhaustion.
    fn composite_codecs_round_trip(seed in 0u64..1_000_000) {
        let value = composite(seed);
        let mut w = SnapshotWriter::new();
        w.encode(&value);
        let body = w.into_body();
        let mut r = SnapshotReader::new(&body);
        let back: Composite = r.decode().expect("round trip decodes");
        assert_eq!(back, value);
        assert!(r.is_exhausted(), "trailing bytes after decode");
    }

    /// Layer 1: event and stream-message codecs round-trip.
    fn event_and_message_codecs_round_trip(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<StreamMessage<u32>> =
            (0..rng.gen_range(1..8usize)).map(|_| seeded_message(&mut rng)).collect();
        let mut w = SnapshotWriter::new();
        w.encode(&msgs);
        let body = w.into_body();
        let mut r = SnapshotReader::new(&body);
        let back: Vec<StreamMessage<u32>> = r.decode().expect("round trip decodes");
        assert_eq!(back, msgs);
        assert!(r.is_exhausted());
    }

    /// Layer 2: every single-byte flip of a sealed frame is detected as a
    /// typed error — the sweep covers magic, version, length, body, and
    /// checksum bytes alike.
    fn any_single_byte_flip_of_a_frame_is_detected(seed in 0u64..1_000_000) {
        let value = composite(seed);
        let frame = encode_framed(&value, MAGIC);
        for offset in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[offset] ^= 0x40;
            assert!(
                decode_framed::<Composite>(&damaged, MAGIC).is_err(),
                "flip at byte {offset}/{} went undetected",
                frame.len()
            );
        }
        // Truncation is detected too.
        assert!(decode_framed::<Composite>(&frame[..frame.len() - 1], MAGIC).is_err());
        assert_eq!(decode_framed::<Composite>(&frame, MAGIC).unwrap(), value);
    }
}

/// Seeded keyed tape with punctuations (no completion, so the checkpoint
/// captures mid-stream operator state rather than drained state).
fn open_tape(seed: u64) -> Vec<StreamMessage<u32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a9e);
    let mut msgs = Vec::new();
    let mut t = 0i64;
    let mut punct = i64::MIN;
    for _ in 0..rng.gen_range(3..8usize) {
        let events = (0..rng.gen_range(2..8usize))
            .map(|_| {
                t += rng.gen_range(0..9i64);
                Event::keyed(
                    Timestamp::new(t),
                    rng.gen_range(0u32..5),
                    rng.gen_range(0u32..100),
                )
            })
            .collect::<Vec<_>>();
        msgs.push(StreamMessage::batch(events));
        punct = punct.max(t - rng.gen_range(0..16i64));
        msgs.push(StreamMessage::Punctuation(Timestamp::new(punct)));
    }
    msgs
}

struct Durable {
    main: Box<dyn Fn(StreamMessage<u32>)>,
    others: Vec<InputHandle<u32>>,
    ctx: CheckpointCtx,
    error: Option<StreamError>,
    completed: bool,
    _meter: MemoryMeter,
}

/// Deep single-input chain: sorter, tumbling window, grouped aggregate,
/// reduce-by-key, top-k, followed-by, windowed count.
fn pipeline_a(base: &Path) -> Durable {
    let meter = MemoryMeter::new();
    let (h, s) = input_stream::<u32>();
    let (s, ctx) = s
        .checkpointed(base.join("ckpt"), 1)
        .expect("open checkpoints");
    let out = s
        .sorted(
            Box::new(ImpatienceSorter::new()),
            &meter,
            Default::default(),
        )
        .expect("default sort policy")
        .tumbling_window(TickDuration::ticks(64))
        .group_aggregate(CountAgg)
        .reduce_by_key(|a, b| *a += b)
        .top_k(2, |c: &u64| *c as i64)
        .followed_by(|c| *c > 0, |c| *c > 0, TickDuration::ticks(128))
        .count()
        .checkpoint_egress()
        .collect_output();
    Durable {
        main: Box::new(move |m| h.push(m).expect("push")),
        others: Vec::new(),
        ctx,
        error: out.error(),
        completed: out.is_completed(),
        _meter: meter,
    }
}

/// Multi-input topology: union and temporal join feed a windowed count.
fn pipeline_b(base: &Path) -> Durable {
    let meter = MemoryMeter::new();
    let (h, s) = input_stream::<u32>();
    let (s, ctx) = s
        .checkpointed(base.join("ckpt"), 1)
        .expect("open checkpoints");
    let (h2, s2) = input_stream::<u32>();
    let (h3, s3) = input_stream::<u32>();
    let out = s
        .union(s2, &meter)
        .join(s3, |a, b| a.wrapping_add(*b), &meter)
        .tumbling_window(TickDuration::ticks(64))
        .count()
        .checkpoint_egress()
        .collect_output();
    Durable {
        main: Box::new(move |m| h.push(m).expect("push")),
        others: vec![h2, h3],
        ctx,
        error: out.error(),
        completed: out.is_completed(),
        _meter: meter,
    }
}

/// `[TumblingWindow(64), SumByKey]` through `PipelineSpec::build`: late
/// gate, window, bucket sorter, reduce-by-key.
fn pipeline_c(base: &Path) -> Durable {
    let meter = MemoryMeter::new();
    let spec = PipelineSpec::new("hoisted")
        .with_checkpoint(1)
        .with_op(OpSpec::TumblingWindow {
            size: TickDuration::ticks(64),
        })
        .with_op(OpSpec::SumByKey);
    assert!(matches!(spec.plan().sorter(), SorterChoice::Bucket { .. }));
    let env = PipelineEnv::new()
        .with_meter(&meter)
        .with_checkpoint_dir(base.join("ckpt"));
    let (out, sink) = Output::new();
    let built = spec.build(&env, Box::new(sink)).expect("spec builds");
    let ctx = built.ckpt.clone().expect("durable spec");
    let handle = built.handle;
    Durable {
        main: Box::new(move |m: StreamMessage<u32>| {
            let m = match m {
                StreamMessage::Batch(b) => StreamMessage::batch(
                    b.into_visible()
                        .into_iter()
                        .map(|e| e.map_payload(i64::from))
                        .collect(),
                ),
                StreamMessage::Punctuation(t) => StreamMessage::Punctuation(t),
                StreamMessage::Completed => StreamMessage::Completed,
            };
            handle.push(m).expect("push")
        }),
        others: Vec::new(),
        ctx,
        error: out.error(),
        completed: out.is_completed(),
        _meter: meter,
    }
}

/// Feeds the tape into the gated input and mirrors punctuation progress
/// into the side inputs so union/join buffers hold real state.
fn feed(d: &Durable, tape: &[StreamMessage<u32>]) {
    for msg in tape {
        (d.main)(msg.clone());
        if let StreamMessage::Punctuation(t) = msg {
            for (i, h) in d.others.iter().enumerate() {
                h.push_events(vec![Event::keyed(*t, i as u32, 7)]);
                h.push_punctuation(*t);
            }
        }
    }
}

fn checkpoint_round_trip_and_corruption(build: fn(&Path) -> Durable, tag: &str, seed: u64) {
    let base = base_dir(tag, seed);
    {
        let d = build(&base);
        assert!(d.ctx.recovery().is_none());
        feed(&d, &open_tape(seed));
        assert!(d.error.is_none(), "clean run errored");
    }
    let slots = files_with_suffix(base.join("ckpt"), ".bin").unwrap();
    assert!(!slots.is_empty(), "no checkpoint written");

    // Round trip: a fresh incarnation restores every operator's state.
    {
        let d = build(&base);
        assert!(d.error.is_none(), "restore failed: {:?}", d.error);
        let rec = d.ctx.recovery().expect("checkpoint restored");
        assert!(rec.messages_seen > 0);
    }

    // Keep exactly one slot and flip one seeded byte of it: recovery must
    // fail with the typed error — no panic, no completion, no fresh start.
    for extra in &slots[1..] {
        fs::remove_file(extra).unwrap();
    }
    let len = slots[0].metadata().unwrap().len();
    let offset = StdRng::seed_from_u64(seed ^ 0xf1ab).gen_range(0..len);
    corrupt_byte(&slots[0], offset).unwrap();
    let d = build(&base);
    match d.error {
        Some(StreamError::RecoveryFailed { .. }) => {}
        other => panic!("corrupt slot (byte {offset}) must fail typed, got {other:?}"),
    }
    assert!(!d.completed);
    assert!(d.ctx.recovery().is_none());
    let _ = fs::remove_dir_all(&base);
}

props! {
    cases = 40;

    /// Layer 3: the deep single-input operator chain.
    fn operator_states_round_trip_and_detect_corruption_chain(seed in 0u64..1_000_000) {
        checkpoint_round_trip_and_corruption(pipeline_a, "chain", seed);
    }

    /// Layer 3: the union + join topology.
    fn operator_states_round_trip_and_detect_corruption_join(seed in 0u64..1_000_000) {
        checkpoint_round_trip_and_corruption(pipeline_b, "join", seed);
    }

    /// Layer 3: the plan that runs a window below the bucket sorter.
    fn operator_states_round_trip_and_detect_corruption_hoisted(seed in 0u64..1_000_000) {
        checkpoint_round_trip_and_corruption(pipeline_c, "hoisted", seed);
    }
}
