//! The ladder boundary carries the chain: every rung of
//! [`Streamable::ladder`] inherits the source chain's instruments (under
//! `partitionNN`), fence, trace (under `partitionNN`, lane `NN`) and
//! checkpoint context, while its merge and output relays carry only the
//! fence and the checkpoint context — whether the rung sorts first or, over
//! window-aligned input with a PIQ that opens with a grouped operator
//! (`group_aggregate` or `reduce_by_key`), fuses the two into its sort
//! stage. The partitioner copies each routed event at most once.

use impatience_core::trace::{TraceClock, TraceConfig, TraceSink};
use impatience_core::{
    Event, MemoryMeter, MetricsRegistry, Payload, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, StreamError, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::ops::Aggregate;
use impatience_engine::{input_stream, FrameworkPolicy, Output, Streamable, TraceCtx};
use std::cell::Cell;

/// The key whose event only rung 1 sees, and on which its PIQ panics.
const BAD: u32 = 7;

fn ladder() -> [TickDuration; 3] {
    [
        TickDuration::ticks(10),
        TickDuration::ticks(30),
        TickDuration::ticks(100),
    ]
}

fn ev(t: i64, key: u32) -> Event<u32> {
    Event::keyed(Timestamp::new(t), key, key)
}

#[test]
fn rungs_inherit_the_chains_instruments_trace_and_fence() {
    let r = MetricsRegistry::new();
    let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
    let meter = MemoryMeter::new();
    let (handle, stream) = input_stream::<u32>();
    let mut ss = stream
        .instrument(&r, "q")
        .traced(TraceCtx::new(&sink))
        .hardened()
        .ladder(
            None,
            &ladder(),
            |s: Streamable<u32>| {
                s.where_(|e| {
                    assert!(e.key != BAD, "rung under test blew up");
                    true
                })
            },
            |s: Streamable<u32>| s.select(|p| *p),
            &meter,
            FrameworkPolicy::default(),
        )
        .expect("valid ladder");
    let outs: Vec<Output<u32>> = (0..3)
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .select(|p| *p)
                .collect_output()
        })
        .collect();
    // Delays 0, 0, 15 (the bad key: rung 1), 0, 70 (rung 2), 0.
    handle.push_events(vec![
        ev(100, 0),
        ev(110, 1),
        ev(95, BAD),
        ev(120, 2),
        ev(50, 3),
        ev(130, 4),
    ]);
    handle.push_punctuation(Timestamp::new(130));
    handle.complete();

    // Rung 1's panic is caught by the inherited fence, named by the
    // inherited label, and ends exactly the outputs it feeds.
    let ts =
        |o: &Output<u32>| -> Vec<i64> { o.events().iter().map(|e| e.sync_time.ticks()).collect() };
    assert!(outs[0].is_completed() && outs[0].error().is_none());
    assert_eq!(ts(&outs[0]), vec![100, 110, 120, 130]);
    for out in &outs[1..] {
        match out.error() {
            Some(StreamError::OperatorPanicked { operator, message }) => {
                assert_eq!(operator, "partition01.01.where");
                assert!(message.contains("rung under test blew up"), "{message}");
            }
            other => panic!("expected OperatorPanicked, got {other:?}"),
        }
        assert!(!out.is_completed(), "error and completion both delivered");
    }

    // Every rung meters into the chain's registry under its own prefix;
    // the routing split and latencies land there under `framework.*`;
    // the merge and output relays register nothing.
    let snap = r.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} not registered"))
            .1
    };
    assert_eq!(counter("partition01.operator_panics"), 1);
    assert_eq!(counter("partition00.operator_panics"), 0);
    assert_eq!(counter("partition02.operator_panics"), 0);
    assert_eq!(counter("q.operator_panics"), 0);
    assert_eq!(counter("partition00.00.sort.events_in"), 4);
    assert_eq!(counter("partition02.01.where.events_in"), 1);
    let routed: Vec<u64> = (0..3)
        .map(|i| counter(&format!("framework.partition{i:02}.routed")))
        .collect();
    assert_eq!(routed, vec![4, 1, 1]);
    assert_eq!(ss.stats().routed(1), 1);
    assert!(snap
        .gauges
        .iter()
        .any(|(n, g)| n == "framework.partition02.latency_ticks" && g.value == 100));
    let names = snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n));
    for name in names {
        assert!(
            [
                "partition00.",
                "partition01.",
                "partition02.",
                "framework.",
                "q."
            ]
            .iter()
            .any(|p| name.starts_with(p)),
            "{name} registered outside the rungs and the routing split"
        );
        assert!(!name.contains("select"), "a relay registered {name}");
    }

    // Every rung's stages record on its own lane under its own prefix;
    // the relays record nothing.
    let spans = sink.spans();
    for i in 0..3u32 {
        let tag = format!("partition{i:02}.");
        let mine: Vec<_> = spans.iter().filter(|s| s.op.starts_with(&tag)).collect();
        assert!(!mine.is_empty(), "no spans for rung {i}");
        assert!(mine.iter().all(|s| s.shard == i), "rung {i} off its lane");
    }
    assert!(
        spans.iter().all(|s| s.op.starts_with("partition")),
        "a span outside the rungs"
    );
}

/// A count that panics on the key only rung 1 sees.
#[derive(Clone)]
struct CountUnlessBad;

impl Aggregate<u32> for CountUnlessBad {
    type Acc = u64;
    type Out = u64;
    fn first(&self, e: &Event<u32>) -> u64 {
        assert!(e.key != BAD, "rung under test blew up");
        1
    }
    fn fold(&self, acc: &mut u64, e: &Event<u32>) {
        *acc += self.first(e);
    }
    fn output(&self, acc: &u64) -> u64 {
        *acc
    }
}

/// The twin of the case above over 10-tick window starts, whose PIQ opens
/// with `group_aggregate`: each rung's sort and aggregate are one stage,
/// which inherits the chain's settings under the sort's label.
#[test]
fn fused_rungs_inherit_the_chains_instruments_trace_and_fence() {
    let r = MetricsRegistry::new();
    let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
    let meter = MemoryMeter::new();
    let (handle, stream) = input_stream::<u32>();
    let mut ss = stream
        .instrument(&r, "q")
        .traced(TraceCtx::new(&sink))
        .hardened()
        .ladder(
            Some(TickDuration::ticks(10)),
            &ladder(),
            |s: Streamable<u32>| s.group_aggregate(CountUnlessBad),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            FrameworkPolicy::default(),
        )
        .expect("valid ladder");
    let outs: Vec<Output<u64>> = (0..3)
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .collect_output()
        })
        .collect();
    let window = |start: i64, key: u32| {
        Event::interval(Timestamp::new(start), Timestamp::new(start + 10), key, key)
    };
    // Delays 0, 0, 20 (rung 1, which records its spans), then 0, 20 (the
    // bad key: rung 1), 70 (rung 2), 0.
    handle.push_events(vec![window(100, 0), window(110, 1), window(90, 5)]);
    handle.push_punctuation(Timestamp::new(110));
    handle.push_events(vec![
        window(120, 2),
        window(100, BAD),
        window(50, 3),
        window(130, 4),
    ]);
    handle.push_punctuation(Timestamp::new(130));
    handle.complete();

    let groups = |o: &Output<u64>| -> Vec<(i64, u32, u64)> {
        o.events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.key, e.payload))
            .collect()
    };
    assert!(outs[0].is_completed() && outs[0].error().is_none());
    assert_eq!(
        groups(&outs[0]),
        vec![(100, 0, 1), (110, 1, 1), (120, 2, 1), (130, 4, 1)]
    );
    for out in &outs[1..] {
        match out.error() {
            Some(StreamError::OperatorPanicked { operator, message }) => {
                assert_eq!(operator, "partition01.00.sort");
                assert!(message.contains("rung under test blew up"), "{message}");
            }
            other => panic!("expected OperatorPanicked, got {other:?}"),
        }
        assert!(!out.is_completed(), "error and completion both delivered");
    }

    let snap = r.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} not registered"))
            .1
    };
    assert_eq!(counter("partition01.operator_panics"), 1);
    assert_eq!(counter("partition00.operator_panics"), 0);
    assert_eq!(counter("partition02.operator_panics"), 0);
    assert_eq!(counter("partition00.00.sort.events_in"), 4);
    assert_eq!(counter("partition00.00.sort.events_out"), 4);
    assert_eq!(counter("partition02.00.sort.events_in"), 1);
    let names = snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n));
    for name in names {
        assert!(
            !name.contains("group_aggregate"),
            "the fused aggregate registered {name}"
        );
    }
    assert!(snap
        .gauges
        .iter()
        .any(|(n, g)| n == "partition02.00.sorter.state_bytes" && g.high_water > 0));

    // Rung 1's one stage died mid-handler; it surrenders its spans when the
    // chain is dropped.
    drop(handle);
    let spans = sink.spans();
    for i in 0..3u32 {
        let tag = format!("partition{i:02}.");
        let mine: Vec<_> = spans.iter().filter(|s| s.op.starts_with(&tag)).collect();
        assert!(!mine.is_empty(), "no spans for rung {i}");
        assert!(mine.iter().all(|s| s.shard == i), "rung {i} off its lane");
        assert!(
            mine.iter()
                .all(|s| s.op.starts_with(&format!("{tag}00.sort"))),
            "rung {i} recorded a stage besides its sort"
        );
    }
    assert!(
        spans.iter().all(|s| s.op.starts_with("partition")),
        "a span outside the rungs"
    );
}

/// A fused stage's `state_bytes` gauge reads what it charges the meter:
/// with one rung there is no union, so the meter holds the stage alone.
#[test]
fn a_fused_stage_gauges_what_it_charges() {
    let r = MetricsRegistry::new();
    let meter = MemoryMeter::new();
    let (handle, stream) = input_stream::<u32>();
    let mut ss = stream
        .instrument(&r, "q")
        .ladder(
            Some(TickDuration::ticks(10)),
            &ladder()[2..],
            |s: Streamable<u32>| s.group_aggregate(CountUnlessBad),
            |s: Streamable<u64>| s,
            &meter,
            FrameworkPolicy::default(),
        )
        .expect("valid ladder");
    let out = ss
        .take_stream(0)
        .expect("take output stream")
        .collect_output();
    let gauge = r.gauge("partition00.00.sorter.state_bytes");
    let window = |start: i64, key: u32| {
        Event::interval(Timestamp::new(start), Timestamp::new(start + 10), key, key)
    };
    handle.push_events(
        (0..50)
            .map(|i| window(10 * (i % 7), i as u32 % 5))
            .collect(),
    );
    handle.push_punctuation(Timestamp::new(60));
    assert!(meter.current() > 0, "open windows are charged");
    assert_eq!(gauge.get(), meter.current() as i64);
    handle.push_events(vec![window(70, 1)]);
    handle.push_punctuation(Timestamp::new(200));
    assert_eq!(gauge.get(), meter.current() as i64);
    handle.complete();
    assert!(out.is_completed());
    assert_eq!((gauge.get(), meter.current()), (0, 0));
}

/// In-order arrivals 1..=10, each punctuated: every one raises the
/// watermark, so its delay is negative and it fits every rung, a 0-tick
/// one included.
#[test]
fn arrivals_that_raise_the_watermark_fit_a_zero_tick_rung() {
    for latencies in [vec![0], vec![0, 5]] {
        let latencies: Vec<TickDuration> = latencies.into_iter().map(TickDuration::ticks).collect();
        let (handle, stream) = input_stream::<u32>();
        let mut ss = stream
            .ladder(
                None,
                &latencies,
                |s: Streamable<u32>| s,
                |s: Streamable<u32>| s,
                &MemoryMeter::new(),
                FrameworkPolicy::default(),
            )
            .expect("valid ladder");
        let fastest = ss
            .take_stream(0)
            .expect("take output stream")
            .collect_output();
        for t in 1..=10 {
            handle.push_events(vec![ev(t, 0)]);
            handle.push_punctuation(Timestamp::new(t));
        }
        handle.complete();
        let stats = ss.stats();
        let routed: Vec<u64> = (0..latencies.len()).map(|i| stats.routed(i)).collect();
        let mut expected = vec![0; latencies.len()];
        expected[0] = 10;
        assert_eq!(routed, expected, "{latencies:?}");
        assert_eq!(stats.dropped(), 0, "{latencies:?}");
        let ts: Vec<i64> = fastest
            .events()
            .iter()
            .map(|e| e.sync_time.ticks())
            .collect();
        assert_eq!(ts, (1..=10).collect::<Vec<_>>(), "{latencies:?}");
    }
}

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A payload whose clones are counted on this thread.
#[derive(Debug, PartialEq)]
struct Counted(u32);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted(self.0)
    }
}

impl StateCodec for Counted {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        u32::decode(r).map(Counted)
    }
}

impl Payload for Counted {}

/// The partitioner hands a batch that falls wholly in one rung over as it
/// is, and copies each event of a batch with rung changes inside it once.
/// Each count is read before a punctuation, while the rungs' sorters hold
/// what they were handed and nothing has flowed on.
#[test]
fn the_partitioner_copies_each_routed_event_at_most_once() {
    let r = MetricsRegistry::new();
    let (handle, stream) = input_stream::<Counted>();
    let mut ss = stream
        .instrument(&r, "q")
        .ladder(
            None,
            &ladder(),
            |s: Streamable<Counted>| s,
            |s: Streamable<Counted>| s,
            &MemoryMeter::new(),
            FrameworkPolicy::default(),
        )
        .expect("valid ladder");
    let outs: Vec<Output<Counted>> = (0..3)
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .collect_output()
        })
        .collect();
    let push = |ts: &[i64]| {
        let events = ts
            .iter()
            .map(|&t| Event::point(Timestamp::new(t), Counted(t as u32)))
            .collect();
        let before = CLONES.with(Cell::get);
        handle.push_events(events);
        CLONES.with(Cell::get) - before
    };
    let routed = || -> Vec<u64> {
        (0..3)
            .map(|i| {
                r.counter(&format!("framework.partition{i:02}.routed"))
                    .get()
            })
            .collect()
    };

    // Every event raises the watermark: all of it goes to rung 0.
    assert_eq!(push(&[100, 110, 120, 130]), 0, "a one-rung batch is moved");
    assert_eq!(routed(), vec![4, 0, 0]);
    // Delays -5, 15, 14, -5, 65, 2: runs of rungs 0, 1, 0, 2, 0.
    assert_eq!(
        push(&[135, 120, 121, 140, 75, 138]),
        6,
        "one copy per event"
    );
    assert_eq!(routed(), vec![4 + 3, 2, 1]);

    handle.push_punctuation(Timestamp::new(140));
    handle.complete();
    let ts = |o: &Output<Counted>| -> Vec<i64> {
        o.events().iter().map(|e| e.sync_time.ticks()).collect()
    };
    assert_eq!(ts(&outs[0]), vec![100, 110, 120, 130, 135, 138, 140]);
    assert_eq!(ts(&outs[2]).len(), 10);
}

/// The tape the durable case feeds: batches and punctuations interleaved
/// so checkpoints land at known indices.
fn tape() -> Vec<StreamMessage<u32>> {
    vec![
        StreamMessage::batch(vec![ev(10, 0), ev(20, 1), ev(15, 2)]),
        StreamMessage::punctuation(20),
        StreamMessage::batch(vec![ev(30, 0), ev(5, 1)]),
        StreamMessage::punctuation(30),
        StreamMessage::batch(vec![ev(40, 2), ev(25, 0)]),
        StreamMessage::punctuation(40),
        StreamMessage::Completed,
    ]
}

/// A ladder whose source is checkpointed into `dir` on every punctuation,
/// with a windowed count per rung merged by addition. Feeds the tape from
/// the offset the caller's context reports (0 on a fresh start) up to
/// `until`, and returns that offset with each output's events.
fn durable_run(dir: &std::path::Path, until: usize) -> (u64, Vec<Output<u64>>) {
    let meter = MemoryMeter::new();
    let (handle, stream) = input_stream::<u32>();
    let (stream, ctx) = stream.checkpointed(dir, 1).expect("open checkpoint dir");
    let mut ss = stream
        .ladder(
            None,
            &ladder()[..2],
            |s: Streamable<u32>| s.tumbling_window(TickDuration::ticks(10)).count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            FrameworkPolicy::default(),
        )
        .expect("valid ladder");
    let outs: Vec<Output<u64>> = (0..2)
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .checkpoint_egress()
                .collect_output()
        })
        .collect();
    let from = ctx.recovery().map_or(0, |rec| rec.messages_seen);
    for m in &tape()[from as usize..until] {
        handle.push(m.clone()).expect("push");
    }
    (from, outs)
}

#[test]
fn a_checkpointed_source_restores_the_ladder_across_a_crash() {
    let base = std::env::temp_dir().join(format!("impatience-ladder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (from, reference) = durable_run(&base.join("reference"), 7);
    assert_eq!(from, 0, "a fresh directory starts at the beginning");

    // Crash right after the punctuation at index 3 (the gate checkpointed
    // with 4 messages seen), then recover and replay from the offset the
    // caller's context reports.
    let crashed = base.join("crashed");
    let (_, first) = durable_run(&crashed, 4);
    let before: Vec<Vec<Event<u64>>> = first.iter().map(Output::events).collect();
    drop(first);
    let (from, second) = durable_run(&crashed, 7);
    assert_eq!(from, 4, "replay the ingest tape from index 4");
    for (i, reference) in reference.iter().enumerate() {
        assert!(reference.is_completed() && second[i].is_completed());
        let mut combined = before[i].clone();
        combined.extend(second[i].events());
        assert_eq!(
            reference.events(),
            combined,
            "stream {i} diverged across the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
