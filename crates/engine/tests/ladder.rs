//! The Impatience framework's latency ladder,
//! [`DisorderedStreamable::to_streamables`]: delay partitioning and its
//! late policies, the per-rung sorter choice, the output streams and their
//! routing statistics, and the boundary that carries the chain — every
//! rung inherits the disordered section's instruments (under
//! `partitionNN`), fence, trace (under `partitionNN`, lane `NN`) and
//! checkpoint context, while its merge and output relays carry only the
//! fence and the checkpoint context — whether the rung sorts first or, over
//! window-aligned input with a PIQ that opens with a grouped operator
//! (`group_aggregate` or `reduce_by_key`), fuses the two into its sort
//! stage. The partitioner copies each routed event at most once.

use impatience_core::trace::{TraceClock, TraceConfig, TraceSink};
use impatience_core::{
    validate_ordered_stream, Event, LatePolicy, MemoryMeter, MetricsRegistry, Payload, ShedPolicy,
    SnapshotError, SnapshotReader, SnapshotWriter, StateCodec, StreamError, StreamMessage,
    TickDuration, Timestamp,
};
use impatience_engine::ops::Aggregate;
use impatience_engine::{
    DisorderedStreamable, FrameworkPolicy, IngressPolicy, Output, Streamable, Streamables, TraceCtx,
};
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
    let (handle, ds) = DisorderedStreamable::<u32>::live();
    let mut ss = ds
        .instrument(&r, "q")
        .traced(TraceCtx::new(&sink))
        .hardened()
        .to_streamables(
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
/// which inherits the chain's settings under the sort's label. The window
/// runs ahead of the settings, so it records nothing itself.
#[test]
fn fused_rungs_inherit_the_chains_instruments_trace_and_fence() {
    let r = MetricsRegistry::new();
    let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
    let meter = MemoryMeter::new();
    let (handle, ds) = DisorderedStreamable::<u32>::live();
    let mut ss = ds
        .tumbling_window(TickDuration::ticks(10))
        .instrument(&r, "q")
        .traced(TraceCtx::new(&sink))
        .hardened()
        .to_streamables(
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
    let (handle, ds) = DisorderedStreamable::<u32>::live();
    let mut ss = ds
        .tumbling_window(TickDuration::ticks(10))
        .instrument(&r, "q")
        .to_streamables(
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
        let (handle, ds) = DisorderedStreamable::<u32>::live();
        let mut ss = ds
            .to_streamables(
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
    let (handle, ds) = DisorderedStreamable::<Counted>::live();
    let mut ss = ds
        .instrument(&r, "q")
        .to_streamables(
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
    let (handle, ds) = DisorderedStreamable::<u32>::live();
    let (ds, ctx) = ds.checkpointed(dir, 1).expect("open checkpoint dir");
    let mut ss = ds
        .to_streamables(
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
    let from = ctx.recovery().map_or(0, |rec| {
        assert!(rec.fallback.is_none(), "recovered from the newest slot");
        rec.messages_seen
    });
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

/// A point event at `t` carrying `t`.
fn at(t: i64) -> Event<u32> {
    Event::point(Timestamp::new(t), t as u32)
}

/// Arrivals with known delays against the watermark before each:
/// watermark 10, 20, 20, 30, 30, 40, 40; delay 0, 0, 5, 0, 25, 0, 35.
fn arrivals() -> Vec<Event<u32>> {
    [10, 20, 15, 30, 5, 40, 5].into_iter().map(at).collect()
}

/// One arrival per batch, each punctuated.
fn one_by_one() -> IngressPolicy {
    IngressPolicy {
        punctuation_frequency: 1,
        reorder_latency: TickDuration::ZERO,
        batch_size: 1,
    }
}

/// [`arrivals`] as a disordered source, one arrival per batch.
fn source() -> DisorderedStreamable<u32> {
    DisorderedStreamable::from_arrivals(arrivals(), &one_by_one())
}

/// The basic framework (identity PIQ and merge) over `ds` under `policy`.
fn basic(
    ds: DisorderedStreamable<u32>,
    latencies: &[TickDuration],
    meter: &MemoryMeter,
    policy: FrameworkPolicy<u32>,
) -> Streamables<u32> {
    ds.to_streamables(latencies, |s| s, |s| s, meter, policy)
        .expect("valid ladder")
}

/// Every output stream of `ss`, collected.
fn collect_all<Q: Payload>(ss: &mut Streamables<Q>) -> Vec<Output<Q>> {
    (0..ss.len())
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .collect_output()
        })
        .collect()
}

fn times<Q: Payload>(o: &Output<Q>) -> Vec<i64> {
    o.events().iter().map(|e| e.sync_time.ticks()).collect()
}

#[test]
fn validates_latency_config() {
    let meter = MemoryMeter::new();
    let bad: Vec<(Vec<TickDuration>, &str)> = vec![
        (vec![], "empty"),
        (
            vec![TickDuration::ticks(5), TickDuration::ticks(5)],
            "non-increasing",
        ),
        (
            vec![TickDuration::ticks(9), TickDuration::ticks(3)],
            "decreasing",
        ),
        (vec![TickDuration::ticks(-1)], "negative"),
        ((0..256).map(TickDuration::ticks).collect(), "256 rungs"),
    ];
    for (ls, label) in bad {
        let ds = DisorderedStreamable::<u32>::from_messages(vec![]);
        let built = ds.to_streamables(&ls, |s| s, |s| s, &meter, FrameworkPolicy::default());
        assert!(built.is_err(), "{label} accepted");
    }
}

#[test]
fn basic_framework_stream_i_contains_partitions_up_to_i() {
    let meter = MemoryMeter::new();
    let mut ss = basic(source(), &ladder(), &meter, FrameworkPolicy::default());
    let outs = collect_all(&mut ss);
    // Delays 0, 0, 5, 0, 25, 0, 35 → rungs 0, 0, 0, 0, 1, 0, 2; none dropped.
    assert_eq!(times(&outs[0]), vec![10, 15, 20, 30, 40]);
    assert_eq!(times(&outs[1]), vec![5, 10, 15, 20, 30, 40]);
    assert_eq!(times(&outs[2]), vec![5, 5, 10, 15, 20, 30, 40]);
    for o in &outs {
        assert!(validate_ordered_stream(&o.messages()).is_ok());
        assert!(o.is_completed());
    }
    let stats = ss.stats();
    assert_eq!(stats.routed(0), 5);
    assert_eq!(stats.routed(1), 1);
    assert_eq!(stats.routed(2), 1);
    assert_eq!(stats.dropped(), 0);
    assert!((stats.completeness(0) - 5.0 / 7.0).abs() < 1e-9);
    assert!((stats.completeness(2) - 1.0).abs() < 1e-9);
}

#[test]
fn events_beyond_max_latency_are_dropped() {
    let meter = MemoryMeter::new();
    // Max latency 30: the delay-35 event is dropped.
    let mut ss = basic(source(), &ladder()[..2], &meter, FrameworkPolicy::default());
    let out_last = ss
        .take_stream(1)
        .expect("take output stream")
        .collect_output();
    assert_eq!(out_last.event_count(), 6);
    assert_eq!(ss.stats().dropped(), 1);
    assert!(ss.stats().completeness(1) < 1.0);
}

/// The Fig 10(b) effect in miniature: the basic framework's unions buffer
/// raw events; the advanced one buffers per-window partials.
#[test]
fn advanced_buffers_less_than_basic() {
    let window = TickDuration::ticks(100);
    // Sorted arrivals with occasional stragglers delayed ~5000 ticks.
    let arrivals: Vec<Event<u32>> = (0..20_000i64)
        .map(|i| at(if i % 100 == 99 { i - 5_000 } else { i }.max(0)))
        .collect();
    let ls = [TickDuration::ticks(10), TickDuration::ticks(10_000)];
    let pol = IngressPolicy {
        punctuation_frequency: 100,
        reorder_latency: TickDuration::ZERO,
        batch_size: 512,
    };
    let windowed =
        || DisorderedStreamable::from_arrivals(arrivals.clone(), &pol).tumbling_window(window);

    let basic_meter = MemoryMeter::new();
    let mut ss = basic(windowed(), &ls, &basic_meter, FrameworkPolicy::default());
    // Both outputs subscribed, the query applied per stream, redundantly.
    let _basic: Vec<Output<u64>> = (0..2)
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .count()
                .collect_output()
        })
        .collect();

    let adv_meter = MemoryMeter::new();
    let mut ss = windowed()
        .to_streamables(
            &ls,
            |s: Streamable<u32>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &adv_meter,
            FrameworkPolicy::default(),
        )
        .expect("valid ladder");
    let _advanced = collect_all(&mut ss);

    assert!(
        adv_meter.peak() * 3 < basic_meter.peak(),
        "advanced peak {} not well below basic peak {}",
        adv_meter.peak(),
        basic_meter.peak()
    );
}

#[test]
fn streams_complete_and_carry_final_punctuation() {
    let meter = MemoryMeter::new();
    let mut ss = basic(source(), &ladder(), &meter, FrameworkPolicy::default());
    for (i, out) in collect_all(&mut ss).iter().enumerate() {
        assert!(out.is_completed(), "stream {i}");
        assert!(matches!(
            out.messages().last(),
            Some(StreamMessage::Completed)
        ));
    }
    assert_eq!(meter.current(), 0, "all buffered state released");
}

/// `ds`, aligned by a tumbling window of `window` when one is given.
fn maybe_windowed(
    ds: DisorderedStreamable<u32>,
    window: Option<TickDuration>,
) -> DisorderedStreamable<u32> {
    match window {
        Some(w) => ds.tumbling_window(w),
        None => ds,
    }
}

/// Each rung picks its sorter by the planner's rule: over window starts
/// it buckets (no Impatience runs), also behind a later `where_`;
/// without the window, or under `ShedOldestRuns`, it keeps Impatience.
#[test]
fn rungs_bucket_window_aligned_input() {
    let window = Some(TickDuration::ticks(20));
    let cases = [
        (window, ShedPolicy::default(), true),
        (None, ShedPolicy::default(), false),
        (window, ShedPolicy::ShedOldestRuns, false),
    ];
    for (window, shed, bucket) in cases {
        let registry = MetricsRegistry::new();
        let meter = MemoryMeter::new();
        let ds = maybe_windowed(source(), window)
            .where_(|e| e.payload != 7)
            .instrument(&registry, "framework");
        let policy = FrameworkPolicy {
            shed,
            ..FrameworkPolicy::default()
        };
        let mut ss = basic(ds, &ladder(), &meter, policy);
        for (i, out) in collect_all(&mut ss).iter().enumerate() {
            assert!(out.is_completed());
            let runs = registry
                .gauge(&format!("partition{i:02}.00.sorter.runs"))
                .high_water();
            assert_eq!(
                runs == 0,
                bucket,
                "rung {i} runs high water {runs} ({window:?}, {shed:?})"
            );
        }
    }
}

/// An arrival at `i64::MIN + 5` behind a watermark of 1000: its delay
/// does not fit in an `i64` and exceeds every latency, so the event is
/// dropped, neither wrapped into the fastest rung nor a panic. A window
/// aligns it to `MIN`, which changes nothing.
#[test]
fn delay_between_the_ends_of_i64_drops_the_event() {
    for window in [None, Some(TickDuration::ticks(10))] {
        let meter = MemoryMeter::new();
        let ds =
            DisorderedStreamable::from_arrivals(vec![at(1000), at(i64::MIN + 5)], &one_by_one());
        let mut ss = basic(
            maybe_windowed(ds, window),
            &ladder(),
            &meter,
            FrameworkPolicy::default(),
        );
        for (i, out) in collect_all(&mut ss).iter().enumerate() {
            assert_eq!(times(out), vec![1000], "stream {i} ({window:?})");
        }
        let stats = ss.stats();
        let routed: Vec<u64> = (0..3).map(|i| stats.routed(i)).collect();
        assert_eq!(routed, vec![1, 0, 0], "{window:?}");
        assert_eq!(stats.dropped(), 1, "{window:?}");
    }
}

#[test]
fn drop_policy_discards_events_that_miss_the_fastest_partition() {
    let meter = MemoryMeter::new();
    let policy = FrameworkPolicy {
        late: LatePolicy::Drop,
        ..FrameworkPolicy::default()
    };
    let mut ss = basic(source(), &ladder(), &meter, policy);
    let outs = collect_all(&mut ss);
    // Delays 0, 0, 5, 0, 25, 0, 35: only the five delay < 10 events
    // survive; the two reroutable stragglers are dropped instead.
    let stats = ss.stats();
    assert_eq!(stats.routed(0), 5);
    assert_eq!(stats.routed(1), 0);
    assert_eq!(stats.routed(2), 0);
    assert_eq!(stats.dropped(), 2);
    assert_eq!(stats.total(), 7);
    for o in &outs {
        assert_eq!(o.event_count(), 5);
        assert!(o.is_completed());
    }
}

/// Under `DeadLetter` every straggler is diverted — the delay-25 event
/// past the fastest rung and the delay-35 one past every rung — and
/// counted, also without a queue attached.
#[test]
fn dead_lettered_registry_counter_is_published() {
    let registry = MetricsRegistry::new();
    let meter = MemoryMeter::new();
    let ds = source().instrument(&registry, "framework");
    let policy = FrameworkPolicy {
        late: LatePolicy::DeadLetter,
        ..FrameworkPolicy::default()
    };
    let mut ss = basic(ds, &ladder(), &meter, policy);
    let _outs = collect_all(&mut ss);
    assert_eq!(registry.counter("framework.dead_lettered").get(), 2);
    assert_eq!(ss.stats().dead_lettered(), 2);
}

#[test]
fn take_stream_returns_typed_errors() {
    let meter = MemoryMeter::new();
    let mut ss = basic(source(), &ladder()[..1], &meter, FrameworkPolicy::default());
    assert!(ss.take_stream(5).is_err(), "out of range");
    assert!(ss.take_stream(0).is_ok());
    match ss.take_stream(0) {
        Err(StreamError::InvalidConfig(msg)) => {
            assert!(msg.contains("already subscribed"), "{msg}")
        }
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("expected an error for a taken stream"),
    }
}
