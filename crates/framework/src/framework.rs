//! The Impatience framework (§V), spelled over a [`DisorderedStreamable`].
//! Each entry point is one expression over the engine's
//! [`Streamable::ladder`], which holds the wiring — delay partitioning,
//! rung sorters, unions, and the boundary that hands each rung the
//! chain's settings (see [`impatience_engine::ladder`]):
//!
//! * **Basic framework** ([`to_streamables_basic`], Fig 6(a)): raw events
//!   flow through sort → union chains. Downstream queries run redundantly
//!   per output, and unions buffer raw events across the latency gap.
//! * **Advanced framework** ([`to_streamables_advanced`], Fig 6(b)): a
//!   user-supplied **PIQ** (partial input query) runs once per partition
//!   and a **merge** function recombines partials after each union. Every
//!   input event is evaluated exactly once, and unions buffer only small
//!   intermediate results — the Fig 10 throughput (~2–3×) and memory
//!   (~30×) wins.

use crate::disordered::DisorderedStreamable;
use impatience_core::{MemoryMeter, MetricsRegistry, Payload, StreamError, TickDuration};
use impatience_engine::{FrameworkPolicy, Streamable, Streamables};

/// Builds the Impatience framework over `ds` (Fig 6): the latency ladder
/// of [`Streamable::ladder`], with each rung's sorter picked for the
/// window `ds` was aligned to.
///
/// `piq` is instantiated once per partition on the partition's *sorted*
/// stream — except that over windowed input a PIQ opening with
/// `group_aggregate` or `reduce_by_key` fuses with the sort, folding each event into its
/// window's table as it arrives, with the same output (see
/// [`impatience_engine::ladder`]); `merge` once per union output. For
/// correct results the pair must satisfy the usual partial-aggregation
/// law (e.g. per-window partial counts + addition). Returns the `k`
/// output streams.
pub fn to_streamables_advanced<P, Q>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    piq: impl Fn(Streamable<P>) -> Streamable<Q> + 'static,
    merge: impl Fn(Streamable<Q>) -> Streamable<Q> + 'static,
    meter: &MemoryMeter,
    policy: FrameworkPolicy<P>,
) -> Result<Streamables<Q>, StreamError>
where
    P: Payload,
    Q: Payload,
{
    ds.stream
        .ladder(ds.window, latencies, piq, merge, meter, policy)
}

/// The basic Impatience framework (Fig 6(a)): identity PIQ and merge, so
/// raw events flow through the sort/union chain and the user runs their
/// query per output stream — with the redundant-computation and
/// raw-event-buffering costs the advanced framework removes.
///
/// A spelling of [`to_streamables_advanced`] kept because the frozen
/// `stackbench/src/framework.rs` imports this name.
pub fn to_streamables_basic<P: Payload>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    meter: &MemoryMeter,
) -> Result<Streamables<P>, StreamError> {
    to_streamables_advanced(ds, latencies, |s| s, |s| s, meter, Default::default())
}

/// [`to_streamables_advanced`] over `ds` instrumented into `registry`
/// under `framework`. Kept because the frozen `stackbench/src/framework.rs`
/// imports this name; the benchmark change that moves it drops this.
pub fn to_streamables_advanced_metered<P, Q>(
    ds: DisorderedStreamable<P>,
    latencies: &[TickDuration],
    piq: impl Fn(Streamable<P>) -> Streamable<Q> + 'static,
    merge: impl Fn(Streamable<Q>) -> Streamable<Q> + 'static,
    meter: &MemoryMeter,
    registry: Option<&MetricsRegistry>,
) -> Result<Streamables<Q>, StreamError>
where
    P: Payload,
    Q: Payload,
{
    let ds = match registry {
        Some(r) => ds.instrument(r, "framework"),
        None => ds,
    };
    to_streamables_advanced(ds, latencies, piq, merge, meter, Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::{
        validate_ordered_stream, Event, LatePolicy, ShedPolicy, StreamMessage, Timestamp, TraceSink,
    };
    use impatience_engine::{IngressPolicy, TraceCtx};

    fn ev(t: i64) -> Event<u32> {
        Event::point(Timestamp::new(t), t as u32)
    }

    /// Arrival sequence with known delays: (sync_time, …) where some
    /// events trail the watermark.
    fn arrivals() -> Vec<Event<u32>> {
        // wm:      10  20  20  30  30   40  40
        // delay:    0   0   5   0  25    0  35
        [10i64, 20, 15, 30, 5, 40, 5]
            .iter()
            .map(|&t| ev(t))
            .collect()
    }

    fn policy() -> IngressPolicy {
        IngressPolicy {
            punctuation_frequency: 1,
            reorder_latency: TickDuration::ZERO,
            batch_size: 1,
        }
    }

    fn latencies() -> Vec<TickDuration> {
        vec![
            TickDuration::ticks(10),
            TickDuration::ticks(30),
            TickDuration::ticks(100),
        ]
    }

    /// The basic framework (identity PIQ and merge) under `policy`.
    fn basic_with(
        ds: DisorderedStreamable<u32>,
        latencies: &[TickDuration],
        meter: &MemoryMeter,
        policy: FrameworkPolicy<u32>,
    ) -> Streamables<u32> {
        to_streamables_advanced(ds, latencies, |s| s, |s| s, meter, policy).unwrap()
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
            assert!(
                to_streamables_basic(ds, &ls, &meter).is_err(),
                "{label} accepted"
            );
        }
    }

    #[test]
    fn basic_framework_stream_i_contains_partitions_up_to_i() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &latencies(), &meter).unwrap();
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Delays: 0,0,5,0,25,0,35 → partitions 0,0,0,0,1,0,2; none dropped.
        let times = |o: &impatience_engine::Output<u32>| -> Vec<i64> {
            o.events().iter().map(|e| e.sync_time.ticks()).collect()
        };
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
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        // Max latency 30: the delay-35 event is dropped.
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(30)];
        let mut ss = to_streamables_basic(ds, &ls, &meter).unwrap();
        let out_last = ss
            .take_stream(1)
            .expect("take output stream")
            .collect_output();
        assert_eq!(out_last.event_count(), 6);
        assert_eq!(ss.stats().dropped(), 1);
        assert!(ss.stats().completeness(1) < 1.0);
    }

    #[test]
    fn advanced_framework_counts_match_basic_query() {
        // Tumbling-window count with PIQ = windowed count per partition,
        // merge = add partial counts (the paper's Q1 shape).
        let meter = MemoryMeter::new();
        let window = TickDuration::ticks(20);
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy()).tumbling_window(window);
        let mut ss = to_streamables_advanced(
            ds,
            &latencies(),
            |s: Streamable<u32>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            Default::default(),
        )
        .unwrap();
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Full data windows (size 20): {5,5,10,15} → w0: but window op is
        // below the framework: events aligned before partitioning.
        // Aligned times: 10→0, 20→20, 15→0, 30→20, 5→0, 40→40, 5→0.
        // Complete counts: w0: 4 (10,15,5,5), w20: 2 (20,30), w40: 1 (40).
        let counts = |o: &impatience_engine::Output<u64>| -> Vec<(i64, u64)> {
            o.events()
                .iter()
                .map(|e| (e.sync_time.ticks(), e.payload))
                .collect()
        };
        // The last (most complete) stream must carry the exact counts.
        assert_eq!(counts(&outs[2]), vec![(0, 4), (20, 2), (40, 1)]);
        // Earlier streams under-count only where late events were missed.
        for o in &outs {
            assert!(validate_ordered_stream(&o.messages()).is_ok());
            assert!(o.is_completed());
        }
        let c0 = counts(&outs[0]);
        assert!(c0.iter().all(|&(w, c)| {
            counts(&outs[2])
                .iter()
                .find(|&&(w2, _)| w2 == w)
                .is_some_and(|&(_, c2)| c <= c2)
        }));
    }

    #[test]
    fn traced_framework_tags_spans_per_partition() {
        use impatience_core::trace::{TraceClock, TraceConfig};
        let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
        let meter = MemoryMeter::new();
        let window = TickDuration::ticks(20);
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy())
            .tumbling_window(window)
            .traced(TraceCtx::new(&sink));
        let mut ss = to_streamables_advanced(
            ds,
            &latencies(),
            |s: Streamable<u32>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            Default::default(),
        )
        .unwrap();
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        for o in &outs {
            assert!(o.is_completed());
        }
        // Tracing must not change the query results.
        let counts: Vec<(i64, u64)> = outs[2]
            .events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.payload))
            .collect();
        assert_eq!(counts, vec![(0, 4), (20, 2), (40, 1)]);
        // Every partition's sort + PIQ stages recorded under its own tag
        // and lane, mirroring the Table-II latency ladder.
        let spans = sink.spans();
        for i in 0..3u32 {
            let tag = format!("partition{i:02}.");
            let mine: Vec<_> = spans.iter().filter(|s| s.op.starts_with(&tag)).collect();
            assert!(!mine.is_empty(), "no spans for partition {i}");
            assert!(mine.iter().all(|s| s.shard == i), "lane mismatch");
            assert!(
                mine.iter()
                    .any(|s| s.kind == impatience_core::SpanKind::Sort),
                "partition {i} missing sort span"
            );
            assert!(
                mine.iter().any(|s| s.op.ends_with(".count")),
                "partition {i} missing PIQ span"
            );
        }
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn advanced_buffers_less_than_basic() {
        // The Fig 10(b) effect in miniature: the basic framework's unions
        // buffer raw events; the advanced one buffers per-window partials.
        let window = TickDuration::ticks(100);
        let n = 20_000usize;
        // Sorted arrivals with occasional stragglers delayed ~5000 ticks.
        let arrivals: Vec<Event<u32>> = (0..n)
            .map(|i| {
                let t = if i % 100 == 99 {
                    (i as i64) - 5_000
                } else {
                    i as i64
                };
                ev(t.max(0))
            })
            .collect();
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(10_000)];
        let pol = IngressPolicy {
            punctuation_frequency: 100,
            reorder_latency: TickDuration::ZERO,
            batch_size: 512,
        };

        let basic_meter = MemoryMeter::new();
        let ds =
            DisorderedStreamable::from_arrivals(arrivals.clone(), &pol).tumbling_window(window);
        let mut ss = to_streamables_basic(ds, &ls, &basic_meter).unwrap();
        // Subscribe both outputs (queries applied per stream, redundantly).
        let _o0 = ss
            .take_stream(0)
            .expect("take output stream")
            .count()
            .collect_output();
        let _o1 = ss
            .take_stream(1)
            .expect("take output stream")
            .count()
            .collect_output();

        let adv_meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals, &pol).tumbling_window(window);
        let mut ss = to_streamables_advanced(
            ds,
            &ls,
            |s: Streamable<u32>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &adv_meter,
            Default::default(),
        )
        .unwrap();
        let _a0 = ss
            .take_stream(0)
            .expect("take output stream")
            .collect_output();
        let _a1 = ss
            .take_stream(1)
            .expect("take output stream")
            .collect_output();

        assert!(
            adv_meter.peak() * 3 < basic_meter.peak(),
            "advanced peak {} not well below basic peak {}",
            adv_meter.peak(),
            basic_meter.peak()
        );
    }

    #[test]
    fn single_latency_framework_is_buffer_and_sort() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &[TickDuration::ticks(10)], &meter).unwrap();
        assert_eq!(ss.len(), 1);
        let out = ss
            .take_stream(0)
            .expect("take output stream")
            .collect_output();
        // Only delay<10 events survive: 10,20,15,30,5(d25 dropped),40,5.
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![10, 15, 20, 30, 40]);
        assert_eq!(ss.stats().dropped(), 2);
    }

    #[test]
    fn streams_complete_and_carry_final_punctuation() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &latencies(), &meter).unwrap();
        for i in 0..ss.len() {
            let out = ss
                .take_stream(i)
                .expect("take output stream")
                .collect_output();
            assert!(out.is_completed(), "stream {i}");
            assert!(matches!(
                out.messages().last(),
                Some(StreamMessage::Completed)
            ));
        }
        assert_eq!(meter.current(), 0, "all buffered state released");
    }

    #[test]
    fn metered_framework_publishes_table_ii_metrics() {
        let registry = MetricsRegistry::new();
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy())
            .instrument(&registry, "framework");
        let mut ss = basic_with(ds, &latencies(), &meter, Default::default());
        let _outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Routing split surfaces through the registry (delays 0,0,5,0,25,0,35).
        assert_eq!(registry.counter("framework.partition00.routed").get(), 5);
        assert_eq!(registry.counter("framework.partition01.routed").get(), 1);
        assert_eq!(registry.counter("framework.partition02.routed").get(), 1);
        assert_eq!(registry.counter("framework.dropped").get(), 0);
        assert_eq!(
            registry.gauge("framework.partition01.latency_ticks").get(),
            30
        );
        // Partition pipelines are instrumented: sorter gauges + op counters.
        assert_eq!(registry.counter("partition00.00.sort.events_in").get(), 5);
        assert!(
            registry
                .gauge("partition00.00.sorter.state_bytes")
                .high_water()
                > 0
        );
        // FrameworkStats reads the same storage.
        assert_eq!(ss.stats().routed(0), 5);
        assert!((ss.stats().completeness(2) - 1.0).abs() < 1e-9);
        // Metered and unmetered frameworks produce identical streams.
        let plain_meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut plain = to_streamables_basic(ds, &latencies(), &plain_meter).unwrap();
        let plain_outs: Vec<_> = (0..3)
            .map(|i| {
                plain
                    .take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        for (a, b) in _outs.iter().zip(&plain_outs) {
            assert_eq!(a.messages(), b.messages());
        }
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
            let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
            let mut ss = basic_with(
                maybe_windowed(ds, window)
                    .where_(|e| e.payload != 7)
                    .instrument(&registry, "framework"),
                &latencies(),
                &meter,
                FrameworkPolicy {
                    shed,
                    ..FrameworkPolicy::default()
                },
            );
            for i in 0..3 {
                let out = ss
                    .take_stream(i)
                    .expect("take output stream")
                    .collect_output();
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
                DisorderedStreamable::from_arrivals(vec![ev(1000), ev(i64::MIN + 5)], &policy());
            let mut ss = to_streamables_basic(maybe_windowed(ds, window), &latencies(), &meter)
                .expect("valid ladder");
            for i in 0..3 {
                let out = ss
                    .take_stream(i)
                    .expect("take output stream")
                    .collect_output();
                let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
                assert_eq!(ts, vec![1000], "stream {i} ({window:?})");
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
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let fp = FrameworkPolicy {
            late: LatePolicy::Drop,
            ..FrameworkPolicy::default()
        };
        let mut ss = basic_with(ds, &latencies(), &meter, fp);
        let outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Delays 0,0,5,0,25,0,35: only the five delay<10 events survive;
        // the two reroutable stragglers are dropped instead.
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

    #[test]
    fn dead_letter_policy_diverts_and_accounts() {
        let meter = MemoryMeter::new();
        let dlq = impatience_core::DeadLetterQueue::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let fp = FrameworkPolicy {
            late: LatePolicy::DeadLetter,
            dead_letters: Some(dlq.clone()),
            ..FrameworkPolicy::default()
        };
        // Max latency 30, so the delay-35 event has no partition at all —
        // it is dead-lettered too, not silently dropped.
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(30)];
        let mut ss = basic_with(ds, &ls, &meter, fp);
        let _outs: Vec<_> = (0..2)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        let stats = ss.stats();
        assert_eq!(stats.routed(0), 5);
        assert_eq!(stats.dropped(), 0);
        assert_eq!(stats.dead_lettered(), 2, "delay-25 and delay-35 events");
        assert_eq!(stats.total(), 7);
        assert_eq!(dlq.total(), 2);
        let letters = dlq.drain();
        assert!(letters
            .iter()
            .all(|l| matches!(l.reason, impatience_core::DeadLetterReason::Late { .. })));
    }

    #[test]
    fn dead_lettered_registry_counter_is_published() {
        let registry = MetricsRegistry::new();
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy())
            .instrument(&registry, "framework");
        let fp = FrameworkPolicy {
            late: LatePolicy::DeadLetter,
            ..FrameworkPolicy::default()
        };
        let mut ss = basic_with(ds, &latencies(), &meter, fp);
        let _outs: Vec<_> = (0..3)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .collect_output()
            })
            .collect();
        // Counted even without an attached queue.
        assert_eq!(registry.counter("framework.dead_lettered").get(), 2);
        assert_eq!(ss.stats().dead_lettered(), 2);
    }

    #[test]
    fn take_stream_returns_typed_errors() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &[TickDuration::ticks(10)], &meter).unwrap();
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

    #[test]
    #[should_panic(expected = "already subscribed")]
    fn taking_a_stream_twice_panics() {
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals(), &policy());
        let mut ss = to_streamables_basic(ds, &[TickDuration::ticks(10)], &meter).unwrap();
        let _a = ss.take_stream(0).expect("take output stream");
        let _b = ss.take_stream(0).expect("take output stream");
    }

    /// The message tape used by the durable-framework tests: batches and
    /// punctuations interleaved so checkpoints land at known indices.
    fn durable_tape() -> Vec<StreamMessage<u32>> {
        vec![
            StreamMessage::batch(vec![ev(10), ev(20), ev(15)]),
            StreamMessage::punctuation(20),
            StreamMessage::batch(vec![ev(30), ev(5)]),
            StreamMessage::punctuation(30),
            StreamMessage::batch(vec![ev(40), ev(25)]),
            StreamMessage::punctuation(40),
            StreamMessage::Completed,
        ]
    }

    /// Builds a durable basic framework over `dir`, subscribes both
    /// outputs, feeds tape messages `range`, and returns the context plus
    /// the per-stream collected outputs.
    fn durable_run(
        dir: &std::path::Path,
        range: core::ops::Range<usize>,
    ) -> (
        impatience_engine::CheckpointCtx,
        Vec<impatience_engine::Output<u32>>,
    ) {
        let meter = MemoryMeter::new();
        let ls = vec![TickDuration::ticks(10), TickDuration::ticks(30)];
        let (h, ds) = DisorderedStreamable::live();
        let (ds, ctx) = ds.checkpointed(dir, 1).expect("open checkpoint dir");
        let mut ss = basic_with(ds, &ls, &meter, Default::default());
        let outs: Vec<_> = (0..2)
            .map(|i| {
                ss.take_stream(i)
                    .expect("take output stream")
                    .checkpoint_egress()
                    .collect_output()
            })
            .collect();
        let tape = durable_tape();
        for m in &tape[range] {
            h.push(m.clone()).expect("push");
        }
        (ctx, outs)
    }

    #[test]
    fn durable_framework_restores_ladder_state_across_crash() {
        let base = std::env::temp_dir().join(format!("impatience-fw-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let reference_dir = base.join("reference");
        let crashed_dir = base.join("crashed");

        // Uncrashed reference: the whole tape in one incarnation.
        let (_ctx, reference) = durable_run(&reference_dir, 0..7);

        // Crash right after the punctuation at tape index 3 (the gate has
        // checkpointed: 4 messages seen), then recover and feed the rest.
        let (ctx, first) = durable_run(&crashed_dir, 0..4);
        assert!(ctx.recovery().is_none(), "first incarnation is fresh");
        let events_before: Vec<Vec<Event<u32>>> =
            first.iter().map(|o| o.events().to_vec()).collect();
        drop(first);

        let (ctx, second) = durable_run(&crashed_dir, 4..7);
        let rec = ctx.recovery().expect("framework checkpoint recovered");
        assert_eq!(rec.messages_seen, 4, "replay the ingest tape from index 4");
        assert!(rec.fallback.is_none());

        // Exactly-once conformance per output stream: the uncrashed tape
        // equals the pre-crash prefix plus the post-recovery suffix.
        for (i, reference) in reference.iter().enumerate() {
            let mut combined = events_before[i].clone();
            combined.extend(second[i].events().to_vec());
            assert_eq!(
                reference.events(),
                combined,
                "stream {i} diverged across the crash"
            );
            assert!(second[i].is_completed(), "stream {i} completed");
        }
    }
}
