//! Property tests over the full stack: for arbitrary arrival sequences and
//! latency ladders, the Impatience framework must agree with a batch
//! oracle, the basic and advanced frameworks must agree with each other,
//! output streams must be ordered and monotone in completeness, and over
//! windowed input the basic framework's streams must order equal times
//! exactly: by partition, then by arrival.
//!
//! Over windowed input each advanced rung fuses its sort with the grouped
//! operator its PIQ opens with — `group_aggregate` or `reduce_by_key`, one
//! table per open window, no event buffered; the basic framework plus the
//! query per output is the sort-first spelling of the same plan. The two
//! must agree under every late policy, dead letters included, for an
//! additive count and for a combine that keeps the first payload (which
//! only arrival order within a window decides); fused rungs must stay
//! ordered and release their memory under a budget that forces cuts; and
//! a PIQ that opens with anything else keeps the sort first — a `re_key`,
//! or a second window over the aligned input — except a filter, which
//! runs below the sort by the planner's rule and leaves the grouped
//! operator to fuse.
//!
//! On failure the harness prints the failing case seed; replay with
//! `IMPATIENCE_PROP_SEED=0x<seed> cargo test <test name>`.

use impatience::prelude::*;
use impatience_core::{validate_ordered_stream, DeadLetterQueue, LatePolicy};
use impatience_engine::{FrameworkPolicy, Streamable};
use impatience_testkit::prop::{vec as pvec, weighted_bool, Strategy};
use impatience_testkit::props;
use std::collections::BTreeMap;

fn window() -> TickDuration {
    TickDuration::ticks(16)
}

/// Arbitrary arrival sequence: mostly advancing with occasional big
/// regressions (late stragglers). Ingress cuts batches of up to 32
/// events, so most batches of a multi-rung ladder change rung inside the
/// batch under reroute, and mix routed and diverted events under the other
/// late policies; a punctuation every few events leaves one-rung batches
/// too.
fn arrivals_strategy() -> impl Strategy<Value = Vec<Event<u32>>> {
    pvec((0i64..40, weighted_bool(0.15), 0u32..8), 1..400).prop_map(|steps| {
        let mut t = 0i64;
        let mut out = Vec::new();
        for (advance, late, key) in steps {
            t += advance;
            let sync = if late { (t - 100).max(0) } else { t };
            out.push(Event::keyed(Timestamp::new(sync), key, key));
        }
        out
    })
}

/// Arrivals that straggle more often and by varying amounts, so every rung
/// holds several sorted runs sharing window starts — where Impatience's
/// merge order among equal times would show. The payload is the arrival
/// index, so that order is visible in the output.
fn scattered_arrivals_strategy() -> impl Strategy<Value = Vec<Event<u32>>> {
    pvec((0i64..40, weighted_bool(0.3), 0i64..400, 0u32..8), 1..400).prop_map(|steps| {
        let mut t = 0i64;
        let mut out = Vec::new();
        for (advance, late, back, key) in steps {
            t += advance;
            let sync = if late { (t - back).max(0) } else { t };
            out.push(Event::keyed(Timestamp::new(sync), key, out.len() as u32));
        }
        out
    })
}

fn policy(freq: usize) -> IngressPolicy {
    IngressPolicy {
        punctuation_frequency: freq,
        reorder_latency: TickDuration::ZERO,
        batch_size: 32,
    }
}

/// Oracle: windowed grouped counts over events surviving the aligned
/// watermark-delay drop rule.
fn oracle(arrivals: &[Event<u32>], max_latency: TickDuration) -> BTreeMap<(i64, u32), u64> {
    let mut wm = Timestamp::MIN;
    let mut m = BTreeMap::new();
    for e in arrivals {
        let aligned = e.sync_time.align_down(window());
        wm = wm.max(aligned);
        if wm - aligned < max_latency {
            *m.entry((aligned.ticks(), e.key)).or_insert(0) += 1;
        }
    }
    m
}

/// One output stream's keyed window results (counts by default).
type Counts<Q = u64> = BTreeMap<(i64, u32), Q>;

/// Dead letters as `(sync_time, key, payload, reason)`, in diversion order.
type Letters = Vec<(i64, u32, u32, String)>;

fn counts<Q: Payload>(o: &Output<Q>) -> Counts<Q> {
    o.events()
        .into_iter()
        .map(|e| ((e.sync_time.ticks(), e.key), e.payload))
        .collect()
}

/// `late` as a framework policy, diverting into the returned queue.
fn late_policy(late: LatePolicy) -> (FrameworkPolicy<u32>, DeadLetterQueue<u32>) {
    let dlq = DeadLetterQueue::new();
    let policy = FrameworkPolicy {
        late,
        dead_letters: Some(dlq.clone()),
        ..FrameworkPolicy::default()
    };
    (policy, dlq)
}

fn letters(dlq: &DeadLetterQueue<u32>) -> Letters {
    dlq.drain()
        .into_iter()
        .map(|l| {
            let e = l.event;
            (
                e.sync_time.ticks(),
                e.key,
                e.payload,
                format!("{:?}", l.reason),
            )
        })
        .collect()
}

/// The additive merge of partial counts.
fn add(s: Streamable<u64>) -> Streamable<u64> {
    s.reduce_by_key(|a, b| *a += b)
}

/// Keeps each (window, key) group's first payload: not commutative, so
/// only the order a group's events arrive in decides it.
fn keep_first(s: Streamable<u32>) -> Streamable<u32> {
    s.reduce_by_key(|_, _| {})
}

/// The advanced framework over the windowed arrivals with `piq` and
/// `merge`, every output collected and checked ordered and complete.
#[allow(clippy::too_many_arguments)]
fn run_piq<Q: Payload>(
    arrivals: Vec<Event<u32>>,
    latencies: &[TickDuration],
    freq: usize,
    piq: impl Fn(Streamable<u32>) -> Streamable<Q> + 'static,
    merge: fn(Streamable<Q>) -> Streamable<Q>,
    meter: &MemoryMeter,
    registry: Option<&MetricsRegistry>,
    framework: FrameworkPolicy<u32>,
) -> Vec<Output<Q>> {
    let ds = DisorderedStreamable::from_arrivals(arrivals, &policy(freq)).tumbling_window(window());
    let ds = match registry {
        Some(r) => ds.instrument(r, "framework"),
        None => ds,
    };
    let mut ss = ds
        .to_streamables(latencies, piq, merge, meter, framework)
        .unwrap();
    (0..latencies.len())
        .map(|i| {
            let o = ss
                .take_stream(i)
                .expect("take output stream")
                .collect_output();
            assert!(o.is_completed());
            assert!(validate_ordered_stream(&o.messages()).is_ok());
            o
        })
        .collect()
}

/// Per-rung keyed window counts, the bytes left charged to the meter, and
/// the dead letters, under the late policy `late`.
type LadderOutputs = (Vec<Counts>, f64, Letters);

fn count(s: Streamable<u32>) -> Streamable<u64> {
    s.group_aggregate(CountAgg)
}

fn run_advanced(
    arrivals: Vec<Event<u32>>,
    latencies: &[TickDuration],
    freq: usize,
    late: LatePolicy,
) -> LadderOutputs {
    let meter = MemoryMeter::new();
    let (framework, dlq) = late_policy(late);
    let outs = run_piq(
        arrivals, latencies, freq, count, add, &meter, None, framework,
    );
    let leak = meter.current() as f64;
    (outs.iter().map(counts).collect(), leak, letters(&dlq))
}

/// The sort-first spelling: the basic framework, `query` per output.
fn run_basic_with_query<Q: Payload>(
    arrivals: Vec<Event<u32>>,
    latencies: &[TickDuration],
    freq: usize,
    late: LatePolicy,
    query: fn(Streamable<u32>) -> Streamable<Q>,
) -> (Vec<Counts<Q>>, Letters) {
    let meter = MemoryMeter::new();
    let (framework, dlq) = late_policy(late);
    let ds = DisorderedStreamable::from_arrivals(arrivals, &policy(freq)).tumbling_window(window());
    let mut ss = ds
        .to_streamables(latencies, |s| s, |s| s, &meter, framework)
        .unwrap();
    let outs = (0..latencies.len())
        .map(|i| {
            let o = query(ss.take_stream(i).expect("take output stream")).collect_output();
            counts(&o)
        })
        .collect();
    (outs, letters(&dlq))
}

/// What each output stream of the basic framework over the windowed input
/// must hold, as `(window start, key, payload)`: the events the aligned
/// watermark-delay rule routes to partitions `0..=i`, stably sorted by
/// `(window start, partition)`. Each rung's bucket sorter keeps arrival
/// order within a window start, and each union takes ties from its faster
/// (left) side first, which holds the lower partitions.
fn tier_oracle(arrivals: &[Event<u32>], latencies: &[TickDuration]) -> Vec<Vec<(i64, u32, u32)>> {
    let mut wm = Timestamp::MIN;
    let mut routed = Vec::new();
    for e in arrivals {
        let aligned = e.sync_time.align_down(window());
        wm = wm.max(aligned);
        if let Some(p) = latencies.iter().position(|&l| wm - aligned < l) {
            routed.push((aligned.ticks(), p, e.key, e.payload));
        }
    }
    routed.sort_by_key(|&(t, p, ..)| (t, p)); // `sort_by_key` is stable
    (0..latencies.len())
        .map(|i| {
            routed
                .iter()
                .filter(|&&(_, p, ..)| p <= i)
                .map(|&(t, _, key, payload)| (t, key, payload))
                .collect()
        })
        .collect()
}

/// The advanced framework with `piq` and `merge` against the basic one
/// with `query` per output, under every late policy: the same query over
/// the same partitions gives identical results stream by stream, and the
/// same events diverted the same way. Returns the counter names of the
/// advanced runs.
fn agree<Q: Payload>(
    arrivals: Vec<Event<u32>>,
    freq: usize,
    piq: fn(Streamable<u32>) -> Streamable<Q>,
    merge: fn(Streamable<Q>) -> Streamable<Q>,
    query: fn(Streamable<u32>) -> Streamable<Q>,
) -> Vec<String> {
    let ls = [TickDuration::ticks(32), TickDuration::ticks(256)];
    let registry = MetricsRegistry::new();
    for late in [
        LatePolicy::RerouteNextPartition,
        LatePolicy::Drop,
        LatePolicy::DeadLetter,
    ] {
        let (framework, dlq) = late_policy(late);
        let meter = MemoryMeter::new();
        let adv = run_piq(
            arrivals.clone(),
            &ls,
            freq,
            piq,
            merge,
            &meter,
            Some(&registry),
            framework,
        );
        let (basic, basic_letters) = run_basic_with_query(arrivals.clone(), &ls, freq, late, query);
        assert_eq!(
            adv.iter().map(counts).collect::<Vec<_>>(),
            basic,
            "{late:?}"
        );
        assert_eq!(letters(&dlq), basic_letters, "{late:?}");
    }
    registry
        .snapshot()
        .counters
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

props! {
    cases = 64;

    fn basic_tiers_hold_admitted_events_in_time_then_partition_order(
        arrivals in scattered_arrivals_strategy(),
        freq in 1usize..60,
    ) {
        let ls = vec![
            TickDuration::ticks(16),
            TickDuration::ticks(64),
            TickDuration::ticks(400),
        ];
        let expect = tier_oracle(&arrivals, &ls);
        let meter = MemoryMeter::new();
        let ds = DisorderedStreamable::from_arrivals(arrivals, &policy(freq)).tumbling_window(window());
        let mut ss = ds.to_streamables(&ls, |s| s, |s| s, &meter, Default::default()).unwrap();
        for (i, expect) in expect.iter().enumerate() {
            let o = ss
                .take_stream(i)
                .expect("take output stream")
                .collect_output();
            assert!(o.is_completed());
            let got: Vec<(i64, u32, u32)> = o
                .events()
                .iter()
                .map(|e| (e.sync_time.ticks(), e.key, e.payload))
                .collect();
            assert_eq!(&got, expect, "tier {i}");
        }
    }

    fn final_stream_matches_oracle(
        arrivals in arrivals_strategy(),
        freq in 1usize..60,
    ) {
        let ls = vec![
            TickDuration::ticks(16),
            TickDuration::ticks(64),
            TickDuration::ticks(400),
        ];
        let expect = oracle(&arrivals, ls[2]);
        let (outs, leak, _) = run_advanced(arrivals, &ls, freq, LatePolicy::RerouteNextPartition);
        assert_eq!(outs[2], expect);
        assert_eq!(leak, 0.0, "buffered state leaked");
    }

    fn basic_and_advanced_agree(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        agree(arrivals, freq, count, add, count);
    }

    fn a_fused_reduce_by_key_piq_agrees_with_the_sort_first_plan(
        arrivals in scattered_arrivals_strategy(),
        freq in 1usize..40,
    ) {
        let names = agree(arrivals, freq, keep_first, keep_first, keep_first);
        for i in 0..2 {
            let rung = format!("partition{i:02}.");
            assert!(names.contains(&format!("{rung}00.sort.events_in")), "rung {i}");
            assert!(
                !names.iter().any(|n| n.starts_with(&rung) && n.contains("reduce_by_key")),
                "rung {i}: the PIQ's reduce_by_key ran as its own stage"
            );
        }
    }

    fn fused_rungs_cut_under_a_tight_budget(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        // Smaller than one window table: every batch a rung admits forces
        // a cut, which closes its windows early.
        let meter = MemoryMeter::with_budget(64);
        let registry = MetricsRegistry::new();
        let ls = [TickDuration::ticks(16), TickDuration::ticks(64), TickDuration::ticks(400)];
        run_piq(arrivals, &ls, freq, count, add, &meter, Some(&registry), FrameworkPolicy::default());
        let forced: u64 = (0..ls.len())
            .map(|i| registry.counter(&format!("partition{i:02}.00.sort.forced_punctuations")).get())
            .sum();
        assert!(forced > 0, "the budget forced no cut");
        assert_eq!(meter.current(), 0, "state left charged at completion");
    }

    fn a_piq_opening_with_another_stage_keeps_the_sort_first(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        let ls = [TickDuration::ticks(32), TickDuration::ticks(256)];
        let [fused, hoisted, rekeyed, windowed] = [(); 4].map(|_| MetricsRegistry::new());
        let run = |piq: fn(Streamable<u32>) -> Streamable<u64>, registry| {
            let outs = run_piq(
                arrivals.clone(),
                &ls,
                freq,
                piq,
                add,
                &MemoryMeter::new(),
                Some(registry),
                FrameworkPolicy::default(),
            );
            outs.iter().map(counts).collect::<Vec<_>>()
        };
        let a = run(count, &fused);
        let b = run(|s| s.where_(|_| true).group_aggregate(CountAgg), &hoisted);
        assert_eq!(a, b);
        let c = run(|s| s.re_key(|e| e.key).group_aggregate(CountAgg), &rekeyed);
        let d = run(|s| s.tumbling_window(window()).group_aggregate(CountAgg), &windowed);
        assert_eq!((&a, &a), (&c, &d));
        let rows = |r: &MetricsRegistry| -> BTreeMap<String, u64> {
            r.snapshot().counters.into_iter().collect()
        };
        let [fused, hoisted, rekeyed, windowed] = [fused, hoisted, rekeyed, windowed].map(|r| rows(&r));
        for i in 0..ls.len() {
            let row = |stage: &str, count: &str| format!("partition{i:02}.{stage}.{count}");
            let has = |rows: &BTreeMap<String, u64>, stage| rows.contains_key(&row(stage, "events_in"));
            let grouped = |rows: &BTreeMap<String, u64>| rows.keys().any(|n| n.contains("group_aggregate"));
            assert!(has(&fused, "00.sort") && !grouped(&fused), "rung {i}");
            // A filter opening the PIQ runs below the sort, which then fuses.
            assert!(has(&hoisted, "01.where") && has(&hoisted, "00.sort"), "rung {i}");
            assert!(!grouped(&hoisted), "rung {i}");
            // `re_key` does not shrink the sort: sort first, no fusion.
            assert!(has(&rekeyed, "01.re_key") && has(&rekeyed, "02.group_aggregate"), "rung {i}");
            // Over aligned input a second window is not the one window
            // ahead: it stays above the sort, which it takes all output of.
            assert!(has(&windowed, "02.group_aggregate"), "rung {i}");
            for count in ["events", "batches", "punctuations"] {
                assert_eq!(
                    windowed[&row("00.sort", &format!("{count}_out"))],
                    windowed[&row("01.tumbling_window", &format!("{count}_in"))],
                    "rung {i}: {count}"
                );
            }
        }
    }

    fn completeness_monotone_in_latency(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        let ls = vec![
            TickDuration::ticks(8),
            TickDuration::ticks(128),
            TickDuration::ticks(1024),
        ];
        let (outs, ..) = run_advanced(arrivals, &ls, freq, LatePolicy::RerouteNextPartition);
        for i in 0..outs.len() - 1 {
            for (wk, n) in &outs[i] {
                let later = outs[i + 1].get(wk).copied().unwrap_or(0);
                assert!(*n <= later, "stream {i} over-counted {wk:?}");
            }
        }
    }

    fn single_latency_equals_plain_buffer_and_sort(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        // A 1-latency framework must equal DisorderedStreamable →
        // to_streamable with the same punctuation cadence... the framework
        // punctuates from its own watermark clock, so compare against the
        // oracle instead, which models exactly that clock.
        let ls = vec![TickDuration::ticks(64)];
        let expect = oracle(&arrivals, ls[0]);
        let (outs, ..) = run_advanced(arrivals, &ls, freq, LatePolicy::RerouteNextPartition);
        assert_eq!(outs[0], expect);
    }
}
