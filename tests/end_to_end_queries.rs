//! End-to-end integration tests: the paper's four evaluation queries
//! (§VI-D) executed through the full stack — generators → ingress →
//! Impatience framework → engine operators — checked against a batch
//! oracle that sorts everything first and evaluates directly.

use impatience::prelude::*;
use impatience_engine::Streamable;
use std::collections::BTreeMap;

const WINDOW: TickDuration = TickDuration(1_000);
const N: usize = 30_000;

/// Events an ideal (infinite-latency) plan would keep, minus those beyond
/// the framework's maximum latency, per the watermark-delay drop rule.
///
/// The window operator sits *below* the framework in these plans, so the
/// drop decision is made on window-aligned timestamps — the oracle aligns
/// first, exactly like the real pipeline.
fn surviving_events(ds: &Dataset, max_latency: TickDuration) -> Vec<Event<EvalPayload>> {
    let mut wm = Timestamp::MIN;
    let mut out = Vec::new();
    for e in &ds.events {
        let mut e = *e;
        impatience_engine::ops::align_tumbling(&mut e, WINDOW);
        wm = wm.max(e.sync_time);
        if wm - e.sync_time < max_latency {
            out.push(e);
        }
    }
    out
}

/// Oracle for Q1: tumbling-window count.
fn oracle_q1(events: &[Event<EvalPayload>]) -> BTreeMap<i64, u64> {
    let mut m = BTreeMap::new();
    for e in events {
        *m.entry(e.sync_time.align_down(WINDOW).ticks()).or_insert(0) += 1;
    }
    m
}

/// Oracle for Q2/Q3: windowed count per group.
fn oracle_grouped(events: &[Event<EvalPayload>], groups: u32) -> BTreeMap<(i64, u32), u64> {
    let mut m = BTreeMap::new();
    for e in events {
        let w = e.sync_time.align_down(WINDOW).ticks();
        *m.entry((w, e.key % groups)).or_insert(0) += 1;
    }
    m
}

fn latencies() -> Vec<TickDuration> {
    vec![
        TickDuration::millis(200),
        TickDuration::secs(5),
        TickDuration::minutes(30),
    ]
}

fn policy() -> IngressPolicy {
    IngressPolicy {
        punctuation_frequency: 500,
        reorder_latency: TickDuration::ZERO,
        batch_size: 512,
    }
}

fn datasets() -> Vec<Dataset> {
    vec![
        generate_cloudlog(&CloudLogConfig {
            events: N,
            servers: 80,
            burst_len: 1_000,
            burst_delay: 200_000,
            failure_bursts: 2,
            ..Default::default()
        }),
        generate_synthetic(&SyntheticConfig {
            events: N,
            ..Default::default()
        }),
    ]
}

#[test]
fn q1_windowed_count_advanced_framework_matches_oracle() {
    for ds in datasets() {
        let name = ds.name.clone();
        let expect = oracle_q1(&surviving_events(&ds, *latencies().last().unwrap()));
        let meter = MemoryMeter::new();
        let d = DisorderedStreamable::from_arrivals(ds.events, &policy()).tumbling_window(WINDOW);
        let mut ss = to_streamables_advanced(
            d,
            &latencies(),
            |s: Streamable<EvalPayload>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            Default::default(),
        )
        .unwrap();
        let complete = ss
            .take_stream(ss.len() - 1)
            .expect("take output stream")
            .collect_output();
        let got: BTreeMap<i64, u64> = complete
            .events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.payload))
            .collect();
        assert_eq!(got, expect, "Q1 mismatch on {name}");
        assert_eq!(meter.current(), 0, "{name}: state leaked");
    }
}

#[test]
fn q2_grouped_count_matches_oracle() {
    const GROUPS: u32 = 100;
    for ds in datasets() {
        let name = ds.name.clone();
        let expect = oracle_grouped(&surviving_events(&ds, *latencies().last().unwrap()), GROUPS);
        let meter = MemoryMeter::new();
        let d = DisorderedStreamable::from_arrivals(ds.events, &policy())
            .re_key(|e| e.key % GROUPS)
            .tumbling_window(WINDOW);
        let mut ss = to_streamables_advanced(
            d,
            &latencies(),
            |s: Streamable<EvalPayload>| s.group_aggregate(CountAgg),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            Default::default(),
        )
        .unwrap();
        let complete = ss
            .take_stream(ss.len() - 1)
            .expect("take output stream")
            .collect_output();
        let got: BTreeMap<(i64, u32), u64> = complete
            .events()
            .iter()
            .map(|e| ((e.sync_time.ticks(), e.key), e.payload))
            .collect();
        assert_eq!(got, expect, "Q2 mismatch on {name}");
    }
}

#[test]
fn q4_top5_is_consistent_with_grouped_oracle() {
    const GROUPS: u32 = 100;
    const K: usize = 5;
    let ds = &datasets()[0];
    let expect_counts = oracle_grouped(&surviving_events(ds, *latencies().last().unwrap()), GROUPS);
    let meter = MemoryMeter::new();
    let d = DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
        .re_key(|e| e.key % GROUPS)
        .tumbling_window(WINDOW);
    // Top-k is not mergeable: truncating inside the merge function would
    // lose partial counts feeding the next union. The merge recombines
    // counts; top-k runs on the consumed output stream.
    let mut ss = to_streamables_advanced(
        d,
        &latencies(),
        |s: Streamable<EvalPayload>| s.group_aggregate(CountAgg),
        |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
        &meter,
        Default::default(),
    )
    .unwrap();
    let complete = ss
        .take_stream(ss.len() - 1)
        .expect("take output stream")
        .top_k(K, |c| *c as i64)
        .collect_output();
    // Check each emitted window's top-5 against the oracle's.
    let mut by_window: BTreeMap<i64, Vec<(u64, u32)>> = BTreeMap::new();
    for e in complete.events() {
        by_window
            .entry(e.sync_time.ticks())
            .or_default()
            .push((e.payload, e.key));
    }
    for (w, got) in &by_window {
        let mut oracle: Vec<(u64, u32)> = expect_counts
            .iter()
            .filter(|((ow, _), _)| ow == w)
            .map(|((_, k), c)| (*c, *k))
            .collect();
        oracle.sort_by_key(|&(c, k)| (core::cmp::Reverse(c), k));
        oracle.truncate(K);
        assert_eq!(got, &oracle, "top-5 mismatch in window {w}");
    }
    assert!(!by_window.is_empty());
}

#[test]
fn earlier_streams_are_prefixes_in_completeness() {
    // Output i must never report a *higher* windowed count than output
    // i+1, and the final stream carries the complete answer.
    let ds = generate_androidlog(&AndroidLogConfig {
        events: N,
        devices: 40,
        ..Default::default()
    });
    let ls = vec![
        TickDuration::minutes(10),
        TickDuration::hours(1),
        TickDuration::days(2),
    ];
    let meter = MemoryMeter::new();
    let d = DisorderedStreamable::from_arrivals(ds.events.clone(), &policy())
        .tumbling_window(TickDuration::minutes(10));
    let mut ss = to_streamables_advanced(
        d,
        &ls,
        |s: Streamable<EvalPayload>| s.count(),
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
    let counts = |o: &Output<u64>| -> BTreeMap<i64, u64> {
        o.events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.payload))
            .collect()
    };
    let c: Vec<BTreeMap<i64, u64>> = outs.iter().map(counts).collect();
    for i in 0..2 {
        for (w, n) in &c[i] {
            let later = c[i + 1].get(w).copied().unwrap_or(0);
            assert!(
                *n <= later,
                "stream {i} window {w}: {n} > stream {}'s {later}",
                i + 1
            );
        }
    }
    // Completeness increases along the latency ladder.
    let stats = ss.stats();
    assert!(stats.completeness(0) <= stats.completeness(1));
    assert!(stats.completeness(1) <= stats.completeness(2));
    // AndroidLog at 10 minutes loses a lot; at 2 days nearly nothing.
    assert!(stats.completeness(0) < 0.9);
    assert!(stats.completeness(2) > 0.95);
}
