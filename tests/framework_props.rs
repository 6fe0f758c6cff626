//! Property tests over the full stack: for arbitrary arrival sequences and
//! latency ladders, the Impatience framework must agree with a batch
//! oracle, the basic and advanced frameworks must agree with each other,
//! output streams must be ordered and monotone in completeness, and over
//! windowed input the basic framework's streams must order equal times
//! exactly: by partition, then by arrival.
//!
//! On failure the harness prints the failing case seed; replay with
//! `IMPATIENCE_PROP_SEED=0x<seed> cargo test <test name>`.

use impatience::prelude::*;
use impatience_engine::Streamable;
use impatience_testkit::prop::{vec as pvec, weighted_bool, Strategy};
use impatience_testkit::props;
use std::collections::BTreeMap;

fn window() -> TickDuration {
    TickDuration::ticks(16)
}

/// Arbitrary arrival sequence: mostly advancing with occasional big
/// regressions (late stragglers).
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

/// Per-rung keyed window counts plus the measured work ratio.
type LadderOutputs = (Vec<BTreeMap<(i64, u32), u64>>, f64);

fn run_advanced(
    arrivals: Vec<Event<u32>>,
    latencies: &[TickDuration],
    freq: usize,
) -> LadderOutputs {
    let meter = MemoryMeter::new();
    let ds = DisorderedStreamable::from_arrivals(arrivals, &policy(freq)).tumbling_window(window());
    let mut ss = to_streamables_advanced(
        ds,
        latencies,
        |s: Streamable<u32>| s.group_aggregate(CountAgg),
        |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
        &meter,
        Default::default(),
    )
    .unwrap();
    let outs: Vec<BTreeMap<(i64, u32), u64>> = (0..latencies.len())
        .map(|i| {
            let o = ss
                .take_stream(i)
                .expect("take output stream")
                .collect_output();
            assert!(o.is_completed());
            assert!(impatience_core::validate_ordered_stream(&o.messages()).is_ok());
            o.events()
                .iter()
                .map(|e| ((e.sync_time.ticks(), e.key), e.payload))
                .collect()
        })
        .collect();
    let leak = meter.current() as f64;
    (outs, leak)
}

fn run_basic_with_query(
    arrivals: Vec<Event<u32>>,
    latencies: &[TickDuration],
    freq: usize,
) -> Vec<BTreeMap<(i64, u32), u64>> {
    let meter = MemoryMeter::new();
    let ds = DisorderedStreamable::from_arrivals(arrivals, &policy(freq)).tumbling_window(window());
    let mut ss = to_streamables_basic(ds, latencies, &meter).unwrap();
    (0..latencies.len())
        .map(|i| {
            let o = ss
                .take_stream(i)
                .expect("take output stream")
                .group_aggregate(CountAgg)
                .collect_output();
            o.events()
                .iter()
                .map(|e| ((e.sync_time.ticks(), e.key), e.payload))
                .collect()
        })
        .collect()
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
        let mut ss = to_streamables_basic(ds, &ls, &meter).unwrap();
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
        let (outs, leak) = run_advanced(arrivals, &ls, freq);
        assert_eq!(outs[2], expect);
        assert_eq!(leak, 0.0, "buffered state leaked");
    }

    fn basic_and_advanced_agree(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
    ) {
        let ls = vec![TickDuration::ticks(32), TickDuration::ticks(256)];
        let (adv, _) = run_advanced(arrivals.clone(), &ls, freq);
        let basic = run_basic_with_query(arrivals, &ls, freq);
        // Same query, same partitions: identical results stream by stream.
        assert_eq!(adv[0], basic[0]);
        assert_eq!(adv[1], basic[1]);
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
        let (outs, _) = run_advanced(arrivals, &ls, freq);
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
        let (outs, _) = run_advanced(arrivals, &ls, freq);
        assert_eq!(outs[0], expect);
    }
}
