//! Property tests for engine operators: each operator must match a simple
//! functional oracle over arbitrary ordered inputs, and compositions must
//! preserve the ordered-stream contract.
//!
//! On failure the harness prints the failing case seed; replay with
//! `IMPATIENCE_PROP_SEED=0x<seed> cargo test <test name>`.

use impatience_core::{
    validate_ordered_stream, Event, EventBatch, MemoryMeter, MetricsRegistry, StreamMessage,
    TickDuration, Timestamp,
};
use impatience_engine::ops::CountAgg;
use impatience_engine::{Observer, OperatorMetrics, Output, StageShell, Streamable};
use impatience_testkit::prop::{vec, Strategy};
use impatience_testkit::props;
use std::collections::BTreeMap;

/// Ordered events with keys, split into arbitrary batch boundaries and
/// punctuations.
fn ordered_messages() -> impl Strategy<Value = Vec<StreamMessage<u32>>> {
    (vec((0i64..200, 0u32..6), 0..200), vec(1usize..12, 0..30)).prop_map(|(mut raw, cuts)| {
        raw.sort_by_key(|&(t, _)| t);
        let events: Vec<Event<u32>> = raw
            .into_iter()
            .map(|(t, k)| Event::keyed(Timestamp::new(t), k, k))
            .collect();
        let mut msgs = Vec::new();
        let mut idx = 0usize;
        let mut cut_iter = cuts.into_iter();
        while idx < events.len() {
            let take = cut_iter.next().unwrap_or(7).min(events.len() - idx);
            let chunk: Vec<Event<u32>> = events[idx..idx + take].to_vec();
            let last = chunk.last().unwrap().sync_time;
            msgs.push(StreamMessage::Batch(EventBatch::from_events(chunk)));
            // Punctuate at the last emitted time (legal: future events
            // are >= it; strictly greater events may still share it...
            // so punctuate one below).
            msgs.push(StreamMessage::Punctuation(Timestamp::new(last.ticks() - 1)));
            idx += take;
        }
        msgs.push(StreamMessage::Completed);
        msgs
    })
}

fn flat_events(msgs: &[StreamMessage<u32>]) -> Vec<Event<u32>> {
    msgs.iter()
        .filter_map(|m| match m {
            StreamMessage::Batch(b) => Some(b.visible_to_vec()),
            _ => None,
        })
        .flatten()
        .collect()
}

props! {
    cases = 96;

    fn filter_matches_oracle(msgs in ordered_messages(), m in 1u32..6) {
        let input = flat_events(&msgs);
        let out = Streamable::from_messages(msgs)
            .where_(move |e| e.payload % m == 0)
            .collect_output();
        let expect: Vec<u32> = input
            .iter()
            .map(|e| e.payload)
            .filter(|p| p % m == 0)
            .collect();
        let got: Vec<u32> = out.events().iter().map(|e| e.payload).collect();
        assert_eq!(got, expect);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
    }

    fn select_preserves_count_and_order(msgs in ordered_messages()) {
        let input = flat_events(&msgs);
        let out = Streamable::from_messages(msgs)
            .select(|p| (*p as u64) * 3 + 1)
            .collect_output();
        let got: Vec<u64> = out.events().iter().map(|e| e.payload).collect();
        let expect: Vec<u64> = input.iter().map(|e| (e.payload as u64) * 3 + 1).collect();
        assert_eq!(got, expect);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
    }

    fn windowed_count_matches_oracle(msgs in ordered_messages(), w in 1i64..50) {
        let input = flat_events(&msgs);
        let size = TickDuration::ticks(w);
        let out = Streamable::from_messages(msgs)
            .tumbling_window(size)
            .count()
            .collect_output();
        let mut expect: BTreeMap<i64, u64> = BTreeMap::new();
        for e in &input {
            *expect.entry(e.sync_time.align_down(size).ticks()).or_insert(0) += 1;
        }
        let got: BTreeMap<i64, u64> = out
            .events()
            .iter()
            .map(|e| (e.sync_time.ticks(), e.payload))
            .collect();
        assert_eq!(got, expect);
        // Exactly one output event per distinct window.
        assert_eq!(out.events().len(), out.events().iter()
            .map(|e| e.sync_time).collect::<std::collections::BTreeSet<_>>().len());
    }

    fn grouped_count_matches_oracle(msgs in ordered_messages(), w in 1i64..50) {
        let input = flat_events(&msgs);
        let size = TickDuration::ticks(w);
        let out = Streamable::from_messages(msgs)
            .tumbling_window(size)
            .group_aggregate(CountAgg)
            .collect_output();
        let mut expect: BTreeMap<(i64, u32), u64> = BTreeMap::new();
        for e in &input {
            *expect
                .entry((e.sync_time.align_down(size).ticks(), e.key))
                .or_insert(0) += 1;
        }
        let got: BTreeMap<(i64, u32), u64> = out
            .events()
            .iter()
            .map(|e| ((e.sync_time.ticks(), e.key), e.payload))
            .collect();
        assert_eq!(got, expect);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
    }

    fn union_is_a_sorted_merge(
        a in ordered_messages(),
        b in ordered_messages(),
    ) {
        let mut expect: Vec<i64> = flat_events(&a)
            .iter()
            .chain(flat_events(&b).iter())
            .map(|e| e.sync_time.ticks())
            .collect();
        expect.sort_unstable();
        let meter = MemoryMeter::new();
        let out = Streamable::from_messages(a)
            .union(Streamable::from_messages(b), &meter)
            .collect_output();
        let got: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(got, expect);
        assert!(validate_ordered_stream(&out.messages()).is_ok());
        assert!(out.is_completed());
        assert_eq!(meter.current(), 0);
    }

    fn hopping_window_replicates_correctly(
        msgs in ordered_messages(),
        hop in 1i64..20,
        copies in 1i64..5,
    ) {
        let input = flat_events(&msgs);
        let size = TickDuration::ticks(hop * copies);
        let out = Streamable::from_messages(msgs)
            .hopping_window(size, TickDuration::ticks(hop))
            .collect_output();
        // Every input event appears exactly `copies` times, each within a
        // window containing it.
        assert_eq!(out.events().len(), input.len() * copies as usize);
        for e in out.events() {
            assert_eq!(e.other_time - e.sync_time, size);
        }
        assert!(validate_ordered_stream(&out.messages()).is_ok());
    }

    fn metered_identity_is_exact_and_inert(msgs in ordered_messages()) {
        // A metering StageShell around an identity operator (here: a bare
        // collector) must forward every message unchanged while counting
        // each event and punctuation exactly once.
        let input = flat_events(&msgs);
        let punctuations = msgs
            .iter()
            .filter(|m| matches!(m, StreamMessage::Punctuation(_)))
            .count() as u64;
        let batches = msgs
            .iter()
            .filter(|m| matches!(m, StreamMessage::Batch(_)))
            .count() as u64;
        let registry = MetricsRegistry::new();
        let metrics = OperatorMetrics::register(&registry, "identity");
        let (plain_out, plain_sink) = Output::<u32>::new();
        let (metered_out, metered_sink) = Output::<u32>::new();
        let mut plain: Box<dyn Observer<u32>> = Box::new(plain_sink);
        let mut metered: Box<dyn Observer<u32>> =
            Box::new(StageShell::new(Box::new(metered_sink)).metered(metrics.clone()));
        for m in &msgs {
            plain.on_message(m.clone());
            metered.on_message(m.clone());
        }
        assert_eq!(plain_out.messages(), metered_out.messages());
        assert_eq!(metrics.events_in.get(), input.len() as u64);
        assert_eq!(metrics.punctuations_in.get(), punctuations);
        assert_eq!(metrics.batches_in.get(), batches);
        assert!(validate_ordered_stream(&metered_out.messages()).is_ok());
    }

    fn top_k_returns_k_best_per_window(
        msgs in ordered_messages(),
        k in 1usize..5,
        w in 5i64..50,
    ) {
        let input = flat_events(&msgs);
        let size = TickDuration::ticks(w);
        // Build per-(window,key) counts, then take top-k as oracle.
        let mut counts: BTreeMap<(i64, u32), u64> = BTreeMap::new();
        for e in &input {
            *counts.entry((e.sync_time.align_down(size).ticks(), e.key)).or_insert(0) += 1;
        }
        let out = Streamable::from_messages(msgs)
            .tumbling_window(size)
            .group_aggregate(CountAgg)
            .top_k(k, |c| *c as i64)
            .collect_output();
        let mut got: BTreeMap<i64, Vec<(u64, u32)>> = BTreeMap::new();
        for e in out.events() {
            got.entry(e.sync_time.ticks()).or_default().push((e.payload, e.key));
        }
        let mut windows: BTreeMap<i64, Vec<(u64, u32)>> = BTreeMap::new();
        for ((win, key), c) in counts {
            windows.entry(win).or_default().push((c, key));
        }
        for (win, mut oracle) in windows {
            oracle.sort_by_key(|&(c, key)| (core::cmp::Reverse(c), key));
            oracle.truncate(k);
            assert_eq!(got.get(&win).cloned().unwrap_or_default(), oracle,
                "window {win}");
        }
    }
}
