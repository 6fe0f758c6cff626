//! Property tests for engine operators: each operator must match a simple
//! functional oracle over arbitrary ordered inputs, and compositions must
//! preserve the ordered-stream contract.
//!
//! On failure the harness prints the failing case seed; replay with
//! `IMPATIENCE_PROP_SEED=0x<seed> cargo test <test name>`.

use impatience_core::{
    validate_ordered_stream, Event, EventBatch, MemoryMeter, SnapshotReader, SnapshotWriter,
    StreamError, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::ops;
use impatience_engine::{input_stream, Checkpointable, InputHandle, Observer, Output, Streamable};
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
}

/// Two live inputs into a two-input stage built by `stage`.
fn two_live_inputs(
    stage: impl FnOnce(Streamable<u32>, Streamable<u32>, &MemoryMeter) -> Streamable<u32>,
) -> (InputHandle<u32>, InputHandle<u32>, Output<u32>, MemoryMeter) {
    let meter = MemoryMeter::new();
    let (l, ls) = input_stream::<u32>();
    let (r, rs) = input_stream::<u32>();
    let out = stage(ls, rs, &meter).collect_output();
    (l, r, out, meter)
}

fn union_stage(l: Streamable<u32>, r: Streamable<u32>, m: &MemoryMeter) -> Streamable<u32> {
    l.union(r, m)
}

fn join_stage(l: Streamable<u32>, r: Streamable<u32>, m: &MemoryMeter) -> Streamable<u32> {
    l.join(r, |a, b| a ^ b, m)
}

/// Punctuations 10 / 10 / 5: the third regresses its side's watermark.
/// Both stages end in the one typed error, in debug and release alike.
#[test]
fn a_regressed_punctuation_into_a_two_input_stage_fails_typed() {
    for (name, stage) in [
        ("union", union_stage as fn(_, _, &_) -> _),
        ("join", join_stage),
    ] {
        let (l, r, out, _meter) = two_live_inputs(stage);
        l.push_punctuation(Timestamp::new(10));
        r.push_punctuation(Timestamp::new(10));
        l.push_punctuation(Timestamp::new(5));
        l.complete();
        r.complete();
        assert_eq!(
            out.error(),
            Some(StreamError::PunctuationRegressed {
                previous: Timestamp::new(10),
                attempted: Timestamp::new(5),
            }),
            "{name}"
        );
        assert!(!out.is_completed(), "{name}: failed, not completed");
    }
}

/// Events waiting for the other side are charged to the stage's meter,
/// the same bytes for a union and a join, and released by completion.
#[test]
fn a_two_input_stage_charges_its_waiting_events() {
    let waiting = 1_000 * core::mem::size_of::<Event<u32>>();
    for (name, stage) in [
        ("union", union_stage as fn(_, _, &_) -> _),
        ("join", join_stage),
    ] {
        let (l, r, out, meter) = two_live_inputs(stage);
        l.push_events(
            (0..1_000)
                .map(|t| Event::point(Timestamp::new(t), 1))
                .collect(),
        );
        assert_eq!(meter.current(), waiting, "{name}: right side silent");
        l.complete();
        r.complete();
        assert!(out.is_completed(), "{name}");
        assert_eq!(meter.current(), 0, "{name}: released by completion");
    }
}

/// A restored join charges its meter with the waiting events it restored,
/// as the join that wrote the snapshot did.
#[test]
fn a_restored_join_recharges_its_waiting_events() {
    let waiting = 1_000 * core::mem::size_of::<Event<u32>>();
    let join = |meter: &MemoryMeter| {
        let (_out, sink) = Output::<u32>::new();
        ops::temporal_join(|a: &u32, b: &u32| a ^ b, Box::new(sink), meter.clone())
    };
    let (mut l, _r) = join(&MemoryMeter::new());
    l.on_batch(
        (0..1_000)
            .map(|t| Event::point(Timestamp::new(t), 1))
            .collect(),
    );
    let mut w = SnapshotWriter::new();
    l.encode_state(&mut w).expect("encode");
    let body = w.into_body();
    let meter = MemoryMeter::new();
    let (mut restored, _r) = join(&meter);
    restored
        .restore_state(&mut SnapshotReader::new(&body))
        .expect("restore");
    assert_eq!(meter.current(), waiting);
}
