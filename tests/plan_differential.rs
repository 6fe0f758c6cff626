//! Differential check of the sort-as-needed planner: a `PipelineSpec`
//! whose plan runs filters and windows *below* the sort must be
//! indistinguishable from the sort-first chain composed by hand through
//! the `Streamable` API (`sorted` → `where_` → `tumbling_window` →
//! `reduce_by_key`), which no planner touches and is therefore the
//! reference.
//!
//! 210 seeded CloudLog / synthetic streams × {`Drop`, `DeadLetter`} ×
//! {1, 2 shards}, over five hoistable op shapes. Three of them hoist a
//! window, so the planned sort stage runs the bucket sorter, whose order
//! among equal times is arrival order; in the other two only the filter
//! moves and it runs Impatience, like the reference. Each run checks which
//! one ran. Compared per run:
//!
//! * the output **messages** — the events between each pair of
//!   punctuations, the punctuations, completion — byte for byte. Where a
//!   run of events is cut into batches is not compared: `reduce_by_key`
//!   hands on the windows it closed once per *input* batch, and the two
//!   plans cut its input differently (the hoisted plan's sorter releases
//!   whole windows, so the last one of a punctuation closes on the
//!   punctuation rather than inside the batch);
//! * the **dead-letter queue**: the same letters, carrying the *original*
//!   events (not window-aligned copies) and the original watermark, in the
//!   same order (as a multiset under two shards, whose workers interleave);
//! * the `late_dropped` / `dead_lettered` counters of stage 00.
//!
//! Reorder latencies are short enough that every stream has late events,
//! and windows are long enough that a late event's window is usually
//! still open — the case the late gate exists for.

use impatience_core::{
    DeadLetter, DeadLetterQueue, Event, LatePolicy, MemoryMeter, MetricsRegistry, StreamMessage,
    TickDuration, Timestamp,
};
use impatience_engine::ops::SortPolicy;
use impatience_engine::{
    input_stream, OpSpec, Output, PipelineEnv, PipelineSpec, SortSpec, SorterChoice, Streamable,
};
use impatience_sort::ImpatienceSorter;
use impatience_workloads::{
    generate_cloudlog, generate_synthetic, CloudLogConfig, SyntheticConfig,
};

const STREAMS: u64 = 210;

/// One seeded stream: client batches, each followed by a punctuation a
/// fixed latency behind the high watermark.
fn stream(seed: u64) -> Vec<StreamMessage<i64>> {
    let n = 600 + (seed as usize * 37) % 1_400;
    let ds = if seed.is_multiple_of(2) {
        generate_cloudlog(&CloudLogConfig {
            seed,
            ..CloudLogConfig::sized(n)
        })
    } else {
        generate_synthetic(&SyntheticConfig {
            events: n,
            seed,
            spacing: 1 + (seed % 3) as i64,
            ..SyntheticConfig::default()
        })
    };
    let events: Vec<Event<i64>> = ds
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| Event::keyed(e.sync_time, e.key % 16, i as i64 % 50))
        .collect();
    let latency = TickDuration::ticks([4, 16, 48][(seed % 3) as usize]);
    let batch = [16, 64, 256][(seed / 3 % 3) as usize];
    let (mut high, mut watermark) = (Timestamp::MIN, Timestamp::MIN);
    let mut msgs = Vec::new();
    for chunk in events.chunks(batch) {
        for e in chunk {
            high = high.max(e.sync_time);
        }
        msgs.push(StreamMessage::batch(chunk.to_vec()));
        let p = high.saturating_sub(latency);
        if p > watermark {
            watermark = p;
            msgs.push(StreamMessage::Punctuation(p));
        }
    }
    msgs.push(StreamMessage::Completed);
    msgs
}

/// Five shapes the planner hoists from, cycled by seed. In the last, two
/// windows stand ahead of the consumer, so only the filter moves.
/// Shapes 0, 1 and 3 hoist a window (see [`hoists_a_window`]).
fn ops(seed: u64) -> Vec<OpSpec> {
    let filter = OpSpec::FilterMin { min: 10 };
    let window = |size| OpSpec::TumblingWindow {
        size: TickDuration::ticks(size),
    };
    let narrow = [8, 64, 500][(seed / 5 % 3) as usize];
    match seed % 5 {
        0 => vec![filter, window(narrow), OpSpec::SumByKey],
        1 => vec![window(narrow), OpSpec::SumByKey],
        2 => vec![filter, OpSpec::SumByKey],
        3 => vec![window(narrow), filter, OpSpec::SumByKey],
        _ => vec![filter, window(narrow), window(1_000), OpSpec::SumByKey],
    }
}

/// Does shape `seed % 5` run a window below the sort?
fn hoists_a_window(seed: u64) -> bool {
    matches!(seed % 5, 0 | 1 | 3)
}

/// What one run shows from outside.
#[derive(Debug, PartialEq)]
struct Observed {
    messages: Vec<StreamMessage<i64>>,
    letters: Vec<DeadLetter<i64>>,
    late_dropped: u64,
    dead_lettered: u64,
}

/// Sums stage 00's fault counter `name` over the run's shards.
fn fault_count(registry: &MetricsRegistry, prefix: &str, shards: usize, name: &str) -> u64 {
    if shards == 1 {
        return registry.counter(&format!("{prefix}.00.sort.{name}")).get();
    }
    (0..shards)
        .map(|i| {
            registry
                .counter(&format!("{prefix}.shard{i:02}.00.sort.{name}"))
                .get()
        })
        .sum()
}

/// `messages` with every run of adjacent batches joined into one.
fn coalesced(messages: Vec<StreamMessage<i64>>) -> Vec<StreamMessage<i64>> {
    let mut joined: Vec<StreamMessage<i64>> = Vec::new();
    let mut run: Vec<Event<i64>> = Vec::new();
    for m in messages {
        match m {
            StreamMessage::Batch(b) => run.extend(b.into_visible()),
            other => {
                if !run.is_empty() {
                    joined.push(StreamMessage::batch(std::mem::take(&mut run)));
                }
                joined.push(other);
            }
        }
    }
    assert!(run.is_empty(), "events after completion");
    joined
}

fn observe(
    out: Output<i64>,
    dlq: &DeadLetterQueue<i64>,
    registry: &MetricsRegistry,
    prefix: &str,
    shards: usize,
) -> Observed {
    assert!(out.is_completed() && out.error().is_none(), "{prefix}");
    let mut letters = dlq.drain();
    if shards > 1 {
        letters.sort_by_key(|l| (l.event.sync_time, l.event.key, l.event.payload));
    }
    Observed {
        messages: coalesced(out.messages()),
        letters,
        late_dropped: fault_count(registry, prefix, shards, "late_dropped"),
        dead_lettered: fault_count(registry, prefix, shards, "dead_lettered"),
    }
}

/// Stage 00's `runs` high water, summed over the run's shards: what the
/// Impatience sorter publishes and the bucket sorter does not.
fn runs_high_water(registry: &MetricsRegistry, prefix: &str, shards: usize) -> i64 {
    let gauge = |name: String| registry.gauge(&name).high_water();
    if shards == 1 {
        return gauge(format!("{prefix}.00.sorter.runs"));
    }
    (0..shards)
        .map(|i| gauge(format!("{prefix}.shard{i:02}.00.sorter.runs")))
        .sum()
}

/// The spec, through `PipelineSpec::build` and whatever its plan says,
/// and stage 00's `runs` high water.
fn run_planned(spec: &PipelineSpec, input: &[StreamMessage<i64>]) -> (Observed, i64) {
    let registry = MetricsRegistry::new();
    let env = PipelineEnv::new().with_registry(&registry);
    let (out, sink) = Output::new();
    let built = spec.build(&env, Box::new(sink)).expect("spec builds");
    for m in input {
        built.handle.push(m.clone()).expect("push");
    }
    let dlq = built.dead_letters.clone().expect("spec asked for a queue");
    drop(built);
    (
        observe(out, &dlq, &registry, &spec.name, spec.shards),
        runs_high_water(&registry, &spec.name, spec.shards),
    )
}

/// One op through the public `Streamable` API, as `OpSpec` documents it.
fn by_hand(op: &OpSpec, s: Streamable<i64>) -> Streamable<i64> {
    match op.clone() {
        OpSpec::FilterMin { min } => s.where_(move |e| e.payload >= min),
        OpSpec::TumblingWindow { size } => s.tumbling_window(size),
        OpSpec::SumByKey => s.reduce_by_key(|acc, p| *acc = acc.wrapping_add(p)),
        other => unreachable!("{other:?} is not in this battery"),
    }
}

/// The same pipeline stacked by hand, sort first.
fn run_reference(spec: &PipelineSpec, input: &[StreamMessage<i64>]) -> Observed {
    let registry = MetricsRegistry::new();
    let dlq = DeadLetterQueue::bounded(spec.sort.dead_letter_capacity.expect("capacity"));
    let sort_first = {
        let (ops, late, dlq) = (spec.ops.clone(), spec.sort.late, dlq.clone());
        move |s: Streamable<i64>| {
            let policy = SortPolicy::new()
                .with_late(late)
                .with_dead_letters(dlq.clone());
            let sorted = s
                .sorted(
                    Box::new(ImpatienceSorter::new()),
                    &MemoryMeter::new(),
                    policy,
                )
                .expect("policy accepted");
            ops.iter().fold(sorted, |s, op| by_hand(op, s))
        }
    };
    let (handle, s) = input_stream::<i64>();
    let s = s.instrument(&registry, "ref").hardened();
    let out = if spec.shards == 1 {
        sort_first(s)
    } else {
        s.sharded(spec.shards, move |ss, _| sort_first(ss))
    }
    .collect_output();
    for m in input {
        handle.push(m.clone()).expect("push");
    }
    drop(handle);
    observe(out, &dlq, &registry, "ref", spec.shards)
}

#[test]
fn planned_pipeline_matches_the_hand_built_sort_first_chain() {
    let (mut late_total, mut letters_total, mut events_out) = (0u64, 0usize, 0usize);
    let mut bucket_runs = 0;
    for seed in 0..STREAMS {
        let input = stream(seed);
        for late in [LatePolicy::Drop, LatePolicy::DeadLetter] {
            for shards in [1, 2] {
                let mut spec =
                    PipelineSpec::new("planned")
                        .with_shards(shards)
                        .with_sort(SortSpec {
                            late,
                            dead_letter_capacity: Some(1 << 16),
                            ..SortSpec::default()
                        });
                spec.ops = ops(seed);
                assert!(spec.plan().hoisted() > 0, "seed {seed}: nothing to compare");
                let bucket = matches!(spec.plan().sorter(), SorterChoice::Bucket { .. });
                assert_eq!(
                    bucket,
                    hoists_a_window(seed),
                    "seed {seed}: {}",
                    spec.plan()
                );
                let (planned, runs) = run_planned(&spec, &input);
                // The sorter that ran says which it was.
                assert_eq!(runs == 0, bucket, "seed {seed}: runs high water {runs}");
                bucket_runs += usize::from(bucket);
                let reference = run_reference(&spec, &input);
                assert_eq!(
                    planned,
                    reference,
                    "seed {seed}, {late:?}, {shards} shard(s), plan {}",
                    spec.plan()
                );
                late_total += planned.late_dropped + planned.dead_lettered;
                letters_total += planned.letters.len();
                events_out += planned
                    .messages
                    .iter()
                    .map(|m| match m {
                        StreamMessage::Batch(b) => b.visible_len(),
                        _ => 0,
                    })
                    .sum::<usize>();
            }
        }
    }
    // The battery must have exercised what it claims to compare.
    assert!(late_total > 10_000, "late events: {late_total}");
    assert!(letters_total > 5_000, "dead letters: {letters_total}");
    assert!(events_out > 100_000, "output events: {events_out}");
    assert_eq!(
        bucket_runs, 504,
        "3 of 5 shapes × 2 policies × 2 shard counts"
    );
}
