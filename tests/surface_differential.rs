//! Differential pin for the collapsed public surface: what the framework
//! builder and the canonical bench pipeline emit, count, record and write
//! to disk is pinned to digests taken through the wrapper families that
//! the one-entry-point API replaced (the framework builder's five
//! positional-argument spellings, the bench pipeline's plain / budgeted /
//! spilling ones) — run on the commit before the replacement, this same
//! test, with only [`build`] and [`canonical`] calling the old names,
//! printed the constants below.
//!
//! Pinned, over a seeded AndroidLog run through a three-rung ladder with
//! the Q2 grouped windowed count as PIQ/merge:
//!
//! * **plain** — every output stream's messages, byte for byte, and the
//!   routing split;
//! * **metered** — the same, plus the metrics snapshot JSON minus the
//!   `busy_ns` counters (wall time);
//! * **dead-letter policy** — output, routing split, and the diverted
//!   events;
//! * **traced** (logical clock) — output plus the span sequence modulo
//!   timestamps (label, lane, kind, events, watermark);
//! * **durable** — a crash, a restore and a replay: both incarnations'
//!   output, the replay offset, and the bytes of every checkpoint file at
//!   the crash and at completion.
//!
//! And the canonical instrumented pipeline's metrics snapshot (minus
//! `busy_ns`) run plain, under a sorter budget, and spilling under that
//! budget. The pipeline itself ([`canonical`]) lives here: this test is its
//! only user.
//!
//! To re-pin after an intended change, run with `SURFACE_DIFF_PRINT=1` and
//! `--nocapture`.

use impatience_core::trace::{TraceClock, TraceConfig, TraceSink};
use impatience_core::{
    crc32c, DeadLetterQueue, EvalPayload, Event, Json, LatePolicy, LatencyStage, MemoryMeter,
    MetricsRegistry, ShedPolicy, StreamMessage, TickDuration,
};
use impatience_engine::ops::{CountAgg, SortPolicy};
use impatience_engine::{
    input_stream, punctuate_arrivals, BlackHoleSink, CheckpointCtx, DisorderedStreamable,
    FrameworkPolicy, FrameworkStats, IngressPolicy, Output, Streamable, TraceCtx,
};
use impatience_sort::{ExternalImpatienceSorter, ImpatienceSorter, OnlineSorter};
use impatience_workloads::{
    generate_androidlog, generate_cloudlog, AndroidLogConfig, CloudLogConfig, Dataset,
};
use std::path::{Path, PathBuf};

const SEED: u64 = 0x5EED_2018;
const EVENTS: usize = 30_000;
const GROUPS: u32 = 100;
const WINDOW: TickDuration = TickDuration::minutes(10);
/// Tape index the durable run crashes after.
const CRASH_AFTER: usize = 40;
/// Checkpoint cadence (punctuations) of the canonical pipeline.
const CHECKPOINT_EVERY: u32 = 16;
/// Bound on the budgeted canonical pipeline's dead-letter queue.
const DEAD_LETTER_CAPACITY: usize = 64 * 1024;

/// `size:crc32c` digests recorded from the parent implementation. The
/// four `*.output` texts and `metered.metrics` were re-pinned when the
/// grouped operators began handing on their closed windows once per call
/// instead of once per window: against the digests recorded before, the
/// texts lost only batch marks (`b` lines 18 → 17; 18 → 15 under the
/// dead-letter policy) and one counter moved
/// (`partition02.01.group_aggregate.batches_out` 4 → 3) — every event,
/// punctuation, span and checkpoint byte is the same. The four durable
/// digests were re-pinned when events stopped writing their hash to disk
/// (`SNAPSHOT_VERSION` 2): the three checkpoint files shrank (65 678 /
/// 163 662 / 765 626 → 53 494 / 133 494 / 626 010 B), and with them
/// `pipeline.checkpoint.bytes` in all three canonical runs; spilling also
/// moved `spill.bytes_written` / `bytes_read` / `bytes_on_disk` and the
/// sorter's `state_bytes` high water — nothing else. The four metrics
/// digests were re-pinned when watermark lag became the sorting stage's
/// alone: every non-sort `*.watermark_lag` histogram left the snapshot
/// (`partition0{0,1,2}.01.group_aggregate`; in the canonical runs
/// `01.tumbling_window` and `02.count`, spilling `01.mark_sort`,
/// `02.egress_operator`, `03.tumbling_window`, `04.count`), and every
/// `*.sort.watermark_lag` row and every other row stayed byte for byte.
/// The three canonical digests were re-pinned when the ingress counters
/// went: each run lost exactly its four `ingress.*` rows (the sort stage's
/// own `events_in` / `events_out` / `punctuations_in` carry the same
/// counts, and `dropped_late` was the first minus the second), and every
/// other row stayed byte for byte.
/// `metered.metrics` and `durable.checkpoints` were re-pinned when the
/// rungs began bucketing the window-aligned input instead of building
/// Impatience runs: each `partition0{0,1,2}.00.sorter` reads `runs` and
/// `speculative_*` 0 and a different `state_bytes` high water
/// (24 608 / 196 640 / 1 172 000 → 27 872 / 262 016 / 1 369 472 B), and
/// every checkpoint file holds bucket-sorter state, 99 B smaller
/// (53 494 / 133 494 / 626 010 / 754 → 53 395 / 133 395 / 625 911 / 655 B).
/// Every output, routing split, dead letter and span is the same.
/// `durable.checkpoints` was re-pinned (`104:9157d5fe` → `104:3bbd7e6f`)
/// when [`files_text`] stopped hashing each slot's trailing CRC-32C: over
/// the whole file the CRC was one constant for every slot, so the digest
/// held the slot sizes only; now it holds their bytes. No file changed.
/// `metered.metrics` was re-pinned (`5330:b1412113` → `5360:0c171237`)
/// when the ladder moved into the engine and the metered case began
/// instrumenting the disordered section under `framework` itself: the
/// source chain registers `"framework.operator_panics":0` eagerly, and
/// that row is the whole difference. Every other digest is the same.
/// The four `*.output` digests, `metered.metrics`, `traced.spans` and
/// `durable.checkpoints` were re-pinned when each rung began fusing its
/// sort with the PIQ's `group_aggregate` (window tables in place of the
/// bucket sorter, one stage where there were two). The output texts lost
/// only batch marks, one per punctuation where sort → aggregate handed on
/// two: `b` lines 17 → 15 in the plain, metered, traced and durable
/// texts (streams 0 / 1 / 2: 6 → 5, 6 → 6, 5 → 4), 15 → 14 under the
/// dead-letter policy (6 → 5, 6 → 6, 3 → 3); every event and punctuation
/// line is the same. `metered.metrics` lost the eighteen
/// `partition0{0,1,2}.01.group_aggregate.*` counters; each
/// `partition0{0,1,2}.00.sort.events_out` now counts the groups the
/// aggregate emitted (1 016 / 5 022 / 19 238 → 458 / 453 / 400), and each
/// `.00.sorter` gauge reads the tables — `buffered_events` high water
/// 292 / 3 946 / 18 564 → 123 / 149 / 300, `state_bytes` 27 872 /
/// 262 016 / 1 369 472 → 10 740 / 9 440 / 12 464 B. Every other row is the
/// same. `traced.spans` lost the 36 `partition0{0,1,2}.01.group_aggregate`
/// spans, every other span byte for byte. The checkpoint files hold window
/// tables instead of buckets and one participant per rung fewer (53 395 /
/// 133 395 / 625 911 / 655 → 12 384 / 16 201 / 17 197 / 532 B). Routing,
/// dead letters and the canonical runs are the same.
/// `durable.checkpoints` was re-pinned (`102:45aefb99` → `102:36b4ed0f`)
/// when `reduce_by_key` became the grouped aggregate over `Reduce`: in each
/// slot the two merge stages' frames changed state id
/// (`engine.reduce_by_key` → `engine.grouped_aggregate`, 4 B longer each)
/// and layout (keys then values → `(key, value)` pairs); at every
/// checkpoint the merges hold no open window, so their 9-byte bodies are
/// the same bytes. The slots grew 8 B (12 384 / 16 201 / 17 197 / 532 →
/// 12 392 / 16 209 / 17 205 / 540 B); every other frame, and every other
/// digest, is the same.
/// `metered.metrics` and the three canonical digests were re-pinned when a
/// sorter's `state_bytes` became the bytes it buffers (items plus a fixed
/// overhead per run, bucket and spilled file) instead of its buffers'
/// capacity, and a `sorter.capacity_bytes` gauge joined it. With the
/// capacity rows left out they read `4470:d52154f6`, `2103:896249e6`,
/// `2128:11ac9fbb` and `2695:f6718c11`. In the metered and plain runs only
/// the `sorter.state_bytes` high waters moved (rungs 10 740 / 9 440 /
/// 12 464 → 3 948 / 4 508 / 8 904 B; canonical 942 592 → 306 720 B). The
/// budgeted runs trip later, as they charge less: the shedding run sheds
/// 28 265 → 23 778 events and emits 1 135 → 5 622, the spilling one spills
/// 964 → 543 runs (`fsyncs` 2 034 → 1 136, `merge_passes` 53 → 25), and
/// their checkpoint bytes, run counts and speculation counters follow.
/// Every output, routing split, dead letter, span and checkpoint file of
/// the other cases is the same.
/// The three `canonical.*` digests were re-pinned (`2072:635155b1` →
/// `2103:72c15237`, `2093:d75bc915` → `2124:b1e46f93`, `2664:81ee7e3d` →
/// `2695:7414499f`) when the checkpoint began counting its syncs: each
/// snapshot gained the 31-byte row `"pipeline.checkpoint.fsyncs":6` (four
/// checkpoints: two slot-creating writes sync twice, two in place once), and
/// that row is the whole difference.
const PINNED: [(&str, &str); 14] = [
    ("plain.output", "72975:4a3bd592"),
    ("plain.routing", "85:25f664b1"),
    ("metered.output", "72975:4a3bd592"),
    ("metered.metrics", "4689:8ef512f6"),
    ("dead_letter.output", "61569:125042cf"),
    ("dead_letter.routing", "79:e274b6fa"),
    ("dead_letter.letters", "1174337:4584eb02"),
    ("traced.output", "72975:4a3bd592"),
    ("traced.spans", "11386:d3d745a2"),
    ("durable.output", "73015:6fc8435a"),
    ("durable.checkpoints", "102:36b4ed0f"),
    ("canonical.plain", "2171:0a1387e5"),
    ("canonical.budgeted", "2196:560e7859"),
    ("canonical.spilled", "2762:1d8a7df1"),
];

fn digest(text: &str) -> String {
    format!("{}:{:08x}", text.len(), crc32c(text.as_bytes()))
}

fn dataset() -> Dataset {
    generate_androidlog(&AndroidLogConfig {
        seed: SEED,
        ..AndroidLogConfig::sized(EVENTS)
    })
}

fn ladder() -> [TickDuration; 3] {
    [
        TickDuration::minutes(5),
        TickDuration::minutes(20),
        TickDuration::minutes(45),
    ]
}

fn tape() -> Vec<StreamMessage<EvalPayload>> {
    let policy = IngressPolicy {
        punctuation_frequency: 500,
        reorder_latency: TickDuration::ZERO,
        batch_size: 256,
    };
    punctuate_arrivals(dataset().events, &policy)
}

/// A live framework instance with every output stream collected.
struct Built {
    handle: impatience_engine::InputHandle<EvalPayload>,
    outs: Vec<Output<u64>>,
    stats: FrameworkStats,
    ckpt: Option<CheckpointCtx>,
}

/// What a case sets on the disordered section before the ladder, which
/// hands it to every rung.
enum Settings<'a> {
    Plain,
    /// Instrumented under `framework`, as the metered wrapper is.
    Metered(&'a MetricsRegistry),
    Traced(&'a TraceSink),
    /// Checkpointed into the directory every 4 punctuations.
    Durable(&'a Path),
}

/// Builds the ladder under `settings` and `policy` — the one function that
/// names the framework's entry point.
fn build(settings: Settings<'_>, policy: FrameworkPolicy<EvalPayload>) -> Built {
    let meter = MemoryMeter::new();
    let (handle, raw) = DisorderedStreamable::<EvalPayload>::live();
    let ds = raw
        .re_key(|e| e.payload[2] % GROUPS)
        .tumbling_window(WINDOW);
    let (ds, ckpt) = match settings {
        Settings::Plain => (ds, None),
        Settings::Metered(registry) => (ds.instrument(registry, "framework"), None),
        Settings::Traced(sink) => (ds.traced(TraceCtx::new(sink)), None),
        Settings::Durable(dir) => {
            let (ds, ctx) = ds
                .checkpointed(dir, 4)
                .expect("open scratch checkpoint dir");
            (ds, Some(ctx))
        }
    };
    let mut ss = ds
        .to_streamables(
            &ladder(),
            |s: Streamable<EvalPayload>| s.group_aggregate(CountAgg),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            policy,
        )
        .expect("the pinned ladder is valid");
    let stats = ss.stats();
    let outs = (0..ss.len())
        .map(|i| {
            let s = ss.take_stream(i).expect("each output stream is taken once");
            match &ckpt {
                Some(_) => s.checkpoint_egress().collect_output(),
                None => s.collect_output(),
            }
        })
        .collect();
    Built {
        handle,
        outs,
        stats,
        ckpt,
    }
}

/// Runs the canonical instrumented pipeline — `ingress → checkpoint gate →
/// Impatience sort → tumbling window → count`, durable and punctuated every
/// 500 events — over `ds` into `registry`. The reorder latency is a fifth
/// of the dataset's timespan and the window a fiftieth.
///
/// With a `budget` (sorter-state bytes) the pipeline runs hardened and
/// degraded: late events dead-letter instead of dropping, memory pressure
/// sheds the oldest runs into the dead-letter queue, and the sorter's
/// `state_bytes` high water must stay under the budget. With a `spill_dir`
/// too, it runs the lossless ladder instead: an [`ExternalImpatienceSorter`]
/// spills cold runs under the directory and late events drop. The spilling
/// run is traced, as the wrapper it is pinned against was, and its trace
/// must record spans and complete sampled provenance.
fn canonical(
    registry: &MetricsRegistry,
    ds: &Dataset,
    budget: Option<usize>,
    spill_dir: Option<&Path>,
) {
    let events = ds.events.clone();
    let span = events
        .iter()
        .map(|e| e.sync_time.ticks())
        .max()
        .unwrap_or(1)
        .max(1);
    let latency = TickDuration::ticks((span / 5).max(1));
    let window = TickDuration::ticks((span / 50).max(1));

    let meter = match budget {
        Some(b) => MemoryMeter::with_budget(b),
        None => MemoryMeter::new(),
    };
    // Memory accounting must never go negative; the counter makes any
    // over-release visible in the pinned snapshot.
    meter.bind_over_release_counter(registry.counter("memory.over_releases"));
    let dead_letters = budget.is_some().then(|| {
        let q = DeadLetterQueue::bounded(DEAD_LETTER_CAPACITY);
        q.bind_dropped_counter(registry.counter("dead_letter.dropped"));
        q
    });
    // Spilling pipelines drop (rather than dead-letter) late events so a
    // clean run demonstrates zero dead-letter traffic; non-spilling
    // budgeted runs keep the harsher dead-letter accounting.
    let policy = SortPolicy {
        late: if budget.is_some() && spill_dir.is_none() {
            LatePolicy::DeadLetter
        } else {
            LatePolicy::Drop
        },
        shed: match (spill_dir, budget) {
            (Some(_), _) => ShedPolicy::SpillColdRuns,
            (None, Some(_)) => ShedPolicy::ShedOldestRuns,
            (None, None) => ShedPolicy::ForcePunctuation,
        },
        dead_letters,
    };
    let ckpt_dir = scratch("canonical-ckpt");
    let (handle, stream) = input_stream::<EvalPayload>();
    // The trace context attaches before the first combinator so every
    // stage records a span; provenance probes sample events at ingress and
    // retire them just past the sort, before windowing rewrites their
    // identity.
    let sink = TraceSink::new();
    let ctx = spill_dir.map(|_| TraceCtx::new(&sink));
    let stream = match &ctx {
        Some(c) => stream.traced(c.clone()).trace_ingress(),
        None => stream,
    };
    let (stream, ckpt) = stream
        .checkpointed(&ckpt_dir, CHECKPOINT_EVERY)
        .expect("open scratch checkpoint dir");
    ckpt.bind_metrics(registry, "pipeline");
    let stream = stream.instrument(registry, "pipeline");
    let stream = if budget.is_some() {
        stream.hardened()
    } else {
        stream
    };
    let sorter: Box<dyn OnlineSorter<Event<EvalPayload>>> = match spill_dir {
        Some(dir) => Box::new(ExternalImpatienceSorter::new(dir)),
        None => Box::new(ImpatienceSorter::new()),
    };
    let stream = stream
        .sorted(sorter, &meter, policy)
        .expect("Drop/DeadLetter sort policies are accepted");
    stream
        .trace_mark(LatencyStage::Sort)
        .trace_egress(LatencyStage::Operator)
        .tumbling_window(window)
        .count()
        .subscribe_observer(Box::new(BlackHoleSink::new()));

    let policy = IngressPolicy {
        punctuation_frequency: 500,
        reorder_latency: latency,
        batch_size: 4_096,
    };
    for m in punctuate_arrivals(events, &policy) {
        handle.push(m).expect("push");
    }
    if let Some(b) = budget {
        let hwm = registry
            .gauge("pipeline.00.sorter.state_bytes")
            .high_water();
        assert!(
            hwm <= b as i64,
            "budgeted pipeline exceeded its memory budget: state_bytes hwm {hwm} > {b}"
        );
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if ctx.is_some() {
        let summary = sink.summary();
        let field = |block: &Json, name| block.get(name).and_then(Json::as_i64).unwrap();
        assert!(field(&summary, "spans") > 0, "no spans recorded");
        assert_eq!(field(&summary, "dropped"), 0, "trace ring overflowed");
        let prov = summary.get("provenance").expect("provenance block");
        assert!(field(prov, "sampled") > 0, "no event sampled");
        assert!(field(prov, "completed") > 0, "no sampled event completed");
    }
}

fn output_text(outs: &[Output<u64>]) -> String {
    let mut text = String::new();
    for (i, out) in outs.iter().enumerate() {
        assert!(
            out.error().is_none(),
            "stream {i} failed: {:?}",
            out.error()
        );
        for m in out.messages() {
            match m {
                StreamMessage::Batch(b) => {
                    for e in b.iter_visible() {
                        text += &format!(
                            "{i} e {} {} {} {} {}\n",
                            e.sync_time.ticks(),
                            e.other_time.ticks(),
                            e.key,
                            e.hash,
                            e.payload
                        );
                    }
                    text += &format!("{i} b\n");
                }
                StreamMessage::Punctuation(t) => text += &format!("{i} p {}\n", t.ticks()),
                StreamMessage::Completed => text += &format!("{i} c\n"),
            }
        }
    }
    text
}

fn routing_text(stats: &FrameworkStats) -> String {
    format!("{stats:?} total={}", stats.total())
}

/// A snapshot's JSON without the `*.busy_ns` counters.
fn metrics_text(registry: &MetricsRegistry) -> String {
    let Json::Object(sections) = registry.snapshot().to_json() else {
        panic!("snapshot is an object");
    };
    Json::Object(
        sections
            .into_iter()
            .map(|(name, section)| match section {
                Json::Object(entries) => (
                    name,
                    Json::Object(
                        entries
                            .into_iter()
                            .filter(|(k, _)| !k.ends_with(".busy_ns"))
                            .collect(),
                    ),
                ),
                other => (name, other),
            })
            .collect(),
    )
    .to_string()
}

/// Every file under `dir`, by name, as `name size:crc32c` lines. The CRC
/// leaves out a slot's last four bytes: they are the frame's own CRC-32C
/// of everything before them, and a CRC taken over a message followed by
/// its CRC is the same constant for every message.
fn files_text(dir: &Path) -> String {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    names
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).expect("read checkpoint file");
            format!(
                "{} {}:{:08x}\n",
                p.file_name().expect("file name").to_string_lossy(),
                bytes.len(),
                crc32c(&bytes[..bytes.len().saturating_sub(4)])
            )
        })
        .collect()
}

fn feed(built: &Built, msgs: &[StreamMessage<EvalPayload>]) {
    for m in msgs {
        built
            .handle
            .push(m.clone())
            .expect("live ladder accepts input");
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impatience-surface-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn check(got: &[(&str, String)]) {
    if std::env::var_os("SURFACE_DIFF_PRINT").is_some() {
        for (name, d) in got {
            println!("    (\"{name}\", \"{d}\"),");
        }
    }
    for (name, d) in got {
        let pinned = PINNED
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} has no pinned digest"))
            .1;
        assert_eq!(d, pinned, "{name} changed");
    }
}

#[test]
fn framework_builder_matches_the_wrapper_families() {
    let tape = tape();
    let mut got = Vec::new();

    let plain = build(Settings::Plain, FrameworkPolicy::default());
    feed(&plain, &tape);
    let plain_output = output_text(&plain.outs);
    assert!(plain.outs.iter().all(Output::is_completed));
    got.push(("plain.output", digest(&plain_output)));
    got.push(("plain.routing", digest(&routing_text(&plain.stats))));

    let registry = MetricsRegistry::new();
    let metered = build(Settings::Metered(&registry), FrameworkPolicy::default());
    feed(&metered, &tape);
    assert_eq!(
        output_text(&metered.outs),
        plain_output,
        "metering is inert"
    );
    got.push(("metered.output", digest(&output_text(&metered.outs))));
    got.push(("metered.metrics", digest(&metrics_text(&registry))));

    let dlq = DeadLetterQueue::new();
    let dead_letter = build(
        Settings::Plain,
        FrameworkPolicy {
            late: LatePolicy::DeadLetter,
            dead_letters: Some(dlq.clone()),
            ..FrameworkPolicy::default()
        },
    );
    feed(&dead_letter, &tape);
    let letters: String = dlq
        .drain()
        .iter()
        .map(|l| {
            format!(
                "{} {} {:?}\n",
                l.event.sync_time.ticks(),
                l.event.key,
                l.reason
            )
        })
        .collect();
    assert!(!letters.is_empty(), "the policy diverted nothing");
    got.push((
        "dead_letter.output",
        digest(&output_text(&dead_letter.outs)),
    ));
    got.push((
        "dead_letter.routing",
        digest(&routing_text(&dead_letter.stats)),
    ));
    got.push(("dead_letter.letters", digest(&letters)));

    let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
    let traced = build(Settings::Traced(&sink), FrameworkPolicy::default());
    feed(&traced, &tape);
    assert_eq!(output_text(&traced.outs), plain_output, "tracing is inert");
    drop(traced);
    assert_eq!(sink.dropped(), 0, "ring too small for the pin to be whole");
    let spans: String = sink
        .spans()
        .iter()
        .map(|s| {
            format!(
                "{} {} {:?} {} {:?}\n",
                s.shard, s.op, s.kind, s.events, s.watermark
            )
        })
        .collect();
    got.push(("traced.output", digest(&plain_output)));
    got.push(("traced.spans", digest(&spans)));

    // Durable: crash after CRASH_AFTER tape messages (no completion, every
    // handle dropped), rebuild over the same directory, replay from the
    // offset the restored checkpoint names.
    let dir = scratch("ckpt");
    let incarnation = || build(Settings::Durable(&dir), FrameworkPolicy::default());
    let first = incarnation();
    assert!(first.ckpt.as_ref().expect("durable").recovery().is_none());
    feed(&first, &tape[..CRASH_AFTER]);
    let mut durable = output_text(&first.outs);
    let mut checkpoints = files_text(&dir);
    drop(first);
    let second = incarnation();
    let rec = second
        .ckpt
        .as_ref()
        .expect("durable")
        .recovery()
        .expect("second incarnation restores");
    assert!(rec.fallback.is_none());
    durable += &format!(
        "restored gen {} at message {} egress {}\n",
        rec.generation, rec.messages_seen, rec.egress_events
    );
    feed(&second, &tape[rec.messages_seen as usize..]);
    assert!(second.outs.iter().all(Output::is_completed));
    durable += &output_text(&second.outs);
    checkpoints += &files_text(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    got.push(("durable.output", digest(&durable)));
    got.push(("durable.checkpoints", digest(&checkpoints)));

    check(&got);
}

#[test]
fn canonical_run_matches_the_bench_wrappers() {
    let ds = generate_cloudlog(&CloudLogConfig {
        seed: SEED,
        ..CloudLogConfig::sized(EVENTS)
    });
    let budget = 64 * 1024;
    let mut got = Vec::new();
    for (name, budget, spill) in [
        ("canonical.plain", None, false),
        ("canonical.budgeted", Some(budget), false),
        ("canonical.spilled", Some(budget), true),
    ] {
        let registry = MetricsRegistry::new();
        let dir = scratch("spill");
        canonical(&registry, &ds, budget, spill.then_some(dir.as_path()));
        let _ = std::fs::remove_dir_all(&dir);
        // Each configuration took the path it is named for.
        let dead = registry.counter("pipeline.00.sort.dead_lettered").get();
        let shed = registry.counter("pipeline.00.sort.shed_events").get();
        let spilled = registry
            .gauge("pipeline.00.sorter.spill.runs_spilled")
            .get();
        assert_eq!(
            dead > 0,
            budget.is_some() && !spill,
            "{name}: dead-lettered {dead}"
        );
        assert_eq!(shed > 0, budget.is_some() && !spill, "{name}: shed {shed}");
        assert_eq!(spilled > 0, spill, "{name}: spilled {spilled}");
        got.push((name, digest(&metrics_text(&registry))));
    }
    check(&got);
}
