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
//! And the canonical bench pipeline's metrics snapshot (minus `busy_ns`)
//! run plain, under a sorter budget, and spilling under that budget.
//!
//! To re-pin after an intended change, run with `SURFACE_DIFF_PRINT=1` and
//! `--nocapture`.

use impatience_bench::{run_canonical, CanonicalRun};
use impatience_core::trace::{TraceClock, TraceConfig, TraceSink};
use impatience_core::{
    crc32c, DeadLetterQueue, EvalPayload, Json, LatePolicy, MemoryMeter, MetricsRegistry,
    StreamMessage, TickDuration,
};
use impatience_engine::ops::CountAgg;
use impatience_engine::{punctuate_arrivals, CheckpointCtx, IngressPolicy, Output, Streamable};
use impatience_framework::{
    to_streamables_advanced, DisorderedStreamable, FrameworkOptions, FrameworkPolicy,
    FrameworkStats,
};
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
/// sorter's `state_bytes` high water — nothing else.
const PINNED: [(&str, &str); 14] = [
    ("plain.output", "72983:3ce905e1"),
    ("plain.routing", "85:25f664b1"),
    ("metered.output", "72983:3ce905e1"),
    ("metered.metrics", "5918:7a5b1341"),
    ("dead_letter.output", "61573:f6f1008c"),
    ("dead_letter.routing", "79:e274b6fa"),
    ("dead_letter.letters", "1174337:4584eb02"),
    ("traced.output", "72983:3ce905e1"),
    ("traced.spans", "13389:887edd11"),
    ("durable.output", "73023:5666eaa3"),
    ("durable.checkpoints", "104:7ee54736"),
    ("canonical.plain", "2550:ab615c2b"),
    ("canonical.budgeted", "2539:649cf005"),
    ("canonical.spilled", "3534:4c164244"),
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

/// Builds the ladder under `opts` — the one function that names the
/// framework's entry point.
fn build(opts: FrameworkOptions<EvalPayload>) -> Built {
    let meter = MemoryMeter::new();
    let (handle, raw) = DisorderedStreamable::<EvalPayload>::live();
    let ds = raw
        .re_key(|e| e.payload[2] % GROUPS)
        .tumbling_window(WINDOW);
    let mut ss = to_streamables_advanced(
        ds,
        &ladder(),
        |s: Streamable<EvalPayload>| s.group_aggregate(CountAgg),
        |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
        &meter,
        opts,
    )
    .expect("the pinned ladder is valid");
    let stats = ss.stats();
    let ckpt = ss.checkpoint().cloned();
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

/// Runs the canonical bench pipeline into `registry` — the one function
/// that names the bench entry point. The spilling run is traced, as the
/// wrapper it is pinned against was.
fn canonical(
    registry: &MetricsRegistry,
    ds: &Dataset,
    budget: Option<usize>,
    spill_dir: Option<&Path>,
) {
    let sink = TraceSink::new();
    run_canonical(&CanonicalRun {
        registry,
        ds,
        punctuation_frequency: 500,
        budget,
        spill_dir,
        trace: spill_dir.map(|_| &sink),
    });
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

/// Every file under `dir`, by name, as `name size:crc32c` lines.
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
                crc32c(&bytes)
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

    let plain = build(FrameworkOptions::default());
    feed(&plain, &tape);
    let plain_output = output_text(&plain.outs);
    assert!(plain.outs.iter().all(Output::is_completed));
    got.push(("plain.output", digest(&plain_output)));
    got.push(("plain.routing", digest(&routing_text(&plain.stats))));

    let registry = MetricsRegistry::new();
    let metered = build(FrameworkOptions {
        registry: Some(registry.clone()),
        ..Default::default()
    });
    feed(&metered, &tape);
    assert_eq!(
        output_text(&metered.outs),
        plain_output,
        "metering is inert"
    );
    got.push(("metered.output", digest(&output_text(&metered.outs))));
    got.push(("metered.metrics", digest(&metrics_text(&registry))));

    let dlq = DeadLetterQueue::new();
    let dead_letter = build(FrameworkOptions {
        policy: FrameworkPolicy {
            late: LatePolicy::DeadLetter,
            dead_letters: Some(dlq.clone()),
            ..FrameworkPolicy::default()
        },
        ..Default::default()
    });
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
    let traced = build(FrameworkOptions {
        trace: Some(sink.clone()),
        ..Default::default()
    });
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
    let durable_opts = || FrameworkOptions {
        durable: Some((dir.clone(), 4)),
        ..Default::default()
    };
    let first = build(durable_opts());
    assert!(first.ckpt.as_ref().expect("durable").recovery().is_none());
    feed(&first, &tape[..CRASH_AFTER]);
    let mut durable = output_text(&first.outs);
    let mut checkpoints = files_text(&dir);
    drop(first);
    let second = build(durable_opts());
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
        let shed = registry.counter("pipeline.00.sort.shed_events").get();
        let spilled = registry
            .gauge("pipeline.00.sorter.spill.runs_spilled")
            .get();
        assert_eq!(shed > 0, budget.is_some() && !spill, "{name}: shed {shed}");
        assert_eq!(spilled > 0, spill, "{name}: spilled {spilled}");
        got.push((name, digest(&metrics_text(&registry))));
    }
    check(&got);
}
