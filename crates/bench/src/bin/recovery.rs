//! Crash-recovery gate: checkpoint overhead and recovery wall-clock.
//!
//! ```sh
//! recovery [--events N] [--check] [--json BENCH_recovery.json]
//! ```
//!
//! Two measurements over the fig5-style pipeline (CloudLog ingress →
//! Impatience sort → tumbling window → count):
//!
//! 1. **overhead** — wall-clock of the durable pipeline (checkpoints
//!    every 16 punctuations + write-ahead-logged ingress) vs. the plain
//!    one, as a percentage; `--check` asserts ≤ 10%;
//! 2. **recovery** — the durable run is killed at a seeded point, a new
//!    incarnation restores the newest checkpoint and replays the WAL
//!    suffix, and the combined output is diffed against an uncrashed run;
//!    `--check` asserts byte-identical conformance. The restore + replay
//!    + catch-up wall-clock is the reported recovery time.
//!
//! Each `--json` run appends the two result lines plus a metrics snapshot
//! from the recovered incarnation whose `recovery.restores` counter is
//! nonzero (`snapshot_check` keys off it: the `"recovery"` activity).

use impatience_bench::{emit_metrics_json, BenchArgs};
use impatience_core::{
    json, EvalPayload, MemoryMeter, MetricsRegistry, StreamMessage, TickDuration,
};
use impatience_engine::ingress::WalConfig;
use impatience_engine::{
    input_stream, punctuate_arrivals, CheckpointCtx, IngressPolicy, InputHandle, Output, WalIngress,
};
use impatience_sort::ImpatienceSorter;
use impatience_testkit::crash_point;
use impatience_workloads::{generate_cloudlog, CloudLogConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const EVERY_N_PUNCTUATIONS: u32 = 16;
const OVERHEAD_ITERATIONS: u32 = 5;
const CRASH_SEED: u64 = 0x5eed_cafe;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "impatience-bench-recovery-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Pipeline {
    handle: InputHandle<EvalPayload>,
    ctx: Option<CheckpointCtx>,
    out: Output<u64>,
    _meter: MemoryMeter,
}

/// The fig5-style query; `durable` adds the checkpoint gate (the WAL is
/// driven by the caller so crash/replay stays in its hands).
fn build(
    window: TickDuration,
    durable: Option<&Path>,
    registry: Option<&MetricsRegistry>,
) -> Pipeline {
    let meter = MemoryMeter::new();
    if let Some(r) = registry {
        meter.bind_over_release_counter(r.counter("memory.over_releases"));
    }
    let (handle, stream) = input_stream::<EvalPayload>();
    let (stream, ctx) = match durable {
        Some(dir) => {
            let (s, c) = stream
                .checkpointed(dir.join("ckpt"), EVERY_N_PUNCTUATIONS)
                .expect("open checkpoint dir");
            (s, Some(c))
        }
        None => (stream, None),
    };
    let stream = match registry {
        Some(r) => stream.instrument(r, "pipeline"),
        None => stream,
    };
    let out = stream
        .sorted(
            Box::new(ImpatienceSorter::new()),
            &meter,
            Default::default(),
        )
        .expect("default sort policy")
        .tumbling_window(window)
        .count()
        .checkpoint_egress()
        .collect_output();
    if let (Some(c), Some(r)) = (&ctx, registry) {
        c.bind_metrics(r, "pipeline");
    }
    Pipeline {
        handle,
        ctx,
        out,
        _meter: meter,
    }
}

fn wal_config() -> WalConfig {
    WalConfig::default()
}

fn attach_wal(ctx: &CheckpointCtx, base: &Path) -> Arc<Mutex<WalIngress<EvalPayload>>> {
    let wal = Arc::new(Mutex::new(
        WalIngress::open_with(base.join("wal"), wal_config()).expect("open wal"),
    ));
    let w = Arc::clone(&wal);
    ctx.on_checkpoint(move |note| {
        let _ = w.lock().unwrap().truncate_before(note.safe_truncate_index);
    });
    wal
}

fn main() {
    let args = BenchArgs::parse(2_000_000);
    println!("recovery: crash-recovery gate over the fig5 pipeline");
    println!(
        "  events = {}, checkpoint every {EVERY_N_PUNCTUATIONS} punctuations",
        args.events
    );

    let ds = generate_cloudlog(&CloudLogConfig::sized(args.events));
    let span = ds
        .events
        .iter()
        .map(|e| e.sync_time.ticks())
        .max()
        .unwrap_or(1)
        .max(1);
    let window = TickDuration::ticks((span / 50).max(1));
    // Fixed 1 s reorder latency (fig5's low end; CloudLog delays are
    // "98% complete within 1 s"). An *absolute* latency keeps the sorter's
    // retained state — and so the per-checkpoint cost — constant as the
    // event count grows; a span-proportional latency would make
    // checkpointing quadratic in dataset size.
    // Punctuations scale with the dataset (40 per run) so checkpoints land
    // at fixed stream fractions — 40% and 80% at every-16 — at any size.
    // Each checkpoint costs a constant ~300 KB encode + two fsyncs (the
    // sorter retains only the 1 s reorder horizon), so the overhead gate
    // measures that fixed cost against a realistically long run.
    let policy = IngressPolicy {
        punctuation_frequency: (args.events / 40).max(1_000),
        reorder_latency: TickDuration::secs(1),
        batch_size: 4_096,
    };
    let tape: Vec<StreamMessage<EvalPayload>> = punctuate_arrivals(ds.events.clone(), &policy);
    println!("  tape: {} messages over a {span}-tick span", tape.len());

    // Phase 1: checkpoint overhead vs. the plain pipeline. The WAL is
    // timed separately — it writes the whole ingest stream to disk, a
    // durability cost a source with its own replayable upstream (Kafka
    // etc.) would not pay, so the 10% gate covers checkpointing alone.
    let mut plain_best = f64::INFINITY;
    let mut ckpt_best = f64::INFINITY;
    let mut full_best = f64::INFINITY;
    for i in 0..OVERHEAD_ITERATIONS {
        let start = Instant::now();
        let p = build(window, None, None);
        for msg in &tape {
            p.handle.push(msg.clone()).expect("push");
        }
        assert!(p.out.is_completed());
        plain_best = plain_best.min(start.elapsed().as_secs_f64());

        let base = scratch(&format!("overhead-{i}"));
        let start = Instant::now();
        let p = build(window, Some(&base), None);
        for msg in &tape {
            p.handle.push(msg.clone()).expect("push");
        }
        assert!(p.out.is_completed());
        ckpt_best = ckpt_best.min(start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&base);

        let base = scratch(&format!("overhead-wal-{i}"));
        let start = Instant::now();
        let p = build(window, Some(&base), None);
        let wal = attach_wal(p.ctx.as_ref().expect("durable"), &base);
        for msg in &tape {
            wal.lock().unwrap().append(msg).expect("wal append");
            p.handle.push(msg.clone()).expect("push");
        }
        assert!(p.out.is_completed());
        full_best = full_best.min(start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&base);
    }
    let overhead_pct = (ckpt_best / plain_best - 1.0) * 100.0;
    let wal_overhead_pct = (full_best / plain_best - 1.0) * 100.0;
    println!(
        "  overhead: plain {:.1} ms, checkpointed {:.1} ms ({overhead_pct:.2}%), \
         + wal {:.1} ms ({wal_overhead_pct:.2}%)",
        plain_best * 1e3,
        ckpt_best * 1e3,
        full_best * 1e3
    );
    args.emit_json(&json!({
        "exhibit": "recovery",
        "kind": "overhead",
        "dataset": ds.name.as_str(),
        "events": args.events as i64,
        "every_n_punctuations": EVERY_N_PUNCTUATIONS as i64,
        "plain_ms": plain_best * 1e3,
        "durable_ms": ckpt_best * 1e3,
        "durable_wal_ms": full_best * 1e3,
        "overhead_pct": overhead_pct,
        "wal_overhead_pct": wal_overhead_pct,
    }));

    // Phase 2: kill the durable run at a seeded point and recover.
    let reference = {
        let p = build(window, None, None);
        for msg in &tape {
            p.handle.push(msg.clone()).expect("push");
        }
        p.out
    };

    let base = scratch("crash");
    // Crash in the tape's final fifth (checkpoints are sparse — the first
    // lands 16 punctuations in), but strictly before the final message so
    // the recovered incarnation has a suffix to catch up on.
    let tail = (tape.len() / 5).max(2);
    let mut cp = crash_point(CRASH_SEED, tail - 1);
    cp.after_messages += tape.len() - tail;
    let events_before = {
        let p = build(window, Some(&base), None);
        let wal = attach_wal(p.ctx.as_ref().expect("durable"), &base);
        for msg in &tape[..cp.after_messages] {
            wal.lock().unwrap().append(msg).expect("wal append");
            p.handle.push(msg.clone()).expect("push");
        }
        p.out.events()
        // Everything dropped here: that is the crash.
    };

    let had_checkpoint = std::fs::read_dir(base.join("ckpt"))
        .map(|d| d.count() > 0)
        .unwrap_or(false);
    let registry = MetricsRegistry::new();
    let start = Instant::now();
    let p = build(window, Some(&base), Some(&registry));
    let ctx = p.ctx.as_ref().expect("durable");
    assert!(
        p.out.error().is_none(),
        "recovery failed: {:?}",
        p.out.error()
    );
    let rec = ctx.recovery();
    let m = rec.as_ref().map_or(0, |r| r.messages_seen);
    let committed = rec.as_ref().map_or(0, |r| r.egress_events) as usize;
    let wal = attach_wal(ctx, &base);
    let replayed =
        WalIngress::<EvalPayload>::replay_from(&base.join("wal"), m).expect("replay wal");
    let replayed_records = replayed.len();
    for (_, msg) in replayed {
        p.handle.push(msg).expect("push");
    }
    let resume = wal.lock().unwrap().next_index();
    for (i, msg) in tape.iter().enumerate().skip(resume as usize) {
        wal.lock().unwrap().append(msg).expect("wal append");
        if i as u64 >= m {
            p.handle.push(msg.clone()).expect("push");
        }
    }
    let recovery_s = start.elapsed().as_secs_f64();
    assert!(p.out.is_completed(), "recovered run did not complete");

    let combined: Vec<_> = events_before
        .iter()
        .take(committed)
        .cloned()
        .chain(p.out.events())
        .collect();
    let conformant = reference.events() == combined;
    println!(
        "  recovery: crash@{}/{} msgs, restored {m} msgs ({replayed_records} replayed), \
         {:.1} ms to catch up, conformant: {conformant}",
        cp.after_messages,
        tape.len(),
        recovery_s * 1e3
    );
    args.emit_json(&json!({
        "exhibit": "recovery",
        "kind": "recovery",
        "dataset": ds.name.as_str(),
        "crash_after_messages": cp.after_messages as i64,
        "messages_restored": m as i64,
        "wal_replayed_records": replayed_records as i64,
        "recovery_ms": recovery_s * 1e3,
        "conformant": conformant,
    }));
    let expects = args.expects(&["recovery"]);
    emit_metrics_json(&args, "recovery", &ds.name, &registry.snapshot(), expects);
    let _ = std::fs::remove_dir_all(&base);

    if args.check {
        assert!(
            conformant,
            "recovered output diverges from the uncrashed run"
        );
        assert!(
            rec.is_some() || !had_checkpoint,
            "a checkpoint was on disk but nothing was restored"
        );
        assert!(
            had_checkpoint,
            "crash point {} left no checkpoint to restore (dataset too small?)",
            cp.after_messages
        );
        assert!(
            overhead_pct <= 10.0,
            "checkpoint overhead {overhead_pct:.2}% exceeds the 10% budget"
        );
        println!("  [shape] overhead <= 10% and recovery conformant ... ok");
    }
}
