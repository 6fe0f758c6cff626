//! Differential conformance for the tracing layer: tracing must be
//! *inert* (observe everything, change nothing) and its records must be
//! structurally sound.
//!
//! Checked here, all under the deterministic logical clock:
//!
//! * **byte-identity** — a fully traced pipeline (spans + provenance
//!   sampling at 1/1) produces output byte-identical to the untraced
//!   single-shard reference at shard counts {1, 2, 4}, over ~250 seeded
//!   streams × 4 pipeline shapes;
//! * **laminar nesting** — on any one lane, recorded spans either nest or
//!   are disjoint ([`assert_laminar`]); queue-wait spans are excluded on
//!   sharded runs because they deliberately measure cross-thread waiting
//!   (an enqueue on the ingress thread can land mid-batch on the worker);
//! * **provenance survives crash → recover** — a traced durable pipeline
//!   (checkpoint gate + WAL, the `tests/recovery.rs` machinery) is killed
//!   at a seeded crash point and recovered; the combined output stays
//!   byte-identical to an untraced uncrashed run, and the recovered
//!   incarnation's tracker retires every identity it stamped — sampling
//!   is a pure function of event identity, so the decision survives the
//!   restart by construction;
//! * **coverage** — one sink fed by that durable pipeline and a traced
//!   2-shard run carries all six span kinds (ingress, checkpoint, sort,
//!   operator, queue, merge), drops none, and its Chrome export re-parses;
//! * **gauge tombstoning** — a shard killed by an operator panic clears
//!   its live sorter gauges on the way down, so post-mortem snapshots
//!   never report a dead sorter's buffers as live state.
//!
//! One `#[ignore]`d timing test holds the tracing budget (traced ≥ 95% of
//! untraced throughput); `scripts/ci.sh` runs it in a release build.

use impatience_core::trace::{
    LatencyStage, SpanKind, SpanRecord, TraceClock, TraceConfig, TraceSink,
};
use impatience_core::{
    validate_ordered_stream, EvalPayload, Event, Json, MemoryMeter, MetricsRegistry, Payload,
    StreamError, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::ingress::WalConfig;
use impatience_engine::{input_stream, ops::SumAgg, CheckpointCtx, WalIngress};
use impatience_engine::{punctuate_arrivals, BlackHoleSink, IngressPolicy};
use impatience_engine::{InputHandle, Output, ShardOptions, Streamable, TraceCtx};
use impatience_sort::ImpatienceSorter;
use impatience_testkit::assert_laminar;
use impatience_testkit::crash::crash_point;
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};
use impatience_workloads::{generate_cloudlog, CloudLogConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A sink that records everything: logical clock for run-to-run
/// determinism, 1/1 provenance sampling so every event is tracked.
fn logical_sink() -> TraceSink {
    TraceSink::with(
        TraceClock::logical(),
        TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        },
    )
}

/// One generated stream: ordered batches with strictly advancing
/// punctuations, ending in completion (same corpus shape as
/// `tests/shard_conformance.rs`).
fn generate_case(seed: u64) -> Vec<StreamMessage<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = match seed % 8 {
        0 => 0,                          // empty stream
        1 => 1,                          // singleton
        2 => rng.gen_range(2usize..6),   // tiny
        _ => rng.gen_range(6usize..200), // general
    };
    let keys: u32 = match seed % 5 {
        0 => 1, // everything on one shard
        1 => 2,
        2 => 3, // non-power-of-two vs shard counts
        _ => 16,
    };
    let step: i64 = if seed.is_multiple_of(7) { 0 } else { 4 }; // heavy duplicates
    let mut msgs = Vec::new();
    let mut t = 0i64;
    let mut wm = i64::MIN;
    let mut produced = 0usize;
    while produced < len {
        let burst = rng.gen_range(1usize..6).min(len - produced);
        let events: Vec<Event<u32>> = (0..burst)
            .map(|_| {
                t += rng.gen_range(0..step + 1);
                Event::keyed(
                    Timestamp::new(t),
                    rng.gen_range(0..keys),
                    rng.gen_range(0u32..1_000),
                )
            })
            .collect();
        produced += burst;
        msgs.push(StreamMessage::batch(events));
        if rng.gen_bool(0.3) && t > wm {
            wm = t;
            msgs.push(StreamMessage::Punctuation(Timestamp::new(wm)));
            t += 1;
        }
    }
    msgs.push(StreamMessage::Completed);
    msgs
}

/// The key-local pipeline under test, cycled by seed — identical shapes to
/// the shard conformance suite so the two differential baselines agree.
fn build_pipeline(shape: u64, s: Streamable<u32>) -> Streamable<i64> {
    match shape {
        0 => s.select(|p| *p as i64),
        1 => s.where_(|e| e.payload % 3 != 1).select(|p| *p as i64 * 2),
        2 => s
            .tumbling_window(TickDuration::ticks(16))
            .group_aggregate(SumAgg::new(|p: &u32| *p as i64)),
        _ => s
            .where_(|e| e.key % 2 == 0 || e.payload < 700)
            .tumbling_window(TickDuration::ticks(32))
            .group_aggregate(SumAgg::new(|p: &u32| *p as i64)),
    }
}

/// Per-shape traced stage count: the ingress probe plus every pipeline
/// stage mints exactly one span recorder.
fn expected_recorders(shape: u64) -> u64 {
    match shape {
        0 => 2, // ingress, select
        1 => 3, // ingress, where, select
        2 => 3, // ingress, tumbling_window, group_aggregate
        _ => 4, // ingress, where, tumbling_window, group_aggregate
    }
}

fn run_untraced(input: &[StreamMessage<u32>], shape: u64) -> Vec<StreamMessage<i64>> {
    let (handle, stream) = input_stream::<u32>();
    let out = stream
        .sharded(1, move |s, _| build_pipeline(shape, s))
        .collect_output();
    for msg in input {
        handle.push(msg.clone()).expect("push");
    }
    out.messages()
}

/// Fully traced sharded run: per-shard span recording (prefix + lane per
/// shard), queue/merge spans via [`ShardOptions::with_trace`], and 1/1
/// provenance stamping at each shard's entry.
fn run_traced(
    input: &[StreamMessage<u32>],
    shape: u64,
    shards: usize,
    sink: &TraceSink,
) -> Vec<StreamMessage<i64>> {
    let (handle, stream) = input_stream::<u32>();
    let opts = ShardOptions::new(shards).with_trace(sink);
    let shared = sink.clone();
    let out = stream
        .sharded(opts, move |s, ctx| {
            let tctx = TraceCtx::new(&shared)
                .with_prefix(format!("shard{:02}", ctx.index))
                .for_shard(ctx.index);
            build_pipeline(shape, s.traced(tctx.clone()).trace_ingress(&tctx))
        })
        .collect_output();
    for msg in input {
        handle.push(msg.clone()).expect("push");
    }
    out.messages()
}

fn visible_events(input: &[StreamMessage<u32>]) -> usize {
    input
        .iter()
        .map(|m| match m {
            StreamMessage::Batch(b) => b.visible_len(),
            _ => 0,
        })
        .sum()
}

/// Spans whose lane is driven by a single thread: everything but the
/// queue-wait spans, whose open edge (enqueue, ingress thread) and close
/// edge (dequeue, worker thread) intentionally straddle the worker's
/// processing of earlier messages.
fn single_threaded_lanes(spans: Vec<SpanRecord>) -> Vec<SpanRecord> {
    spans
        .into_iter()
        .filter(|s| s.kind != SpanKind::Queue)
        .collect()
}

/// Tracing is inert across shard counts: ~250 seeded streams, each run
/// fully traced at {1, 2, 4} shards, must reproduce the untraced
/// single-shard output byte-for-byte, drop no spans, and keep every
/// single-threaded lane laminar.
#[test]
fn traced_output_is_byte_identical_across_shard_counts() {
    const STREAMS: u64 = 250;
    for seed in 0..STREAMS {
        let input = generate_case(seed);
        let shape = seed % 4;
        let events = visible_events(&input);
        let reference = run_untraced(&input, shape);
        assert!(
            matches!(reference.last(), Some(StreamMessage::Completed)),
            "seed {seed}: untraced reference did not complete"
        );
        assert!(
            validate_ordered_stream(&reference).is_ok(),
            "seed {seed}: untraced reference unordered"
        );
        for shards in [1usize, 2, 4] {
            let sink = logical_sink();
            let got = run_traced(&input, shape, shards, &sink);
            assert_eq!(
                got, reference,
                "seed {seed}, shape {shape}: traced {shards}-shard output \
                 diverged byte-for-byte from the untraced run"
            );
            assert_eq!(sink.dropped(), 0, "seed {seed}: ring overflow");
            // Every dequeued message leaves a queue-wait span, so a traced
            // sharded run always records something — and with 1/1 sampling
            // every visible event must have been stamped at some shard's
            // ingress probe.
            assert!(sink.span_count() > 0, "seed {seed}: no spans recorded");
            if events > 0 {
                assert!(
                    sink.provenance().sampled() > 0,
                    "seed {seed}: no provenance stamped for {events} events"
                );
            }
            assert_laminar(&single_threaded_lanes(sink.spans()));
        }
    }
}

/// Unsharded traced runs are single-threaded, so the laminar invariant
/// must hold over *every* span — and the recorder census must match the
/// chain: one ring per traced stage, no more, no less.
#[test]
fn unsharded_traced_spans_nest_and_cover_every_stage() {
    for seed in 0..80u64 {
        let input = generate_case(seed);
        let shape = seed % 4;
        let (handle, stream) = input_stream::<u32>();
        let out = build_pipeline(shape, stream).collect_output();
        for msg in &input {
            handle.push(msg.clone()).expect("push");
        }
        let reference = out.messages();

        let sink = logical_sink();
        let ctx = TraceCtx::new(&sink);
        let (handle, stream) = input_stream::<u32>();
        let out =
            build_pipeline(shape, stream.traced(ctx.clone()).trace_ingress(&ctx)).collect_output();
        for msg in &input {
            handle.push(msg.clone()).expect("push");
        }
        assert_eq!(
            out.messages(),
            reference,
            "seed {seed}, shape {shape}: tracing changed unsharded output"
        );
        assert_eq!(
            sink.recorder_count(),
            expected_recorders(shape),
            "seed {seed}, shape {shape}: unexpected recorder census"
        );
        assert_eq!(sink.dropped(), 0);
        assert_laminar(&sink.spans());
    }
}

// ---------------------------------------------------------------------------
// Provenance across crash → recover (the tests/recovery.rs machinery).
// ---------------------------------------------------------------------------

fn base_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impatience-trace-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config() -> WalConfig {
    WalConfig {
        segment_bytes: 1024,
        sync_every: 1,
    }
}

/// Seeded durable tape: strictly increasing timestamps (every event is a
/// distinct provenance identity), disorder *within* bursts (sometimes
/// reversed), strictly advancing punctuations — so no event is ever late
/// and every stamped identity must retire at the egress probe.
fn durable_tape(seed: u64) -> Vec<StreamMessage<u32>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7ace);
    let n = rng.gen_range(30..100usize);
    let mut msgs = Vec::new();
    let mut t = 10i64;
    let mut produced = 0usize;
    while produced < n {
        let burst = rng.gen_range(1usize..5).min(n - produced);
        let mut events: Vec<Event<u32>> = (0..burst)
            .map(|_| {
                t += rng.gen_range(1..4i64);
                Event::keyed(
                    Timestamp::new(t),
                    rng.gen_range(0u32..6),
                    rng.gen_range(0u32..1_000),
                )
            })
            .collect();
        if rng.gen_bool(0.5) {
            events.reverse(); // in-burst disorder for the sorter to undo
        }
        produced += burst;
        msgs.push(StreamMessage::batch(events));
        if rng.gen_bool(0.35) {
            msgs.push(StreamMessage::Punctuation(Timestamp::new(t)));
            t += 1;
        }
    }
    msgs.push(StreamMessage::Completed);
    msgs
}

struct Durable {
    handle: InputHandle<u32>,
    ctx: CheckpointCtx,
    out: Output<i64>,
    _meter: MemoryMeter,
}

/// With a trace context: span recording for every stage downstream, and
/// the provenance ingress probe.
fn traced_entry<P: Payload>(s: Streamable<P>, t: Option<&TraceCtx>) -> Streamable<P> {
    match t {
        Some(t) => s.traced(t.clone()).trace_ingress(t),
        None => s,
    }
}

/// Impatience sort, followed — with a trace context — by the sorted-side
/// provenance probes.
fn sorted_with_probes<P: Payload>(
    s: Streamable<P>,
    meter: &MemoryMeter,
    t: Option<&TraceCtx>,
) -> Streamable<P> {
    let s = s
        .sorted(Box::new(ImpatienceSorter::new()), meter, Default::default())
        .expect("default sort policy");
    match t {
        Some(t) => s
            .trace_mark(t, LatencyStage::Sort)
            .trace_egress(t, LatencyStage::Operator),
        None => s,
    }
}

/// The durable pipeline under test: (optionally traced, from ahead of the
/// gate so the gate records spans too) checkpoint gate → Impatience sort
/// with sorted-side provenance probes → tumbling sum.
fn build_durable(base: &Path, every_n: u32, trace: Option<&TraceSink>) -> Durable {
    let meter = MemoryMeter::new();
    let (handle, s) = input_stream::<u32>();
    let t = trace.map(TraceCtx::new);
    let (s, ctx) = traced_entry(s, t.as_ref())
        .checkpointed(base.join("ckpt"), every_n)
        .expect("open checkpoint dir");
    let out = sorted_with_probes(s, &meter, t.as_ref())
        .tumbling_window(TickDuration::ticks(16))
        .group_aggregate(SumAgg::new(|p: &u32| *p as i64))
        .checkpoint_egress()
        .collect_output();
    Durable {
        handle,
        ctx,
        out,
        _meter: meter,
    }
}

/// Opens the run's WAL and wires checkpoint-driven truncation into `ctx`.
fn attach_wal(ctx: &CheckpointCtx, base: &Path) -> Arc<Mutex<WalIngress<u32>>> {
    let wal = Arc::new(Mutex::new(
        WalIngress::open_with(base.join("wal"), wal_config()).expect("open wal"),
    ));
    let w = Arc::clone(&wal);
    ctx.on_checkpoint(move |note| {
        let _ = w.lock().unwrap().truncate_before(note.safe_truncate_index);
    });
    wal
}

/// Sampled provenance survives a crash → restore → replay cycle: the
/// traced incarnations stay byte-identical to an untraced uncrashed run,
/// the crashed incarnation's spans still drain (flush-on-drop), and the
/// recovered incarnation retires every identity it stamps — the
/// hash-sampling decision is a pure function of `(sync_time, key)`, so a
/// restart cannot change which events are tracked.
#[test]
fn sampled_provenance_survives_crash_and_recovery() {
    const SEEDS: u64 = 30;
    let mut recovered_completed = 0u64;
    let mut restores = 0u64;
    for seed in 0..SEEDS {
        let t = durable_tape(seed);
        let every_n = 1 + (seed % 3) as u32;
        let cp = crash_point(seed ^ 0xc4a5_4e11, t.len());

        // Untraced, uncrashed reference.
        let ref_base = base_dir(&format!("ref-{seed}"));
        let reference = {
            let inc = build_durable(&ref_base, every_n, None);
            let wal = attach_wal(&inc.ctx, &ref_base);
            for msg in &t {
                wal.lock().unwrap().append(msg).unwrap();
                inc.handle.push(msg.clone()).expect("push");
            }
            assert!(inc.out.is_completed(), "seed {seed}: reference completed");
            inc.out
        };

        // Incarnation 1: traced, killed at the crash point.
        let base = base_dir(&format!("run-{seed}"));
        let sink1 = logical_sink();
        let events_before = {
            let inc = build_durable(&base, every_n, Some(&sink1));
            let wal = attach_wal(&inc.ctx, &base);
            for msg in &t[..cp.after_messages] {
                wal.lock().unwrap().append(msg).unwrap();
                inc.handle.push(msg.clone()).expect("push");
            }
            inc.out.events()
        };
        // Death drains the rings: the crashed incarnation's spans survive.
        if cp.after_messages > 0 {
            assert!(sink1.span_count() > 0, "seed {seed}: crash lost spans");
        }
        assert_laminar(&sink1.spans());

        // Incarnation 2: traced with a fresh sink; recover and resume.
        let sink2 = logical_sink();
        let inc = build_durable(&base, every_n, Some(&sink2));
        assert!(
            inc.out.error().is_none(),
            "seed {seed}: clean crash must recover"
        );
        let rec = inc.ctx.recovery();
        if rec.is_some() {
            restores += 1;
        }
        let m = rec.as_ref().map_or(0, |r| r.messages_seen);
        let p = rec.as_ref().map_or(0, |r| r.egress_events) as usize;
        let wal = attach_wal(&inc.ctx, &base);
        for (idx, msg) in WalIngress::<u32>::replay_from(&base.join("wal"), m).unwrap() {
            assert!(idx >= m);
            inc.handle.push(msg).expect("push");
        }
        let resume = wal.lock().unwrap().next_index();
        for (i, msg) in t.iter().enumerate().skip(resume as usize) {
            wal.lock().unwrap().append(msg).unwrap();
            if i as u64 >= m {
                inc.handle.push(msg.clone()).expect("push");
            }
        }
        if cp.after_messages < t.len() {
            assert!(inc.out.is_completed(), "seed {seed}: recovery completed");
        }

        // Conformance with tracing on: committed crashed prefix + recovered
        // output is byte-identical to the untraced uncrashed run.
        let combined: Vec<Event<i64>> = events_before
            .iter()
            .take(p)
            .cloned()
            .chain(inc.out.events())
            .collect();
        assert_eq!(
            reference.events(),
            combined,
            "seed {seed} crash@{}/{}: traced recovery diverges",
            cp.after_messages,
            t.len()
        );

        // The recovered tracker's books balance: every identity stamped in
        // this incarnation was retired at the egress probe (the tape has
        // unique timestamps and no late events), and the latency histogram
        // saw exactly the retired identities. Events restored *into* the
        // sorter by the checkpoint belong to the previous incarnation's
        // sink; the range-query probes skip them without fuss.
        let prov = sink2.provenance();
        assert_eq!(
            prov.in_flight(),
            0,
            "seed {seed}: recovered incarnation left samples in flight"
        );
        assert_eq!(prov.completed(), prov.sampled(), "seed {seed}");
        assert_eq!(
            prov.total_latency().count(),
            prov.completed(),
            "seed {seed}"
        );
        recovered_completed += prov.completed();
        assert_laminar(&sink2.spans());

        let _ = fs::remove_dir_all(&ref_base);
        let _ = fs::remove_dir_all(&base);
    }
    // The suite must actually exercise the interesting paths: real
    // restores, and real provenance tracked across the recovery boundary.
    assert!(restores > 0, "no run actually restored a checkpoint");
    assert!(
        recovered_completed > 0,
        "no recovered incarnation tracked any provenance"
    );
}

/// One sink, every span kind: the durable traced pipeline contributes
/// ingress, checkpoint, sort and operator spans, a traced 2-shard run the
/// queue and merge spans; nothing is lost to a full ring and the combined
/// Chrome trace-event export round-trips the in-tree JSON parser.
#[test]
fn one_sink_carries_all_six_span_kinds_and_its_chrome_export_reparses() {
    let sink = logical_sink();
    let base = base_dir("six-kinds");
    let inc = build_durable(&base, 1, Some(&sink));
    for msg in durable_tape(0) {
        inc.handle.push(msg).expect("push");
    }
    assert!(inc.out.is_completed());
    run_traced(&generate_case(3), 2, 2, &sink);

    let spans = sink.spans();
    for kind in [
        SpanKind::Ingress,
        SpanKind::Checkpoint,
        SpanKind::Sort,
        SpanKind::Operator,
        SpanKind::Queue,
        SpanKind::Merge,
    ] {
        assert!(
            spans.iter().any(|s| s.kind == kind),
            "export is missing {kind:?} spans"
        );
    }
    assert_eq!(sink.dropped(), 0, "export run overflowed its span rings");
    let chrome = sink.to_chrome_trace().to_string();
    let parsed = Json::parse(&chrome).expect("chrome trace export must re-parse");
    let events = parsed.get("traceEvents").and_then(Json::as_array);
    assert!(events.is_some_and(|a| !a.is_empty()), "empty chrome export");
    let _ = fs::remove_dir_all(&base);
}

/// The tracing budget: the fully traced canonical CloudLog pipeline (sort →
/// tumbling window → grouped sum; per-stage spans plus provenance at the
/// default 1/1024 sampling) keeps ≥ 95% of untraced throughput. Unsharded,
/// so the chain is synchronous and no scheduler is in the measurement. The
/// statistic is the throughput ratio of the *cleanest* of 7 interleaved
/// pairs: the two modes of one iteration run back to back, so drift
/// cancels within a pair, and contention on a shared box only ever adds
/// time — the max ratio is the least-contaminated estimate, while a real
/// regression depresses every pair. Timing: release build, `--ignored`.
#[test]
#[ignore = "timing budget; scripts/ci.sh runs it in a release build"]
fn tracing_keeps_95_percent_of_untraced_throughput() {
    const EVENTS: usize = 1_000_000;
    const RUNS: usize = 7;
    // Fig 5 workload tuning: latency covers the failure bursts.
    let span_ticks = (EVENTS / 8) as i64;
    let mut cfg = CloudLogConfig::sized(EVENTS);
    cfg.burst_delay = (span_ticks / 8).max(500);
    let window = TickDuration::ticks((span_ticks / 50).max(1));
    let policy = IngressPolicy {
        punctuation_frequency: 10_000,
        reorder_latency: TickDuration::ticks((span_ticks / 5).max(800)),
        batch_size: 4_096,
    };
    let msgs = punctuate_arrivals(generate_cloudlog(&cfg).events, &policy);

    let timed_run = |traced: bool| -> f64 {
        let run = msgs.clone(); // clone outside the timer
        let sink = traced.then(TraceSink::new);
        let (handle, s) = input_stream::<EvalPayload>();
        let t = sink
            .as_ref()
            .map(|sink| TraceCtx::new(sink).with_prefix("shard00").for_shard(0));
        let s = traced_entry(s, t.as_ref());
        sorted_with_probes(s, &MemoryMeter::new(), t.as_ref())
            .tumbling_window(window)
            .group_aggregate(SumAgg::new(|p: &EvalPayload| p[0] as i64))
            .subscribe_observer(Box::new(BlackHoleSink::new()));
        let start = std::time::Instant::now();
        for m in run {
            handle.push(m).expect("push");
        }
        let secs = start.elapsed().as_secs_f64();
        if let Some(sink) = &sink {
            assert_eq!(sink.dropped(), 0, "timed run overflowed its span rings");
        }
        secs
    };
    for traced in [false, true] {
        timed_run(traced); // warmup: page in the dataset, warm the allocator
    }
    let mut ratios: Vec<f64> = (0..RUNS)
        .map(|_| timed_run(false) / timed_run(true))
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite run times"));
    let (median, best) = (ratios[RUNS / 2], ratios[RUNS - 1]);
    println!("traced / untraced throughput: {best:.3} best, {median:.3} median of {RUNS} pairs");
    assert!(
        best >= 0.95,
        "tracing overhead over the 5% budget: cleanest pair {best:.3}, median {median:.3}"
    );
}

// ---------------------------------------------------------------------------
// Gauge tombstoning on a panicked shard.
// ---------------------------------------------------------------------------

/// A shard killed by an operator panic surfaces as one typed
/// [`StreamError::OperatorPanicked`] *and* clears its live sorter gauges
/// on the way down (drop-path tombstone), so a post-mortem registry
/// snapshot never reports the dead shard's buffers as live. High-water
/// marks survive: they are history, not liveness.
#[test]
fn panicked_shard_tombstones_its_sorter_gauges() {
    const TRIGGER: u32 = 1_000_000;
    let registry = MetricsRegistry::new();
    let reg = registry.clone();
    let (handle, stream) = input_stream::<u32>();
    let out = stream
        .sharded(4, move |s, ctx| {
            let bad = ctx.index == 2;
            let meter = MemoryMeter::new();
            s.instrument(&reg, &format!("shard{:02}", ctx.index))
                .select(move |p: &u32| {
                    if bad && *p >= TRIGGER {
                        panic!("shard under test blew up");
                    }
                    *p as i64
                })
                .sorted(
                    Box::new(ImpatienceSorter::new()),
                    &meter,
                    Default::default(),
                )
                .expect("default sort policy")
        })
        .collect_output();

    // Seed every shard's sorter with buffered state (16 keys cover all 4
    // shards), then sync the gauges with a punctuation below every event —
    // it flushes nothing but publishes the live buffer depths.
    let events: Vec<Event<u32>> = (0..16u32)
        .map(|k| Event::keyed(Timestamp::new(100 + k as i64), k, k))
        .collect();
    handle.push_events(events);
    handle.push_punctuation(Timestamp::new(50));
    // The poison batch: every shard receives a trigger payload; only the
    // bad shard's select panics — upstream of its sorter, which dies by
    // unwind with its buffers still full.
    let poison: Vec<Event<u32>> = (0..16u32)
        .map(|k| Event::keyed(Timestamp::new(200 + k as i64), k, TRIGGER + k))
        .collect();
    handle.push_events(poison);
    handle.complete();

    match out.error() {
        Some(StreamError::OperatorPanicked { operator, .. }) => {
            assert_eq!(operator, "shard02", "panic attributed to the bad shard")
        }
        other => panic!("expected OperatorPanicked, got {other:?}"),
    }
    // Instrument prefix `shard02`, stage 00 = select, stage 01 = sort: the
    // dead sorter's live gauges must read zero, its history must not.
    for live in ["runs", "buffered_events", "state_bytes"] {
        assert_eq!(
            registry.gauge(&format!("shard02.01.sorter.{live}")).get(),
            0,
            "panicked shard's live gauge `{live}` not tombstoned"
        );
    }
    assert!(
        registry
            .gauge("shard02.01.sorter.buffered_events")
            .high_water()
            > 0,
        "the dead sorter really did buffer events before the panic"
    );
}
