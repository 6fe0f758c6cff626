//! Trace: overhead and fidelity of the end-to-end tracing layer.
//!
//! Runs the canonical CloudLog analytics pipeline (Impatience sort →
//! tumbling window → grouped sum) twice — untraced, and fully traced
//! (per-stage spans plus sampled latency provenance at the default 1/1024
//! rate) — and reports both throughputs. The timed runs are unsharded and
//! therefore fully synchronous: no worker threads in the measurement, so
//! the comparison isolates tracing cost from scheduler noise (on a
//! one-core CI box a multi-threaded 5% margin is unmeasurable). Three
//! claims are checked:
//!
//! * **overhead** (asserted under `--check`): traced throughput is ≥ 95%
//!   of untraced on the cleanest interleaved run pair — the ≤5% tracing
//!   budget;
//! * **transparency** (always asserted): traced and untraced output
//!   message sequences are byte-identical on a deterministic sample,
//!   under 2-way sharding with queue stamping and merge spans enabled;
//! * **coverage** (always asserted): one combined export carries spans of
//!   every kind — ingress, checkpoint, sort, operator, shard queue, merge
//!   — and the Chrome trace-event export round-trips the in-tree JSON
//!   parser.
//!
//! With `--json PATH`, throughput lines (`"exhibit": "trace"`), the merged
//! metrics snapshot, and the `{"kind": "trace"}` summary are appended to
//! PATH, and the Chrome trace (`PATH.chrome.json`, loadable in
//! `chrome://tracing` / Perfetto) and folded stacks (`PATH.folded`, ready
//! for `flamegraph.pl`) are written next to it.

use impatience_bench::{
    assert_speedup, emit_metrics_json, emit_trace_json, fmt_throughput, run_canonical, BenchArgs,
    CanonicalRun, Row, Table,
};
use impatience_core::{
    json, EvalPayload, Json, LatencyStage, MemoryMeter, MetricsRegistry, SpanKind, StreamMessage,
    TickDuration, TraceClock, TraceConfig, TraceSink,
};
use impatience_engine::ops::SumAgg;
use impatience_engine::{
    input_stream, punctuate_arrivals, BlackHoleSink, IngressPolicy, ShardOptions, Streamable,
    TraceCtx,
};
use impatience_sort::ImpatienceSorter;
use impatience_workloads::{generate_cloudlog, CloudLogConfig};
use std::time::Instant;

/// Shard count of the transparency and export runs — the smallest that
/// still exercises the queue/merge span paths.
const TIMED_SHARDS: usize = 2;

/// Timed repetitions per mode; best-of-N defeats warmup noise. Modes are
/// interleaved (untraced, traced, untraced, ...) so clock-frequency drift
/// and background load bias both sides equally.
const RUNS: usize = 7;

/// The per-shard pipeline, untraced.
fn shard_pipeline(
    s: Streamable<EvalPayload>,
    meter: &MemoryMeter,
    window: TickDuration,
) -> Streamable<i64> {
    s.sorted(Box::new(ImpatienceSorter::new()), meter, Default::default())
        .expect("default sort policy")
        .tumbling_window(window)
        .group_aggregate(SumAgg::new(|p: &EvalPayload| p[0] as i64))
}

/// The same pipeline with the full tracing treatment: per-stage spans under
/// a `shardNN` prefix on lane `shard`, a provenance ingress probe, and the
/// sort/operator latency decomposition probes.
fn traced_shard_pipeline(
    s: Streamable<EvalPayload>,
    window: TickDuration,
    sink: &TraceSink,
    shard: usize,
) -> Streamable<i64> {
    let ctx = TraceCtx::new(sink)
        .with_prefix(format!("shard{shard:02}"))
        .for_shard(shard);
    s.traced(ctx.clone())
        .trace_ingress(&ctx)
        .sorted(
            Box::new(ImpatienceSorter::new()),
            &MemoryMeter::new(),
            Default::default(),
        )
        .expect("default sort policy")
        .trace_mark(&ctx, LatencyStage::Sort)
        .trace_egress(&ctx, LatencyStage::Operator)
        .tumbling_window(window)
        .group_aggregate(SumAgg::new(|p: &EvalPayload| p[0] as i64))
}

/// One drained end-to-end run of the canonical (unsharded) pipeline;
/// returns wall seconds. Unsharded, the chain is fully synchronous — no
/// worker threads, no scheduler in the measurement — which is what makes
/// a ≤5% overhead budget assertable even on small machines. The sharded
/// paths (queue stamps, merge spans) are covered by the transparency and
/// export sections below.
fn timed_run(
    msgs: &[StreamMessage<EvalPayload>],
    window: TickDuration,
    trace: Option<&TraceSink>,
) -> f64 {
    let run = msgs.to_vec(); // clone outside the timer
    let (handle, stream) = input_stream::<EvalPayload>();
    match trace {
        Some(sink) => traced_shard_pipeline(stream, window, sink, 0),
        None => shard_pipeline(stream, &MemoryMeter::new(), window),
    }
    .subscribe_observer(Box::new(BlackHoleSink::new()));
    let start = Instant::now();
    for m in run {
        handle.push(m).expect("push");
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    // A larger default than the other exhibits: the overhead gate compares
    // two ~100 ms runs at a 5% margin, which shorter runs cannot resolve.
    let args = BenchArgs::parse(1_000_000);
    // Fig 5 workload tuning (same as the scale exhibit).
    let span_ticks = (args.events / 8) as i64;
    let mut cfg = CloudLogConfig::sized(args.events);
    cfg.burst_delay = (span_ticks / 8).max(500);
    let latency = TickDuration::ticks((span_ticks / 5).max(800));
    let window = TickDuration::ticks((span_ticks / 50).max(1));
    let ds = generate_cloudlog(&cfg);
    let policy = IngressPolicy {
        punctuation_frequency: 10_000,
        reorder_latency: latency,
        batch_size: 4_096,
    };
    let msgs = punctuate_arrivals(ds.events.clone(), &policy);
    println!(
        "Trace: canonical CloudLog pipeline, {} events, window {window}, \
         latency {latency}, sampling 1/{}\n",
        ds.len(),
        TraceConfig::default().sample_every,
    );

    // --- Overhead: best-of-N untraced vs traced, modes interleaved per
    // iteration, plus one untimed warmup pass per mode. Each traced run
    // records into a fresh sink so ring reuse never crosses runs.
    const MODES: [&str; 2] = ["untraced", "traced"];
    let one_run = |mode: &str| -> f64 {
        let sink = (mode == "traced").then(TraceSink::new);
        let secs = timed_run(&msgs, window, sink.as_ref());
        if let Some(s) = &sink {
            assert_eq!(s.dropped(), 0, "timed run overflowed its span rings");
        }
        secs
    };
    let mut best = [f64::INFINITY; 2];
    for m in MODES {
        one_run(m); // warmup: page in the dataset, warm the allocator
    }
    // The gate statistic is the throughput ratio of the *cleanest*
    // interleaved pair. The two modes of one iteration run back-to-back,
    // so drift cancels within a pair; what remains is contention on a
    // shared box, which only ever adds time to a run — so the pair least
    // touched by it (the max ratio) is the least-contaminated estimate of
    // the true overhead, while a genuine regression depresses every pair,
    // max included. The median is reported alongside as the typical-case
    // number, and best-of-N per mode feeds the human-facing throughputs.
    let mut ratios = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let secs_untraced = one_run(MODES[0]);
        let secs_traced = one_run(MODES[1]);
        best[0] = best[0].min(secs_untraced);
        best[1] = best[1].min(secs_traced);
        ratios.push(secs_untraced / secs_traced);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite run times"));
    let (median_ratio, best_ratio) = (ratios[RUNS / 2], ratios[RUNS - 1]);
    let mut secs_by_mode = Vec::new();
    for (i, mode) in MODES.iter().enumerate() {
        let thr = ds.len() as f64 / best[i];
        println!(
            "  {mode:>8}: {} ({:.3} s, best of {RUNS})",
            fmt_throughput(ds.len(), best[i]),
            best[i]
        );
        args.emit_json(&json!({
            "exhibit": "trace", "mode": *mode, "events": ds.len(),
            "shards": 1, "secs": best[i], "throughput": thr,
        }));
        secs_by_mode.push((*mode, best[i], thr));
    }
    let mut table = Table::new(
        "Trace: tracing overhead (CloudLog, canonical pipeline)",
        "mode",
        vec!["throughput".into(), "seconds".into()],
    );
    for &(mode, secs, _) in &secs_by_mode {
        table.push(Row {
            label: mode.into(),
            cells: vec![fmt_throughput(ds.len(), secs), format!("{secs:.3}")],
        });
    }
    println!();
    table.print();
    println!(
        "  overhead: paired ratio {best_ratio:.3} best / {median_ratio:.3} \
         median over {RUNS} interleaved iterations"
    );
    assert_speedup(
        "traced vs untraced throughput, cleanest interleaved pair (<=5% overhead budget)",
        best_ratio,
        1.0,
        0.95,
        args.check,
    );

    // --- Transparency: tracing must not change one output byte. Logical
    // clock, so the comparison run is fully deterministic.
    let sample: Vec<StreamMessage<EvalPayload>> = msgs
        .iter()
        .take(msgs.len().min(200))
        .filter(|m| !matches!(m, StreamMessage::Completed))
        .cloned()
        .collect();
    let mut reference: Option<Vec<StreamMessage<i64>>> = None;
    for traced in [false, true] {
        let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
        let sink_for_build = traced.then(|| sink.clone());
        let mut opts = ShardOptions::new(TIMED_SHARDS);
        if traced {
            opts = opts.with_trace(&sink);
        }
        let (handle, stream) = input_stream::<EvalPayload>();
        let out = stream
            .sharded(opts, move |s, ctx| match &sink_for_build {
                Some(sink) => traced_shard_pipeline(s, window, sink, ctx.index),
                None => shard_pipeline(s, &MemoryMeter::new(), window),
            })
            .collect_output();
        for m in sample.clone() {
            handle.push(m).expect("push");
        }
        handle.complete();
        assert!(out.is_completed(), "sample run (traced={traced}) failed");
        let got = out.messages();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "traced output diverged from untraced"),
        }
    }
    println!("\n  transparency: traced output byte-identical to untraced ... ok");

    // --- Coverage + export: one sink fed by the canonical durable traced
    // pipeline (ingress/checkpoint/sort/operator spans + provenance) and a
    // traced sharded run (queue/merge spans); the merged registry snapshot
    // and trace summary land in --json.
    let sink = TraceSink::new();
    let canonical = MetricsRegistry::new();
    run_canonical(&CanonicalRun {
        registry: &canonical,
        ds: &ds,
        punctuation_frequency: 10_000,
        budget: args.memory_budget,
        spill_dir: None,
        trace: Some(&sink),
    });
    let sharded = MetricsRegistry::new();
    {
        let opts = ShardOptions::new(TIMED_SHARDS)
            .with_registry(&sharded)
            .with_trace(&sink);
        let export_sink = sink.clone();
        let (handle, stream) = input_stream::<EvalPayload>();
        stream
            .sharded(opts, move |s, ctx| {
                traced_shard_pipeline(s, window, &export_sink, ctx.index)
            })
            .subscribe_observer(Box::new(BlackHoleSink::new()));
        for m in sample.clone() {
            handle.push(m).expect("push");
        }
        handle.complete();
    }
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
    let n_events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .map(|a| a.len())
        .unwrap_or(0);
    assert!(n_events > 0, "chrome trace export is empty");
    println!(
        "  coverage: {} span(s) across all kinds; chrome export round-trips \
         ({n_events} trace events) ... ok",
        spans.len()
    );
    let snapshot = canonical.snapshot().merge(&sharded.snapshot());
    emit_metrics_json(
        &args,
        "trace",
        &ds.name,
        &snapshot,
        args.expects(&["trace"]),
    );
    emit_trace_json(&args, "trace", &ds.name, &sink.summary());
    if let Some(path) = &args.json {
        let base = path.trim_end_matches(".json");
        let chrome_path = format!("{base}.chrome.json");
        let folded_path = format!("{base}.folded");
        std::fs::write(&chrome_path, &chrome).expect("write chrome trace");
        std::fs::write(&folded_path, sink.to_folded()).expect("write folded stacks");
        println!("  exports: {chrome_path} (chrome://tracing), {folded_path} (flamegraph)");
    }
}
