//! Scale: multi-core throughput of the sharded pipeline.
//!
//! Runs the canonical CloudLog analytics pipeline — Impatience sort →
//! tumbling window → grouped sum, keyed by server — under
//! `Streamable::sharded(n)` for n ∈ {1, 2, 4} and reports end-to-end
//! throughput (ingress push to fully drained fleet). Two claims are
//! checked:
//!
//! * **determinism** (always asserted): the output message sequence is
//!   byte-identical across all shard counts;
//! * **scaling** (asserted under `--check` only when the machine has ≥ 4
//!   cores): 4 shards deliver ≥ 2.5× the 1-shard throughput.
//!
//! The snapshot appended to `--json` merges two independently-registered
//! runs via `MetricsSnapshot::merge`: the canonical durable traced
//! pipeline (the standard `pipeline.*` / `checkpoint.*` / `memory.*`
//! instruments every exhibit carries) and a shard-instrumented run — so
//! `snapshot_check` can gate on the `shard.*` counters (under `--check`
//! the metrics line promises `"shard"` activity), while neither run's
//! instruments can alias the other's.

use impatience_bench::{
    assert_speedup, emit_metrics_json, emit_trace_json, fmt_throughput, run_canonical, BenchArgs,
    CanonicalRun, Row, Table,
};
use impatience_core::{
    json, EvalPayload, MemoryMeter, MetricsRegistry, StreamMessage, TickDuration, TraceSink,
};
use impatience_engine::ops::SumAgg;
use impatience_engine::{
    input_stream, punctuate_arrivals, BlackHoleSink, IngressPolicy, ShardOptions, Streamable,
};
use impatience_sort::ImpatienceSorter;
use impatience_workloads::{generate_cloudlog, CloudLogConfig};
use std::time::Instant;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The per-shard (key-local) pipeline: sort out the disorder, window,
/// aggregate per server key.
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

fn main() {
    let args = BenchArgs::parse(400_000);
    // Fig 5 workload tuning: latency covers the failure bursts.
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
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Scale: sharded CloudLog pipeline, {} events, window {window}, latency {latency}, \
         {parallelism} core(s) available\n",
        ds.len()
    );

    // --- Throughput: timed runs into a black hole, one per shard count.
    let mut rows = Vec::new();
    let mut throughput = Vec::new();
    for &shards in &SHARD_COUNTS {
        let run = msgs.clone(); // clone outside the timer
        let (handle, stream) = input_stream::<EvalPayload>();
        stream
            .sharded(shards, move |s, _| {
                shard_pipeline(s, &MemoryMeter::new(), window)
            })
            .subscribe_observer(Box::new(BlackHoleSink::new()));
        let start = Instant::now();
        for m in run {
            handle.push(m).expect("push");
        }
        // `Completed` joins the whole fleet, so this is drained wall-clock.
        let secs = start.elapsed().as_secs_f64();
        let thr = ds.len() as f64 / secs;
        println!(
            "  {shards} shard(s): {} ({secs:.3} s)",
            fmt_throughput(ds.len(), secs)
        );
        args.emit_json(&json!({
            "exhibit": "scale", "shards": shards, "events": ds.len(),
            "secs": secs, "throughput": thr,
        }));
        rows.push((shards, secs));
        throughput.push(thr);
    }
    let mut table = Table::new(
        "Scale: sharded pipeline throughput (CloudLog)",
        "shards",
        vec!["throughput".into(), "seconds".into()],
    );
    for &(shards, secs) in &rows {
        table.push(Row {
            label: format!("{shards}"),
            cells: vec![fmt_throughput(ds.len(), secs), format!("{secs:.3}")],
        });
    }
    println!();
    table.print();

    // --- Determinism: identical output across shard counts, on a prefix
    // (collecting the full output would dwarf the measurement).
    // The prefix may or may not include the terminal: strip it and
    // complete explicitly.
    let sample: Vec<StreamMessage<EvalPayload>> = msgs
        .iter()
        .take(msgs.len().min(200))
        .filter(|m| !matches!(m, StreamMessage::Completed))
        .cloned()
        .collect();
    let mut reference: Option<Vec<StreamMessage<i64>>> = None;
    for &shards in &SHARD_COUNTS {
        let (handle, stream) = input_stream::<EvalPayload>();
        let out = stream
            .sharded(shards, move |s, _| {
                shard_pipeline(s, &MemoryMeter::new(), window)
            })
            .collect_output();
        for m in sample.clone() {
            handle.push(m).expect("push");
        }
        handle.complete();
        assert!(out.is_completed(), "{shards}-shard sample run failed");
        let got = out.messages();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(
                &got, r,
                "{shards}-shard output diverged from the 1-shard run"
            ),
        }
    }
    println!("\n  determinism: output byte-identical across shard counts ... ok");

    // --- Shape check: 4 shards vs 1. Only meaningful with the cores to
    // back it; on smaller machines report without asserting.
    let (thr1, thr4) = (throughput[0], throughput[2]);
    if parallelism >= 4 {
        assert_speedup("4-shard vs 1-shard throughput", thr4, thr1, 2.5, args.check);
    } else {
        println!(
            "  [shape] 4-shard vs 1-shard throughput: {thr4:.0} vs {thr1:.0} \
             (not asserted: only {parallelism} core(s) available, need 4)"
        );
    }

    // --- Metrics: canonical durable traced pipeline and a sharded run,
    // each against its own registry, merged into one deterministic
    // (name-sorted) snapshot. Tracing covers both: pipeline spans from the
    // canonical run, shard-queue/merge spans from the sharded one.
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
        let opts = ShardOptions::new(2)
            .with_registry(&sharded)
            .with_trace(&sink);
        let (handle, stream) = input_stream::<EvalPayload>();
        stream
            .sharded(opts, move |s, _| {
                shard_pipeline(s, &MemoryMeter::new(), window)
            })
            .subscribe_observer(Box::new(BlackHoleSink::new()));
        for m in msgs
            .iter()
            .take(msgs.len().min(2_000))
            .filter(|m| !matches!(m, StreamMessage::Completed))
            .cloned()
        {
            handle.push(m).expect("push");
        }
        handle.complete();
    }
    let snapshot = canonical.snapshot().merge(&sharded.snapshot());
    println!(
        "\nmetrics snapshot ({}, sampled + sharded pipeline):",
        ds.name
    );
    print!("{snapshot}");
    emit_metrics_json(
        &args,
        "scale",
        &ds.name,
        &snapshot,
        args.expects(&["shard"]),
    );
    emit_trace_json(&args, "scale", &ds.name, &sink.summary());
}
