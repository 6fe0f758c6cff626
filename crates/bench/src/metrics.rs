//! Metrics-snapshot embedding for the repro binaries.
//!
//! Every exhibit binary, next to its measured results, runs one *sampled*
//! instrumented pipeline over (a prefix of) its dataset and appends the
//! resulting registry snapshot to the `--json` output as a
//! `{"kind": "metrics", ...}` line. The measured runs themselves stay
//! uninstrumented so probe overhead never skews reported throughput; the
//! snapshot run is capped at [`METRICS_SAMPLE_EVENTS`] events.

use impatience_core::{
    json, DeadLetterQueue, EvalPayload, Event, IngressStats, Json, LatePolicy, LatencyStage,
    MemoryMeter, MetricsRegistry, MetricsSnapshot, ShedPolicy, StreamMessage, TickDuration,
    TraceSink,
};
use impatience_engine::ops::SortPolicy;
use impatience_engine::{input_stream, punctuate_arrivals, BlackHoleSink, IngressPolicy, TraceCtx};
use impatience_sort::{ExternalImpatienceSorter, ImpatienceSorter, OnlineSorter};
use impatience_workloads::Dataset;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cli::BenchArgs;

/// Cap on events pumped through the instrumented snapshot pipeline.
pub const METRICS_SAMPLE_EVENTS: usize = 200_000;

/// Checkpoint cadence (punctuations) of the sampled durable pipeline.
pub const METRICS_CHECKPOINT_EVERY: u32 = 16;

/// Bound on the sampled pipeline's dead-letter queue, so recovery replay
/// (or a pathological dataset) cannot grow it without bound.
pub const DEAD_LETTER_CAPACITY: usize = 64 * 1024;

/// One run of the canonical instrumented pipeline, for [`run_canonical`].
pub struct CanonicalRun<'a> {
    /// Receives every instrument of the run.
    pub registry: &'a MetricsRegistry,
    /// The dataset; a prefix of at most [`METRICS_SAMPLE_EVENTS`] runs.
    pub ds: &'a Dataset,
    /// Events per punctuation at ingress.
    pub punctuation_frequency: usize,
    /// Sorter-state **budget** (bytes). With a budget, the pipeline runs
    /// hardened and degraded — late events dead-letter instead of
    /// dropping, memory pressure sheds the oldest runs into the
    /// dead-letter queue — and the run asserts the sorter's `state_bytes`
    /// high water never exceeded the budget.
    pub budget: Option<usize>,
    /// With a budget: the lossless ladder instead. The sorter is an
    /// [`ExternalImpatienceSorter`] spilling under this directory, the
    /// shed policy is [`ShedPolicy::SpillColdRuns`], and late events drop
    /// (so a clean run proves **zero** dead-letters and sheds under memory
    /// pressure). The directory is left on disk for the caller to inspect
    /// or remove.
    pub spill_dir: Option<&'a Path>,
    /// Structured tracing: every stage records spans into this sink
    /// (ingress, checkpoint gate, sort, window, count), and sampled events
    /// carry latency provenance from ingress to the sort egress. Drain it
    /// afterwards with [`TraceSink::summary`] /
    /// [`TraceSink::to_chrome_trace`].
    pub trace: Option<&'a TraceSink>,
}

/// Runs the canonical instrumented pipeline —
/// `ingress → Impatience sort → tumbling window → count` — over a prefix of
/// `run.ds` into `run.registry`. The reorder latency is scaled to a fifth
/// of the sampled timespan (the Fig 5 tuning) and the window to a
/// fiftieth.
pub fn run_canonical(run: &CanonicalRun<'_>) {
    let &CanonicalRun {
        registry,
        ds,
        punctuation_frequency,
        budget,
        spill_dir: spill,
        trace,
    } = run;
    let n = ds.len().min(METRICS_SAMPLE_EVENTS);
    let events: Vec<Event<EvalPayload>> = ds.events[..n].to_vec();
    let span = events
        .iter()
        .map(|e| e.sync_time.ticks())
        .max()
        .unwrap_or(1)
        .max(1);
    let latency = TickDuration::ticks((span / 5).max(1));
    let window = TickDuration::ticks((span / 50).max(1));

    let stats = IngressStats::registered(registry);
    let meter = match budget {
        Some(b) => MemoryMeter::with_budget(b),
        None => MemoryMeter::new(),
    };
    // Memory accounting must never go negative; the counter makes any
    // over-release visible in the snapshot (and snapshot_check rejects it).
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
        late: if budget.is_some() && spill.is_none() {
            LatePolicy::DeadLetter
        } else {
            LatePolicy::Drop
        },
        shed: match (spill, budget) {
            (Some(_), _) => ShedPolicy::SpillColdRuns,
            (None, Some(_)) => ShedPolicy::ShedOldestRuns,
            (None, None) => ShedPolicy::ForcePunctuation,
        },
        dead_letters,
    };
    // The sampled pipeline runs durable so every exhibit's snapshot also
    // carries the checkpoint.* / recovery.* counters snapshot_check
    // demands. Checkpoints land in a scratch directory per run (runs of
    // one process may overlap: the test harness is multi-threaded).
    static RUN: AtomicU64 = AtomicU64::new(0);
    let ckpt_dir = std::env::temp_dir().join(format!(
        "impatience-bench-ckpt-{}-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed),
        ds.name.replace(|c: char| !c.is_ascii_alphanumeric(), "-"),
    ));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (handle, stream) = input_stream::<EvalPayload>();
    // Trace context (if any) attaches before the first combinator so every
    // stage — ingress probe, checkpoint gate, sort, window, count — records
    // a span; provenance probes sample events at ingress and retire them
    // just past the sort, before windowing rewrites their identity.
    let ctx = trace.map(TraceCtx::new);
    let stream = match &ctx {
        Some(c) => stream.traced(c.clone()).trace_ingress(c),
        None => stream,
    };
    let (stream, ckpt) = stream
        .checkpointed(&ckpt_dir, METRICS_CHECKPOINT_EVERY)
        .expect("open scratch checkpoint dir");
    ckpt.bind_metrics(registry, "pipeline");
    let stream = stream.instrument(registry, "pipeline");
    let stream = if budget.is_some() {
        stream.hardened()
    } else {
        stream
    };
    let sorter: Box<dyn OnlineSorter<Event<EvalPayload>>> = match spill {
        Some(dir) => Box::new(ExternalImpatienceSorter::new(dir)),
        None => Box::new(ImpatienceSorter::new()),
    };
    let stream = stream
        .sorted(sorter, &meter, policy)
        .expect("Drop/DeadLetter sort policies are accepted");
    let stream = match &ctx {
        Some(c) => stream
            .trace_mark(c, LatencyStage::Sort)
            .trace_egress(c, LatencyStage::Operator),
        None => stream,
    };
    stream
        .tumbling_window(window)
        .count()
        .subscribe_observer(Box::new(BlackHoleSink::new()));

    let policy = IngressPolicy {
        punctuation_frequency,
        reorder_latency: latency,
        batch_size: 4_096,
    };
    stats.add_ingested(events.len() as u64);
    for m in punctuate_arrivals(events, &policy) {
        if matches!(m, StreamMessage::Punctuation(_)) {
            stats.add_punctuation();
        }
        handle.push(m).expect("push");
    }
    // Events surviving the sort stage (ingested minus dropped-late).
    let sorted_out = registry.counter("pipeline.00.sort.events_out").get();
    stats.add_emitted(sorted_out);
    stats.add_dropped_late(stats.ingested().saturating_sub(sorted_out));
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
}

/// Runs the traced canonical pipeline over `ds`, prints the compact top
/// view, and appends both a `{"kind": "metrics", ...}` snapshot line and a
/// `{"kind": "trace", ...}` span/provenance summary line. The sampled
/// observability run is the traced one — the measured exhibit runs stay
/// untraced, so neither probes nor spans skew reported throughput.
pub fn emit_pipeline_metrics(args: &BenchArgs, exhibit: &str, ds: &Dataset) {
    let registry = MetricsRegistry::new();
    let sink = TraceSink::new();
    // A budget runs the degradation path, and promises it; with a spill
    // directory too, the lossless one. Without a budget nothing spills.
    let (spill_dir, mode, expects): (_, _, &[&str]) = match (args.memory_budget, &args.spill_dir) {
        (Some(b), Some(dir)) => (
            Some(Path::new(dir)),
            format!(", {b}-byte budget, spilling to {dir}"),
            &["spill"],
        ),
        (Some(b), None) => (None, format!(", {b}-byte budget"), &["fault"]),
        (None, _) => (None, String::new(), &[]),
    };
    run_canonical(&CanonicalRun {
        registry: &registry,
        ds,
        punctuation_frequency: 10_000,
        budget: args.memory_budget,
        spill_dir,
        trace: Some(&sink),
    });
    let snapshot = registry.snapshot();
    println!("\nmetrics snapshot ({}, sampled pipeline{mode}):", ds.name);
    print!("{snapshot}");
    emit_metrics_json(args, exhibit, &ds.name, &snapshot, expects);
    args.emit_json(&json!({
        "exhibit": exhibit,
        "kind": "trace",
        "dataset": ds.name.as_str(),
        "trace": sink.summary(),
    }));
}

/// Appends a snapshot (however it was produced) as a metrics JSON line.
/// `expects` names the activities this run's own arguments promise the
/// file will show — rows of [`crate::contract::ACTIVITY_CONTRACTS`], which
/// `snapshot_check` then enforces.
pub fn emit_metrics_json(
    args: &BenchArgs,
    exhibit: &str,
    dataset: &str,
    snap: &MetricsSnapshot,
    expects: &[&str],
) {
    args.emit_json(&json!({
        "exhibit": exhibit,
        "kind": "metrics",
        "dataset": dataset,
        "metrics": snap.to_json(),
        "expects": Json::Array(expects.iter().map(|&e| Json::from(e)).collect()),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_workloads::{generate_cloudlog, CloudLogConfig};

    #[test]
    fn snapshot_contains_expected_instruments() {
        let ds = generate_cloudlog(&CloudLogConfig::sized(4_000));
        let registry = MetricsRegistry::new();
        run_canonical(&CanonicalRun {
            registry: &registry,
            ds: &ds,
            punctuation_frequency: 500,
            budget: None,
            spill_dir: None,
            trace: None,
        });
        let js = registry.snapshot().to_json();
        let counters = js.get("counters").expect("counters");
        assert_eq!(
            counters
                .get("ingress.ingested")
                .and_then(Json::as_i64)
                .unwrap(),
            4_000
        );
        assert!(counters.get("pipeline.00.sort.events_in").is_some());
        assert!(counters.get("pipeline.00.sort.punctuations_in").is_some());
        let gauges = js.get("gauges").expect("gauges");
        let state = gauges.get("pipeline.00.sorter.state_bytes").expect("gauge");
        assert!(state.get("high_water").and_then(Json::as_i64).unwrap() > 0);
        let hists = js.get("histograms").expect("histograms");
        let lag = hists.get("pipeline.00.sort.watermark_lag").expect("hist");
        assert!(lag.get("count").and_then(Json::as_i64).unwrap() > 0);
        // The sampled pipeline is durable: checkpoint/recovery counters are
        // in every snapshot, the run took at least the completion
        // checkpoint, and memory accounting stayed clean.
        assert!(
            counters
                .get("pipeline.checkpoint.written")
                .and_then(Json::as_i64)
                .unwrap()
                > 0
        );
        assert!(counters.get("pipeline.recovery.restores").is_some());
        assert_eq!(
            counters
                .get("memory.over_releases")
                .and_then(Json::as_i64)
                .unwrap(),
            0
        );
        // The snapshot is self-describing JSON: it round-trips the parser.
        let text = js.to_string();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn traced_pipeline_records_spans_and_provenance() {
        let ds = generate_cloudlog(&CloudLogConfig::sized(4_000));
        let registry = MetricsRegistry::new();
        let sink = TraceSink::new();
        run_canonical(&CanonicalRun {
            registry: &registry,
            ds: &ds,
            punctuation_frequency: 500,
            budget: None,
            spill_dir: None,
            trace: Some(&sink),
        });
        // Same instruments as the untraced run: sort is still stage 00.
        assert!(
            registry.counter("pipeline.00.sort.events_in").get() > 0,
            "tracing must not shift metric stage names"
        );
        let summary = sink.summary();
        assert!(summary.get("spans").and_then(Json::as_i64).unwrap() > 0);
        assert_eq!(summary.get("dropped").and_then(Json::as_i64).unwrap(), 0);
        let prov = summary.get("provenance").expect("provenance block");
        assert!(prov.get("sampled").and_then(Json::as_i64).unwrap() > 0);
        assert!(prov.get("completed").and_then(Json::as_i64).unwrap() > 0);
        // Both exports round-trip / render from the same sink.
        let chrome = sink.to_chrome_trace().to_string();
        let parsed = Json::parse(&chrome).expect("chrome export parses");
        assert!(parsed.get("traceEvents").is_some());
        assert!(!sink.to_folded().is_empty());
    }
}
