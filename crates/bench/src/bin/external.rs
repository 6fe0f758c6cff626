//! External-sort exhibit: lossless spill-to-disk under a hard memory
//! budget.
//!
//! Sorts a CloudLog dataset whose buffered footprint is **at least 4× the
//! sorter's memory budget** — the reorder latency is tuned to half the
//! stream's timespan, so roughly half the dataset is in flight at the peak
//! while the budget admits only a quarter. Under `ShedPolicy::
//! SpillColdRuns` the sorter must seal cold runs into on-disk run files
//! and merge them back at punctuation boundaries; the exhibit gates that
//! this happened **losslessly**:
//!
//! * zero dead-lettered and zero shed events (hard assertions, not
//!   `--check` shapes — losing data under spill is a correctness bug);
//! * zero forced punctuations (spilling alone reclaimed the overage);
//! * the output event sequence is identical to an unbudgeted all-in-memory
//!   Impatience run over the same ingress tape.
//!
//! Reported: sustained throughput of the spilling run (the `"throughput"`
//! measurement), the spill write amplification
//! (spill bytes written / dataset bytes — >1 means compaction rewrote
//! data), and the on-disk high-water mark. The sampled pipeline is durable
//! (checkpoint gate every 16 punctuations), so committed checkpoints also
//! drive the spill-file garbage collector during the run.

use impatience_bench::{fmt_throughput, BenchArgs, Row, Table};
use impatience_core::{
    json, EvalPayload, Event, LatePolicy, MemoryMeter, MetricsRegistry, ShedPolicy, StreamMessage,
    TickDuration,
};
use impatience_engine::ops::SortPolicy;
use impatience_engine::{input_stream, punctuate_arrivals, IngressPolicy, Output};
use impatience_sort::{ExternalImpatienceSorter, ImpatienceSorter, OnlineSorter};
use impatience_workloads::{generate_cloudlog, CloudLogConfig};

const PUNCTUATION_FREQUENCY: usize = 10_000;
const CHECKPOINT_EVERY: u32 = 16;

/// One pipeline run over `messages`: ingress → (checkpoint gate) →
/// instruments → sort → collector. Returns the collected output and the
/// wall-clock seconds spent pushing the tape.
fn run_pipeline(
    registry: &MetricsRegistry,
    messages: &[StreamMessage<EvalPayload>],
    sorter: Box<dyn OnlineSorter<Event<EvalPayload>>>,
    meter: MemoryMeter,
    policy: SortPolicy<EvalPayload>,
    ckpt_dir: Option<&std::path::Path>,
) -> (Output<EvalPayload>, f64) {
    let (out, sink) = Output::new();
    let (handle, stream) = input_stream::<EvalPayload>();
    let stream = match ckpt_dir {
        Some(dir) => {
            let (stream, ckpt) = stream
                .checkpointed(dir, CHECKPOINT_EVERY)
                .expect("open scratch checkpoint dir");
            ckpt.bind_metrics(registry, "pipeline");
            stream
        }
        None => stream,
    };
    let stream = stream.instrument(registry, "pipeline");
    stream
        .sorted(sorter, &meter, policy)
        .expect("Drop sort policy is accepted")
        .subscribe_observer(Box::new(sink));
    // The tape from `punctuate_arrivals` already ends with a Completed
    // message; pushing it drains and closes the chain.
    let start = std::time::Instant::now();
    for m in messages {
        handle.push(m.clone()).expect("push");
    }
    (out, start.elapsed().as_secs_f64().max(1e-9))
}

fn main() {
    let args = BenchArgs::parse(300_000);
    let ds = generate_cloudlog(&CloudLogConfig::sized(args.events));
    let n = ds.len();
    let span = ds
        .events
        .iter()
        .map(|e| e.sync_time.ticks())
        .max()
        .unwrap_or(1)
        .max(1);
    // Half the timespan in flight at the peak vs a quarter of the dataset
    // admitted in memory: the spill path *must* carry the difference.
    let latency = TickDuration::ticks((span / 2).max(1));
    let event_bytes = core::mem::size_of::<Event<EvalPayload>>();
    let dataset_bytes = n * event_bytes;
    let budget = args.memory_budget.unwrap_or(dataset_bytes / 4);
    let spill_dir = args
        .spill_dir
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("impatience-external-{}", std::process::id()))
        });
    let ckpt_dir =
        std::env::temp_dir().join(format!("impatience-external-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    println!(
        "External sort: {} ({n} events, {dataset_bytes} B buffered footprint), \
         budget {budget} B ({:.1}x over), reorder latency {latency}, spilling to {}\n",
        ds.name,
        dataset_bytes as f64 / budget as f64,
        spill_dir.display()
    );

    let ingress = IngressPolicy {
        punctuation_frequency: PUNCTUATION_FREQUENCY,
        reorder_latency: latency,
        batch_size: 4_096,
    };
    let messages: Vec<StreamMessage<EvalPayload>> = punctuate_arrivals(ds.events.clone(), &ingress);

    // Reference: unbudgeted, all in memory.
    let ref_registry = MetricsRegistry::new();
    let (ref_out, _) = run_pipeline(
        &ref_registry,
        &messages,
        Box::new(ImpatienceSorter::new()),
        MemoryMeter::new(),
        SortPolicy {
            late: LatePolicy::Drop,
            shed: ShedPolicy::ForcePunctuation,
            dead_letters: None,
        },
        None,
    );

    // Measured: budgeted, spilling, durable.
    let registry = MetricsRegistry::new();
    let meter = MemoryMeter::with_budget(budget);
    meter.bind_over_release_counter(registry.counter("memory.over_releases"));
    let (out, secs) = run_pipeline(
        &registry,
        &messages,
        Box::new(ExternalImpatienceSorter::new(&spill_dir)),
        meter.clone(),
        SortPolicy {
            late: LatePolicy::Drop,
            shed: ShedPolicy::SpillColdRuns,
            dead_letters: None,
        },
        Some(&ckpt_dir),
    );
    let throughput = n as f64 / secs;

    let counter = |name: &str| registry.counter(name).get();
    let gauge = |name: &str| registry.gauge(name).get().max(0) as u64;
    let spilled_runs = gauge("pipeline.00.sorter.spill.runs_spilled");
    let bytes_written = gauge("pipeline.00.sorter.spill.bytes_written");
    let bytes_read = gauge("pipeline.00.sorter.spill.bytes_read");
    let disk_hwm = registry
        .gauge("pipeline.00.sorter.spill.bytes_on_disk")
        .high_water()
        .max(0) as u64;
    let state_hwm = registry
        .gauge("pipeline.00.sorter.state_bytes")
        .high_water();
    let write_amp = bytes_written as f64 / dataset_bytes as f64;

    let mut table = Table::new(
        "External Impatience sort under a 4x-over budget",
        "quantity",
        vec!["value".into()],
    );
    for (label, value) in [
        ("throughput (spilling run)", fmt_throughput(n, secs)),
        ("runs spilled", spilled_runs.to_string()),
        ("spill bytes written", bytes_written.to_string()),
        ("spill bytes read", bytes_read.to_string()),
        ("on-disk high water (B)", disk_hwm.to_string()),
        ("state bytes high water (B)", state_hwm.to_string()),
        ("write amplification", format!("{write_amp:.2}x")),
    ] {
        table.push(Row {
            label: label.into(),
            cells: vec![value],
        });
    }
    table.print();

    // Hard gates: losing or reordering data under spill is a correctness
    // bug, not a missed paper shape — assert regardless of --check.
    assert_eq!(
        counter("pipeline.00.sort.dead_lettered"),
        0,
        "zero dead-letters"
    );
    assert_eq!(counter("pipeline.00.sort.shed_events"), 0, "zero sheds");
    assert_eq!(
        counter("pipeline.00.sort.forced_punctuations"),
        0,
        "spilling alone held the budget"
    );
    assert_eq!(
        counter("memory.over_releases"),
        0,
        "accounting never negative"
    );
    assert!(
        state_hwm <= budget as i64,
        "budget held: state_bytes hwm {state_hwm} > {budget}"
    );
    assert!(
        out.error().is_none(),
        "spilling run failed: {:?}",
        out.error()
    );
    assert!(out.is_completed() && ref_out.is_completed());
    let key = |o: &Output<EvalPayload>| -> Vec<i64> {
        o.events().iter().map(|e| e.sync_time.ticks()).collect()
    };
    assert_eq!(
        key(&out),
        key(&ref_out),
        "spilled output must be identical to the all-in-memory reference"
    );
    println!(
        "\ngates: zero dead-letters, zero sheds, zero forced punctuations, \
         output identical to in-memory reference ({} events) ... ok",
        out.event_count()
    );

    // Shape checks: the budget really was ~4x over and the spill path
    // really carried data.
    println!("shape checks:");
    let over = dataset_bytes >= 4 * budget;
    println!(
        "  dataset >= 4x budget ({dataset_bytes} vs {budget}) ... {}",
        if over { "ok" } else { "FAILED" }
    );
    let spilled = spilled_runs > 0 && disk_hwm > 0;
    println!(
        "  spill path active ({spilled_runs} runs, {disk_hwm} B on disk peak) ... {}",
        if spilled { "ok" } else { "FAILED" }
    );
    if args.check {
        assert!(over, "dataset must be at least 4x the budget");
        assert!(spilled, "budget pressure must actually spill");
    }

    args.emit_json(&json!({
        "exhibit": "external",
        "dataset": ds.name.clone(),
        "events": n,
        "dataset_bytes": dataset_bytes,
        "budget_bytes": budget,
        "runs_spilled": spilled_runs,
        "spill_bytes_written": bytes_written,
        "spill_bytes_read": bytes_read,
        "spill_bytes_on_disk_hwm": disk_hwm,
        "spill_write_amplification": write_amp,
        "throughput": throughput,
    }));
    let expects = args.expects(&["spill"]);
    impatience_bench::emit_metrics_json(&args, "external", &ds.name, &registry.snapshot(), expects);

    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if args.spill_dir.is_none() {
        let _ = std::fs::remove_dir_all(&spill_dir);
    }
}
