//! `engine-inmem`: CloudLog pushed in-process through
//! `PipelineSpec::build` with ops `[TumblingWindow, SumByKey]`.
//!
//! Its traced pass also runs the *same* pipeline, input and punctuation
//! schedule with `sort.spill` and a memory budget of a quarter of what the
//! data buffers at its fullest, so whatever differs is the external
//! sorter's doing. Spilling is measured there, as per-layer rows, and not
//! as a gated workload of its own: with ~8 000 fsyncs per 100 000 events it
//! is ~95% fsync wait, and this host's fsync latency wanders by ±25% over
//! minutes, so no end-to-end timing on it can hold a ≤25% bound (measured:
//! 4–85% spread between identical runs).

use crate::harness::{
    discard, dump_trace, lock, timed_section, timed_setups, Ctx, Probe, ProbeSink,
};
use crate::measure::{cpu_ns_per_event, end_to_end_metrics, put_ungated_timings, Outcome, Segment};
use crate::oracle::{self, Fold};
use crate::span::Tracer;
use crate::{alloc, inputs, layers, stats};
use impatience_core::{
    Event, MemoryMeter, MetricsRegistry, ShedPolicy, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::{input_stream, OpSpec, PipelineEnv, PipelineSpec, SortSpec};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Metric prefix and directory stem of the pipeline.
const NAME: &str = "eng";

/// Everything a repetition needs, built once per run.
struct Setup {
    batches: Vec<Vec<Event<i64>>>,
    /// Punctuation issued after each batch, if the frontier advanced.
    puncts: Vec<Option<Timestamp>>,
    latency: TickDuration,
    events: usize,
    /// Memory budget of the spilling variant, bytes.
    budget: usize,
}

/// Which layers the pipeline is built with.
#[derive(Clone, Copy)]
struct Shape {
    ops: bool,
    shell: bool,
    shards: usize,
}

const FULL: Shape = Shape {
    ops: true,
    shell: true,
    shards: 1,
};

fn spec(shape: Shape, spill: bool) -> PipelineSpec {
    let mut spec = PipelineSpec::new(NAME)
        .with_instrument(shape.shell)
        .with_hardened(shape.shell)
        .with_shards(shape.shards);
    if shape.ops {
        spec = spec
            .with_op(OpSpec::TumblingWindow {
                size: inputs::WINDOW,
            })
            .with_op(OpSpec::SumByKey);
    }
    if spill {
        spec = spec.with_sort(SortSpec {
            spill: true,
            shed: ShedPolicy::SpillColdRuns,
            ..SortSpec::default()
        });
    }
    spec
}

/// The fixed reorder latency: a quarter of the input's time span, so about
/// a quarter of the events are in flight at the peak — enough buffered
/// state that a budget of a quarter of it forces the sorter to disk.
fn reorder_latency(events: &[Event<i64>]) -> TickDuration {
    let span = events
        .iter()
        .map(|e| e.sync_time.ticks())
        .max()
        .unwrap_or(1);
    TickDuration::ticks((span / 4).max(1))
}

/// One pass of the input through a freshly built pipeline.
struct Rep {
    wall_s: f64,
    reply_ms: Vec<f64>,
    probe: Arc<Mutex<Probe>>,
    registry: MetricsRegistry,
    peak_state: usize,
    failed_pushes: u64,
    pushes: u64,
}

fn run_rep(setup: &Setup, shape: Shape, spill_dir: Option<&Path>, tracer: &mut Tracer) -> Rep {
    let registry = MetricsRegistry::new();
    let meter = match spill_dir {
        Some(_) => MemoryMeter::with_budget(setup.budget),
        None => MemoryMeter::new(),
    };
    let mut env = PipelineEnv::new()
        .with_registry(&registry)
        .with_meter(&meter);
    if let Some(dir) = spill_dir {
        env = env.with_spill_dir(dir);
    }
    let (sink, probe) = ProbeSink::new(|p: &i64| *p as u64);
    let built = spec(shape, spill_dir.is_some())
        .build(&env, Box::new(sink))
        .expect("the benchmark's own spec builds");

    // The caller's copy of each batch is made before the clock starts.
    let input: Vec<StreamMessage<i64>> = setup
        .batches
        .iter()
        .map(|b| StreamMessage::batch(b.clone()))
        .collect();
    let marks: Vec<Timestamp> = setup
        .batches
        .iter()
        .map(|b| inputs::max_sync(b).align_down(inputs::WINDOW))
        .collect();

    let mut reply_ms = Vec::with_capacity(input.len());
    let (mut pushes, mut failed_pushes) = (0u64, 0u64);
    let mut push = |msg: StreamMessage<i64>| {
        pushes += 1;
        if built.handle.push(msg).is_err() {
            failed_pushes += 1;
        }
    };
    let start = Instant::now();
    for (i, msg) in input.into_iter().enumerate() {
        let handed = Instant::now();
        lock(&probe).emit.hand_in(handed, marks[i]);
        tracer.scope("engine.pipeline.push", i as u32, || push(msg));
        if let Some(p) = setup.puncts[i] {
            tracer.scope("engine.pipeline.punctuate", i as u32, || {
                push(StreamMessage::Punctuation(p))
            });
        }
        reply_ms.push(handed.elapsed().as_secs_f64() * 1e3);
    }
    tracer.scope("engine.pipeline.complete", u32::MAX, || {
        push(StreamMessage::Completed)
    });
    let wall_s = start.elapsed().as_secs_f64();
    drop(built);
    Rep {
        wall_s,
        reply_ms,
        probe,
        registry,
        peak_state: meter.peak(),
        failed_pushes,
        pushes,
    }
}

fn set_up(ctx: &Ctx) -> Setup {
    let events = inputs::cloudlog(ctx.seed, ctx.sizes.engine);
    let latency = reorder_latency(&events);
    let batches = inputs::batches(&events, inputs::ENGINE_BATCH);
    let puncts = oracle::fixed_latency_schedule(&batches, latency);
    // The spilling variant's budget: a quarter of what the data buffers at
    // its fullest, counted in events rather than read off the sorter
    // (whose `state_bytes` steps with `Vec` capacity and would make the
    // budget, and with it the spill volume, jump between seeds).
    let held = oracle::buffered_high_water(&batches, &puncts);
    let setup = Setup {
        events: events.len(),
        batches,
        puncts,
        latency,
        budget: (held * std::mem::size_of::<Event<i64>>() / 4).max(1),
    };
    run_rep(&setup, FULL, None, &mut Tracer::new(false)); // warm-up
    setup
}

/// The digest a correct run's output folds to.
fn reference(setup: &Setup) -> (Fold, u64) {
    let admitted = oracle::admitted(&setup.batches, &setup.puncts);
    let mut fold = Fold::default();
    fold.events_i64(&oracle::windowed_sums(&admitted, inputs::WINDOW));
    (fold, admitted.len() as u64)
}

/// Checks one repetition against the reference; counts into `out`.
fn check(rep: &Rep, setup: &Setup, expected: &Fold, out: &mut Outcome) {
    out.attempted += rep.pushes + 1;
    out.failed += rep.failed_pushes;
    let probe = lock(&rep.probe);
    let issued = setup.puncts.iter().flatten().count() as u64;
    if !probe.errors.is_empty() {
        out.fail(format!("pipeline error: {}", probe.errors.join("; ")));
    } else if !probe.completed {
        out.fail("pipeline did not complete");
    } else if probe.fold.events != expected.events
        || probe.fold.hash != expected.hash
        || probe.puncts != issued
    {
        out.fail(format!(
            "output differs from the reference: {} events (hash {:016x}), {} punctuations; \
             expected {} events (hash {:016x}), {issued} punctuations",
            probe.fold.events, probe.fold.hash, probe.puncts, expected.events, expected.hash,
        ));
    }
}

fn spill_gauge(registry: &MetricsRegistry, name: &str) -> f64 {
    registry
        .gauge(&format!("{NAME}.00.sorter.spill.{name}"))
        .get() as f64
}

/// Runs the workload; `traced` selects the per-layer pass.
pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let (setup, setup_s) = timed_setups(|_| set_up(ctx), drop);
    let (expected, admitted) = reference(&setup);
    let mut out = Outcome::default();
    if traced {
        trace(ctx, &setup, &expected, admitted, &mut out);
        return out;
    }
    let segments = timed_section(ctx.seconds, |seg: &mut Segment, _| {
        let rep = run_rep(&setup, FULL, None, &mut Tracer::new(false));
        seg.events += setup.events as u64;
        seg.rep_eps.push(setup.events as f64 / rep.wall_s);
        seg.emit_ms.append(&mut lock(&rep.probe).emit.emit_ms);
        check(&rep, &setup, &expected, &mut out);
    });
    out.metrics = end_to_end_metrics(&setup_s, &segments);
    out
}

/// Untraced in-memory repetitions of one pipeline shape for about
/// `budget_s` (at least three): median wall seconds and the last one.
fn median_reps(setup: &Setup, shape: Shape, budget_s: f64) -> (f64, Rep) {
    let mut last = None;
    let wall_s = layers::median_sample(budget_s, || {
        let rep = run_rep(setup, shape, None, &mut Tracer::new(false));
        let wall_s = rep.wall_s;
        last = Some(rep);
        wall_s
    });
    (wall_s, last.expect("at least three repetitions ran"))
}

/// The per-layer pass.
fn trace(ctx: &Ctx, setup: &Setup, expected: &Fold, admitted: u64, out: &mut Outcome) {
    let n = setup.events as f64;
    let share = ctx.seconds * 0.1;

    let calib_a = layers::calibration_ns();
    let (e2e_s, plain) = median_reps(setup, FULL, 2.0 * share);
    check(&plain, setup, expected, out);
    let e2e_ns = e2e_s * 1e9 / n;

    // The same pass with a span around every call, counting allocations.
    let mut tracer = Tracer::new(true);
    alloc::set_counting(true);
    let traced_rep = run_rep(setup, FULL, None, &mut tracer);
    alloc::set_counting(false);
    check(&traced_rep, setup, expected, out);
    let rows = tracer.self_times();
    let row_ns = |row: &str| rows.get(row).map_or(0.0, |r| r.self_ns as f64 / n);
    let span_allocs: u64 = rows.values().map(|r| r.self_allocs).sum();
    dump_trace(ctx, "engine-inmem", &tracer, out);
    let calib_b = layers::calibration_ns();

    out.put("stack.e2e_ns_per_event", e2e_ns);
    out.put(
        "stack.trace_overhead_pct",
        100.0 * (traced_rep.wall_s - e2e_s) / e2e_s,
    );
    out.put(
        "engine.pipeline.push_ns_per_event",
        row_ns("engine.pipeline.push"),
    );
    out.put(
        "engine.pipeline.punctuate_ns_per_event",
        row_ns("engine.pipeline.punctuate") + row_ns("engine.pipeline.complete"),
    );
    out.put("engine.pipeline.alloc_per_event", span_allocs as f64 / n);
    {
        let probe = lock(&plain.probe);
        out.put(
            "engine.ops.out_batches_per_punctuation",
            probe.batches as f64 / probe.puncts.max(1) as f64,
        );
    }
    put_ungated_timings(
        out,
        &plain.reply_ms,
        &lock(&plain.probe).emit.emit_ms,
        // Enough passes for the 10 ms tick of `/proc/self/stat` to resolve.
        cpu_ns_per_event(setup.events, (1.0 / e2e_s).ceil() as usize, || {
            run_rep(setup, FULL, None, &mut Tracer::new(false));
        }),
    );
    out.put("stack.completeness_pct", 100.0 * admitted as f64 / n);
    out.put("stack.peak_state_bytes", plain.peak_state as f64);

    // Sorter alone (direct calls).
    let (drive, hit_pct) = layers::drive_impatience(&setup.batches, &setup.puncts, 5);
    out.put(
        "sort.impatience.push_ns_per_event.cloudlog",
        drive.push_ns_per_event,
    );
    out.put(
        "sort.impatience.punctuate_ns_per_event.cloudlog",
        drive.punctuate_ns_per_event,
    );
    out.put("sort.impatience.runs_hwm", drive.runs_hwm as f64);
    out.put("sort.impatience.speculative_hit_pct", hit_pct);
    out.put(
        "sort.impatience.clones_per_event",
        layers::impatience_clones_per_event(&setup.batches, setup.latency),
    );

    // The sorting operator without operators or shell, then the shell
    // (instrument + hardened) as the full pipeline with it minus without.
    let sort_only = Shape {
        ops: false,
        shell: false,
        ..FULL
    };
    let bare = Shape {
        shell: false,
        ..FULL
    };
    let (sort_s, _) = median_reps(setup, sort_only, share);
    let (bare_s, _) = median_reps(setup, bare, share);
    let sort_ns = sort_s * 1e9 / n;
    let shell_ns = (e2e_s - bare_s) * 1e9 / n;
    out.put("engine.pipeline.sort_only_ns_per_event", sort_ns);
    out.put("engine.pipeline.shell_ns_per_event", shell_ns);

    // Two shards: counts and a ratio only (two cores cannot show scaling,
    // and merge order makes the output unhashable here).
    let (s2, two) = median_reps(setup, Shape { shards: 2, ..FULL }, share);
    out.attempted += 1;
    if lock(&two.probe).fold.events != expected.events {
        out.fail("two-shard run emitted a different number of events");
    }
    out.put("engine.sharded.eps.s1", n / e2e_s);
    out.put("engine.sharded.eps.s2", n / s2);
    out.put("engine.sharded.s2_over_s1", e2e_s / s2);

    // The post-sort operators alone, on the sorter's own (sorted) output.
    let ops_ns = ops_on_sorted_ns(setup, share);
    out.put("engine.ops.window_sum_ns_per_event", ops_ns);
    let sum_ns = sort_ns + shell_ns + ops_ns;
    out.put("stack.sum_ns_per_event", sum_ns);
    out.put("stack.unattributed_pct", 100.0 * (e2e_ns - sum_ns) / e2e_ns);

    spill_rows(ctx, setup, expected, admitted, e2e_s, out);
    let calib_c = layers::calibration_ns();
    out.put(
        "stack.calibration_ns",
        stats::median(&[calib_a, calib_b, calib_c]),
    );
}

/// The spilling variant: one checked repetition of the full pipeline under
/// the budget (its own `spill.*` gauges give the exact counts), then the
/// external sorter alone with the budget enforced as the operator does.
fn spill_rows(
    ctx: &Ctx,
    setup: &Setup,
    expected: &Fold,
    admitted: u64,
    inmem_s: f64,
    out: &mut Outcome,
) {
    let n = setup.events as f64;
    let pipeline_dir = ctx.fresh_dir("engine-spill-pipeline");
    let rep = run_rep(setup, FULL, Some(&pipeline_dir), &mut Tracer::new(false));
    check(&rep, setup, expected, out);
    let gauge = |name: &str| spill_gauge(&rep.registry, name);
    let written = gauge("bytes_written");
    out.put("engine.spill.throughput_eps", n / rep.wall_s);
    out.put("engine.spill.slowdown", rep.wall_s / inmem_s);
    out.put("sort.external.runs_spilled", gauge("runs_spilled"));
    out.put("sort.external.bytes_written_per_event", written / n);
    out.put(
        "sort.external.bytes_read_per_event",
        gauge("bytes_read") / n,
    );
    out.put(
        "sort.external.write_amp",
        written / (n * std::mem::size_of::<Event<i64>>() as f64),
    );
    out.put("sort.external.fsyncs", gauge("fsyncs"));
    out.put("sort.external.merge_passes", gauge("merge_passes"));

    let sorter_dir = ctx.fresh_dir("engine-spill-sorter");
    out.attempted += 1;
    match layers::drive_external(&sorter_dir, &setup.batches, &setup.puncts, setup.budget) {
        Ok((drive, _)) if drive.emitted as u64 != admitted => out.fail(format!(
            "external sorter emitted {} of {admitted} admitted events",
            drive.emitted
        )),
        Ok((drive, _)) => out.put(
            "sort.external.ns_per_event",
            drive.push_ns_per_event + drive.punctuate_ns_per_event,
        ),
        Err(e) => out.fail(format!("external sorter drive: {e}")),
    }
    discard(&[pipeline_dir, sorter_dir]);
}

/// `[TumblingWindow, SumByKey]` fed the admitted events already sorted,
/// with the punctuations the sorter would forward: ns per *input* event.
fn ops_on_sorted_ns(setup: &Setup, budget_s: f64) -> f64 {
    let admitted = oracle::admitted(&setup.batches, &setup.puncts);
    let sorted = oracle::stable_sorted_scaled(&admitted, 1);
    // Cut the sorted stream where the sorter would: at each punctuation.
    let mut tape: Vec<StreamMessage<i64>> = Vec::new();
    let mut at = 0usize;
    for p in setup.puncts.iter().flatten() {
        let end = at + sorted[at..].partition_point(|e| e.sync_time <= *p);
        if end > at {
            tape.push(StreamMessage::batch(sorted[at..end].to_vec()));
        }
        tape.push(StreamMessage::Punctuation(*p));
        at = end;
    }
    if at < sorted.len() {
        tape.push(StreamMessage::batch(sorted[at..].to_vec()));
    }
    tape.push(StreamMessage::Completed);

    let secs = layers::median_sample(budget_s, || {
        let (handle, stream) = input_stream::<i64>();
        let (sink, probe) = ProbeSink::new(|p: &i64| *p as u64);
        stream
            .tumbling_window(inputs::WINDOW)
            .reduce_by_key(|acc, p| *acc = acc.wrapping_add(p))
            .subscribe_observer(Box::new(sink));
        let input = tape.clone(); // the caller's copy, outside the clock
        let t = Instant::now();
        for msg in input {
            handle.push(msg).expect("fresh input accepts the tape");
        }
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(lock(&probe).fold.hash);
        secs
    });
    secs * 1e9 / setup.events as f64
}
