//! `framework-ladder`: AndroidLog through the advanced Impatience
//! framework (§V) with a three-rung latency ladder and the Q2 grouped
//! windowed count.
//!
//! AndroidLog is the opposite disorder shape to CloudLog — long ordered
//! runs that arrive hours late — so it feeds the sorter speculation-
//! friendly input and makes the partition/union machinery hold real
//! state. Latency and completeness are both read on the most complete
//! output stream.

use crate::harness::{dump_trace, lock, timed_section, timed_setups, Ctx, Probe, ProbeSink};
use crate::measure::{cpu_ns_per_event, end_to_end_metrics, put_ungated_timings, Outcome};
use crate::oracle::{self, Fold, LadderReference};
use crate::span::Tracer;
use crate::{alloc, inputs, layers, stats};
use impatience_core::{
    EvalPayload, Event, MemoryMeter, MetricsRegistry, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::ops::CountAgg;
use impatience_engine::{InputHandle, Streamable};
use impatience_framework::{
    to_streamables_advanced_metered, to_streamables_basic, DisorderedStreamable, FrameworkStats,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Q2: windowed count over this many groups.
const GROUPS: u32 = 100;
/// Tumbling window of the query, applied below the framework.
const WINDOW: TickDuration = TickDuration::minutes(10);
/// The most complete output stream (the top rung). Emit latency is read
/// here, as on every other workload's single output: a batch is final
/// when the *complete* answer holds it. The faster streams' latency is a
/// property of where the upload gaps fall in one particular dataset and
/// scatters by ~18% between seeds; this one scatters like throughput.
const COMPLETE: usize = 2;

fn group_of(e: &Event<EvalPayload>) -> u32 {
    e.payload[2] % GROUPS
}

struct Setup {
    batches: Vec<Vec<Event<EvalPayload>>>,
    /// High watermark after each batch: the cadence punctuation.
    puncts: Vec<Timestamp>,
    events: usize,
}

/// A built framework instance with a probe on every output stream.
struct Built {
    handle: InputHandle<EvalPayload>,
    probes: Vec<Arc<Mutex<Probe>>>,
    stats: FrameworkStats,
    meter: MemoryMeter,
    registry: MetricsRegistry,
}

fn prepped() -> (InputHandle<EvalPayload>, DisorderedStreamable<EvalPayload>) {
    let (handle, raw) = DisorderedStreamable::<EvalPayload>::live();
    (handle, raw.re_key(group_of).tumbling_window(WINDOW))
}

fn build_advanced() -> Built {
    let meter = MemoryMeter::new();
    let registry = MetricsRegistry::new();
    let (handle, ds) = prepped();
    let mut streams = to_streamables_advanced_metered(
        ds,
        &inputs::framework_ladder(),
        |s: Streamable<EvalPayload>| s.group_aggregate(CountAgg),
        |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
        &meter,
        Some(&registry),
    )
    .expect("the benchmark's own ladder is valid");
    let stats = streams.stats();
    let probes = (0..streams.len())
        .map(|i| {
            let (sink, probe) = ProbeSink::new(|n: &u64| *n);
            streams
                .take_stream(i)
                .expect("each output stream is taken once")
                .subscribe_observer(Box::new(sink));
            probe
        })
        .collect();
    Built {
        handle,
        probes,
        stats,
        meter,
        registry,
    }
}

/// The basic framework (raw events through sort/union, the query re-run
/// on every output): Fig 10's comparison point.
fn build_basic() -> Built {
    let meter = MemoryMeter::new();
    let (handle, ds) = prepped();
    let mut streams = to_streamables_basic(ds, &inputs::framework_ladder(), &meter)
        .expect("the benchmark's own ladder is valid");
    let stats = streams.stats();
    let probes = (0..streams.len())
        .map(|i| {
            let (sink, probe) = ProbeSink::new(|n: &u64| *n);
            streams
                .take_stream(i)
                .expect("each output stream is taken once")
                .group_aggregate(CountAgg)
                .subscribe_observer(Box::new(sink));
            probe
        })
        .collect();
    Built {
        handle,
        probes,
        stats,
        meter,
        registry: MetricsRegistry::new(),
    }
}

struct Rep {
    wall_s: f64,
    reply_ms: Vec<f64>,
    built: Built,
    pushes: u64,
    failed_pushes: u64,
    /// Highest union (non-sorter) state seen right after a punctuation.
    union_hwm: usize,
}

fn run_rep(setup: &Setup, built: Built, tracer: &mut Tracer, sample_union: bool) -> Rep {
    let input: Vec<StreamMessage<EvalPayload>> = setup
        .batches
        .iter()
        .map(|b| StreamMessage::batch(b.clone()))
        .collect();
    let marks: Vec<Timestamp> = setup
        .batches
        .iter()
        .map(|b| inputs::max_sync(b).align_down(WINDOW))
        .collect();
    let sorter_gauges: Vec<_> = (0..built.probes.len())
        .map(|i| {
            built
                .registry
                .gauge(&format!("partition{i:02}.00.sorter.state_bytes"))
        })
        .collect();
    let mut reply_ms = Vec::with_capacity(input.len());
    let (mut pushes, mut failed_pushes, mut union_hwm) = (0u64, 0u64, 0usize);
    let mut push = |msg: StreamMessage<EvalPayload>| {
        pushes += 1;
        if built.handle.push(msg).is_err() {
            failed_pushes += 1;
        }
    };
    let start = Instant::now();
    for (i, msg) in input.into_iter().enumerate() {
        let handed = Instant::now();
        lock(&built.probes[COMPLETE]).emit.hand_in(handed, marks[i]);
        tracer.scope("framework.push", i as u32, || push(msg));
        tracer.scope("framework.punctuate", i as u32, || {
            push(StreamMessage::Punctuation(setup.puncts[i]))
        });
        reply_ms.push(handed.elapsed().as_secs_f64() * 1e3);
        if sample_union {
            // Sorter gauges and the shared meter agree right after a
            // punctuation; what the sorters do not hold, the unions do.
            let sorters: i64 = sorter_gauges.iter().map(|g| g.get()).sum();
            union_hwm = union_hwm.max(built.meter.current().saturating_sub(sorters as usize));
        }
    }
    tracer.scope("framework.complete", u32::MAX, || {
        push(StreamMessage::Completed)
    });
    let wall_s = start.elapsed().as_secs_f64();
    Rep {
        wall_s,
        reply_ms,
        built,
        pushes,
        failed_pushes,
        union_hwm,
    }
}

fn set_up(ctx: &Ctx) -> Setup {
    let events = inputs::androidlog(ctx.seed, ctx.sizes.framework);
    let batches = inputs::batches(&events, inputs::ENGINE_BATCH);
    let mut high = Timestamp::MIN;
    let puncts = batches
        .iter()
        .map(|b| {
            high = high.max(inputs::max_sync(b));
            high
        })
        .collect();
    let setup = Setup {
        events: events.len(),
        batches,
        puncts,
    };
    run_rep(&setup, build_advanced(), &mut Tracer::new(false), false); // warm-up
    setup
}

fn expected_folds(reference: &LadderReference) -> Vec<Fold> {
    reference
        .streams
        .iter()
        .map(|events| {
            let mut fold = Fold::default();
            for e in events {
                fold.event(e.sync_time, e.other_time, e.key, e.payload);
            }
            fold
        })
        .collect()
}

fn check(rep: &Rep, reference: &LadderReference, expected: &[Fold], out: &mut Outcome) {
    out.attempted += rep.pushes + 1;
    out.failed += rep.failed_pushes;
    for (i, probe) in rep.built.probes.iter().enumerate() {
        let probe = lock(probe);
        if !probe.errors.is_empty() {
            out.fail(format!("stream {i} error: {}", probe.errors.join("; ")));
        } else if !probe.completed {
            out.fail(format!("stream {i} did not complete"));
        } else if probe.fold.events != expected[i].events || probe.fold.hash != expected[i].hash {
            out.fail(format!(
                "stream {i} differs from the reference: {} results (hash {:016x}), expected {} \
                 (hash {:016x})",
                probe.fold.events, probe.fold.hash, expected[i].events, expected[i].hash
            ));
            return;
        }
    }
    let routed: Vec<u64> = (0..reference.routed.len())
        .map(|i| rep.built.stats.routed(i))
        .collect();
    if routed != reference.routed || rep.built.stats.dropped() != reference.dropped {
        out.fail(format!(
            "routing differs from the reference: {routed:?} + {} dropped, expected {:?} + {}",
            rep.built.stats.dropped(),
            reference.routed,
            reference.dropped
        ));
    }
}

/// Runs the workload; `traced` selects the per-layer pass.
pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let (setup, setup_s) = timed_setups(|_| set_up(ctx), drop);
    let flat: Vec<Event<EvalPayload>> = setup.batches.concat();
    let reference = oracle::ladder_counts(&flat, &inputs::framework_ladder(), WINDOW, group_of);
    let expected = expected_folds(&reference);
    let mut out = Outcome::default();
    if traced {
        trace(ctx, &setup, &reference, &expected, &mut out);
        return out;
    }
    let segments = timed_section(ctx.seconds, |seg, _| {
        let rep = run_rep(&setup, build_advanced(), &mut Tracer::new(false), false);
        seg.events += setup.events as u64;
        seg.rep_eps.push(setup.events as f64 / rep.wall_s);
        seg.emit_ms
            .append(&mut lock(&rep.built.probes[COMPLETE]).emit.emit_ms);
        check(&rep, &reference, &expected, &mut out);
    });
    out.metrics = end_to_end_metrics(&setup_s, &segments);
    out
}

fn trace(
    ctx: &Ctx,
    setup: &Setup,
    reference: &LadderReference,
    expected: &[Fold],
    out: &mut Outcome,
) {
    let n = setup.events as f64;
    // Only the advanced framework's output is held against the reference;
    // the basic one is a throughput comparison point.
    let median_wall = |build: fn() -> Built, verify: bool, budget_s: f64, out: &mut Outcome| {
        layers::median_sample(budget_s, || {
            let rep = run_rep(setup, build(), &mut Tracer::new(false), false);
            if verify {
                check(&rep, reference, expected, out);
            }
            rep.wall_s
        })
    };
    let calib_a = layers::calibration_ns();
    let e2e_s = median_wall(build_advanced, true, ctx.seconds * 0.2, out);
    let basic_s = median_wall(build_basic, false, ctx.seconds * 0.2, out);
    let e2e_ns = e2e_s * 1e9 / n;

    let mut tracer = Tracer::new(true);
    alloc::set_counting(true);
    let traced = run_rep(setup, build_advanced(), &mut tracer, true);
    alloc::set_counting(false);
    check(&traced, reference, expected, out);
    let calib_b = layers::calibration_ns();
    dump_trace(ctx, "framework-ladder", &tracer, out);
    let rows = tracer.self_times();
    let ns = |row: &str| rows.get(row).map_or(0.0, |r| r.self_ns as f64 / n);
    let span_allocs: u64 = rows.values().map(|r| r.self_allocs).sum();
    out.put("framework.push_ns_per_event", ns("framework.push"));
    out.put(
        "framework.punctuate_ns_per_event",
        ns("framework.punctuate") + ns("framework.complete"),
    );
    out.put("framework.alloc_per_event", span_allocs as f64 / n);

    let stats_ = &traced.built.stats;
    let total = stats_.total().max(1) as f64;
    for (i, tier) in ["t0", "t1", "t2"].iter().enumerate() {
        out.put(
            &format!("framework.routed_pct.{tier}"),
            100.0 * stats_.routed(i) as f64 / total,
        );
        out.put(
            &format!("framework.completeness_pct.{tier}"),
            100.0 * stats_.completeness(i),
        );
    }
    let cpu = cpu_ns_per_event(setup.events, (1.0 / e2e_s).ceil() as usize, || {
        run_rep(setup, build_advanced(), &mut Tracer::new(false), false);
    });
    put_ungated_timings(
        out,
        &traced.reply_ms,
        &lock(&traced.built.probes[COMPLETE]).emit.emit_ms,
        cpu,
    );
    out.put("framework.union_state_bytes_hwm", traced.union_hwm as f64);
    out.put("framework.advanced_over_basic", basic_s / e2e_s);
    out.put(
        "stack.completeness_pct",
        100.0 * stats_.completeness(COMPLETE),
    );
    out.put("stack.peak_state_bytes", traced.built.meter.peak() as f64);

    // The sorter alone on this disorder shape: every event admitted at the
    // top rung's latency, pushed and cut on the workload's own cadence.
    let top = inputs::framework_ladder()[2];
    let schedule: Vec<Option<Timestamp>> = {
        let mut last = Timestamp::MIN;
        setup
            .puncts
            .iter()
            .map(|high| {
                let p = high.saturating_sub(top);
                (p > last).then(|| {
                    last = p;
                    p
                })
            })
            .collect()
    };
    let (drive, _) = layers::drive_impatience(&setup.batches, &schedule, 3);
    out.put(
        "sort.impatience.push_ns_per_event.androidlog",
        drive.push_ns_per_event,
    );
    out.put(
        "sort.impatience.punctuate_ns_per_event.androidlog",
        drive.punctuate_ns_per_event,
    );

    let sum_ns = traced.wall_s * 1e9 / n;
    out.put("stack.e2e_ns_per_event", e2e_ns);
    out.put("stack.sum_ns_per_event", sum_ns);
    out.put("stack.unattributed_pct", 100.0 * (e2e_ns - sum_ns) / e2e_ns);
    out.put(
        "stack.trace_overhead_pct",
        100.0 * (traced.wall_s - e2e_s) / e2e_s,
    );
    let calib_c = layers::calibration_ns();
    out.put(
        "stack.calibration_ns",
        stats::median(&[calib_a, calib_b, calib_c]),
    );
}
