//! Differential pin for the stage shell and the sort-as-needed planner:
//! what an instrumented + traced + hardened `PipelineSpec` pipeline emits,
//! records and counts, as digests.
//!
//! Pinned, over a seeded CloudLog run of `[FilterMin, TumblingWindow,
//! SumByKey]`:
//!
//! * the **output messages**, byte for byte. This digest was printed by
//!   this same test on the three-wrapper implementation (`MeteredObserver`
//!   / `SpanObserver` / `PanicGuard`) that `StageShell` replaced, and has
//!   not moved since — not when the planner started running the filter and
//!   the window below the sort either;
//! * the **span sequence** modulo timestamps: per lane, every span's
//!   label, kind, event count and watermark, in the sink's deterministic
//!   order under the logical clock (start and duration are dropped — they
//!   are clock readings, not structure; but a changed *number* of clock
//!   reads reorders spans and shows);
//! * the **metrics snapshot** JSON, minus the `busy_ns` counters (wall
//!   time, different on every run) and the sorter's `state_bytes` gauge,
//!   which is capacity-based and checked apart, to within 1 KiB.
//!
//! Spans, metrics and the state-bytes high water were re-pinned when the
//! planner arrived: stages 01 and 02 now see client batches (79) instead
//! of sorter output (69), stage 00 sees what the filter left and emits
//! whole windows (5 batches), so span order and the `batches_*`,
//! `events_in/out`, `watermark_lag` and sorter-gauge rows of stages 00–03
//! moved; every other row is the parent's. The sorter's high water *rose*
//! (639 304 B → 805 152 B): with 1000-tick windows against a reorder
//! latency of an eighth of the span it holds the open window too.
//!
//! To re-pin after an intended change, run with `SHELL_DIFF_PRINT=1` and
//! `--nocapture`.

use impatience_core::trace::{TraceClock, TraceConfig, TraceSink};
use impatience_core::{
    crc32c, Event, Json, MemoryMeter, MetricsRegistry, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::{OpSpec, Output, PipelineEnv, PipelineSpec, TraceCtx};
use impatience_workloads::{generate_cloudlog, CloudLogConfig};

const SEED: u64 = 0x5EED_2018;
const EVENTS: usize = 40_000;
const BATCH: usize = 512;

/// `size:crc32c` digests (see the module docs for where each comes from).
const PINNED_OUTPUT: &str = "2018:1be9f464";
const PINNED_SPANS: &str = "858:36e7e061";
const PINNED_METRICS: &str = "2370:dfcd3ad1";

fn digest(lines: usize, text: &str) -> String {
    format!("{lines}:{:08x}", crc32c(text.as_bytes()))
}

/// The seeded input, cut into client batches, with a punctuation trailing
/// the high watermark by a fixed reorder latency after each batch.
fn input() -> Vec<StreamMessage<i64>> {
    let ds = generate_cloudlog(&CloudLogConfig {
        seed: SEED,
        ..CloudLogConfig::sized(EVENTS)
    });
    let events: Vec<Event<i64>> = ds
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| Event::keyed(e.sync_time, e.key, i as i64))
        .collect();
    let span = events.iter().map(|e| e.sync_time.ticks()).max().unwrap();
    let latency = TickDuration::ticks((span / 8).max(1));
    let (mut high, mut watermark) = (Timestamp::MIN, Timestamp::MIN);
    let mut msgs = Vec::new();
    for chunk in events.chunks(BATCH) {
        for e in chunk {
            high = high.max(e.sync_time);
        }
        msgs.push(StreamMessage::batch(chunk.to_vec()));
        let p = high.saturating_sub(latency);
        if p > watermark {
            watermark = p;
            msgs.push(StreamMessage::Punctuation(p));
        }
    }
    msgs.push(StreamMessage::Completed);
    msgs
}

/// The sorter's state-bytes high water.
const PINNED_STATE_BYTES_HWM: i64 = 805_152;
const STATE_BYTES: &str = "diff.00.sorter.state_bytes";

/// Drops every `*.busy_ns` counter and the `state_bytes` gauge from a
/// snapshot's JSON.
fn without_unpinned(snapshot: Json) -> Json {
    let Json::Object(sections) = snapshot else {
        panic!("snapshot is an object");
    };
    let pinned = |k: &str| !k.ends_with(".busy_ns") && k != STATE_BYTES;
    Json::Object(
        sections
            .into_iter()
            .map(|(name, section)| match section {
                Json::Object(entries) => (
                    name,
                    Json::Object(entries.into_iter().filter(|(k, _)| pinned(k)).collect()),
                ),
                other => (name, other),
            })
            .collect(),
    )
}

#[test]
fn shell_matches_the_three_wrapper_implementation() {
    let registry = MetricsRegistry::new();
    let meter = MemoryMeter::new();
    let sink = TraceSink::with(TraceClock::logical(), TraceConfig::default());
    let env = PipelineEnv::new()
        .with_registry(&registry)
        .with_meter(&meter)
        .with_trace(TraceCtx::new(&sink));
    let spec = PipelineSpec::new("diff")
        .with_instrument(true)
        .with_traced(true)
        .with_hardened(true)
        .with_op(OpSpec::FilterMin { min: 7 })
        .with_op(OpSpec::TumblingWindow {
            size: TickDuration::ticks(1_000),
        })
        .with_op(OpSpec::SumByKey);
    let (out, collector) = Output::<i64>::new();
    let built = spec.build(&env, Box::new(collector)).expect("spec builds");
    for msg in input() {
        built.handle.push(msg).expect("live pipeline accepts input");
    }
    drop(built);
    assert!(out.is_completed() && out.error().is_none());

    let mut output = String::new();
    for m in out.messages() {
        match m {
            StreamMessage::Batch(b) => {
                for e in b.iter_visible() {
                    output += &format!(
                        "e {} {} {} {} {}\n",
                        e.sync_time.ticks(),
                        e.other_time.ticks(),
                        e.key,
                        e.hash,
                        e.payload
                    );
                }
                output += "b\n";
            }
            StreamMessage::Punctuation(t) => output += &format!("p {}\n", t.ticks()),
            StreamMessage::Completed => output += "c\n",
        }
    }
    let mut spans = String::new();
    for s in sink.spans() {
        spans += &format!(
            "{} {} {:?} {} {:?}\n",
            s.shard, s.op, s.kind, s.events, s.watermark
        );
    }
    assert_eq!(sink.dropped(), 0, "ring too small for the pin to be whole");
    let metrics = without_unpinned(registry.snapshot().to_json()).to_string();
    let state_hwm = registry.gauge(STATE_BYTES).high_water();

    let got = [
        digest(output.lines().count(), &output),
        digest(spans.lines().count(), &spans),
        digest(metrics.len(), &metrics),
    ];
    if std::env::var_os("SHELL_DIFF_PRINT").is_some() {
        println!("output  {}\nspans   {}\nmetrics {}", got[0], got[1], got[2]);
        println!("state_bytes high water {state_hwm}");
        println!("{metrics}");
    }
    assert!(
        (PINNED_STATE_BYTES_HWM - 1_024..=PINNED_STATE_BYTES_HWM).contains(&state_hwm),
        "sorter state accounting moved: {state_hwm} B vs the pinned {PINNED_STATE_BYTES_HWM} B"
    );
    assert_eq!(got[0], PINNED_OUTPUT, "output messages changed");
    assert_eq!(got[1], PINNED_SPANS, "span sequence changed");
    assert_eq!(got[2], PINNED_METRICS, "metrics snapshot changed");
}
