//! Chaos suite: the failure model under seeded fault injection.
//!
//! Every property drives a full pipeline (chaos stage → Impatience sort
//! with a late/shed policy → filter → window → count) through hundreds of
//! seeded fault scenarios — duplicates, beyond-latency stragglers,
//! punctuation regressions, payload corruption, injected operator panics —
//! and asserts the failure-model contract:
//!
//! 1. the process NEVER aborts: every fault surfaces as dropped/dead-
//!    lettered events, a forced punctuation, or a typed [`StreamError`];
//! 2. a run that completes produces contract-valid ordered output;
//! 3. a run that fails delivers exactly one typed terminal error and no
//!    completion;
//! 4. with injection disabled the pipeline is byte-identical to one
//!    without the chaos stage.
//!
//! Together the properties run well over 1000 seeded pipelines. Replay a
//! failure with `IMPATIENCE_PROP_SEED=0x<seed> cargo test <name>`.

use impatience::prelude::*;
use impatience_core::{DeadLetterQueue, LatePolicy, ShedPolicy, StreamError};
use impatience_engine::ops::SortPolicy;
use impatience_engine::{punctuate_arrivals, Output, Streamable};
use impatience_sort::ImpatienceSorter;
use impatience_testkit::chaos::{ChaosConfig, ChaosObserver};
use impatience_testkit::prop::{vec as pvec, weighted_bool, Strategy};
use impatience_testkit::props;

fn window() -> TickDuration {
    TickDuration::ticks(32)
}

/// Mostly-advancing arrival sequences with occasional natural stragglers
/// (on top of which the chaos stage injects its own faults).
fn arrivals_strategy() -> impl Strategy<Value = Vec<Event<u32>>> {
    pvec((0i64..20, weighted_bool(0.1), 0u32..64), 30..250).prop_map(|steps| {
        let mut t = 1_000i64;
        let mut out = Vec::new();
        for (advance, late, payload) in steps {
            t += advance;
            let sync = if late { t - 200 } else { t };
            out.push(Event::point(Timestamp::new(sync), payload));
        }
        out
    })
}

fn ingress_policy(freq: usize) -> IngressPolicy {
    IngressPolicy {
        punctuation_frequency: freq.max(1),
        reorder_latency: TickDuration::ticks(64),
        batch_size: 16,
    }
}

struct ChaosRun {
    out: Output<u64>,
    dlq: DeadLetterQueue<u32>,
    meter: MemoryMeter,
    budget: Option<usize>,
}

/// Builds and drives the canonical chaos pipeline; panics inside operator
/// stages are converted (never aborts) because the chain is hardened.
fn run_chaos(
    arrivals: Vec<Event<u32>>,
    freq: usize,
    seed: u64,
    cfg: ChaosConfig,
    late: LatePolicy,
    shed: ShedPolicy,
    budget: Option<usize>,
) -> ChaosRun {
    let msgs = punctuate_arrivals(arrivals, &ingress_policy(freq));
    let meter = match budget {
        Some(b) => MemoryMeter::with_budget(b),
        None => MemoryMeter::new(),
    };
    let dlq = DeadLetterQueue::new();
    let policy = SortPolicy {
        late,
        shed,
        dead_letters: Some(dlq.clone()),
    };
    let (handle, stream) = impatience_engine::input_stream::<u32>();
    let out = stream
        .hardened()
        .apply(move |sink| {
            Box::new(
                ChaosObserver::new(seed, cfg, sink)
                    .with_corruptor(|p: &mut u32| *p = p.wrapping_mul(31) ^ 0xDEAD),
            )
        })
        .sorted(Box::new(ImpatienceSorter::new()), &meter, policy)
        .expect("Drop/DeadLetter policies are accepted")
        .where_(|e| e.payload % 3 != 1)
        .tumbling_window(window())
        .count()
        .collect_output();
    for m in msgs {
        handle.push(m).expect("push");
        if let Some(b) = budget {
            assert!(
                meter.current() <= b,
                "budget violated mid-stream: {} > {b}",
                meter.current()
            );
        }
    }
    ChaosRun {
        out,
        dlq,
        meter,
        budget,
    }
}

/// The contract every chaos run must satisfy: valid completion XOR one
/// typed error.
fn assert_contract(run: &ChaosRun) {
    match run.out.error() {
        None => {
            assert!(run.out.is_completed(), "no error yet never completed");
            assert!(
                impatience_core::validate_ordered_stream(&run.out.messages()).is_ok(),
                "completed run with contract-violating output"
            );
        }
        Some(err) => {
            assert!(!run.out.is_completed(), "error AND completion delivered");
            assert!(
                matches!(
                    err,
                    StreamError::OperatorPanicked { .. } | StreamError::PunctuationRegressed { .. }
                ),
                "unexpected terminal error under chaos: {err:?}"
            );
        }
    }
    if let Some(b) = run.budget {
        assert!(run.meter.current() <= b, "budget exceeded at rest");
    }
    assert_eq!(
        run.meter.over_releases(),
        0,
        "memory accounting went negative under chaos"
    );
}

props! {
    cases = 400;

    /// The flagship property: arbitrary fault mix, arbitrary policies —
    /// the pipeline never aborts and always honours the contract.
    fn chaos_pipeline_yields_valid_output_or_typed_error(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
        seed in 0u64..1_000_000,
        knobs in 0u32..32,
    ) {
        // One knob bit per policy/fault dimension (the tuple strategy
        // tops out at four slots, so the booleans ride in a bitmask).
        let (panicky, regressy, dead_letter, budgeted, shed_runs) = (
            knobs & 1 != 0,
            knobs & 2 != 0,
            knobs & 4 != 0,
            knobs & 8 != 0,
            knobs & 16 != 0,
        );
        let cfg = ChaosConfig {
            enabled: true,
            duplicate: 0.05,
            straggler: 0.05,
            straggler_delay: 5_000,
            regress_punctuation: if regressy { 0.02 } else { 0.0 },
            regress_by: 500,
            corrupt: 0.05,
            panic: if panicky { 0.002 } else { 0.0 },
        };
        let late = if dead_letter { LatePolicy::DeadLetter } else { LatePolicy::Drop };
        let shed = if shed_runs { ShedPolicy::ShedOldestRuns } else { ShedPolicy::ForcePunctuation };
        let budget = budgeted.then_some(4096);
        let run = run_chaos(arrivals, freq, seed, cfg, late, shed, budget);
        assert_contract(&run);
        if late == LatePolicy::Drop {
            // Under Drop, only shedding dead-letters; late events do not.
            let drained = run.dlq.drain();
            assert!(drained.iter().all(|l| matches!(
                l.reason,
                impatience_core::DeadLetterReason::Shed
            )));
        }
    }
}

props! {
    cases = 300;

    /// Heavy straggler pressure with a tight budget: graceful degradation,
    /// not unbounded growth — and the dead-letter accounting holds.
    fn budgeted_chaos_stays_bounded_and_accounts(
        arrivals in arrivals_strategy(),
        seed in 0u64..1_000_000,
        shed_runs in weighted_bool(0.5),
    ) {
        let cfg = ChaosConfig {
            enabled: true,
            duplicate: 0.1,
            straggler: 0.15,
            straggler_delay: 2_000,
            regress_punctuation: 0.0,
            regress_by: 0,
            corrupt: 0.0,
            panic: 0.0,
        };
        let shed = if shed_runs { ShedPolicy::ShedOldestRuns } else { ShedPolicy::ForcePunctuation };
        let run = run_chaos(arrivals, 8, seed, cfg, LatePolicy::DeadLetter, shed, Some(2048));
        assert_contract(&run);
        assert!(run.out.error().is_none(), "no panic/regression injected");
        assert!(run.out.is_completed());
    }
}

props! {
    cases = 350;

    /// Disabled chaos is a no-op: byte-identical messages to a pipeline
    /// without the chaos stage, zero dead letters, zero fault counters.
    fn disabled_chaos_is_byte_identical(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let msgs = punctuate_arrivals(arrivals, &ingress_policy(freq));
        let drive = |stream: Streamable<u32>, meter: &MemoryMeter| -> Output<u64> {
            stream
                .sorted(Box::new(ImpatienceSorter::new()), meter, Default::default()).expect("default sort policy")
                .where_(|e| e.payload % 3 != 1)
                .tumbling_window(window())
                .count()
                .collect_output()
        };
        let cfg = ChaosConfig { enabled: false, ..ChaosConfig::default() };
        let meter_a = MemoryMeter::new();
        let (ha, sa) = impatience_engine::input_stream::<u32>();
        let chaotic = sa
            .hardened()
            .apply(move |sink| Box::new(ChaosObserver::new(seed, cfg, sink)));
        let out_a = drive(chaotic, &meter_a);
        for m in msgs.clone() {
            ha.push(m).expect("push");
        }
        let meter_b = MemoryMeter::new();
        let (hb, sb) = impatience_engine::input_stream::<u32>();
        let out_b = drive(sb, &meter_b);
        for m in msgs {
            hb.push(m).expect("push");
        }
        // Read the collectors only after the sources have run dry: the
        // comparison is over the full delivered streams, not their (empty)
        // pre-subscription prefixes.
        let got_a = out_a.messages();
        let got_b = out_b.messages();
        assert!(!got_a.is_empty(), "pipeline delivered nothing");
        assert!(out_a.is_completed() && out_b.is_completed());
        assert_eq!(got_a, got_b);
    }
}

props! {
    cases = 120;

    /// Fault isolation under sharding: chaos (panics, regressions,
    /// corruption, stragglers) confined to ONE of four shards. The merged
    /// pipeline must honour the same contract — valid ordered output XOR
    /// exactly one typed error — with the healthy shards draining and the
    /// whole fleet joining (no deadlock, no abort).
    fn sharded_chaos_isolates_the_faulty_shard(
        arrivals in arrivals_strategy(),
        freq in 1usize..40,
        seed in 0u64..1_000_000,
        knobs in 0u32..8,
    ) {
        use impatience_engine::ops::SumAgg;

        let (panicky, regressy) = (knobs & 1 != 0, knobs & 2 != 0);
        // Spread the single-key arrival stream over the key space so every
        // shard sees traffic.
        let arrivals: Vec<Event<u32>> = arrivals
            .into_iter()
            .map(|e| Event::keyed(e.sync_time, e.payload % 8, e.payload))
            .collect();
        let msgs = punctuate_arrivals(arrivals, &ingress_policy(freq));
        let meter = MemoryMeter::new(); // one shared account for all shards
        let dlq = DeadLetterQueue::new();
        let bad = (seed % 4) as usize;
        let cfg = ChaosConfig {
            enabled: true,
            duplicate: 0.05,
            straggler: 0.05,
            straggler_delay: 5_000,
            regress_punctuation: if regressy { 0.02 } else { 0.0 },
            regress_by: 500,
            corrupt: 0.05,
            panic: if panicky { 0.01 } else { 0.0 },
        };
        let (handle, stream) = impatience_engine::input_stream::<u32>();
        let shard_meter = meter.clone();
        let out = stream
            .sharded(
                4,
                move |s, ctx| {
                    let meter = shard_meter.clone();
                    let policy = SortPolicy {
                        late: LatePolicy::Drop,
                        shed: ShedPolicy::ForcePunctuation,
                        dead_letters: Some(dlq.clone()),
                    };
                    let cfg = cfg.clone();
                    let s = s.hardened();
                    let s = if ctx.index == bad {
                        s.apply(move |sink| {
                            Box::new(
                                ChaosObserver::new(seed, cfg, sink)
                                    .with_corruptor(|p: &mut u32| *p = p.wrapping_mul(31) ^ 0xDEAD),
                            )
                        })
                    } else {
                        s
                    };
                    s.sorted(Box::new(ImpatienceSorter::new()), &meter, policy)
                        .expect("Drop policy is accepted")
                        .where_(|e| e.payload % 3 != 1)
                        .tumbling_window(window())
                        .group_aggregate(SumAgg::new(|p: &u32| *p as i64))
                },
            )
            .collect_output();
        for m in msgs {
            handle.push(m).expect("push");
        }
        match out.error() {
            None => {
                assert!(out.is_completed(), "no error yet never completed");
                assert!(
                    impatience_core::validate_ordered_stream(&out.messages()).is_ok(),
                    "completed sharded run with contract-violating output"
                );
            }
            Some(err) => {
                assert!(!out.is_completed(), "error AND completion delivered");
                assert!(
                    matches!(
                        err,
                        StreamError::OperatorPanicked { .. }
                            | StreamError::PunctuationRegressed { .. }
                    ),
                    "unexpected terminal error under sharded chaos: {err:?}"
                );
            }
        }
        assert_eq!(
            meter.over_releases(),
            0,
            "shared memory accounting went negative under sharded chaos"
        );
    }
}
