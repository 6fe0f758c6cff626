//! Cross-crate integration: every online sorter, plugged into the real
//! ingress pipeline, must produce identical ordered output on every
//! generated dataset — and the Impatience-specific ablation configs must
//! not change results, only speed.

use impatience::prelude::*;
use impatience_core::Event;
use impatience_engine::{input_stream, punctuate_arrivals, IngressPolicy};
use impatience_sort::{online_sorter_by_name, ONLINE_SORTER_NAMES};

/// Arrivals → punctuated per `policy` → ordered through `sorter`: the
/// ingress pipeline every sorter is plugged into.
fn ingress_sorted(
    arrivals: &[Event<EvalPayload>],
    policy: &IngressPolicy,
    sorter: Box<dyn OnlineSorter<Event<EvalPayload>>>,
) -> Output<EvalPayload> {
    let (handle, stream) = input_stream();
    let out = stream
        .sorted(sorter, &MemoryMeter::new(), Default::default())
        .expect("default sort policy")
        .collect_output();
    for m in punctuate_arrivals(arrivals.to_vec(), policy) {
        handle.push(m).expect("well-formed arrivals");
    }
    out
}

fn datasets() -> Vec<Dataset> {
    let n = 20_000;
    vec![
        generate_cloudlog(&CloudLogConfig {
            events: n,
            servers: 60,
            burst_len: 500,
            burst_delay: 50_000,
            failure_bursts: 2,
            ..Default::default()
        }),
        generate_androidlog(&AndroidLogConfig {
            events: n,
            devices: 30,
            ..Default::default()
        }),
        generate_synthetic(&SyntheticConfig {
            events: n,
            ..Default::default()
        }),
    ]
}

fn policy_for(ds: &Dataset) -> IngressPolicy {
    // Tolerate the vast majority of late events (the paper tunes reorder
    // latency per dataset, §VI-B2).
    let lat = if ds.name.starts_with("Android") {
        TickDuration::days(14)
    } else {
        TickDuration::minutes(30)
    };
    IngressPolicy {
        punctuation_frequency: 1_000,
        reorder_latency: lat,
        batch_size: 1_024,
    }
}

#[test]
fn all_sorters_produce_identical_ordered_output() {
    for ds in datasets() {
        let policy = policy_for(&ds);
        let mut reference: Option<Vec<Event<EvalPayload>>> = None;
        for name in ONLINE_SORTER_NAMES {
            let sorter = online_sorter_by_name::<Event<EvalPayload>>(name).unwrap();
            let out = ingress_sorted(&ds.events, &policy, sorter);
            assert!(
                impatience_core::validate_ordered_stream(&out.messages()).is_ok(),
                "{name} on {} violates order",
                ds.name
            );
            let events = out.events();
            match &reference {
                None => reference = Some(events),
                Some(r) => {
                    // Sorters differ in tie order among equal timestamps;
                    // compare the timestamp sequences and multisets.
                    let ts: Vec<i64> = events.iter().map(|e| e.sync_time.ticks()).collect();
                    let rts: Vec<i64> = r.iter().map(|e| e.sync_time.ticks()).collect();
                    assert_eq!(ts, rts, "{name} on {}", ds.name);
                    let mut p1: Vec<u32> = events.iter().map(|e| e.key).collect();
                    let mut p2: Vec<u32> = r.iter().map(|e| e.key).collect();
                    p1.sort_unstable();
                    p2.sort_unstable();
                    assert_eq!(p1, p2, "{name} on {} lost/duplicated events", ds.name);
                }
            }
        }
        // With generous latencies nearly everything must survive.
        let kept = reference.unwrap().len();
        assert!(
            kept as f64 >= 0.99 * ds.len() as f64,
            "{}: only {kept}/{} survived",
            ds.name,
            ds.len()
        );
    }
}

#[test]
fn ablation_configs_do_not_change_results() {
    let ds = &datasets()[0];
    let policy = policy_for(ds);
    let configs = [
        ImpatienceConfig::default(),
        ImpatienceConfig::without_huffman(),
        ImpatienceConfig::baseline(),
    ];
    let mut reference: Option<Vec<i64>> = None;
    for cfg in configs {
        let out = ingress_sorted(
            &ds.events,
            &policy,
            Box::new(ImpatienceSorter::with_config(cfg)),
        );
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        match &reference {
            None => reference = Some(ts),
            Some(r) => assert_eq!(r, &ts),
        }
    }
}

#[test]
fn punctuation_frequency_does_not_change_content() {
    // Fig 8 varies punctuation frequency: throughput changes, results
    // must not (given the same reorder latency).
    let ds = generate_synthetic(&SyntheticConfig {
        events: 20_000,
        ..Default::default()
    });
    let mut reference: Option<Vec<i64>> = None;
    for freq in [10usize, 100, 1_000, 10_000, 100_000] {
        let policy = IngressPolicy {
            punctuation_frequency: freq,
            reorder_latency: TickDuration::ticks(2_000),
            batch_size: 1_024,
        };
        let out = ingress_sorted(&ds.events, &policy, Box::new(ImpatienceSorter::new()));
        let ts: Vec<i64> = out.events().iter().map(|e| e.sync_time.ticks()).collect();
        match &reference {
            None => reference = Some(ts),
            Some(r) => assert_eq!(r, &ts, "freq={freq} changed results"),
        }
    }
}
