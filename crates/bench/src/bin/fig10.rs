//! Fig 10: throughput and memory usage of query execution with and
//! without the Impatience framework (§VI-D).
//!
//! Queries Q1–Q4 (windowed count; 100-group count; 1000-group count;
//! top-5 over 100 groups) under four methods: advanced framework, basic
//! framework, MinLatency, MaxLatency. Reorder latencies {1s, 1m, 1h} on
//! CloudLog and {10m, 1h, 1d} on AndroidLog; punctuation frequency 10,000.
//!
//! Paper shapes (CloudLog): advanced ≈ 2.3–2.8× basic throughput and
//! ≈ 29–31× less memory; advanced within 4–22% of MinLatency/MaxLatency
//! throughput while using ~27–29× less memory than MaxLatency.
//! (AndroidLog): advanced ≈ 1.9–2.2× basic, ~1.9× less memory.

use impatience_bench::{check_speedup, BenchArgs, Method, Query, Row, Table};
use impatience_core::{format_bytes, TickDuration};
use impatience_workloads::{
    generate_androidlog, generate_cloudlog, AndroidLogConfig, CloudLogConfig, Dataset,
};

struct Setup {
    ds: Dataset,
    latencies: Vec<TickDuration>,
    window: TickDuration,
}

fn setups(events: usize) -> Vec<Setup> {
    vec![
        Setup {
            ds: generate_cloudlog(&CloudLogConfig::sized(events)),
            latencies: vec![
                TickDuration::secs(1),
                TickDuration::minutes(1),
                TickDuration::hours(1),
            ],
            window: TickDuration::secs(1),
        },
        Setup {
            ds: generate_androidlog(&AndroidLogConfig::sized(events)),
            latencies: vec![
                TickDuration::minutes(10),
                TickDuration::hours(1),
                TickDuration::days(1),
            ],
            window: TickDuration::minutes(10),
        },
    ]
}

const PUNCT_FREQ: usize = 10_000;

fn main() {
    let args = BenchArgs::parse(500_000);

    for setup in setups(args.events) {
        let mut tp = Table::new(
            &format!(
                "Fig 10: throughput (million events/sec) — {} ({} events)",
                setup.ds.name,
                setup.ds.len()
            ),
            "method",
            Query::all().iter().map(|q| q.name().to_string()).collect(),
        );
        let mut mem = Table::new(
            &format!("Fig 10: peak buffered state — {}", setup.ds.name),
            "method",
            Query::all().iter().map(|q| q.name().to_string()).collect(),
        );
        // results[method][query] = (meps, peak_bytes)
        let mut results: Vec<Vec<(f64, usize)>> = Vec::new();
        for method in Method::all() {
            let mut tp_cells = Vec::new();
            let mut mem_cells = Vec::new();
            let mut per_q = Vec::new();
            for query in Query::all() {
                let o = impatience_bench::run_query(
                    query,
                    method,
                    &setup.ds,
                    &setup.latencies,
                    setup.window,
                    PUNCT_FREQ,
                );
                tp_cells.push(format!("{:.2}", o.meps()));
                mem_cells.push(format_bytes(o.peak_bytes));
                per_q.push((o.meps(), o.peak_bytes));
                args.emit_json(&impatience_core::json!({
                    "exhibit": "fig10",
                    "dataset": setup.ds.name.clone(),
                    "query": query.name(),
                    "method": method.name(),
                    "throughput_meps": o.meps(),
                    "peak_bytes": o.peak_bytes,
                    "completeness": o.completeness,
                }));
            }
            tp.push(Row {
                label: method.name().into(),
                cells: tp_cells,
            });
            mem.push(Row {
                label: method.name().into(),
                cells: mem_cells,
            });
            results.push(per_q);
        }
        tp.print();
        mem.print();

        // Method order: Advanced, MinLatency, MaxLatency, Basic.
        let (adv, maxl, basic) = (&results[0], &results[2], &results[3]);
        // Paper shapes: the big memory ratios (29–31×) live on CloudLog;
        // on AndroidLog "the reduction in memory usage is less ... because
        // a majority of events are significantly delayed" — the day-late
        // bulk must sit in *some* sorter under every plan, so we only
        // require direction there.
        let cloud = setup.ds.name.starts_with("Cloud");
        let (tp_factor, mem_basic_factor, mem_max_factor) = if cloud {
            (2.0, 4.0, 4.0)
        } else {
            (1.25, 1.0, 1.0)
        };
        println!("shape checks ({}):", setup.ds.name);
        for (qi, q) in Query::all().iter().enumerate() {
            check_speedup(
                &format!("{} advanced vs basic throughput", q.name()),
                adv[qi].0,
                basic[qi].0,
                tp_factor,
            );
            check_speedup(
                &format!("{} advanced memory saving vs basic", q.name()),
                basic[qi].1 as f64,
                adv[qi].1 as f64,
                mem_basic_factor,
            );
            check_speedup(
                &format!("{} advanced memory saving vs MaxLatency", q.name()),
                maxl[qi].1 as f64,
                adv[qi].1 as f64,
                mem_max_factor,
            );
        }
        println!();
    }
    args.finish();
}
