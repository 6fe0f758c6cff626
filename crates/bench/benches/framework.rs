//! Micro-benchmarks for the Impatience framework: basic vs advanced vs
//! single-latency plans (the Fig 10 comparison at small scale), on the
//! in-tree timer (`impatience_testkit::bench`).

use impatience_bench::{run_query, Method, Query};
use impatience_core::TickDuration;
use impatience_testkit::bench::Harness;
use impatience_workloads::{generate_cloudlog, CloudLogConfig, Dataset};

const N: usize = 100_000;

fn dataset() -> Dataset {
    generate_cloudlog(&CloudLogConfig::sized(N))
}

fn ladder() -> [TickDuration; 3] {
    [
        TickDuration::secs(1),
        TickDuration::minutes(1),
        TickDuration::hours(1),
    ]
}

fn bench_methods_q1(h: &Harness) {
    let ds = dataset();
    let mut g = h.group("framework_q1");
    g.throughput_elements(N as u64);
    for method in Method::all() {
        g.bench_function(method.name(), || {
            run_query(
                Query::Q1,
                method,
                &ds,
                &ladder(),
                TickDuration::secs(1),
                10_000,
                None,
            )
            .events
        });
    }
    g.finish();
}

fn bench_advanced_queries(h: &Harness) {
    let ds = dataset();
    let mut g = h.group("framework_advanced_queries");
    g.throughput_elements(N as u64);
    for query in Query::all() {
        g.bench_function(query.name(), || {
            run_query(
                query,
                Method::Advanced,
                &ds,
                &ladder(),
                TickDuration::secs(1),
                10_000,
                None,
            )
            .events
        });
    }
    g.finish();
}

fn main() {
    let h = Harness::new();
    bench_methods_q1(&h);
    bench_advanced_queries(&h);
}
