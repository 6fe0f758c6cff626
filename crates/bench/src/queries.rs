//! The §VI-D evaluation queries (Q1–Q4) under the four execution methods
//! of Fig 10 / Table II, shared by the `fig10` and `table2` binaries.

use impatience_core::{EvalPayload, MemoryMeter, TickDuration};
use impatience_engine::{
    punctuate_arrivals, BlackHoleSink, DisorderedStreamable, IngressPolicy, Streamable,
};
use impatience_workloads::Dataset;
use std::time::Instant;

/// The four §VI-D queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Q1: tumbling-window count.
    Q1,
    /// Q2: windowed count over 100 groups.
    Q2,
    /// Q3: windowed count over 1000 groups.
    Q3,
    /// Q4: top-5 of windowed counts over 100 groups.
    Q4,
}

impl Query {
    /// All four queries.
    pub fn all() -> [Query; 4] {
        [Query::Q1, Query::Q2, Query::Q3, Query::Q4]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Query::Q1 => "Q1",
            Query::Q2 => "Q2",
            Query::Q3 => "Q3",
            Query::Q4 => "Q4",
        }
    }

    fn groups(self) -> Option<u32> {
        match self {
            Query::Q1 => None,
            Query::Q2 | Query::Q4 => Some(100),
            Query::Q3 => Some(1_000),
        }
    }
}

/// The four execution methods compared in Fig 10 / Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Advanced Impatience framework over the full latency ladder.
    Advanced,
    /// Basic framework: raw events through sort/union, query per output.
    Basic,
    /// Single reorder latency — the smallest of the ladder: one sort at
    /// that latency followed by the whole query.
    MinLatency,
    /// Single reorder latency — the largest of the ladder: one sort at
    /// that latency followed by the whole query.
    MaxLatency,
}

impl Method {
    /// All four methods, figure order.
    pub fn all() -> [Method; 4] {
        [
            Method::Advanced,
            Method::MinLatency,
            Method::MaxLatency,
            Method::Basic,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Advanced => "Impatience(advanced)",
            Method::Basic => "Impatience(basic)",
            Method::MinLatency => "MinLatency",
            Method::MaxLatency => "MaxLatency",
        }
    }
}

/// Outcome of one (query, method, dataset) run.
#[derive(Debug, Clone)]
pub struct QueryRunOutcome {
    /// Wall-clock seconds pumping the whole dataset.
    pub secs: f64,
    /// Input events pumped.
    pub events: usize,
    /// Peak buffered state (sorters + unions), bytes.
    pub peak_bytes: usize,
    /// Fraction of input events represented in the most complete output.
    pub completeness: f64,
}

impl QueryRunOutcome {
    /// Throughput in million events/second.
    pub fn meps(&self) -> f64 {
        self.events as f64 / self.secs / 1e6
    }
}

/// Runs `query` under `method` on `ds`, with the given latency ladder,
/// window size, and punctuation frequency (the paper uses 10,000).
pub fn run_query(
    query: Query,
    method: Method,
    ds: &Dataset,
    latencies: &[TickDuration],
    window: TickDuration,
    punctuation_frequency: usize,
) -> QueryRunOutcome {
    let ladder: Vec<TickDuration> = match method {
        Method::Advanced | Method::Basic => latencies.to_vec(),
        Method::MinLatency => vec![latencies[0]],
        Method::MaxLatency => vec![*latencies.last().unwrap()],
    };

    let meter = MemoryMeter::new();
    let (handle, raw) = DisorderedStreamable::<EvalPayload>::live();

    // Sort-as-needed prefix shared by all methods: optional re-key for the
    // grouped queries, then the window below the framework.
    let prepped = match query.groups() {
        Some(g) => raw.re_key(move |e| e.payload[2] % g),
        None => raw,
    }
    .tumbling_window(window);

    let stats;
    match method {
        Method::Basic | Method::MinLatency | Method::MaxLatency => {
            // Raw events through the sort (and, for the basic framework,
            // the unions), the full query re-run per output stream. The
            // single-latency baselines are its one-rung spelling, so they
            // measure sort-then-query: a one-rung *advanced* ladder would
            // fuse the grouped queries' aggregate into the rung's sort.
            let mut ss = prepped
                .to_streamables(&ladder, |s| s, |s| s, &meter, Default::default())
                .expect("ladder");
            stats = ss.stats();
            for i in 0..ladder.len() {
                apply_query_and_sink(query, ss.take_stream(i).expect("take output stream"));
            }
        }
        Method::Advanced => {
            let mut ss = match query {
                Query::Q1 => prepped.to_streamables(
                    &ladder,
                    |s: Streamable<EvalPayload>| s.count(),
                    |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
                    &meter,
                    Default::default(),
                ),
                _ => prepped.to_streamables(
                    &ladder,
                    |s: Streamable<EvalPayload>| {
                        s.group_aggregate(impatience_engine::ops::CountAgg)
                    },
                    |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
                    &meter,
                    Default::default(),
                ),
            }
            .expect("ladder");
            stats = ss.stats();
            for i in 0..ladder.len() {
                let s = ss.take_stream(i).expect("take output stream");
                // Q4's top-k is not mergeable; it runs on each consumed
                // output stream.
                let s = if query == Query::Q4 {
                    s.top_k(5, |c| *c as i64)
                } else {
                    s
                };
                s.subscribe_observer(Box::new(BlackHoleSink::new()));
            }
        }
    }

    // Pump pre-punctuated arrivals and measure.
    let policy = IngressPolicy {
        punctuation_frequency,
        reorder_latency: TickDuration::ZERO,
        batch_size: 4_096,
    };
    let msgs = punctuate_arrivals(ds.events.clone(), &policy);
    let events = ds.len();
    let start = Instant::now();
    for m in msgs {
        handle.push(m).expect("push");
    }
    let secs = start.elapsed().as_secs_f64();

    let completeness = stats.completeness(ladder.len() - 1);
    QueryRunOutcome {
        secs,
        events,
        peak_bytes: meter.peak(),
        completeness,
    }
}

fn apply_query_and_sink(query: Query, s: Streamable<EvalPayload>) {
    match query {
        Query::Q1 => s.count().subscribe_observer(Box::new(BlackHoleSink::new())),
        Query::Q2 | Query::Q3 => s
            .group_aggregate(impatience_engine::ops::CountAgg)
            .subscribe_observer(Box::new(BlackHoleSink::new())),
        Query::Q4 => s
            .group_aggregate(impatience_engine::ops::CountAgg)
            .top_k(5, |c| *c as i64)
            .subscribe_observer(Box::new(BlackHoleSink::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_workloads::{generate_cloudlog, CloudLogConfig};

    #[test]
    fn all_query_method_combinations_run() {
        let ds = generate_cloudlog(&CloudLogConfig::sized(5_000));
        let ladder = [
            TickDuration::secs(1),
            TickDuration::minutes(1),
            TickDuration::hours(1),
        ];
        for q in Query::all() {
            for m in Method::all() {
                let o = run_query(q, m, &ds, &ladder, TickDuration::secs(1), 500);
                assert_eq!(o.events, 5_000, "{} {}", q.name(), m.name());
                assert!(o.secs > 0.0);
                assert!(o.completeness > 0.5, "{} {}", q.name(), m.name());
                assert!(o.meps() > 0.0);
            }
        }
    }

    #[test]
    fn min_latency_less_complete_than_max() {
        let ds = generate_cloudlog(&CloudLogConfig::sized(20_000));
        let ladder = [TickDuration::millis(2), TickDuration::hours(1)];
        let lo = run_query(
            Query::Q1,
            Method::MinLatency,
            &ds,
            &ladder,
            TickDuration::millis(1),
            500,
        );
        let hi = run_query(
            Query::Q1,
            Method::MaxLatency,
            &ds,
            &ladder,
            TickDuration::millis(1),
            500,
        );
        assert!(lo.completeness < hi.completeness);
        assert!(hi.completeness > 0.99);
    }
}
