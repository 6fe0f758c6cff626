//! The paper's motivating scenario (§I): a real-time dashboard that shows
//! aggregate statistics **now**, then refines them as stragglers arrive.
//!
//! ```sh
//! cargo run --release --example dashboard
//! ```
//!
//! Subscribes to three output streams of the advanced Impatience framework
//! with reorder latencies {1 s, 1 min, 1 h}: the 1-second stream drives
//! the live view, the 1-minute and 1-hour streams patch windows whose
//! events were delayed — without ever recomputing from raw data, and while
//! buffering only per-window partial counts.

use impatience::prelude::*;
use impatience_engine::Streamable;
use std::collections::BTreeMap;

fn main() {
    // A CloudLog-style feed: most events milliseconds late, a failure
    // burst minutes late.
    let dataset = generate_cloudlog(&CloudLogConfig::sized(300_000));
    println!(
        "dataset: {} events, completeness within 1s = {:.1}%",
        dataset.len(),
        dataset.completeness_at(TickDuration::secs(1)) * 100.0
    );

    let meter = MemoryMeter::new();
    let latencies = [
        TickDuration::secs(1),
        TickDuration::minutes(1),
        TickDuration::hours(1),
    ];
    let policy = IngressPolicy::new(2_000, TickDuration::ZERO);

    // PIQ: per-partition windowed count. Merge: add partial counts.
    let ds = DisorderedStreamable::from_arrivals(dataset.events, &policy)
        .tumbling_window(TickDuration::secs(10));
    let mut ss = ds
        .to_streamables(
            &latencies,
            |s: Streamable<EvalPayload>| s.count(),
            |s: Streamable<u64>| s.reduce_by_key(|a, b| *a += b),
            &meter,
            Default::default(),
        )
        .expect("valid latency ladder");

    // The "dashboard": window start → (live, 1min-refined, 1h-refined).
    let outs: Vec<Output<u64>> = (0..3)
        .map(|i| {
            ss.take_stream(i)
                .expect("take output stream")
                .collect_output()
        })
        .collect();

    let mut board: BTreeMap<i64, [Option<u64>; 3]> = BTreeMap::new();
    for (tier, out) in outs.iter().enumerate() {
        for e in out.events() {
            board.entry(e.sync_time.ticks()).or_default()[tier] = Some(e.payload);
        }
    }

    println!("\nwindow        live@1s  refined@1m  final@1h");
    let mut patched = 0usize;
    for (w, tiers) in board.iter().take(12) {
        println!(
            "t={w:<10}  {:>7}  {:>10}  {:>9}",
            tiers[0].map_or("-".into(), |v| v.to_string()),
            tiers[1].map_or("-".into(), |v| v.to_string()),
            tiers[2].map_or("-".into(), |v| v.to_string()),
        );
    }
    for tiers in board.values() {
        if let (Some(a), Some(c)) = (tiers[0], tiers[2]) {
            if c > a {
                patched += 1;
            }
        }
    }

    let stats = ss.stats();
    println!(
        "\nwindows patched by late data : {patched} / {}",
        board.len()
    );
    println!(
        "completeness per tier        : {:.2}% / {:.2}% / {:.2}%",
        stats.completeness(0) * 100.0,
        stats.completeness(1) * 100.0,
        stats.completeness(2) * 100.0
    );
    println!("events beyond 1h (dropped)   : {}", stats.dropped());
    println!(
        "peak buffered state          : {}",
        impatience::core::format_bytes(meter.peak())
    );
}
