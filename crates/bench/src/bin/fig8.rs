//! Fig 8: throughput comparison of **online** sorting algorithms vs
//! punctuation frequency (events between punctuations, 10 … 1M).
//!
//! (a) synthetic dataset (p = 30%, d = 64);
//! (b) CloudLog; (c) AndroidLog.
//!
//! Reorder latency is tuned per dataset so the sorter tolerates the vast
//! majority of late events (§VI-B2). Paper shapes: Impatience is
//! 1.3–2.1× the best competitor on synthetic data and 1.3–4.4× /
//! 1.3–7.9× on CloudLog / AndroidLog, where large buffered volumes make
//! the cut-buffer baselines rewrite all buffered data on every
//! punctuation; Impatience's throughput depends only on punctuation
//! frequency, not buffered volume.

use impatience_bench::{check_speedup, drive_online_sorter, BenchArgs, Row, Table};
use impatience_core::{EvalPayload, Event, TickDuration};
use impatience_sort::online_sorter_by_name;
use impatience_workloads::{
    generate_androidlog, generate_cloudlog, generate_synthetic, AndroidLogConfig, CloudLogConfig,
    Dataset, SyntheticConfig,
};

const SERIES: [&str; 5] = ["Impatience", "Patience", "Timsort", "Quicksort", "Heapsort"];

fn frequencies(events: usize) -> Vec<usize> {
    [10usize, 100, 1_000, 10_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&f| f <= events)
        .collect()
}

fn run_dataset(
    ds: &Dataset,
    latency: TickDuration,
    args: &BenchArgs,
    exhibit: &str,
) -> Vec<Vec<f64>> {
    let freqs = frequencies(ds.len());
    let mut table = Table::new(
        &format!(
            "{exhibit}: online sorting throughput (million events/sec) — {}",
            ds.name
        ),
        "algorithm",
        freqs.iter().map(|f| f.to_string()).collect(),
    );
    let mut all = Vec::new();
    for name in SERIES {
        let sorter =
            || online_sorter_by_name::<Event<EvalPayload>>(name).expect("a Fig 8 series name");
        let mut row = Vec::new();
        for &f in &freqs {
            // Best of two runs, unless the first already shows this cell
            // is painfully slow (the cut-buffer baselines at high
            // punctuation frequency) — one sample tells that story.
            let mut best = drive_online_sorter(sorter().as_mut(), &ds.events, f, latency);
            if best.secs < 3.0 {
                let second = drive_online_sorter(sorter().as_mut(), &ds.events, f, latency);
                if second.throughput() > best.throughput() {
                    best = second;
                }
            }
            let o = best;
            row.push(o.throughput());
            args.emit_json(&impatience_core::json!({
                "exhibit": exhibit, "dataset": ds.name.clone(), "algorithm": name,
                "punctuation_frequency": f,
                "throughput_meps": o.throughput() / 1e6,
                "dropped": o.dropped,
            }));
        }
        table.push(Row {
            label: name.into(),
            cells: row.iter().map(|&tp| format!("{:.2}", tp / 1e6)).collect(),
        });
        all.push(row);
    }
    table.print();
    all
}

fn check_impatience_wins(label: &str, tp: &[Vec<f64>], min_factor: f64) {
    // At every punctuation frequency where sorting is actually incremental,
    // Impatience ≥ min_factor × best competitor (paper: ≥1.3× across the
    // board). The last column at full dataset size is a single punctuation
    // — that is offline sorting, Fig 7's regime, and is excluded here.
    let cols = (tp[0].len() - 1).max(1);
    let mut worst_ratio = f64::INFINITY;
    for c in 0..cols {
        let best_other = tp[1..].iter().map(|r| r[c]).fold(f64::MIN, f64::max);
        worst_ratio = worst_ratio.min(tp[0][c] / best_other);
    }
    check_speedup(
        &format!("{label}: min Impatience/best-competitor ratio"),
        worst_ratio,
        1.0,
        min_factor,
    );
}

fn main() {
    let args = BenchArgs::parse(1_000_000);

    let synth = generate_synthetic(&SyntheticConfig {
        events: args.events,
        ..Default::default()
    });
    let tp = run_dataset(&synth, TickDuration::ticks(2_000), &args, "Fig 8(a)");
    // At the highest frequencies (one punctuation ≈ offline sorting) a
    // galloping cut-buffer Timsort reaches parity on this small-buffer
    // workload; everywhere buffering matters Impatience must win.
    check_impatience_wins("Fig 8(a) synthetic", &tp, 0.8);
    let best_other_mid = tp[1..].iter().map(|r| r[2]).fold(f64::MIN, f64::max);
    check_speedup(
        "Fig 8(a): Impatience vs best competitor @freq=1000",
        tp[0][2],
        best_other_mid,
        1.2,
    );
    drop(synth);

    // Latency covers even the failure bursts (~60k ticks + replay jitter),
    // so the sorter buffers a large volume — the regime where the paper
    // reports 1.3–4.4×.
    let cloud = generate_cloudlog(&CloudLogConfig::sized(args.events));
    // (capped at half the stream's timespan so small runs still flush)
    let span_ticks = (args.events / 8) as i64;
    let cloud_latency = TickDuration::ticks(80_000.min(span_ticks / 2).max(1));
    let tp = run_dataset(&cloud, cloud_latency, &args, "Fig 8(b)");
    check_impatience_wins("Fig 8(b) CloudLog", &tp, 1.0);
    // The flagship shape: with a large buffered volume (generous latency),
    // the gap at high punctuation frequency is large.
    let best_other_hi = tp[1..].iter().map(|r| r[1]).fold(f64::MIN, f64::max);
    check_speedup(
        "Fig 8(b): Impatience vs best competitor @freq=100",
        tp[0][1],
        best_other_hi,
        1.3,
    );
    drop(cloud);

    let android = generate_androidlog(&AndroidLogConfig::sized(args.events));
    let tp = run_dataset(&android, TickDuration::days(1), &args, "Fig 8(c)");
    check_impatience_wins("Fig 8(c) AndroidLog", &tp, 0.8);
    let best_other_hi = tp[1..].iter().map(|r| r[1]).fold(f64::MIN, f64::max);
    check_speedup(
        "Fig 8(c): Impatience vs best competitor @freq=100",
        tp[0][1],
        best_other_hi,
        1.3,
    );
    args.finish();
}
