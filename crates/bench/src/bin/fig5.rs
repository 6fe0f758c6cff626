//! Fig 5: the number of sorted runs in Patience vs Impatience sort while
//! sorting the CloudLog dataset.
//!
//! Impatience performs incremental sorting every 10,000 events; Patience
//! only partitions (it would sort at the end). The paper's shape:
//! Patience's run count grows monotonically and jumps at failure bursts,
//! never recovering; Impatience periodically cleans out burst-created runs
//! and returns to a low, steady level.

use impatience_bench::{check_shape, BenchArgs, Row, Table};
use impatience_core::{EventTimed, TickDuration, Timestamp};
use impatience_sort::{ImpatienceSorter, OnlineSorter, RunSet};
use impatience_workloads::{generate_cloudlog, CloudLogConfig};

const FLUSH_EVERY: usize = 10_000;

fn main() {
    let args = BenchArgs::parse(1_000_000);
    // Bursts must be *coverable* by the reorder latency for Impatience's
    // cleanup to show (the paper tunes the latency so the sorter tolerates
    // the vast majority of late events, §VI-B2): burst delay ≈ 1/8 of the
    // stream's timespan, latency ≈ 1/5.
    let span_ticks = (args.events / 8) as i64; // default density: 8 events/tick
    let mut cfg = CloudLogConfig::sized(args.events);
    cfg.burst_delay = (span_ticks / 8).max(500);
    let latency = TickDuration::ticks((span_ticks / 5).max(800));
    let ds = generate_cloudlog(&cfg);
    println!(
        "Fig 5: number of sorted runs while sorting {} ({} events, flush every {}, \
         reorder latency {latency})\n",
        ds.name,
        ds.len(),
        FLUSH_EVERY
    );

    // Patience: partition only, never cleaned.
    let mut patience: RunSet<Timestamp> = RunSet::new(false);
    // Impatience: punctuate every FLUSH_EVERY events at wm − latency.
    let mut impatience: ImpatienceSorter<Timestamp> = ImpatienceSorter::new();

    let mut wm = Timestamp::MIN;
    let mut out = Vec::new();
    let samples = 20usize.min(ds.len() / FLUSH_EVERY).max(1);
    let sample_every = (ds.len() / FLUSH_EVERY / samples).max(1);
    let mut series: Vec<(usize, usize, usize)> = Vec::new(); // (events, patience, impatience)

    let mut flushes = 0usize;
    for (i, e) in ds.events.iter().enumerate() {
        let t = e.event_time();
        wm = wm.max(t);
        patience.insert(t);
        if t > impatience.watermark() {
            impatience.push(t);
        }
        if (i + 1) % FLUSH_EVERY == 0 {
            let p = wm.saturating_sub(latency);
            if p > impatience.watermark() {
                impatience.punctuate(p, &mut out);
                out.clear();
            }
            flushes += 1;
            if flushes.is_multiple_of(sample_every) {
                series.push((i + 1, patience.run_count(), impatience.run_count()));
            }
        }
    }

    let mut table = Table::new(
        "Fig 5: number of sorted runs (CloudLog)",
        "events",
        vec!["Patience".into(), "Impatience".into()],
    );
    for &(n, p, i) in &series {
        table.push(Row {
            label: format!("{n}"),
            cells: vec![p.to_string(), i.to_string()],
        });
        args.emit_json(&impatience_core::json!({
            "exhibit": "fig5", "events": n, "patience_runs": p, "impatience_runs": i,
        }));
    }
    table.print();

    // Shape checks: Patience monotone nondecreasing; Impatience repeatedly
    // *recovers* after bursts (its run count dips back down) while
    // Patience never does.
    let monotone = series.windows(2).all(|w| w[0].1 <= w[1].1);
    let (_, p_final, _) = *series.last().expect("series nonempty");
    let second_half = &series[series.len() / 2..];
    let imp_recovered = second_half.iter().map(|&(_, _, i)| i).min().unwrap();
    let imp_peak = series.iter().map(|&(_, _, i)| i).max().unwrap();
    println!("shape checks:");
    check_shape("Patience run count monotone nondecreasing", monotone);
    let recovers = imp_recovered * 3 <= p_final.max(1) || imp_recovered * 2 <= imp_peak;
    check_shape(
        &format!(
            "Impatience recovers after bursts (dips to {imp_recovered}, peak {imp_peak}, \
             Patience ends at {p_final})"
        ),
        recovers,
    );
    args.finish();
}
