//! Table II: latency and completeness of the four methods (§VI-D).
//!
//! Paper values: CloudLog — Impatience{1s,1m,1h} 100%, MinLatency{1s}
//! 98.1%, MaxLatency{1h} 100%; AndroidLog — Impatience{10m,1h,1d} 92.2%,
//! MinLatency{10m} 20.5%, MaxLatency{1d} 92.2%. The shapes to reproduce:
//! MinLatency trades a large completeness loss (dramatic on AndroidLog)
//! for its low latency; the Impatience framework reaches MaxLatency's
//! completeness while *also* serving the MinLatency tier.

use impatience_bench::{check_shape, BenchArgs, Method, Query, Row, Table};
use impatience_core::TickDuration;
use impatience_workloads::{
    generate_androidlog, generate_cloudlog, AndroidLogConfig, CloudLogConfig, Dataset,
};

fn main() {
    let args = BenchArgs::parse(500_000);

    let setups: Vec<(Dataset, Vec<TickDuration>, TickDuration)> = vec![
        (
            generate_cloudlog(&CloudLogConfig::sized(args.events)),
            vec![
                TickDuration::secs(1),
                TickDuration::minutes(1),
                TickDuration::hours(1),
            ],
            TickDuration::secs(1),
        ),
        (
            generate_androidlog(&AndroidLogConfig::sized(args.events)),
            vec![
                TickDuration::minutes(10),
                TickDuration::hours(1),
                TickDuration::days(1),
            ],
            TickDuration::minutes(10),
        ),
    ];

    let mut table = Table::new(
        "Table II: latency and completeness of various methods",
        "method",
        setups
            .iter()
            .flat_map(|(d, ..)| [format!("{} latency", d.name), format!("{} compl.", d.name)])
            .collect(),
    );

    let mut per_method: Vec<Vec<f64>> = Vec::new();
    for method in Method::all() {
        let mut cells = Vec::new();
        let mut compl_row = Vec::new();
        for (ds, ladder, window) in &setups {
            let o = impatience_bench::run_query(Query::Q1, method, ds, ladder, *window, 10_000);
            let latency_str = match method {
                Method::Advanced | Method::Basic => format!(
                    "{{{}}}",
                    ladder
                        .iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                Method::MinLatency => format!("{{{}}}", ladder[0]),
                Method::MaxLatency => format!("{{{}}}", ladder.last().unwrap()),
            };
            cells.push(latency_str);
            cells.push(format!("{:.1}%", o.completeness * 100.0));
            compl_row.push(o.completeness);
            args.emit_json(&impatience_core::json!({
                "exhibit": "table2",
                "dataset": ds.name.clone(),
                "method": method.name(),
                "completeness": o.completeness,
            }));
        }
        table.push(Row {
            label: method.name().into(),
            cells,
        });
        per_method.push(compl_row);
    }
    table.print();

    // Method order: Advanced, MinLatency, MaxLatency, Basic.
    let (adv, minl, maxl, basic) = (
        &per_method[0],
        &per_method[1],
        &per_method[2],
        &per_method[3],
    );
    println!("shape checks:");
    let checks = [
        (
            "CloudLog: MinLatency loses a little (paper: 98.1%)",
            minl[0] < adv[0] && minl[0] > 0.80,
        ),
        (
            "AndroidLog: MinLatency loses a lot (paper: 20.5%)",
            minl[1] < 0.6,
        ),
        (
            "framework completeness == MaxLatency completeness (both datasets)",
            (adv[0] - maxl[0]).abs() < 1e-9 && (adv[1] - maxl[1]).abs() < 1e-9,
        ),
        (
            "basic == advanced completeness (same partitions)",
            (basic[0] - adv[0]).abs() < 1e-9 && (basic[1] - adv[1]).abs() < 1e-9,
        ),
        (
            "CloudLog nearly complete at 1h (paper: 100%)",
            adv[0] > 0.98,
        ),
        (
            "AndroidLog loses its >1d tail (paper: 92.2%)",
            adv[1] > 0.7 && adv[1] <= 1.0,
        ),
    ];
    for (label, ok) in checks {
        check_shape(label, ok);
    }
    args.finish();
}
