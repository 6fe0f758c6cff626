//! Table I: statistics on disorder in the datasets.
//!
//! Paper values (20M events): CloudLog — 5.35e10 inversions, distance
//! 13.6M, 7.38M runs, 387 interleaved; AndroidLog — 7.30e13 inversions,
//! distance ~20M, 5,560 runs, 227 interleaved. At smaller `--events` the
//! absolute numbers scale down but the *contrast* must hold: AndroidLog
//! has far more inversions and far fewer (longer) runs than CloudLog.

use impatience_bench::{check_shape, BenchArgs, Row, Table};
use impatience_disorder::DisorderReport;
use impatience_workloads::{
    generate_androidlog, generate_cloudlog, generate_synthetic, AndroidLogConfig, CloudLogConfig,
    SyntheticConfig,
};

fn main() {
    let args = BenchArgs::parse(1_000_000);
    println!("Table I: measures of disorder ({} events)\n", args.events);

    let datasets = [
        generate_cloudlog(&CloudLogConfig::sized(args.events)),
        generate_androidlog(&AndroidLogConfig::sized(args.events)),
        generate_synthetic(&SyntheticConfig::paper_default(args.events)),
    ];

    let mut table = Table::new(
        "Table I: statistics on disorder",
        "measure",
        datasets.iter().map(|d| d.name.clone()).collect(),
    );
    let reports: Vec<DisorderReport> = datasets
        .iter()
        .map(|d| DisorderReport::of_events(&d.events))
        .collect();

    table.push(Row {
        label: "Inversions".into(),
        cells: reports.iter().map(|r| r.inversions.to_string()).collect(),
    });
    table.push(Row {
        label: "Distance".into(),
        cells: reports.iter().map(|r| r.distance.to_string()).collect(),
    });
    table.push(Row {
        label: "Runs".into(),
        cells: reports.iter().map(|r| r.runs.to_string()).collect(),
    });
    table.push(Row {
        label: "Interleaved".into(),
        cells: reports.iter().map(|r| r.interleaved.to_string()).collect(),
    });
    table.push(Row {
        label: "Mean run length".into(),
        cells: reports
            .iter()
            .map(|r| format!("{:.1}", r.mean_run_length()))
            .collect(),
    });
    table.print();

    for (d, r) in datasets.iter().zip(&reports) {
        args.emit_json(&impatience_core::json!({
            "exhibit": "table1",
            "dataset": d.name.clone(),
            "events": r.events,
            "inversions": r.inversions.to_string(),
            "distance": r.distance,
            "runs": r.runs,
            "interleaved": r.interleaved,
        }));
    }

    let (cloud, android) = (&reports[0], &reports[1]);
    println!("shape checks (Table I contrasts):");
    let checks = [
        (
            "AndroidLog inversions >> CloudLog inversions",
            android.inversions > 10 * cloud.inversions,
        ),
        (
            "CloudLog runs >> AndroidLog runs",
            cloud.runs > 10 * android.runs,
        ),
        (
            "CloudLog mean run length is tiny (fine-grained chaos)",
            cloud.mean_run_length() < 8.0,
        ),
        (
            "AndroidLog runs are long (fine-grained order)",
            android.mean_run_length() > 50.0,
        ),
        (
            "both interleave into bounded sorted sources",
            cloud.interleaved < 1_000 && android.interleaved < 1_000,
        ),
    ];
    for (label, ok) in checks {
        check_shape(label, ok);
    }
    args.finish();
}
