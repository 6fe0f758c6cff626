//! # impatience-bench
//!
//! Harness regenerating every table and figure of the paper's evaluation
//! (§VI). Each `src/bin/*` binary reproduces one exhibit:
//!
//! | binary | exhibit | content |
//! |---|---|---|
//! | `table1` | Table I | disorder statistics of the datasets |
//! | `fig5` | Fig 5 | #sorted runs, Patience vs Impatience, CloudLog |
//! | `fig7` | Fig 7(a–c) | offline sorting throughput |
//! | `fig8` | Fig 8(a–c) | online sorting throughput vs punctuation frequency |
//! | `fig9` | Fig 9(a–c) | sort-as-needed speedups |
//! | `fig10` | Fig 10(a–d) | Impatience framework throughput & memory, Q1–Q4 |
//! | `table2` | Table II | latency & completeness of the four methods |
//! | `repro_all` | everything | one-shot run of all exhibits |
//! | `snapshot_check` | CI | validates a `--json` file's metrics snapshots |
//!
//! Every binary accepts `--events N` (dataset size; the paper uses 20M,
//! the default here is laptop-friendly) and `--check` (assert the
//! qualitative shapes the paper reports — who wins, roughly by how much).
//! Results are printed as aligned text tables and optionally appended as
//! JSON lines via `--json <path>`; each exhibit also appends one
//! `{"kind": "metrics", ...}` observability snapshot (see [`metrics`]).

#![warn(missing_docs)]

pub mod cli;
pub mod contract;
pub mod drive;
pub mod metrics;
pub mod queries;
pub mod report;

pub use cli::BenchArgs;
pub use contract::check_bench_file;
pub use drive::{drive_online_sorter, offline_sorter_names, run_offline_sorter, DriveOutcome};
pub use metrics::{emit_metrics_json, emit_pipeline_metrics, run_canonical, CanonicalRun};
pub use queries::{run_query, Method, Query, QueryRunOutcome};
pub use report::{fmt_throughput, Row, Table};

/// Shape-check helper: assert `a >= factor * b` with a readable message.
///
/// Used by the `--check` mode of the repro binaries to encode the paper's
/// qualitative claims ("Impatience beats the best competitor by ≥ X").
pub fn assert_speedup(label: &str, a: f64, b: f64, factor: f64, check: bool) {
    let ok = a >= factor * b;
    let verdict = if ok { "ok" } else { "FAILED" };
    println!("  [shape] {label}: {a:.2} vs {b:.2} (need {factor:.2}x) ... {verdict}");
    if check {
        assert!(
            ok,
            "shape check failed: {label}: {a:.2} < {factor:.2} x {b:.2}"
        );
    }
}
