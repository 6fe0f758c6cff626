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
//!
//! Every binary accepts `--events N` (dataset size, at least 10 000; the
//! paper uses 20M, the default here is laptop-friendly) and `--check`
//! (assert the qualitative shapes the paper reports — who wins, roughly by
//! how much). Results are printed as aligned text tables and optionally
//! appended as JSON lines via `--json <path>`.

#![warn(missing_docs)]

pub mod cli;
pub mod drive;
pub mod queries;
pub mod report;

pub use cli::BenchArgs;
pub use drive::{drive_online_sorter, offline_sorter_names, run_offline_sorter, DriveOutcome};
pub use queries::{run_query, Method, Query, QueryRunOutcome};
pub use report::{Row, Table};

use std::sync::atomic::{AtomicUsize, Ordering};

/// Shape checks failed so far in this process.
static FAILED_SHAPES: AtomicUsize = AtomicUsize::new(0);

/// Prints one shape check's verdict and records a failure; under
/// `--check`, [`BenchArgs::finish`] turns any failure into exit status 1
/// once every table has printed.
pub fn check_shape(label: &str, ok: bool) {
    println!("  {label} ... {}", if ok { "ok" } else { "FAILED" });
    if !ok {
        FAILED_SHAPES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shape check `a >= factor * b`, with a readable verdict line.
///
/// Used by the repro binaries to encode the paper's qualitative claims
/// ("Impatience beats the best competitor by ≥ X").
pub fn check_speedup(label: &str, a: f64, b: f64, factor: f64) {
    let line = format!("[shape] {label}: {a:.2} vs {b:.2} (need {factor:.2}x)");
    check_shape(&line, a >= factor * b);
}

/// Shape checks that failed so far.
pub fn failed_shapes() -> usize {
    FAILED_SHAPES.load(Ordering::Relaxed)
}
