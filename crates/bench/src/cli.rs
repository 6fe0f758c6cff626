//! Minimal argument parsing shared by the repro binaries (no external
//! CLI dependency needed for two flags).

/// Common benchmark options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset size in events (paper: 20M; default here is smaller).
    pub events: usize,
    /// Assert the paper's qualitative shapes, aborting on mismatch.
    pub check: bool,
    /// Optional path to append JSON-lines results to.
    pub json: Option<String>,
    /// Optional sorter-state budget (bytes) for the sampled metrics
    /// pipeline: runs it degraded (dead-letter + shed-oldest-runs) and
    /// asserts the state-bytes high water never exceeds the budget.
    pub memory_budget: Option<usize>,
    /// Optional spill directory. With both a budget and a spill dir, the
    /// sampled pipeline runs the lossless ladder instead: cold runs are
    /// sealed into run files under this directory (`ShedPolicy::
    /// SpillColdRuns`) before any forced punctuation or shedding.
    pub spill_dir: Option<String>,
}

impl BenchArgs {
    /// Parses `--events N`, `--check`, `--json PATH` from `std::env::args`,
    /// with `default_events` as the size fallback. Unknown flags abort
    /// with a usage message.
    pub fn parse(default_events: usize) -> BenchArgs {
        let mut args = BenchArgs {
            events: default_events,
            check: false,
            json: None,
            memory_budget: None,
            spill_dir: None,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--events" => {
                    i += 1;
                    args.events = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--events needs a number"));
                }
                "--check" => args.check = true,
                "--json" => {
                    i += 1;
                    args.json = Some(
                        argv.get(i)
                            .cloned()
                            .unwrap_or_else(|| usage("--json needs a path")),
                    );
                }
                "--memory-budget" => {
                    i += 1;
                    args.memory_budget = Some(
                        argv.get(i)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage("--memory-budget needs a byte count")),
                    );
                }
                "--spill-dir" => {
                    i += 1;
                    args.spill_dir = Some(
                        argv.get(i)
                            .cloned()
                            .unwrap_or_else(|| usage("--spill-dir needs a path")),
                    );
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
            i += 1;
        }
        args
    }

    /// Appends a JSON line to the `--json` file, if configured.
    pub fn emit_json(&self, value: &impatience_core::Json) {
        if let Some(path) = &self.json {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .expect("open json output");
            writeln!(f, "{value}").expect("write json output");
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--events N] [--check] [--json PATH] [--memory-budget BYTES] \
         [--spill-dir PATH]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
