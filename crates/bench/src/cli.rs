//! Minimal argument parsing shared by the repro binaries (no external
//! CLI dependency needed for three flags).

/// The smallest `--events` the exhibits accept: below it some have no
/// flush interval to sample (Fig 5 punctuates every 10 000 events) or no
/// punctuation at all, and their shape checks have nothing to compare.
const MIN_EVENTS: usize = 10_000;

/// Common benchmark options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset size in events (paper: 20M; default here is smaller).
    pub events: usize,
    /// Check the paper's qualitative shapes: after every table has
    /// printed, [`finish`](BenchArgs::finish) exits 1 if any failed.
    pub check: bool,
    /// Optional path to append JSON-lines results to.
    pub json: Option<String>,
}

impl BenchArgs {
    /// Parses `--events N`, `--check`, `--json PATH` from `std::env::args`,
    /// with `default_events` as the size fallback. Unknown flags and an
    /// `--events` below 10 000 abort with a usage message (exit 2).
    pub fn parse(default_events: usize) -> BenchArgs {
        let mut args = BenchArgs {
            events: default_events,
            check: false,
            json: None,
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
                    if args.events < MIN_EVENTS {
                        usage(&format!("--events must be at least {MIN_EVENTS}"));
                    }
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

impl BenchArgs {
    /// Ends a repro binary: under `--check`, exits with status 1 if any
    /// shape check failed.
    pub fn finish(&self) {
        let failed = crate::failed_shapes();
        if self.check && failed > 0 {
            eprintln!("{failed} shape check(s) failed");
            std::process::exit(1);
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <bin> [--events N] [--check] [--json PATH]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
