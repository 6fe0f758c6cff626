//! `stack`: one layer-attributed benchmark of the served Impatience path
//! (four gated workloads, plus a spilling variant that is measured but not
//! gated). Everything is measured from outside: the harness times calls
//! into each crate's public functions and reads the public
//! metrics registries. See `README.md` next to this package.
//!
//! ```text
//! stack bench --workload W --seed N --seconds S --trace 0|1   # the BENCHMARK.json contract
//! stack run [--seed N] [--seconds S] [--out FILE] [--smoke]   # all workloads, both passes
//! stack compare A.json B.json                                  # apply the bounds, row by row
//! ```

mod alloc;
mod compare;
mod engine;
mod framework;
mod harness;
mod inputs;
mod layers;
mod measure;
mod oracle;
mod pace;
mod report;
mod schema;
mod serve;
mod span;
mod stats;

use harness::Ctx;
use impatience_core::{json, Json};
use measure::Outcome;
use schema::Schema;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  stack bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
  stack run [--seed <n>] [--seconds <s>] [--out <file>] [--smoke] [--scratch <dir>]
  stack compare <a.json> <b.json>";

/// `--flag value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// WAL, checkpoint, spill and trace files go under the build's target
/// directory (next to the executable's profile dir) unless told otherwise,
/// so nothing is ever written outside the checkout.
fn scratch_root(flags: &Flags) -> PathBuf {
    if let Some(dir) = flags.value("--scratch") {
        return PathBuf::from(dir);
    }
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(|t| t.join("stack")))
        .unwrap_or_else(|| PathBuf::from("target/stack"))
}

/// The invocation's context: `--seed`, `--seconds` (default: the
/// contract's `run_seconds`, or half a second for `--smoke`), sizes and an
/// existing scratch root.
fn context(flags: &Flags, schema: &Schema, smoke: bool) -> Result<Ctx, String> {
    let default_seconds = if smoke {
        0.5
    } else {
        schema.run_seconds as f64
    };
    let ctx = Ctx {
        seed: flags.parsed("--seed")?.unwrap_or(1),
        seconds: flags.parsed("--seconds")?.unwrap_or(default_seconds),
        sizes: inputs::Sizes::scaled(if smoke { 0.01 } else { 1.0 }),
        scratch: scratch_root(flags),
    };
    if !(ctx.seconds > 0.0 && ctx.seconds <= 60.0) {
        return Err(format!("--seconds: {} is outside (0, 60]", ctx.seconds));
    }
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("create {}: {e}", ctx.scratch.display()))?;
    Ok(ctx)
}

fn run_workload(workload: &str, ctx: &Ctx, traced: bool) -> Outcome {
    match workload {
        "serve-durable" => serve::run(ctx, serve::Kind::Durable, traced),
        "serve-paced" => serve::run(ctx, serve::Kind::Paced, traced),
        "engine-inmem" => engine::run(ctx, traced),
        "framework-ladder" => framework::run(ctx, traced),
        other => unreachable!("workload {other:?} passed validation"),
    }
}

fn bench(flags: &Flags, schema: &Schema) -> Result<ExitCode, String> {
    let workload = flags.value("--workload").ok_or("--workload is required")?;
    if !schema.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of: {})",
            schema.workloads.join(", ")
        ));
    }
    let traced = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let ctx = context(flags, schema, false)?;
    let outcome = run_workload(workload, &ctx, traced);
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    let defs = schema.metrics(traced);
    let metrics = report::conform(&outcome, defs, traced);
    println!("{}", report::contract_line(&outcome, &metrics, defs));
    Ok(ExitCode::SUCCESS)
}

fn run_all(flags: &Flags, schema: &Schema) -> Result<ExitCode, String> {
    let smoke = flags.has("--smoke");
    let ctx = context(flags, schema, smoke)?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &schema.workloads {
        let mut passes = Vec::new();
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run_workload(workload, &ctx, traced);
            for note in &outcome.notes {
                eprintln!("[{workload}] {note}");
            }
            all_correct &= outcome.failed == 0;
            let defs = schema.metrics(traced);
            let metrics = report::conform(&outcome, defs, traced);
            let title = format!(
                "{workload} · {key} · {} of {} operations failed",
                outcome.failed, outcome.attempted
            );
            // A bypassed layer row carries no information for the reader.
            let (shown_metrics, shown_defs): (Vec<_>, Vec<_>) = metrics
                .iter()
                .cloned()
                .zip(defs.iter().cloned())
                .filter(|(m, _)| !traced || m.value != 0.0)
                .unzip();
            print!("{}", report::table(&title, &shown_metrics, &shown_defs));
            passes.push((key.to_string(), report::pass_json(&outcome, &metrics, defs)));
        }
        workloads.push((workload.clone(), Json::Object(passes)));
    }
    if let Some(path) = flags.value("--out") {
        let file = json!({
            "seed": ctx.seed,
            "seconds": ctx.seconds,
            "smoke": smoke,
            "workloads": Json::Object(workloads),
        });
        std::fs::write(path, file.to_string()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if all_correct {
        println!("stack run ok: every output matched its reference");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("stack run FAILED: see the failures above");
        Ok(ExitCode::FAILURE)
    }
}

fn compare_files(args: &[String], schema: &Schema) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two files".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))
    };
    let (report, any_worse) = compare::compare(schema, &load(a)?, &load(b)?);
    print!("{report}");
    Ok(if any_worse {
        println!("compare: at least one row is worse than its bound allows");
        ExitCode::FAILURE
    } else {
        println!("compare: no row is worse than its bound allows");
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let schema = Schema::load();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "bench" => bench(&Flags(rest.to_vec()), &schema),
        Some((cmd, rest)) if cmd == "run" => run_all(&Flags(rest.to_vec()), &schema),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest, &schema),
        _ => Err("expected a subcommand".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("stack: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, both passes, at 1/100 size: outputs match their
    /// references and the metric sets are exactly the contract's.
    #[test]
    fn smoke_all_workloads_both_passes() {
        let schema = Schema::load();
        let ctx = Ctx {
            seed: 42,
            seconds: 0.2,
            sizes: inputs::Sizes::scaled(0.01),
            // Next to the test executable: inside the build's target dir.
            scratch: std::env::current_exe()
                .expect("the test executable has a path")
                .with_file_name(format!("stack-smoke-{}", std::process::id())),
        };
        std::fs::create_dir_all(&ctx.scratch).expect("scratch dir");
        for workload in &schema.workloads {
            for traced in [false, true] {
                let outcome = run_workload(workload, &ctx, traced);
                assert_eq!(
                    outcome.failed, 0,
                    "{workload} traced={traced}: {:?}",
                    outcome.notes
                );
                assert!(outcome.attempted > 0);
                let defs = schema.metrics(traced);
                let metrics = report::conform(&outcome, defs, traced);
                assert_eq!(metrics.len(), defs.len());
                if !traced {
                    assert!(
                        metrics.iter().all(|m| m.value > 0.0),
                        "{workload}: an end-to-end metric read 0: {metrics:?}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&ctx.scratch);
    }
}
