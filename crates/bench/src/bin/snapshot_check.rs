//! CI helper: validates the JSON-lines output of a bench-binary run.
//!
//! ```sh
//! snapshot_check <path.jsonl>
//! ```
//!
//! Every check lives in [`impatience_bench::contract`]: the per-snapshot
//! payload, and the activities the file's own `"expects"` lists promise.
//! Exits non-zero with a message on the first violation.

fn fail(msg: &str) -> ! {
    eprintln!("snapshot_check: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        fail("usage: snapshot_check <path.jsonl>");
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    match impatience_bench::check_bench_file(&path, &text) {
        Ok(summary) => println!("snapshot_check: {summary}"),
        Err(violation) => fail(&violation),
    }
}
