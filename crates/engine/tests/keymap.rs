//! Grouped operators over adversarial key sets: correct output, and
//! checkpoint bytes that do not depend on the process (the operators'
//! group table probes with a fixed multiplicative hash, not a per-process
//! random state — and writes its keys ascending either way).

use impatience_core::{crc32c, Event, EventBatch, SnapshotWriter, Timestamp};
use impatience_engine::ops::{CountAgg, GroupedAggregateOp, ReduceByKeyOp};
use impatience_engine::{Checkpointable, Observer, Output};
use std::collections::BTreeMap;

/// Key sets a weak `u32` hash would pile into few cells.
fn adversarial_keys() -> Vec<(&'static str, Vec<u32>)> {
    vec![
        (
            "multiples of 2^16",
            (0..=u16::MAX as u32).map(|i| i << 16).collect(),
        ),
        ("10^5 sequential", (0..100_000).collect()),
        (
            "extremes",
            vec![u32::MAX, 0, u32::MAX - 1, 1 << 31, (1 << 31) - 1, 1],
        ),
    ]
}

/// One window's worth of events: every key twice, second pass reversed.
fn window_of(keys: &[u32]) -> EventBatch<u64> {
    keys.iter()
        .chain(keys.iter().rev())
        .map(|&k| Event::interval(Timestamp::new(0), Timestamp::new(10), k, u64::from(k) + 1))
        .collect()
}

#[test]
fn adversarial_key_sets_stay_correct() {
    for (label, keys) in adversarial_keys() {
        let expected: BTreeMap<u32, u64> =
            keys.iter().map(|&k| (k, 2 * (u64::from(k) + 1))).collect();

        let (out, sink) = Output::<u64>::new();
        let mut reduce = ReduceByKeyOp::new(|a: &mut u64, b: u64| *a += b, sink);
        reduce.on_batch(window_of(&keys));
        reduce.on_completed();
        let got: Vec<(u32, u64)> = out.events().iter().map(|e| (e.key, e.payload)).collect();
        let want: Vec<(u32, u64)> = expected.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "reduce_by_key over {label}");

        let (out, sink) = Output::<u64>::new();
        let mut grouped = GroupedAggregateOp::new(CountAgg, sink);
        grouped.on_batch(window_of(&keys));
        grouped.on_completed();
        let got: Vec<(u32, u64)> = out.events().iter().map(|e| (e.key, e.payload)).collect();
        let want: Vec<(u32, u64)> = expected.keys().map(|&k| (k, 2)).collect();
        assert_eq!(got, want, "group_aggregate over {label}");
    }
}

/// Length and CRC-32C of the checkpoint bytes of both operators, each
/// holding an open window over every adversarial key set.
fn checkpoint_digest() -> String {
    let mut w = SnapshotWriter::new();
    for (_, keys) in adversarial_keys() {
        let (_out, sink) = Output::<u64>::new();
        let mut reduce = ReduceByKeyOp::new(|a: &mut u64, b: u64| *a += b, sink);
        reduce.on_batch(window_of(&keys));
        reduce.encode_state(&mut w).expect("reduce_by_key encodes");
        let (_out, sink) = Output::<u64>::new();
        let mut grouped = GroupedAggregateOp::new(CountAgg, sink);
        grouped.on_batch(window_of(&keys));
        grouped
            .encode_state(&mut w)
            .expect("group_aggregate encodes");
    }
    let bytes = w.into_body();
    format!("{}:{:08x}", bytes.len(), crc32c(&bytes))
}

const CHILD_ENV: &str = "IMPATIENCE_KEYMAP_CHILD";

#[test]
fn checkpoint_bytes_are_identical_across_processes() {
    let mine = checkpoint_digest();
    if std::env::var_os(CHILD_ENV).is_some() {
        println!("checkpoint-digest={mine}");
        return;
    }
    // The same test, re-run in a second process (its own address
    // space and, for a std `HashMap`, its own hash seeds).
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "checkpoint_bytes_are_identical_across_processes",
            "--nocapture",
        ])
        .env(CHILD_ENV, "1")
        .output()
        .expect("second process runs");
    assert!(child.status.success(), "child failed: {child:?}");
    let stdout = String::from_utf8_lossy(&child.stdout);
    let theirs = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("checkpoint-digest="))
        .unwrap_or_else(|| panic!("no digest in child output: {stdout}"));
    assert_eq!(theirs, mine, "checkpoint bytes differ between processes");
}
