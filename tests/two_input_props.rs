//! Two-input stages — `union` and the temporal `join` — fed through two
//! live inputs in a seeded interleaving of each side's messages.
//!
//! * **union** — the output holds, per timestamp, exactly the multiset of
//!   both inputs' events, is a valid ordered stream, completes, and leaves
//!   the meter at 0;
//! * **join** — the output holds, per timestamp, exactly the matches of a
//!   nested-loop interval join (same key, overlapping `[sync, other)`),
//!   is a valid ordered stream, completes, and leaves the meter at 0;
//! * **frames** — the bytes of a checkpointed union's and a checkpointed
//!   join's slot files at fixed points of a seeded run are pinned as
//!   `size:crc32c` digests, so a change to either stage's state layout
//!   names itself. Re-pin after an intended format change with
//!   `TWO_INPUT_PRINT=1 cargo test --test two_input_props -- --nocapture`.
//!
//! A failing case prints its seed; replay with
//! `IMPATIENCE_PROP_SEED=<seed> cargo test --test two_input_props <name>`.

use impatience_core::{
    crc32c, validate_ordered_stream, Event, MemoryMeter, StreamMessage, Timestamp,
};
use impatience_engine::{input_stream, InputHandle, Output, Streamable};
use impatience_testkit::props;
use impatience_testkit::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One side's ordered stream of `steps` messages: batches of interval
/// events in nondecreasing sync time, each strictly after the punctuation
/// before it, and nondecreasing punctuations. Not completed.
fn side(rng: &mut StdRng, steps: usize, keys: u32) -> Vec<StreamMessage<u32>> {
    let mut msgs = Vec::with_capacity(steps);
    let (mut t, mut wm) = (0i64, -1i64);
    for _ in 0..steps {
        if rng.gen_bool(0.6) {
            let n = rng.gen_range(1usize..5);
            let events = (0..n)
                .map(|_| {
                    t = t.max(wm + 1) + rng.gen_range(0i64..4);
                    let len = rng.gen_range(1i64..40);
                    let key = rng.gen_range(0u32..keys);
                    let payload = rng.gen_range(0u32..1000);
                    Event::interval(Timestamp::new(t), Timestamp::new(t + len), key, payload)
                })
                .collect();
            msgs.push(StreamMessage::batch(events));
        } else {
            wm = rng.gen_range(wm..=t);
            msgs.push(StreamMessage::Punctuation(Timestamp::new(wm)));
        }
    }
    msgs
}

/// Pushes both sides in a seeded interleaving that keeps each side's own
/// order, then completes both (in a seeded order). `after` runs after each
/// push with the number of messages pushed so far.
fn interleave(
    rng: &mut StdRng,
    left: &[StreamMessage<u32>],
    right: &[StreamMessage<u32>],
    l: &InputHandle<u32>,
    r: &InputHandle<u32>,
    mut after: impl FnMut(usize),
) {
    let (mut i, mut j) = (0, 0);
    while i < left.len() || j < right.len() {
        let take_left = j == right.len() || (i < left.len() && rng.gen_bool(0.5));
        if take_left {
            l.push(left[i].clone()).expect("left open");
            i += 1;
        } else {
            r.push(right[j].clone()).expect("right open");
            j += 1;
        }
        after(i + j);
    }
    if rng.gen_bool(0.5) {
        l.complete();
        r.complete();
    } else {
        r.complete();
        l.complete();
    }
}

fn events(msgs: &[StreamMessage<u32>]) -> Vec<Event<u32>> {
    msgs.iter()
        .filter_map(|m| match m {
            StreamMessage::Batch(b) => Some(b.iter_visible().cloned().collect::<Vec<_>>()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Per sync time, the sorted `(other_time, key, payload)` of its events.
fn by_time<P: Ord + Clone>(evs: &[Event<P>]) -> BTreeMap<i64, Vec<(i64, u32, P)>> {
    let mut m: BTreeMap<i64, Vec<(i64, u32, P)>> = BTreeMap::new();
    for e in evs {
        m.entry(e.sync_time.ticks()).or_default().push((
            e.other_time.ticks(),
            e.key,
            e.payload.clone(),
        ));
    }
    for v in m.values_mut() {
        v.sort();
    }
    m
}

fn combine(a: &u32, b: &u32) -> u32 {
    a.wrapping_mul(31).wrapping_add(*b)
}

/// The nested-loop interval join: every same-key pair whose intervals
/// overlap, stamped with their intersection.
fn nested_loop_join(left: &[Event<u32>], right: &[Event<u32>]) -> Vec<Event<u32>> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if l.key == r.key && l.other_time > r.sync_time && r.other_time > l.sync_time {
                out.push(Event::interval(
                    l.sync_time.max(r.sync_time),
                    l.other_time.min(r.other_time),
                    l.key,
                    combine(&l.payload, &r.payload),
                ));
            }
        }
    }
    out
}

/// Checks what every two-input stage owes its output.
fn assert_ordered_and_done(out: &Output<u32>, meter: &MemoryMeter) {
    let msgs = out.messages();
    assert!(
        validate_ordered_stream(&msgs).is_ok(),
        "output out of order"
    );
    assert!(out.is_completed(), "both sides completed");
    assert_eq!(out.error(), None);
    assert_eq!(meter.current(), 0, "every waiting byte released");
}

props! {
    cases = 64;

    fn union_of_interleaved_live_inputs_is_their_multiset(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = rng.gen_range(0usize..120);
        let (a, b) = (side(&mut rng, steps, 6), side(&mut rng, steps, 6));
        let meter = MemoryMeter::new();
        let (l, ls) = input_stream::<u32>();
        let (r, rs) = input_stream::<u32>();
        let out = ls.union(rs, &meter).collect_output();
        interleave(&mut rng, &a, &b, &l, &r, |_| {});
        let mut expect = events(&a);
        expect.extend(events(&b));
        assert_eq!(by_time(&out.events()), by_time(&expect));
        assert_ordered_and_done(&out, &meter);
    }

    fn join_of_interleaved_live_inputs_is_the_nested_loop_join(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = rng.gen_range(0usize..120);
        let keys = rng.gen_range(1u32..6);
        let (a, b) = (side(&mut rng, steps, keys), side(&mut rng, steps, keys));
        let meter = MemoryMeter::new();
        let (l, ls) = input_stream::<u32>();
        let (r, rs) = input_stream::<u32>();
        let out = ls.join(rs, combine, &meter).collect_output();
        interleave(&mut rng, &a, &b, &l, &r, |_| {});
        let expect = nested_loop_join(&events(&a), &events(&b));
        assert_eq!(by_time(&out.events()), by_time(&expect));
        assert_ordered_and_done(&out, &meter);
    }
}

/// `size:crc32c` of the slot files at each pinned point of [`frames`],
/// recorded from the implementation before union and join shared one
/// synchronizer.
const PINNED_FRAMES: [(&str, &str); 2] = [("union", "10021:dd21e3db"), ("join", "27034:8f927e5f")];

/// Push counts after which [`frames`] reads the slot files.
const FRAME_POINTS: [usize; 3] = [40, 120, 200];

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("impatience-two-input-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, by name, as `name size:crc32c` lines. The CRC
/// leaves out a slot's last four bytes: they are the frame's own CRC-32C
/// of everything before them, and a CRC taken over a message followed by
/// its CRC is the same constant for every message.
fn files_text(dir: &Path) -> String {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    names
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).expect("read checkpoint file");
            format!(
                "{} {}:{:08x}\n",
                p.file_name().expect("file name").to_string_lossy(),
                bytes.len(),
                crc32c(&bytes[..bytes.len().saturating_sub(4)])
            )
        })
        .collect()
}

/// Runs a seeded interleaving into a stage whose left input checkpoints on
/// every punctuation, and returns the slot files at [`FRAME_POINTS`] and
/// after completion, plus the output, as one digest.
fn frames(
    tag: &str,
    stage: impl FnOnce(Streamable<u32>, Streamable<u32>, &MemoryMeter) -> Streamable<u32>,
) -> String {
    let dir = scratch(tag);
    let mut rng = StdRng::seed_from_u64(0x2_1A_F0);
    let (a, b) = (side(&mut rng, 150, 4), side(&mut rng, 150, 4));
    let meter = MemoryMeter::new();
    let (l, ls) = input_stream::<u32>();
    let (r, rs) = input_stream::<u32>();
    let (ls, _ctx) = ls.checkpointed(dir.join("ckpt"), 1).expect("open slots");
    let out = stage(ls, rs, &meter).collect_output();
    let mut text = String::new();
    interleave(&mut rng, &a, &b, &l, &r, |pushed| {
        if FRAME_POINTS.contains(&pushed) {
            text += &format!("@{pushed}\n{}", files_text(&dir.join("ckpt")));
        }
    });
    text += &format!("@end\n{}", files_text(&dir.join("ckpt")));
    assert_ordered_and_done(&out, &meter);
    for m in out.messages() {
        match m {
            StreamMessage::Batch(b) => {
                text += "b\n";
                for e in b.iter_visible() {
                    text += &format!("{} {} {} {}\n", e.sync_time, e.other_time, e.key, e.payload);
                }
            }
            StreamMessage::Punctuation(t) => text += &format!("p {t}\n"),
            StreamMessage::Completed => text += "c\n",
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    format!("{}:{:08x}", text.len(), crc32c(text.as_bytes()))
}

#[test]
fn two_input_frames_are_pinned() {
    let got = [
        ("union", frames("union", |l, r, m| l.union(r, m))),
        ("join", frames("join", |l, r, m| l.join(r, combine, m))),
    ];
    if std::env::var_os("TWO_INPUT_PRINT").is_some() {
        for (name, d) in &got {
            println!("    (\"{name}\", \"{d}\"),");
        }
    }
    for ((name, d), (pinned_name, pinned)) in got.iter().zip(PINNED_FRAMES) {
        assert_eq!(*name, pinned_name);
        assert_eq!(d, pinned, "{name} frames changed");
    }
}
