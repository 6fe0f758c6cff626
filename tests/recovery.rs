//! Crash-recovery conformance suite: checkpoint/restore + WAL replay.
//!
//! Every run drives a seeded disordered tape through a durable pipeline
//! (`checkpointed` gate → Impatience sort → tumbling window → grouped
//! count → top-k), logging each ingest message to a [`WalIngress`] before
//! pushing it and truncating the log at every checkpoint. The run is
//! killed at a seeded crash point, the on-disk state is damaged the way
//! real crashes damage it (clean stop, torn WAL tail, flipped checkpoint
//! byte, checkpoint write torn mid-flight), and a second incarnation
//! recovers. The contract, checked for **every** seed × damage variant:
//!
//! 1. conformance — `reference = crashed[..P] ++ recovered`, where `P` is
//!    the committed egress prefix recorded in the recovered checkpoint:
//!    the combined output is byte-identical to an uncrashed run;
//! 2. corruption never aborts — an unrecoverable checkpoint surfaces as a
//!    typed [`StreamError::RecoveryFailed`] with no completion;
//! 3. a corrupted or torn *newest* slot falls back to the previous
//!    generation and still conforms; a torn *first* write is a fresh
//!    start that conforms.
//!
//! The suite runs `SEEDS × 4` = 680 full crash/recover cycles: 510 of the
//! first three kinds, 170 torn slots. Each is deterministic in its seed, so
//! a failure replays bit-for-bit.
//!
//! A further 160 cycles crash *inside* one group-committed request — the
//! serving layer's two records, one sync, then push — and hold the same
//! conformance contract (`crash_inside_a_group_committed_request_…`).
//!
//! One `#[ignore]`d timing test holds the checkpointing budget (≤ 10%
//! over the plain pipeline); `scripts/ci.sh` runs it in a release build.
//!
//! Two `hoisted_plan_…` cases cover the `PipelineSpec` plan that runs a
//! window below the sort: the late gate's watermark survives a crash, and
//! a checkpoint written by the sort-first plan is refused with a typed
//! error instead of being reinterpreted.

use impatience::prelude::*;
use impatience_core::{StreamError, StreamMessage};
use impatience_engine::ingress::WalConfig;
use impatience_engine::{input_stream, punctuate_arrivals, CheckpointCtx, WalIngress};
use impatience_engine::{InputHandle, Output, RecoveryInfo};
use impatience_sort::ImpatienceSorter;
use impatience_testkit::crash::{
    corrupt_random_byte, crash_point, files_with_suffix, newest_with_suffix, tear_tail,
    truncate_file,
};
use impatience_testkit::{Rng, SeedableRng, StdRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Seeds per damage variant; four variants per seed gives 680 runs.
const SEEDS: u64 = 170;

fn base_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("impatience-recovery-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config() -> WalConfig {
    // Tiny segments force rolls and truncation; sync on every append so
    // the WAL never trails what the pipeline has consumed (ack-after-sync).
    WalConfig {
        segment_bytes: 1024,
        sync_every: 1,
    }
}

/// Seeded disordered keyed tape, punctuated per a seeded ingress policy.
fn tape(seed: u64) -> Vec<StreamMessage<u32>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed);
    let n = rng.gen_range(40..140usize);
    let mut t = 100i64;
    let mut arrivals = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.gen_range(0..6i64);
        let sync = if rng.gen_ratio(1, 5) {
            (t - rng.gen_range(0..24i64)).max(0)
        } else {
            t
        };
        arrivals.push(Event::keyed(
            Timestamp::new(sync),
            rng.gen_range(0u32..6),
            rng.gen_range(0u32..1000),
        ));
    }
    let policy = IngressPolicy {
        punctuation_frequency: rng.gen_range(4..12usize),
        reorder_latency: TickDuration::ticks(32),
        batch_size: rng.gen_range(2..6usize),
    };
    punctuate_arrivals(arrivals, &policy)
}

struct Incarnation {
    handle: InputHandle<u32>,
    ctx: CheckpointCtx,
    out: Output<u64>,
    _meter: MemoryMeter,
}

/// The durable pipeline under test: every stateful stage participates in
/// the checkpoint (sorter, window, grouped aggregate, top-k).
fn build(base: &Path, every_n: u32) -> Incarnation {
    let meter = MemoryMeter::new();
    let (handle, s) = input_stream::<u32>();
    let (s, ctx) = s
        .checkpointed(base.join("ckpt"), every_n)
        .expect("open checkpoint dir");
    let out = s
        .sorted(
            Box::new(ImpatienceSorter::new()),
            &meter,
            Default::default(),
        )
        .expect("default sort policy")
        .tumbling_window(TickDuration::ticks(32))
        .group_aggregate(CountAgg)
        .top_k(3, |c: &u64| *c as i64)
        .checkpoint_egress()
        .collect_output();
    Incarnation {
        handle,
        ctx,
        out,
        _meter: meter,
    }
}

/// Opens the run's WAL and wires checkpoint-driven truncation into `ctx`.
fn attach_wal(ctx: &CheckpointCtx, base: &Path) -> Arc<Mutex<WalIngress<u32>>> {
    attach_wal_with(ctx, base, wal_config())
}

fn attach_wal_with<P: Payload>(
    ctx: &CheckpointCtx,
    base: &Path,
    config: WalConfig,
) -> Arc<Mutex<WalIngress<P>>> {
    let wal = Arc::new(Mutex::new(
        WalIngress::open_with(base.join("wal"), config).expect("open wal"),
    ));
    let w = Arc::clone(&wal);
    ctx.on_checkpoint(move |note| {
        let _ = w.lock().unwrap().truncate_before(note.safe_truncate_index);
    });
    wal
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// Process death only: all synced files intact.
    Clean,
    /// Power loss mid-write: the newest WAL segment loses a seeded tail.
    TornWal,
    /// Media corruption: one seeded byte of a checkpoint slot flips.
    CorruptCkpt,
    /// Power loss mid-checkpoint: the slot being overwritten in place —
    /// or, before both slots exist, the temp file of the write creating
    /// one — keeps a seeded prefix of its frame, 0 bytes to frame − 1.
    TornSlot,
}

#[derive(Default)]
struct SuiteCounts {
    runs: u64,
    restores: u64,
    fallbacks: u64,
    typed_failures: u64,
    fresh_starts: u64,
    torn_fallbacks: u64,
    /// Fresh starts over a torn first write, by kept prefix: 0 bytes,
    /// frame − 1, seeded.
    torn_first_writes: [u64; 3],
}

/// The uncrashed run of `t` — itself durable, so checkpoint writes are
/// also shown not to perturb output.
fn reference_run(t: &[StreamMessage<u32>], every_n: u32, base: &Path) -> Vec<Event<u64>> {
    let inc = build(base, every_n);
    let wal = attach_wal(&inc.ctx, base);
    for msg in t {
        wal.lock().unwrap().append(msg).unwrap();
        inc.handle.push(msg.clone()).expect("push");
    }
    assert!(
        inc.out.is_completed(),
        "{}: reference completed",
        base.display()
    );
    assert!(inc.out.error().is_none());
    inc.out.events()
}

/// Incarnation 2: recover from `base`, replay the WAL suffix, resume the
/// tape, and assert conformance — the crashed run's committed prefix
/// followed by the recovered output is byte-identical to `reference`.
/// `Err` is recovery's own typed failure, for the caller to judge.
fn recover_and_check(
    what: &str,
    t: &[StreamMessage<u32>],
    every_n: u32,
    base: &Path,
    events_before: &[Event<u64>],
    reference: &[Event<u64>],
    must_complete: bool,
) -> Result<Option<RecoveryInfo>, StreamError> {
    let inc = build(base, every_n);
    if let Some(err) = inc.out.error() {
        assert!(!inc.out.is_completed());
        assert!(inc.ctx.recovery().is_none());
        return Err(err);
    }

    let rec = inc.ctx.recovery();
    // What an operator sees of it: a registry bound after the fact carries
    // over the restore performed at connect time.
    let registry = MetricsRegistry::new();
    inc.ctx.bind_metrics(&registry, "pipeline");
    assert_eq!(
        registry.counter("pipeline.recovery.restores").get(),
        u64::from(rec.is_some()),
        "{what}: recovery.restores"
    );
    assert_eq!(
        registry.counter("pipeline.recovery.fallbacks").get(),
        u64::from(rec.as_ref().is_some_and(|r| r.fallback.is_some())),
        "{what}: recovery.fallbacks"
    );
    let m = rec.as_ref().map_or(0, |r| r.messages_seen);
    let p = rec.as_ref().map_or(0, |r| r.egress_events) as usize;
    assert!(
        p <= events_before.len(),
        "{what}: committed prefix {p} beyond {} crashed events",
        events_before.len()
    );

    let wal = attach_wal(&inc.ctx, base);
    // Replay the surviving log suffix the checkpoint has not covered.
    for (idx, msg) in WalIngress::<u32>::replay_from(&base.join("wal"), m).unwrap() {
        assert!(idx >= m);
        inc.handle.push(msg).expect("push");
    }
    // Resume the tape where the log ends. Records torn off the WAL are
    // re-sent by the source (they were never acknowledged); any that the
    // restored checkpoint already covers are logged but not re-consumed.
    let resume = wal.lock().unwrap().next_index();
    for (i, msg) in t.iter().enumerate().skip(resume as usize) {
        wal.lock().unwrap().append(msg).unwrap();
        if i as u64 >= m {
            inc.handle.push(msg.clone()).expect("push");
        }
    }

    if must_complete {
        assert!(
            inc.out.is_completed(),
            "{what}: recovered run did not complete"
        );
    }
    assert!(inc.out.error().is_none(), "{what}");

    // Conformance: committed crashed prefix + recovered output is
    // byte-identical to the uncrashed run.
    let combined: Vec<Event<u64>> = events_before
        .iter()
        .take(p)
        .cloned()
        .chain(inc.out.events())
        .collect();
    assert_eq!(reference, combined, "{what}: recovered output diverges");
    Ok(rec)
}

/// One full crash/recover cycle; returns what recovery did.
fn run_one(seed: u64, damage: Damage, counts: &mut SuiteCounts) {
    let t = tape(seed);
    let every_n = 1 + (seed % 4) as u32;
    let cp = crash_point(seed ^ 0xc4a5_4e11, t.len());
    counts.runs += 1;

    let ref_base = base_dir(&format!("ref-{seed}-{damage:?}"));
    let reference = reference_run(&t, every_n, &ref_base);

    // Incarnation 1: log-then-push up to the crash point, then die.
    let base = base_dir(&format!("run-{seed}-{damage:?}"));
    let events_before = {
        let inc = build(&base, every_n);
        let wal = attach_wal(&inc.ctx, &base);
        assert!(inc.ctx.recovery().is_none(), "fresh dir has no recovery");
        for msg in &t[..cp.after_messages] {
            wal.lock().unwrap().append(msg).unwrap();
            inc.handle.push(msg.clone()).expect("push");
        }
        inc.out.events()
    };

    // Crash-time damage.
    let mut slots_at_tear = None;
    match damage {
        Damage::Clean => {}
        Damage::TornWal => {
            if let Some(seg) = newest_with_suffix(base.join("wal"), ".seg").unwrap() {
                tear_tail(seg, seed ^ 0x7ea4).unwrap();
            }
        }
        Damage::CorruptCkpt => {
            let slots = files_with_suffix(base.join("ckpt"), ".bin").unwrap();
            if !slots.is_empty() {
                let pick = (seed as usize) % slots.len();
                corrupt_random_byte(&slots[pick], seed ^ 0xf11b).unwrap();
            }
        }
        Damage::TornSlot => {
            // A slot write in flight keeps a seeded prefix of its frame.
            // With both slots on disk the write is in place, so the
            // newest generation's slot is torn and recovery must come
            // back through the other. A write creating a slot goes
            // through `<slot>.tmp`, so with fewer slots only that temp
            // file is torn — for the first write, with a frame of the
            // same layout taken from the reference run.
            let ckpt = base.join("ckpt");
            let slots = files_with_suffix(&ckpt, ".bin").unwrap();
            let (bytes, torn) = match slots.as_slice() {
                [] => (
                    fs::read(ref_base.join("ckpt").join("ckpt-a.bin")).unwrap(),
                    ckpt.join("ckpt-a.bin.tmp"),
                ),
                [only] => (fs::read(only).unwrap(), ckpt.join("ckpt-b.bin.tmp")),
                _ => {
                    let newest = slots.iter().max_by_key(|s| generation(s)).unwrap();
                    (fs::read(newest).unwrap(), newest.clone())
                }
            };
            let keep = match seed % 3 {
                0 => 0,
                1 => bytes.len() - 1,
                _ => StdRng::seed_from_u64(seed ^ 0x7051).gen_range(0..bytes.len()),
            };
            fs::write(torn, &bytes[..keep]).unwrap();
            slots_at_tear = Some(slots.len());
        }
    }

    let what = format!(
        "seed {seed} {damage:?} every_n {every_n} crash@{}/{}",
        cp.after_messages,
        t.len()
    );
    match recover_and_check(
        &what,
        &t,
        every_n,
        &base,
        &events_before,
        &reference,
        cp.after_messages < t.len(),
    ) {
        Err(err) => {
            // Only checkpoint corruption may make recovery impossible, and
            // it must surface as the typed error with no completion —
            // never abort.
            assert!(
                matches!(err, StreamError::RecoveryFailed { .. }),
                "{what}: unexpected error {err:?}"
            );
            assert_eq!(
                damage,
                Damage::CorruptCkpt,
                "{what}: recovery failed without checkpoint damage"
            );
            counts.typed_failures += 1;
        }
        Ok(Some(r)) => {
            counts.restores += 1;
            if r.fallback.is_some() {
                counts.fallbacks += 1;
            }
            if let Some(n) = slots_at_tear {
                // Only an in-place tear touches a slot that recovery reads.
                assert_eq!(r.fallback.is_some(), n == 2, "{what}: torn over {n} slots");
                counts.torn_fallbacks += u64::from(n == 2);
            }
        }
        Ok(None) => {
            counts.fresh_starts += 1;
            if let Some(n) = slots_at_tear {
                assert_eq!(n, 0, "{what}: fresh start beside a good slot");
                counts.torn_first_writes[(seed % 3) as usize] += 1;
            }
        }
    }
    let _ = fs::remove_dir_all(&ref_base);
    let _ = fs::remove_dir_all(&base);
}

/// 680 seeded crash/recover cycles across all damage variants.
#[test]
fn crash_anywhere_recovery_is_byte_identical() {
    let mut counts = SuiteCounts::default();
    for seed in 0..SEEDS {
        run_one(seed, Damage::Clean, &mut counts);
        run_one(seed, Damage::TornWal, &mut counts);
        run_one(seed, Damage::CorruptCkpt, &mut counts);
        run_one(seed, Damage::TornSlot, &mut counts);
    }
    assert!(counts.runs >= 680, "only {} runs", counts.runs);
    // The suite must actually exercise the interesting paths: plenty of
    // real restores, at least one generation fallback, and fresh starts
    // for crashes before the first checkpoint.
    assert!(counts.restores > 100, "only {} restores", counts.restores);
    assert!(counts.fallbacks > 0, "no fallback to older generation seen");
    assert!(counts.torn_fallbacks > 0, "no torn slot fell back");
    assert!(
        counts.torn_first_writes.iter().all(|&n| n > 0),
        "torn first writes by kept prefix: {:?}",
        counts.torn_first_writes
    );
    assert!(counts.fresh_starts > 0, "no pre-checkpoint crash seen");
    // Corruption must have had at least one visible consequence.
    assert!(counts.fallbacks + counts.typed_failures > 0);
}

/// A checkpoint slot's generation: the body's first word, after magic,
/// version and length.
fn generation(slot: &Path) -> u64 {
    let bytes = fs::read(slot).unwrap();
    u64::from_le_bytes(bytes[20..28].try_into().unwrap())
}

/// Where a crash lands inside one group-committed request: the serving
/// layer appends a request's batch record and its punctuation record,
/// syncs **once**, and only then pushes either (`TenantRuntime::ingest`).
#[derive(Debug, Clone, Copy)]
enum GroupCrash {
    /// Died between the two appends: batch record whole, no punctuation.
    PunctAbsent,
    /// Power loss kept the batch record and part of the punctuation record.
    PunctTorn,
    /// Process death after both appends, before the sync: the page cache
    /// kept every byte, but nothing was pushed or acknowledged.
    UnsyncedKept,
    /// Power loss after both appends, before the sync: neither survived.
    UnsyncedLost,
}

/// `(segment, length)` for every WAL segment under `base`.
fn wal_extent(base: &Path) -> Vec<(PathBuf, u64)> {
    files_with_suffix(base.join("wal"), ".seg")
        .unwrap()
        .into_iter()
        .map(|seg| {
            let len = fs::metadata(&seg).unwrap().len();
            (seg, len)
        })
        .collect()
}

/// Cuts the WAL under `base` back to an earlier [`wal_extent`], removing
/// segments rolled since.
fn rewind_wal(base: &Path, extent: &[(PathBuf, u64)]) {
    for (seg, _) in wal_extent(base) {
        match extent.iter().find(|(kept, _)| *kept == seg) {
            Some(&(_, len)) => truncate_file(&seg, len).unwrap(),
            None => fs::remove_file(&seg).unwrap(),
        }
    }
}

/// One crash inside a group-committed `[batch, punctuation]` request.
fn run_group_commit(seed: u64, crash: GroupCrash) {
    let t = tape(seed ^ 0x6c07);
    let every_n = 1 + (seed % 4) as u32;
    // A request is a batch plus the punctuation it provokes, if any.
    let pairs: Vec<usize> = (0..t.len() - 1)
        .filter(|&i| t[i].is_batch() && t[i + 1].is_punctuation())
        .collect();
    let crash_at = pairs[(seed as usize) % pairs.len()];

    let ref_base = base_dir(&format!("group-ref-{seed}-{crash:?}"));
    let reference = reference_run(&t, every_n, &ref_base);

    let base = base_dir(&format!("group-run-{seed}-{crash:?}"));
    let events_before = {
        let inc = build(&base, every_n);
        // Never auto-sync: the one explicit sync per request is the only
        // durability point, as on the served path.
        let group_commit = WalConfig {
            sync_every: u64::MAX,
            ..wal_config()
        };
        let wal = attach_wal_with(&inc.ctx, &base, group_commit);
        let mut i = 0;
        while i < crash_at {
            let request = if pairs.contains(&i) { 2 } else { 1 };
            for msg in &t[i..i + request] {
                wal.lock().unwrap().append(msg).unwrap();
            }
            wal.lock().unwrap().sync().unwrap();
            for msg in &t[i..i + request] {
                inc.handle.push(msg.clone()).expect("push");
            }
            i += request;
        }
        // The crashing request: appended, never synced, never pushed.
        let before = wal_extent(&base);
        wal.lock().unwrap().append(&t[crash_at]).unwrap();
        let batch_only = wal_extent(&base);
        wal.lock().unwrap().append(&t[crash_at + 1]).unwrap();
        let both = wal_extent(&base);
        drop(wal);
        match crash {
            GroupCrash::PunctAbsent => rewind_wal(&base, &batch_only),
            GroupCrash::PunctTorn => {
                let (seg, end) = both.last().unwrap();
                let start = batch_only
                    .iter()
                    .find(|(s, _)| s == seg)
                    .map_or(0, |&(_, len)| len);
                let kept = 1 + seed % (end - start - 1);
                truncate_file(seg, start + kept).unwrap();
            }
            GroupCrash::UnsyncedKept => {}
            GroupCrash::UnsyncedLost => rewind_wal(&base, &before),
        }
        inc.out.events()
    };

    let what = format!(
        "seed {seed} {crash:?} every_n {every_n} crash in request@{crash_at}/{}",
        t.len()
    );
    recover_and_check(&what, &t, every_n, &base, &events_before, &reference, true)
        .unwrap_or_else(|err| panic!("{what}: no checkpoint was damaged, yet {err:?}"));
    let _ = fs::remove_dir_all(&ref_base);
    let _ = fs::remove_dir_all(&base);
}

/// A crash anywhere inside a group-committed request — between its two
/// records, through the second, or after both but before the single sync
/// — recovers byte-identical to the uninterrupted run.
#[test]
fn crash_inside_a_group_committed_request_is_byte_identical() {
    for seed in 0..40 {
        run_group_commit(seed, GroupCrash::PunctAbsent);
        run_group_commit(seed, GroupCrash::PunctTorn);
        run_group_commit(seed, GroupCrash::UnsyncedKept);
        run_group_commit(seed, GroupCrash::UnsyncedLost);
    }
}

/// The checkpointing budget: a checkpoint every 16 punctuations costs at
/// most 10% wall-clock over the plain pipeline (CloudLog ingress →
/// Impatience sort → tumbling window → count), best of 5 runs each over 2 M
/// events. The reorder latency is a fixed 1 s (CloudLog is "98% complete
/// within 1 s"): an absolute latency keeps the sorter's retained state —
/// and so the per-checkpoint cost — constant as the event count grows.
/// Punctuations scale with the dataset (40 per run), so checkpoints land
/// at 40% and 80% of the stream. The write-ahead-logged run is timed apart
/// and only printed: the WAL writes the whole ingest stream to disk, a
/// cost a source with its own replayable upstream would not pay, so the
/// budget covers checkpointing alone. Timing: release build, `--ignored`.
#[test]
#[ignore = "timing budget; scripts/ci.sh runs it in a release build"]
fn checkpointing_every_16_punctuations_costs_at_most_10_percent() {
    const EVENTS: usize = 2_000_000;
    const ITERATIONS: u32 = 5;
    let ds = generate_cloudlog(&CloudLogConfig::sized(EVENTS));
    let span = ds.events.iter().map(|e| e.sync_time.ticks()).max();
    let window = TickDuration::ticks((span.unwrap_or(1) / 50).max(1));
    let policy = IngressPolicy {
        punctuation_frequency: (EVENTS / 40).max(1_000),
        reorder_latency: TickDuration::secs(1),
        batch_size: 4_096,
    };
    let tape = punctuate_arrivals(ds.events, &policy);

    // `durable`: where the checkpoint gate (and, with `logged`, the WAL
    // every message is appended to before it is pushed) keeps its files.
    let timed_run = |durable: Option<&Path>, logged: bool| -> f64 {
        let start = std::time::Instant::now();
        let (handle, s) = input_stream::<EvalPayload>();
        let (s, ctx) = match durable {
            Some(dir) => {
                let (s, ctx) = s.checkpointed(dir.join("ckpt"), 16).expect("open dir");
                (s, Some((ctx, dir)))
            }
            None => (s, None),
        };
        let out = s
            .sorted(
                Box::new(ImpatienceSorter::new()),
                &MemoryMeter::new(),
                Default::default(),
            )
            .expect("default sort policy")
            .tumbling_window(window)
            .count()
            .checkpoint_egress()
            .collect_output();
        let wal = ctx
            .as_ref()
            .filter(|_| logged)
            .map(|(ctx, dir)| attach_wal_with::<EvalPayload>(ctx, dir, WalConfig::default()));
        for msg in &tape {
            if let Some(wal) = &wal {
                wal.lock().unwrap().append(msg).expect("wal append");
            }
            handle.push(msg.clone()).expect("push");
        }
        assert!(out.is_completed());
        let secs = start.elapsed().as_secs_f64();
        if let Some(dir) = durable {
            let _ = fs::remove_dir_all(dir);
        }
        secs
    };
    let (mut plain, mut checkpointed, mut logged) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for i in 0..ITERATIONS {
        plain = plain.min(timed_run(None, false));
        let base = base_dir(&format!("overhead-{i}"));
        checkpointed = checkpointed.min(timed_run(Some(&base), false));
        logged = logged.min(timed_run(Some(&base), true));
    }
    let overhead_pct = (checkpointed / plain - 1.0) * 100.0;
    println!(
        "plain {:.1} ms, checkpointed {:.1} ms ({overhead_pct:.2}%), + wal {:.1} ms ({:.2}%)",
        plain * 1e3,
        checkpointed * 1e3,
        logged * 1e3,
        (logged / plain - 1.0) * 100.0
    );
    assert!(
        overhead_pct <= 10.0,
        "checkpoint overhead {overhead_pct:.2}% exceeds the 10% budget"
    );
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            fs::copy(entry.path(), dst).unwrap();
        }
    }
}

/// Directed check of the fallback ladder: with both slots populated,
/// corrupting either one still recovers from the surviving generation and
/// reports the corruption as [`RecoveryInfo::fallback`], and corrupting
/// both yields the typed error — never an abort.
///
/// [`RecoveryInfo::fallback`]: impatience_engine::RecoveryInfo
#[test]
fn corrupted_checkpoint_slots_fall_back_then_fail_typed() {
    let t = tape(9_001);
    let seeded = base_dir("slots-seed");
    {
        let inc = build(&seeded, 1);
        let wal = attach_wal(&inc.ctx, &seeded);
        for msg in &t {
            wal.lock().unwrap().append(msg).unwrap();
            inc.handle.push(msg.clone()).expect("push");
        }
        assert!(inc.out.is_completed());
    }
    let slots = files_with_suffix(seeded.join("ckpt"), ".bin").unwrap();
    assert_eq!(slots.len(), 2, "every-punctuation run fills both slots");
    let slot_names: Vec<_> = slots
        .iter()
        .map(|p| p.file_name().unwrap().to_owned())
        .collect();

    let mut fallbacks = 0;
    for (i, name) in slot_names.iter().enumerate() {
        let case = base_dir(&format!("slots-one-{i}"));
        copy_tree(&seeded, &case);
        corrupt_random_byte(case.join("ckpt").join(name), 42 + i as u64)
            .unwrap()
            .expect("slot file is not empty");
        let inc = build(&case, 1);
        assert!(inc.out.error().is_none(), "one intact slot must recover");
        let rec = inc.ctx.recovery().expect("recovered from surviving slot");
        if rec.fallback.is_some() {
            fallbacks += 1;
        }
        let _ = fs::remove_dir_all(&case);
    }
    assert_eq!(fallbacks, 2, "either slot's corruption is reported");

    let case = base_dir("slots-both");
    copy_tree(&seeded, &case);
    for (i, name) in slot_names.iter().enumerate() {
        corrupt_random_byte(case.join("ckpt").join(name), 77 + i as u64).unwrap();
    }
    let inc = build(&case, 1);
    match inc.out.error() {
        Some(StreamError::RecoveryFailed { detail }) => {
            assert!(!detail.is_empty());
        }
        other => panic!("both slots corrupt must fail typed, got {other:?}"),
    }
    assert!(!inc.out.is_completed());
    assert!(inc.ctx.recovery().is_none());
    let _ = fs::remove_dir_all(&seeded);
    let _ = fs::remove_dir_all(&case);
}

/// `[TumblingWindow(100), SumByKey]`, checkpointing every punctuation: the
/// planner runs the window below the sort, behind a late gate.
fn hoisted_spec() -> impatience_engine::PipelineSpec {
    use impatience_engine::{OpSpec, PipelineSpec};
    let spec = PipelineSpec::new("hoisted")
        .with_checkpoint(1)
        .with_op(OpSpec::TumblingWindow {
            size: TickDuration::ticks(100),
        })
        .with_op(OpSpec::SumByKey);
    assert_eq!(spec.plan().hoisted(), 1);
    spec
}

fn keyed(t: i64, payload: i64) -> Event<i64> {
    Event::keyed(Timestamp::new(t), 1, payload)
}

/// Crash between a punctuation and a late event of the window that is
/// still open. The sorter's own watermark is the *translated* cut (199),
/// which the event's window start (200) clears; only the gate's restored
/// watermark (230) can still drop it.
#[test]
fn hoisted_plan_restores_the_late_gate_watermark() {
    use impatience_engine::PipelineEnv;
    let dir = base_dir("hoisted-gate");
    let spec = hoisted_spec();
    {
        let (out, sink) = Output::new();
        let built = spec
            .build(
                &PipelineEnv::new().with_checkpoint_dir(&dir),
                Box::new(sink),
            )
            .expect("build");
        let push = |m| built.handle.push(m).expect("push");
        push(StreamMessage::batch(vec![keyed(205, 1), keyed(231, 2)]));
        push(StreamMessage::Punctuation(Timestamp::new(230)));
        assert!(out.events().is_empty(), "window 200 is still open");
        // Crash: dropped without completing.
    }
    let registry = MetricsRegistry::new();
    let env = PipelineEnv::new()
        .with_checkpoint_dir(&dir)
        .with_registry(&registry);
    let (out, sink) = Output::new();
    let built = spec.build(&env, Box::new(sink)).expect("rebuild");
    let rec = built.ckpt.as_ref().expect("durable").recovery();
    assert_eq!(rec.expect("restored").messages_seen, 2);
    let push = |m| built.handle.push(m).expect("push");
    push(StreamMessage::batch(vec![keyed(210, 100), keyed(240, 4)]));
    push(StreamMessage::Completed);
    let sums: Vec<i64> = out.events().iter().map(|e| e.payload).collect();
    assert_eq!(sums, vec![1 + 2 + 4], "the event at 210 is behind 230");
    assert_eq!(registry.counter("hoisted.00.sort.late_dropped").get(), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A slot written by the sort-first plan — the same spec lowered by the
/// parent of the planner, reproduced here by stacking the chain by hand —
/// holds no late-gate state. The hoisted plan registers one participant
/// more, so recovery fails typed rather than reading aligned-domain state
/// out of an original-domain snapshot.
#[test]
fn hoisted_plan_refuses_a_sort_first_checkpoint() {
    use impatience_engine::PipelineEnv;
    let dir = base_dir("hoisted-refuse");
    {
        let (handle, s) = input_stream::<i64>();
        let (s, _ctx) = s.checkpointed(&dir, 1).expect("open checkpoint dir");
        let out = s
            .sorted(
                Box::new(ImpatienceSorter::new()),
                &MemoryMeter::new(),
                Default::default(),
            )
            .expect("default policy")
            .tumbling_window(TickDuration::ticks(100))
            .reduce_by_key(|acc, p: i64| *acc = acc.wrapping_add(p))
            .checkpoint_egress()
            .collect_output();
        handle.push_events(vec![keyed(205, 1), keyed(231, 2)]);
        handle.push_punctuation(Timestamp::new(230));
        assert!(out.error().is_none());
    }
    let (out, sink) = Output::new();
    let built = hoisted_spec()
        .build(
            &PipelineEnv::new().with_checkpoint_dir(&dir),
            Box::new(sink),
        )
        .expect("build itself succeeds; recovery reports through the stream");
    match out.error() {
        Some(StreamError::RecoveryFailed { detail }) => assert!(
            detail.contains("2 operator states") && detail.contains("registered 3"),
            "{detail}"
        ),
        other => panic!("a sort-first slot must be refused typed, got {other:?}"),
    }
    assert!(built.ckpt.as_ref().expect("durable").recovery().is_none());
    let _ = fs::remove_dir_all(&dir);
}
