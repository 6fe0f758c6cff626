//! Disk-fault and crash-recovery conformance for the external
//! (spill-to-disk) Impatience sorter.
//!
//! Two suites, together ≥500 seeded cycles, every one deterministic in its
//! seed:
//!
//! * **Sorter-level fault injection** — seeded streams with mid-stream
//!   budget trips (`spill_cold`); on half the seeds a seeded
//!   [`DiskFault`] (short write, torn tail, bit flip) is injected into
//!   the spill directory mid-stream. The contract is an exclusive-or:
//!   either every punctuation cut and the final drain stay byte-identical
//!   to the stable-sort oracle (the damage hit a doomed or unreferenced
//!   file), or exactly one typed [`StreamError::SpillFailed`] surfaces
//!   and nothing mis-sorted is ever emitted. Never an abort.
//!
//! * **Engine-level crash → recover** — a durable budgeted pipeline
//!   (checkpoint gate → external sort under `SpillColdRuns`) is killed at
//!   a seeded point; on half the variants the spill directory is damaged
//!   the way crashes damage it. The second incarnation either recovers —
//!   and `committed prefix ++ recovered output` is byte-identical to an
//!   uncrashed run — or fails with the typed
//!   [`StreamError::RecoveryFailed`]; memory accounting never goes
//!   negative (`memory.over_releases == 0`) in any incarnation.
//!
//! One directed case runs the same pipeline uncrashed at scale: CloudLog
//! under a budget a quarter of its buffered footprint, where spilling
//! alone — no dead letter, shed or forced punctuation — must hold the
//! budget and reproduce the unbudgeted in-memory sort.

use impatience::prelude::*;
use impatience_core::{LatePolicy, MetricsRegistry, ShedPolicy, StreamError, StreamMessage};
use impatience_engine::ops::SortPolicy;
use impatience_engine::{input_stream, punctuate_arrivals, CheckpointCtx, InputHandle, Output};
use impatience_sort::{
    ExternalImpatienceSorter, ExternalSortConfig, OnlineSorter, TieredMergePolicy,
};
use impatience_testkit::crash::{crash_point, files_with_suffix, inject_disk_fault};
use impatience_testkit::{Rng, SeedableRng, StdRng};
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impatience-spillf-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Suite 1: sorter-level disk faults
// ---------------------------------------------------------------------------

const SORTER_SEEDS: u64 = 340;

fn small_blocks(dir: PathBuf) -> ExternalSortConfig {
    let mut cfg = ExternalSortConfig::new(dir);
    cfg.block_bytes = 96;
    cfg.tiered = TieredMergePolicy {
        max_runs_per_tier: 2,
        growth: 4,
        floor_bytes: 512,
    };
    cfg
}

#[derive(Default)]
struct SorterCounts {
    clean: u64,
    faulted: u64,
    injected: u64,
}

/// One sorter-level cycle. Returns normally whatever the damage did —
/// a panic anywhere is a suite failure (faults must never abort).
fn sorter_level_cycle(seed: u64, counts: &mut SorterCounts) {
    let dir = scratch(&format!("sorter-{seed}"));
    let mut sorter: ExternalImpatienceSorter<i64> =
        ExternalImpatienceSorter::with_config(small_blocks(dir.clone()));
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xFA_017);

    // Mostly-advancing stream with coverable stragglers and duplicates.
    let len = rng.gen_range(30usize..160);
    let mut t = 0i64;
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        t += rng.gen_range(0i64..20);
        data.push(if rng.gen_bool(0.2) {
            (t - rng.gen_range(0i64..60)).max(0)
        } else {
            t
        });
    }
    let punct_every = rng.gen_range(3usize..16);
    let lag = rng.gen_range(0i64..40);
    let inject = seed.is_multiple_of(2);
    let inject_at = rng.gen_range(0..len);

    let mut pending: Vec<i64> = Vec::new();
    let mut wm = i64::MIN;
    let mut high = i64::MIN;
    let mut faulted = false;

    let check_fault = |e: &StreamError, seed: u64| {
        assert!(
            matches!(e, StreamError::SpillFailed { .. }),
            "seed {seed}: disk damage surfaced as {e:?}, expected SpillFailed"
        );
    };

    for (i, &x) in data.iter().enumerate() {
        if x > wm {
            sorter.push(x);
            pending.push(x);
            high = high.max(x);
        }
        // Seeded budget trips: spill down to half the state, sometimes all.
        if i % 4 == 3 && rng.gen_bool(0.6) {
            let target = if rng.gen_bool(0.25) {
                0
            } else {
                sorter.state_bytes() / 2
            };
            if let Err(e) = sorter.spill_cold(target) {
                check_fault(&e, seed);
                faulted = true;
                break;
            }
        }
        // Simulated checkpoint commits advance the deferred spill-file GC,
        // so injection targets a realistic mix of live and doomed files.
        if i % 6 == 5 {
            sorter.spill_gc();
        }
        if inject && i == inject_at {
            if let Some((_path, _fault)) = inject_disk_fault(&dir, ".run", seed).unwrap() {
                counts.injected += 1;
            }
        }
        if i % punct_every == punct_every - 1 && high > i64::MIN {
            let cut = high.saturating_sub(lag);
            if cut > wm {
                wm = cut;
                let mut out = Vec::new();
                sorter.punctuate(Timestamp::new(cut), &mut out);
                if let Some(e) = sorter.take_fault() {
                    check_fault(&e, seed);
                    assert!(
                        out.is_empty(),
                        "seed {seed}: a faulted punctuation must emit nothing"
                    );
                    faulted = true;
                    break;
                }
                let mut expect: Vec<i64> = pending.iter().copied().filter(|&v| v <= cut).collect();
                expect.sort();
                assert_eq!(
                    out, expect,
                    "seed {seed}: cut at T={cut} not byte-identical"
                );
                pending.retain(|&v| v > cut);
            }
        }
    }

    if !faulted {
        let mut out = Vec::new();
        sorter.drain_all(&mut out);
        match sorter.take_fault() {
            Some(e) => {
                check_fault(&e, seed);
                assert!(out.is_empty(), "seed {seed}: faulted drain emitted events");
                faulted = true;
            }
            None => {
                let mut expect = pending.clone();
                expect.sort();
                assert_eq!(out, expect, "seed {seed}: drain not byte-identical");
            }
        }
    }

    if faulted {
        counts.faulted += 1;
    } else {
        counts.clean += 1;
    }
    drop(sorter);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn disk_faults_surface_typed_or_leave_output_byte_identical() {
    let mut counts = SorterCounts::default();
    for seed in 0..SORTER_SEEDS {
        sorter_level_cycle(seed, &mut counts);
    }
    // Both sides of the XOR must be well-exercised: plenty of clean
    // oracle-identical runs (all odd seeds at minimum) and plenty of
    // injected faults that actually surfaced as the typed error.
    assert!(counts.injected > 100, "only {} injections", counts.injected);
    assert!(
        counts.clean >= SORTER_SEEDS / 2,
        "only {} clean",
        counts.clean
    );
    assert!(counts.faulted >= 10, "only {} typed faults", counts.faulted);
}

// ---------------------------------------------------------------------------
// Suite 2: engine-level crash → recover with spilling pipelines
// ---------------------------------------------------------------------------

/// Seeds per damage variant; two variants per seed, 340 + 180 ≥ 500 total.
const CRASH_SEEDS: u64 = 90;

/// Sorter-state budget (bytes) for the crash pipelines — small enough that
/// the seeded tapes trip it constantly and cold runs land on disk.
const CRASH_BUDGET: usize = 512;

fn tape(seed: u64) -> Vec<StreamMessage<u32>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5111);
    let n = rng.gen_range(40..140usize);
    let mut t = 100i64;
    let mut arrivals = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.gen_range(0..6i64);
        let sync = if rng.gen_ratio(1, 4) {
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

struct Incarnation<P: Payload = u32> {
    handle: InputHandle<P>,
    ctx: CheckpointCtx,
    out: Output<P>,
    registry: MetricsRegistry,
    _meter: MemoryMeter,
}

fn build(base: &Path, every_n: u32) -> Incarnation {
    build_budgeted(base, every_n, CRASH_BUDGET)
}

/// The durable spilling pipeline under test: checkpoint gate → external
/// Impatience sort under a hard budget with `SpillColdRuns`, metered as
/// `pipeline.00`. The spill directory lives next to the checkpoint
/// directory so both incarnations share it — exactly the crash layout the
/// recovery path must absorb — and committed checkpoints drive the
/// spill-file garbage collector.
fn build_budgeted<P: Payload>(base: &Path, every_n: u32, budget: usize) -> Incarnation<P> {
    let registry = MetricsRegistry::new();
    let meter = MemoryMeter::with_budget(budget);
    meter.bind_over_release_counter(registry.counter("memory.over_releases"));
    let (handle, s) = input_stream::<P>();
    let (s, ctx) = s
        .checkpointed(base.join("ckpt"), every_n)
        .expect("open checkpoint dir");
    let policy = SortPolicy {
        late: LatePolicy::Drop,
        shed: ShedPolicy::SpillColdRuns,
        dead_letters: None,
    };
    let out = s
        .instrument(&registry, "pipeline")
        .sorted(
            Box::new(ExternalImpatienceSorter::new(base.join("spill"))),
            &meter,
            policy,
        )
        .expect("spill sort policy is accepted")
        .checkpoint_egress()
        .collect_output();
    Incarnation {
        handle,
        ctx,
        out,
        registry,
        _meter: meter,
    }
}

fn assert_no_over_release<P: Payload>(inc: &Incarnation<P>, seed: u64, stage: &str) {
    assert_eq!(
        inc.registry.counter("memory.over_releases").get(),
        0,
        "seed {seed}: {stage}: memory accounting went negative"
    );
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// Process death only: spill files and checkpoints intact.
    Clean,
    /// Crash plus a seeded disk fault in the spill directory.
    SpillFault,
}

#[derive(Default)]
struct CrashCounts {
    runs: u64,
    restores: u64,
    fresh_starts: u64,
    typed_failures: u64,
    spill_files_seen: u64,
}

fn crash_cycle(seed: u64, damage: Damage, counts: &mut CrashCounts) {
    let t = tape(seed);
    let every_n = 1 + (seed % 4) as u32;
    let cp = crash_point(seed ^ 0xc4a5_4e11, t.len());
    counts.runs += 1;

    // Uncrashed reference with the identical (budgeted, spilling) config.
    let ref_base = scratch(&format!("ref-{seed}-{damage:?}"));
    let reference = {
        let inc = build(&ref_base, every_n);
        for msg in &t {
            inc.handle.push(msg.clone()).expect("push");
        }
        assert!(inc.out.is_completed(), "seed {seed}: reference completed");
        assert!(
            inc.out.error().is_none(),
            "seed {seed}: {:?}",
            inc.out.error()
        );
        assert_no_over_release(&inc, seed, "reference");
        inc.out
    };

    // Incarnation 1: push up to the crash point, then die.
    let base = scratch(&format!("run-{seed}-{damage:?}"));
    let events_before = {
        let inc = build(&base, every_n);
        for msg in &t[..cp.after_messages] {
            inc.handle.push(msg.clone()).expect("push");
        }
        assert!(inc.out.error().is_none(), "seed {seed}: pre-crash error");
        assert_no_over_release(&inc, seed, "incarnation 1");
        inc.out.events()
    };
    counts.spill_files_seen += files_with_suffix(base.join("spill"), ".run").unwrap().len() as u64;

    if damage == Damage::SpillFault {
        let _ = inject_disk_fault(base.join("spill"), ".run", seed ^ 0xD15C).unwrap();
    }

    // Incarnation 2: recover and resume the tape.
    let inc = build(&base, every_n);
    if let Some(err) = inc.out.error() {
        assert!(
            matches!(err, StreamError::RecoveryFailed { .. }),
            "seed {seed} {damage:?}: unexpected error {err:?}"
        );
        assert_eq!(
            damage,
            Damage::SpillFault,
            "seed {seed}: recovery failed without spill damage"
        );
        assert!(!inc.out.is_completed(), "no completion after typed failure");
        counts.typed_failures += 1;
        let _ = fs::remove_dir_all(&ref_base);
        let _ = fs::remove_dir_all(&base);
        return;
    }

    let rec = inc.ctx.recovery();
    match &rec {
        Some(_) => counts.restores += 1,
        None => counts.fresh_starts += 1,
    }
    let m = rec.as_ref().map_or(0, |r| r.messages_seen) as usize;
    let p = rec.as_ref().map_or(0, |r| r.egress_events) as usize;
    assert!(
        p <= events_before.len(),
        "seed {seed} {damage:?}: committed prefix {p} beyond {} crashed events",
        events_before.len()
    );
    // The source re-sends everything the recovered checkpoint has not
    // covered (no WAL in this suite: the tape is the durable source).
    for msg in t.iter().skip(m) {
        inc.handle.push(msg.clone()).expect("push");
    }
    assert!(
        inc.out.error().is_none(),
        "seed {seed} {damage:?}: {:?}",
        inc.out.error()
    );
    if cp.after_messages < t.len() || m < t.len() {
        assert!(
            inc.out.is_completed(),
            "seed {seed} {damage:?}: recovered run did not complete (m={m} cp={} len={})",
            cp.after_messages,
            t.len()
        );
    }
    assert_no_over_release(&inc, seed, "incarnation 2");

    let combined: Vec<Event<u32>> = events_before
        .iter()
        .take(p)
        .cloned()
        .chain(inc.out.events())
        .collect();
    assert_eq!(
        reference.events(),
        combined,
        "seed {seed} {damage:?} every_n {every_n} crash@{}/{}: recovered output diverges",
        cp.after_messages,
        t.len()
    );

    let _ = fs::remove_dir_all(&ref_base);
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn crashed_spilling_pipelines_recover_byte_identical_or_fail_typed() {
    let mut counts = CrashCounts::default();
    for seed in 0..CRASH_SEEDS {
        crash_cycle(seed, Damage::Clean, &mut counts);
        crash_cycle(seed, Damage::SpillFault, &mut counts);
    }
    assert_eq!(counts.runs, CRASH_SEEDS * 2);
    assert!(counts.restores > 20, "only {} restores", counts.restores);
    assert!(counts.fresh_starts > 0, "no pre-checkpoint crash seen");
    assert!(
        counts.spill_files_seen > 50,
        "budget never tripped into spilling ({} files seen)",
        counts.spill_files_seen
    );
}

/// Spilling alone holds a budget the buffered footprint exceeds 4×, and
/// loses nothing. The reorder latency is half the stream's timespan, so
/// roughly half the dataset is in flight at the peak while the budget
/// admits a quarter: the spill path must carry the difference, with no
/// help from the lossy rungs of the ladder (dead letters, sheds) or from
/// forced punctuations, and emit what the unbudgeted in-memory sorter
/// emits (timestamps; the two sorters order ties differently).
#[test]
fn spilling_alone_holds_a_4x_over_budget_losslessly() {
    let ds = generate_cloudlog(&CloudLogConfig::sized(60_000));
    let span = ds.events.iter().map(|e| e.sync_time.ticks()).max();
    let budget = ds.len() * core::mem::size_of::<Event<EvalPayload>>() / 4;
    let ingress = IngressPolicy {
        punctuation_frequency: 10_000,
        reorder_latency: TickDuration::ticks((span.unwrap_or(1) / 2).max(1)),
        batch_size: 4_096,
    };
    let tape = punctuate_arrivals(ds.events, &ingress);
    let times = |out: &Output<EvalPayload>| -> Vec<i64> {
        assert!(out.error().is_none(), "{:?}", out.error());
        assert!(out.is_completed());
        out.events().iter().map(|e| e.sync_time.ticks()).collect()
    };

    let (handle, s) = input_stream::<EvalPayload>();
    let reference = s
        .sorted(
            Box::new(ImpatienceSorter::new()),
            &MemoryMeter::new(),
            Default::default(),
        )
        .expect("default sort policy")
        .collect_output();
    for msg in &tape {
        handle.push(msg.clone()).expect("push");
    }

    let base = scratch("lossless");
    let inc = build_budgeted::<EvalPayload>(&base, 16, budget);
    for msg in &tape {
        inc.handle.push(msg.clone()).expect("push");
    }
    assert_eq!(times(&inc.out), times(&reference));

    let counter = |name: &str| inc.registry.counter(name).get();
    assert_eq!(counter("pipeline.00.sort.events_in"), 60_000);
    assert_eq!(counter("pipeline.00.sort.dead_lettered"), 0);
    assert_eq!(counter("pipeline.00.sort.shed_events"), 0);
    assert_eq!(
        counter("pipeline.00.sort.forced_punctuations"),
        0,
        "spilling alone must hold the budget"
    );
    assert_no_over_release(&inc, 0, "lossless run");
    let gauge = |name: &str| inc.registry.gauge(name);
    let state_hwm = gauge("pipeline.00.sorter.state_bytes").high_water();
    assert!(
        state_hwm <= budget as i64,
        "state_bytes high water {state_hwm} over the {budget}-byte budget"
    );
    assert!(gauge("pipeline.00.sorter.spill.runs_spilled").get() > 0);
    let _ = fs::remove_dir_all(&base);
}
