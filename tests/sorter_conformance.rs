//! Differential conformance suite: every online sorter in the workspace is
//! driven over ≥1000 seeded punctuated streams and checked event-for-event
//! against a stable `Vec::sort_by` oracle — per punctuation segment, not
//! just on the final output.
//!
//! Checked per stream and per sorter:
//!
//! * each `punctuate(T)` emits exactly the buffered events with `ts <= T`,
//!   in nondecreasing order (the paper's punctuation cut);
//! * nothing with `ts > T` leaks out early;
//! * `drain_all` flushes the rest and leaves no residue;
//! * the concatenated output equals the stably sorted accepted input.
//!
//! Streams deliberately cover duplicate timestamps (tiny value domains),
//! empty and singleton inputs, sorted/reversed extremes, and varied
//! punctuation cadences and lags.

use impatience_core::{
    EventTimed, SnapshotReader, SnapshotWriter, StateCodec, TickDuration, Timestamp,
};
use impatience_sort::{
    online_sorter_by_name, BucketSorter, CutBuffer, ExternalImpatienceSorter, ExternalSortConfig,
    HeapsortAlgorithm, ImpatienceSorter, OnlineSorter, TieredMergePolicy, ONLINE_SORTER_NAMES,
};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};

/// A bucket sorter guessing buckets 16 ticks apart: the streams below are
/// not aligned to any grid, so its guess misses as often as it hits.
fn bucket_sorter<T: EventTimed + StateCodec>() -> BucketSorter<T> {
    BucketSorter::new(TickDuration::ticks(16))
}

/// The 5 factory sorters, the generic incremental adapter
/// (`CutBuffer<_, HeapsortAlgorithm>`) and the bucket sorter, which the
/// factory does not name.
fn all_sorters() -> Vec<(&'static str, Box<dyn OnlineSorter<i64>>)> {
    let mut v: Vec<(&'static str, Box<dyn OnlineSorter<i64>>)> = Vec::new();
    for name in ONLINE_SORTER_NAMES {
        v.push((name, online_sorter_by_name::<i64>(name).unwrap()));
    }
    v.push((
        "Incremental(Heapsort)",
        Box::new(CutBuffer::<i64, HeapsortAlgorithm>::new()),
    ));
    v.push(("Bucket", Box::new(bucket_sorter())));
    v
}

/// One generated stream: event timestamps plus a punctuation schedule.
struct StreamCase {
    data: Vec<i64>,
    punct_every: usize,
    lag: i64,
}

fn generate_case(seed: u64) -> StreamCase {
    let mut rng = StdRng::seed_from_u64(seed);
    // Cycle through shapes so duplicates, near-sorted, reversed, and tiny
    // inputs all appear many times across the 1000+ streams.
    let len = match seed % 8 {
        0 => 0,                          // empty stream
        1 => 1,                          // singleton
        2 => rng.gen_range(2usize..6),   // tiny
        _ => rng.gen_range(6usize..160), // general
    };
    let domain: i64 = match seed % 5 {
        0 => 3, // heavy duplicate timestamps
        1 => 12,
        _ => 5_000,
    };
    let mut data: Vec<i64> = (0..len).map(|_| rng.gen_range(0..domain.max(1))).collect();
    match seed % 7 {
        5 => data.sort_unstable(),                   // already sorted
        6 => data.sort_unstable_by(|a, b| b.cmp(a)), // fully reversed
        _ => {}
    }
    StreamCase {
        data,
        punct_every: rng.gen_range(1usize..24),
        lag: rng.gen_range(0i64..domain.max(1)),
    }
}

/// Drives `sorter` through `case`, verifying the punctuation cut against a
/// stable oracle at every punctuation and at the final drain.
fn run_conformance(name: &str, sorter: &mut dyn OnlineSorter<i64>, case: &StreamCase, seed: u64) {
    let mut pending: Vec<i64> = Vec::new(); // accepted, not yet emitted
    let mut emitted_total = 0usize;
    let mut wm = i64::MIN;
    let mut high = i64::MIN;

    for (i, &x) in case.data.iter().enumerate() {
        // The ingress contract: events at or below the watermark were
        // already sealed by a punctuation and must not be pushed.
        if x > wm {
            sorter.push(x);
            pending.push(x);
            high = high.max(x);
        }
        if i % case.punct_every == case.punct_every - 1 && high > i64::MIN {
            let t = high.saturating_sub(case.lag);
            if t > wm {
                wm = t;
                let mut out = Vec::new();
                sorter.punctuate(Timestamp::new(t), &mut out);

                // Oracle: the stable sort of everything accepted so far
                // that falls at or below the cut.
                let mut expect: Vec<i64> = pending.iter().copied().filter(|&v| v <= t).collect();
                expect.sort();
                assert_eq!(
                    out, expect,
                    "{name}: punctuation cut at T={t} mismatch (seed {seed})"
                );
                assert!(
                    out.iter().all(|&v| v <= t),
                    "{name}: emitted an event above the punctuation (seed {seed})"
                );
                pending.retain(|&v| v > t);
                emitted_total += out.len();
            }
        }
    }

    let mut out = Vec::new();
    sorter.drain_all(&mut out);
    let mut expect = pending.clone();
    expect.sort();
    assert_eq!(out, expect, "{name}: final drain mismatch (seed {seed})");
    emitted_total += out.len();

    assert_eq!(
        sorter.buffered_len(),
        0,
        "{name}: residue after drain (seed {seed})"
    );
    let accepted = {
        // Recompute the accepted count with the same watermark replay.
        let mut wm = i64::MIN;
        let mut high = i64::MIN;
        let mut n = 0usize;
        for (i, &x) in case.data.iter().enumerate() {
            if x > wm {
                n += 1;
                high = high.max(x);
            }
            if i % case.punct_every == case.punct_every - 1 && high > i64::MIN {
                let t = high.saturating_sub(case.lag);
                if t > wm {
                    wm = t;
                }
            }
        }
        n
    };
    assert_eq!(
        emitted_total, accepted,
        "{name}: event count not conserved (seed {seed})"
    );
}

#[test]
fn all_sorters_conform_on_seeded_streams() {
    const STREAMS: u64 = 1_000;
    for seed in 0..STREAMS {
        let case = generate_case(seed);
        for (name, mut sorter) in all_sorters() {
            run_conformance(name, sorter.as_mut(), &case, seed);
        }
    }
}

/// Drives `sorter` through a fault-injected stream: the schedule sheds the
/// oldest run at seeded positions, and shed events leave the oracle
/// multiset — whatever remains must still match the stable-sort oracle at
/// every cut and at the final drain.
fn run_chaos_conformance(
    name: &str,
    sorter: &mut dyn OnlineSorter<i64>,
    data: &[i64],
    punct_every: usize,
    lag: i64,
    shed_prob: f64,
    seed: u64,
) {
    // Reseeded per sorter so every sorter sees the identical shed schedule.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut pending: Vec<i64> = Vec::new();
    let mut wm = i64::MIN;
    let mut high = i64::MIN;

    for (i, &x) in data.iter().enumerate() {
        if x > wm {
            sorter.push(x);
            pending.push(x);
            high = high.max(x);
        }
        if shed_prob > 0.0 && i.is_multiple_of(7) && rng.gen_bool(shed_prob) {
            let before = sorter.buffered_len();
            let mut shed = Vec::new();
            let n = sorter.shed_oldest_capped(usize::MAX, &mut shed);
            assert_eq!(n, shed.len(), "{name}: shed count ≠ items (seed {seed})");
            assert_eq!(
                sorter.buffered_len(),
                before - n,
                "{name}: buffered_len out of sync after shed (seed {seed})"
            );
            assert!(
                shed.windows(2).all(|w| w[0] <= w[1]),
                "{name}: shed run not sorted (seed {seed})"
            );
            for v in shed {
                let pos = pending.iter().position(|&p| p == v).unwrap_or_else(|| {
                    panic!("{name}: shed event {v} was never buffered (seed {seed})")
                });
                pending.swap_remove(pos);
            }
        }
        if i % punct_every == punct_every - 1 && high > i64::MIN {
            let cut = high.saturating_sub(lag);
            if cut > wm {
                wm = cut;
                let mut out = Vec::new();
                sorter.punctuate(Timestamp::new(cut), &mut out);
                let mut expect: Vec<i64> = pending.iter().copied().filter(|&v| v <= cut).collect();
                expect.sort();
                assert_eq!(
                    out, expect,
                    "{name}: chaos cut at T={cut} mismatch (seed {seed})"
                );
                pending.retain(|&v| v > cut);
            }
        }
    }

    let mut out = Vec::new();
    sorter.drain_all(&mut out);
    let mut expect = pending.clone();
    expect.sort();
    assert_eq!(
        out, expect,
        "{name}: chaos final drain mismatch (seed {seed})"
    );
    assert_eq!(
        sorter.buffered_len(),
        0,
        "{name}: residue after chaos drain (seed {seed})"
    );
}

#[test]
fn all_sorters_conform_under_injected_faults() {
    const STREAMS: u64 = 1_000;
    for seed in 0..STREAMS {
        // A chaos generator on top of the plain one: mostly-advancing data
        // with injected duplicates and beyond-latency stragglers (which the
        // watermark filter rejects, as ingress would), plus — on a third of
        // the streams — mid-stream shedding of the oldest run.
        let mut rng = StdRng::seed_from_u64(0xC4A0_5EED ^ seed);
        let len = rng.gen_range(10usize..200);
        let mut t = 0i64;
        let mut data: Vec<i64> = Vec::with_capacity(len + len / 8);
        for _ in 0..len {
            t += rng.gen_range(0i64..25);
            let x = if rng.gen_bool(0.08) {
                t - rng.gen_range(500i64..5_000) // deep straggler
            } else {
                t
            };
            data.push(x);
            if rng.gen_bool(0.06) {
                data.push(x); // injected duplicate
            }
        }
        let punct_every = rng.gen_range(1usize..24);
        let lag = rng.gen_range(0i64..100);
        let shed_prob = if seed % 3 == 0 { 0.3 } else { 0.0 };

        for (name, mut sorter) in all_sorters() {
            run_chaos_conformance(
                name,
                sorter.as_mut(),
                &data,
                punct_every,
                lag,
                shed_prob,
                seed,
            );
        }
    }
}

/// Per-seed spill directory and a config that forces multi-block run
/// files and frequent tiered compactions even on tiny conformance streams.
fn external_config(seed: u64) -> ExternalSortConfig {
    let dir =
        std::env::temp_dir().join(format!("impatience-conform-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ExternalSortConfig::new(dir);
    cfg.block_bytes = 96;
    cfg.tiered = TieredMergePolicy {
        max_runs_per_tier: 2,
        growth: 4,
        floor_bytes: 512,
    };
    cfg
}

/// Drives the external (spill-to-disk) Impatience sorter through `case`
/// with seeded **mid-stream budget trips** (`spill_cold`, the call
/// `ShedPolicy::SpillColdRuns` makes under memory pressure) and — on a
/// third of the seeds — a mid-stream snapshot/restore into a fresh sorter
/// over the same spill directory. Output must stay byte-identical to the
/// stable-sort oracle at every punctuation cut and at the final drain.
fn run_external_conformance(case: &StreamCase, seed: u64) {
    let cfg = external_config(seed);
    let dir = cfg.spill_dir.clone();
    let mut sorter: ExternalImpatienceSorter<i64> = ExternalImpatienceSorter::with_config(cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5B11_0D15);
    let restore_at = (seed.is_multiple_of(3) && !case.data.is_empty())
        .then(|| rng.gen_range(0..case.data.len()));

    let mut pending: Vec<i64> = Vec::new();
    let mut emitted_total = 0usize;
    let mut wm = i64::MIN;
    let mut high = i64::MIN;

    for (i, &x) in case.data.iter().enumerate() {
        if x > wm {
            sorter.push(x);
            pending.push(x);
            high = high.max(x);
        }
        // A seeded budget trip: spill down to roughly half the current
        // state (sometimes to zero — freeze everything).
        if i % 5 == 4 && rng.gen_bool(0.4) {
            let target = if rng.gen_bool(0.25) {
                0
            } else {
                sorter.state_bytes() / 2
            };
            sorter
                .spill_cold(target)
                .unwrap_or_else(|e| panic!("external: spill failed (seed {seed}): {e}"));
        }
        // Crash/resume mid-stream: snapshot, rebuild over the same spill
        // directory, restore, continue. The oracle does not change.
        if restore_at == Some(i) {
            let mut w = SnapshotWriter::new();
            sorter
                .encode_state(&mut w)
                .unwrap_or_else(|e| panic!("external: encode failed (seed {seed}): {e:?}"));
            let body = w.into_body();
            let mut fresh: ExternalImpatienceSorter<i64> =
                ExternalImpatienceSorter::with_config(external_config_at(dir.clone()));
            fresh
                .restore_state(&mut SnapshotReader::new(&body))
                .unwrap_or_else(|e| panic!("external: restore failed (seed {seed}): {e:?}"));
            assert_eq!(
                fresh.buffered_len(),
                sorter.buffered_len(),
                "external: restore lost events (seed {seed})"
            );
            sorter = fresh;
        }
        if i % case.punct_every == case.punct_every - 1 && high > i64::MIN {
            let t = high.saturating_sub(case.lag);
            if t > wm {
                wm = t;
                let mut out = Vec::new();
                sorter.punctuate(Timestamp::new(t), &mut out);
                assert!(
                    sorter.take_fault().is_none(),
                    "external: unexpected disk fault (seed {seed})"
                );
                let mut expect: Vec<i64> = pending.iter().copied().filter(|&v| v <= t).collect();
                expect.sort();
                assert_eq!(
                    out, expect,
                    "external: spill/merge cut at T={t} not byte-identical (seed {seed})"
                );
                pending.retain(|&v| v > t);
                emitted_total += out.len();
            }
        }
    }

    let mut out = Vec::new();
    sorter.drain_all(&mut out);
    assert!(
        sorter.take_fault().is_none(),
        "external: disk fault on drain (seed {seed})"
    );
    let mut expect = pending.clone();
    expect.sort();
    assert_eq!(
        out, expect,
        "external: final drain not byte-identical (seed {seed})"
    );
    emitted_total += out.len();
    assert_eq!(
        sorter.buffered_len(),
        0,
        "external: residue after drain (seed {seed})"
    );
    let _ = emitted_total;
    drop(sorter);
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`external_config`] over an explicit directory (for the restore path,
/// which must reopen the *same* spill directory).
fn external_config_at(dir: std::path::PathBuf) -> ExternalSortConfig {
    let mut cfg = ExternalSortConfig::new(dir);
    cfg.block_bytes = 96;
    cfg.tiered = TieredMergePolicy {
        max_runs_per_tier: 2,
        growth: 4,
        floor_bytes: 512,
    };
    cfg
}

#[test]
fn external_sorter_conforms_with_spills_and_restores() {
    const STREAMS: u64 = 1_000;
    for seed in 0..STREAMS {
        let case = generate_case(seed);
        run_external_conformance(&case, seed);
    }
}

type Arrival = (Timestamp, u32);

/// Punctuates `sorter` at `t`: does the cut equal the stable sort by time
/// of what `pending` holds at or below `t`?
fn cut_is_stable(
    sorter: &mut dyn OnlineSorter<Arrival>,
    pending: &mut Vec<Arrival>,
    t: Timestamp,
) -> bool {
    let mut out = Vec::new();
    sorter.punctuate(t, &mut out);
    let (mut expect, rest): (Vec<_>, Vec<_>) = pending.iter().partition(|(at, _)| *at <= t);
    expect.sort_by_key(|(at, _)| *at);
    *pending = rest;
    out == expect
}

/// Drives `sorter` through a stream of `(time, arrival)` items and checks
/// every cut against the *stable* sort by time. Returns whether the
/// output matched it everywhere.
fn stable_everywhere(sorter: &mut dyn OnlineSorter<Arrival>, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57AB_1E00);
    let mut pending: Vec<Arrival> = Vec::new();
    let (mut wm, mut high) = (i64::MIN, i64::MIN);
    let mut stable = true;
    for arrival in 0..rng.gen_range(20u32..300) {
        // Window starts with heavy repetition, and a few times off the grid.
        let t = if rng.gen_bool(0.1) {
            rng.gen_range(0i64..800)
        } else {
            rng.gen_range(0i64..8) * 100
        };
        if t > wm {
            sorter.push((Timestamp::new(t), arrival));
            pending.push((Timestamp::new(t), arrival));
            high = high.max(t);
        }
        if arrival % 17 == 16 && high - 300 > wm {
            wm = high - 300;
            stable &= cut_is_stable(sorter, &mut pending, Timestamp::new(wm));
        }
    }
    stable & cut_is_stable(sorter, &mut pending, Timestamp::MAX)
}

#[test]
fn bucket_sorter_keeps_arrival_order_among_equal_times() {
    let mut impatience_unstable = 0;
    for seed in 0..200 {
        assert!(
            stable_everywhere(&mut bucket_sorter(), seed),
            "Bucket: not arrival-stable (seed {seed})"
        );
        if !stable_everywhere(&mut ImpatienceSorter::new(), seed) {
            impatience_unstable += 1;
        }
    }
    // The check has teeth: Impatience's merge order among equal times is
    // not arrival order.
    assert!(impatience_unstable > 100, "{impatience_unstable} of 200");
}

#[test]
fn outliers_near_both_ends_of_i64_sort_like_the_rest() {
    let near_min = |d: i64| i64::MIN + 1 + d;
    let near_max = |d: i64| i64::MAX - d;
    let mut rng = StdRng::seed_from_u64(0x0071_1E25);
    let data: Vec<i64> = (0..400)
        .map(|_| match rng.gen_range(0u32..10) {
            0 => near_min(rng.gen_range(0i64..3)),
            1 => near_max(rng.gen_range(0i64..3)),
            _ => rng.gen_range(0i64..50) * 16,
        })
        .collect();
    let case = StreamCase {
        data,
        punct_every: 23,
        lag: 400,
    };
    for (name, mut sorter) in all_sorters() {
        run_conformance(name, sorter.as_mut(), &case, 0);
    }
    // Ten distinct outliers and fifty grid points: the buckets between
    // them are never materialised.
    let mut s = bucket_sorter();
    for &x in &case.data {
        s.push(x);
    }
    assert!(s.bucket_count() <= 56, "{} buckets", s.bucket_count());
}

#[test]
fn bucket_sorter_conforms_across_a_mid_stream_snapshot_restore() {
    for seed in 0..1_000u64 {
        let case = generate_case(seed);
        if case.data.is_empty() {
            continue;
        }
        let restore_at = StdRng::seed_from_u64(seed ^ 0xB0C4).gen_range(0..case.data.len());
        let mut sorter: BucketSorter<i64> = bucket_sorter();
        let (mut pending, mut wm, mut high) = (Vec::new(), i64::MIN, i64::MIN);
        for (i, &x) in case.data.iter().enumerate() {
            if x > wm {
                sorter.push(x);
                pending.push(x);
                high = high.max(x);
            }
            if i == restore_at {
                let mut w = SnapshotWriter::new();
                sorter.encode_state(&mut w).expect("encodes");
                let body = w.into_body();
                let mut fresh = bucket_sorter();
                let mut r = SnapshotReader::new(&body);
                fresh.restore_state(&mut r).expect("restores");
                assert!(r.is_exhausted(), "Bucket: trailing bytes (seed {seed})");
                assert_eq!(fresh.buffered_len(), sorter.buffered_len());
                assert_eq!(fresh.state_bytes() > 0, sorter.state_bytes() > 0);
                sorter = fresh;
            }
            if i % case.punct_every == case.punct_every - 1 && high > i64::MIN {
                let t = high.saturating_sub(case.lag);
                if t > wm {
                    wm = t;
                    let mut out = Vec::new();
                    sorter.punctuate(Timestamp::new(t), &mut out);
                    let mut expect: Vec<i64> =
                        pending.iter().copied().filter(|&v| v <= t).collect();
                    expect.sort();
                    assert_eq!(
                        out, expect,
                        "Bucket: cut at T={t} after restore (seed {seed})"
                    );
                    pending.retain(|&v| v > t);
                }
            }
        }
        let mut out = Vec::new();
        sorter.drain_all(&mut out);
        pending.sort();
        assert_eq!(
            out, pending,
            "Bucket: final drain after restore (seed {seed})"
        );
    }
}

#[test]
fn empty_and_singleton_streams() {
    for (name, mut sorter) in all_sorters() {
        // Empty: drain without any input.
        let mut out = Vec::new();
        sorter.drain_all(&mut out);
        assert!(out.is_empty(), "{name}: output from empty stream");
        assert_eq!(sorter.buffered_len(), 0, "{name}");
    }
    for (name, mut sorter) in all_sorters() {
        // Singleton: one event, punctuate exactly at it (ts <= T emits it).
        sorter.push(7);
        let mut out = Vec::new();
        sorter.punctuate(Timestamp::new(7), &mut out);
        assert_eq!(out, vec![7], "{name}: ts == T must be emitted");
        sorter.drain_all(&mut out);
        assert_eq!(out, vec![7], "{name}");
    }
}

#[test]
fn punctuation_boundary_is_inclusive_with_duplicates() {
    // Duplicate timestamps straddling the cut: all copies at T emit, all
    // copies above T stay buffered.
    for (name, mut sorter) in all_sorters() {
        for x in [5, 3, 5, 8, 3, 5, 8, 1] {
            sorter.push(x);
        }
        let mut out = Vec::new();
        sorter.punctuate(Timestamp::new(5), &mut out);
        assert_eq!(out, vec![1, 3, 3, 5, 5, 5], "{name}");
        assert_eq!(sorter.buffered_len(), 2, "{name}: the two 8s remain");
        let mut rest = Vec::new();
        sorter.drain_all(&mut rest);
        assert_eq!(rest, vec![8, 8], "{name}");
    }
}

#[test]
fn repeated_punctuations_without_new_input() {
    for (name, mut sorter) in all_sorters() {
        for x in [10, 30, 20] {
            sorter.push(x);
        }
        let mut out = Vec::new();
        sorter.punctuate(Timestamp::new(15), &mut out);
        assert_eq!(out, vec![10], "{name}");
        out.clear();
        // A later punctuation with nothing new below it still must not
        // emit anything extra...
        sorter.punctuate(Timestamp::new(15), &mut out);
        assert!(out.is_empty(), "{name}: re-punctuation re-emitted events");
        // ...and advancing it releases the rest in order.
        sorter.punctuate(Timestamp::new(100), &mut out);
        assert_eq!(out, vec![20, 30], "{name}");
    }
}
