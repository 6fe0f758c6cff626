//! Property tests for the sorting layer.
//!
//! Core contracts: every sorter is a permutation-preserving, order-correct
//! sort; every online sorter honours the punctuation contract under random
//! punctuation schedules; the Propositions 3.1–3.3 run-count bounds hold;
//! Impatience sort's order among *equal* timestamps is run order, not
//! arrival order.
//!
//! On failure the harness prints the failing case seed; replay with
//! `IMPATIENCE_PROP_SEED=0x<seed> cargo test <test name>`.

use impatience_core::{Event, Timestamp};
use impatience_sort::*;
use impatience_testkit::prop::vec;
use impatience_testkit::props;

/// Drives an online sorter with a random punctuation schedule derived from
/// `punct_gaps`; returns (accepted input, emitted output).
fn drive_online(
    sorter: &mut dyn OnlineSorter<i64>,
    data: &[i64],
    punct_every: usize,
    lag: i64,
) -> (Vec<i64>, Vec<i64>) {
    let mut out = Vec::new();
    let mut accepted = Vec::new();
    let mut wm = i64::MIN;
    let mut high = i64::MIN;
    for (i, &x) in data.iter().enumerate() {
        if x > wm {
            sorter.push(x);
            accepted.push(x);
            high = high.max(x);
        }
        if punct_every > 0 && i % punct_every == punct_every - 1 && high > i64::MIN {
            let p = high.saturating_sub(lag);
            if p > wm {
                wm = p;
                sorter.punctuate(Timestamp::new(p), &mut out);
            }
        }
    }
    sorter.drain_all(&mut out);
    (accepted, out)
}

/// Arrival-indexed events over `times`, pushed into a fresh Impatience
/// sorter with a punctuation `lag` behind the high watermark every
/// `punct_every` arrivals. Returns each cut's output and, from a model of
/// the partition phase kept alongside (leftmost run whose tail is not
/// above the item; emptied runs vanish at a cut), the run every accepted
/// arrival index landed in.
fn drive_tagged(times: &[i64], punct_every: usize, lag: i64) -> (Vec<Vec<Event<u32>>>, Vec<usize>) {
    let mut sorter: ImpatienceSorter<Event<u32>> = ImpatienceSorter::new();
    // Model: (run id, live timestamps), tails descending; ids never reused.
    let mut runs: Vec<(usize, Vec<i64>)> = Vec::new();
    let mut next_id = 0;
    let mut run_of = vec![usize::MAX; times.len()];
    let mut cuts = Vec::new();
    let (mut wm, mut high) = (i64::MIN, i64::MIN);
    for (i, &t) in times.iter().enumerate() {
        if t > wm {
            sorter.push(Event::point(Timestamp::new(t), i as u32));
            high = high.max(t);
            let at = runs.partition_point(|(_, r)| *r.last().unwrap() > t);
            if at == runs.len() {
                runs.push((next_id, Vec::new()));
                next_id += 1;
            }
            runs[at].1.push(t);
            run_of[i] = runs[at].0;
        }
        if i % punct_every == punct_every - 1 && high.saturating_sub(lag) > wm {
            wm = high - lag;
            let mut out = Vec::new();
            sorter.punctuate(Timestamp::new(wm), &mut out);
            cuts.push(out);
            for (_, r) in &mut runs {
                r.retain(|&t| t > wm);
            }
            runs.retain(|(_, r)| !r.is_empty());
        }
    }
    let mut out = Vec::new();
    sorter.drain_all(&mut out);
    cuts.push(out);
    (cuts, run_of)
}

/// What ROADMAP aim 3 used to claim and the sorter does not do: Huffman
/// merging pairs non-adjacent runs and ties favour the first operand, so
/// equal timestamps from *different* runs come out in merge order. Kept as
/// a witness: if an arrival-stable merge lands (ROADMAP item 5), this
/// fails and the texts saying "not arrival-stable" must change with it.
#[test]
fn impatience_is_not_arrival_stable_across_runs() {
    use impatience_testkit::rng::{Rng, SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(0x7135);
    let mut unstable = 0;
    for _ in 0..20 {
        let times: Vec<i64> = (0..400).map(|_| rng.gen_range(0i64..40)).collect();
        let (cuts, _) = drive_tagged(&times, usize::MAX, 0);
        let mut stable = cuts[0].clone();
        stable.sort_by_key(|e| (e.sync_time, e.payload));
        unstable += usize::from(cuts[0] != stable);
    }
    assert!(unstable > 0, "every drain matched the arrival-stable sort");
}

props! {
    cases = 128;

    fn impatience_tie_order_is_run_order_and_repeats(
        times in vec(0i64..40, 1..400),
        punct_every in 1usize..60,
        lag in 0i64..30,
    ) {
        let (cuts, run_of) = drive_tagged(&times, punct_every, lag);
        for out in &cuts {
            // Sorted on time, and items of one run keep arrival order —
            // which settles every tie inside a run.
            assert!(out.windows(2).all(|w| w[0].sync_time <= w[1].sync_time));
            let mut last_of_run = std::collections::HashMap::new();
            for e in out {
                let run = run_of[e.payload as usize];
                assert_ne!(run, usize::MAX, "a rejected arrival was emitted");
                if let Some(prev) = last_of_run.insert(run, e.payload) {
                    assert!(prev < e.payload, "run {run}: {prev} emitted before {}", e.payload);
                }
            }
        }
        // Ties across runs follow merge shape, which the input fixes.
        assert_eq!(drive_tagged(&times, punct_every, lag).0, cuts);
    }

    fn online_sorters_sort_correctly(
        data in vec(-10_000i64..10_000, 0..500),
        punct_every in 1usize..60,
        lag in 0i64..5_000,
    ) {
        for name in ONLINE_SORTER_NAMES {
            let mut s = online_sorter_by_name::<i64>(name).unwrap();
            let (accepted, out) = drive_online(s.as_mut(), &data, punct_every, lag);
            let mut expect = accepted.clone();
            expect.sort_unstable();
            assert_eq!(out, expect, "{name} output mismatch");
            assert_eq!(s.buffered_len(), 0, "{name} left residue");
        }
    }

    fn online_outputs_identical_across_algorithms(
        data in vec(0i64..2_000, 1..400),
        punct_every in 5usize..40,
    ) {
        let mut reference: Option<Vec<i64>> = None;
        for name in ONLINE_SORTER_NAMES {
            let mut s = online_sorter_by_name::<i64>(name).unwrap();
            let (_, out) = drive_online(s.as_mut(), &data, punct_every, 300);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out, "{name} diverged"),
            }
        }
    }

    fn offline_algorithms_match_std_sort(
        data in vec(i64::MIN..i64::MAX, 0..600),
    ) {
        let mut expect = data.clone();
        expect.sort_unstable();

        let mut v = data.clone();
        quicksort(&mut v);
        assert_eq!(v, expect, "quicksort");

        let mut v = data.clone();
        timsort(&mut v);
        assert_eq!(v, expect, "timsort");

        let mut v = data.clone();
        heapsort(&mut v);
        assert_eq!(v, expect, "heapsort");

        let (v, _) = PatienceSort::sort_counting_runs(data.clone());
        assert_eq!(v, expect, "patience");
    }

    fn timsort_is_stable(
        times in vec(0i64..20, 0..400),
    ) {
        let mut v: Vec<(i64, usize)> = times.into_iter().enumerate()
            .map(|(i, t)| (t, i)).collect();
        timsort(&mut v);
        for w in v.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    fn merge_policies_agree(
        runs in vec(vec(-500i64..500, 0..50), 0..8),
    ) {
        let mut sorted_runs = runs;
        for r in &mut sorted_runs { r.sort_unstable(); }
        let mut expect: Vec<i64> = sorted_runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        for policy in [MergePolicy::Huffman, MergePolicy::Sequential] {
            assert_eq!(merge_runs(sorted_runs.clone(), policy), expect, "{policy:?}");
        }
    }

    fn proposition_3_1_interleaved_bound(
        data in vec(-5_000i64..5_000, 0..400),
    ) {
        // k <= minimum interleave of the input.
        let k = PatienceSort::partition_run_count(&data);
        let d = impatience_disorder::min_interleaved_runs(&data);
        assert!(k <= d, "k={k} > interleaved={d}");
        // Together with the propositions, Patience achieves exactly the
        // minimum here because the greedy pile cover is the same greedy.
        assert_eq!(k, d);
    }

    fn proposition_3_2_distinct_bound(
        data in vec(0i64..12, 0..400),
    ) {
        let k = PatienceSort::partition_run_count(&data);
        let mut distinct = data.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(k <= distinct.len().max(1) || data.is_empty());
        assert!(k <= 12);
    }

    fn proposition_3_3_natural_runs_bound(
        data in vec(-5_000i64..5_000, 1..400),
    ) {
        let k = PatienceSort::partition_run_count(&data);
        let natural = impatience_disorder::count_natural_runs(&data);
        assert!(k <= natural, "k={k} > runs={natural}");
    }

    fn impatience_configs_equivalent_output(
        data in vec(0i64..3_000, 0..400),
        punct_every in 5usize..50,
    ) {
        // HM and SRS are pure optimizations: output identical across all
        // four on/off combinations.
        let configs = [
            ImpatienceConfig { huffman_merge: true, speculative_run_selection: true },
            ImpatienceConfig { huffman_merge: true, speculative_run_selection: false },
            ImpatienceConfig { huffman_merge: false, speculative_run_selection: true },
            ImpatienceConfig { huffman_merge: false, speculative_run_selection: false },
        ];
        let mut reference: Option<Vec<i64>> = None;
        for cfg in configs {
            let mut s = ImpatienceSorter::with_config(cfg);
            let (_, out) = drive_online(&mut s, &data, punct_every, 500);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out),
            }
        }
    }

    fn impatience_run_count_never_exceeds_patience(
        data in vec(0i64..2_000, 1..300),
        punct_every in 5usize..40,
    ) {
        // Incremental cleanup can only reduce the number of live runs
        // relative to offline Patience on the same prefix consumed so far.
        let mut s: ImpatienceSorter<i64> = ImpatienceSorter::new();
        let mut out = Vec::new();
        let mut wm = i64::MIN;
        let mut high = i64::MIN;
        let mut fed: Vec<i64> = Vec::new();
        for (i, &x) in data.iter().enumerate() {
            if x > wm {
                s.push(x);
                fed.push(x);
                high = high.max(x);
            }
            if i % punct_every == punct_every - 1 {
                let p = high - 200;
                if p > wm {
                    wm = p;
                    s.punctuate(Timestamp::new(p), &mut out);
                }
                let offline_k = PatienceSort::partition_run_count(&fed);
                assert!(
                    s.run_count() <= offline_k,
                    "impatience {} > patience {offline_k}", s.run_count()
                );
            }
        }
    }
}
