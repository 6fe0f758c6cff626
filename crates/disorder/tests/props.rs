//! Property tests: the O(n log n) disorder measures must agree with their
//! brute-force references, and the measure hierarchy of §II must hold.
//!
//! On failure the harness prints the failing case seed; replay with
//! `IMPATIENCE_PROP_SEED=0x<seed> cargo test <test name>`.

use impatience_disorder::*;
use impatience_testkit::prop::{any, vec};
use impatience_testkit::props;

props! {
    cases = 256;

    fn inversions_matches_naive(v in vec(-1000i64..1000, 0..300)) {
        assert_eq!(count_inversions(&v), count_inversions_naive(&v));
    }

    fn distance_matches_naive(v in vec(-1000i64..1000, 0..300)) {
        assert_eq!(max_inversion_distance(&v), max_inversion_distance_naive(&v));
    }

    fn interleaved_equals_dilworth(v in vec(-100i64..100, 0..300)) {
        let greedy = min_interleaved_runs(&v);
        assert_eq!(greedy, longest_strictly_decreasing(&v));
        assert_eq!(greedy, longest_strictly_decreasing_naive(&v));
    }

    fn hierarchy_holds(v in vec(-1000i64..1000, 1..300)) {
        let r = DisorderReport::compute(&v);
        // interleaved <= runs <= n; distance < n; inversions bounded.
        assert!(r.interleaved <= r.runs);
        assert!(r.runs <= r.events);
        assert!(r.distance < r.events);
        let n = r.events as u128;
        assert!(r.inversions <= n * (n - 1) / 2);
        // All measures vanish together on sorted input.
        assert_eq!(r.inversions == 0, r.distance == 0);
        assert_eq!(r.inversions == 0, r.interleaved <= 1);
    }

    fn sorting_zeroes_all_measures(v in vec(-1000i64..1000, 0..300)) {
        let mut v = v;
        v.sort_unstable();
        let r = DisorderReport::compute(&v);
        assert!(r.is_sorted());
        assert_eq!(r.distance, 0);
        assert!(r.runs <= 1);
        assert!(r.interleaved <= 1);
    }

    fn run_lengths_partition_input(v in vec(-50i64..50, 0..300)) {
        let lens = natural_run_lengths(&v);
        assert_eq!(lens.iter().sum::<usize>(), v.len());
        assert_eq!(lens.len(), count_natural_runs(&v));
        // Each reported run really is nondecreasing and maximal.
        let mut pos = 0;
        for (k, &l) in lens.iter().enumerate() {
            let run = &v[pos..pos + l];
            assert!(run.windows(2).all(|w| w[0] <= w[1]));
            if k + 1 < lens.len() {
                assert!(v[pos + l - 1] > v[pos + l], "run not maximal");
            }
            pos += l;
        }
    }

    fn interleave_of_k_sorted_runs_needs_at_most_k(
        runs in vec(vec(-1000i64..1000, 1..40), 1..6),
        seed in any::<u64>(),
    ) {
        // Build an interleaving of k sorted runs; Proposition 3.1 says the
        // minimum interleave (and hence Patience's run count) is <= k.
        let k = runs.len();
        let mut sorted: Vec<Vec<i64>> = runs;
        for r in &mut sorted { r.sort_unstable(); }
        let mut idx = vec![0usize; k];
        let mut out = Vec::new();
        let mut state = seed | 1;
        let total: usize = sorted.iter().map(Vec::len).sum();
        while out.len() < total {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % k;
            // advance to a non-exhausted run
            let mut p = pick;
            while idx[p] >= sorted[p].len() { p = (p + 1) % k; }
            out.push(sorted[p][idx[p]]);
            idx[p] += 1;
        }
        assert!(min_interleaved_runs(&out) <= k);
    }
}
