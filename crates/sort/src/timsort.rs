//! Timsort baseline.
//!
//! A from-scratch implementation of Tim Peters' adaptive, stable merge sort
//! ("finds subsets of the data that are already ordered, and uses that
//! knowledge to sort the remaining elements more efficiently" — §VI-B):
//!
//! * natural-run detection with strictly-descending runs reversed in place;
//! * short runs extended to `min_run` with binary insertion sort;
//! * a run stack maintaining the (post-2015-bugfix) length invariants;
//! * galloping merges once one side wins [`MIN_GALLOP`] times in a row.
//!
//! Simplifications relative to CPython's listsort, documented for honesty:
//! the temp buffer always holds the *left* run (no `merge_hi` mirror), and
//! the gallop threshold is static rather than adaptive. Neither affects the
//! comparison counts that make Timsort adaptive; both are memory/constant-
//! factor niceties.

use crate::traits::SortAlgorithm;
use impatience_core::{EventTimed, Timestamp};

/// Arrays shorter than this are binary-insertion sorted directly.
const MIN_MERGE: usize = 32;

/// Consecutive wins by one run before a merge switches to galloping.
const MIN_GALLOP: usize = 7;

/// Sorts a slice by event time, stably.
pub fn timsort<T: EventTimed + Clone>(a: &mut [T]) {
    let n = a.len();
    if n < 2 {
        return;
    }
    if n < MIN_MERGE {
        let sorted_prefix = count_run_make_ascending(a);
        binary_insertion_sort(a, sorted_prefix);
        return;
    }
    let min_run = compute_min_run(n);
    let mut stack: Vec<Run> = Vec::with_capacity(40);
    let mut tmp: Vec<T> = Vec::new();
    let mut lo = 0usize;
    while lo < n {
        let mut run_len = count_run_make_ascending(&mut a[lo..]);
        if run_len < min_run {
            let force = min_run.min(n - lo);
            binary_insertion_sort(&mut a[lo..lo + force], run_len);
            run_len = force;
        }
        stack.push(Run {
            base: lo,
            len: run_len,
        });
        merge_collapse(a, &mut stack, &mut tmp);
        lo += run_len;
    }
    merge_force_collapse(a, &mut stack, &mut tmp);
    debug_assert_eq!(stack.len(), 1);
    debug_assert_eq!(stack[0].len, n);
}

#[derive(Debug, Clone, Copy)]
struct Run {
    base: usize,
    len: usize,
}

/// min_run as in listsort.txt: take the 6 most significant bits of n, add 1
/// if any remaining bit is set.
fn compute_min_run(mut n: usize) -> usize {
    let mut r = 0;
    while n >= MIN_MERGE {
        r |= n & 1;
        n >>= 1;
    }
    n + r
}

/// Detects the run at the start of `a`: nondecreasing, or *strictly*
/// decreasing (then reversed in place — strictness preserves stability).
/// Returns the run length (>= 1 for non-empty input).
fn count_run_make_ascending<T: EventTimed>(a: &mut [T]) -> usize {
    let n = a.len();
    if n < 2 {
        return n;
    }
    let mut i = 1;
    if a[1].event_time() < a[0].event_time() {
        // Strictly descending.
        while i + 1 < n && a[i + 1].event_time() < a[i].event_time() {
            i += 1;
        }
        a[..=i].reverse();
    } else {
        // Nondecreasing.
        while i + 1 < n && a[i + 1].event_time() >= a[i].event_time() {
            i += 1;
        }
    }
    i + 1
}

/// Binary insertion sort of `a`, with `a[..sorted]` already nondecreasing.
fn binary_insertion_sort<T: EventTimed>(a: &mut [T], sorted: usize) {
    for i in sorted.max(1)..a.len() {
        let key = a[i].event_time();
        // Rightmost insertion point keeps equal elements stable.
        let pos = a[..i].partition_point(|x| x.event_time() <= key);
        a[pos..=i].rotate_right(1);
    }
}

/// Restores the run-stack invariants by merging:
/// for top runs ... X, Y, Z require X > Y + Z and Y > Z
/// (checking one run deeper per the corrected algorithm).
fn merge_collapse<T: EventTimed + Clone>(a: &mut [T], stack: &mut Vec<Run>, tmp: &mut Vec<T>) {
    while stack.len() > 1 {
        let n = stack.len();
        let z = stack[n - 1].len;
        let y = stack[n - 2].len;
        let broken = (n >= 3 && stack[n - 3].len <= y + z)
            || (n >= 4 && stack[n - 4].len <= stack[n - 3].len + y);
        if broken {
            // Merge the smaller of X and Z with Y.
            if stack[n - 3].len < z {
                merge_at(a, stack, n - 3, tmp);
            } else {
                merge_at(a, stack, n - 2, tmp);
            }
        } else if y <= z {
            merge_at(a, stack, n - 2, tmp);
        } else {
            break;
        }
    }
}

/// Merges everything down to one run.
fn merge_force_collapse<T: EventTimed + Clone>(
    a: &mut [T],
    stack: &mut Vec<Run>,
    tmp: &mut Vec<T>,
) {
    while stack.len() > 1 {
        let n = stack.len();
        // Prefer merging the smaller neighbour pair, as listsort does.
        let i = if n >= 3 && stack[n - 3].len < stack[n - 1].len {
            n - 3
        } else {
            n - 2
        };
        merge_at(a, stack, i, tmp);
    }
}

/// Merges stack runs `i` and `i+1` (adjacent in the array).
fn merge_at<T: EventTimed + Clone>(a: &mut [T], stack: &mut Vec<Run>, i: usize, tmp: &mut Vec<T>) {
    let run1 = stack[i];
    let run2 = stack[i + 1];
    debug_assert_eq!(run1.base + run1.len, run2.base);
    stack[i].len = run1.len + run2.len;
    stack.remove(i + 1);
    merge_adjacent(a, run1.base, run1.len, run2.len, tmp);
}

/// Galloping merge of `a[base..base+len1]` and `a[base+len1..base+len1+len2]`.
///
/// Copies the left run into `tmp`; the destination cursor never catches the
/// right-run read cursor, so the merge is safe in place.
fn merge_adjacent<T: EventTimed + Clone>(
    a: &mut [T],
    base: usize,
    len1: usize,
    len2: usize,
    tmp: &mut Vec<T>,
) {
    if len1 == 0 || len2 == 0 {
        return;
    }
    // Trim: elements of run1 already <= run2[0] are in place; elements of
    // run2 already >= run1[last] are in place.
    let first_right = a[base + len1].event_time();
    let skip = a[base..base + len1].partition_point(|x| x.event_time() <= first_right);
    let (base, len1) = (base + skip, len1 - skip);
    if len1 == 0 {
        return;
    }
    let last_left = a[base + len1 - 1].event_time();
    let keep = a[base + len1..base + len1 + len2].partition_point(|x| x.event_time() < last_left);
    let len2 = keep;
    if len2 == 0 {
        return;
    }

    tmp.clear();
    tmp.extend_from_slice(&a[base..base + len1]);
    let mut c1 = 0usize; // cursor into tmp (left run)
    let mut c2 = base + len1; // cursor into a (right run)
    let end2 = base + len1 + len2;
    let mut dest = base;
    let mut wins1 = 0usize;
    let mut wins2 = 0usize;

    loop {
        if c1 == tmp.len() {
            // Rest of the right run is already in place.
            break;
        }
        if c2 == end2 {
            // Copy the remaining left run.
            a[dest..dest + (tmp.len() - c1)].clone_from_slice(&tmp[c1..]);
            break;
        }
        if wins1 >= MIN_GALLOP || wins2 >= MIN_GALLOP {
            // Galloping mode: bulk-advance whichever side is winning.
            // How many left elements precede (<=) the next right element?
            let k1 = gallop_right(a[c2].event_time(), &tmp[c1..]);
            if k1 > 0 {
                for x in &tmp[c1..c1 + k1] {
                    a[dest] = x.clone();
                    dest += 1;
                }
                c1 += k1;
                if c1 == tmp.len() {
                    break;
                }
            }
            a[dest] = a[c2].clone();
            dest += 1;
            c2 += 1;
            if c2 == end2 {
                a[dest..dest + (tmp.len() - c1)].clone_from_slice(&tmp[c1..]);
                break;
            }
            // How many right elements strictly precede the next left one?
            let key1 = tmp[c1].event_time();
            let k2 = gallop_left_in(a, c2, end2, key1);
            if k2 > 0 {
                for j in c2..c2 + k2 {
                    a[dest] = a[j].clone();
                    dest += 1;
                }
                c2 += k2;
                if c2 == end2 {
                    a[dest..dest + (tmp.len() - c1)].clone_from_slice(&tmp[c1..]);
                    break;
                }
            }
            a[dest] = tmp[c1].clone();
            dest += 1;
            c1 += 1;
            // Leave gallop mode when the bulk runs get short.
            if k1 < MIN_GALLOP && k2 < MIN_GALLOP {
                wins1 = 0;
                wins2 = 0;
            }
            continue;
        }
        // One-at-a-time mode; ties go left for stability.
        if a[c2].event_time() < tmp[c1].event_time() {
            a[dest] = a[c2].clone();
            c2 += 1;
            wins2 += 1;
            wins1 = 0;
        } else {
            a[dest] = tmp[c1].clone();
            c1 += 1;
            wins1 += 1;
            wins2 = 0;
        }
        dest += 1;
    }
}

/// Number of elements in `run` that are `<= key` (rightmost insertion
/// point), found by exponential probe + binary search.
fn gallop_right<T: EventTimed>(key: Timestamp, run: &[T]) -> usize {
    let n = run.len();
    if n == 0 || run[0].event_time() > key {
        return 0;
    }
    // Exponential search for the first element > key.
    let mut prev = 0usize;
    let mut ofs = 1usize;
    while ofs < n && run[ofs].event_time() <= key {
        prev = ofs;
        ofs = ofs.saturating_mul(2).saturating_add(1).min(n);
    }
    let hi = ofs.min(n);
    prev + run[prev..hi].partition_point(|x| x.event_time() <= key)
}

/// Number of elements of `a[lo..hi]` strictly `< key` (leftmost insertion
/// point), by exponential probe + binary search.
fn gallop_left_in<T: EventTimed>(a: &[T], lo: usize, hi: usize, key: Timestamp) -> usize {
    let run = &a[lo..hi];
    let n = run.len();
    if n == 0 || run[0].event_time() >= key {
        return 0;
    }
    let mut prev = 0usize;
    let mut ofs = 1usize;
    while ofs < n && run[ofs].event_time() < key {
        prev = ofs;
        ofs = ofs.saturating_mul(2).saturating_add(1).min(n);
    }
    let hi2 = ofs.min(n);
    prev + run[prev..hi2].partition_point(|x| x.event_time() < key)
}

/// `SortAlgorithm` adapter.
pub struct TimsortAlgorithm;

impl SortAlgorithm for TimsortAlgorithm {
    const NAME: &'static str = "Timsort";

    fn sort<T: EventTimed + Clone>(items: &mut Vec<T>) {
        timsort(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(mut v: Vec<i64>) {
        let mut expect = v.clone();
        expect.sort();
        timsort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn basic_shapes() {
        check(vec![]);
        check(vec![1]);
        check(vec![2, 1]);
        check(vec![1, 2]);
        check((0..1000).collect());
        check((0..1000).rev().collect());
        check(vec![7; 333]);
    }

    #[test]
    fn min_run_computation() {
        assert_eq!(compute_min_run(31), 31);
        assert_eq!(compute_min_run(32), 16);
        assert_eq!(compute_min_run(64), 16);
        assert_eq!(compute_min_run(65), 17);
        assert_eq!(compute_min_run(1024), 16);
        // For n = 2^k the result is 16..=32 so runs tile evenly.
        for k in 6..20 {
            let mr = compute_min_run(1usize << k);
            assert!((16..=32).contains(&mr));
        }
    }

    #[test]
    fn run_detection() {
        let mut v = vec![1i64, 2, 3, 2, 9];
        assert_eq!(count_run_make_ascending(&mut v), 3);
        let mut v = vec![5i64, 4, 3, 8];
        assert_eq!(count_run_make_ascending(&mut v), 3);
        assert_eq!(&v[..3], &[3, 4, 5], "descending run reversed");
        let mut v = vec![2i64, 2, 2];
        assert_eq!(count_run_make_ascending(&mut v), 3, "ties ascend");
        let mut v = vec![9i64];
        assert_eq!(count_run_make_ascending(&mut v), 1);
    }

    #[test]
    fn stability() {
        // Pairs (time, original index): equal times must keep index order.
        let mut v: Vec<(i64, usize)> = (0..2000).map(|i| ((i % 10) as i64, i)).collect();
        timsort(&mut v);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {w:?}");
            }
        }
    }

    #[test]
    fn random_shapes() {
        check((0..30_000).map(|i| (i * 7919) % 10007).collect());
        check((0..10_000).map(|i| i % 2).collect());
        check((0..10_000).map(|i| -(i % 97)).collect());
    }

    #[test]
    fn nearly_sorted_plus_spikes() {
        // The CloudLog shape: sorted with periodic late groups.
        let mut v: Vec<i64> = (0..20_000).collect();
        for i in (100..v.len()).step_by(500) {
            v[i] -= 5_000;
        }
        check(v);
    }

    #[test]
    fn interleaved_runs_gallop_heavily() {
        // Two long interleaved runs: galloping mode engages on the merge.
        let mut v = Vec::new();
        for i in 0..5_000i64 {
            v.push(i * 2);
        }
        for i in 0..5_000i64 {
            v.push(i * 2 + 1);
        }
        check(v);
        // Block-concatenated runs: pure gallop copy.
        let mut v: Vec<i64> = (10_000..20_000).collect();
        v.extend(0..10_000);
        check(v);
    }

    #[test]
    fn gallop_functions() {
        let run: Vec<i64> = vec![1, 3, 3, 5, 7, 9];
        assert_eq!(gallop_right(Timestamp::new(0), &run), 0);
        assert_eq!(gallop_right(Timestamp::new(3), &run), 3);
        assert_eq!(gallop_right(Timestamp::new(9), &run), 6);
        assert_eq!(gallop_right(Timestamp::new(100), &run), 6);
        assert_eq!(gallop_left_in(&run, 0, 6, Timestamp::new(3)), 1);
        assert_eq!(gallop_left_in(&run, 0, 6, Timestamp::new(10)), 6);
        assert_eq!(gallop_left_in(&run, 0, 6, Timestamp::new(1)), 0);
        assert_eq!(gallop_left_in(&run, 2, 4, Timestamp::new(5)), 1);
    }

    #[test]
    fn long_runs_of_various_lengths() {
        // Stress the run-stack invariants: runs with Fibonacci-ish lengths.
        let mut v = Vec::new();
        let mut start = 0i64;
        for len in [700i64, 433, 267, 165, 102, 63, 39, 24, 15, 9, 6, 4, 2, 1] {
            for i in 0..len {
                v.push(start + i);
            }
            start -= 10_000; // each run entirely below the previous
        }
        check(v);
    }

    #[test]
    fn algorithm_adapter() {
        let mut v = vec![3i64, 1, 2];
        TimsortAlgorithm::sort(&mut v);
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(TimsortAlgorithm::NAME, "Timsort");
    }
}
