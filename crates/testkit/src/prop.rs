//! A minimal property-testing harness (the workspace's `proptest`
//! replacement).
//!
//! Design:
//!
//! * **Strategies** ([`Strategy`]) generate values from a seeded
//!   [`StdRng`] and know how to propose *smaller* variants of a value
//!   ([`Strategy::shrink`]). Integer ranges (`-100i64..100`), [`vec()`],
//!   tuples, [`any`], [`weighted_bool`] and [`Strategy::prop_map`] cover
//!   everything the workspace's properties need.
//! * **The runner** ([`check`]) executes N seeded cases. On failure it
//!   shrinks greedily — repeatedly replacing the failing input with the
//!   first smaller variant that still fails — then panics with the minimal
//!   input, the case seed, and a one-line replay recipe.
//! * **Replay**: `IMPATIENCE_PROP_SEED=0x<seed>` reruns exactly the failing
//!   case; `IMPATIENCE_PROP_CASES=N` overrides case counts globally.
//!
//! Mapped strategies ([`Strategy::prop_map`]) do not shrink: the mapping is
//! one-way, so the harness cannot invert a mapped value back to its source.
//! Failures under mapped strategies still report the seed for replay.
//!
//! The [`crate::props!`] macro generates one `#[test]` per property:
//!
//! ```
//! use impatience_testkit::prop::vec;
//!
//! impatience_testkit::props! {
//!     cases = 64;
//!     fn reverse_twice_is_identity(v in vec(-100i64..100, 0..40)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(v, w);
//!     }
//! }
//! # // `#[test]` items are stripped outside the test harness, so the
//! # // doctest only checks that the invocation compiles.
//! # fn main() {}
//! ```

use crate::rng::{Rng, SeedableRng, StdRng};
use std::cell::Cell;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Case count used when a suite does not specify one.
pub const DEFAULT_CASES: u32 = 96;

/// Upper bound on property evaluations spent shrinking one failure.
const SHRINK_BUDGET: u32 = 4_000;

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A generator of test inputs plus a shrinker for minimizing failures.
pub trait Strategy: Clone {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Generates one value from the given deterministic RNG.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Proposes strictly "smaller" variants of `v`, most aggressive first.
    /// An empty vector means `v` is minimal for this strategy.
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let _ = v;
        Vec::new()
    }

    /// Maps generated values through `f`. Mapped values do not shrink (the
    /// mapping is not invertible); seeds still replay exactly.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        U: Clone + Debug,
        F: Fn(Self::Value) -> U + Clone,
    {
        Map { inner: self, f }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty => $u:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, v: &$t) -> Vec<$t> {
                let lo = self.start;
                if *v == lo {
                    return Vec::new();
                }
                // Distance arithmetic in the unsigned twin type so the
                // full signed domain cannot overflow. Candidates form a
                // halving ladder approaching `v` from below (v - d/2,
                // v - d/4, ..., v - 1), so greedy shrinking converges
                // like a binary search instead of a decrement walk.
                let dist = (*v as $u).wrapping_sub(lo as $u);
                let mut out = vec![lo];
                let mut step = dist / 2;
                while step > 0 && out.len() < 8 {
                    let cand = (*v as $u).wrapping_sub(step) as $t;
                    if cand != lo && !out.contains(&cand) {
                        out.push(cand);
                    }
                    step /= 2;
                }
                let dec = v.wrapping_sub(1);
                if dec != lo && !out.contains(&dec) {
                    out.push(dec);
                }
                out
            }
        }
    )*};
}
impl_range_strategy!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

/// Strategy for a full-domain primitive; see [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

/// Uniform over the entire domain of `T` (`any::<u64>()` etc.).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(PhantomData)
}

macro_rules! impl_any_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen()
            }

            fn shrink(&self, v: &$t) -> Vec<$t> {
                if *v == 0 {
                    return Vec::new();
                }
                let mut out = vec![0, *v / 2];
                out.dedup();
                out
            }
        }
    )*};
}
impl_any_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.gen()
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// A biased-coin strategy; see [`weighted_bool`].
#[derive(Clone)]
pub struct WeightedBool {
    p: f64,
}

/// `true` with probability `p` (the `prop::bool::weighted` equivalent).
/// Shrinks `true` to `false`.
pub fn weighted_bool(p: f64) -> WeightedBool {
    assert!((0.0..=1.0).contains(&p));
    WeightedBool { p }
}

impl Strategy for WeightedBool {
    type Value = bool;

    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.gen_bool(self.p)
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Vector strategy; see [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    elem: S,
    len: core::ops::Range<usize>,
}

/// A vector of `elem`-generated values with a length drawn from `len`
/// (the `prop::collection::vec` equivalent). Shrinks by chopping the
/// vector down (respecting the minimum length), removing single elements,
/// and shrinking individual elements.
pub fn vec<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec: empty length range");
    VecStrategy { elem, len }
}

/// Per-vector cap on positionwise shrink candidates, so shrinking long
/// vectors stays affordable under the global budget.
const VEC_SHRINK_POSITIONS: usize = 48;

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let min = self.len.start;
        let n = v.len();
        let mut out: Vec<Vec<S::Value>> = Vec::new();
        if n > min {
            // Aggressive first: the shortest allowed prefix, then halves.
            out.push(v[..min].to_vec());
            let half = (n / 2).max(min);
            if half < n && half > min {
                out.push(v[..half].to_vec());
                out.push(v[n - half..].to_vec());
            }
            // One-element removals over a bounded window.
            for i in 0..n.min(VEC_SHRINK_POSITIONS) {
                let mut w = v.clone();
                w.remove(i);
                out.push(w);
            }
        }
        // Elementwise shrinks over a bounded window.
        for i in 0..n.min(VEC_SHRINK_POSITIONS) {
            for cand in self.elem.shrink(&v[i]) {
                let mut w = v.clone();
                w[i] = cand;
                out.push(w);
            }
        }
        out
    }
}

/// Mapped strategy; see [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($S:ident / $idx:tt),+)),+ $(,)?) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut w = v.clone();
                        w.$idx = cand;
                        out.push(w);
                    }
                )+
                out
            }
        }
    )+};
}
impl_tuple_strategy!(
    (A / 0),
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
);

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

thread_local! {
    /// True while the runner probes a case; the panic hook stays silent so
    /// shrinking does not spam hundreds of backtraces.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !PROBING.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Runs `prop` on one value, capturing a panic message if it fails.
fn probe<V: Clone, F: Fn(V)>(prop: &F, value: &V) -> Option<String> {
    PROBING.with(|p| p.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(value.clone())));
    PROBING.with(|p| p.set(false));
    match result {
        Ok(()) => None,
        // `&*`: pass the boxed contents, not the `Box` itself, as `dyn Any`
        // (otherwise every downcast misses).
        Err(payload) => Some(payload_message(&*payload)),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// FNV-1a over the property name: a stable per-test base seed, so runs are
/// reproducible without any environment setup.
fn base_seed(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Derives the seed of case `i` from the per-test base seed.
fn case_seed(base: u64, i: u32) -> u64 {
    let mut s = base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    crate::rng::splitmix64(&mut s)
}

/// Runs `cases` seeded cases of `prop` over `strategy`, shrinking and
/// reporting the first failure. See the module docs for the replay
/// workflow. Panics (failing the enclosing `#[test]`) on the first
/// property violation.
pub fn check<S: Strategy, F: Fn(S::Value)>(name: &str, cases: u32, strategy: &S, prop: F) {
    install_quiet_hook();
    if let Some(seed) = std::env::var("IMPATIENCE_PROP_SEED")
        .ok()
        .as_deref()
        .and_then(parse_seed)
    {
        run_one_case(name, u32::MAX, seed, strategy, &prop);
        return;
    }
    let cases = std::env::var("IMPATIENCE_PROP_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(cases);
    let base = base_seed(name);
    for i in 0..cases {
        run_one_case(name, i, case_seed(base, i), strategy, &prop);
    }
}

fn run_one_case<S: Strategy, F: Fn(S::Value)>(
    name: &str,
    case_index: u32,
    seed: u64,
    strategy: &S,
    prop: &F,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let value = strategy.generate(&mut rng);
    let Some(first_message) = probe(prop, &value) else {
        return;
    };

    // Greedy shrink: keep replacing the failing input with the first
    // smaller variant that still fails, until nothing smaller fails or the
    // budget runs out.
    let mut current = value;
    let mut message = first_message;
    let mut evals = 0u32;
    'outer: while evals < SHRINK_BUDGET {
        for cand in strategy.shrink(&current) {
            evals += 1;
            if let Some(m) = probe(prop, &cand) {
                current = cand;
                message = m;
                continue 'outer;
            }
            if evals >= SHRINK_BUDGET {
                break;
            }
        }
        break;
    }

    let case_desc = if case_index == u32::MAX {
        "replayed case".to_string()
    } else {
        format!("case {case_index}")
    };
    let mut input = format!("{current:#?}");
    if input.len() > 8_192 {
        input.truncate(8_192);
        input.push_str("\n  ... (input truncated)");
    }
    panic!(
        "[impatience-testkit] property '{name}' failed ({case_desc}, seed 0x{seed:016x})\n\
         minimal failing input (after {evals} shrink evals):\n{input}\n\
         assertion: {message}\n\
         replay with: IMPATIENCE_PROP_SEED=0x{seed:016x} cargo test {name}"
    );
}

/// Declares property tests. First token sets the per-property case count;
/// each `fn` becomes a `#[test]` running [`check`] over the tuple of its
/// argument strategies.
///
/// ```ignore
/// impatience_testkit::props! {
///     cases = 128;
///     fn my_property(xs in vec(0i64..100, 0..50), k in 1usize..10) { ... }
/// }
/// ```
#[macro_export]
macro_rules! props {
    (cases = $cases:expr;
     $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let strategy = ( $($strat,)+ );
                $crate::prop::check(
                    stringify!($name),
                    $cases,
                    &strategy,
                    |( $($arg,)+ )| $body,
                );
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counted = std::cell::Cell::new(0u32);
        check("always_true", 50, &(0i64..100), |_v| {
            counted.set(counted.get() + 1);
        });
        assert_eq!(counted.get(), 50);
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let collect = |name: &str| {
            let seen = std::cell::RefCell::new(Vec::new());
            check(name, 10, &(0i64..1_000_000), |v| seen.borrow_mut().push(v));
            seen.into_inner()
        };
        let a = collect("det_probe");
        let b = collect("det_probe");
        assert_eq!(a, b);
        let c = collect("det_probe_other_name");
        assert_ne!(a, c, "different tests must see different streams");
    }

    #[test]
    fn failing_property_shrinks_to_minimal_vector() {
        // Property: no vector contains an element >= 50. Minimal
        // counterexample is a single element of exactly 50.
        let result = panic::catch_unwind(|| {
            check(
                "shrink_probe",
                200,
                &vec(0i64..100, 0..40),
                |v: Vec<i64>| {
                    assert!(v.iter().all(|&x| x < 50));
                },
            );
        });
        let msg = payload_message(&*result.unwrap_err());
        assert!(msg.contains("property 'shrink_probe' failed"), "{msg}");
        assert!(msg.contains("IMPATIENCE_PROP_SEED="), "{msg}");
        assert!(
            msg.contains("[\n    50,\n]") || msg.contains("[50]"),
            "expected the minimal input [50] in:\n{msg}"
        );
    }

    #[test]
    fn integer_shrink_targets_range_start() {
        let s = -100i64..100;
        assert!(s.shrink(&-100).is_empty());
        assert_eq!(s.shrink(&37)[0], -100);
        for cand in s.shrink(&37) {
            assert!((-100..37).contains(&cand), "{cand}");
        }
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vec(0i64..10, 2..8);
        let v = s.generate(&mut StdRng::seed_from_u64(1));
        for cand in s.shrink(&v) {
            assert!(cand.len() >= 2, "{cand:?}");
        }
    }

    #[test]
    fn tuple_strategy_generates_and_shrinks_componentwise() {
        let s = (0i64..100, 1usize..10);
        let v = s.generate(&mut StdRng::seed_from_u64(3));
        assert!((0..100).contains(&v.0) && (1..10).contains(&v.1));
        for (a, b) in s.shrink(&v) {
            let changed_a = a != v.0;
            let changed_b = b != v.1;
            assert!(changed_a ^ changed_b, "one coordinate at a time");
        }
    }

    #[test]
    fn prop_map_generates_mapped_values() {
        let s = vec(0i64..10, 1..5).prop_map(|v| v.len());
        let n = s.generate(&mut StdRng::seed_from_u64(4));
        assert!((1..5).contains(&n));
        assert!(s.shrink(&n).is_empty(), "mapped strategies do not shrink");
    }

    #[test]
    fn weighted_bool_rate() {
        let s = weighted_bool(0.2);
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| s.generate(&mut rng)).count();
        assert!((1_500..2_500).contains(&hits), "{hits}");
        assert_eq!(s.shrink(&true), [false]);
        assert!(s.shrink(&false).is_empty());
    }

    props! {
        cases = 32;
        fn macro_generated_property(
            xs in vec(-50i64..50, 0..30),
            k in 1usize..5,
        ) {
            // Trivially true; exercises the macro plumbing end-to-end.
            assert!(xs.len() < 30 && k >= 1);
        }
    }
}
