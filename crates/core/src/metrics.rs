//! Zero-dependency metrics primitives: counters, gauges, log2 histograms,
//! and a named [`MetricsRegistry`] with `Arc`-shared handles.
//!
//! Handles are cheap clones sharing their storage, in the same idiom as
//! [`crate::IngressStats`] and [`crate::MemoryMeter`] — but thread-safe, so
//! one registry can serve the shards of a multi-core pipeline
//! (`engine::sharded`): counters and gauges are lock-free atomics,
//! histograms take a short mutex per [`Histogram::record`] — or one per
//! whole batch of samples via [`Histogram::record_batch`], which is what
//! pipeline stages use. Operators hold handles; the
//! registry owns the names and renders [`MetricsSnapshot`]s — sorted,
//! deterministic, and exportable as [`Json`] for machine-readable bench
//! output or as a compact `Display` "top" view for humans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// A monotonically increasing `u64` counter. Clones share storage; handles
/// are `Send + Sync` and updates are lock-free.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for Counter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A settable `i64` gauge that also tracks its high-water mark — the same
/// current/peak pairing as [`crate::MemoryMeter`]. Clones share storage;
/// handles are `Send + Sync` and updates are lock-free.
#[derive(Default)]
struct GaugeInner {
    value: AtomicI64,
    high_water: AtomicI64,
}

/// See module docs; clone-shared, thread-safe.
#[derive(Clone, Default)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    /// Fresh gauge at zero (high-water mark also zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current value, raising the high-water mark if exceeded.
    #[inline]
    pub fn set(&self, v: i64) {
        self.inner.value.store(v, Ordering::Relaxed);
        self.inner.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) to the current value.
    #[inline]
    pub fn add(&self, delta: i64) {
        let now = self.inner.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.inner.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set (zero if never raised above zero).
    #[inline]
    pub fn high_water(&self) -> i64 {
        self.inner.high_water.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gauge({} hwm {})", self.get(), self.high_water())
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds zeros, buckets
/// `1..=31` hold values with that bit length (i.e. bucket `b` covers
/// `[2^(b-1), 2^b)`), and bucket 32 is the overflow bucket for values
/// `>= 2^31`.
pub const HISTOGRAM_BUCKETS: usize = 33;

struct HistogramInner {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty, so that tallying needs no special case.
    min: u64,
    max: u64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramInner {
    /// Counts one sample; branch-free.
    #[inline]
    fn tally(&mut self, v: u64) {
        self.buckets[Histogram::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds in `other` as if its samples had been tallied one by one
    /// (saturating adds of non-negative terms associate, so the sums merge
    /// exactly).
    fn absorb(&mut self, other: &HistogramInner) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-bucket log2 histogram of `u64` samples. Clones share storage;
/// handles are `Send + Sync` (a short mutex guards each sample).
///
/// Recording is O(1) with no allocation: the bucket index is the bit length
/// of the sample (see [`HISTOGRAM_BUCKETS`]). Exact `count`/`sum`/`min`/`max`
/// are kept alongside the buckets, so means are exact even though the
/// distribution is quantized.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Arc<Mutex<HistogramInner>>,
}

impl Histogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample value.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        // The bit length of zero is zero: no special case.
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Half-open value range `[lo, hi)` covered by bucket `i`; the overflow
    /// bucket returns `None` for `hi`.
    pub fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        match i {
            0 => (0, Some(1)),
            b if b == HISTOGRAM_BUCKETS - 1 => (1 << (b - 1), None),
            b => (1 << (b - 1), Some(1 << b)),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        lock(&self.inner).tally(v);
    }

    /// Records every sample of `samples` under **one** lock acquisition:
    /// they accumulate in a stack-local bucket array first and are merged
    /// in one step, leaving every field exactly as `record` per sample
    /// would. An empty batch takes no lock at all.
    pub fn record_batch(&self, samples: impl IntoIterator<Item = u64>) {
        let mut local = HistogramInner::default();
        for v in samples {
            local.tally(v);
        }
        if local.count > 0 {
            lock(&self.inner).absorb(&local);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        lock(&self.inner).count
    }

    /// Sum of recorded samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        lock(&self.inner).sum
    }

    /// Smallest recorded sample (zero if empty).
    pub fn min(&self) -> u64 {
        let inner = lock(&self.inner);
        if inner.count == 0 {
            0
        } else {
            inner.min
        }
    }

    /// Largest recorded sample (zero if empty).
    pub fn max(&self) -> u64 {
        lock(&self.inner).max
    }

    /// Exact mean of recorded samples (zero if empty).
    pub fn mean(&self) -> f64 {
        let inner = lock(&self.inner);
        if inner.count == 0 {
            0.0
        } else {
            inner.sum as f64 / inner.count as f64
        }
    }

    /// Copy of the bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        lock(&self.inner).buckets
    }
}

/// Metrics never hold a lock across user code, so a poisoned mutex (an
/// operator panicked mid-sample under `catch_unwind`) only risks one torn
/// histogram entry — recover the data instead of propagating the poison.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    #[cfg(test)]
    LOCKS_TAKEN.with(|n| n.set(n.get() + 1));
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
thread_local! {
    /// Metric locks this thread has taken (histogram and registry alike).
    static LOCKS_TAKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Histogram(n={} mean={:.1} max={})",
            self.count(),
            self.mean(),
            self.max()
        )
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics. Clones share the same registry.
///
/// `counter`/`gauge`/`histogram` are idempotent get-or-create calls that
/// hand back a shared handle, so an operator registered under the same name
/// twice accumulates into one instrument. Names are kept in sorted order
/// (`BTreeMap`), which makes [`MetricsRegistry::snapshot`] deterministic and
/// snapshot JSON diffable across runs.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared handle to the counter named `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        lock(&self.inner)
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Shared handle to the gauge named `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        lock(&self.inner)
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Shared handle to the histogram named `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Histogram {
        lock(&self.inner)
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock(&self.inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| {
                    (
                        name.clone(),
                        GaugeSnapshot {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                    )
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min(),
                            max: h.max(),
                            buckets: h.bucket_counts().to_vec(),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl core::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = lock(&self.inner);
        write!(
            f,
            "MetricsRegistry({} counters, {} gauges, {} histograms)",
            inner.counters.len(),
            inner.gauges.len(),
            inner.histograms.len()
        )
    }
}

/// Frozen state of one gauge inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Value at snapshot time.
    pub value: i64,
    /// High-water mark at snapshot time.
    pub high_water: i64,
}

/// Frozen state of one histogram inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (zero if empty).
    pub min: u64,
    /// Largest sample (zero if empty).
    pub max: u64,
    /// The [`HISTOGRAM_BUCKETS`] log2 bucket counts.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Exact mean of recorded samples (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], sorted by metric name.
///
/// Convert to machine-readable JSON with [`MetricsSnapshot::to_json`]; the
/// `Display` impl renders a compact human-readable "top" view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, state)` for every gauge, sorted by name.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// `(name, state)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a [`Json`] object with stable key order:
    ///
    /// ```json
    /// {"counters": {"name": 1, ...},
    ///  "gauges": {"name": {"value": 2, "high_water": 3}, ...},
    ///  "histograms": {"name": {"count": ..., "sum": ..., "min": ...,
    ///                          "max": ..., "buckets": [...]}, ...}}
    /// ```
    pub fn to_json(&self) -> Json {
        let counters = Json::Object(
            self.counters
                .iter()
                .map(|(name, v)| (name.clone(), Json::from(*v)))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauges
                .iter()
                .map(|(name, g)| {
                    (
                        name.clone(),
                        Json::Object(vec![
                            ("value".to_string(), Json::from(g.value)),
                            ("high_water".to_string(), Json::from(g.high_water)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Json::Object(
            self.histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        Json::Object(vec![
                            ("count".to_string(), Json::from(h.count)),
                            ("sum".to_string(), Json::from(h.sum)),
                            ("min".to_string(), Json::from(h.min)),
                            ("max".to_string(), Json::from(h.max)),
                            (
                                "buckets".to_string(),
                                Json::Array(h.buckets.iter().map(|&b| Json::from(b)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Object(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
        ])
    }
}

impl core::fmt::Display for MetricsSnapshot {
    /// Compact "top" view: one aligned line per metric.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        writeln!(f, "== metrics ==")?;
        for (name, v) in &self.counters {
            writeln!(f, "  {name:width$}  {v}")?;
        }
        for (name, g) in &self.gauges {
            writeln!(f, "  {name:width$}  {} (hwm {})", g.value, g.high_water)?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {name:width$}  n={} mean={:.1} min={} max={}",
                h.count,
                h.mean(),
                h.min,
                h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_shares() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        let d = c.clone();
        d.add(6);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.set(5);
        g.set(12);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.high_water(), 12);
        g.add(-10);
        assert_eq!(g.get(), -7);
        assert_eq!(g.high_water(), 12);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0: zeros only.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket b covers [2^(b-1), 2^b) for b in 1..=31.
        for b in 1..=31usize {
            let lo = 1u64 << (b - 1);
            let hi = 1u64 << b;
            assert_eq!(Histogram::bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(
                Histogram::bucket_index(hi - 1),
                b,
                "upper edge of bucket {b}"
            );
            assert_eq!(Histogram::bucket_bounds(b), (lo, Some(hi)));
        }
        // Everything >= 2^31 lands in the overflow bucket.
        assert_eq!(Histogram::bucket_index(1 << 31), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(
            Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1),
            (1 << 31, None)
        );
        assert_eq!(Histogram::bucket_bounds(0), (0, Some(1)));
    }

    #[test]
    fn histogram_records_exact_stats() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1 << 31, u64::MAX - 1] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX - 1);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[3], 1); // 4
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 2); // overflow
        assert_eq!(buckets.iter().sum::<u64>(), h.count());
    }

    fn snapshot_of(h: &Histogram) -> (u64, u64, u64, u64, [u64; HISTOGRAM_BUCKETS]) {
        (h.count(), h.sum(), h.min(), h.max(), h.bucket_counts())
    }

    impatience_testkit::props! {
        cases = 256;
        /// `record_batch(samples)` ≡ `for s in samples { record(s) }` on
        /// every field. The shift spreads samples over all 33 buckets
        /// (zeros, the overflow bucket, sums that saturate), and `seeded`
        /// samples go in first so the merge also meets a non-empty target.
        fn record_batch_equals_record_per_sample(
            seeded in impatience_testkit::prop::vec(
                (impatience_testkit::prop::any::<u64>(), 0u32..65), 0..4),
            samples in impatience_testkit::prop::vec(
                (impatience_testkit::prop::any::<u64>(), 0u32..65), 0..200)
        ) {
            let value = |(v, shift): (u64, u32)| v.checked_shr(shift).unwrap_or(0);
            let (one_by_one, batched) = (Histogram::new(), Histogram::new());
            for s in seeded {
                one_by_one.record(value(s));
                batched.record(value(s));
            }
            for &s in &samples {
                one_by_one.record(value(s));
            }
            batched.record_batch(samples.iter().copied().map(value));
            assert_eq!(snapshot_of(&batched), snapshot_of(&one_by_one));
        }
    }

    #[test]
    fn record_batch_edge_inputs() {
        // Empty batch: nothing changes, on an empty or a used histogram.
        let h = Histogram::new();
        h.record_batch([]);
        assert_eq!(snapshot_of(&h), snapshot_of(&Histogram::new()));
        h.record(9);
        let before = snapshot_of(&h);
        h.record_batch([]);
        assert_eq!(snapshot_of(&h), before);
        // Overflow bucket, a saturating sum, and a new minimum of zero.
        h.record_batch([u64::MAX, 1 << 31, 0, u64::MAX]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), u64::MAX, "sum saturates as `record` does");
        assert_eq!((h.min(), h.max()), (0, u64::MAX));
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 3);
    }

    #[test]
    fn record_batch_takes_one_lock_per_non_empty_batch() {
        let h = Histogram::new();
        let locks = || LOCKS_TAKEN.with(std::cell::Cell::get);
        let before = locks();
        h.record_batch(0..10_000u64);
        assert_eq!(locks() - before, 1, "10 000 samples, one lock");
        h.record_batch(std::iter::empty());
        assert_eq!(locks() - before, 1, "an empty batch takes none");
        for v in 0..3 {
            h.record(v);
        }
        assert_eq!(locks() - before, 4, "`record` takes one per sample");
    }

    #[test]
    fn registry_handles_are_shared_by_name() {
        let r = MetricsRegistry::new();
        r.counter("events").add(4);
        r.counter("events").add(6);
        assert_eq!(r.counter("events").get(), 10);
        r.gauge("runs").set(7);
        assert_eq!(r.gauge("runs").high_water(), 7);
        r.histogram("lag").record(9);
        assert_eq!(r.histogram("lag").count(), 1);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        // Register in scrambled order; snapshot must come out sorted so the
        // JSON is diffable across runs.
        let r = MetricsRegistry::new();
        r.counter("z.events").add(1);
        r.counter("a.events").add(2);
        r.gauge("m.runs").set(3);
        r.histogram("b.lag").record(4);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.events", "z.events"]);

        let r2 = MetricsRegistry::new();
        r2.counter("a.events").add(2);
        r2.histogram("b.lag").record(4);
        r2.gauge("m.runs").set(3);
        r2.counter("z.events").add(1);
        assert_eq!(
            snap.to_json().to_string(),
            r2.snapshot().to_json().to_string(),
            "same metrics in any registration order yield identical JSON"
        );
    }

    #[test]
    fn snapshot_json_round_trips() {
        let r = MetricsRegistry::new();
        r.counter("op.events_in").add(42);
        r.gauge("sorter.state_bytes").set(1024);
        r.histogram("watermark_lag").record(100);
        let text = r.snapshot().to_json().to_string();
        let parsed = Json::parse(&text).expect("snapshot JSON parses");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("op.events_in"))
                .and_then(Json::as_i64),
            Some(42)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("sorter.state_bytes"))
                .and_then(|g| g.get("high_water"))
                .and_then(Json::as_i64),
            Some(1024)
        );
        let buckets = parsed
            .get("histograms")
            .and_then(|h| h.get("watermark_lag"))
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_array)
            .expect("buckets array");
        assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn display_top_view_lists_every_metric() {
        let r = MetricsRegistry::new();
        r.counter("op.count.events_in").add(5);
        r.gauge("sorter.runs").set(2);
        r.histogram("lag").record(7);
        let view = r.snapshot().to_string();
        assert!(view.contains("== metrics =="));
        assert!(view.contains("op.count.events_in"));
        assert!(view.contains("(hwm 2)"));
        assert!(view.contains("n=1"));
    }
}
