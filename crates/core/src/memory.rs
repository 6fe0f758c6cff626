//! Deterministic memory accounting.
//!
//! The paper's Fig 10(b)/(d) compare the *buffered state* of query plans —
//! events held in sort buffers and union synchronization buffers. Measuring
//! a real allocator is noisy and allocator-dependent, so this stack instead
//! charges every stateful operator's buffered bytes to a shared
//! [`MemoryMeter`], tracking current and peak usage exactly. Ratios between
//! plans (the paper reports up to 31.5×) are preserved.

use crate::error::StreamError;
use crate::metrics::Counter;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Budget sentinel: `usize::MAX` means "no budget". A real budget of
/// `usize::MAX` bytes is indistinguishable from none, which is fine — no
/// account can exceed it anyway.
const NO_BUDGET: usize = usize::MAX;

struct Inner {
    current: AtomicUsize,
    peak: AtomicUsize,
    budget: AtomicUsize,
    over_releases: AtomicU64,
    over_release_counter: Mutex<Option<Counter>>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            budget: AtomicUsize::new(NO_BUDGET),
            over_releases: AtomicU64::new(0),
            over_release_counter: Mutex::new(None),
        }
    }
}

/// A cheaply cloneable handle to a shared memory account.
///
/// Cloning shares the account; all operators in one query plan charge the
/// same meter. Handles are `Send + Sync` (lock-free atomics), so the shards
/// of a multi-core pipeline can account against one budget.
#[derive(Clone, Default)]
pub struct MemoryMeter {
    inner: Arc<Inner>,
}

impl MemoryMeter {
    /// A fresh meter at zero, with no enforced budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh meter with an enforced budget of `bytes`.
    ///
    /// The budget is advisory at the accounting layer: [`charge`] still
    /// succeeds past it (the meter must reflect reality), but
    /// [`over_budget`] turns true and enforcement points — the engine's
    /// sorting operator, via its shed policy — use [`try_charge`] /
    /// [`over_budget`] to degrade gracefully.
    ///
    /// [`charge`]: MemoryMeter::charge
    /// [`try_charge`]: MemoryMeter::try_charge
    /// [`over_budget`]: MemoryMeter::over_budget
    pub fn with_budget(bytes: usize) -> Self {
        let m = Self::default();
        m.inner.budget.store(bytes, Ordering::Relaxed);
        m
    }

    /// The enforced budget, if any.
    #[inline]
    pub fn budget(&self) -> Option<usize> {
        match self.inner.budget.load(Ordering::Relaxed) {
            NO_BUDGET => None,
            b => Some(b),
        }
    }

    /// True when the current charge exceeds the enforced budget.
    #[inline]
    pub fn over_budget(&self) -> bool {
        self.inner.current.load(Ordering::Relaxed) > self.inner.budget.load(Ordering::Relaxed)
    }

    /// Charges `bytes` to the account.
    #[inline]
    pub fn charge(&self, bytes: usize) {
        let cur = self.inner.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak.fetch_max(cur, Ordering::Relaxed);
    }

    /// Charges `bytes` only if the result stays within the budget; returns
    /// [`StreamError::MemoryExceeded`] (and charges nothing) otherwise.
    ///
    /// The check-then-charge is not atomic across threads; concurrent
    /// charges may overshoot the budget by at most the batch in flight,
    /// which the enforcement points tolerate (they re-check and shed).
    pub fn try_charge(&self, bytes: usize) -> Result<(), StreamError> {
        let attempted = self.inner.current.load(Ordering::Relaxed) + bytes;
        let budget = self.inner.budget.load(Ordering::Relaxed);
        if attempted > budget {
            return Err(StreamError::MemoryExceeded { budget, attempted });
        }
        self.charge(bytes);
        Ok(())
    }

    /// Releases `bytes` from the account. Saturates at zero rather than
    /// panicking so that conservative over-release (e.g. after a buffer
    /// shrink estimate) cannot poison a benchmark run; each over-release is
    /// counted (see [`over_releases`]) and surfaces in metrics snapshots
    /// when a counter is bound via [`bind_over_release_counter`].
    ///
    /// [`over_releases`]: MemoryMeter::over_releases
    /// [`bind_over_release_counter`]: MemoryMeter::bind_over_release_counter
    #[inline]
    pub fn release(&self, bytes: usize) {
        let mut cur = self.inner.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.inner.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if bytes > cur {
            self.inner.over_releases.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self
                .inner
                .over_release_counter
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
            {
                c.inc();
            }
        }
    }

    /// Number of releases that exceeded the charged balance.
    #[inline]
    pub fn over_releases(&self) -> u64 {
        self.inner.over_releases.load(Ordering::Relaxed)
    }

    /// Binds a metrics [`Counter`] that is bumped on every over-release, so
    /// accounting bugs show up in pipeline snapshots instead of only in
    /// debug builds.
    pub fn bind_over_release_counter(&self, counter: Counter) {
        *self
            .inner
            .over_release_counter
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(counter);
    }

    /// Replaces a previous charge with a new one in a single adjustment.
    #[inline]
    pub fn recharge(&self, old_bytes: usize, new_bytes: usize) {
        if new_bytes >= old_bytes {
            self.charge(new_bytes - old_bytes);
        } else {
            self.release(old_bytes - new_bytes);
        }
    }

    /// Bytes currently charged.
    #[inline]
    pub fn current(&self) -> usize {
        self.inner.current.load(Ordering::Relaxed)
    }

    /// High-water mark since creation.
    #[inline]
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for MemoryMeter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "MemoryMeter(current={} B, peak={} B)",
            self.current(),
            self.peak()
        )
    }
}

/// Formats a byte count the way the paper's figures do (MB with one
/// decimal, falling back to KB/B for small values).
pub fn format_bytes(bytes: usize) -> String {
    const MB: f64 = 1024.0 * 1024.0;
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= MB {
        format!("{:.1} MB", b / MB)
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_and_peak() {
        let m = MemoryMeter::new();
        m.charge(100);
        m.charge(50);
        assert_eq!(m.current(), 150);
        assert_eq!(m.peak(), 150);
        m.release(120);
        assert_eq!(m.current(), 30);
        assert_eq!(m.peak(), 150, "peak is sticky");
        m.charge(10);
        assert_eq!(m.peak(), 150);
        m.charge(200);
        assert_eq!(m.peak(), 240);
    }

    #[test]
    fn recharge_moves_in_one_step() {
        let m = MemoryMeter::new();
        m.charge(100);
        m.recharge(100, 40);
        assert_eq!(m.current(), 40);
        m.recharge(40, 90);
        assert_eq!(m.current(), 90);
        assert_eq!(m.peak(), 100, "shrinking recharge must not bump peak");
    }

    #[test]
    fn clones_share_the_account() {
        let m = MemoryMeter::new();
        let m2 = m.clone();
        m2.charge(77);
        assert_eq!(m.current(), 77);
    }

    #[test]
    fn over_release_is_counted_not_fatal() {
        let m = MemoryMeter::new();
        let c = crate::metrics::Counter::new();
        m.bind_over_release_counter(c.clone());
        m.charge(10);
        m.release(25);
        assert_eq!(m.current(), 0, "saturates at zero");
        assert_eq!(m.over_releases(), 1);
        assert_eq!(c.get(), 1);
        m.release(1);
        assert_eq!(m.over_releases(), 2);
        m.charge(5);
        m.release(5);
        assert_eq!(m.over_releases(), 2, "balanced release is not counted");
    }

    #[test]
    fn budget_and_try_charge() {
        let m = MemoryMeter::with_budget(100);
        assert_eq!(m.budget(), Some(100));
        assert!(m.try_charge(80).is_ok());
        assert!(!m.over_budget());
        let err = m.try_charge(30).unwrap_err();
        assert_eq!(
            err,
            StreamError::MemoryExceeded {
                budget: 100,
                attempted: 110
            }
        );
        assert_eq!(m.current(), 80, "failed try_charge charges nothing");
    }

    #[test]
    fn recharge_crossing_the_budget_is_visible() {
        // Regression: the sorter recharges state in one step
        // (`recharge(old, new)`); a growing recharge that crosses the
        // budget must flip `over_budget` even though no `try_charge` ran.
        let m = MemoryMeter::with_budget(100);
        m.charge(90);
        assert!(!m.over_budget());
        m.recharge(90, 140);
        assert_eq!(m.current(), 140);
        assert!(m.over_budget(), "growing recharge crossed the budget");
        m.recharge(140, 60);
        assert!(!m.over_budget(), "shrinking recharge recovered");
        assert_eq!(m.over_releases(), 0, "recharge within balance is clean");
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(12), "12 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0 MB");
    }
}
