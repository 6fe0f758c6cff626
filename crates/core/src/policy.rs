//! Failure-model policies: what to do with late events and what to shed
//! when a memory budget is exceeded.
//!
//! The paper treats disorder as the common case (§II, Fig 1) and gives two
//! answers for events that arrive behind an already-issued punctuation:
//! drop them (the single-sorter baseline) or reroute them to a
//! higher-latency partition of the Impatience framework (§V). Production
//! stream engines add a third: divert them to a *dead-letter* channel so
//! the consumer can audit or replay them. [`LatePolicy`] names all three;
//! every outcome is counted so none is silent.
//!
//! [`ShedPolicy`] answers the companion question raised by Fig 10's state
//! curves: when sorter state hits an enforced
//! [`MemoryMeter`](crate::MemoryMeter) budget, either cut runs early with a
//! forced punctuation (degrading the effective reorder latency but keeping
//! every event) or shed the oldest — most severely delayed — runs
//! wholesale (keeping latency semantics but losing the shed events to the
//! dead-letter channel).

use crate::event::{Event, Payload};
use crate::metrics::Counter;
use crate::time::Timestamp;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// What the sorter boundary does with an event at or behind the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Count and discard the event (the paper's single-sorter baseline).
    #[default]
    Drop,
    /// Divert the event to a typed [`DeadLetterQueue`] for audit/replay.
    DeadLetter,
    /// Hand the event to the next (higher-latency) framework partition,
    /// per §V. Only meaningful inside the partitioned framework; a
    /// standalone sorter rejects this policy at configuration time.
    RerouteNextPartition,
}

/// How a budgeted sorter reclaims state once it exceeds its memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Flush buffered runs early with a forced punctuation. No events are
    /// lost, but the effective reorder latency degrades: events later than
    /// the forced cut become late and fall under the [`LatePolicy`].
    #[default]
    ForcePunctuation,
    /// Evict whole runs, oldest (most delayed) first, until back under
    /// budget. Latency semantics are preserved for surviving events; shed
    /// events are counted and dead-lettered when a queue is attached.
    ShedOldestRuns,
    /// Seal cold runs into checksummed on-disk run files until back under
    /// budget — the lossless rung of the degradation ladder. No events are
    /// lost and latency semantics are preserved; spilled runs are merged
    /// back at punctuation boundaries by a streaming k-way merge, so output
    /// stays byte-identical to the all-in-memory sorter. Only sorters with
    /// spill support (`sort::external`) reclaim state under this policy;
    /// if spilling cannot get back under budget the engine falls back to a
    /// forced punctuation and, as a last resort, a capped shed.
    SpillColdRuns,
}

impl LatePolicy {
    /// Stable wire/spec name (`drop`, `dead_letter`, `reroute`).
    pub fn name(&self) -> &'static str {
        match self {
            LatePolicy::Drop => "drop",
            LatePolicy::DeadLetter => "dead_letter",
            LatePolicy::RerouteNextPartition => "reroute",
        }
    }

    /// Parses the stable spec name back into a policy.
    pub fn from_name(name: &str) -> core::result::Result<Self, crate::config::ConfigError> {
        match name {
            "drop" => Ok(LatePolicy::Drop),
            "dead_letter" => Ok(LatePolicy::DeadLetter),
            "reroute" => Ok(LatePolicy::RerouteNextPartition),
            other => Err(crate::config::ConfigError::new(
                "late",
                format!("unknown late policy {other:?} (drop | dead_letter | reroute)"),
            )),
        }
    }
}

impl ShedPolicy {
    /// Stable wire/spec name (`force_punctuation`, `shed_oldest`, `spill`).
    pub fn name(&self) -> &'static str {
        match self {
            ShedPolicy::ForcePunctuation => "force_punctuation",
            ShedPolicy::ShedOldestRuns => "shed_oldest",
            ShedPolicy::SpillColdRuns => "spill",
        }
    }

    /// Parses the stable spec name back into a policy.
    pub fn from_name(name: &str) -> core::result::Result<Self, crate::config::ConfigError> {
        match name {
            "force_punctuation" => Ok(ShedPolicy::ForcePunctuation),
            "shed_oldest" => Ok(ShedPolicy::ShedOldestRuns),
            "spill" => Ok(ShedPolicy::SpillColdRuns),
            other => Err(crate::config::ConfigError::new(
                "shed",
                format!("unknown shed policy {other:?} (force_punctuation | shed_oldest | spill)"),
            )),
        }
    }
}

/// Why an event landed in the dead-letter queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadLetterReason {
    /// Arrived at or behind this punctuation under
    /// [`LatePolicy::DeadLetter`].
    Late {
        /// The punctuation the event fell behind.
        watermark: Timestamp,
    },
    /// Evicted by [`ShedPolicy::ShedOldestRuns`] under memory pressure.
    Shed,
}

/// One dead-lettered event with its reason.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter<P: Payload> {
    /// The diverted event, unmodified.
    pub event: Event<P>,
    /// Why it was diverted.
    pub reason: DeadLetterReason,
}

#[derive(Debug)]
struct DlqInner<P: Payload> {
    letters: VecDeque<DeadLetter<P>>,
    total: u64,
    capacity: Option<usize>,
    dropped: u64,
    dropped_counter: Option<Counter>,
}

/// A shared, cheaply cloneable dead-letter channel.
///
/// Clones share the queue (like [`MemoryMeter`](crate::MemoryMeter)
/// clones share the account): the producer side lives inside the sorting
/// operator or framework partitioner, the consumer side wherever the
/// pipeline was built. `total` survives [`drain`](DeadLetterQueue::drain),
/// so metrics stay monotonic even when the consumer empties the queue.
///
/// An unbounded queue grows with every diverted event — dangerous during
/// recovery replay, which can re-divert a long late tail nobody is
/// draining. [`bounded`](DeadLetterQueue::bounded) caps the queue: once
/// full, the *oldest* letter is dropped to admit the new one (the newest
/// letters are the ones a consumer can still act on), and every drop is
/// counted (see [`dropped`](DeadLetterQueue::dropped)) and surfaced to a
/// bound metrics counter so the loss is never silent.
#[derive(Debug, Clone)]
pub struct DeadLetterQueue<P: Payload> {
    inner: Arc<Mutex<DlqInner<P>>>,
}

impl<P: Payload> Default for DeadLetterQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Payload> DeadLetterQueue<P> {
    /// A fresh, empty, unbounded queue.
    pub fn new() -> Self {
        DeadLetterQueue {
            inner: Arc::new(Mutex::new(DlqInner {
                letters: VecDeque::new(),
                total: 0,
                capacity: None,
                dropped: 0,
                dropped_counter: None,
            })),
        }
    }

    /// The queue never holds its lock across user code, so a poisoning
    /// panic can at worst tear its own push — recover the letters.
    fn lock(&self) -> MutexGuard<'_, DlqInner<P>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A fresh queue holding at most `capacity` undrained letters. When
    /// full, pushing drops the oldest letter and counts the drop. A zero
    /// capacity drops every letter (pure counting mode).
    pub fn bounded(capacity: usize) -> Self {
        let q = Self::new();
        q.lock().capacity = Some(capacity);
        q
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.lock().capacity
    }

    /// Appends one dead letter, evicting the oldest if at capacity.
    pub fn push(&self, event: Event<P>, reason: DeadLetterReason) {
        let mut inner = self.lock();
        inner.total += 1;
        inner.letters.push_back(DeadLetter { event, reason });
        if let Some(cap) = inner.capacity {
            while inner.letters.len() > cap {
                inner.letters.pop_front();
                inner.dropped += 1;
                if let Some(c) = inner.dropped_counter.as_ref() {
                    c.inc();
                }
            }
        }
    }

    /// Lifetime count of letters evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Binds a metrics [`Counter`] bumped on every capacity eviction, so
    /// bounded-queue loss shows up in pipeline snapshots
    /// (`dead_letter.dropped`).
    pub fn bind_dropped_counter(&self, counter: Counter) {
        self.lock().dropped_counter = Some(counter);
    }

    /// Letters currently queued (undrained).
    pub fn len(&self) -> usize {
        self.lock().letters.len()
    }

    /// True when no letters are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of letters ever pushed (monotonic across drains).
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// Removes and returns all queued letters, oldest first.
    pub fn drain(&self) -> Vec<DeadLetter<P>> {
        self.lock().letters.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_baseline() {
        assert_eq!(LatePolicy::default(), LatePolicy::Drop);
        assert_eq!(ShedPolicy::default(), ShedPolicy::ForcePunctuation);
    }

    #[test]
    fn dead_letter_queue_shares_and_drains() {
        let q: DeadLetterQueue<u32> = DeadLetterQueue::new();
        let q2 = q.clone();
        assert!(q.is_empty());

        q2.push(
            Event::point(Timestamp::new(3), 7),
            DeadLetterReason::Late {
                watermark: Timestamp::new(5),
            },
        );
        q2.push(Event::point(Timestamp::new(9), 8), DeadLetterReason::Shed);
        assert_eq!(q.len(), 2);
        assert_eq!(q.total(), 2);

        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].event.payload, 7);
        assert_eq!(
            drained[0].reason,
            DeadLetterReason::Late {
                watermark: Timestamp::new(5)
            }
        );
        assert_eq!(drained[1].reason, DeadLetterReason::Shed);
        assert!(q.is_empty(), "drain empties the shared queue");
        assert_eq!(q.total(), 2, "total survives the drain");
    }

    #[test]
    fn bounded_queue_drops_oldest_and_counts() {
        let q: DeadLetterQueue<u32> = DeadLetterQueue::bounded(2);
        assert_eq!(q.capacity(), Some(2));
        let c = Counter::new();
        q.bind_dropped_counter(c.clone());
        for v in 0..5u32 {
            q.push(
                Event::point(Timestamp::new(v as i64), v),
                DeadLetterReason::Shed,
            );
        }
        assert_eq!(q.len(), 2, "capacity holds");
        assert_eq!(q.total(), 5, "total counts every push");
        assert_eq!(q.dropped(), 3);
        assert_eq!(c.get(), 3, "bound counter tracks drops");
        let kept: Vec<u32> = q.drain().into_iter().map(|l| l.event.payload).collect();
        assert_eq!(kept, vec![3, 4], "newest letters survive");
    }

    #[test]
    fn zero_capacity_queue_counts_everything_keeps_nothing() {
        let q: DeadLetterQueue<u32> = DeadLetterQueue::bounded(0);
        q.push(Event::point(Timestamp::ZERO, 1), DeadLetterReason::Shed);
        assert!(q.is_empty());
        assert_eq!(q.total(), 1);
        assert_eq!(q.dropped(), 1);
    }
}
