//! The event model.
//!
//! Mirrors Trill's `StreamEvent` layout as described in the paper's
//! evaluation (§VI-C): every event carries **two 64-bit timestamps** (sync
//! time / other time), a **32-bit key**, a **64-bit hash**, and a payload
//! (four 32-bit integers in the paper's experiments). Keeping the metadata
//! explicit matters for reproducing Fig 9(b), where projection speedups are
//! diluted by exactly these fields.

use crate::snapshot::StateCodec;
use crate::time::{TickDuration, Timestamp};
use core::fmt;

/// Payload types that can flow through the engine.
///
/// The bound is deliberately small: payloads are cloned when a stream fans
/// out (e.g. the basic Impatience framework duplicates events into several
/// output streams), and they must report their heap footprint for the
/// deterministic memory accounting used by the Fig 10 benchmarks. The
/// [`StateCodec`] supertrait makes every payload durable: checkpointing a
/// sorter run or union buffer is just encoding its buffered events.
pub trait Payload: Clone + fmt::Debug + PartialEq + StateCodec + Send + 'static {
    /// Bytes owned on the heap by this payload (0 for plain-old-data).
    #[inline]
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Payload for () {}
impl Payload for u32 {}
impl Payload for u64 {}
impl Payload for i32 {}
impl Payload for i64 {}
impl Payload for f64 {}
impl Payload for bool {}
impl<const N: usize> Payload for [u32; N] {}
impl<A: Payload, B: Payload> Payload for (A, B) {}
impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {}

impl Payload for String {
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: Payload> Payload for Vec<T> {
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.capacity() * core::mem::size_of::<T>()
            + self.iter().map(Payload::heap_bytes).sum::<usize>()
    }
}

impl<T: Payload> Payload for Option<T> {
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, Payload::heap_bytes)
    }
}

/// The four-`u32` payload used by every experiment in the paper (§VI-A).
pub type EvalPayload = [u32; 4];

/// A single data event.
///
/// * `sync_time` is the event time: the instant the event starts
///   contributing to query results, and the field streams are sorted by.
/// * `other_time` bounds the event's validity interval (Trill's "other
///   time", §IV-A2). Point events have `other_time == sync_time + 1`;
///   window operators stretch it to the window end.
/// * `key` / `hash` are the grouping key and its hash, precomputed at
///   ingress like Trill does so grouped operators never rehash per batch.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event<P> {
    /// Event time (start of validity).
    pub sync_time: Timestamp,
    /// End of validity (exclusive).
    pub other_time: Timestamp,
    /// Grouping key.
    pub key: u32,
    /// Always [`hash_key`]`(key)`: derived, held in memory only (the
    /// §VI-C layout) and recomputed on decode — the WAL, spill runs and
    /// checkpoints never store it.
    pub hash: u64,
    /// User payload.
    pub payload: P,
}

impl<P: Payload> Event<P> {
    /// A point event: validity `[t, t+1)`, key 0.
    #[inline]
    pub fn point(t: Timestamp, payload: P) -> Self {
        Self::keyed(t, 0, payload)
    }

    /// A point event with a grouping key; the hash is derived with
    /// [`hash_key`].
    #[inline]
    pub fn keyed(t: Timestamp, key: u32, payload: P) -> Self {
        Event {
            sync_time: t,
            other_time: Timestamp(t.0.saturating_add(1)),
            key,
            hash: hash_key(key),
            payload,
        }
    }

    /// An interval event with explicit validity `[start, end)`.
    #[inline]
    pub fn interval(start: Timestamp, end: Timestamp, key: u32, payload: P) -> Self {
        debug_assert!(start <= end, "event interval must not be inverted");
        Event {
            sync_time: start,
            other_time: end,
            key,
            hash: hash_key(key),
            payload,
        }
    }

    /// Length of the validity interval.
    #[inline]
    pub fn lifetime(&self) -> TickDuration {
        self.other_time - self.sync_time
    }

    /// Replaces the payload, keeping times/key/hash (a projection step).
    #[inline]
    pub fn map_payload<Q: Payload>(self, f: impl FnOnce(P) -> Q) -> Event<Q> {
        Event {
            sync_time: self.sync_time,
            other_time: self.other_time,
            key: self.key,
            hash: self.hash,
            payload: f(self.payload),
        }
    }

    /// Re-keys the event, recomputing the hash.
    #[inline]
    pub fn with_key(mut self, key: u32) -> Self {
        self.key = key;
        self.hash = hash_key(key);
        self
    }

    /// Total bytes attributable to this event when buffered: the flat
    /// struct plus any payload heap data. This is what [`crate::memory`]
    /// charges to operators that hold events in state.
    #[inline]
    pub fn state_bytes(&self) -> usize {
        core::mem::size_of::<Self>() + self.payload.heap_bytes()
    }
}

impl<P: fmt::Debug> fmt::Debug for Event<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Event({}..{} k={} {:?})",
            self.sync_time, self.other_time, self.key, self.payload
        )
    }
}

/// Anything orderable by event time. Sorters are generic over this so they
/// can sort bare timestamps in unit tests and full events in the engine.
pub trait EventTimed {
    /// The event time used for ordering.
    fn event_time(&self) -> Timestamp;
}

impl EventTimed for Timestamp {
    #[inline]
    fn event_time(&self) -> Timestamp {
        *self
    }
}

impl EventTimed for i64 {
    #[inline]
    fn event_time(&self) -> Timestamp {
        Timestamp(*self)
    }
}

impl<P> EventTimed for Event<P> {
    #[inline]
    fn event_time(&self) -> Timestamp {
        self.sync_time
    }
}

impl<T: EventTimed, U> EventTimed for (T, U) {
    #[inline]
    fn event_time(&self) -> Timestamp {
        self.0.event_time()
    }
}

/// 64-bit finalizer-style mix of a 32-bit key (splitmix64 finalizer).
///
/// Matches what a production engine would do at ingress: hash once, reuse in
/// every grouped operator downstream.
#[inline]
pub fn hash_key(key: u32) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_event_validity() {
        let e = Event::point(Timestamp::new(10), 7u32);
        assert_eq!(e.sync_time, Timestamp::new(10));
        assert_eq!(e.other_time, Timestamp::new(11));
        assert_eq!(e.lifetime(), TickDuration(1));
        assert_eq!(e.key, 0);
        assert_eq!(e.hash, hash_key(0));
        assert_eq!(e.payload, 7);
    }

    #[test]
    fn keyed_event_hash_is_stable_and_spread() {
        let a = Event::keyed(Timestamp::ZERO, 1, ());
        let b = Event::keyed(Timestamp::ZERO, 1, ());
        let c = Event::keyed(Timestamp::ZERO, 2, ());
        assert_eq!(a.hash, b.hash);
        assert_ne!(a.hash, c.hash);
        assert_eq!(a.hash, hash_key(1));
    }

    #[test]
    fn hash_key_avalanche() {
        // Adjacent keys should differ in many bits — cheap sanity check that
        // grouped operators won't see clustered hashes.
        for k in 0..64u32 {
            let d = (hash_key(k) ^ hash_key(k + 1)).count_ones();
            assert!(d >= 16, "keys {k},{} differ in only {d} bits", k + 1);
        }
    }

    #[test]
    fn interval_and_map_payload() {
        let e = Event::interval(
            Timestamp::new(0),
            Timestamp::new(60_000),
            3,
            [1u32, 2, 3, 4],
        );
        assert_eq!(e.lifetime(), TickDuration::minutes(1));
        let f = e.map_payload(|p| p[0] + p[3]);
        assert_eq!(f.payload, 5);
        assert_eq!(f.sync_time, e.sync_time);
        assert_eq!(f.other_time, e.other_time);
        assert_eq!(f.key, 3);
        assert_eq!(f.hash, e.hash);
    }

    #[test]
    fn with_key_rehashes() {
        let e = Event::point(Timestamp::ZERO, ()).with_key(9);
        assert_eq!(e.key, 9);
        assert_eq!(e.hash, hash_key(9));
    }

    #[test]
    fn state_bytes_counts_heap_payloads() {
        let flat = Event::point(Timestamp::ZERO, [0u32; 4]);
        assert_eq!(flat.state_bytes(), core::mem::size_of::<Event<[u32; 4]>>());

        let s = String::with_capacity(100);
        let heap = Event::point(Timestamp::ZERO, s);
        assert_eq!(
            heap.state_bytes(),
            core::mem::size_of::<Event<String>>() + 100
        );
    }

    #[test]
    fn event_layout_matches_paper_metadata_budget() {
        // §VI-C: two 64-bit timestamps + 32-bit key + 64-bit hash alongside
        // the payload. With the 4x u32 eval payload the struct must be
        // exactly these 44 bytes (padded to alignment).
        let meta = 8 + 8 + 4 + 8;
        let payload = 16;
        let sz = core::mem::size_of::<Event<EvalPayload>>();
        assert!(sz >= meta + payload, "layout lost fields: {sz}");
        assert!(
            sz <= meta + payload + 8,
            "layout has excessive padding: {sz}"
        );
    }

    #[test]
    fn event_timed_impls_agree() {
        let t = Timestamp::new(5);
        assert_eq!(t.event_time(), t);
        assert_eq!(5i64.event_time(), t);
        assert_eq!(Event::point(t, ()).event_time(), t);
        assert_eq!((t, "x").event_time(), t);
    }

    #[test]
    fn point_event_at_max_does_not_overflow() {
        let e = Event::point(Timestamp::MAX, ());
        assert_eq!(e.other_time, Timestamp::MAX);
    }
}
