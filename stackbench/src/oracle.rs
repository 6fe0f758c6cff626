//! Reference results every workload's output is checked against.
//!
//! Timed repetitions fold their output into an order-sensitive hash as it
//! arrives (cheap and constant per event); the references here are
//! computed once per run, outside the timed section, by code that shares
//! nothing with the engine: admission is decided from the punctuation
//! schedule alone, ordering by a plain stable sort, aggregation by a map.

use impatience_core::{hash_key, EvalPayload, Event, TickDuration, Timestamp};
use std::collections::BTreeMap;

/// Order-sensitive digest of an output stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold {
    /// Events folded.
    pub events: u64,
    /// Punctuations folded.
    pub puncts: u64,
    /// FNV-1a style running hash over every field of every message.
    pub hash: u64,
}

impl Default for Fold {
    fn default() -> Self {
        Fold {
            events: 0,
            puncts: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fold {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.hash = (self.hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds one output event (payload widened to 64 bits).
    #[inline]
    pub fn event(&mut self, sync: Timestamp, other: Timestamp, key: u32, payload: u64) {
        self.events += 1;
        self.mix(sync.ticks() as u64);
        self.mix(other.ticks() as u64);
        self.mix(u64::from(key));
        self.mix(payload);
    }

    /// Folds a slice of `i64`-payload events.
    pub fn events_i64(&mut self, events: &[Event<i64>]) {
        for e in events {
            self.event(e.sync_time, e.other_time, e.key, e.payload as u64);
        }
    }

    /// Folds one output punctuation.
    #[inline]
    pub fn punct(&mut self, t: Timestamp) {
        self.puncts += 1;
        self.mix(0x9e37_79b9_7f4a_7c15 ^ t.ticks() as u64);
    }
}

/// The punctuation an in-process drive issues after each batch: the high
/// watermark minus `latency`, when that advances.
pub fn fixed_latency_schedule(
    batches: &[Vec<Event<i64>>],
    latency: TickDuration,
) -> Vec<Option<Timestamp>> {
    let mut high = Timestamp::MIN;
    let mut last = Timestamp::MIN;
    batches
        .iter()
        .map(|b| {
            high = high.max(crate::inputs::max_sync(b));
            let p = high.saturating_sub(latency);
            (p > last).then(|| {
                last = p;
                p
            })
        })
        .collect()
}

/// Events the late policy admits: an event is dropped when its time is at
/// or below the last punctuation issued before its batch. `puncts[i]` is
/// the punctuation issued after batch `i`, if any.
pub fn admitted(batches: &[Vec<Event<i64>>], puncts: &[Option<Timestamp>]) -> Vec<Event<i64>> {
    let mut watermark = Timestamp::MIN;
    let mut out = Vec::new();
    for (batch, p) in batches.iter().zip(puncts) {
        out.extend(batch.iter().filter(|e| e.sync_time > watermark).copied());
        if let Some(p) = p {
            watermark = watermark.max(*p);
        }
    }
    out
}

/// Most events buffered at once under the late policy and the schedule:
/// what a sorter must hold just before its fullest punctuation. A pure
/// function of the input (unlike a sorter's `state_bytes`, which steps
/// with `Vec` capacity), so budgets derived from it vary smoothly with
/// the seed.
pub fn buffered_high_water(batches: &[Vec<Event<i64>>], puncts: &[Option<Timestamp>]) -> usize {
    let mut watermark = Timestamp::MIN;
    let mut held = std::collections::BinaryHeap::new();
    let mut high_water = 0usize;
    for (batch, p) in batches.iter().zip(puncts) {
        held.extend(
            batch
                .iter()
                .filter(|e| e.sync_time > watermark)
                .map(|e| std::cmp::Reverse(e.sync_time)),
        );
        high_water = high_water.max(held.len());
        if let Some(p) = p {
            watermark = watermark.max(*p);
            while held.peek().is_some_and(|t| t.0 <= watermark) {
                held.pop();
            }
        }
    }
    high_water
}

/// `[TumblingWindow(window), SumByKey]` over the admitted events: one
/// event per (window, key), windows in time order, keys ascending.
pub fn windowed_sums(admitted: &[Event<i64>], window: TickDuration) -> Vec<Event<i64>> {
    let mut groups: BTreeMap<(Timestamp, u32), i64> = BTreeMap::new();
    for e in admitted {
        let sum = groups
            .entry((e.sync_time.align_down(window), e.key))
            .or_insert(0);
        *sum = sum.wrapping_add(e.payload);
    }
    groups
        .into_iter()
        .map(|((start, key), sum)| Event {
            sync_time: start,
            other_time: start + window,
            key,
            hash: hash_key(key),
            payload: sum,
        })
        .collect()
}

/// `[Scale(factor)]` over the admitted events: the stable
/// `(sync_time, arrival)` sort with payloads scaled.
pub fn stable_sorted_scaled(admitted: &[Event<i64>], factor: i64) -> Vec<Event<i64>> {
    let mut out: Vec<Event<i64>> = admitted
        .iter()
        .map(|e| e.map_payload(|p| p.wrapping_mul(factor)))
        .collect();
    out.sort_by_key(|e| e.sync_time); // `sort_by_key` is stable
    out
}

/// What the Impatience framework must produce for a windowed grouped
/// count over a latency ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderReference {
    /// Events routed to each partition (delay below its latency and not
    /// below the previous one's).
    pub routed: Vec<u64>,
    /// Events too delayed for every rung.
    pub dropped: u64,
    /// Expected output of each stream, sorted by (window, group).
    pub streams: Vec<Vec<Event<u64>>>,
}

/// Routes `events` (arrival order) by delay behind the running maximum of
/// *window-aligned* time — the window runs below the partitioner — and
/// counts per (window, group) for every output stream `i`, which holds
/// partitions `0..=i`.
pub fn ladder_counts(
    events: &[Event<EvalPayload>],
    ladder: &[TickDuration],
    window: TickDuration,
    group_of: impl Fn(&Event<EvalPayload>) -> u32,
) -> LadderReference {
    let mut high = Timestamp::MIN;
    let mut routed = vec![0u64; ladder.len()];
    let mut dropped = 0u64;
    let mut counts: Vec<BTreeMap<(Timestamp, u32), u64>> = vec![BTreeMap::new(); ladder.len()];
    for e in events {
        let start = e.sync_time.align_down(window);
        high = high.max(start);
        let delay = high - start;
        match ladder.iter().position(|&l| delay < l) {
            Some(rung) => {
                routed[rung] += 1;
                let group = group_of(e);
                for stream in &mut counts[rung..] {
                    *stream.entry((start, group)).or_insert(0) += 1;
                }
            }
            None => dropped += 1,
        }
    }
    let streams = counts
        .into_iter()
        .map(|c| {
            c.into_iter()
                .map(|((start, key), n)| Event {
                    sync_time: start,
                    other_time: start + window,
                    key,
                    hash: hash_key(key),
                    payload: n,
                })
                .collect()
        })
        .collect();
    LadderReference {
        routed,
        dropped,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: i64, key: u32, p: i64) -> Event<i64> {
        Event::keyed(Timestamp::new(t), key, p)
    }

    #[test]
    fn late_events_are_dropped_against_the_previous_punctuation() {
        let batches = vec![
            vec![ev(10, 1, 0), ev(30, 1, 1), ev(20, 2, 2)],
            vec![ev(15, 1, 3), ev(25, 2, 4), ev(40, 1, 5)],
        ];
        let puncts = fixed_latency_schedule(&batches, TickDuration::ticks(10));
        assert_eq!(
            puncts,
            vec![Some(Timestamp::new(20)), Some(Timestamp::new(30))]
        );
        let kept = admitted(&batches, &puncts);
        // 15 <= 20 arrives after punctuation 20 and is late.
        assert_eq!(
            kept.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![0, 1, 2, 4, 5]
        );
        // Batch 0 buffers 3; punctuation 20 releases two; batch 1 adds
        // its two admitted events to the one still held.
        assert_eq!(buffered_high_water(&batches, &puncts), 3);
        let sums = windowed_sums(&kept, TickDuration::ticks(20));
        let flat: Vec<(i64, u32, i64)> = sums
            .iter()
            .map(|e| (e.sync_time.ticks(), e.key, e.payload))
            .collect();
        assert_eq!(flat, vec![(0, 1, 0), (20, 1, 1), (20, 2, 6), (40, 1, 5)]);
        assert_eq!(sums[1].other_time, Timestamp::new(40));
    }

    #[test]
    fn stable_sort_keeps_arrival_order_among_equal_times() {
        let out = stable_sorted_scaled(&[ev(5, 0, 1), ev(3, 0, 2), ev(5, 0, 3), ev(3, 0, 4)], 3);
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![6, 12, 3, 9]
        );
    }

    #[test]
    fn fold_is_order_sensitive() {
        let a = [ev(1, 0, 1), ev(2, 0, 2)];
        let b = [ev(2, 0, 2), ev(1, 0, 1)];
        let (mut fa, mut fb) = (Fold::default(), Fold::default());
        fa.events_i64(&a);
        fb.events_i64(&b);
        assert_eq!(fa.events, 2);
        assert_ne!(fa.hash, fb.hash);
        let mut fc = fa;
        fc.punct(Timestamp::new(2));
        assert_ne!(fc, fa);
    }

    #[test]
    fn ladder_routes_by_delay_and_streams_accumulate_partitions() {
        let e = |t: i64, g: u32| Event::keyed(Timestamp::new(t), 0, [0, 0, g, 0]);
        // window 10; ladder {10, 100}: delays 0, 0, 20 (rung 1), 200 (drop).
        let events = [e(5, 1), e(205, 1), e(185, 2), e(7, 1)];
        let r = ladder_counts(
            &events,
            &[TickDuration::ticks(10), TickDuration::ticks(100)],
            TickDuration::ticks(10),
            |e| e.payload[2],
        );
        assert_eq!(r.routed, vec![2, 1]);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.streams[0].len(), 2);
        assert_eq!(r.streams[1].len(), 3);
        assert_eq!(r.streams[1][1].sync_time, Timestamp::new(180));
        assert_eq!(r.streams[1][1].key, 2);
    }
}
