//! The per-window group store of `reduce_by_key` and `group_aggregate`.
//!
//! Log streams group by a key set that recurs window after window, so the
//! table is built once and *outlives* the window: a key keeps its slot, a
//! per-slot stamp says whether the slot belongs to the open window, and
//! closing a window bumps the epoch instead of removing every key. Known
//! keys are kept in ascending order, so emit is one sweep with no sort;
//! keys first seen in a window wait in `fresh` and are merged into that
//! order once, when the window closes.
//!
//! The index is probed with a one-multiply hash of the key rather than
//! [`Event::hash`]: `upsert` is handed a key, not an event, and a
//! multiply is all a `u32` key needs. Nothing observable depends on the
//! probe order — output and checkpoints are key-ascending.

use crate::observer::Observer;
use impatience_core::{hash_key, Event, EventBatch, Payload, SnapshotError, Timestamp};

/// An index cell pointing at no slot.
const EMPTY: u32 = u32::MAX;
/// Index cells of a new table (a power of two).
const MIN_CELLS: usize = 16;

struct Slot<V> {
    key: u32,
    /// Epoch of the last window that touched this slot.
    stamp: u32,
    value: V,
}

/// `(window, key) → V` for one open window at a time, and the groups of
/// closed windows, as `O`, until the operator's call returns.
pub(crate) struct GroupTable<V, O> {
    window: Option<(Timestamp, Timestamp)>,
    /// Open-addressed `key → slot` cells, a power of two, at most half full.
    cells: Vec<u32>,
    shift: u32,
    slots: Vec<Slot<V>>,
    /// Slots known before the open window, ascending by key.
    order: Vec<u32>,
    /// Slots first seen in the open window, in arrival order.
    fresh: Vec<u32>,
    epoch: u32,
    /// Slots stamped with `epoch`.
    live: usize,
    /// Closed windows not yet handed downstream; empty between calls.
    closed: Vec<Event<O>>,
}

impl<V, O> GroupTable<V, O> {
    pub(crate) fn new() -> Self {
        Self::starting_at(0, 0)
    }

    /// An empty table sized for `keys` keys whose first window is `epoch`.
    fn starting_at(epoch: u32, keys: usize) -> Self {
        let cells = (2 * keys).next_power_of_two().max(MIN_CELLS);
        GroupTable {
            window: None,
            cells: vec![EMPTY; cells],
            shift: 32 - cells.trailing_zeros(),
            slots: Vec::with_capacity(keys),
            order: Vec::with_capacity(keys),
            fresh: Vec::new(),
            epoch,
            live: 0,
            closed: Vec::new(),
        }
    }

    /// The open window, if any.
    pub(crate) fn window(&self) -> Option<(Timestamp, Timestamp)> {
        self.window
    }

    fn open_start(&self) -> Option<Timestamp> {
        self.window.map(|(start, _)| start)
    }

    /// First cell of `key`'s probe sequence.
    fn home(&self, key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B1) >> self.shift) as usize
    }

    /// The open window's value for `key` and whether it was already there;
    /// `make` supplies it otherwise.
    #[inline]
    pub(crate) fn upsert(&mut self, key: u32, make: impl FnOnce() -> V) -> (&mut V, bool) {
        let mask = self.cells.len() - 1;
        let mut at = self.home(key);
        let found = loop {
            let cell = self.cells[at];
            if cell == EMPTY || self.slots[cell as usize].key == key {
                break cell;
            }
            at = (at + 1) & mask;
        };
        if found == EMPTY {
            let slot = self.insert_new(at, key, make());
            return (&mut self.slots[slot].value, false);
        }
        let slot = &mut self.slots[found as usize];
        let was_live = slot.stamp == self.epoch;
        if !was_live {
            slot.stamp = self.epoch;
            slot.value = make();
            self.live += 1;
        }
        (&mut slot.value, was_live)
    }

    /// Appends a live slot for an unknown `key` whose probe ended at `at`.
    #[cold]
    fn insert_new(&mut self, at: usize, key: u32, value: V) -> usize {
        let slot = self.slots.len();
        assert!(slot < EMPTY as usize, "group table slot numbers exhausted");
        let stamp = self.epoch;
        self.slots.push(Slot { key, stamp, value });
        self.fresh.push(slot as u32);
        self.live += 1;
        self.cells[at] = slot as u32;
        if 2 * self.slots.len() > self.cells.len() {
            // Twice the cells, every known key probed in afresh.
            self.cells = vec![EMPTY; 2 * self.cells.len()];
            self.shift -= 1;
            for slot in 0..self.slots.len() {
                let mut at = self.home(self.slots[slot].key);
                while self.cells[at] != EMPTY {
                    at = (at + 1) & (self.cells.len() - 1);
                }
                self.cells[at] = slot as u32;
            }
        }
        slot
    }

    /// Moves to the window `[start, end)`, first closing a different open one.
    #[inline]
    pub(crate) fn enter(
        &mut self,
        (start, end): (Timestamp, Timestamp),
        output: impl FnMut(&V) -> O,
    ) {
        if self.open_start() != Some(start) {
            debug_assert!(
                self.open_start() < Some(start),
                "grouped operator saw an out-of-order event"
            );
            self.close(output);
            self.window = Some((start, end));
        }
    }

    /// Closes the open window if it starts at or before `t`.
    pub(crate) fn close_through(&mut self, t: Timestamp, output: impl FnMut(&V) -> O) {
        if self.open_start().is_some_and(|start| start <= t) {
            self.close(output);
        }
    }

    /// Retires the open window's groups, in ascending key order, to `closed`.
    pub(crate) fn close(&mut self, mut output: impl FnMut(&V) -> O) {
        let Some((start, end)) = self.window.take() else {
            return;
        };
        self.merge_fresh();
        self.closed.reserve(self.live);
        for &slot in &self.order {
            let slot = &self.slots[slot as usize];
            if slot.stamp == self.epoch {
                self.closed.push(Event {
                    sync_time: start,
                    other_time: end,
                    key: slot.key,
                    hash: hash_key(slot.key),
                    payload: output(&slot.value),
                });
            }
        }
        // Under a churning key set the sweep would come to visit mostly
        // dead slots, and a slot's stamp must never meet a reused epoch:
        // either way start over, sized for a window like this one.
        if self.order.len() > 4 * self.live + MIN_CELLS || self.epoch == u32::MAX {
            let closed = core::mem::take(&mut self.closed);
            *self = Self::starting_at(0, self.live);
            self.closed = closed;
        } else {
            self.epoch += 1;
            self.live = 0;
        }
    }

    /// Hands the closed windows downstream as one batch.
    pub(crate) fn flush(&mut self, next: &mut impl Observer<O>)
    where
        O: Payload,
    {
        if !self.closed.is_empty() {
            next.on_batch(EventBatch::from_events(core::mem::take(&mut self.closed)));
        }
    }

    /// Merges `fresh` into `order`: `O(new·log new + known)`.
    fn merge_fresh(&mut self) {
        if self.fresh.is_empty() {
            return;
        }
        let slots = &self.slots;
        let key = |slot: u32| slots[slot as usize].key;
        self.fresh.sort_unstable_by_key(|&slot| key(slot));
        let mut read = self.order.len();
        let mut write = read + self.fresh.len();
        self.order.resize(write, 0);
        for &slot in self.fresh.iter().rev() {
            while read > 0 && key(self.order[read - 1]) > key(slot) {
                write -= 1;
                read -= 1;
                self.order[write] = self.order[read];
            }
            write -= 1;
            self.order[write] = slot;
        }
        self.fresh.clear();
    }

    /// The open window's groups, ascending by key (the checkpoint order).
    pub(crate) fn live_sorted(&self) -> Vec<(u32, &V)> {
        let mut live: Vec<(u32, &V)> = self
            .slots
            .iter()
            .filter(|slot| slot.stamp == self.epoch)
            .map(|slot| (slot.key, &slot.value))
            .collect();
        live.sort_unstable_by_key(|&(key, _)| key);
        live
    }

    /// A table holding `window` and `groups` (in any order) as decoded
    /// from a checkpoint of the operator `op`; a repeated key is corrupt.
    pub(crate) fn restored(
        op: &str,
        window: Option<(Timestamp, Timestamp)>,
        groups: Vec<(u32, V)>,
    ) -> Result<Self, SnapshotError> {
        let mut table = Self::starting_at(0, groups.len());
        table.window = window;
        for (key, value) in groups {
            if table.upsert(key, move || value).1 {
                let detail = format!("{op} snapshot repeats key {key}");
                return Err(SnapshotError::corrupt(detail));
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_testkit::prop::vec;
    use std::collections::BTreeMap;

    /// Sums `windows[w]`'s `(key, value)` pairs per window through `table`,
    /// checking every close against a `BTreeMap` and the known-key bound.
    fn check_against_oracle(mut table: GroupTable<u64, u64>, windows: &[Vec<(u32, u64)>]) {
        for (w, pairs) in windows.iter().enumerate() {
            let start = Timestamp::new(10 * w as i64);
            let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
            for &(key, v) in pairs {
                table.enter((start, Timestamp::new(10 * w as i64 + 10)), |v| *v);
                let (acc, partial) = table.upsert(key, || v);
                if partial {
                    *acc += v;
                }
                *oracle.entry(key).or_default() += v;
            }
            assert_eq!(table.live_sorted().len(), oracle.len());
            // Every other window is closed by the next one's first event.
            if w % 2 == 0 || w + 1 == windows.len() {
                table.close(|v| *v);
            } else {
                let next = (
                    Timestamp::new(10 * w as i64 + 10),
                    Timestamp::new(10 * w as i64 + 20),
                );
                table.enter(next, |v| *v);
                assert_eq!(table.window(), Some(next));
            }
            let got: Vec<(i64, u32, u64)> = table
                .closed
                .drain(..)
                .map(|e| {
                    assert_eq!(e.hash, hash_key(e.key));
                    assert_eq!(e.other_time.ticks(), e.sync_time.ticks() + 10);
                    (e.sync_time.ticks(), e.key, e.payload)
                })
                .collect();
            let want: Vec<(i64, u32, u64)> = oracle
                .iter()
                .map(|(&k, &v)| (start.ticks(), k, v))
                .collect();
            assert_eq!(got, want, "window {w}: ascending keys, oracle sums");
            assert!(
                table.order.len() <= 4 * oracle.len() + MIN_CELLS,
                "window {w}: {} known keys for {} live",
                table.order.len(),
                oracle.len()
            );
        }
    }

    impatience_testkit::props! {
        cases = 64;

        fn matches_btreemap_oracle_in_every_regime(
            regime in 0u32..4,
            draws in vec(vec((0u32..1_000_000, 1u64..100), 1..80), 1..14),
        ) {
            let windows: Vec<Vec<(u32, u64)>> = draws
                .iter()
                .enumerate()
                .map(|(w, pairs)| {
                    let w = w as u32;
                    pairs
                        .iter()
                        .map(|&(d, v)| match regime {
                            // One key set, window after window.
                            0 | 3 => (d % 48, v),
                            // Every key new every window.
                            1 => (w * 1_000 + d % 48, v),
                            // A key range that keeps growing: several rehashes.
                            _ => (d % (40 * (w + 1) * (w + 1)), v),
                        })
                        .collect()
                })
                .collect();
            let table = if regime == 3 {
                GroupTable::starting_at(u32::MAX - 2, 0)
            } else {
                GroupTable::new()
            };
            check_against_oracle(table, &windows);
        }
    }

    #[test]
    fn two_hundred_thousand_new_keys_in_one_window() {
        let mut table: GroupTable<u64, u64> = GroupTable::new();
        table.enter((Timestamp::new(0), Timestamp::new(1)), |v| *v);
        // Descending: the worst case for an ordered insert per key.
        for key in (0..200_000u32).rev() {
            table.upsert(key * 3, || u64::from(key));
        }
        table.close(|v| *v);
        let out = &table.closed;
        assert_eq!(out.len(), 200_000);
        assert!(out.windows(2).all(|p| p[0].key < p[1].key));
        assert!(out.iter().all(|e| u64::from(e.key) == 3 * e.payload));
    }

    #[test]
    fn restored_rejects_a_repeated_key() {
        type Table = GroupTable<u64, u64>;
        let ok = Table::restored("op", None, vec![(2, 20), (1, 10)]).expect("distinct keys");
        let live: Vec<(u32, u64)> = ok.live_sorted().into_iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(live, vec![(1, 10), (2, 20)]);
        let err = Table::restored("op", None, vec![(2, 20), (1, 10), (2, 5)])
            .err()
            .expect("a repeated key is refused");
        assert!(
            err.to_string().contains("op snapshot repeats key 2"),
            "{err}"
        );
    }
}
