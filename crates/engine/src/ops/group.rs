//! The per-window group store of the grouped operator
//! (`group_aggregate` and `reduce_by_key`), its checkpoint frame, and
//! [`WindowTables`], one store per open window, which a ladder rung's sort
//! and its PIQ's opening grouped operator fuse into.
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
use crate::ops::Aggregate;
use impatience_core::{
    hash_key, Event, EventBatch, Payload, SnapshotError, SnapshotReader, SnapshotWriter,
    StateCodec, TickDuration, Timestamp,
};
use impatience_sort::OnlineSorter;
use std::collections::VecDeque;

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

    /// Opens `window` on a table with none open.
    fn open(&mut self, window: (Timestamp, Timestamp)) {
        debug_assert!(self.window.is_none(), "a window is already open");
        self.window = Some(window);
    }

    /// Groups in the open window.
    fn live(&self) -> usize {
        self.live
    }

    /// Bytes of capacity the table holds.
    fn heap_bytes(&self) -> usize {
        self.cells.capacity() * core::mem::size_of::<u32>()
            + self.slots.capacity() * core::mem::size_of::<Slot<V>>()
            + (self.order.capacity() + self.fresh.capacity()) * core::mem::size_of::<u32>()
            + self.closed.capacity() * core::mem::size_of::<Event<O>>()
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
    fn live_sorted(&self) -> Vec<(u32, &V)> {
        let mut live: Vec<(u32, &V)> = self
            .slots
            .iter()
            .filter(|slot| slot.stamp == self.epoch)
            .map(|slot| (slot.key, &slot.value))
            .collect();
        live.sort_unstable_by_key(|&(key, _)| key);
        live
    }
}

/// The group frame, the one checkpoint layout of a table: the open window,
/// then its `(key, value)` pairs ascending by key.
impl<V: StateCodec, O> GroupTable<V, O> {
    pub(crate) fn encode(&self, w: &mut SnapshotWriter) {
        let live = self.live_sorted();
        self.window.encode(w);
        w.put_u64(live.len() as u64);
        for (key, value) in live {
            key.encode(w);
            value.encode(w);
        }
    }

    /// A table decoded from a group frame of the operator `op`. Groups
    /// with no open window, or a key repeated, are corrupt: the writer
    /// produces neither.
    pub(crate) fn decode(op: &str, r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let window = Option::<(Timestamp, Timestamp)>::decode(r)?;
        let n = r.get_count()?;
        if window.is_none() && n > 0 {
            let detail = format!("{op} snapshot holds {n} groups but no open window");
            return Err(SnapshotError::corrupt(detail));
        }
        let mut table = Self::starting_at(0, n);
        table.window = window;
        for _ in 0..n {
            let key = u32::decode(r)?;
            let value = V::decode(r)?;
            if table.upsert(key, move || value).1 {
                let detail = format!("{op} snapshot repeats key {key}");
                return Err(SnapshotError::corrupt(detail));
            }
        }
        Ok(table)
    }
}

/// First byte of a [`WindowTables`] snapshot. The bucket sorter's opens
/// with `B` and Impatience's with its Huffman flag, 0 or 1, so each refuses
/// the others' state as corrupt.
const TABLES_TAG: u8 = b'W';

/// The group table of `A`'s accumulators over `P`.
type Table<P, A> = GroupTable<<A as Aggregate<P>>::Acc, <A as Aggregate<P>>::Out>;

/// A ladder rung's sort fused with the grouped operator that opens its
/// PIQ (`group_aggregate` or `reduce_by_key`): one [`GroupTable`] per open
/// window start. Each admitted event is
/// folded into its window's table as it arrives; a punctuation closes
/// every window at or below it, in window order, keys ascending, so it
/// hands on exactly the groups the aggregate would have emitted over the
/// sorted events — with no event buffered and none sorted.
///
/// * **Legal because the PIQ regroups.** Over window-aligned input a
///   grouped operator's output is a function of each `(window, key)`
///   group's events, folded in arrival order within a window — the order
///   the bucket sorter it replaces would have kept, so even a
///   non-commutative `reduce_by_key` combine sees the same sequence.
/// * **Finding the window** is the bucket sorter's: tables sit in a
///   `VecDeque` in ascending start order, a push guesses the index
///   `(t − front) / step` and falls back to a binary search, which opens
///   a table for an unseen start. Before guessing it tries the table the
///   last push landed in: log arrivals come in runs within one window.
/// * **Few allocations.** A closed table keeps its key slots and becomes a
///   spare for the next window to open, so windows over a recurring key
///   set allocate nothing. Spares the next batch leaves unused go at the
///   next punctuation, and one that drains every window frees them all.
///
/// State bytes count every table's capacity, spares included; buffered
/// items are the open groups.
pub(crate) struct WindowTables<P: Payload, A: Aggregate<P>> {
    agg: A,
    /// `(start, table)` in ascending start order; every table is open and
    /// holds at least one group.
    windows: VecDeque<(Timestamp, Table<P, A>)>,
    /// Tables the last punctuation closed, kept for the windows the next
    /// batch opens.
    spares: Vec<Table<P, A>>,
    /// The expected distance between adjacent window starts, ticks.
    step: u64,
    /// Index of the table the last push landed in.
    hit: usize,
    last_punctuation: Timestamp,
    _payload: core::marker::PhantomData<fn(P)>,
}

impl<P: Payload, A: Aggregate<P>> WindowTables<P, A> {
    /// Tables for `agg` over windows expected `step` ticks apart (the
    /// window's size). Any positive `step` groups correctly.
    pub(crate) fn new(agg: A, step: TickDuration) -> Self {
        assert!(step.is_positive(), "window step must be positive");
        WindowTables {
            agg,
            windows: VecDeque::new(),
            spares: Vec::new(),
            step: step.as_ticks() as u64,
            hit: 0,
            last_punctuation: Timestamp::MIN,
            _payload: core::marker::PhantomData,
        }
    }

    /// The index of the table for start `t`, opening one ending at `end`
    /// if there is none. Arrivals come in runs within one window, so the
    /// table the last push landed in is tried first, then the guess.
    #[inline]
    fn position(&mut self, t: Timestamp, end: Timestamp) -> usize {
        let last = self.windows.get(self.hit);
        if last.is_none_or(|(start, _)| *start != t) {
            self.hit = self.guess(t).unwrap_or_else(|| self.searched(t, end));
        }
        self.hit
    }

    /// The index `(t − front) / step`, if the table there starts at `t`.
    #[inline]
    fn guess(&self, t: Timestamp) -> Option<usize> {
        let (front, _) = self.windows.front()?;
        // `abs_diff` cannot overflow, even between `MIN` and `MAX`.
        let last = self.windows.len() as u64 - 1;
        let guess = (t.abs_diff(*front) / self.step).min(last) as usize;
        (self.windows[guess].0 == t).then_some(guess)
    }

    /// The guess missed: binary search, opening a table for a new start.
    #[cold]
    fn searched(&mut self, t: Timestamp, end: Timestamp) -> usize {
        match self.windows.binary_search_by_key(&t, |(start, _)| *start) {
            Ok(at) => at,
            Err(at) => {
                let mut table = self.spares.pop().unwrap_or_else(GroupTable::new);
                table.open((t, end));
                self.windows.insert(at, (t, table));
                at
            }
        }
    }
}

impl<P: Payload, A: Aggregate<P>> OnlineSorter<Event<P>, Event<A::Out>> for WindowTables<P, A> {
    #[inline]
    fn push(&mut self, e: Event<P>) {
        // A window start saturated at `Timestamp::MIN` may arrive while
        // `last_punctuation` still reads `MIN`, meaning "none yet".
        debug_assert!(
            e.sync_time > self.last_punctuation || e.sync_time == Timestamp::MIN,
            "event at {:?} violates punctuation {:?}",
            e.sync_time,
            self.last_punctuation
        );
        let at = self.position(e.sync_time, e.other_time);
        let agg = &self.agg;
        let (acc, live) = self.windows[at].1.upsert(e.key, || agg.first(&e));
        if live {
            agg.fold(acc, &e);
        }
    }

    fn punctuate(&mut self, t: Timestamp, out: &mut Vec<Event<A::Out>>) {
        debug_assert!(
            t >= self.last_punctuation,
            "punctuation regressed: {t:?} after {:?}",
            self.last_punctuation
        );
        self.last_punctuation = t;
        // Spares the last batch did not use go.
        self.spares.clear();
        let ready = self.windows.partition_point(|(start, _)| *start <= t);
        out.reserve(self.windows.range(..ready).map(|(_, w)| w.live()).sum());
        let agg = &self.agg;
        for (_, mut table) in self.windows.drain(..ready) {
            // The table closes into `out`, lent to it as its `closed` list.
            core::mem::swap(&mut table.closed, out);
            table.close(|acc| agg.output(acc));
            core::mem::swap(&mut table.closed, out);
            self.spares.push(table);
        }
        if self.windows.is_empty() {
            // Fully drained — a forced cut always is: an idle stage
            // accounts for zero bytes.
            self.windows = VecDeque::new();
            self.spares = Vec::new();
        }
    }

    fn buffered_len(&self) -> usize {
        self.windows.iter().map(|(_, table)| table.live()).sum()
    }

    fn state_bytes(&self) -> usize {
        let tables = self.windows.iter().map(|(_, table)| table);
        tables
            .chain(&self.spares)
            .map(GroupTable::heap_bytes)
            .sum::<usize>()
            + self.windows.capacity() * core::mem::size_of::<(Timestamp, Table<P, A>)>()
            + self.spares.capacity() * core::mem::size_of::<Table<P, A>>()
    }

    fn name(&self) -> &'static str {
        "WindowTables"
    }

    /// Tag, last punctuation, then each window's group frame.
    fn encode_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.put_u8(TABLES_TAG);
        w.put_i64(self.last_punctuation.ticks());
        w.put_u64(self.windows.len() as u64);
        for (_, table) in &self.windows {
            table.encode(w);
        }
        Ok(())
    }

    /// Re-validates what `push` guarantees — every window open and
    /// non-empty, starts strictly ascending, each key once per window — so
    /// corrupt data that survives the frame checksum still cannot poison
    /// the stage. A failed restore leaves the tables untouched.
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        if tag != TABLES_TAG {
            return Err(SnapshotError::corrupt(format!(
                "not a window-table snapshot (tag {tag})"
            )));
        }
        let last_punctuation = Timestamp::new(r.get_i64()?);
        let count = r.get_count()?;
        let mut windows = VecDeque::with_capacity(count);
        for _ in 0..count {
            let table = Table::<P, A>::decode("window table", r)?;
            let Some((start, _)) = table.window() else {
                return Err(SnapshotError::corrupt("closed window in snapshot"));
            };
            if table.live() == 0 {
                return Err(SnapshotError::corrupt("empty window in snapshot"));
            }
            if windows.back().is_some_and(|(last, _)| *last >= start) {
                return Err(SnapshotError::corrupt(
                    "window starts not strictly ascending in snapshot",
                ));
            }
            windows.push_back((start, table));
        }
        self.windows = windows;
        self.spares = Vec::new();
        self.last_punctuation = last_punctuation;
        Ok(())
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

    type Tables = WindowTables<u32, crate::ops::CountAgg>;

    fn tables() -> Tables {
        WindowTables::new(crate::ops::CountAgg, TickDuration::ticks(10))
    }

    /// An event in the 10-tick window starting at `start`.
    fn windowed(start: i64, key: u32) -> Event<u32> {
        Event::interval(Timestamp::new(start), Timestamp::new(start + 10), key, key)
    }

    /// `(start, key, count)` per emitted group, checking each one's bounds.
    fn groups(out: &[Event<u64>]) -> Vec<(i64, u32, u64)> {
        out.iter()
            .map(|e| {
                assert_eq!(e.other_time.ticks(), e.sync_time.ticks() + 10);
                assert_eq!(e.hash, hash_key(e.key));
                (e.sync_time.ticks(), e.key, e.payload)
            })
            .collect()
    }

    impatience_testkit::props! {
        cases = 64;

        /// Folding on arrival emits, at every punctuation, exactly what
        /// sorting the admitted events and then counting per window and key
        /// would: windows ascending, keys ascending within a window.
        fn window_tables_match_sort_then_group(
            arrivals in vec((0i64..24, 0u32..12), 1..300),
            cut_every in 1usize..40,
        ) {
            let mut tables = tables();
            let mut pending: BTreeMap<(i64, u32), u64> = BTreeMap::new();
            let mut punctuation = i64::MIN;
            let mut out = Vec::new();
            for (i, &(w, key)) in arrivals.iter().enumerate() {
                let start = 10 * w;
                if start > punctuation {
                    tables.push(windowed(start, key));
                    *pending.entry((start, key)).or_default() += 1;
                }
                assert_eq!(tables.buffered_len(), pending.len());
                if i % cut_every == cut_every - 1 {
                    punctuation = punctuation.max(start - 25);
                    out.clear();
                    tables.punctuate(Timestamp::new(punctuation), &mut out);
                    let rest = pending.split_off(&(punctuation + 1, 0));
                    let want: Vec<(i64, u32, u64)> =
                        pending.iter().map(|(&(s, k), &n)| (s, k, n)).collect();
                    assert_eq!(groups(&out), want, "punctuation {punctuation}");
                    pending = rest;
                }
            }
            out.clear();
            tables.drain_all(&mut out);
            let want: Vec<(i64, u32, u64)> =
                pending.iter().map(|(&(s, k), &n)| (s, k, n)).collect();
            assert_eq!(groups(&out), want, "drain");
            assert_eq!(tables.buffered_len(), 0);
            assert_eq!(tables.state_bytes(), 0, "a drained stage holds nothing");
        }
    }

    #[test]
    fn a_closed_table_is_the_next_windows_and_keeps_its_keys() {
        let mut t = tables();
        for key in 0..40 {
            t.push(windowed(0, key));
            t.push(windowed(10, key));
        }
        let mut out = Vec::new();
        t.punctuate(Timestamp::new(0), &mut out);
        assert_eq!(out.len(), 40);
        assert_eq!(t.spares.len(), 1, "the closed window became a spare");
        let before = t.state_bytes();
        for key in 0..40 {
            t.push(windowed(20, key));
        }
        assert!(t.spares.is_empty(), "the new window took the spare");
        assert_eq!(t.state_bytes(), before, "known keys: nothing allocated");
        t.punctuate(Timestamp::new(10), &mut Vec::new());
        t.push(windowed(30, 1));
        t.punctuate(Timestamp::new(20), &mut Vec::new());
        assert_eq!(
            t.spares.len(),
            1,
            "unused spares go at the next punctuation"
        );
    }

    fn encode(tables: &dyn OnlineSorter<Event<u32>, Event<u64>>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        tables.encode_state(&mut w).expect("encodes");
        w.into_body()
    }

    #[test]
    fn window_tables_round_trip_mid_window() {
        let mut live = tables();
        for (start, key) in [(0, 3), (10, 1), (20, 5), (10, 1), (20, 2), (0, 3)] {
            live.push(windowed(start, key));
        }
        live.punctuate(Timestamp::new(5), &mut Vec::new());
        let mut restored = tables();
        restored
            .restore_state(&mut SnapshotReader::new(&encode(&live)))
            .expect("restores");
        assert_eq!(restored.buffered_len(), live.buffered_len());
        assert_eq!(restored.last_punctuation, live.last_punctuation);
        assert_eq!(encode(&restored), encode(&live), "re-encodes byte for byte");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for t in [&mut live, &mut restored] {
            t.push(windowed(20, 2));
            t.push(windowed(30, 0));
        }
        live.drain_all(&mut a);
        restored.drain_all(&mut b);
        assert_eq!(groups(&a), groups(&b));
        assert_eq!(
            groups(&a),
            vec![(10, 1, 2), (20, 2, 2), (20, 5, 1), (30, 0, 1)]
        );
    }

    /// A window-table frame written window by window, as `encode_state`
    /// lays it out.
    fn frame(windows: &[(i64, &[(u32, u64)])]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u8(TABLES_TAG);
        w.put_i64(i64::MIN);
        w.put_u64(windows.len() as u64);
        for &(start, groups) in windows {
            Some((Timestamp::new(start), Timestamp::new(start + 10))).encode(&mut w);
            w.put_u64(groups.len() as u64);
            for (key, count) in groups {
                key.encode(&mut w);
                count.encode(&mut w);
            }
        }
        w.into_body()
    }

    fn refusal(bytes: &[u8]) -> String {
        let mut target = tables();
        target.push(windowed(40, 9));
        let before = encode(&target);
        let err = target
            .restore_state(&mut SnapshotReader::new(bytes))
            .expect_err("refused");
        assert_eq!(encode(&target), before, "a failed restore left state");
        match err {
            SnapshotError::Corrupt { detail } => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn window_table_restore_refuses_what_push_could_not_have_built() {
        let ok = frame(&[(0, &[(1, 2), (4, 1)]), (10, &[(1, 1)])]);
        tables()
            .restore_state(&mut SnapshotReader::new(&ok))
            .expect("a valid layout restores");
        assert!(refusal(&frame(&[(10, &[(1, 1)]), (0, &[(2, 1)])])).contains("strictly ascending"));
        assert!(refusal(&frame(&[(0, &[(1, 1)]), (0, &[(2, 1)])])).contains("strictly ascending"));
        assert!(refusal(&frame(&[(0, &[(3, 1), (3, 2)])])).contains("repeats key 3"));
        assert!(refusal(&frame(&[(0, &[])])).contains("empty window"));
    }

    #[test]
    fn a_bucket_frame_and_a_table_frame_refuse_each_other() {
        use impatience_sort::BucketSorter;
        let mut bucket: BucketSorter<Event<u32>> = BucketSorter::new(TickDuration::ticks(10));
        let mut table = tables();
        for start in [20, 0, 10] {
            bucket.push(windowed(start, 1));
            table.push(windowed(start, 1));
        }
        let mut w = SnapshotWriter::new();
        bucket.encode_state(&mut w).expect("encodes");
        assert!(refusal(&w.into_body()).contains("not a window-table snapshot"));
        let mut target: BucketSorter<Event<u32>> = BucketSorter::new(TickDuration::ticks(10));
        let err = target
            .restore_state(&mut SnapshotReader::new(&encode(&table)))
            .expect_err("refused");
        assert!(
            matches!(&err, SnapshotError::Corrupt { detail } if detail.contains("not a bucket sorter snapshot")),
            "{err:?}"
        );
        assert_eq!(target.buffered_len(), 0);
    }
}
