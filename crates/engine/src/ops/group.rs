//! The per-window group store of the grouped operator
//! (`group_aggregate` and `reduce_by_key`), its checkpoint frame, and
//! [`WindowTables`], which a ladder rung's sort and its PIQ's opening
//! grouped operator fuse into: the bucket grid the bucket sorter runs on
//! ([`BucketGrid`]), over one store per open window instead of a `Vec` of
//! events.
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
    StateCodec, Timestamp,
};
use impatience_sort::{Bucket, BucketGrid};

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
    fn capacity_bytes(&self) -> usize {
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

/// The group table of `A`'s accumulators over `P`.
type Table<P, A> = GroupTable<<A as Aggregate<P>>::Acc, <A as Aggregate<P>>::Out>;

/// A ladder rung's sort fused with the grouped operator that opens its
/// PIQ (`group_aggregate` or `reduce_by_key`): the bucket grid over one
/// [`GroupTable`] per open window start, built by
/// [`with_shared`](BucketGrid::with_shared)`(agg, window size)`. Each
/// admitted event is folded into its window's table as it arrives; a
/// punctuation closes every window at or below it, in window order, keys
/// ascending — exactly the groups the aggregate would have emitted over the
/// sorted events, with no event buffered and none sorted. That is legal
/// because the PIQ regroups: over window-aligned input its output is a
/// function of each `(window, key)` group's events, folded in arrival
/// order within a window — the order the bucket sorter it replaces would
/// have kept, so even a non-commutative `reduce_by_key` combine sees the
/// same sequence.
pub(crate) type WindowTables<P, A> = BucketGrid<WindowTable<P, A>>;

/// One open window's groups, a [`Bucket`] that folds each event into its
/// key's slot; its frame is the table's group frame. A closed table keeps
/// its key slots as the grid's spare, so windows over a recurring key set
/// allocate nothing.
pub(crate) struct WindowTable<P: Payload, A: Aggregate<P>>(Table<P, A>);

impl<P: Payload, A: Aggregate<P>> Bucket for WindowTable<P, A> {
    type Item = Event<P>;
    type Out = Event<A::Out>;
    type Shared = A;
    /// The bucket sorter's snapshot opens with `B` and Impatience's with
    /// its Huffman flag, 0 or 1, so each refuses the others' state.
    const TAG: u8 = b'W';
    const NAME: &'static str = "WindowTables";
    const SNAPSHOT: &'static str = "window-table";
    /// A group's slot, its place in the key order and the two index cells
    /// a table at most half full keeps per slot.
    const ENTRY_BYTES: usize =
        core::mem::size_of::<Slot<A::Acc>>() + 3 * core::mem::size_of::<u32>();

    fn open(spare: Option<Self>, first: &Event<P>, _: usize) -> Self {
        let mut table = spare.unwrap_or_else(|| WindowTable(GroupTable::new()));
        table.0.open((first.sync_time, first.other_time));
        table
    }

    #[inline]
    fn add(&mut self, agg: &A, e: Event<P>) -> bool {
        let (acc, live) = self.0.upsert(e.key, || agg.first(&e));
        if live {
            agg.fold(acc, &e);
        }
        !live
    }

    fn buffered(&self) -> usize {
        self.0.live()
    }

    fn capacity_bytes(&self) -> usize {
        self.0.capacity_bytes()
    }

    fn close(&mut self, agg: &A, out: &mut Vec<Event<A::Out>>) {
        // The table closes into `out`, lent to it as its `closed` list.
        core::mem::swap(&mut self.0.closed, out);
        self.0.close(|acc| agg.output(acc));
        core::mem::swap(&mut self.0.closed, out);
    }

    fn encode(&self, w: &mut SnapshotWriter) {
        self.0.encode(w);
    }

    /// Also refuses a closed window and a key repeated within one.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<(Timestamp, Self), SnapshotError> {
        let table = Table::<P, A>::decode("window table", r)?;
        match table.window() {
            Some((start, _)) => Ok((start, WindowTable(table))),
            None => Err(SnapshotError::corrupt("closed window in snapshot")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::TickDuration;
    use impatience_sort::OnlineSorter;
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
        WindowTables::with_shared(crate::ops::CountAgg, TickDuration::ticks(10))
    }

    /// An event in the 10-tick window starting at `start`.
    fn windowed(start: i64, key: u32) -> Event<u32> {
        let end = Timestamp::new(start.saturating_add(10));
        Event::interval(Timestamp::new(start), end, key, key)
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

    /// The lifecycle the grid gives both bucket kinds, one row per test,
    /// each run over the bucket sorter's buckets and the fused rung's
    /// window tables.
    mod lifecycle {
        use super::*;
        use impatience_sort::{BucketSorter, ImpatienceSorter};

        /// A bucket kind under test, fed [`windowed`] events.
        trait Kind: Bucket<Item = Event<u32>, Shared: Send> + Send {
            /// A grid over times `step` apart.
            fn grid(step: i64) -> BucketGrid<Self>;
            /// `(start, key)` of each event `out` stands for, in order.
            fn emitted(out: &[Self::Out]) -> Vec<(i64, u32)>;
            /// Appends a bucket frame of one event per key at `start`.
            fn bucket_frame(w: &mut SnapshotWriter, start: i64, keys: &[u32]);
            /// Frames only this kind refuses, with what each refusal says.
            fn own_refusals() -> Vec<(Vec<u8>, &'static str)>;
        }

        impl Kind for Vec<Event<u32>> {
            fn grid(step: i64) -> BucketGrid<Self> {
                BucketSorter::new(TickDuration::ticks(step))
            }

            fn emitted(out: &[Event<u32>]) -> Vec<(i64, u32)> {
                out.iter().map(|e| (e.sync_time.ticks(), e.key)).collect()
            }

            fn bucket_frame(w: &mut SnapshotWriter, start: i64, keys: &[u32]) {
                w.put_u64(keys.len() as u64);
                for &key in keys {
                    windowed(start, key).encode(w);
                }
            }

            fn own_refusals() -> Vec<(Vec<u8>, &'static str)> {
                let mut w = header::<Self>(1);
                w.put_u64(2);
                windowed(0, 1).encode(&mut w);
                windowed(10, 1).encode(&mut w);
                vec![(w.into_body(), "mixes event times")]
            }
        }

        impl Kind for WindowTable<u32, crate::ops::CountAgg> {
            fn grid(step: i64) -> BucketGrid<Self> {
                WindowTables::with_shared(crate::ops::CountAgg, TickDuration::ticks(step))
            }

            fn emitted(out: &[Event<u64>]) -> Vec<(i64, u32)> {
                let each = |e: &Event<u64>| vec![(e.sync_time.ticks(), e.key); e.payload as usize];
                out.iter().flat_map(each).collect()
            }

            fn bucket_frame(w: &mut SnapshotWriter, start: i64, keys: &[u32]) {
                Some((Timestamp::new(start), Timestamp::new(start + 10))).encode(w);
                w.put_u64(keys.len() as u64);
                for key in keys {
                    key.encode(w);
                    1u64.encode(w);
                }
            }

            fn own_refusals() -> Vec<(Vec<u8>, &'static str)> {
                let mut w = header::<Self>(1);
                None::<(Timestamp, Timestamp)>.encode(&mut w);
                w.put_u64(0);
                let repeated = frame::<Self>(&[(0, &[3, 3])]);
                vec![
                    (repeated, "repeats key 3"),
                    (w.into_body(), "closed window"),
                ]
            }
        }

        /// The rows, each a test per kind: `<row>::bucket_sorter` and
        /// `<row>::window_tables`.
        macro_rules! rows {
            ($($row:ident),* $(,)?) => {$(
                mod $row {
                    #[test]
                    fn bucket_sorter() {
                        super::$row::<Vec<super::Event<u32>>>();
                    }

                    #[test]
                    fn window_tables() {
                        super::$row::<super::WindowTable<u32, crate::ops::CountAgg>>();
                    }
                }
            )*};
        }

        rows!(
            extremes_cost_one_bucket_each,
            capacity_bytes_follow_allocation,
            a_draining_punctuation_charges_nothing,
            a_closed_table_is_the_next_windows_and_keeps_its_keys,
            a_snapshot_round_trip_preserves_behaviour,
            restore_refuses_what_push_could_not_have_built,
            each_sorter_refuses_the_others_snapshot,
        );

        fn encode<O>(sorter: &dyn OnlineSorter<Event<u32>, O>) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            sorter.encode_state(&mut w).expect("encodes");
            w.into_body()
        }

        /// `K`'s tag, no punctuation yet, and `buckets` buckets to follow.
        fn header<K: Kind>(buckets: u64) -> SnapshotWriter {
            let mut w = SnapshotWriter::new();
            w.put_u8(K::TAG);
            w.put_i64(i64::MIN);
            w.put_u64(buckets);
            w
        }

        /// A `K` snapshot written bucket by bucket, as the grid lays it out.
        fn frame<K: Kind>(buckets: &[(i64, &[u32])]) -> Vec<u8> {
            let mut w = header::<K>(buckets.len() as u64);
            for &(start, keys) in buckets {
                K::bucket_frame(&mut w, start, keys);
            }
            w.into_body()
        }

        /// Why a `K` grid holding one event refused `bytes`, checking that
        /// the refusal left it as it was.
        fn refusal<K: Kind>(bytes: &[u8]) -> String {
            let mut target = K::grid(10);
            target.push(windowed(40, 9));
            let before = encode(&target);
            let err = target
                .restore_state(&mut SnapshotReader::new(bytes))
                .expect_err("refused");
            assert_eq!(encode(&target), before, "a failed restore left state");
            assert_eq!(target.buffered_len(), 1);
            match err {
                SnapshotError::Corrupt { detail } => detail,
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }

        fn extremes_cost_one_bucket_each<K: Kind>() {
            let mut g = K::grid(100);
            let times = [0, i64::MAX - 5, 100, i64::MIN, 0, i64::MAX - 5];
            for (key, t) in (1..).zip(times) {
                g.push(windowed(t, key));
            }
            assert_eq!(g.bucket_count(), 4, "no bucket for the windows between");
            assert_eq!(g.buffered_len(), 6);
            let mut out = Vec::new();
            g.punctuate(Timestamp::new(100), &mut out);
            assert_eq!(K::emitted(&out), [(i64::MIN, 4), (0, 1), (0, 5), (100, 3)]);
            assert_eq!((g.bucket_count(), g.buffered_len()), (1, 2));
            out.clear();
            g.drain_all(&mut out);
            assert_eq!(K::emitted(&out), [(i64::MAX - 5, 2), (i64::MAX - 5, 6)]);
            assert_eq!(g.buffered_len(), 0);
        }

        /// State bytes are the entries and buckets buffered; the spares
        /// show only in capacity bytes.
        fn capacity_bytes_follow_allocation<K: Kind>() {
            let mut g = K::grid(1);
            assert_eq!((g.state_bytes(), g.capacity_bytes()), (0, 0));
            for i in 0..100u32 {
                g.push(windowed(i64::from(i % 10), i / 10));
            }
            let bucket = core::mem::size_of::<(Timestamp, K)>();
            assert_eq!(g.state_bytes(), 100 * K::ENTRY_BYTES + 10 * bucket);
            let full = g.capacity_bytes();
            let mut out = Vec::new();
            g.punctuate(Timestamp::new(4), &mut out);
            assert_eq!(g.spare_count(), 5, "five buckets emptied into one output");
            assert_eq!(g.state_bytes(), 50 * K::ENTRY_BYTES + 5 * bucket);
            assert!(g.capacity_bytes() >= full, "spares are held memory");
            let held = g.capacity_bytes();
            g.push(windowed(20, 0));
            g.push(windowed(30, 0));
            assert_eq!(g.spare_count(), 3, "new windows take spares");
            assert_eq!(g.capacity_bytes(), held, "a spare taken allocates nothing");
            g.punctuate(Timestamp::new(5), &mut out);
            assert_eq!(
                g.spare_count(),
                1,
                "unused spares go at the next punctuation"
            );
            assert!(g.capacity_bytes() < held);
        }

        fn a_draining_punctuation_charges_nothing<K: Kind>() {
            let mut g = K::grid(100);
            for t in [0, 100, 200, 0, 300] {
                g.push(windowed(t, 1));
            }
            let mut out = Vec::new();
            g.punctuate(Timestamp::new(300), &mut out);
            assert_eq!(
                K::emitted(&out),
                [(0, 1), (0, 1), (100, 1), (200, 1), (300, 1)]
            );
            let left = (g.buffered_len(), g.spare_count(), g.state_bytes());
            assert_eq!(left, (0, 4, 0), "spares are charged nothing");
            g.punctuate(Timestamp::new(400), &mut out);
            assert_eq!(g.spare_count(), 0, "and go at the next punctuation");
        }

        fn a_closed_table_is_the_next_windows_and_keeps_its_keys<K: Kind>() {
            let mut g = K::grid(10);
            for key in 0..40 {
                for start in [0, 10, 20] {
                    g.push(windowed(start, key));
                }
            }
            let mut out = Vec::new();
            g.punctuate(Timestamp::new(10), &mut out);
            assert_eq!(K::emitted(&out).len(), 80);
            assert_eq!(g.spare_count(), 2, "the closed windows became spares");
            let before = g.capacity_bytes();
            for key in 0..40 {
                g.push(windowed(30, key));
            }
            assert_eq!(g.spare_count(), 1, "the new window took a spare");
            assert_eq!(g.capacity_bytes(), before, "known keys: nothing allocated");
        }

        fn a_snapshot_round_trip_preserves_behaviour<K: Kind>() {
            let mut live = K::grid(10);
            for (start, key) in [(0, 3), (10, 1), (20, 5), (10, 1), (20, 2), (0, 3)] {
                live.push(windowed(start, key));
            }
            live.punctuate(Timestamp::new(5), &mut Vec::new());
            let mut restored = K::grid(10);
            restored
                .restore_state(&mut SnapshotReader::new(&encode(&live)))
                .expect("restores");
            assert_eq!(restored.buffered_len(), live.buffered_len());
            assert_eq!(restored.bucket_count(), live.bucket_count());
            assert_eq!(
                restored.state_bytes(),
                live.state_bytes(),
                "the same charge"
            );
            assert_eq!(encode(&restored), encode(&live), "re-encodes byte for byte");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for g in [&mut live, &mut restored] {
                g.push(windowed(20, 2));
                g.push(windowed(30, 0));
            }
            live.drain_all(&mut a);
            restored.drain_all(&mut b);
            assert_eq!(K::emitted(&a), K::emitted(&b));
            let mut a = K::emitted(&a);
            assert!(a.is_sorted_by_key(|&(start, _)| start));
            a.sort_unstable();
            assert_eq!(a, [(10, 1), (10, 1), (20, 2), (20, 2), (20, 5), (30, 0)]);
        }

        fn restore_refuses_what_push_could_not_have_built<K: Kind>() {
            let ok = frame::<K>(&[(0, &[1, 4]), (10, &[1])]);
            K::grid(10)
                .restore_state(&mut SnapshotReader::new(&ok))
                .expect("a valid layout restores");
            let refused = |buckets: &[(i64, &[u32])]| refusal::<K>(&frame::<K>(buckets));
            assert!(refused(&[(0, &[1]), (10, &[])]).contains("empty bucket"));
            assert!(refused(&[(5, &[1]), (5, &[2])]).contains("strictly ascending"));
            assert!(refused(&[(10, &[1]), (0, &[2])]).contains("strictly ascending"));
            for (bytes, says) in K::own_refusals() {
                assert!(refusal::<K>(&bytes).contains(says), "{says}");
            }
        }

        fn each_sorter_refuses_the_others_snapshot<K: Kind>() {
            let mut impatience: ImpatienceSorter<Event<u32>> = ImpatienceSorter::new();
            let mut bucket = <Vec<Event<u32>> as Kind>::grid(10);
            let (mut tables, mut own) = (tables(), K::grid(10));
            for start in [20, 0, 10] {
                let e = windowed(start, 1);
                impatience.push(e);
                bucket.push(e);
                tables.push(e);
                own.push(e);
            }
            let refused = format!("not a {} snapshot", K::SNAPSHOT);
            for other in [encode(&impatience), encode(&bucket), encode(&tables)] {
                if other[0] != K::TAG {
                    assert!(refusal::<K>(&other).contains(&refused));
                }
            }
            let err = ImpatienceSorter::<Event<u32>>::new()
                .restore_state(&mut SnapshotReader::new(&encode(&own)))
                .expect_err("refused");
            assert!(
                matches!(&err, SnapshotError::Corrupt { detail } if detail.contains("huffman flag")),
                "{err:?}"
            );
        }
    }
}
