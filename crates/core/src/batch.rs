//! Columnar-flavoured event batches.
//!
//! Trill owes its orders-of-magnitude throughput edge to batching (§I);
//! operators in this stack likewise exchange [`EventBatch`]es rather than
//! single events. A batch is a flat vector of events plus a
//! [`FilterBitmap`]: selection marks rows invisible without moving data, and
//! downstream operators skip invisible rows.

use crate::bitmap::FilterBitmap;
use crate::event::{Event, Payload};
use crate::time::Timestamp;

/// Default number of events per batch, matching Trill's batch sizing order
/// of magnitude.
pub const DEFAULT_BATCH_SIZE: usize = 4_096;

/// A batch of events with a visibility bitmap.
#[derive(Clone, PartialEq)]
pub struct EventBatch<P> {
    events: Vec<Event<P>>,
    filter: FilterBitmap,
}

impl<P: Payload> EventBatch<P> {
    /// An empty batch with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventBatch {
            events: Vec::with_capacity(cap),
            filter: FilterBitmap::all_visible(0),
        }
    }

    /// Wraps a vector of events, all visible.
    pub fn from_events(events: Vec<Event<P>>) -> Self {
        let filter = FilterBitmap::all_visible(events.len());
        EventBatch { events, filter }
    }

    /// Appends a visible event.
    #[inline]
    pub fn push(&mut self, e: Event<P>) {
        self.events.push(e);
        self.filter.push(true);
    }

    /// Total rows, including filtered ones.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the batch holds no rows at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rows still visible.
    #[inline]
    pub fn visible_len(&self) -> usize {
        self.filter.count_visible()
    }

    /// True if every row has been filtered out (the batch is semantically
    /// empty but still occupies memory — Trill's "bitmap selection" cost
    /// model).
    pub fn all_filtered(&self) -> bool {
        self.filter.all_filtered()
    }

    /// Read access to all rows (visible or not).
    #[inline]
    pub fn events(&self) -> &[Event<P>] {
        &self.events
    }

    /// Mutable access to all rows. The bitmap is unaffected; callers must
    /// not reorder rows relative to it.
    #[inline]
    pub fn events_mut(&mut self) -> &mut [Event<P>] {
        &mut self.events
    }

    /// The visibility bitmap.
    #[inline]
    pub fn filter(&self) -> &FilterBitmap {
        &self.filter
    }

    /// Mutable visibility bitmap (selection operators mark rows here).
    #[inline]
    pub fn filter_mut(&mut self) -> &mut FilterBitmap {
        &mut self.filter
    }

    /// Is row `i` visible?
    #[inline]
    pub fn is_visible(&self, i: usize) -> bool {
        self.filter.is_visible(i)
    }

    /// Iterates visible events in row order.
    pub fn iter_visible(&self) -> impl Iterator<Item = &Event<P>> + '_ {
        self.filter.iter_visible().map(move |i| &self.events[i])
    }

    /// Copies the visible events out into a fresh vector.
    pub fn visible_to_vec(&self) -> Vec<Event<P>> {
        self.iter_visible().cloned().collect()
    }

    /// Consumes the batch, moving the visible events out in row order —
    /// the owning form of [`visible_to_vec`](Self::visible_to_vec). An
    /// unfiltered batch hands over its storage as is.
    pub fn into_visible(mut self) -> Vec<Event<P>> {
        self.compact();
        self.events
    }

    /// Drops filtered rows, compacting storage. Used by operators that must
    /// materialize (e.g. the sorter ingests only visible rows).
    pub fn compact(&mut self) {
        if self.filter.none_filtered() {
            return;
        }
        let filter = &self.filter;
        let mut row = 0usize;
        // `retain` moves each surviving row down once, and none before the
        // first filtered one.
        self.events.retain(|_| {
            row += 1;
            filter.is_visible(row - 1)
        });
        self.filter = FilterBitmap::all_visible(self.events.len());
    }

    /// Smallest visible sync time, if any row is visible.
    pub fn min_sync_time(&self) -> Option<Timestamp> {
        self.iter_visible().map(|e| e.sync_time).min()
    }

    /// Largest visible sync time, if any row is visible.
    pub fn max_sync_time(&self) -> Option<Timestamp> {
        self.iter_visible().map(|e| e.sync_time).max()
    }

    /// True when visible rows are in nondecreasing sync-time order — the
    /// contract of every `Streamable` (in-order stream).
    pub fn is_time_ordered(&self) -> bool {
        let mut prev = Timestamp::MIN;
        for e in self.iter_visible() {
            if e.sync_time < prev {
                return false;
            }
            prev = e.sync_time;
        }
        true
    }

    /// Maps visible payloads into a new batch, dropping filtered rows (a
    /// materializing projection).
    pub fn map_visible<Q: Payload>(&self, mut f: impl FnMut(&P) -> Q) -> EventBatch<Q> {
        let mut out = EventBatch::with_capacity(self.visible_len());
        for e in self.iter_visible() {
            out.push(Event {
                sync_time: e.sync_time,
                other_time: e.other_time,
                key: e.key,
                hash: e.hash,
                payload: f(&e.payload),
            });
        }
        out
    }

    /// Bytes of state this batch occupies when buffered: the event storage
    /// (capacity, not length — that is what an allocator would hold), the
    /// bitmap words, and payload heap data of live rows.
    pub fn state_bytes(&self) -> usize {
        self.events.capacity() * core::mem::size_of::<Event<P>>()
            + self.filter.heap_bytes()
            + self
                .events
                .iter()
                .map(|e| e.payload.heap_bytes())
                .sum::<usize>()
    }

    /// Consumes the batch, returning the raw events and bitmap.
    pub fn into_parts(self) -> (Vec<Event<P>>, FilterBitmap) {
        (self.events, self.filter)
    }
}

impl<P: Payload> Default for EventBatch<P> {
    fn default() -> Self {
        EventBatch::from_events(Vec::new())
    }
}

impl<P: Payload> FromIterator<Event<P>> for EventBatch<P> {
    fn from_iter<I: IntoIterator<Item = Event<P>>>(iter: I) -> Self {
        EventBatch::from_events(iter.into_iter().collect())
    }
}

impl<P> core::fmt::Debug for EventBatch<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "EventBatch({} rows, {} visible)",
            self.events.len(),
            self.filter.count_visible()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(ts: &[i64]) -> EventBatch<u32> {
        ts.iter()
            .enumerate()
            .map(|(i, &t)| Event::point(Timestamp::new(t), i as u32))
            .collect()
    }

    #[test]
    fn from_events_all_visible() {
        let b = batch(&[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.visible_len(), 3);
        assert!(b.is_time_ordered());
    }

    #[test]
    fn filtering_hides_rows_without_moving_them() {
        let mut b = batch(&[1, 2, 3, 4]);
        b.filter_mut().filter_out(1);
        b.filter_mut().filter_out(3);
        assert_eq!(b.len(), 4, "rows stay in place");
        assert_eq!(b.visible_len(), 2);
        let visible: Vec<u32> = b.iter_visible().map(|e| e.payload).collect();
        assert_eq!(visible, vec![0, 2]);
    }

    #[test]
    fn compact_drops_filtered_rows() {
        let mut b = batch(&[5, 1, 9, 3]);
        b.filter_mut().filter_out(0);
        b.filter_mut().filter_out(2);
        b.compact();
        assert_eq!(b.len(), 2);
        assert_eq!(b.visible_len(), 2);
        let ts: Vec<i64> = b.events().iter().map(|e| e.sync_time.ticks()).collect();
        assert_eq!(ts, vec![1, 3]);
        // Compact on an unfiltered batch is a no-op.
        let before = b.events().to_vec();
        b.compact();
        assert_eq!(b.events(), &before[..]);
    }

    #[test]
    fn into_visible_moves_what_visible_to_vec_copies() {
        let mut b = batch(&[5, 1, 9, 3]);
        assert_eq!(b.clone().into_visible(), b.visible_to_vec());
        b.filter_mut().filter_out(0);
        b.filter_mut().filter_out(2);
        assert_eq!(b.clone().into_visible(), b.visible_to_vec());
        for i in [1, 3] {
            b.filter_mut().filter_out(i);
        }
        assert!(b.into_visible().is_empty());
    }

    #[test]
    fn compact_keeps_row_order_across_bitmap_words() {
        let mut b = batch(&(0..200).collect::<Vec<i64>>());
        let dropped = |i: usize| i % 7 == 3 || i.is_multiple_of(64) || (130..140).contains(&i);
        for i in (0..200).filter(|&i| dropped(i)) {
            b.filter_mut().filter_out(i);
        }
        let expected: Vec<u32> = (0..200)
            .filter(|&i| !dropped(i))
            .map(|i| i as u32)
            .collect();
        assert_eq!(b.clone().into_visible(), b.visible_to_vec());
        b.compact();
        let got: Vec<u32> = b.events().iter().map(|e| e.payload).collect();
        assert_eq!(got, expected);
        assert_eq!(b.visible_len(), expected.len());
        assert!(b.filter().none_filtered());
    }

    #[test]
    fn min_max_respect_filtering() {
        let mut b = batch(&[5, 1, 9, 3]);
        assert_eq!(b.min_sync_time(), Some(Timestamp::new(1)));
        assert_eq!(b.max_sync_time(), Some(Timestamp::new(9)));
        b.filter_mut().filter_out(1);
        b.filter_mut().filter_out(2);
        assert_eq!(b.min_sync_time(), Some(Timestamp::new(3)));
        assert_eq!(b.max_sync_time(), Some(Timestamp::new(5)));
        for i in [0, 3] {
            b.filter_mut().filter_out(i);
        }
        assert_eq!(b.min_sync_time(), None);
        assert!(b.all_filtered());
    }

    #[test]
    fn is_time_ordered_ignores_filtered_rows() {
        let mut b = batch(&[1, 100, 2, 3]);
        assert!(!b.is_time_ordered());
        b.filter_mut().filter_out(1);
        assert!(b.is_time_ordered());
    }

    #[test]
    fn map_visible_projects_and_compacts() {
        let mut b = batch(&[1, 2, 3]);
        b.filter_mut().filter_out(0);
        let m = b.map_visible(|p| *p as u64 * 10);
        assert_eq!(m.len(), 2);
        let payloads: Vec<u64> = m.iter_visible().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![10, 20]);
    }

    #[test]
    fn state_bytes_tracks_capacity() {
        let mut b: EventBatch<u32> = EventBatch::with_capacity(100);
        let base = b.state_bytes();
        assert!(base >= 100 * core::mem::size_of::<Event<u32>>());
        b.push(Event::point(Timestamp::ZERO, 1));
        assert!(b.state_bytes() >= base, "bitmap word added");
    }

    #[test]
    fn empty_batch_behaviour() {
        let b: EventBatch<u32> = EventBatch::default();
        assert!(b.is_empty());
        assert_eq!(b.visible_len(), 0);
        assert!(b.is_time_ordered());
        assert_eq!(b.min_sync_time(), None);
        assert!(!b.all_filtered() || b.is_empty());
    }
}
