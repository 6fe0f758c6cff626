//! Filter bitmaps for batched selection.
//!
//! Trill executes `Where` by "simply marking corresponding bits in a bitmap
//! for unmatched events" (§VI-C) — filtered events stay in the batch and
//! keep occupying memory bandwidth, which is exactly why the paper's Fig 9(a)
//! selection push-down does not reach the ideal `1/s` speedup. The engine
//! crate reproduces that behaviour with this bitmap.
//!
//! Semantics: **a set bit means the event is filtered out (invisible)**.
//! A fresh bitmap has all bits clear, i.e. every event visible.

/// A dynamically sized bitmap marking *removed* rows of a batch.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct FilterBitmap {
    words: Vec<u64>,
    len: usize,
}

impl FilterBitmap {
    /// A bitmap for `len` rows, all visible.
    pub fn all_visible(len: usize) -> Self {
        FilterBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks row `i` as filtered out.
    #[inline]
    pub fn filter_out(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Is row `i` still visible?
    #[inline]
    pub fn is_visible(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) == 0
    }

    /// Number of visible rows (popcount-based, no per-row branch).
    pub fn count_visible(&self) -> usize {
        self.len - self.count_filtered()
    }

    /// Number of filtered rows.
    pub fn count_filtered(&self) -> usize {
        let full: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        // Bits beyond `len` in the last word are never set (enforced by the
        // mutators' debug assertions and `truncate`).
        full as usize
    }

    /// True when no row has been filtered.
    pub fn none_filtered(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when every row has been filtered.
    pub fn all_filtered(&self) -> bool {
        self.count_filtered() == self.len
    }

    /// Iterates indices of visible rows in order.
    pub fn iter_visible(&self) -> impl Iterator<Item = usize> + '_ {
        VisibleIter {
            bitmap: self,
            word_idx: 0,
            // Visible rows are the *zero* bits; iterate by inverting words.
            current: self.words.first().map_or(0, |w| !w),
        }
    }

    /// Appends one row with the given visibility.
    pub fn push(&mut self, visible: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        let i = self.len;
        self.len += 1;
        if !visible {
            self.filter_out(i);
        }
    }

    /// Shrinks the bitmap to the first `new_len` rows.
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        self.len = new_len;
        self.words.truncate(new_len.div_ceil(64));
        // Clear stale bits past the new end so popcounts stay correct.
        if let Some(last) = self.words.last_mut() {
            let used = new_len & 63;
            if used != 0 {
                *last &= (1u64 << used) - 1;
            }
        }
    }
}

impl core::fmt::Debug for FilterBitmap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "FilterBitmap({} rows, {} filtered)",
            self.len,
            self.count_filtered()
        )
    }
}

struct VisibleIter<'a> {
    bitmap: &'a FilterBitmap,
    word_idx: usize,
    /// Inverted current word with already-yielded bits cleared.
    current: u64,
}

impl Iterator for VisibleIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = (self.word_idx << 6) | bit;
                if idx < self.bitmap.len {
                    return Some(idx);
                }
                // Bits past `len` in the last inverted word: done.
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = !self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bitmap_is_all_visible() {
        let b = FilterBitmap::all_visible(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_visible(), 130);
        assert_eq!(b.count_filtered(), 0);
        assert!(b.none_filtered());
        assert!(!b.all_filtered());
        assert!((0..130).all(|i| b.is_visible(i)));
    }

    #[test]
    fn filter_out_marks_rows() {
        let mut b = FilterBitmap::all_visible(70);
        b.filter_out(0);
        b.filter_out(63);
        b.filter_out(64);
        b.filter_out(69);
        assert_eq!(b.count_filtered(), 4);
        assert!(!b.is_visible(0));
        assert!(!b.is_visible(63));
        assert!(!b.is_visible(64));
        assert!(b.is_visible(1));
    }

    #[test]
    fn iter_visible_skips_filtered() {
        let mut b = FilterBitmap::all_visible(10);
        for i in [1, 3, 5, 7, 9] {
            b.filter_out(i);
        }
        let v: Vec<usize> = b.iter_visible().collect();
        assert_eq!(v, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn iter_visible_across_word_boundary() {
        let mut b = FilterBitmap::all_visible(200);
        for i in 0..200 {
            if i % 3 != 0 {
                b.filter_out(i);
            }
        }
        let v: Vec<usize> = b.iter_visible().collect();
        let expect: Vec<usize> = (0..200).filter(|i| i % 3 == 0).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn iter_visible_empty_and_all_filtered() {
        let b = FilterBitmap::all_visible(0);
        assert_eq!(b.iter_visible().count(), 0);
        let mut b = FilterBitmap::all_visible(65);
        for i in 0..65 {
            b.filter_out(i);
        }
        assert!(b.all_filtered());
        assert_eq!(b.iter_visible().count(), 0);
    }

    #[test]
    fn push_grows_bitmap() {
        let mut b = FilterBitmap::all_visible(0);
        for i in 0..100 {
            b.push(i % 2 == 0);
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_visible(), 50);
        assert!(b.is_visible(0));
        assert!(!b.is_visible(1));
    }

    #[test]
    fn truncate_clears_stale_bits() {
        let mut b = FilterBitmap::all_visible(100);
        for i in 60..100 {
            b.filter_out(i);
        }
        b.truncate(64);
        assert_eq!(b.len(), 64);
        assert_eq!(b.count_filtered(), 4); // rows 60..64 remain marked
        b.truncate(60);
        assert_eq!(b.count_filtered(), 0);
        assert!(b.none_filtered());
    }

    #[test]
    fn exact_word_multiple() {
        let mut b = FilterBitmap::all_visible(128);
        b.filter_out(127);
        assert_eq!(b.count_visible(), 127);
        let last = b.iter_visible().last().unwrap();
        assert_eq!(last, 126);
    }
}
