//! Counting global allocator for the `*.alloc_per_event` rows.
//!
//! Counting is gated by one relaxed flag that is off in every untraced
//! pass, so end-to-end numbers pay a predictable branch and nothing else.
//! Tallies are per thread: a span reads its own thread's count at entry
//! and exit, so server threads never bleed into a client-side span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` init and no destructor: touching this from inside the
    // allocator can neither allocate nor run after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; the rest is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn count() {
    // Relaxed: the flag publishes no other data, it only gates a statistic.
    if ENABLED.load(Ordering::Relaxed) {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Switches counting on (traced pass) or off (everything else).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations (incl. reallocations) the current thread has made while
/// counting was on.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` with counting on and returns its result plus the allocations
/// the current thread made inside it.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let was = ENABLED.swap(true, Ordering::Relaxed);
    let before = thread_allocations();
    let r = f();
    let made = thread_allocations() - before;
    ENABLED.store(was, Ordering::Relaxed);
    (r, made)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only test that flips the global flag: per-thread tallies keep
    // other tests' allocations out, but the flag itself is shared.
    #[test]
    fn counts_this_threads_allocations_only_while_switched_on() {
        let off_before = thread_allocations();
        drop(std::hint::black_box(Vec::<u64>::with_capacity(64)));
        assert_eq!(thread_allocations(), off_before, "off: nothing is counted");

        let (v, made) = counted(|| std::hint::black_box(Vec::<u64>::with_capacity(64)));
        assert!(made >= 1, "on: the Vec's buffer is counted");
        drop(v);
        let (_, none) = counted(|| std::hint::black_box(1 + 1));
        assert_eq!(none, 0);
    }
}
