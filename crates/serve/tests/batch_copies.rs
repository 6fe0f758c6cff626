//! Each hop of a served request holds its batch once.
//!
//! A counting global allocator tallies, across every thread, the blocks
//! of at least `28 · N` bytes — each big enough to hold a whole batch of
//! `N` events in wire form — allocated while one sequenced `events`
//! request of `N` events travels client → server → client over a live
//! binary session. The count is pinned and each block is named below: a
//! whole-batch copy coming back (the client cloning the request into a
//! frame, the server cloning its reply into the resume cache, the drain
//! copying the released batch, a frame built whole before it is written)
//! turns the test red.

use impatience_core::{Event, TickDuration, Timestamp};
use impatience_engine::{OpSpec, PipelineSpec, ReorderSpec};
use impatience_serve::{Client, Server, ServerConfig, TenantConfig, WireMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Events in the request: its wire form (28 bytes an event) is well past
/// one write stage, so a frame staged in slices allocates no
/// batch-sized block.
const N: usize = 8_192;
const BIG: usize = 28 * N;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BIG_BLOCKS: AtomicUsize = AtomicUsize::new(0);
/// The sizes of the first big blocks, for the failure message.
static SIZES: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];

struct CountingAlloc;

fn note(size: usize) {
    // Relaxed: the flag and the tallies publish no other data.
    if size >= BIG && COUNTING.load(Ordering::Relaxed) {
        let at = BIG_BLOCKS.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SIZES.get(at) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tally only touches atomics, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`; the rest is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn one_events_request_holds_each_batch_once_per_hop() {
    let root = std::env::temp_dir().join(format!("impatience-copies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut server = Server::start(ServerConfig::new(&root)).expect("server");
    let mut client = Client::connect(server.addr(), WireMode::Binary).expect("connect");
    // In-order times and no reorder latency: the request releases its
    // whole batch, so the reply carries N events too.
    let spec = PipelineSpec::new("copies")
        .with_op(OpSpec::Scale { factor: 2 })
        .with_reorder(ReorderSpec::Fixed {
            latency: TickDuration::ZERO,
        });
    client.open(&TenantConfig::new(spec)).expect("open");
    // A first request warms what a session builds once.
    let warm = (0..N as i64).map(|t| Event::keyed(Timestamp::new(t), 1, t));
    client.send(warm.collect()).expect("warm-up request");

    let batch: Vec<_> = (0..N as i64)
        .map(|t| Event::keyed(Timestamp::new(N as i64 + t), 1, t))
        .collect();
    COUNTING.store(true, Ordering::SeqCst);
    let released = client.send(batch).expect("request");
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(
        released.events.len(),
        N,
        "the reply carries the whole batch"
    );

    let blocks = BIG_BLOCKS.load(Ordering::SeqCst);
    let sizes: Vec<usize> = SIZES.iter().map(|s| s.load(Ordering::SeqCst)).collect();
    // The blocks of at least 28·N bytes, in the order a request makes them:
    //   1. the server reads the `E` frame's payload (28·N + 21 bytes);
    //   2. the server decodes it into the request's batch (40·N);
    //   3. the Impatience sorter copies the batch into its run (40·N): the
    //      sort's own buffer, not a copy on the wire;
    //   4. the punctuation gathers the released events (40·N) — the batch
    //      the drain moves into the reply, and the one copy the reply
    //      cache holds and the server writes from;
    //   5. the client reads the `O` frame's payload (28·N + 22 bytes);
    //   6. the client decodes it into the released batch (40·N).
    // The client writes its request from the message it was handed, and
    // both sides write event frames in slices: neither adds a block.
    assert_eq!(blocks, 6, "batch-sized blocks per request: {sizes:?}");

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
