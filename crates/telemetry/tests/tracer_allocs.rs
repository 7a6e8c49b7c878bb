//! Allocations of a restarted tracer. A shard worker traces its whole
//! bucket with one [`Tracer`], restarting it per request; when the hub
//! retains no spans and captures no exemplars, every request after the
//! first reuses the first one's buffers and allocates nothing.
//!
//! Its own test binary, so that it can count allocations with a global
//! allocator. Counts are per thread: other tests cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gupster_telemetry::{SimTime, TelemetryHub, Tracer};

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local without a destructor, so bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, with the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// One request's spans, shaped like a sharded answer's: a lookup with
/// nested stages, a verify, a fetch and a merge.
fn trace_request(t: &mut Tracer, key: u64) {
    t.set_key(key);
    t.enter("registry.lookup");
    t.span("policy.decide", SimTime::micros(3));
    t.span("coverage.match", SimTime::micros(2));
    t.span("token.sign", SimTime::micros(20));
    t.exit();
    t.span("token.verify", SimTime::micros(15));
    t.enter("client.fetch_merge");
    t.span("store.fetch", SimTime::micros(40));
    t.span("xml.merge", SimTime::micros(5));
    t.exit();
}

#[test]
fn restarted_requests_allocate_nothing_without_retention() {
    let hub = Arc::new(TelemetryHub::new());
    hub.set_span_limit(0);
    // A first request interns the labels and grows the hub's stage
    // table: costs of the hub and the process, not of the tracer.
    trace_request(&mut hub.tracer("shard.request"), 0);
    // The tracer's own buffers are allocated by its first request.
    let mut tracer = hub.tracer("shard.request");
    trace_request(&mut tracer, 0);
    let (_, n) = counted(|| {
        for key in 1..64 {
            tracer.restart("shard.request");
            trace_request(&mut tracer, key);
        }
    });
    drop(tracer);
    assert_eq!(n, 0, "63 restarted requests allocated {n} blocks");
    // Every request was recorded, and none was retained.
    assert_eq!(hub.stage_stats("store.fetch").map(|s| s.count), Some(65));
    assert!(hub.spans().is_empty());
}
