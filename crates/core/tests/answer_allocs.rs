//! Allocations of a read through `ShardedRegistry::answer_batch`.
//!
//! - A distinct presence read costs a pinned number of allocations:
//!   its referral and token, the lent fragment and the answer, and no
//!   per-request scratch (selection buffers, tracer buffers, merge
//!   scaffolding around a lone fragment).
//! - Within one window, identical requests share the first request's
//!   answer: a duplicate costs its lookup and a reference count, never
//!   a copy of the answer. So what k duplicates add to a window must not
//!   depend on how big the answer is.
//!
//! One shard, so the window's lone bucket runs on the calling thread
//! and a per-thread count sees all of it. Its own test binary, so that
//! it can count allocations with a global allocator; counts are per
//! thread, so other tests cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gupster_core::{ShardRequest, ShardedRegistry, StorePool};
use gupster_policy::{Purpose, WeekTime};
use gupster_schema::gup_schema;
use gupster_store::{StoreId, XmlStore};
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

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

const BOOK: &str = "/user[@id='u7']/address-book";

/// A one-shard registry and a one-store pool holding u7's address book
/// of `items` entries.
fn world(items: usize) -> (ShardedRegistry, StorePool) {
    let mut book = Element::new("address-book");
    for k in 0..items {
        book.push_child(
            Element::new("item")
                .with_attr("id", format!("p{k:03}"))
                .with_attr("type", "personal")
                .with_child(Element::new("name").with_text(format!("Contact {k} of u7"))),
        );
    }
    let mut store = XmlStore::new("s1");
    store.put_profile(Element::new("user").with_attr("id", "u7").with_child(book)).unwrap();
    let mut reg = ShardedRegistry::new(gup_schema(), b"k", 1);
    reg.register_component("u7", Path::parse(BOOK).unwrap(), StoreId::new("s1")).unwrap();
    let mut pool = StorePool::new();
    pool.add(Box::new(store));
    (reg, pool)
}

/// A window of `n` identical reads of u7's book by u7.
fn window(n: usize) -> Vec<ShardRequest> {
    let read = ShardRequest {
        owner: "u7".into(),
        path: Path::parse(BOOK).unwrap(),
        requester: "u7".into(),
        purpose: Purpose::Query,
        time: WeekTime::at(0, 12, 0),
        now: 100,
    };
    vec![read; n]
}

/// The allocations `k` duplicates add to a window, in a world whose
/// book has `items` entries: a window of `1 + k` reads less a window of
/// one, each measured after the same warm-up, so both see the same
/// registry state.
fn duplicates_cost(items: usize, k: usize) -> usize {
    let (mut reg, pool) = world(items);
    let keys = MergeKeys::new().with_key("item", "id");
    let (one, burst) = (window(1), window(1 + k));
    let mut run = |requests: &[ShardRequest]| {
        counted(|| {
            let (results, _) = reg.answer_batch(&pool, requests, &keys, true);
            results
        })
    };
    // Warm the decision memo, the hot-key views and the telemetry
    // buffers, so neither measured window pays a first-time cost.
    for _ in 0..3 {
        run(&one);
        run(&burst);
    }
    let (results, single) = run(&one);
    assert_eq!(results[0].as_ref().unwrap()[0].children_named("item").count(), items);
    let (results, all) = run(&burst);
    let first = results[0].as_ref().unwrap();
    for r in &results[1..] {
        assert!(Arc::ptr_eq(first, r.as_ref().unwrap()), "a duplicate shares the first answer");
    }
    all - single
}

#[test]
fn duplicates_cost_the_same_whatever_the_answer_size() {
    let k = 8;
    let small = duplicates_cost(20, k);
    let large = duplicates_cost(200, k);
    assert_eq!(small, large, "{k} duplicates: {small} allocations at 20 items, {large} at 200");
}

/// A one-shard registry and a one-store pool holding the presence of
/// `owners` users, each registered at its own component path.
fn presence_world(owners: usize) -> (ShardedRegistry, StorePool) {
    let mut store = XmlStore::new("s1");
    let mut reg = ShardedRegistry::new(gup_schema(), b"k", 1);
    for u in 0..owners {
        let profile = Element::new("user")
            .with_attr("id", format!("u{u}"))
            .with_child(Element::new("presence").with_text("online"));
        store.put_profile(profile).unwrap();
        let path = Path::parse(&format!("/user[@id='u{u}']/presence")).unwrap();
        reg.register_component(&format!("u{u}"), path, StoreId::new("s1")).unwrap();
    }
    let mut pool = StorePool::new();
    pool.add(Box::new(store));
    (reg, pool)
}

/// Allocations of a warm window of 64 distinct presence reads, each
/// owner reading their own presence: 39.3 a request. Before selection
/// kept to two id buffers, shard workers restarted one tracer and a
/// lone fragment skipped the fold's index, the same window made 3 346
/// (52.3 a request).
const PRESENCE_WINDOW_ALLOCS: usize = 2517;

#[test]
fn a_distinct_presence_read_allocates_only_what_it_returns() {
    const OWNERS: usize = 64;
    let (mut reg, pool) = presence_world(OWNERS);
    let keys = MergeKeys::new();
    let reads: Vec<ShardRequest> = (0..OWNERS)
        .map(|u| ShardRequest {
            owner: format!("u{u}"),
            path: Path::parse(&format!("/user[@id='u{u}']/presence")).unwrap(),
            requester: format!("u{u}"),
            purpose: Purpose::Query,
            time: WeekTime::at(0, 12, 0),
            now: 100,
        })
        .collect();
    // Warm the decision memo, the hot-key views and the telemetry
    // buffers, so the measured window pays no first-time cost.
    for _ in 0..3 {
        reg.answer_batch(&pool, &reads, &keys, true);
    }
    let ((results, _), n) = counted(|| reg.answer_batch(&pool, &reads, &keys, true));
    for r in &results {
        assert_eq!(r.as_ref().unwrap()[0].text(), "online");
    }
    assert!(
        n <= PRESENCE_WINDOW_ALLOCS,
        "{OWNERS} presence reads: {n} allocations, {:.1} each (pin {PRESENCE_WINDOW_ALLOCS})",
        n as f64 / OWNERS as f64
    );
}
