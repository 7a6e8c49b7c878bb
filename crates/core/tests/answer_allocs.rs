//! Allocations of a read through `ShardedRegistry::answer_batch`.
//!
//! - A distinct presence read costs a pinned number of allocations:
//!   its referral and token, the lent fragment and the answer, and no
//!   per-request scratch (a second selection buffer, tracer buffers,
//!   merge scaffolding around a lone fragment, span labels) or copy of
//!   the ids and paths it was handed. A friend's read, whose decision
//!   runs the PDP, costs the same. A read of a book split over two
//!   stores adds its merge and its items.
//! - Within one window, identical requests share the first request's
//!   outcome: a duplicate runs no lookup and no fetch, and costs a
//!   reference count, never a copy of the answer. So what k duplicates
//!   add to a window is a small fixed count each, whatever the request,
//!   and does not depend on how big the answer is.
//!
//! One shard, so the window's lone bucket runs on the calling thread
//! and a per-thread count sees all of it. Its own test binary, so that
//! it can count allocations with a global allocator; counts are per
//! thread, so other tests cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gupster_core::{GupsterError, ShardRequest, ShardedRegistry, SharedAnswer, StorePool};
use gupster_policy::{Effect, Purpose, WeekTime};
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

/// u7's read of `path`, by `requester`.
fn read(requester: &str, path: &str) -> ShardRequest {
    ShardRequest {
        owner: "u7".into(),
        path: Path::parse(path).unwrap(),
        requester: requester.into(),
        purpose: Purpose::Query,
        time: WeekTime::at(0, 12, 0),
        now: 100,
    }
}

/// The allocations `k` duplicates of `first` add to a window: a window
/// of `1 + k` copies less a window of one, each measured after the same
/// warm-up, so both see the same registry state. Also returns the
/// larger window's results.
fn duplicates_cost(
    reg: &mut ShardedRegistry,
    pool: &StorePool,
    first: &ShardRequest,
    k: usize,
) -> (usize, Vec<Result<SharedAnswer, GupsterError>>) {
    let keys = MergeKeys::new().with_key("item", "id");
    let (one, burst) = (vec![first.clone()], vec![first.clone(); 1 + k]);
    let mut run = |requests: &[ShardRequest]| {
        counted(|| {
            let (results, _) = reg.answer_batch(pool, requests, &keys, true);
            results
        })
    };
    // Warm the decision memo and the telemetry buffers, so neither
    // measured window pays a first-time cost.
    for _ in 0..3 {
        run(&one);
        run(&burst);
    }
    let (_, single) = run(&one);
    let (results, all) = run(&burst);
    (all - single, results)
}

/// What `k` duplicates of u7's own book read add to a window, in a world
/// whose book has `items` entries.
fn book_duplicates_cost(items: usize, k: usize) -> usize {
    let (mut reg, pool) = world(items);
    let (cost, results) = duplicates_cost(&mut reg, &pool, &read("u7", BOOK), k);
    let first = results[0].as_ref().unwrap();
    assert_eq!(first[0].children_named("item").count(), items);
    for r in &results[1..] {
        assert!(Arc::ptr_eq(first, r.as_ref().unwrap()), "a duplicate shares the first answer");
    }
    cost
}

#[test]
fn duplicates_cost_the_same_whatever_the_answer_size() {
    let k = 8;
    let small = book_duplicates_cost(20, k);
    let large = book_duplicates_cost(200, k);
    assert_eq!(small, large, "{k} duplicates: {small} allocations at 20 items, {large} at 200");
}

/// The most allocations one duplicate may cost: its span tree as the
/// hub retains it (the list; its labels are the interner's), and for a
/// refusal the clone of the first request's error (owner and
/// requester). Before the window table was keyed on the request, a
/// duplicate ran the whole lookup: 8 duplicates of a book read cost
/// 209 allocations. Before retained spans borrowed their labels, a
/// duplicate could cost 5.
const DUPLICATE_ALLOCS: usize = 3;

#[test]
fn a_duplicate_costs_a_fixed_count_whatever_the_request() {
    let (mut reg, pool) = world(20);
    let u7 = reg.shard_mut("u7");
    u7.set_relationship("u7", "rick", "co-worker");
    let scope = "/user/address-book/item[@type='personal']";
    u7.pap.provision("u7", "cw", Effect::Permit, scope, "relationship='co-worker'", 0).unwrap();
    let k = 8;
    for (what, first) in [
        ("own book", read("u7", BOOK)),
        ("narrowed book", read("rick", BOOK)),
        ("refused", read("eve", BOOK)),
        ("uncovered", read("u7", "/user[@id='u7']/presence")),
        ("spurious", read("u7", "/user[@id='u7']/no-such-component")),
    ] {
        let (cost, results) = duplicates_cost(&mut reg, &pool, &first, k);
        assert!(
            cost <= k * DUPLICATE_ALLOCS,
            "{what}: {k} duplicates cost {cost} allocations (pin {DUPLICATE_ALLOCS} each)"
        );
        let rendered: Vec<String> = results.iter().map(|r| format!("{r:?}")).collect();
        assert!(rendered.iter().all(|r| *r == rendered[0]), "{what}: duplicates share the outcome");
    }
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
/// owner reading their own presence: 6.3 a request. A read allocates
/// its referral's entry list, its token's path buffer, the fetch's
/// fragment buffer, the answer's `Arc` and its element's child list,
/// and the hub's list of its retained spans. Before the store selected
/// into an id buffer each thread keeps, the same window made 469.
/// Before selection kept to two id buffers, shard workers
/// restarted one tracer and a lone fragment skipped the fold's index,
/// the same window made 3 346 (52.3 a request); before the window
/// table was keyed on the request instead of a string rendered from
/// each referral, 2 517; before the lookup shared the registry's ids
/// and decided on the request as given, 2 448; before referral entries
/// shared the registered path and store id, a lone fragment skipped
/// the merge scaffolding, a store appended into the fetch's buffer
/// from one selection buffer and retained spans borrowed their labels,
/// 2 005 (31.3 a request).
const PRESENCE_WINDOW_ALLOCS: usize = 402;

/// 64 distinct presence reads `requester_of(u)` makes of user `u`'s
/// presence, in a one-shard registry whose every owner lets friends see
/// it: their results and the allocations of the last of four windows,
/// each run after `before_window`.
fn presence_window(
    requester_of: impl Fn(usize) -> String,
    mut before_window: impl FnMut(&mut ShardedRegistry),
) -> (Vec<Result<SharedAnswer, GupsterError>>, usize, ShardedRegistry) {
    const OWNERS: usize = 64;
    let (mut reg, pool) = presence_world(OWNERS);
    for u in 0..OWNERS {
        let (owner, friend) = (format!("u{u}"), format!("f{u}"));
        let g = reg.shard_mut(&owner);
        g.set_relationship(&owner, &friend, "friend");
        g.pap.provision(&owner, "friends", Effect::Permit, "/user/presence", "relationship='friend'", 0).unwrap();
    }
    let keys = MergeKeys::new();
    let reads: Vec<ShardRequest> = (0..OWNERS)
        .map(|u| ShardRequest {
            owner: format!("u{u}"),
            path: Path::parse(&format!("/user[@id='u{u}']/presence")).unwrap(),
            requester: requester_of(u),
            purpose: Purpose::Query,
            time: WeekTime::at(0, 12, 0),
            now: 100,
        })
        .collect();
    // Warm the decision memo and the telemetry buffers, so the
    // measured window pays no first-time cost.
    for _ in 0..3 {
        before_window(&mut reg);
        reg.answer_batch(&pool, &reads, &keys, true);
    }
    before_window(&mut reg);
    let ((results, _), n) = counted(|| reg.answer_batch(&pool, &reads, &keys, true));
    for r in &results {
        assert_eq!(r.as_ref().unwrap()[0].text(), "online");
    }
    (results, n, reg)
}

#[test]
fn a_distinct_presence_read_allocates_only_what_it_returns() {
    let (results, n, _) = presence_window(|u| format!("u{u}"), |_| {});
    assert!(
        n <= PRESENCE_WINDOW_ALLOCS,
        "{} presence reads: {n} allocations, {:.1} each (pin {PRESENCE_WINDOW_ALLOCS})",
        results.len(),
        n as f64 / results.len() as f64
    );
}

/// Allocations of a window of 64 distinct presence reads by a friend of
/// each owner, with every memoized decision stale: 6.3 a request, the
/// same as an owner's own read, since a decision the PDP makes on a
/// permit allocates nothing. Before the store kept its selection
/// buffer, 469. Before the PDP decided on the request as
/// given, without copying it or listing its rules, and the lookup
/// shared the registry's ids, the same window made 3 024 (47.3 a
/// request); before the changes listed at
/// [`PRESENCE_WINDOW_ALLOCS`], 2 005.
const FRIEND_WINDOW_ALLOCS: usize = 402;

#[test]
fn a_friend_read_that_runs_the_pdp_allocates_only_what_it_returns() {
    // A policy write before each window leaves every memoized decision
    // stale, so all 64 decisions run the PDP.
    let bump = |reg: &mut ShardedRegistry| {
        let g = reg.shard_mut("u0");
        g.pap.provision("u0", "bump", Effect::Deny, "/user/calendar", "relationship='boss'", 0).unwrap();
    };
    let (results, n, reg) = presence_window(|u| format!("f{u}"), bump);
    let (_, hits, misses) = reg.shard("u0").memo_stats();
    assert_eq!((hits, misses), (0, 4 * results.len() as u64), "every decision ran the PDP");
    assert!(
        n <= FRIEND_WINDOW_ALLOCS,
        "{} friend presence reads: {n} allocations, {:.1} each (pin {FRIEND_WINDOW_ALLOCS})",
        results.len(),
        n as f64 / results.len() as f64
    );
}

/// A one-shard registry and two stores splitting the address book of
/// `owners` users, `items` personal items in one and `items` corporate
/// items in the other (Fig. 9), each slice registered at its own path.
fn split_book_world(owners: usize, items: usize) -> (ShardedRegistry, StorePool) {
    let mut reg = ShardedRegistry::new(gup_schema(), b"k", 1);
    let mut stores = [XmlStore::new("s1"), XmlStore::new("s2")];
    for u in 0..owners {
        for ((store, kind), id) in stores.iter_mut().zip(["personal", "corporate"]).zip(["s1", "s2"]) {
            let mut book = Element::new("address-book");
            for k in 0..items {
                book.push_child(
                    Element::new("item")
                        .with_attr("id", format!("{kind}-{k}"))
                        .with_attr("type", kind)
                        .with_child(Element::new("name").with_text(format!("Contact {k} of u{u}"))),
                );
            }
            store.put_profile(Element::new("user").with_attr("id", format!("u{u}")).with_child(book)).unwrap();
            let path = Path::parse(&format!("/user[@id='u{u}']/address-book/item[@type='{kind}']")).unwrap();
            reg.register_component(&format!("u{u}"), path, StoreId::new(id)).unwrap();
        }
    }
    let mut pool = StorePool::new();
    for store in stores {
        pool.add(Box::new(store));
    }
    (reg, pool)
}

/// Allocations of a warm window of 64 distinct reads of a book split
/// over two stores, two items in each: 34.3 a request. Each read asks
/// both stores (one fetch round each) and deep-unions the two slices,
/// so beyond a presence read's plumbing it pays for the fold, the
/// merged spine and three allocations per materialized item. Before
/// the stores kept their selection buffers and the copy of the request
/// path its referral entries share borrowed its names, 2 581 (40.3 a
/// request); before the changes listed at [`PRESENCE_WINDOW_ALLOCS`],
/// the same window made 4 117 (64.3 a request).
const SPLIT_BOOK_WINDOW_ALLOCS: usize = 2194;

#[test]
fn a_split_book_read_allocates_its_merge_and_its_items() {
    const OWNERS: usize = 64;
    let (mut reg, pool) = split_book_world(OWNERS, 2);
    let keys = MergeKeys::new().with_key("item", "id");
    let reads: Vec<ShardRequest> = (0..OWNERS)
        .map(|u| ShardRequest {
            owner: format!("u{u}"),
            path: Path::parse(&format!("/user[@id='u{u}']/address-book")).unwrap(),
            requester: format!("u{u}"),
            purpose: Purpose::Query,
            time: WeekTime::at(0, 12, 0),
            now: 100,
        })
        .collect();
    for _ in 0..3 {
        reg.answer_batch(&pool, &reads, &keys, true);
    }
    let ((results, _), n) = counted(|| reg.answer_batch(&pool, &reads, &keys, true));
    for r in &results {
        let answer = r.as_ref().unwrap();
        assert_eq!(answer.len(), 1, "one merged book");
        assert_eq!(answer[0].children_named("item").count(), 4);
    }
    assert!(
        n <= SPLIT_BOOK_WINDOW_ALLOCS,
        "{} split-book reads: {n} allocations, {:.1} each (pin {SPLIT_BOOK_WINDOW_ALLOCS})",
        results.len(),
        n as f64 / results.len() as f64
    );
}
