//! What one resident owner costs the registry, per layer.
//!
//! 1 000 owners shaped like the wall-clock benchmark's are provisioned
//! on a 2-shard registry through the public API: three component
//! registrations over six stores, four friends, and the benchmark's
//! four shield rules. Each layer is provisioned on its own, and the
//! heap it leaves live — bytes and blocks — is divided by the owners.
//! The "paths" layer is the parse of the three paths each owner hands
//! `register_component`, which the coverage map then keeps; the store
//! ids are built per registration, as a deployment hands them in.
//!
//! A resident owner holds only its own facts: its id, its registered
//! paths, its flat coverage trie and its requesters' ids. Rule bodies,
//! rule sets with their index, store ids and relationship labels are
//! shared by every owner that names them. Before that, every owner held
//! private copies of them all. A count over 20 000 such owners read
//! then (handed-in paths not counted):
//!
//! | layer         | live bytes / owner | live blocks / owner |
//! |---------------|--------------------|---------------------|
//! | coverage      | 2 430              | 29.0                |
//! | relationships | 591                | 10.0                |
//! | policies      | 2 071              | 29.3                |
//!
//! and this test read 2 439, 620 and 2 066 B (29.0, 10.0 and 29.3
//! blocks): 5 126 B per owner in all, where its bound is half of that.
//!
//! The handed-in paths were counted from the time their step names
//! began to borrow the name table's copy. Before, each owner's three
//! paths held every step and predicate name as its own `String`, and
//! every step and predicate list with the spare capacity of a growing
//! `Vec`:
//!
//! | paths                       | live bytes / owner | live blocks / owner |
//! |-----------------------------|--------------------|---------------------|
//! | owned names, growing lists  | 1 896              | 26.0                |
//! | borrowed names, exact lists | 766                | 13.0                |
//!
//! A request adds nothing resident either: lookups of owners and paths
//! the fleet has never seen leave live bytes where they were, once the
//! registry's bounded caches are full.
//!
//! Its own test binary, so that it can count with a global allocator;
//! counts are per thread, and the registry is provisioned on this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gupster_core::{ShardRequest, ShardedRegistry};
use gupster_policy::{Effect, Purpose, WeekTime};
use gupster_schema::gup_schema;
use gupster_store::StoreId;
use gupster_xml::ArenaDoc;
use gupster_xpath::Path;

thread_local! {
    /// Bytes and blocks allocated and not yet freed on this thread.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn note(bytes: isize, blocks: isize) {
    LIVE.with(|live| {
        let (b, n) = live.get();
        live.set((b + bytes, n + blocks));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local without a destructor, so updating it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), -1);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, 0);
        // SAFETY: as for `dealloc`, with the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OWNERS: usize = 1_000;
const STORES: usize = 6;
const FRIENDS: usize = 4;

/// The benchmark's four shield rules.
const RULES: [(&str, &str, &str); 4] = [
    ("friends-presence", "/user/presence", "relationship='friend'"),
    ("family-hours", "/user/presence", "relationship='family' and time in Mon-Fri 09:00-18:00"),
    ("friends-book", "/user/address-book", "relationship='friend'"),
    ("watchers", "/user/address-book", "purpose='subscribe'"),
];

fn user_id(i: usize) -> String {
    format!("u{i:06}")
}

/// Live bytes and blocks per owner that `provision` leaves behind.
fn per_owner(provision: impl FnOnce()) -> (f64, f64) {
    let (bytes, blocks) = LIVE.with(Cell::get);
    provision();
    let (after_bytes, after_blocks) = LIVE.with(Cell::get);
    let owners = OWNERS as f64;
    ((after_bytes - bytes) as f64 / owners, (after_blocks - blocks) as f64 / owners)
}

#[test]
fn a_resident_owner_holds_only_its_own_facts() {
    let ids: Vec<String> = (0..OWNERS).map(user_id).collect();
    // The benchmark fills its stores before it registers, and a store
    // interns the names of the documents it holds.
    ArenaDoc::parse("<user id='u'><presence/><address-book><item type='t'/></address-book></user>")
        .unwrap();
    let mut paths: Vec<[Path; 3]> = Vec::with_capacity(OWNERS);
    let handed_in = per_owner(|| {
        paths.extend(ids.iter().map(|id| {
            [
                format!("/user[@id='{id}']/presence"),
                format!("/user[@id='{id}']/address-book/item[@type='personal']"),
                format!("/user[@id='{id}']/address-book/item[@type='corporate']"),
            ]
            .map(|p| Path::parse(&p).unwrap())
        }))
    });
    let mut reg = ShardedRegistry::new(gup_schema(), b"k", 2);

    let coverage = per_owner(|| {
        for (i, (id, paths)) in ids.iter().zip(paths).enumerate() {
            for (c, path) in paths.into_iter().enumerate() {
                let store = StoreId::new(format!("store{}.net", (i + c) % STORES));
                reg.register_component(id, path, store).unwrap();
            }
        }
    });
    let relationships = per_owner(|| {
        for (i, id) in ids.iter().enumerate() {
            for k in 0..FRIENDS {
                reg.shard_mut(id).set_relationship(id, &ids[(i + 1 + k) % OWNERS], "friend");
            }
        }
    });
    let policies = per_owner(|| {
        for id in &ids {
            for (rule, scope, condition) in RULES {
                let pap = &mut reg.shard_mut(id).pap;
                pap.provision(id, rule, Effect::Permit, scope, condition, 0).unwrap();
            }
        }
    });

    for (layer, (bytes, blocks)) in [
        ("paths", handed_in),
        ("coverage", coverage),
        ("relationships", relationships),
        ("policies", policies),
    ] {
        println!("{layer:>13}: {bytes:7.1} B {blocks:5.2} blocks per owner");
    }
    let total = coverage.0 + relationships.0 + policies.0;
    println!("{:>13}: {total:7.1} B per owner", "total");

    // At most half of the 5 092 B the three layers held per owner when
    // each owner kept private copies (20 000 owners).
    assert!(total <= 2_546.0, "{total:.1} B per owner");
    // An owner's policy is one pointer to a shared rule set under its id.
    assert!(policies.1 <= 2.0, "policies: {:.2} blocks per owner", policies.1);
    for (layer, (bytes, blocks), (max_bytes, max_blocks)) in [
        ("paths", handed_in, PATHS),
        ("coverage", coverage, COVERAGE),
        ("relationships", relationships, RELATIONSHIPS),
        ("policies", policies, POLICIES),
    ] {
        assert!(bytes <= max_bytes, "{layer}: {bytes:.1} B per owner (pin {max_bytes})");
        assert!(blocks <= max_blocks, "{layer}: {blocks:.2} blocks per owner (pin {max_blocks})");
    }
}

/// The most live bytes and blocks per owner each layer may hold: what
/// this count reads with borrowed path names and exact step and
/// predicate lists (766 B / 13.0), and with shared rule sets, store ids
/// and labels and a flat trie (892 B / 12.0, 509 B / 5.0, 65 B / 1.1),
/// plus a few percent for the standard library's table layouts. An
/// owner-private copy of anything shared breaks one.
const PATHS: (f64, f64) = (790.0, 13.1);
const COVERAGE: (f64, f64) = (920.0, 12.1);
const RELATIONSHIPS: (f64, f64) = (525.0, 5.1);
const POLICIES: (f64, f64) = (70.0, 1.1);

/// Lookups each shard's decision memo holds before it evicts: the warm
/// round fills every shard's past it.
const MEMO_CAPACITY: usize = 4_096;
/// Requests in each measured round: new registered owners' presence,
/// each refused to a stranger, and as many unknown owners'.
const ROUND: usize = 1_000;
/// Live bytes a measured round may leave beyond the one before it.
const ROUND_SLACK: isize = 1_024;

/// A stranger's read of `owner`'s presence: refused by the shield, so it
/// leaves no provenance record, only a decision in the bounded memo.
fn stranger_read(owner: &str) -> ShardRequest {
    ShardRequest {
        owner: owner.to_string(),
        path: Path::parse(&format!("/user[@id='{owner}']/presence")).unwrap(),
        requester: "stranger".to_string(),
        purpose: Purpose::Query,
        time: WeekTime::at(1, 10, 0),
        now: 0,
    }
}

/// Runs `requests` in `lookup_batch` windows of one shard's requests
/// each: a window's lone bucket runs on this thread, where the count
/// sees every allocation and every free.
fn run_windows(reg: &mut ShardedRegistry, requests: &[ShardRequest]) {
    for shard in 0..reg.shard_count() {
        let mine: Vec<ShardRequest> =
            requests.iter().filter(|r| reg.shard_of(&r.owner) == shard).cloned().collect();
        for window in mine.chunks(256) {
            let (results, _) = reg.lookup_batch(window);
            assert!(results.iter().all(Result::is_err), "every request here is refused");
        }
    }
}

#[test]
fn lookups_of_new_owners_and_paths_leave_live_bytes_flat() {
    for shards in [1, 2] {
        let mut reg = ShardedRegistry::new(gup_schema(), b"k", shards);
        reg.set_span_limit(0);
        let fresh = |prefix: &str, n: usize| -> Vec<String> {
            (0..n).map(|i| format!("{prefix}{i:06}")).collect()
        };
        // Enough warm owners to fill every shard's memo.
        let mut warm: Vec<String> = Vec::new();
        let mut per_shard = vec![0; shards];
        while per_shard.iter().any(|&n| n < MEMO_CAPACITY + ROUND) {
            let id = format!("w{:06}", warm.len());
            per_shard[reg.shard_of(&id)] += 1;
            warm.push(id);
        }
        // Each round: new registered owners, and as many unknown ones.
        let round = |known, unknown| (fresh(known, ROUND / 2), fresh(unknown, ROUND / 2));
        let rounds = [round("a", "x"), round("b", "y")];
        for id in warm.iter().chain(rounds.iter().flat_map(|(known, _)| known)) {
            let path = Path::parse(&format!("/user[@id='{id}']/presence")).unwrap();
            reg.register_component(id, path, StoreId::new("store0.net")).unwrap();
        }
        let warm: Vec<ShardRequest> =
            warm.iter().chain(&fresh("u", ROUND)).map(|id| stranger_read(id)).collect();
        run_windows(&mut reg, &warm);

        let mut after = Vec::new();
        for (known, unknown) in &rounds {
            let requests: Vec<ShardRequest> =
                known.iter().chain(unknown).map(|id| stranger_read(id)).collect();
            run_windows(&mut reg, &requests);
            after.push(LIVE.with(Cell::get).0);
        }
        let grew = after[1] - after[0];
        println!("{shards} shard(s): the second round left {grew} B");
        assert!(grew <= ROUND_SLACK, "{shards} shard(s): {grew} B more live after round two");
    }
}
