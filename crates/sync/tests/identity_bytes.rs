//! A replica's id lives and dies with the replica. Log entries, dedup
//! sets and peers' anchors share the replica's one id, so once the last
//! replica holding it is dropped, nothing of it stays behind: a process
//! that builds, syncs and drops replicas under ever new ids (devices
//! joining and leaving a fleet) holds no more memory after ten thousand
//! of them than after one.
//!
//! Its own test binary, so that it can track live heap bytes with a
//! global allocator. Counts are per thread: other tests cannot disturb
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gupster_sync::{delta_two_way_sync, two_way_sync, ReconcilePolicy, Replica};
use gupster_xml::{EditOp, Element, MergeKeys, NodePath};

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local without a destructor, so updating it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + new_size as isize - layout.size() as isize));
        // SAFETY: as for `dealloc`, with the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

fn book() -> Element {
    Element::new("address-book").with_child(
        Element::new("item").with_attr("id", "1").with_child(Element::new("name").with_text("Mom")),
    )
}

fn set_name(text: &str) -> EditOp {
    EditOp::SetText {
        path: NodePath::root().keyed("item", "id", "1").child("name", 0),
        text: text.into(),
    }
}

fn insert(id: &str) -> EditOp {
    EditOp::Insert {
        parent: NodePath::root(),
        element: Element::new("item").with_attr("id", id).with_child(Element::new("name")),
    }
}

/// A hub and a device under fresh ids: both edit, the pair syncs both
/// ways (a conflict settled by the ids' tie-break included), and both
/// are dropped.
fn round(i: usize, keys: &MergeKeys) {
    let mut hub = Replica::new(&format!("hub{i}"), book(), keys.clone());
    let mut device = Replica::new(&format!("dev{i}"), book(), keys.clone());
    hub.edit(set_name("Mother")).unwrap();
    device.edit(set_name("Mum")).unwrap();
    device.edit(insert("2")).unwrap();
    let there = delta_two_way_sync(&mut hub, &mut device, ReconcilePolicy::LastWriterWins).unwrap();
    device.edit(set_name("Mummy")).unwrap();
    let back = two_way_sync(&mut device, &mut hub, ReconcilePolicy::LastWriterWins).unwrap();
    assert!(there.converged && back.converged, "round {i}: {there:?} {back:?}");
    assert_eq!((there.conflicts, back.shipped_to_second), (1, 1), "round {i}");
    assert_eq!(hub.doc, device.doc, "round {i}");
}

#[test]
fn replica_ids_do_not_outlive_their_replicas() {
    let keys = keys();
    round(0, &keys);
    let warm = LIVE.with(Cell::get);
    for i in 1..=10_000 {
        round(i, &keys);
    }
    let after = LIVE.with(Cell::get);
    assert_eq!(after, warm, "live bytes after 10 000 rounds vs. after one");
}
