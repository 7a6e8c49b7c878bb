//! Allocations per item of a materialized answer. The answer is an
//! address book split 120 + 80 over two stored documents and
//! deep-unioned through [`MergeOut`], the shape of every book read. Its
//! values share the stored buffers, so each item costs three
//! allocations: its attribute list, its child list and its `<name>`'s
//! child list. Cloning the answer costs the same and copies no value
//! bytes.
//!
//! Serializing a leaf answer writes one buffer, sized up front; a tree
//! grows its buffer by doubling.
//!
//! Its own test binary, so that it can count allocations with a global
//! allocator. Counts are per thread: other tests cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gupster_xml::{ArenaDoc, Element, MergeKeys, MergeOut, Node};

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

fn item(id: String, kind: &str, name: String) -> Element {
    Element::new("item")
        .with_attr("id", id)
        .with_attr("type", kind)
        .with_child(Element::new("name").with_text(name))
}

/// A user document holding one slice of the book, packed as a store
/// keeps it.
fn stored(kind: &str, prefix: char, items: usize) -> ArenaDoc {
    let mut book = Element::new("address-book");
    for k in 0..items {
        book.push_child(item(format!("{prefix}{k:03}"), kind, format!("Contact {k} of u7")));
    }
    ArenaDoc::from_element(&Element::new("user").with_attr("id", "u7").with_child(book))
}

#[test]
fn a_materialized_item_costs_three_allocations() {
    let (personal, corporate) = (stored("personal", 'p', 120), stored("corporate", 'c', 80));
    let book = |d: &ArenaDoc| d.child_elements(d.root()).next().expect("the book");
    let keys = MergeKeys::new().with_key("item", "id");
    let merged = MergeOut::from_node(&personal, book(&personal))
        .merge_with_node(&corporate, book(&corporate), &keys)
        .expect("disjoint slices merge");
    let n = 200;

    let (answer, made) = counted(|| merged.to_element());
    assert_eq!(answer.children_named("item").count(), n);
    assert!(made <= 3 * n + 4, "to_element: {made} allocations for {n} items");

    let (copy, cloned) = counted(|| answer.clone());
    assert_eq!(copy, answer);
    assert!(cloned <= 3 * n + 4, "clone: {cloned} allocations for {n} items");

    // Nothing was lost on the way: the answer serializes as the merge does.
    assert_eq!(copy.to_xml(), merged.to_xml());
}

#[test]
fn serializing_a_leaf_allocates_one_buffer() {
    let (personal, corporate) = (stored("personal", 'p', 120), stored("corporate", 'c', 80));
    let book = |d: &ArenaDoc| d.child_elements(d.root()).next().expect("the book");
    let keys = MergeKeys::new().with_key("item", "id");
    let merged = MergeOut::from_node(&personal, book(&personal))
        .merge_with_node(&corporate, book(&corporate), &keys)
        .expect("disjoint slices merge")
        .to_element();
    let presence = Element::new("presence").with_text("on & off");
    for answer in [&presence, &merged] {
        let (xml, made) = counted(|| answer.to_xml());
        let leaf = answer.children.iter().all(|c| matches!(c, Node::Text(_)));
        if leaf {
            assert_eq!(made, 1, "{} bytes", xml.len());
        } else {
            // One allocation per doubling from 8 bytes, at most.
            let doublings = (xml.len().next_power_of_two().trailing_zeros() - 2) as usize;
            assert!(made <= doublings, "{} bytes: {made} allocations", xml.len());
        }
        assert_eq!(xml.len(), answer.byte_size());
        assert_eq!(ArenaDoc::parse(&xml).expect("parses").root_element(), *answer);
    }
}
