//! Allocations made by the XPath work on a lookup: deciding
//! containment, coverage and overlap allocates nothing on paths of up
//! to 127 steps, parsing allocates only what the returned `Path` owns,
//! and selecting over an arena document allocates only when the
//! caller's id buffer is fresh.
//!
//! Its own test binary, so that it can count allocations with a global
//! allocator. Counts are per thread: other tests cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gupster_xml::{ArenaDoc, Name, NameInterner};
use gupster_xpath::{contains, covers, may_overlap, NameTest, Path, Predicate};

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

fn p(s: &str) -> Path {
    Path::parse(s).unwrap_or_else(|e| panic!("parse {s}: {e}"))
}

/// `/a/a/…/a` with `n` steps, the last one pinned.
fn chain(n: usize) -> Path {
    p(&format!("{}[@id='x']", "/a".repeat(n)))
}

#[test]
fn containment_decisions_allocate_nothing() {
    let pairs = [
        (p("/user[@id='u1']/address-book"), p("/user[@id='u1']/address-book/item[@type='x']")),
        (p("/user[@id='u1']/address-book/item[@type='x']"), p("/user[@id='u1']/address-book")),
        (p("/user/presence"), p("/user/address-book")),
        (p("//item[@id='3']/*"), p("/user/book/item[@id='3']/name")),
        (p("/user//item"), p("/user/book/item/@type")),
        (p("/user/@id"), p("/user[@x='1']/@id")),
        (chain(127), chain(127)),
        (chain(127), p("//a[@id]")),
        (chain(126), chain(127)),
    ];
    for (a, b) in &pairs {
        for (x, y) in [(a, b), (b, a)] {
            let (_, n) = counted(|| (contains(x, y), covers(x, y), may_overlap(x, y)));
            assert_eq!(n, 0, "{x} vs {y}");
        }
    }
    // The decisions themselves, so the counts above cover real work.
    assert!(contains(&chain(127), &p("//a[@id]")));
    assert!(covers(&pairs[0].0, &pairs[0].1));
    assert!(!may_overlap(&pairs[2].0, &pairs[2].1));
}

#[test]
fn a_path_past_127_steps_spills_one_row() {
    let (long, short) = (chain(128), p("//a[@id='x']"));
    let (held, n) = counted(|| contains(&long, &short));
    assert!(held);
    assert_eq!(n, 1, "the DP row moves to the heap once");
}

#[test]
fn parsing_allocates_only_the_returned_path() {
    for name in ["user", "id", "address-book"] {
        NameInterner::intern(name);
    }
    // This thread's copy of the name table catches up, and its scratch
    // lists grow, once, here.
    Path::parse("/user[@id='u1']/address-book").expect("parses");
    let (path, n) = counted(|| Path::parse("/user[@id='u1']/address-book"));
    let path = path.expect("parses");
    // The step list, its first step's predicate list and "u1"; every
    // name borrows the table's copy, and the empty predicate list of
    // the second step owns no heap memory.
    assert_eq!(path.steps[1].predicates.capacity(), 0);
    assert_eq!(n, 3);
}

#[test]
fn a_name_the_table_lacks_is_parsed_as_owned() {
    // This thread's scratch lists grow once, here.
    Path::parse("/warm[@up='1']").expect("parses");
    let (path, n) = counted(|| Path::parse("/never-interned-step[@never-interned-attr='v']"));
    let path = path.expect("parses");
    assert!(matches!(&path.steps[0].test, NameTest::Name(Name::Owned(_))));
    assert!(matches!(&path.steps[0].predicates[0], Predicate::AttrEq(Name::Owned(_), _)));
    // The step list, the predicate list, the value and the two copied
    // names.
    assert_eq!(n, 5);
    assert_eq!(NameInterner::lookup("never-interned-step"), None);
}

#[test]
fn child_only_selection_allocates_one_id_buffer() {
    // Eight nested `a` levels, each also holding an empty `a` without
    // `d` that the `[@d]` predicate filters out, so every step keeps
    // one context.
    let mut xml = String::new();
    for depth in 0..8 {
        xml.push_str(&format!("<a d='{depth}'><a/>"));
    }
    for _ in 0..8 {
        xml.push_str("</a>");
    }
    let doc = ArenaDoc::parse(&xml).expect("parses");
    for steps in 2..=8 {
        let path = p(&format!("/a{}", "/a[@d]".repeat(steps - 1)));
        let mut hits = Vec::new();
        let ((), n) = counted(|| path.select_arena(&doc, &mut hits));
        assert_eq!(hits.len(), 1, "{path}");
        assert_eq!(doc.attr(hits[0], "d"), Some((steps - 1).to_string().as_str()), "{path}");
        // The buffer never holds more than a context and its two
        // children, so its first allocation is its last.
        assert_eq!(n, 1, "{path}: {n} allocations into a fresh buffer");
        let ((), n) = counted(|| path.select_arena(&doc, &mut hits));
        assert_eq!(hits.len(), 1, "{path}");
        assert_eq!(n, 0, "{path}: {n} allocations into a kept buffer");
    }
}
