//! Process-wide interning of element and attribute names.
//!
//! PR 4 interned XPath *segments* ([`gupster-xpath`]'s `PathInterner`)
//! so the coverage trie and rule index compare integers instead of
//! strings. The arena document representation ([`crate::ArenaDoc`])
//! extends the same pattern down to the XML layer: every element and
//! attribute name is interned once into a [`NameInterner`], and arena
//! nodes carry a 4-byte [`NameId`] instead of an owned `String`.
//!
//! Interned strings are leaked into `'static` storage so
//! [`NameInterner::resolve`] can hand back a `&'static str` without
//! taking an allocation. Profile vocabularies are schema-bounded (tag
//! and attribute names, not values), so the leak is a small, bounded
//! arena — values are never interned.
//!
//! The table is append-only, so reads never need the shared lock: each
//! thread keeps a snapshot (a prefix of the table) and serves
//! [`NameInterner::lookup`] and [`NameInterner::resolve`] from it. A
//! snapshot is refreshed only when it is provably behind — a `resolve`
//! of an id past its end, or a `lookup` miss while the published length
//! says the table has grown. `to_element`, the merge and XPath selection
//! call these once per element and attribute, on every shard worker at
//! once; a shared `RwLock` there made the workers take turns.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned element/attribute name. Two `NameId`s are equal iff the
/// names they were interned from are equal, so tag comparison on the
/// merge hot path is `u32` equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// The process-wide name interner. All methods are associated
/// functions over a global append-only table: interning (rare — first
/// sight of a schema name) takes the write lock; `lookup` and `resolve`
/// on the hot path read the calling thread's snapshot of the table and
/// touch the lock only to extend a snapshot that has fallen behind.
#[derive(Debug, Default)]
pub struct NameInterner {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn global() -> &'static RwLock<NameInterner> {
    static GLOBAL: OnceLock<RwLock<NameInterner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(NameInterner::default()))
}

/// Length of the global table, stored (`Release`) under the write lock
/// after every append. A thread whose snapshot is this long has seen
/// every name, so a miss in it is a miss in the table. A name interned
/// by one thread and handed to another (inside a document) is covered
/// by whatever synchronization handed it over: the `Acquire` load then
/// cannot read a length older than that append.
static PUBLISHED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's prefix of the global table; same ids, same strings.
    static SNAPSHOT: RefCell<NameInterner> = RefCell::new(NameInterner::default());
}

impl NameInterner {
    /// Copies the names this snapshot has not seen yet out of the
    /// global table.
    fn catch_up(&mut self) {
        let g = global().read().expect("name interner lock");
        for &name in &g.names[self.names.len()..] {
            self.map.insert(name, self.names.len() as u32);
            self.names.push(name);
        }
    }

    /// Interns `s`, returning its stable [`NameId`]. Idempotent.
    pub fn intern(s: &str) -> NameId {
        if let Some(id) = Self::lookup(s) {
            return id;
        }
        let mut g = global().write().expect("name interner lock");
        if let Some(&id) = g.map.get(s) {
            return NameId(id);
        }
        let id = g.names.len() as u32;
        let stored: &'static str = Box::leak(s.to_string().into_boxed_str());
        g.names.push(stored);
        g.map.insert(stored, id);
        PUBLISHED.store(g.names.len(), Ordering::Release);
        NameId(id)
    }

    /// The [`NameId`] of `s` if it was ever interned — an attribute
    /// name that was never interned cannot appear on any arena node.
    /// Lock-free unless the table grew since this thread last looked.
    pub fn lookup(s: &str) -> Option<NameId> {
        SNAPSHOT.with(|snap| {
            let mut snap = snap.borrow_mut();
            if let Some(&id) = snap.map.get(s) {
                return Some(NameId(id));
            }
            if snap.names.len() == PUBLISHED.load(Ordering::Acquire) {
                return None;
            }
            snap.catch_up();
            snap.map.get(s).copied().map(NameId)
        })
    }

    /// The name a [`NameId`] was interned from. Lock-free unless the id
    /// is newer than this thread's snapshot.
    pub fn resolve(id: NameId) -> &'static str {
        SNAPSHOT.with(|snap| {
            let mut snap = snap.borrow_mut();
            if id.0 as usize >= snap.names.len() {
                snap.catch_up();
            }
            snap.names[id.0 as usize]
        })
    }

    /// Number of distinct names interned so far.
    pub fn len() -> usize {
        global().read().expect("name interner lock").names.len()
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(NameInterner::resolve(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_comparable() {
        let a = NameInterner::intern("address-book");
        let b = NameInterner::intern("address-book");
        let c = NameInterner::intern("name-intern-test-distinct");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(NameInterner::resolve(a), "address-book");
        assert_eq!(NameInterner::lookup("address-book"), Some(a));
        assert_eq!(a.to_string(), "address-book");
        assert!(NameInterner::len() >= 2);
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        let before = NameInterner::len();
        assert_eq!(NameInterner::lookup("never-interned-name-xyzzy"), None);
        assert_eq!(NameInterner::len(), before);
    }

    #[test]
    fn resolve_is_static_and_lock_free_to_hold() {
        let id = NameInterner::intern("held-across-interning");
        let held: &'static str = NameInterner::resolve(id);
        // Interning more names must not invalidate the held reference.
        for i in 0..64 {
            NameInterner::intern(&format!("churn-{i}"));
        }
        assert_eq!(held, "held-across-interning");
    }

    #[test]
    fn other_threads_see_the_same_ids_and_strings() {
        let here = NameInterner::intern("snapshot-test-before-spawn");
        let held = NameInterner::resolve(here);
        let (there, late) = std::thread::spawn(move || {
            // A fresh thread starts with an empty snapshot.
            assert_eq!(NameInterner::lookup("snapshot-test-before-spawn"), Some(here));
            assert!(std::ptr::eq(NameInterner::resolve(here), held));
            assert_eq!(NameInterner::lookup("snapshot-test-never-interned"), None);
            (NameInterner::intern("snapshot-test-before-spawn"), NameInterner::intern("snapshot-test-on-worker"))
        })
        .join()
        .expect("worker");
        assert_eq!(there, here);
        // Interned on the worker after this thread's snapshot was taken:
        // both directions of a stale snapshot refresh.
        assert_eq!(NameInterner::lookup("snapshot-test-on-worker"), Some(late));
        assert_eq!(NameInterner::resolve(late), "snapshot-test-on-worker");
    }
}
