//! The process-wide name table: one [`NameId`] per distinct name, for
//! every bounded vocabulary in the workspace.
//!
//! Four vocabularies feed it, all bounded by the GUP schema or by the
//! code rather than by the number of users:
//!
//! * element and attribute names of every document a store accepted
//!   (arena nodes carry a 4-byte [`NameId`] instead of an owned
//!   `String`; stores do not validate names against the schema);
//! * the step names of registered coverage paths and of policy rule
//!   scopes (`gupster-xpath`'s `InternedPath`, the coverage trie and
//!   the rule index compare `NameId`s, not strings);
//! * merge-key tag and attribute names ([`crate::MergeKeys`]);
//! * telemetry stage labels (spans and histograms key on `NameId`).
//!
//! Values are never interned: predicate values such as
//! `[@id='u4711']`, attribute and text values and sync node paths are
//! user data, and a leaked table would keep every one of them forever.
//! Nor does a parse or a builder intern: an owned tree's parser owns
//! its names, builders borrow `&'static str` literals and own the rest,
//! and a parsed XPath names its steps with [`NameInterner::name`],
//! which borrows the table's copy when the table holds the name and
//! owns one otherwise, so arbitrary input leaves the table as it was.
//!
//! Interned strings are leaked into `'static` storage so
//! [`NameInterner::resolve`] can hand back a `&'static str` without
//! taking an allocation.
//!
//! The table is append-only, so reads never need the shared lock: each
//! thread keeps a snapshot (a prefix of the table) and serves
//! [`NameInterner::lookup`] and [`NameInterner::resolve`] from it. A
//! snapshot is refreshed only when it is provably behind — a `resolve`
//! of an id past its end, or a `lookup` miss while the published length
//! says the table has grown. `to_element`, the merge, XPath selection
//! and every span call these on every shard worker at once; a shared
//! `RwLock` there made the workers take turns.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::Name;

/// An interned name. Two `NameId`s are equal iff the names they were
/// interned from are equal, so tag comparison on the merge hot path is
/// `u32` equality.
///
/// Ids come only from the table: code outside this crate cannot make
/// one from an integer, so every `NameId` it holds resolves.
///
/// ```compile_fail,E0423
/// let forged = gupster_xml::NameId(9_999_999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub(crate) u32);

/// The process-wide name interner. All methods are associated
/// functions over a global append-only table: interning (rare — first
/// sight of a name) takes the write lock; `lookup` and `resolve` on the
/// hot path read the calling thread's snapshot of the table and touch
/// the lock only to extend a snapshot that has fallen behind.
#[derive(Debug, Default)]
pub struct NameInterner {
    map: HashMap<&'static str, NameId>,
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
    /// global table, sized in one step: a freshly spawned shard worker
    /// copies the whole table on its first read.
    fn catch_up(&mut self) {
        let g = global().read().expect("name interner lock");
        let missing = &g.names[self.names.len()..];
        self.names.reserve(missing.len());
        self.map.reserve(missing.len());
        for &name in missing {
            self.map.insert(name, NameId(self.names.len() as u32));
            self.names.push(name);
        }
    }

    /// Interns `s`, returning its stable [`NameId`]. Idempotent. Only
    /// names belong here (see the module docs): every distinct string
    /// is kept for the life of the process.
    pub fn intern(s: &str) -> NameId {
        if let Some(id) = Self::lookup(s) {
            return id;
        }
        let mut g = global().write().expect("name interner lock");
        if let Some(&id) = g.map.get(s) {
            return id;
        }
        let id = NameId(g.names.len() as u32);
        let stored: &'static str = Box::leak(s.into());
        g.names.push(stored);
        g.map.insert(stored, id);
        PUBLISHED.store(g.names.len(), Ordering::Release);
        id
    }

    /// The [`NameId`] of `s` if it was ever interned — a name that was
    /// never interned appears on no arena node, registered path or
    /// stage. Never grows the table. Lock-free unless the table grew
    /// since this thread last looked.
    pub fn lookup(s: &str) -> Option<NameId> {
        Self::find(s).map(|(_, id)| id)
    }

    /// The number of distinct names interned so far, in the whole
    /// process.
    pub fn interned() -> usize {
        PUBLISHED.load(Ordering::Acquire)
    }

    /// `s` as a [`Name`]: the table's `&'static` copy when `s` was ever
    /// interned, an owned copy otherwise. Never grows the table: this
    /// is how the XPath parser, and code building a path from a
    /// borrowed string, name a path step.
    pub fn name(s: &str) -> Name {
        match Self::find(s) {
            Some((stored, _)) => Name::Borrowed(stored),
            None => Name::Owned(s.to_owned()),
        }
    }

    /// The table's copy of `s` and its id, if `s` was ever interned.
    fn find(s: &str) -> Option<(&'static str, NameId)> {
        SNAPSHOT.with_borrow_mut(|snap| match snap.map.get_key_value(s) {
            Some((&stored, &id)) => Some((stored, id)),
            None if snap.names.len() < PUBLISHED.load(Ordering::Acquire) => {
                snap.catch_up();
                snap.map.get_key_value(s).map(|(&stored, &id)| (stored, id))
            }
            None => None,
        })
    }

    /// The name a [`NameId`] was interned from. Lock-free unless the id
    /// is newer than this thread's snapshot.
    pub fn resolve(id: NameId) -> &'static str {
        SNAPSHOT.with_borrow_mut(|snap| {
            if id.0 as usize >= snap.names.len() {
                snap.catch_up();
            }
            snap.names[id.0 as usize]
        })
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
        assert!(NameInterner::interned() >= 2);
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        let before = NameInterner::interned();
        assert_eq!(NameInterner::lookup("never-interned-name-xyzzy"), None);
        assert!(matches!(NameInterner::name("never-interned-name-xyzzy"), Name::Owned(_)));
        assert_eq!(NameInterner::interned(), before);
    }

    #[test]
    fn a_name_borrows_the_tables_copy() {
        let id = NameInterner::intern("borrowed-name-test");
        let Name::Borrowed(held) = NameInterner::name(&String::from("borrowed-name-test")) else {
            panic!("an interned name is borrowed");
        };
        assert!(std::ptr::eq(held, NameInterner::resolve(id)));
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

    #[test]
    fn interner_is_thread_safe() {
        let ids: Vec<NameId> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| NameInterner::intern("concurrent.stage")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
