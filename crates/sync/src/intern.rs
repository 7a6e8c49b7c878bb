//! Process-wide interning of actor ids.
//!
//! Every log entry and every element of a replica's dedup set carries
//! the actor that made the edit. A fleet has a handful of sites per
//! owner; cloning a `String` per append (and per `seen` probe) is pure
//! waste. Interning makes a log entry's actor a 4-byte copyable
//! [`ActorId`] and the dedup set a `(u32, u64)` set.
//!
//! This is its own table, not `gupster-xml`'s name table: last-writer-
//! wins resolves actor ids on freshly spawned reconcile workers, where
//! a per-thread snapshot of the table would be copied on every pass.
//! Interned ids are leaked into `'static` storage so `as_str` hands
//! back a reference without cloning or holding the table lock across
//! the caller's use; site ids are deployment bounded, so the leak is a
//! small, bounded arena. Node paths are not interned: compaction and
//! the delta codec borrow them from the log entries they group.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned actor (site) id. Two `ActorId`s are equal iff the ids
/// they were interned from are equal, so dedup-set probes and LWW
/// tie-breaks compare integers, not strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) u32);

#[derive(Default)]
struct ActorTable {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn actors() -> &'static RwLock<ActorTable> {
    static GLOBAL: OnceLock<RwLock<ActorTable>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(ActorTable::default()))
}

impl ActorId {
    /// Interns `s`, returning its stable [`ActorId`]. Idempotent.
    pub(crate) fn intern(s: &str) -> ActorId {
        if let Some(id) = Self::lookup(s) {
            return id;
        }
        let mut g = actors().write().expect("actor interner lock");
        if let Some(&id) = g.map.get(s) {
            return ActorId(id);
        }
        let id = g.names.len() as u32;
        let stored: &'static str = Box::leak(s.to_string().into_boxed_str());
        g.names.push(stored);
        g.map.insert(stored, id);
        ActorId(id)
    }

    /// The [`ActorId`] of `s` if it was ever interned.
    pub(crate) fn lookup(s: &str) -> Option<ActorId> {
        actors().read().expect("actor interner lock").map.get(s).copied().map(ActorId)
    }

    /// The actor id string this [`ActorId`] was interned from.
    pub(crate) fn as_str(self) -> &'static str {
        actors().read().expect("actor interner lock").names[self.0 as usize]
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_interning_is_stable() {
        let a = ActorId::intern("phone");
        let b = ActorId::intern("phone");
        let c = ActorId::intern("sync-intern-test-distinct");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "phone");
        assert_eq!(ActorId::lookup("phone"), Some(a));
        assert_eq!(a.to_string(), "phone");
    }
}
