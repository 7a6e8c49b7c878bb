//! Process-wide interning of actor ids and node paths.
//!
//! PR 4 interned XPath segments (`gupster-xpath`'s `PathInterner`) and
//! PR 7 interned XML names (`gupster-xml`'s `NameInterner`). The sync
//! write path extends the same idiom to its own two hot vocabularies:
//!
//! * **actor ids** ([`ActorId`]) — every log entry and every element of
//!   a replica's dedup set carries the actor that made the edit. A
//!   fleet has a handful of sites; cloning a `String` per append (and
//!   per `seen` probe) is pure waste. Interning makes a log entry's
//!   actor a 4-byte copyable id and the dedup set a `(u32, u64)` set.
//! * **node paths** ([`PathId`]) — compaction groups a log's entries by
//!   touched [`NodePath`], and delta encoding ships each distinct path
//!   once per session. Both want a cheap, hashable path handle.
//!
//! Interned values are leaked into `'static` storage so `resolve` hands
//! back a reference without cloning or holding the table lock across
//! the caller's use. Site ids and profile paths are schema/deployment
//! bounded, so the leak is a small, bounded arena.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use gupster_xml::NodePath;

/// An interned actor (site) id. Two `ActorId`s are equal iff the ids
/// they were interned from are equal, so dedup-set probes and LWW
/// tie-breaks compare integers, not strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

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

/// An interned [`NodePath`]. Equality of ids is equality of paths, so
/// compaction's per-path grouping and the delta codec's dictionary both
/// hash a `u32` instead of a step vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct PathId(pub u32);

#[derive(Default)]
struct PathTable {
    map: HashMap<&'static NodePath, u32>,
    paths: Vec<&'static NodePath>,
}

fn paths() -> &'static RwLock<PathTable> {
    static GLOBAL: OnceLock<RwLock<PathTable>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(PathTable::default()))
}

impl PathId {
    /// Interns `p`, returning its stable [`PathId`]. Idempotent.
    pub(crate) fn intern(p: &NodePath) -> PathId {
        {
            let g = paths().read().expect("path interner lock");
            if let Some(&id) = g.map.get(p) {
                return PathId(id);
            }
        }
        let mut g = paths().write().expect("path interner lock");
        if let Some(&id) = g.map.get(p) {
            return PathId(id);
        }
        let id = g.paths.len() as u32;
        let stored: &'static NodePath = Box::leak(Box::new(p.clone()));
        g.paths.push(stored);
        g.map.insert(stored, id);
        PathId(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The path a [`PathId`] was interned from.
    fn resolve(id: PathId) -> &'static NodePath {
        paths().read().expect("path interner lock").paths[id.0 as usize]
    }

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

    #[test]
    fn path_interning_is_stable() {
        let p = NodePath::root().keyed("item", "id", "7").child("name", 0);
        let q = NodePath::root().keyed("item", "id", "8");
        let a = PathId::intern(&p);
        let b = PathId::intern(&p);
        let c = PathId::intern(&q);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(resolve(a), &p);
        assert_eq!(resolve(c), &q);
    }
}
