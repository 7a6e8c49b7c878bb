//! Stage-label interning for the span hot path.
//!
//! Every span close used to clone its stage label into an owned
//! `String` twice — once into the tracer's stage buffer and once into
//! the retained [`crate::Span`]. Under the sharded executor that is
//! two heap allocations per span at millions of spans per run, all for
//! labels drawn from a vocabulary of a few dozen constants.
//!
//! [`StageInterner`] applies the PR-4 `PathInterner` pattern to stage
//! labels: a process-wide table maps each distinct label to a dense
//! [`StageId`]. The tracer's open-span stack, its stage buffer and the
//! hub's histogram map all key on `StageId`, so the hot path moves
//! `u32`s; label strings are materialized only when a trace is actually
//! retained or exported. Interning an already-known label takes the
//! read lock only — the write lock is touched once per distinct label
//! per process lifetime.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// An interned stage-label id. Two `StageId`s are equal iff the labels
/// they were interned from are equal, so stage comparison and histogram
/// bucketing work on `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub u32);

/// The process-wide stage-label interner. All methods are associated
/// functions over a global table behind an `RwLock`, mirroring the
/// xpath segment interner: interning a known label takes the read lock,
/// a novel label (rare — the stage vocabulary is small and fixed) takes
/// the write lock once.
#[derive(Debug, Default)]
pub struct StageInterner {
    map: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

fn global() -> &'static RwLock<StageInterner> {
    static GLOBAL: OnceLock<RwLock<StageInterner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(StageInterner::default()))
}

impl StageInterner {
    /// Interns `label`, returning its stable [`StageId`]. Idempotent.
    pub fn intern(label: &str) -> StageId {
        if let Some(id) = Self::lookup(label) {
            return id;
        }
        let mut g = global().write().expect("stage interner lock");
        if let Some(&id) = g.map.get(label) {
            return StageId(id);
        }
        let id = g.names.len() as u32;
        let shared: Arc<str> = Arc::from(label);
        g.names.push(Arc::clone(&shared));
        g.map.insert(shared, id);
        StageId(id)
    }

    /// The [`StageId`] of `label` if it was ever interned. Read-lock
    /// only.
    pub(crate) fn lookup(label: &str) -> Option<StageId> {
        global().read().expect("stage interner lock").map.get(label).copied().map(StageId)
    }

    /// The label a [`StageId`] was interned from, as a cheaply cloned
    /// shared string.
    pub(crate) fn resolve(id: StageId) -> Arc<str> {
        Arc::clone(&global().read().expect("stage interner lock").names[id.0 as usize])
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&StageInterner::resolve(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct labels interned so far.
    fn interned() -> usize {
        global().read().expect("stage interner lock").names.len()
    }

    #[test]
    fn interning_is_stable_and_comparable() {
        let a = StageInterner::intern("store.fetch");
        let b = StageInterner::intern("store.fetch");
        let c = StageInterner::intern("stage-intern-test.unique");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(&*StageInterner::resolve(a), "store.fetch");
        assert_eq!(StageInterner::lookup("store.fetch"), Some(a));
        assert_eq!(a.to_string(), "store.fetch");
        assert!(interned() >= 2);
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        let before = interned();
        assert_eq!(StageInterner::lookup("never-a-stage-label-xyzzy"), None);
        assert_eq!(interned(), before);
    }

    #[test]
    fn interner_is_thread_safe() {
        let ids: Vec<StageId> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| StageInterner::intern("concurrent.stage")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
