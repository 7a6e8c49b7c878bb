//! Segment-level string interning and the compiled path representation
//! the indexed lookup fast path keys on.
//!
//! The registry's hot path compares path-step names millions of times
//! per second (coverage matching, rule bucketing). Interning every
//! segment once in a process-wide [`PathInterner`] turns those string
//! comparisons into integer equality on [`Sym`] ids, and lets the
//! coverage trie and the policy rule index use dense `HashMap<Sym, _>`
//! keys instead of hashing strings on every probe.
//!
//! [`InternedPath`] is the compiled form of a core-fragment [`Path`]:
//! each step carries its name `Sym`, its axis kind and the `Sym`-ized
//! first `[@attr='value']` predicate (the trie's discriminating edge
//! key). Paths outside the core fragment (`//`, `*`) do not compile —
//! the indexes place them in always-scanned wildcard buckets instead.
//!
//! [`PathCache`] is the client-side companion: a bounded memo of parsed
//! query strings, so a client replaying the same textual queries skips
//! the lexer/parser entirely.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use crate::ast::{Axis, NameTest, Path, Predicate};
use crate::lru::{KeyDigest, OwnerLru};
use crate::parser::XPathError;

/// An interned string id. Two `Sym`s are equal iff the strings they
/// were interned from are equal, so name comparison is `u32` equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// The process-wide segment interner. All methods are associated
/// functions over a global table behind an `RwLock`: interning (rare —
/// registration, rule provisioning) takes the write lock; lookups on
/// the query hot path take the read lock only.
#[derive(Debug, Default)]
pub struct PathInterner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

fn global() -> &'static RwLock<PathInterner> {
    static GLOBAL: OnceLock<RwLock<PathInterner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(PathInterner::default()))
}

impl PathInterner {
    /// Interns `s`, returning its stable [`Sym`]. Idempotent.
    pub fn intern(s: &str) -> Sym {
        if let Some(sym) = Self::lookup(s) {
            return sym;
        }
        let mut g = global().write().expect("interner lock");
        if let Some(&id) = g.map.get(s) {
            return Sym(id);
        }
        let id = g.names.len() as u32;
        g.names.push(s.to_string());
        g.map.insert(s.to_string(), id);
        Sym(id)
    }

    /// The [`Sym`] of `s` if it was ever interned. Read-lock only —
    /// this is the query-side probe: an unknown segment name means no
    /// registered path can possibly use it.
    pub fn lookup(s: &str) -> Option<Sym> {
        global().read().expect("interner lock").map.get(s).copied().map(Sym)
    }

    /// The string a [`Sym`] was interned from.
    pub fn resolve(sym: Sym) -> String {
        global().read().expect("interner lock").names[sym.0 as usize].clone()
    }

    /// Number of distinct segments interned so far.
    pub fn len() -> usize {
        global().read().expect("interner lock").names.len()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&PathInterner::resolve(*self))
    }
}

/// One compiled location step: the name as a [`Sym`], whether it rides
/// the attribute axis, and the `Sym`-ized first `[@attr='value']`
/// predicate (the discriminating edge key of the coverage trie).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InternedStep {
    /// Interned step name.
    pub name: Sym,
    /// True for `@name` (attribute axis) steps.
    pub attribute: bool,
    /// The first `[@attr='value']` predicate as `(attr, value)` syms,
    /// if the step has one. Other predicate kinds do not discriminate
    /// trie edges and stay on the retained [`Path`] for exact checks.
    pub pred_key: Option<(Sym, Sym)>,
}

/// A compiled core-fragment path: every step carries its [`Sym`] ids,
/// so spine walks compare integers, never strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternedPath {
    /// The compiled steps, outermost first.
    pub steps: Vec<InternedStep>,
}

impl InternedPath {
    /// Compiles a path, interning every segment. Returns `None` when
    /// the path leaves the core fragment (`//` or `*` anywhere) — such
    /// paths belong in the indexes' wildcard buckets.
    pub fn compile(path: &Path) -> Option<InternedPath> {
        if !path.is_core_fragment() {
            return None;
        }
        let mut steps = Vec::with_capacity(path.steps.len());
        for step in &path.steps {
            let NameTest::Name(name) = &step.test else { return None };
            let pred_key = step.predicates.iter().find_map(|p| match p {
                Predicate::AttrEq(a, v) => {
                    Some((PathInterner::intern(a), PathInterner::intern(v)))
                }
                _ => None,
            });
            steps.push(InternedStep {
                name: PathInterner::intern(name),
                attribute: step.axis == Axis::Attribute,
                pred_key,
            });
        }
        Some(InternedPath { steps })
    }
}

/// A bounded memo of parsed query strings: clients replaying the same
/// textual queries (HLR-style lookup storms) skip the lexer/parser.
/// Failures are not cached — bad queries stay cheap to re-reject.
#[derive(Debug)]
pub struct PathCache {
    entries: OwnerLru<String, Path>,
    /// Parse calls answered from the memo.
    pub hits: u64,
    /// Parse calls that ran the parser.
    pub misses: u64,
}

impl PathCache {
    /// A cache bounded to `capacity` parsed paths.
    pub fn new(capacity: usize) -> Self {
        PathCache { entries: OwnerLru::new(capacity), hits: 0, misses: 0 }
    }

    /// Parses `s`, serving repeats from the memo. Least-recently-used
    /// entries are evicted at capacity.
    pub fn parse(&mut self, s: &str) -> Result<Path, XPathError> {
        let digest = KeyDigest::new("", s);
        if let Some(path) = self.entries.get(digest.key, |k| k == s) {
            self.hits += 1;
            return Ok(path.clone());
        }
        self.misses += 1;
        let path = Path::parse(s)?;
        self.entries.put(digest, s.to_string(), path.clone());
        Ok(path)
    }

    /// Number of memoized paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_comparable() {
        let a = PathInterner::intern("address-book");
        let b = PathInterner::intern("address-book");
        let c = PathInterner::intern("presence-intern-test");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(PathInterner::resolve(a), "address-book");
        assert_eq!(PathInterner::lookup("address-book"), Some(a));
        assert_eq!(a.to_string(), "address-book");
        assert!(PathInterner::len() >= 2);
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        let before = PathInterner::len();
        assert_eq!(PathInterner::lookup("never-interned-segment-xyzzy"), None);
        assert_eq!(PathInterner::len(), before);
    }

    #[test]
    fn compile_core_fragment() {
        let p = Path::parse("/user[@id='a']/address-book/item[@type='x'][@id='1']/@ref")
            .unwrap();
        let ip = InternedPath::compile(&p).unwrap();
        assert_eq!(ip.steps.len(), 4);
        assert_eq!(ip.steps[0].name, PathInterner::intern("user"));
        assert_eq!(
            ip.steps[0].pred_key,
            Some((PathInterner::intern("id"), PathInterner::intern("a")))
        );
        assert!(ip.steps[1].pred_key.is_none());
        // Only the FIRST AttrEq keys the edge.
        assert_eq!(
            ip.steps[2].pred_key,
            Some((PathInterner::intern("type"), PathInterner::intern("x")))
        );
        assert!(ip.steps[3].attribute);
        assert!(!ip.steps[2].attribute);
    }

    #[test]
    fn wildcards_do_not_compile() {
        for s in ["//item", "/user/*", "/user//presence"] {
            assert!(InternedPath::compile(&Path::parse(s).unwrap()).is_none(), "{s}");
        }
    }

    #[test]
    fn path_cache_hits_and_evicts() {
        let mut c = PathCache::new(2);
        let p1 = c.parse("/user/presence").unwrap();
        assert_eq!(p1.to_string(), "/user/presence");
        c.parse("/user/presence").unwrap();
        assert_eq!((c.hits, c.misses), (1, 1));
        c.parse("/user/calendar").unwrap();
        // Touch presence so calendar is the LRU victim.
        c.parse("/user/presence").unwrap();
        c.parse("/user/devices").unwrap();
        assert_eq!(c.len(), 2);
        c.parse("/user/calendar").unwrap();
        assert_eq!(c.misses, 4, "evicted entry re-parses");
        assert!(c.parse("not a path").is_err());
        assert!(c.parse("not a path").is_err(), "failures are not cached");
        assert!(!c.is_empty());
    }
}
