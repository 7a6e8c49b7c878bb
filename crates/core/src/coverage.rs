//! The coverage map: "a mapping between sub-trees of the GUP schema
//! (expressed as XPath expressions) and data-stores" (§4.3/§4.5).
//!
//! Lookups ride the indexed fast path (DESIGN.md §7): a per-user
//! [`crate::index::CoverageTrie`] keyed by interned step names (and by
//! predicate values, which stay strings in that user's trie and are
//! never interned) prunes the registrations to a sound candidate
//! superset, and the
//! exact containment tests run only on those candidates — byte-
//! identical to a scan of every registration (the differential suites
//! check it against `gupster-oracle`'s `naive_match`). Wildcard
//! requests, which the trie cannot prune, examine every registration.

use std::sync::Arc;

use gupster_store::StoreId;
use gupster_xpath::{covers, may_overlap, Path};

use crate::index::{CoverageTrie, TrieWalk};

/// How a request matched the registered coverage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverageMatch {
    /// Stores whose registered component fully covers the request; each
    /// can answer it alone ("choice", the paper's `||`). Paired with the
    /// path the store should be asked (the request itself).
    pub full: Vec<(StoreId, Path)>,
    /// Stores holding only part of the request (e.g. the personal /
    /// corporate address-book splits of Fig. 9), paired with the
    /// narrower registered path. Their fragments must be merged.
    pub partial: Vec<(StoreId, Path)>,
}

/// How one indexed match was answered — feeds the `index.*` telemetry
/// counters and the `coverage.index` stage charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Entries the exact containment tests actually examined.
    pub candidates: usize,
    /// Total registered entries at match time.
    pub registered: usize,
    /// True when the trie answered; false on a naive fallback scan
    /// (wildcard request).
    pub used_index: bool,
}

/// Per-user coverage: the list of (component path, stores) registrations
/// and the trie over them. Paths and store ids are shared: the referral
/// entries that name a registered store, or ask for exactly a registered
/// path, hold the same `Arc`s, and a registry hands every registration
/// naming one store the same id.
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    entries: Vec<(Arc<Path>, Vec<Arc<StoreId>>)>,
    trie: CoverageTrie,
    /// Lookups the registry ran for the owner: the hot-user view.
    pub(crate) lookups: u64,
}

impl CoverageMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a store as holding the component at `path`.
    /// Idempotent per (path, store).
    pub fn register(&mut self, path: Path, store: StoreId) {
        self.register_shared(path, &Arc::new(store));
    }

    /// [`CoverageMap::register`] with a shared store id; returns whether
    /// the (path, store) pair is new. The trie finds an existing
    /// registration of `path` at the node where its spine ends.
    pub(crate) fn register_shared(&mut self, path: Path, store: &Arc<StoreId>) -> bool {
        match self.trie.find(&path, |idx| *self.entries[idx].0 == path) {
            Some(idx) => {
                let stores = &mut self.entries[idx].1;
                let new = !stores.iter().any(|s| s == store);
                if new {
                    stores.push(Arc::clone(store));
                }
                new
            }
            None => {
                let idx = self.entries.len();
                self.trie.insert(&path, idx);
                self.entries.push((Arc::new(path), vec![Arc::clone(store)]));
                true
            }
        }
    }

    /// Unregisters a store from a component; returns whether anything
    /// was removed. Empty entries are dropped.
    pub fn unregister(&mut self, path: &Path, store: &StoreId) -> bool {
        let Some(idx) = self.trie.find(path, |idx| *self.entries[idx].0 == *path) else {
            return false;
        };
        let stores = &mut self.entries[idx].1;
        let before = stores.len();
        stores.retain(|s| **s != *store);
        let removed = stores.len() != before;
        if stores.is_empty() {
            self.entries.remove(idx);
            self.rebuild_index();
        }
        removed
    }

    /// Removes *every* registration of a store (carrier-switch churn,
    /// §2.1). Returns how many entries were affected.
    pub fn unregister_store(&mut self, store: &StoreId) -> usize {
        let mut n = 0;
        for (_, stores) in &mut self.entries {
            let before = stores.len();
            stores.retain(|s| **s != *store);
            n += before - stores.len();
        }
        let before = self.entries.len();
        self.entries.retain(|(_, stores)| !stores.is_empty());
        if self.entries.len() != before {
            self.rebuild_index();
        }
        n
    }

    /// Rebuilds the trie after entry indices shifted. Removal is the
    /// cold path (carrier churn); lookups never pay this.
    fn rebuild_index(&mut self) {
        self.trie = CoverageTrie::default();
        for (idx, (path, _)) in self.entries.iter().enumerate() {
            self.trie.insert(path, idx);
        }
    }

    /// All registrations.
    pub fn entries(&self) -> &[(Arc<Path>, Vec<Arc<StoreId>>)] {
        &self.entries
    }

    /// Number of (path → store) pairs.
    pub fn registration_count(&self) -> usize {
        self.entries.iter().map(|(_, s)| s.len()).sum()
    }

    /// Matches a request path against the coverage (§4.5 semantics):
    /// a store fully serves the request when its registered path
    /// *covers* it; it partially serves when the registered path merely
    /// overlaps (is a fragment of) the request.
    pub fn match_request(&self, request: &Path) -> CoverageMatch {
        self.match_request_with_stats(request).0
    }

    /// [`CoverageMap::match_request`] plus how the index answered.
    pub fn match_request_with_stats(&self, request: &Path) -> (CoverageMatch, MatchStats) {
        let mut m = CoverageMatch::default();
        let stats = self.visit_matches(request, &mut TrieWalk::default(), |idx, full| {
            let (registered, stores) = &self.entries[idx];
            m.push(stores, registered, request, full)
        });
        (m, stats)
    }

    /// The match without the copies: hands each matching registration
    /// to `visit` as `(entry index, full)`, in registration order; the
    /// entry is `self.entries()[index]`. The trie's candidates are
    /// examined, or every entry when the trie cannot answer the
    /// request. The walk works in the caller's `walk` buffers.
    pub(crate) fn visit_matches(
        &self,
        request: &Path,
        walk: &mut TrieWalk,
        mut visit: impl FnMut(usize, bool),
    ) -> MatchStats {
        let registered = self.entries.len();
        if !self.trie.candidates(request, walk) {
            for (idx, (path, _)) in self.entries.iter().enumerate() {
                if let Some(full) = serves(path, request) {
                    visit(idx, full);
                }
            }
            return MatchStats { candidates: registered, registered, used_index: false };
        }
        for &idx in &walk.candidates {
            if let Some(full) = serves(&self.entries[idx].0, request) {
                visit(idx, full);
            }
        }
        MatchStats { candidates: walk.candidates.len(), registered, used_index: true }
    }

}

impl CoverageMatch {
    /// Records one matching registration: a full source is asked for
    /// the request itself, a partial one is listed with its narrower
    /// registered path.
    fn push(&mut self, stores: &[Arc<StoreId>], registered: &Path, request: &Path, full: bool) {
        for store in stores {
            if full {
                self.full.push((StoreId::clone(store), request.clone()));
            } else {
                self.partial.push((StoreId::clone(store), registered.clone()));
            }
        }
    }
}

/// The exact per-entry test, shared by the trie's candidates and the
/// wildcard fallback scan so they cannot diverge in semantics — only in
/// which entries they examine: `Some(full)` when the registration at
/// `path` serves `request`, wholly or in part.
fn serves(path: &Path, request: &Path) -> Option<bool> {
    let full = covers(path, request);
    (full || may_overlap(path, request)).then_some(full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn sid(s: &str) -> StoreId {
        StoreId::new(s)
    }

    #[test]
    fn paper_section_4_3_coverage() {
        // §4.3: Yahoo! and SprintPCS both hold Arnaud's address book;
        // SprintPCS alone holds his presence.
        let mut cov = CoverageMap::new();
        cov.register(p("/user[@id='arnaud']/address-book"), sid("gup.yahoo.com"));
        cov.register(p("/user[@id='arnaud']/address-book"), sid("gup.spcs.com"));
        cov.register(p("/user[@id='arnaud']/presence"), sid("gup.spcs.com"));

        let m = cov.match_request(&p("/user[@id='arnaud']/address-book"));
        assert_eq!(m.full.len(), 2, "both stores can answer: choice referral");
        assert!(m.partial.is_empty());

        let m = cov.match_request(&p("/user[@id='arnaud']/presence"));
        assert_eq!(m.full.len(), 1);
        assert_eq!(m.full[0].0, sid("gup.spcs.com"));

        let m = cov.match_request(&p("/user[@id='arnaud']/calendar"));
        assert!(m.full.is_empty() && m.partial.is_empty());
    }

    #[test]
    fn figure_9_split_book() {
        let mut cov = CoverageMap::new();
        cov.register(
            p("/user[@id='arnaud']/address-book/item[@type='personal']"),
            sid("gup.yahoo.com"),
        );
        cov.register(
            p("/user[@id='arnaud']/address-book/item[@type='corporate']"),
            sid("gup.lucent.com"),
        );
        // Whole-book request: both stores are partial sources.
        let m = cov.match_request(&p("/user[@id='arnaud']/address-book"));
        assert!(m.full.is_empty());
        assert_eq!(m.partial.len(), 2);
        // The partial entries carry the *narrower* registered paths.
        assert!(m.partial.iter().any(|(s, path)| s == &sid("gup.yahoo.com")
            && path.to_string().contains("personal")));
        // A request for just the corporate split: Lucent fully covers.
        let m = cov.match_request(&p("/user[@id='arnaud']/address-book/item[@type='corporate']"));
        assert_eq!(m.full.len(), 1);
        assert_eq!(m.full[0].0, sid("gup.lucent.com"));
        assert!(m.partial.is_empty());
    }

    #[test]
    fn deeper_request_fully_covered() {
        let mut cov = CoverageMap::new();
        cov.register(p("/user[@id='a']/address-book"), sid("s1"));
        let m = cov.match_request(&p("/user[@id='a']/address-book/item[@id='7']/phone"));
        assert_eq!(m.full.len(), 1);
    }

    #[test]
    fn register_idempotent_unregister_works() {
        let mut cov = CoverageMap::new();
        cov.register(p("/user/presence"), sid("s1"));
        cov.register(p("/user/presence"), sid("s1"));
        assert_eq!(cov.registration_count(), 1);
        assert!(cov.unregister(&p("/user/presence"), &sid("s1")));
        assert!(!cov.unregister(&p("/user/presence"), &sid("s1")));
        assert_eq!(cov.match_request(&p("/user/presence")), CoverageMatch::default());
    }

    #[test]
    fn unregister_store_everywhere() {
        let mut cov = CoverageMap::new();
        cov.register(p("/user/presence"), sid("gup.spcs.com"));
        cov.register(p("/user/address-book"), sid("gup.spcs.com"));
        cov.register(p("/user/address-book"), sid("gup.yahoo.com"));
        assert_eq!(cov.unregister_store(&sid("gup.spcs.com")), 2);
        let m = cov.match_request(&p("/user/address-book"));
        assert_eq!(m.full.len(), 1);
        assert_eq!(m.full[0].0, sid("gup.yahoo.com"));
        assert_eq!(cov.match_request(&p("/user/presence")), CoverageMatch::default());
    }

    #[test]
    fn predicate_values_are_not_interned() {
        use gupster_policy::{Condition, PolicyRepository, Rule};
        use gupster_xml::NameInterner;

        let unique = "predicate-value-not-a-name-5e1f";
        let pinned = p(&format!("/user[@id='{unique}']/presence"));
        let mut cov = CoverageMap::new();
        cov.register(pinned.clone(), sid("gup.spcs.com"));
        let mut rules = PolicyRepository::new();
        rules.put(unique, Rule::permit("r", pinned.clone(), Condition::True));
        assert_eq!(NameInterner::lookup(unique), None, "a value reached the name table");

        let m = cov.match_request(&pinned);
        assert_eq!(m.full, vec![(sid("gup.spcs.com"), pinned)]);
        let other = p("/user[@id='someone-else']/presence");
        assert_eq!(cov.match_request(&other), CoverageMatch::default());
        assert_eq!(NameInterner::lookup(unique), None);
    }

    #[test]
    fn unregistering_an_unknown_path_interns_nothing() {
        use gupster_xml::NameInterner;

        let mut cov = CoverageMap::new();
        cov.register(p("/user[@id='a']/presence"), sid("s"));
        for s in ["/user[@id='a']/never-registered-step", "/user[@never-registered-attr='a']"] {
            assert!(!cov.unregister(&p(s), &sid("s")), "{s}");
        }
        assert_eq!(NameInterner::lookup("never-registered-step"), None);
        assert_eq!(NameInterner::lookup("never-registered-attr"), None);
        assert!(cov.unregister(&p("/user[@id='a']/presence"), &sid("s")));
    }
}
