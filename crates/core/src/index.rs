//! The per-user coverage trie: the indexed fast path behind
//! [`crate::CoverageMap::match_request`].
//!
//! Registered component paths are laid out as a trie keyed by step
//! names interned in `gupster-xml`'s process-wide name table. An edge
//! is `(name NameId, attribute-axis?)` into a per-name bucket that
//! splits further on the step's first `[@attr='value']` predicate:
//! predicate-less steps share the `bare` slot (the wildcard bucket of a
//! name — such registrations can match any predicate the request
//! carries), and predicated steps hang off `(attr NameId, value)` pairs
//! so point lookups like `item[@id='4711']` touch exactly one edge out
//! of 100k siblings. The value is user data, not a name: the trie owns
//! it as a string, and nothing process-wide ever sees it.
//!
//! The trie is a **pruning** index, not a decision procedure: a walk
//! returns a superset of the entries that can possibly relate to the
//! request (sound per the step-compatibility and predicate-implication
//! rules of [`gupster_xpath::covers`] / [`gupster_xpath::may_overlap`]),
//! and the caller re-runs the exact containment tests on just those
//! candidates, in registration order — so the indexed match is
//! byte-identical to the retained naive scan, which the seeded
//! differential suite asserts.
//!
//! Paths outside the core fragment (`//`, `*`) do not compile to
//! interned spines; they live in an always-scanned wildcard bucket.
//! Requests outside the core fragment skip the trie entirely (the
//! caller falls back to the naive scan and counts it).

use std::collections::HashMap;

use gupster_xml::{NameId, NameInterner};
use gupster_xpath::{Axis, InternedPath, NameTest, Path, Predicate};

/// Per-name edge bucket: the predicate-less child plus children keyed
/// by their discriminating `[@attr='value']` predicate.
#[derive(Debug, Clone, Default)]
struct NameBucket {
    /// Child for steps of this name with no `AttrEq` predicate. Always
    /// a candidate: a bare registration covers any predicated request
    /// step, and overlaps any of them.
    bare: Option<usize>,
    /// attr name → value → child node. A step pins one attribute in
    /// practice, so the attributes are a list sized to fit.
    by_attr: Vec<(NameId, HashMap<Box<str>, usize>)>,
}

impl NameBucket {
    /// The child keyed `[@attr='value']`, keying `fresh` there first
    /// when there is none.
    fn child_for(&mut self, attr: NameId, value: &str, fresh: usize) -> usize {
        if !self.by_attr.iter().any(|(a, _)| *a == attr) {
            self.by_attr.reserve_exact(1);
            self.by_attr.push((attr, HashMap::new()));
        }
        let (_, values) = self.by_attr.iter_mut().find(|(a, _)| *a == attr).expect("keyed above");
        if let Some(&child) = values.get(value) {
            return child;
        }
        values.insert(value.into(), fresh);
        fresh
    }
}

/// One trie node: outgoing edges plus the registrations whose spine
/// terminates here (indices into the owning coverage map's entry list).
#[derive(Debug, Clone, Default)]
struct TrieNode {
    children: HashMap<(NameId, bool), NameBucket>,
    entries: Vec<usize>,
}

/// The coverage trie. `nodes[0]` is the root (the document node).
#[derive(Debug, Clone)]
pub(crate) struct CoverageTrie {
    nodes: Vec<TrieNode>,
    /// Entries whose path leaves the core fragment — always candidates.
    fallback: Vec<usize>,
}

impl Default for CoverageTrie {
    fn default() -> Self {
        CoverageTrie { nodes: vec![TrieNode::default()], fallback: Vec::new() }
    }
}

impl CoverageTrie {
    /// Inserts entry `idx` under `path`'s spine (or the wildcard bucket
    /// when the path does not compile to one).
    pub(crate) fn insert(&mut self, path: &Path, idx: usize) {
        let Some(compiled) = InternedPath::compile(path) else {
            self.fallback.push(idx);
            return;
        };
        let mut node = 0usize;
        for step in &compiled.steps {
            let fresh = self.nodes.len();
            let bucket = self.nodes[node].children.entry((step.name, step.attribute)).or_default();
            node = match step.pred_key {
                None => *bucket.bare.get_or_insert(fresh),
                Some((a, v)) => bucket.child_for(a, v, fresh),
            };
            if node == fresh {
                self.nodes.push(TrieNode::default());
            }
        }
        self.nodes[node].entries.push(idx);
    }

    /// Collects into `walk.candidates` every entry index that can
    /// possibly cover or overlap `request` (a sorted, deduplicated
    /// superset), working in `walk`'s buffers. Returns `false` when the
    /// request leaves the core fragment — the caller must fall back to
    /// the naive scan.
    pub(crate) fn candidates(&self, request: &Path, walk: &mut TrieWalk) -> bool {
        let TrieWalk { candidates: out, frontier, next } = walk;
        out.clear();
        frontier.clear();
        if !request.is_core_fragment() {
            return false;
        }
        out.extend_from_slice(&self.fallback);
        out.extend_from_slice(&self.nodes[0].entries);
        frontier.push(0);
        let mut full_walk = true;
        for step in &request.steps {
            let NameTest::Name(name) = &step.test else {
                // Core-fragment paths carry no wildcards; should one
                // slip through, the naive scan still answers exactly.
                return false;
            };
            let Some(name_id) = NameInterner::lookup(name) else {
                // Never-interned name: no registered spine goes deeper.
                full_walk = false;
                break;
            };
            let key = (name_id, step.axis == Axis::Attribute);
            next.clear();
            for &node in frontier.iter() {
                let Some(bucket) = self.nodes[node].children.get(&key) else { continue };
                if let Some(bare) = bucket.bare {
                    next.push(bare);
                }
                for (attr, values) in &bucket.by_attr {
                    // An edge keyed `[@a='w']` survives only if the
                    // request step either pins a to w or does not pin a
                    // at all (then they may still overlap).
                    let mut pinned = false;
                    for p in &step.predicates {
                        if let Predicate::AttrEq(a, v) = p {
                            if NameInterner::lookup(a) == Some(*attr) {
                                pinned = true;
                                if let Some(&child) = values.get(v.as_str()) {
                                    next.push(child);
                                }
                            }
                        }
                    }
                    if !pinned {
                        next.extend(values.values().copied());
                    }
                }
            }
            std::mem::swap(frontier, next);
            if frontier.is_empty() {
                full_walk = false;
                break;
            }
            for &node in frontier.iter() {
                out.extend_from_slice(&self.nodes[node].entries);
            }
        }
        if full_walk {
            // Registrations strictly below the request's spine are the
            // partial-overlap candidates (Fig. 9 split sources). The
            // frontier becomes the depth-first stack.
            while let Some(node) = frontier.pop() {
                for bucket in self.nodes[node].children.values() {
                    if let Some(bare) = bucket.bare {
                        out.extend_from_slice(&self.nodes[bare].entries);
                        frontier.push(bare);
                    }
                    for (_, values) in &bucket.by_attr {
                        for &child in values.values() {
                            out.extend_from_slice(&self.nodes[child].entries);
                            frontier.push(child);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        true
    }
}

/// The buffers a trie walk works in. The caller owns them and hands
/// the same ones to every walk, so a warm walk allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TrieWalk {
    /// The last walk's result: candidate entry indices, sorted and
    /// deduplicated.
    pub(crate) candidates: Vec<usize>,
    /// The trie nodes the walk has reached, then its depth-first stack.
    frontier: Vec<usize>,
    /// The nodes one step further down, while a step is walked.
    next: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn cands(trie: &CoverageTrie, req: &str) -> Option<Vec<usize>> {
        let mut walk = TrieWalk::default();
        trie.candidates(&p(req), &mut walk).then_some(walk.candidates)
    }

    #[test]
    fn point_lookup_prunes_predicate_siblings() {
        let mut trie = CoverageTrie::default();
        for i in 0..100 {
            trie.insert(&p(&format!("/user[@id='u']/address-book/item[@id='{i}']")), i);
        }
        trie.insert(&p("/user[@id='u']/address-book"), 100);
        let got = cands(&trie, "/user[@id='u']/address-book/item[@id='42']").unwrap();
        // The pinned edge, plus the bare address-book ancestor.
        assert_eq!(got, vec![42, 100]);
    }

    #[test]
    fn bare_request_collects_the_subtree() {
        let mut trie = CoverageTrie::default();
        trie.insert(&p("/user/address-book/item[@type='personal']"), 0);
        trie.insert(&p("/user/address-book/item[@type='corporate']"), 1);
        trie.insert(&p("/user/presence"), 2);
        let got = cands(&trie, "/user/address-book").unwrap();
        assert_eq!(got, vec![0, 1]);
        let got = cands(&trie, "/user/presence").unwrap();
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn unpinned_attr_keeps_all_values() {
        let mut trie = CoverageTrie::default();
        trie.insert(&p("/u/item[@type='a']/x"), 0);
        trie.insert(&p("/u/item[@type='b']/x"), 1);
        // Request pins a DIFFERENT attribute: type-edges both survive.
        let got = cands(&trie, "/u/item[@kind='z']/x").unwrap();
        assert_eq!(got, vec![0, 1]);
        // Request pins type: only the matching edge survives.
        let got = cands(&trie, "/u/item[@type='b']/x").unwrap();
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn wildcard_registrations_always_candidates() {
        let mut trie = CoverageTrie::default();
        trie.insert(&p("//item"), 0);
        trie.insert(&p("/u/presence"), 1);
        assert_eq!(trie.fallback.len(), 1);
        let got = cands(&trie, "/u/calendar").unwrap();
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn wildcard_request_falls_back() {
        let mut trie = CoverageTrie::default();
        trie.insert(&p("/u/presence"), 0);
        assert!(cands(&trie, "//presence").is_none());
        assert!(cands(&trie, "/u/*").is_none());
    }

    #[test]
    fn unknown_name_stops_the_walk_but_keeps_ancestors() {
        let mut trie = CoverageTrie::default();
        trie.insert(&p("/u"), 0);
        let got = cands(&trie, "/u/never-registered-name-qq/deeper").unwrap();
        assert_eq!(got, vec![0], "shorter registration still covers");
    }

    #[test]
    fn attribute_axis_is_a_distinct_edge() {
        let mut trie = CoverageTrie::default();
        trie.insert(&p("/u/item/@ref"), 0);
        trie.insert(&p("/u/item/ref"), 1);
        assert_eq!(cands(&trie, "/u/item/@ref").unwrap(), vec![0]);
        assert_eq!(cands(&trie, "/u/item/ref").unwrap(), vec![1]);
    }
}
