//! The per-user coverage trie: the indexed fast path behind
//! [`crate::CoverageMap::match_request`].
//!
//! Registered component paths are laid out as a trie keyed by step
//! names interned in `gupster-xml`'s process-wide name table. An edge
//! is keyed `(name NameId, attribute-axis?)` and splits further on the
//! step's first `[@attr='value']` predicate: a predicate-less step takes
//! the *bare* edge (the wildcard edge of a name — such registrations can
//! match any predicate the request carries), and a predicated step the
//! edge keyed by its `(attr NameId, value)` pair, so point lookups like
//! `item[@id='4711']` touch exactly one edge out of 100k siblings. The
//! value is user data, not a name: the trie keeps it in its own value
//! buffer, and nothing process-wide ever sees it.
//!
//! The trie is flat: one node table (per node, the registrations whose
//! spine ends there), one edge table sorted by `(parent, name,
//! attribute axis, predicate attribute, value)` and searched by binary
//! search, and one buffer of predicate values. A new edge shifts the
//! edges sorted after it. Values sort by length, then bytes, so ids
//! registered in ascending order (`item[@id='9']` before
//! `item[@id='10']`) append to their sibling run, and a million of them
//! register in linear time.
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

use std::cmp::Ordering;

use gupster_xml::{NameId, NameInterner};
use gupster_xpath::{Axis, InternedPath, InternedStep, NameTest, Path, Predicate};

/// "No entry" in the node and chain tables.
const NONE: u32 = u32::MAX;

/// One edge: from `parent` over a step named `name`, bare or keyed by
/// its first `[@attr='value']` predicate, to `child`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    parent: u32,
    name: NameId,
    /// True for an attribute-axis step.
    attribute: bool,
    /// The predicate's attribute; `None` on a bare edge.
    attr: Option<NameId>,
    /// The predicate's value: `values[start..start + len]`, empty on a
    /// bare edge.
    start: u32,
    len: u32,
    child: u32,
}

/// The coverage trie. Node 0 is the root (the document node).
#[derive(Debug, Clone)]
pub(crate) struct CoverageTrie {
    /// Per node, the last entry inserted whose spine ends there.
    ends: Vec<u32>,
    /// Per entry, the entry inserted before it at the same node: each
    /// node's entries are a chain through this table.
    earlier: Vec<u32>,
    /// Every edge, sorted by parent, name, axis, predicate attribute
    /// (bare first) and value (by [`shortlex`]).
    edges: Vec<Edge>,
    /// The predicate values of the edges, back to back.
    values: String,
    /// Entries whose path leaves the core fragment — always candidates.
    fallback: Vec<u32>,
}

impl Default for CoverageTrie {
    fn default() -> Self {
        CoverageTrie {
            ends: vec![NONE],
            earlier: Vec::new(),
            edges: Vec::new(),
            values: String::new(),
            fallback: Vec::new(),
        }
    }
}

/// Orders predicate values by length, then bytes.
fn shortlex(a: &[u8], b: &[u8]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// `n` as a row of the trie's tables, which stay below `NONE` rows.
fn row(n: usize) -> u32 {
    let r = u32::try_from(n).ok().filter(|&r| r != NONE);
    r.expect("a trie table holds fewer than 2^32 - 1 rows")
}

impl CoverageTrie {
    fn value(&self, e: &Edge) -> &[u8] {
        &self.values.as_bytes()[e.start as usize..(e.start + e.len) as usize]
    }

    /// Where the edge for `step` out of `node` is, or would go.
    fn search(&self, node: u32, step: &InternedStep<'_>) -> Result<usize, usize> {
        let (attr, value) = step.pred_key.map_or((None, ""), |(a, v)| (Some(a), v));
        let probe = (node, step.name, step.attribute, attr);
        self.edges.binary_search_by(|e| {
            (e.parent, e.name, e.attribute, e.attr)
                .cmp(&probe)
                .then_with(|| shortlex(self.value(e), value.as_bytes()))
        })
    }

    /// The edges out of `node`.
    fn out_of(&self, node: u32) -> &[Edge] {
        let from = self.edges.partition_point(|e| e.parent < node);
        let to = from + self.edges[from..].partition_point(|e| e.parent == node);
        &self.edges[from..to]
    }

    /// The edges out of `node` for steps named `name` on one axis.
    fn named(&self, node: u32, name: NameId, attribute: bool) -> &[Edge] {
        let out = self.out_of(node);
        let from = out.partition_point(|e| (e.name, e.attribute) < (name, attribute));
        let to = from + out[from..].partition_point(|e| (e.name, e.attribute) == (name, attribute));
        &out[from..to]
    }

    /// Appends the entries whose spine ends at `node` to `out`.
    fn ends_at(&self, node: u32, out: &mut Vec<usize>) {
        let mut idx = self.ends[node as usize];
        while idx != NONE {
            out.push(idx as usize);
            idx = self.earlier[idx as usize];
        }
    }

    /// Inserts entry `idx` under `path`'s spine (or the wildcard bucket
    /// when the path does not compile to one).
    pub(crate) fn insert(&mut self, path: &Path, idx: usize) {
        let idx = row(idx);
        let Some(compiled) = InternedPath::compile(path) else {
            self.fallback.push(idx);
            return;
        };
        let mut node = 0u32;
        for step in &compiled.steps {
            node = match self.search(node, step) {
                Ok(at) => self.edges[at].child,
                Err(at) => {
                    let child = row(self.ends.len());
                    self.ends.push(NONE);
                    let (attr, value) = step.pred_key.map_or((None, ""), |(a, v)| (Some(a), v));
                    let start = row(self.values.len());
                    self.values.push_str(value);
                    let len = row(value.len());
                    let (name, attribute) = (step.name, step.attribute);
                    let edge = Edge { parent: node, name, attribute, attr, start, len, child };
                    self.edges.insert(at, edge);
                    child
                }
            };
        }
        let slot = idx as usize;
        if self.earlier.len() <= slot {
            self.earlier.resize(slot + 1, NONE);
        }
        self.earlier[slot] = self.ends[node as usize];
        self.ends[node as usize] = idx;
    }

    /// The first entry `is` accepts among those whose registered path
    /// compiles to `path`'s spine (or, for a path outside the core
    /// fragment, the wildcard bucket's): the only entries that can hold
    /// `path` itself. Nothing is inserted.
    pub(crate) fn find(&self, path: &Path, mut is: impl FnMut(usize) -> bool) -> Option<usize> {
        if !path.is_core_fragment() {
            return self.fallback.iter().map(|&i| i as usize).find(|&i| is(i));
        }
        // A name never interned is on no registered spine; compiling
        // would intern it.
        let compiled = InternedPath::lookup(path)?;
        let mut node = 0u32;
        for step in &compiled.steps {
            node = self.edges[self.search(node, step).ok()?].child;
        }
        let mut idx = self.ends[node as usize];
        while idx != NONE {
            if is(idx as usize) {
                return Some(idx as usize);
            }
            idx = self.earlier[idx as usize];
        }
        None
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
        out.extend(self.fallback.iter().map(|&i| i as usize));
        self.ends_at(0, out);
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
            next.clear();
            for &node in frontier.iter() {
                // Bare first, then one run per predicate attribute.
                let mut rest = self.named(node, name_id, step.axis == Axis::Attribute);
                while let Some(first) = rest.first() {
                    let run = rest.partition_point(|e| e.attr == first.attr);
                    let (group, tail) = rest.split_at(run);
                    rest = tail;
                    let Some(attr) = first.attr else {
                        // The bare edge is always a candidate.
                        next.extend(group.iter().map(|e| e.child));
                        continue;
                    };
                    // An edge keyed `[@a='w']` survives only if the
                    // request step either pins a to w or does not pin a
                    // at all (then they may still overlap).
                    let mut pinned = false;
                    for p in &step.predicates {
                        if let Predicate::AttrEq(a, v) = p {
                            if NameInterner::lookup(a) == Some(attr) {
                                pinned = true;
                                let found = group
                                    .binary_search_by(|e| shortlex(self.value(e), v.as_bytes()));
                                if let Ok(at) = found {
                                    next.push(group[at].child);
                                }
                            }
                        }
                    }
                    if !pinned {
                        next.extend(group.iter().map(|e| e.child));
                    }
                }
            }
            std::mem::swap(frontier, next);
            if frontier.is_empty() {
                full_walk = false;
                break;
            }
            for &node in frontier.iter() {
                self.ends_at(node, out);
            }
        }
        if full_walk {
            // Registrations strictly below the request's spine are the
            // partial-overlap candidates (Fig. 9 split sources). The
            // frontier becomes the depth-first stack.
            while let Some(node) = frontier.pop() {
                for e in self.out_of(node) {
                    self.ends_at(e.child, out);
                    frontier.push(e.child);
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
    frontier: Vec<u32>,
    /// The nodes one step further down, while a step is walked.
    next: Vec<u32>,
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
    fn ascending_ids_append_and_point_lookups_find_them() {
        let mut trie = CoverageTrie::default();
        for i in 0..200 {
            trie.insert(&p(&format!("/u/item[@id='{i}']")), i);
        }
        // Shortlex value order is numeric order here, so every edge went
        // to the end of the table.
        let children: Vec<u32> = trie.edges.iter().map(|e| e.child).collect();
        assert!(children.windows(2).all(|w| w[0] < w[1]), "{children:?}");
        for i in [0, 9, 10, 99, 100, 199] {
            assert_eq!(cands(&trie, &format!("/u/item[@id='{i}']")).unwrap(), vec![i]);
        }
        assert_eq!(cands(&trie, "/u/item[@id='200']").unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn find_looks_only_where_the_spine_ends() {
        let mut trie = CoverageTrie::default();
        // Same spine: only the first `[@attr='value']` keys an edge.
        trie.insert(&p("/u[@id='a']/presence"), 0);
        trie.insert(&p("/u[@id='a'][@x='1']/presence"), 1);
        trie.insert(&p("//presence"), 2);
        trie.insert(&p("/u[@id='b']/presence"), 3);
        let mut seen = Vec::new();
        let found = trie.find(&p("/u[@id='a']/presence"), |i| {
            seen.push(i);
            i == 0
        });
        assert_eq!(found, Some(0));
        assert_eq!(seen, vec![1, 0], "the node's entries, newest first");
        assert_eq!(trie.find(&p("//presence"), |i| i == 2), Some(2));
        assert_eq!(trie.find(&p("/u[@id='c']/presence"), |_| true), None);
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
