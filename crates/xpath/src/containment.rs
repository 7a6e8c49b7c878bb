//! Containment and overlap for the coverage language.
//!
//! The registry must decide, for a request path `r` and a registered
//! coverage path `c`, whether the store behind `c` (which holds the
//! *subtrees* rooted at the nodes `c` selects) can serve `r`:
//!
//! * [`contains`]`(p, q)` — node-set containment `p ⊑ q`: every node
//!   selected by `p` in any document is also selected by `q`. Decided by
//!   a homomorphism (alignment) search in the Deutsch–Tannen /
//!   Miklau–Suciu style. Sound always; complete on the paper's §4.5 core
//!   fragment (child + attribute axes, no wildcard interaction with `//`).
//! * [`covers`]`(c, r)` — subtree coverage: every node selected by `r`
//!   lies within the subtree of some node selected by `c`. This is the
//!   "store fully answers the request" test.
//! * [`may_overlap`]`(a, b)` — subtree intersection: the subtrees rooted
//!   at `a`-nodes and `b`-nodes may share nodes in some document. This is
//!   the "store holds *part* of the answer" test; conservative `true`
//!   when undecided, which only costs a spurious referral.
//!
//! [`covers_view`] and [`may_overlap_view`] decide the same over a
//! [`PathView`], which can read a request as a per-owner rule set does:
//! without the user-id predicates of its first step.

use crate::ast::{is_core_fragment, targets_attribute, Axis, LocStep, Path, Predicate};

/// A borrowed path as the containment tests read it: its steps, and
/// whether the `[@id]` / `[@id='…']` predicates of the first step count.
#[derive(Debug, Clone, Copy)]
pub struct PathView<'a> {
    steps: &'a [LocStep],
    owner_free: bool,
}

impl<'a> PathView<'a> {
    /// `path` as written.
    pub fn of(path: &'a Path) -> Self {
        PathView { steps: &path.steps, owner_free: false }
    }

    /// `path` read without the `[@id]` / `[@id='…']` predicates of its
    /// first step: how a per-owner rule set, whose scopes leave the
    /// owner implicit, reads a request that names it.
    pub fn owner_free(path: &'a Path) -> Self {
        PathView { steps: &path.steps, owner_free: true }
    }

    /// The path this view reads, built: a copy of the steps, less the
    /// first step's user-id predicates when the view ignores them.
    pub fn to_path(self) -> Path {
        let mut steps = self.steps.to_vec();
        if let (true, Some(first)) = (self.owner_free, steps.first_mut()) {
            first.predicates.retain(|p| !is_user_id(p));
        }
        Path { steps }
    }

    fn len(self) -> usize {
        self.steps.len()
    }

    /// The first `n` steps, read the same way.
    fn prefix(self, n: usize) -> Option<Self> {
        Some(PathView { steps: self.steps.get(..n)?, ..self })
    }

    /// The predicates of step `i` that count.
    fn predicates(self, i: usize) -> impl Iterator<Item = &'a Predicate> + Clone {
        let skip = self.owner_free && i == 0;
        self.steps[i].predicates.iter().filter(move |p| !(skip && is_user_id(p)))
    }
}

/// `[@id]` or `[@id='…']`: the predicates that name a profile's owner.
fn is_user_id(p: &Predicate) -> bool {
    matches!(p, Predicate::AttrEq(a, _) | Predicate::AttrExists(a) if a == "id")
}

/// Node-set containment: `p ⊑ q` — every node selected by `p` (in every
/// document) is also selected by `q`.
pub fn contains(p: &Path, q: &Path) -> bool {
    contains_steps(PathView::of(p), PathView::of(q))
}

/// [`contains`] on path views.
///
/// The alignment DP asks, for each prefix of `q`, which prefixes of `p`
/// it can map onto with `q`'s last step landing on `p`'s last. Only the
/// previous row is ever read, so the table is one bit row: bit `j` set
/// means `q`'s steps so far map onto `p`'s first `j` steps (bit 0 is the
/// document-node anchor). The row is a single `u128` on the stack for
/// `p` of at most 127 steps and spills to the heap beyond that.
fn contains_steps(p: PathView, q: PathView) -> bool {
    // Attribute targeting must agree: an attribute-step path selects
    // owner elements of attributes; mixing the two kinds is never a
    // containment in our semantics unless both target attributes with
    // subsuming tests, or neither does.
    if targets_attribute(p.steps) != targets_attribute(q.steps) {
        return false;
    }
    if q.steps.is_empty() {
        // "/" selects only the document node: contains p iff p is "/".
        return p.steps.is_empty();
    }
    if p.steps.is_empty() {
        // p selects only the document node; q selects elements.
        return false;
    }
    let np = p.len();
    let mut inline = [0u128; 1];
    let mut spilled;
    let row: &mut [u128] = if np < 128 {
        &mut inline
    } else {
        spilled = vec![0u128; np / 128 + 1];
        &mut spilled
    };
    row[0] = 1; // the document-node anchor
    for (qi, qs) in q.steps.iter().enumerate() {
        match qs.axis {
            // Must advance exactly one edge, and that edge in p must
            // also be a single level (child/attribute).
            Axis::Child | Axis::Attribute => shift_up(row),
            // May consume one or more edges in p.
            Axis::Descendant => above_lowest(row),
        }
        let mut live = false;
        for (w, word) in row.iter_mut().enumerate() {
            let mut bits = *word;
            let mut keep = 0u128;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let j = w * 128 + b as usize;
                if j > np {
                    break;
                }
                // j ≥ 1: both moves above leave bit 0 clear.
                let ps = &p.steps[j - 1];
                if (qs.axis == Axis::Descendant || ps.axis != Axis::Descendant)
                    && step_subsumes((q, qi), (p, j - 1))
                {
                    keep |= 1u128 << b;
                }
            }
            *word = keep;
            live |= keep != 0;
        }
        if !live {
            return false;
        }
    }
    row[np / 128] & (1u128 << (np % 128)) != 0
}

/// Moves every bit of the row one position up: `j` → `j + 1`.
fn shift_up(row: &mut [u128]) {
    let mut carry = 0;
    for word in row {
        let next = *word >> 127;
        *word = (*word << 1) | carry;
        carry = next;
    }
}

/// Sets exactly the bits strictly above the row's lowest set bit (an
/// empty row stays empty): `j` is reachable from any `j0 < j`.
fn above_lowest(row: &mut [u128]) {
    let Some(first) = row.iter().position(|&w| w != 0) else { return };
    let low = row[first] & row[first].wrapping_neg();
    row[first] = !(low | (low - 1));
    for word in &mut row[first + 1..] {
        *word = u128::MAX;
    }
}

/// True if every predicate of `q`'s step `qi` that counts is implied by
/// one of `p`'s step `pi`, and the first step's name test subsumes the
/// second's.
fn step_subsumes((q, qi): (PathView, usize), (p, pi): (PathView, usize)) -> bool {
    let (q_step, p_step) = (&q.steps[qi], &p.steps[pi]);
    if q_step.axis == Axis::Attribute && p_step.axis != Axis::Attribute {
        return false;
    }
    if q_step.axis != Axis::Attribute && p_step.axis == Axis::Attribute {
        return false;
    }
    if !q_step.test.subsumes(&p_step.test) {
        return false;
    }
    let held = p.predicates(pi);
    q.predicates(qi).all(|qp| held.clone().any(|pp| qp.implied_by(pp)))
}

/// Subtree coverage: every node selected by `r` lies in the subtree of
/// some node selected by `c`. Used to decide that a data store registered
/// under coverage `c` can *fully* answer request `r`.
///
/// Complete for the core fragment; for paths with `//`/`*` it falls back
/// to plain containment of `r`'s prefix where possible and otherwise
/// answers `false` (the registry then treats the store as a partial
/// source via [`may_overlap`]).
pub fn covers(c: &Path, r: &Path) -> bool {
    covers_view(PathView::of(c), PathView::of(r))
}

/// [`covers`] on path views: `r`'s prefix is tested in place.
pub fn covers_view(c: PathView, r: PathView) -> bool {
    if contains_steps(r, c) {
        // r's nodes ⊆ c's nodes ⊆ subtrees of c's nodes.
        return true;
    }
    if targets_attribute(c.steps) {
        // An attribute subtree is just the attribute; only exact
        // containment (handled above) counts.
        return false;
    }
    // Core-fragment prefix check: r = c' · suffix where c' ⊑ c.
    if !is_core_fragment(c.steps) {
        return false;
    }
    let Some(prefix) = r.prefix(c.len()) else { return false };
    if prefix.steps.iter().any(|s| s.axis == Axis::Descendant) {
        // A descendant edge inside the prefix could escape c's subtree
        // only if it matched *above* c's depth; since lengths ≥ cl and
        // every descendant edge consumes ≥1 level, the prefix of r
        // reaches at least depth cl. But its nodes need not be under a
        // c-node. Be conservative.
        return false;
    }
    contains_steps(prefix, c)
}

/// Subtree intersection: can a document contain a node that lies both in
/// the subtree of an `a`-node and of a `b`-node? Equivalently (for
/// chains): is one of the paths' node sets reachable as ancestor-or-self
/// of the other's? Conservative: `true` when undecidable syntactically.
pub fn may_overlap(a: &Path, b: &Path) -> bool {
    may_overlap_view(PathView::of(a), PathView::of(b))
}

/// [`may_overlap`] on path views.
pub fn may_overlap_view(a: PathView, b: PathView) -> bool {
    if covers_view(a, b) || covers_view(b, a) {
        return true;
    }
    // If either path leaves the core fragment, stay conservative.
    if !is_core_fragment(a.steps) || !is_core_fragment(b.steps) {
        return true;
    }
    // Core fragment: subtrees intersect iff the shorter path's chain is
    // step-compatible with the longer's prefix.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    (0..short.len()).all(|i| step_compatible((short, i), (long, i)))
}

/// True if step `ai` of `a` and step `bi` of `b` can select one node.
fn step_compatible((a, ai): (PathView, usize), (b, bi): (PathView, usize)) -> bool {
    let (a_step, b_step) = (&a.steps[ai], &b.steps[bi]);
    if (a_step.axis == Axis::Attribute) != (b_step.axis == Axis::Attribute) {
        return false;
    }
    if !a_step.test.compatible(&b_step.test) {
        return false;
    }
    let theirs = b.predicates(bi);
    a.predicates(ai).all(|pa| theirs.clone().all(|pb| pa.compatible(pb)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn reflexive() {
        for s in ["/user/book", "/user[@id='a']/book/item[@type='x']", "//item", "/"] {
            assert!(contains(&p(s), &p(s)), "{s} ⊑ {s}");
        }
    }

    #[test]
    fn predicate_weakening() {
        // More predicates ⇒ fewer nodes ⇒ contained in the weaker path.
        assert!(contains(&p("/user[@id='a']/book"), &p("/user/book")));
        assert!(!contains(&p("/user/book"), &p("/user[@id='a']/book")));
        assert!(contains(&p("/user[@id='a']/book"), &p("/user[@id]/book")));
        assert!(!contains(&p("/user[@id]/book"), &p("/user[@id='a']/book")));
        assert!(contains(&p("/b/i[name='x']"), &p("/b/i[name]")));
    }

    #[test]
    fn different_names_not_contained() {
        assert!(!contains(&p("/user/book"), &p("/user/calendar")));
        assert!(!contains(&p("/user"), &p("/user/book")));
        assert!(!contains(&p("/user/book"), &p("/user")));
    }

    #[test]
    fn wildcard_subsumption() {
        assert!(contains(&p("/user/book"), &p("/user/*")));
        assert!(contains(&p("/user/book"), &p("/*/*")));
        assert!(!contains(&p("/user/*"), &p("/user/book")));
    }

    #[test]
    fn descendant_subsumption() {
        assert!(contains(&p("/user/book/item"), &p("//item")));
        assert!(contains(&p("/user/book/item"), &p("/user//item")));
        assert!(contains(&p("//book/item"), &p("//item")));
        assert!(!contains(&p("//item"), &p("/user/book/item")));
        // Child in q requires single level in p.
        assert!(!contains(&p("/user//item"), &p("/user/item")));
        assert!(contains(&p("/user/book"), &p("//book")));
        // Descendant in q may span several child edges in p.
        assert!(contains(&p("/a/b/c/d"), &p("/a//d")));
        assert!(contains(&p("/a/b/c/d"), &p("//b//d")));
        assert!(!contains(&p("/a/b"), &p("/a//b/c")));
    }

    #[test]
    fn attribute_paths() {
        assert!(contains(&p("/user/@id"), &p("/user/@id")));
        assert!(!contains(&p("/user/@id"), &p("/user/@name")));
        assert!(!contains(&p("/user/@id"), &p("/user")));
        assert!(!contains(&p("/user"), &p("/user/@id")));
        assert!(contains(&p("/user[@x='1']/@id"), &p("/user/@id")));
    }

    #[test]
    fn paper_coverage_scenario() {
        // Fig. 9: request for the whole address book; stores hold the
        // personal and corporate splits.
        let request = p("/user[@id='arnaud']/address-book");
        let yahoo = p("/user[@id='arnaud']/address-book/item[@type='personal']");
        let lucent = p("/user[@id='arnaud']/address-book/item[@type='corporate']");
        // Neither split fully covers the request…
        assert!(!covers(&yahoo, &request));
        assert!(!covers(&lucent, &request));
        // …but both overlap it, so both referrals are returned.
        assert!(may_overlap(&yahoo, &request));
        assert!(may_overlap(&lucent, &request));
        // A request *for* the personal split is fully covered by Yahoo!.
        let personal_req = p("/user[@id='arnaud']/address-book/item[@type='personal']");
        assert!(covers(&yahoo, &personal_req));
        assert!(!covers(&lucent, &personal_req));
    }

    #[test]
    fn covers_prefix_semantics() {
        // The store registered at /user/address-book holds the whole
        // book subtree, so it covers any deeper request.
        let c = p("/user[@id='a']/address-book");
        assert!(covers(&c, &p("/user[@id='a']/address-book/item[@type='x']/name")));
        assert!(covers(&c, &p("/user[@id='a']/address-book")));
        assert!(!covers(&c, &p("/user[@id='b']/address-book")));
        assert!(!covers(&c, &p("/user[@id='a']/presence")));
        // Requests *above* the coverage are not fully covered.
        assert!(!covers(&c, &p("/user[@id='a']")));
    }

    #[test]
    fn overlap_of_disjoint_predicates() {
        let a = p("/u/book/item[@type='personal']");
        let b = p("/u/book/item[@type='corporate']");
        assert!(!may_overlap(&a, &b));
        let c = p("/u/book/item");
        assert!(may_overlap(&a, &c));
    }

    #[test]
    fn overlap_prefix_chains() {
        assert!(may_overlap(&p("/u"), &p("/u/book/item")));
        assert!(may_overlap(&p("/u/book/item"), &p("/u")));
        assert!(!may_overlap(&p("/u/book"), &p("/u/calendar")));
        assert!(!may_overlap(&p("/u[@id='x']/book"), &p("/u[@id='y']/book")));
    }

    #[test]
    fn overlap_conservative_on_descendant() {
        // Undecided syntactically → conservative true.
        assert!(may_overlap(&p("//item"), &p("/u/book/item")));
        assert!(may_overlap(&p("//a"), &p("//b")));
    }

    /// An owner-free view ignores `[@id]` and `[@id='…']` on the first
    /// step only, and keeps every other predicate.
    #[test]
    fn owner_free_views_ignore_the_first_steps_user_id_only() {
        let request = p("/user[@id='a'][@k='x']/book/item[@id='7']");
        let free = PathView::owner_free(&request);
        assert_eq!(free.to_path(), p("/user[@k='x']/book/item[@id='7']"));
        assert_eq!(PathView::of(&request).to_path(), request);
        for (scope, covered) in [
            ("/user[@k='x']/book", true),
            ("/user[@id='a']/book", false),
            ("/user[@id]/book", false),
            ("/user[@k='y']/book", false),
            ("/user/book/item[@id='7']", true),
        ] {
            let scope = p(scope);
            assert_eq!(covers_view(PathView::of(&scope), free), covered, "{scope}");
            assert!(covers(&scope, &request) || !covered, "{scope}");
        }
        // Overlap reads the same way: a different owner id is no
        // contradiction once the request's own is ignored.
        let other = p("/user[@id='b']/book");
        assert!(!may_overlap(&other, &request));
        assert!(may_overlap_view(PathView::of(&other), free));
        assert!(may_overlap_view(PathView::owner_free(&other), free));
    }

    #[test]
    fn transitivity_spot_checks() {
        let a = p("/u[@id='1']/b[@k='2']/c");
        let b = p("/u[@id='1']/b/c");
        let c = p("/u/b/c");
        let d = p("//c");
        assert!(contains(&a, &b) && contains(&b, &c) && contains(&c, &d));
        assert!(contains(&a, &c) && contains(&a, &d) && contains(&b, &d));
    }
}
