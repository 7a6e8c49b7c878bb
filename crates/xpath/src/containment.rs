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

use crate::ast::{is_core_fragment, targets_attribute, Axis, LocStep, Path};

/// Node-set containment: `p ⊑ q` — every node selected by `p` (in every
/// document) is also selected by `q`.
pub fn contains(p: &Path, q: &Path) -> bool {
    contains_steps(&p.steps, &q.steps)
}

/// [`contains`] on borrowed step slices.
///
/// The alignment DP asks, for each prefix of `q`, which prefixes of `p`
/// it can map onto with `q`'s last step landing on `p`'s last. Only the
/// previous row is ever read, so the table is one bit row: bit `j` set
/// means `q`'s steps so far map onto `p`'s first `j` steps (bit 0 is the
/// document-node anchor). The row is a single `u128` on the stack for
/// `p` of at most 127 steps and spills to the heap beyond that.
fn contains_steps(p: &[LocStep], q: &[LocStep]) -> bool {
    // Attribute targeting must agree: an attribute-step path selects
    // owner elements of attributes; mixing the two kinds is never a
    // containment in our semantics unless both target attributes with
    // subsuming tests, or neither does.
    if targets_attribute(p) != targets_attribute(q) {
        return false;
    }
    if q.is_empty() {
        // "/" selects only the document node: contains p iff p is "/".
        return p.is_empty();
    }
    if p.is_empty() {
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
    for qs in q {
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
                let ps = &p[j - 1];
                if (qs.axis == Axis::Descendant || ps.axis != Axis::Descendant)
                    && step_subsumes(qs, ps)
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

/// True if every predicate required by `q_step` is implied by `p_step`'s
/// predicates and `q_step`'s name test subsumes `p_step`'s.
fn step_subsumes(q_step: &LocStep, p_step: &LocStep) -> bool {
    if q_step.axis == Axis::Attribute && p_step.axis != Axis::Attribute {
        return false;
    }
    if q_step.axis != Axis::Attribute && p_step.axis == Axis::Attribute {
        return false;
    }
    if !q_step.test.subsumes(&p_step.test) {
        return false;
    }
    q_step
        .predicates
        .iter()
        .all(|qp| p_step.predicates.iter().any(|pp| qp.implied_by(pp)))
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
    covers_steps(&c.steps, &r.steps)
}

/// [`covers`] on borrowed step slices: `r`'s prefix is tested in place.
fn covers_steps(c: &[LocStep], r: &[LocStep]) -> bool {
    if contains_steps(r, c) {
        // r's nodes ⊆ c's nodes ⊆ subtrees of c's nodes.
        return true;
    }
    if targets_attribute(c) {
        // An attribute subtree is just the attribute; only exact
        // containment (handled above) counts.
        return false;
    }
    // Core-fragment prefix check: r = c' · suffix where c' ⊑ c.
    if !is_core_fragment(c) {
        return false;
    }
    let Some(prefix) = r.get(..c.len()) else { return false };
    if prefix.iter().any(|s| s.axis == Axis::Descendant) {
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
    let (a, b) = (&a.steps[..], &b.steps[..]);
    if covers_steps(a, b) || covers_steps(b, a) {
        return true;
    }
    // If either path leaves the core fragment, stay conservative.
    if !is_core_fragment(a) || !is_core_fragment(b) {
        return true;
    }
    // Core fragment: subtrees intersect iff the shorter path's chain is
    // step-compatible with the longer's prefix.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short.iter().zip(long).all(|(s, l)| step_compatible(s, l))
}

fn step_compatible(a: &LocStep, b: &LocStep) -> bool {
    if (a.axis == Axis::Attribute) != (b.axis == Axis::Attribute) {
        return false;
    }
    if !a.test.compatible(&b.test) {
        return false;
    }
    a.predicates
        .iter()
        .all(|pa| b.predicates.iter().all(|pb| pa.compatible(pb)))
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
