//! Two-way sync sessions.

use std::cmp;
use std::fmt;

use gupster_xml::{merge_arena, ArenaDoc, EditOp, MergeKeys};

use crate::changelog::LogEntry;
use crate::delta::{DeltaCodec, TouchedIndex};
use crate::reconcile::ReconcilePolicy;
use crate::replica::{Doc, Replica};

/// Why a sync failed outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The replicas hold different components (root tags differ).
    ComponentMismatch(String, String),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::ComponentMismatch(a, b) => {
                write!(f, "cannot sync <{a}> with <{b}>")
            }
        }
    }
}

impl std::error::Error for SyncError {}

/// What a sync session did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Edits shipped first → second.
    pub shipped_to_second: usize,
    /// Edits shipped second → first.
    pub shipped_to_first: usize,
    /// Conflicting edit pairs detected.
    pub conflicts: usize,
    /// Conflicts where the first replica's edit won.
    pub first_wins: usize,
    /// Conflicts parked for the user (policy `Manual`): neither side
    /// applied either edit. The queue does not bind: the next session
    /// between the pair slow-syncs, settling each parked pair in the
    /// first replica's favour (see [`ReconcilePolicy::Manual`]).
    pub queued: Vec<(EditOp, EditOp)>,
    /// Edit pairs examined during conflict detection (`|a_new| × |b_new|`
    /// in [`two_way_sync`], the index candidates in
    /// [`crate::delta_two_way_sync`]) — the work the reconcile phase
    /// actually did.
    pub compared: usize,
    /// Whether the fast (log-based) path sufficed.
    pub fast_path: bool,
    /// Whether a slow sync (full-state) ran.
    pub slow_sync: bool,
    /// Whether the replicas ended byte-identical.
    pub converged: bool,
    /// Approximate bytes exchanged (ops on the fast path, documents on
    /// the slow path) — experiments compare this against whole-document
    /// shipping.
    pub bytes_exchanged: usize,
}

/// Runs a two-way synchronization between two replicas of the same
/// component.
///
/// Fast path: exchange the change-log suffixes past each side's anchors,
/// drop losing halves of conflicting pairs per the policy, apply. If the
/// anchors are inconsistent (a rebase happened), or applying diverged
/// (ops no longer fit the peer's state), fall back to a **slow sync**:
/// deep-merge both documents (union of entries; conflicting scalar
/// fields resolved per the policy by preferring the winning side's
/// document order) and rebase both replicas on the result.
///
/// This is the reference session: it compares every pair of new ops,
/// frames each shipped op with its full path, and canonicalizes and
/// compares both documents every time.
/// [`crate::delta_two_way_sync`] runs the same session with a path
/// index and delta framing.
pub fn two_way_sync(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
) -> Result<SyncReport, SyncError> {
    run_session(a, b, policy, false)
}

/// The one session body behind [`two_way_sync`] and
/// [`crate::delta_two_way_sync`]. They differ only in what `delta`
/// switches on:
///
/// * the [`TouchedIndex`] lists, ascending, the second-side ops a
///   first-side target may conflict with, where the oracle lists every
///   op — a superset of the conflicting ones either way, so both
///   examine conflicts in the same `(i, j)` order;
/// * the [`DeltaCodec`] prices a shipped op, where the oracle frames
///   each op with its full path;
/// * the document walks are skipped where they cannot find anything. A
///   session with nothing to ship between replicas whose documents were
///   last found equal, with neither changed since
///   ([`Replica::known_equal`]), advances the anchors and reports
///   converged without a walk; otherwise a side is canonicalized only
///   if an op could have reordered it ([`Doc::is_ordered`]). The oracle
///   canonicalizes and compares in every session, so the differential
///   suites hold the memo to it.
///
/// Every comparison that finds the documents equal remembers their
/// stamps in both replicas' anchor entries for each other.
pub(crate) fn run_session(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
    delta: bool,
) -> Result<SyncReport, SyncError> {
    let (a_name, b_name) = (a.doc.name(a.doc.root()), b.doc.name(b.doc.root()));
    if a_name != b_name {
        return Err(SyncError::ComponentMismatch(a_name.to_string(), b_name.to_string()));
    }
    let mut report = SyncReport { fast_path: true, ..Default::default() };

    let anchors_ok =
        a.anchors.consistent_with(&b.id, b.log.head()) && b.anchors.consistent_with(&a.id, a.log.head());

    if anchors_ok {
        // Ship log suffixes past the peer's anchor, minus anything the
        // peer has already incorporated (hub relay would otherwise echo
        // a device's own edits back to it).
        let (a_new, b_new) = (unseen(a, b), unseen(b, a));
        if delta && a_new.is_empty() && b_new.is_empty() && a.known_equal(b) {
            a.anchors.advance(&b.id, b.log.head());
            b.anchors.advance(&a.id, a.log.head());
            report.converged = true;
            return Ok(report);
        }

        // Conflict detection: overlapping targets across the two sets.
        let index = delta.then(|| TouchedIndex::build(&b_new));
        let mut cands: Vec<usize> = Vec::new();
        let mut a_drop = vec![false; a_new.len()];
        let mut b_drop = vec![false; b_new.len()];
        for (i, ea) in a_new.iter().enumerate() {
            match &index {
                Some(index) => index.candidates(ea.op.target(), &mut cands),
                None => {
                    cands.clear();
                    cands.extend(0..b_new.len());
                }
            }
            report.compared += cands.len();
            for &j in &cands {
                let eb = &b_new[j];
                if ops_conflict(&ea.op, &eb.op, &a.keys) {
                    report.conflicts += 1;
                    match policy {
                        ReconcilePolicy::Manual => {
                            a_drop[i] = true;
                            b_drop[j] = true;
                            report.queued.push((ea.op.clone(), eb.op.clone()));
                        }
                        _ => {
                            if policy.first_wins(ea.timestamp, &ea.actor, eb.timestamp, &eb.actor) {
                                report.first_wins += 1;
                                b_drop[j] = true;
                            } else {
                                a_drop[i] = true;
                            }
                        }
                    }
                }
            }
        }

        // Price the surviving edits in shipping order (second → first,
        // then first → second), before they move: the codec borrows
        // their paths.
        let mut codec = DeltaCodec::default();
        let shipped = b_new.iter().zip(&b_drop).chain(a_new.iter().zip(&a_drop));
        for (e, _) in shipped.filter(|&(_, &dropped)| !dropped) {
            report.bytes_exchanged += if delta { codec.encode(&e.op) } else { op_bytes(&e.op) };
        }

        // Apply surviving edits cross-wise, each moved into the peer's
        // log; losing halves are marked seen so they are never
        // re-shipped.
        let mut diverged = false;
        for (eb, dropped) in b_new.into_iter().zip(b_drop) {
            if dropped {
                a.mark_seen(&eb.actor, eb.timestamp);
            } else if a.apply_remote(eb.op, eb.actor, eb.timestamp).is_err() {
                diverged = true;
            } else {
                report.shipped_to_first += 1;
            }
        }
        for (ea, dropped) in a_new.into_iter().zip(a_drop) {
            if dropped {
                b.mark_seen(&ea.actor, ea.timestamp);
            } else if b.apply_remote(ea.op, ea.actor, ea.timestamp).is_err() {
                diverged = true;
            } else {
                report.shipped_to_second += 1;
            }
        }

        a.anchors.advance(&b.id, b.log.head());
        b.anchors.advance(&a.id, a.log.head());

        // Concurrent inserts land in different orders on the two sides;
        // canonicalize keyed-children order so equality is structural.
        a.doc.canonicalize(&a.keys, !delta);
        b.doc.canonicalize(&b.keys, !delta);

        if !diverged && compare(a, b) {
            report.converged = true;
            return Ok(report);
        }
        if policy == ReconcilePolicy::Manual && !report.queued.is_empty() {
            // Divergence is expected while conflicts await the user.
            report.converged = compare(a, b);
            return Ok(report);
        }
    }

    run_slow_sync(a, b, policy, &mut report);
    Ok(report)
}

/// `from`'s log suffix past `to`'s anchor for it, minus the edits `to`
/// has already incorporated. Reserved at the suffix's length, where a
/// collected `filter` would reserve four entries for one survivor.
fn unseen(from: &Replica, to: &Replica) -> Vec<LogEntry> {
    let suffix = from.log.since(to.anchors.last_seen(&from.id));
    let mut new = Vec::with_capacity(suffix.len());
    new.extend(suffix.iter().filter(|e| !to.seen.contains(&(e.actor.clone(), e.timestamp))).cloned());
    new
}

/// The slow (full-state) sync: deep-merge document states; on merge
/// conflict, keep the winning side's document plus the loser's entries
/// the winner lacks. The documents are shipped whole, so there is
/// nothing to delta-encode here.
fn run_slow_sync(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
    report: &mut SyncReport,
) {
    report.fast_path = false;
    report.slow_sync = true;
    report.bytes_exchanged += a.doc.byte_size(a.doc.root()) + b.doc.byte_size(b.doc.root());
    let (winner, loser) = if policy.first_wins(a.clock, &a.id, b.clock, &b.id) {
        (&*a.doc, &*b.doc)
    } else {
        (&*b.doc, &*a.doc)
    };
    let merged = match merge_arena(loser, winner, &a.keys) {
        Ok(m) => ArenaDoc::from_element(&m.to_element()),
        Err(_) => {
            // Conflicting scalars: winner's state, plus loser's entries
            // that don't conflict.
            let mut m = winner.clone();
            m.add_missing_entries(loser, &a.keys);
            m.compact_if_mostly_dead();
            m
        }
    };
    // The baseline must be order-canonical, or a replica that reached
    // the same *content* through a different op order would compare
    // unequal on the next fast sync and trigger needless slow syncs.
    let merged = Doc::canonical(merged, &a.keys);
    a.rebase(merged.clone());
    b.rebase(merged);
    a.anchors.advance(&b.id, 0);
    b.anchors.advance(&a.id, 0);
    report.converged = compare(a, b);
}

/// Compares the two canonical documents; when they are equal, both
/// replicas remember the pair's stamps (see [`Replica::known_equal`]).
fn compare(a: &mut Replica, b: &mut Replica) -> bool {
    let equal = a.doc == b.doc;
    if equal {
        let (sa, sb) = (a.doc.stamp(), b.doc.stamp());
        a.anchors.record_match(&b.id, sa, sb);
        b.anchors.record_match(&a.id, sb, sa);
    }
    equal
}

/// Refined conflict test. [`EditOp::overlaps`] is necessary but too
/// coarse: concurrent *inserts* into the same container are additive
/// (two people adding different contacts to the same address book must
/// both survive, Req. 6's "merging of address books"). Inserts conflict
/// only when they add the same logical entry; an insert conflicts with
/// a delete of its container; everything else falls back to path
/// overlap.
pub(crate) fn ops_conflict(a: &EditOp, b: &EditOp, keys: &gupster_xml::MergeKeys) -> bool {
    use EditOp::*;
    match (a, b) {
        (Insert { parent: pa, element: ea }, Insert { parent: pb, element: eb }) => {
            if pa != pb {
                return false;
            }
            match (keys.identity(ea), keys.identity(eb)) {
                (Some(ia), Some(ib)) => ea.name == eb.name && ia == ib,
                _ => ea == eb,
            }
        }
        (Insert { parent, .. }, Delete { path }) | (Delete { path }, Insert { parent, .. }) => {
            path.is_prefix_of(parent)
        }
        (Insert { .. }, _) | (_, Insert { .. }) => false,
        _ => a.overlaps(b),
    }
}

/// Stable-sorts element children by [`canonical_order`] at every level
/// and says whether anything moved. Only element-content nodes are
/// sorted (mixed content keeps order); each child list is sorted where
/// it lies in the arena, and one already in order — the common case
/// after a session — is left untouched. Nothing is allocated.
pub(crate) fn canonicalize(doc: &mut ArenaDoc, keys: &MergeKeys) -> bool {
    doc.sort_children_by(|d, x, y| {
        canonical_order((d.name(x), keys.identity_in(d, x)), (d.name(y), keys.identity_in(d, y)))
    })
}

/// A sibling's tag and [`MergeKeys::identity`] key.
type SortKey<'e> = (&'e str, Option<(&'e str, &'e str)>);

/// Canonical order: tag, then the bytes `attr=value` of the key (empty
/// when keyless, so a keyless sibling sorts first within its tag),
/// compared in place rather than formatted.
fn canonical_order((x_tag, x): SortKey, (y_tag, y): SortKey) -> cmp::Ordering {
    x_tag.cmp(y_tag).then_with(|| match (x, y) {
        // Equal attribute names: the bytes differ first in the values.
        (Some((a, x)), Some((b, y))) if a == b => x.cmp(y),
        _ => key_bytes(x).cmp(key_bytes(y)),
    })
}

fn key_bytes<'e>(key: Option<(&'e str, &'e str)>) -> impl Iterator<Item = u8> + 'e {
    key.into_iter().flat_map(|(attr, value)| attr.bytes().chain([b'=']).chain(value.bytes()))
}

fn op_bytes(op: &EditOp) -> usize {
    match op {
        EditOp::Insert { element, .. } => 32 + element.byte_size(),
        EditOp::Delete { path } => 16 + path.to_string().len(),
        EditOp::SetText { path, text } => 16 + path.to_string().len() + text.len(),
        EditOp::SetAttr { path, name, value } => {
            16 + path.to_string().len() + name.len() + value.len()
        }
        EditOp::RemoveAttr { path, name } => 16 + path.to_string().len() + name.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::{parse, Element, MergeKeys, Node, NodePath};

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    fn book(xml: &str) -> Element {
        parse(xml).unwrap()
    }

    fn pair() -> (Replica, Replica) {
        let base = book(
            r#"<address-book><item id="1"><name>Mom</name><phone>111</phone></item></address-book>"#,
        );
        (
            Replica::new("phone", base.clone(), keys()),
            Replica::new("gup.yahoo.com", base, keys()),
        )
    }

    fn set_name(id: &str, v: &str) -> EditOp {
        EditOp::SetText {
            path: NodePath::root().keyed("item", "id", id).child("name", 0),
            text: v.into(),
        }
    }

    fn insert_item(id: &str, name: &str) -> EditOp {
        EditOp::Insert {
            parent: NodePath::root(),
            element: Element::new("item")
                .with_attr("id", id)
                .with_child(Element::new("name").with_text(name)),
        }
    }

    #[test]
    fn disjoint_edits_converge_fast() {
        let (mut a, mut b) = pair();
        a.edit(insert_item("2", "Bob")).unwrap();
        b.edit(insert_item("3", "Carol")).unwrap();
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert!(r.fast_path && r.converged && !r.slow_sync);
        assert_eq!(r.conflicts, 0);
        assert_eq!(a.doc.root_element().children_named("item").count(), 3);
        assert_eq!(a.doc, b.doc);
    }

    #[test]
    fn conflicting_edit_lww() {
        let (mut a, mut b) = pair();
        a.edit(set_name("1", "Mother")).unwrap(); // ts 1 @ phone
        b.edit(set_name("1", "Mum")).unwrap(); // ts 1 @ yahoo
        b.edit(insert_item("9", "Zed")).unwrap(); // bump b's clock
        b.edit(set_name("1", "Mummy")).unwrap(); // ts 3 @ yahoo — latest
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert!(r.converged);
        assert_eq!(
            a.doc.root_element().child("item").unwrap().child("name").unwrap().text(),
            "Mummy"
        );
        assert_eq!(a.doc, b.doc);
    }

    #[test]
    fn site_priority_policies() {
        let (mut a, mut b) = pair();
        a.edit(set_name("1", "PhoneWins")).unwrap();
        b.edit(set_name("1", "PortalWins")).unwrap();
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::PreferFirst).unwrap();
        assert!(r.converged);
        assert_eq!(a.doc.root_element().child("item").unwrap().child("name").unwrap().text(), "PhoneWins");

        let (mut a, mut b) = pair();
        a.edit(set_name("1", "PhoneWins")).unwrap();
        b.edit(set_name("1", "PortalWins")).unwrap();
        two_way_sync(&mut a, &mut b, ReconcilePolicy::PreferSecond).unwrap();
        assert_eq!(a.doc.root_element().child("item").unwrap().child("name").unwrap().text(), "PortalWins");
    }

    #[test]
    fn manual_policy_queues_and_defers() {
        let (mut a, mut b) = pair();
        a.edit(set_name("1", "A")).unwrap();
        b.edit(set_name("1", "B")).unwrap();
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::Manual).unwrap();
        assert_eq!(r.queued.len(), 1);
        assert!(!r.converged);
        // Neither side applied the other's conflicting edit.
        assert_eq!(a.doc.root_element().child("item").unwrap().child("name").unwrap().text(), "A");
        assert_eq!(b.doc.root_element().child("item").unwrap().child("name").unwrap().text(), "B");
    }

    #[test]
    fn repeated_syncs_are_incremental() {
        let (mut a, mut b) = pair();
        a.edit(insert_item("2", "Bob")).unwrap();
        let r1 = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert_eq!(r1.shipped_to_second, 1);
        // Nothing new: second sync ships nothing.
        let r2 = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert_eq!(r2.shipped_to_second, 0);
        assert_eq!(r2.shipped_to_first, 0);
        assert!(r2.converged);
    }

    #[test]
    fn rebase_forces_slow_sync() {
        let (mut a, mut b) = pair();
        a.edit(insert_item("2", "Bob")).unwrap();
        two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        // b rebases (e.g. restored from backup) with extra data.
        b.rebase(Doc::canonical(
            ArenaDoc::from_element(&book(
                r#"<address-book><item id="1"><name>Mom</name><phone>111</phone></item><item id="7"><name>Eve</name></item></address-book>"#,
            )),
            &keys(),
        ));
        b.anchors.advance(&a.id, 0); // forget a's anchor
        a.edit(insert_item("3", "Carol")).unwrap();
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert!(r.slow_sync);
        assert!(r.converged);
        let ids: Vec<_> = a
            .doc
            .root_element()
            .children_named("item")
            .map(|i| i.attr("id").unwrap().to_string())
            .collect();
        assert!(ids.contains(&"1".to_string()));
        assert!(ids.contains(&"7".to_string()));
        // Carol ("3") was inserted after the last fast sync and survives
        // the slow-sync merge.
        assert!(ids.contains(&"3".to_string()), "{ids:?}");
        assert_eq!(a.doc, b.doc);
    }

    #[test]
    fn a_session_reports_the_pairs_it_compared() {
        let (mut a, mut b) = pair();
        a.edit(set_name("1", "A")).unwrap();
        b.edit(set_name("1", "B")).unwrap();
        b.edit(insert_item("2", "Bob")).unwrap();
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert_eq!(r.compared, 2); // |a_new| × |b_new| = 1 × 2
        assert_eq!(r.conflicts, 1);
        assert!(r.fast_path && !r.slow_sync);
    }

    #[test]
    fn component_mismatch_rejected() {
        let mut a = Replica::new("x", book("<address-book/>"), keys());
        let mut b = Replica::new("y", book("<calendar/>"), keys());
        assert!(two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).is_err());
    }

    /// The model: the allocating sort that [`canonicalize`] replaced,
    /// which formats each sibling's `(tag, "attr=value")` key for every
    /// comparison and re-sorts whether or not the list is in order.
    fn canonicalize_model(e: &mut Element, keys: &MergeKeys) {
        for ch in e.child_elements_mut() {
            canonicalize_model(ch, keys);
        }
        let all_elements = e.children.iter().all(|c| matches!(c, Node::Element(_)));
        if all_elements {
            e.children.sort_by(|x, y| {
                let key = |n: &Node| match n {
                    Node::Element(el) => (
                        el.name.clone(),
                        keys.identity(el).map(|(a, v)| format!("{a}={v}")).unwrap_or_default(),
                    ),
                    Node::Text(_) => unreachable!("all_elements checked"),
                };
                key(x).cmp(&key(y))
            });
        }
    }

    /// Random sibling lists: tags that prefix each other, explicit and
    /// default keys, keyless elements, key attributes that prefix each
    /// other (`id` / `idx`), values containing `=`, text children, and
    /// nested lists.
    fn random_element(r: &mut gupster_rng::StdRng, depth: usize) -> Element {
        use gupster_rng::check::string_of;
        use gupster_rng::Rng;
        const TAGS: [&str; 4] = ["item", "items", "entry", "e"];
        const ATTRS: [&str; 6] = ["id", "idx", "name", "type", "k", "id-x"];
        let mut e = Element::new(*r.pick(&TAGS));
        for attr in ATTRS {
            if r.gen_bool(0.3) {
                e.set_attr(attr, string_of(r, &['a', 'b', '=', '-', 'x'], 0, 3));
            }
        }
        if depth > 0 {
            for _ in 0..r.gen_range(0..7usize) {
                e.push_child(random_element(r, depth - 1));
            }
        }
        if r.gen_bool(0.15) {
            e.push_text(string_of(r, &['t', ' '], 1, 2));
        }
        e
    }

    #[test]
    fn canonical_order_matches_the_allocating_model() {
        use gupster_rng::check::cases;
        use gupster_rng::Rng;
        cases(400, 0xCA11, |r| {
            let mut keys = MergeKeys::new();
            keys.use_default_keys = r.gen_bool(0.8);
            for (tag, attr) in [("item", "idx"), ("items", "id"), ("e", "k")] {
                if r.gen_bool(0.5) {
                    keys = keys.with_key(tag, attr);
                }
            }
            let mut doc = random_element(r, 3);
            let was_ordered = r.gen_bool(0.3);
            if was_ordered {
                // Already in order: the fast path must leave it as is.
                canonicalize_model(&mut doc, &keys);
            }
            let mut arena = ArenaDoc::from_element(&doc);
            let before = arena.to_xml();
            canonicalize_model(&mut doc, &keys);
            let moved = canonicalize(&mut arena, &keys);
            assert_eq!(arena.to_xml(), doc.to_xml(), "{keys:?}");
            assert_eq!(arena.root_element(), doc);
            assert_eq!(moved, arena.to_xml() != before, "says whether anything moved");
            assert!(!(was_ordered && moved), "an ordered document is left as it is");
        });
    }

    #[test]
    fn fast_path_cheaper_than_whole_document() {
        let mut base = Element::new("address-book");
        for i in 0..100 {
            base.push_child(
                Element::new("item")
                    .with_attr("id", i.to_string())
                    .with_child(Element::new("name").with_text(format!("Contact {i}"))),
            );
        }
        let mut a = Replica::new("phone", base.clone(), keys());
        let mut b = Replica::new("portal", base.clone(), keys());
        // Prime anchors.
        two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        a.edit(set_name("5", "Renamed")).unwrap();
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert!(r.fast_path);
        assert!(
            r.bytes_exchanged < base.byte_size() / 10,
            "one-edit sync should be far cheaper than shipping the book: {} vs {}",
            r.bytes_exchanged,
            base.byte_size()
        );
    }
}
