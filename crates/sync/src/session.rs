//! Two-way sync sessions.

use std::fmt;
use std::sync::atomic::Ordering;

use gupster_telemetry::{stage, SimTime, Tracer};
use gupster_xml::{diff, merge, EditOp, NodePath};

use crate::changelog::LogEntry;
use crate::reconcile::ReconcilePolicy;
use crate::replica::Replica;

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
    /// Conflicts queued for manual resolution (policy `Manual`).
    pub queued: Vec<(EditOp, EditOp)>,
    /// Edit pairs examined during conflict detection (`|a_new| × |b_new|`
    /// in [`two_way_sync`], the index candidates in
    /// [`crate::delta_two_way_sync`]) — the work the reconcile phase
    /// actually did, which the traced variant charges simulated time for.
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
/// This is the reference session: it compares every pair of new ops
/// and frames each shipped op with its full path.
/// [`crate::delta_two_way_sync`] runs the same session with a path
/// index and delta framing.
pub fn two_way_sync(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
) -> Result<SyncReport, SyncError> {
    let every_pair = |b_new: &[LogEntry]| {
        let n = b_new.len();
        move |_: &NodePath, out: &mut Vec<usize>| {
            out.clear();
            out.extend(0..n);
        }
    };
    run_session(a, b, policy, every_pair, op_bytes)
}

/// The one session body behind [`two_way_sync`] and
/// [`crate::delta_two_way_sync`]. They differ only in what the two
/// arguments measure: `index` turns the second side's new ops into a
/// probe that lists, ascending, the ops a first-side target may
/// conflict with (every op, or the [`crate::TouchedIndex`] candidates
/// — a superset of the conflicting ones, so both examine conflicts in
/// the same `(i, j)` order), and `wire_size` is one shipped op's cost.
pub(crate) fn run_session<P: FnMut(&NodePath, &mut Vec<usize>)>(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
    index: impl FnOnce(&[LogEntry]) -> P,
    mut wire_size: impl FnMut(&EditOp) -> usize,
) -> Result<SyncReport, SyncError> {
    if a.doc.name != b.doc.name {
        return Err(SyncError::ComponentMismatch(a.doc.name.clone(), b.doc.name.clone()));
    }
    let mut report = SyncReport { fast_path: true, ..Default::default() };

    let anchors_ok =
        a.anchors.consistent_with(&b.id, b.log.head()) && b.anchors.consistent_with(&a.id, a.log.head());

    if anchors_ok {
        // Ship log suffixes past the peer's anchor, minus anything the
        // peer has already incorporated (hub relay would otherwise echo
        // a device's own edits back to it).
        let a_new: Vec<_> = a
            .log
            .since(b.anchors.last_seen(&a.id))
            .iter()
            .filter(|e| !b.seen.contains(&(e.actor, e.timestamp)))
            .cloned()
            .collect();
        let b_new: Vec<_> = b
            .log
            .since(a.anchors.last_seen(&b.id))
            .iter()
            .filter(|e| !a.seen.contains(&(e.actor, e.timestamp)))
            .cloned()
            .collect();

        // Conflict detection: overlapping targets across the two sets.
        let mut probe = index(&b_new);
        let mut cands: Vec<usize> = Vec::new();
        let mut a_drop = vec![false; a_new.len()];
        let mut b_drop = vec![false; b_new.len()];
        for (i, ea) in a_new.iter().enumerate() {
            probe(ea.op.target(), &mut cands);
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
                            if policy
                                .first_wins(ea.timestamp, ea.actor_str(), eb.timestamp, eb.actor_str())
                            {
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

        // Apply surviving edits cross-wise; losing halves are marked
        // seen so they are never re-shipped.
        let mut diverged = false;
        for (j, eb) in b_new.iter().enumerate() {
            if b_drop[j] {
                a.mark_seen(eb.actor, eb.timestamp);
                continue;
            }
            report.bytes_exchanged += wire_size(&eb.op);
            if a.apply_remote(&eb.op, eb.actor, eb.timestamp).is_err() {
                diverged = true;
            } else {
                report.shipped_to_first += 1;
            }
        }
        for (i, ea) in a_new.iter().enumerate() {
            if a_drop[i] {
                b.mark_seen(ea.actor, ea.timestamp);
                continue;
            }
            report.bytes_exchanged += wire_size(&ea.op);
            if b.apply_remote(&ea.op, ea.actor, ea.timestamp).is_err() {
                diverged = true;
            } else {
                report.shipped_to_second += 1;
            }
        }

        a.anchors.advance(&b.id, b.log.head());
        b.anchors.advance(&a.id, a.log.head());

        // Concurrent inserts land in different orders on the two sides;
        // canonicalize keyed-children order so equality is structural.
        canonicalize(&mut a.doc, &a.keys);
        canonicalize(&mut b.doc, &b.keys);

        if !diverged && a.doc == b.doc {
            report.converged = true;
            return Ok(report);
        }
        if policy == ReconcilePolicy::Manual && !report.queued.is_empty() {
            // Divergence is expected while conflicts await the user.
            report.converged = a.doc == b.doc;
            return Ok(report);
        }
    }

    run_slow_sync(a, b, policy, &mut report);
    Ok(report)
}

/// The slow (full-state) sync: deep-merge document states; on merge
/// conflict, take the winning side's subtree by diffing the loser onto
/// the winner. The documents are shipped whole, so there is nothing to
/// delta-encode here.
fn run_slow_sync(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
    report: &mut SyncReport,
) {
    report.fast_path = false;
    report.slow_sync = true;
    report.bytes_exchanged += a.doc.byte_size() + b.doc.byte_size();
    let (winner, loser) = if policy.first_wins(a.clock, &a.id, b.clock, &b.id) {
        (&a.doc, &b.doc)
    } else {
        (&b.doc, &a.doc)
    };
    let mut merged = match merge(loser, winner, &a.keys) {
        Ok(m) => m,
        Err(_) => {
            // Conflicting scalars: winner's state, plus loser's entries
            // that don't conflict (apply loser→winner diff inserts only).
            let mut m = winner.clone();
            for op in diff(winner, loser, &a.keys) {
                if let EditOp::Insert { .. } = op {
                    let _ = op.apply(&mut m);
                }
            }
            m
        }
    };
    // The baseline must be order-canonical, or a replica that reached
    // the same *content* through a different op order would compare
    // unequal on the next fast sync and trigger needless slow syncs.
    canonicalize(&mut merged, &a.keys);
    a.rebase(merged.clone());
    b.rebase(merged);
    a.anchors.advance(&b.id, 0);
    b.anchors.advance(&a.id, 0);
    report.converged = a.doc == b.doc;
}

/// [`two_way_sync`] under a telemetry [`Tracer`]: the session becomes a
/// [`stage::SYNC_SESSION`] span with per-phase children, charged from a
/// deterministic simulated cost model (the sync path has no wall clocks,
/// like the rest of the pipeline):
///
/// * [`stage::SYNC_SHIP`] — wire time for the changelog-suffix (or, on
///   the slow path, whole-document) exchange: 5µs handshake plus 10µs
///   per KB of [`SyncReport::bytes_exchanged`].
/// * [`stage::SYNC_RECONCILE`] — conflict detection: 2µs per edit pair
///   compared plus 3µs per conflict resolved.
/// * [`stage::SYNC_APPLY`] — 5µs per accepted remote op applied.
/// * [`stage::SYNC_SLOW`] — only when the slow path ran: 20µs plus 20µs
///   per KB for the full-document deep merge and rebase.
///
/// Also bumps the hub's `sync_sessions`, `sync_ops_shipped`,
/// `sync_conflicts` and `sync_slow_paths` counters. The returned report
/// is identical to the untraced call's.
pub fn two_way_sync_traced(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
    tracer: &mut Tracer,
) -> Result<SyncReport, SyncError> {
    run_traced(tracer, false, || two_way_sync(a, b, policy))
}

/// Runs `session` inside a [`stage::SYNC_SESSION`] span and charges
/// its report by the cost model of [`two_way_sync_traced`];
/// `delta_stage` adds the fast path's [`stage::SYNC_DELTA`] span.
pub(crate) fn run_traced(
    tracer: &mut Tracer,
    delta_stage: bool,
    session: impl FnOnce() -> Result<SyncReport, SyncError>,
) -> Result<SyncReport, SyncError> {
    tracer.enter(stage::SYNC_SESSION);
    let result = session();
    if let Ok(report) = &result {
        let kb_us = |bytes: usize, per_kb: u64| (bytes as u64 * per_kb) / 1024;
        let shipped = (report.shipped_to_first + report.shipped_to_second) as u64;
        tracer.span(stage::SYNC_SHIP, SimTime::micros(5 + kb_us(report.bytes_exchanged, 10)));
        tracer.span(
            stage::SYNC_RECONCILE,
            SimTime::micros(2 * report.compared as u64 + 3 * report.conflicts as u64),
        );
        if delta_stage {
            tracer.span(stage::SYNC_DELTA, SimTime::micros(1 + report.compared as u64 + shipped));
        }
        tracer.span(stage::SYNC_APPLY, SimTime::micros(5 * shipped));
        if report.slow_sync {
            tracer.span(stage::SYNC_SLOW, SimTime::micros(20 + kb_us(report.bytes_exchanged, 20)));
        }
        let counters = tracer.hub().counters();
        counters.sync_sessions.fetch_add(1, Ordering::Relaxed);
        counters.sync_ops_shipped.fetch_add(shipped, Ordering::Relaxed);
        counters.sync_conflicts.fetch_add(report.conflicts as u64, Ordering::Relaxed);
        counters.sync_slow_paths.fetch_add(report.slow_sync as u64, Ordering::Relaxed);
    }
    tracer.exit();
    result
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
                (Some(ia), Some(ib)) => ia == ib,
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

/// Stable-sorts element children by (tag, identity key) at every level.
/// Only applies to element-content nodes (mixed content keeps order).
fn canonicalize(e: &mut gupster_xml::Element, keys: &gupster_xml::MergeKeys) {
    use gupster_xml::Node;
    for ch in e.child_elements_mut() {
        canonicalize(ch, keys);
    }
    let all_elements = e.children.iter().all(|c| matches!(c, Node::Element(_)));
    if all_elements {
        e.children.sort_by(|x, y| {
            let key = |n: &Node| match n {
                Node::Element(el) => {
                    (el.name.clone(), keys.identity(el).map(|(_, k)| k).unwrap_or_default())
                }
                Node::Text(_) => unreachable!("all_elements checked"),
            };
            key(x).cmp(&key(y))
        });
    }
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
    use gupster_xml::{parse, Element, MergeKeys, NodePath};

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
        assert_eq!(a.doc.children_named("item").count(), 3);
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
            a.doc.child("item").unwrap().child("name").unwrap().text(),
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
        assert_eq!(a.doc.child("item").unwrap().child("name").unwrap().text(), "PhoneWins");

        let (mut a, mut b) = pair();
        a.edit(set_name("1", "PhoneWins")).unwrap();
        b.edit(set_name("1", "PortalWins")).unwrap();
        two_way_sync(&mut a, &mut b, ReconcilePolicy::PreferSecond).unwrap();
        assert_eq!(a.doc.child("item").unwrap().child("name").unwrap().text(), "PortalWins");
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
        assert_eq!(a.doc.child("item").unwrap().child("name").unwrap().text(), "A");
        assert_eq!(b.doc.child("item").unwrap().child("name").unwrap().text(), "B");
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
        b.rebase(book(
            r#"<address-book><item id="1"><name>Mom</name><phone>111</phone></item><item id="7"><name>Eve</name></item></address-book>"#,
        ));
        b.anchors.reset(&a.id);
        a.edit(insert_item("3", "Carol")).unwrap();
        let r = two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert!(r.slow_sync);
        assert!(r.converged);
        let ids: Vec<_> = a
            .doc
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
    fn traced_sync_records_stages_and_counters() {
        use std::sync::Arc;

        use gupster_telemetry::TelemetryHub;

        let hub = Arc::new(TelemetryHub::new());
        let (mut a, mut b) = pair();
        a.edit(set_name("1", "A")).unwrap();
        b.edit(set_name("1", "B")).unwrap();
        b.edit(insert_item("2", "Bob")).unwrap();
        let mut tracer = hub.tracer("sync.round");
        let r =
            two_way_sync_traced(&mut a, &mut b, ReconcilePolicy::LastWriterWins, &mut tracer)
                .unwrap();
        drop(tracer);

        // The report matches an untraced run of the same session.
        let (mut a2, mut b2) = pair();
        a2.edit(set_name("1", "A")).unwrap();
        b2.edit(set_name("1", "B")).unwrap();
        b2.edit(insert_item("2", "Bob")).unwrap();
        let plain = two_way_sync(&mut a2, &mut b2, ReconcilePolicy::LastWriterWins).unwrap();
        assert_eq!(r, plain);
        assert_eq!(r.compared, 2); // |a_new| × |b_new| = 1 × 2

        let counters = hub.counter_snapshot();
        assert_eq!(counters.sync_sessions, 1);
        assert_eq!(counters.sync_conflicts, 1);
        assert_eq!(
            counters.sync_ops_shipped as usize,
            r.shipped_to_first + r.shipped_to_second
        );
        assert_eq!(counters.sync_slow_paths, 0);
        // Every fast-path phase shows up in the stage histograms; the
        // slow path was not taken, so its stage stays silent.
        for st in [stage::SYNC_SESSION, stage::SYNC_SHIP, stage::SYNC_RECONCILE, stage::SYNC_APPLY]
        {
            assert!(hub.stage_stats(st).is_some(), "missing stage {st}");
        }
        assert!(hub.stage_stats(stage::SYNC_SLOW).is_none());
    }

    #[test]
    fn traced_slow_sync_charges_the_slow_stage() {
        use std::sync::Arc;

        use gupster_telemetry::TelemetryHub;

        let hub = Arc::new(TelemetryHub::new());
        let (mut a, mut b) = pair();
        a.edit(insert_item("2", "Bob")).unwrap();
        two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        b.rebase(book(
            r#"<address-book><item id="1"><name>Mom</name></item><item id="7"><name>Eve</name></item></address-book>"#,
        ));
        b.anchors.reset(&a.id);
        let mut tracer = hub.tracer("sync.round");
        let r = two_way_sync_traced(&mut a, &mut b, ReconcilePolicy::LastWriterWins, &mut tracer)
            .unwrap();
        drop(tracer);
        assert!(r.slow_sync);
        assert_eq!(hub.counter_snapshot().sync_slow_paths, 1);
        let slow = hub.stage_stats(stage::SYNC_SLOW).expect("slow stage recorded");
        assert!(slow.max >= SimTime::micros(20));
    }

    #[test]
    fn component_mismatch_rejected() {
        let mut a = Replica::new("x", book("<address-book/>"), keys());
        let mut b = Replica::new("y", book("<calendar/>"), keys());
        assert!(two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).is_err());
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
