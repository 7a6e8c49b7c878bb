//! A synchronizable replica of a profile component.

use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gupster_xml::{EditOp, Element, MergeKeys, XmlError};

use crate::anchor::Anchors;
use crate::changelog::ChangeLog;
use crate::session::canonicalize;

/// The one process-wide source of document stamps, so no two document
/// states anywhere, cloned replicas included, share a stamp unless they
/// share content. 0 is never handed out.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    // Relaxed: a stamp only has to be unique, and it publishes no data.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A replica's document: an [`Element`] (read through `Deref`) that only
/// `gupster-sync` changes. Each change takes a fresh [`stamp`](Self::stamp),
/// so two equal stamps mean equal content, which is what lets a session
/// between replicas unchanged since they last matched skip comparing
/// them. Equality compares the documents only.
#[derive(Clone)]
pub struct Doc {
    element: Element,
    stamp: u64,
    /// No op since the last canonicalization could have reordered the
    /// children (see [`keeps_order`]).
    ordered: bool,
}

impl Doc {
    /// A document state of unknown order.
    fn new(element: Element) -> Self {
        Doc { element, stamp: fresh_stamp(), ordered: false }
    }

    /// `element` canonicalized under `keys`.
    pub(crate) fn canonical(element: Element, keys: &MergeKeys) -> Self {
        let mut doc = Doc::new(element);
        doc.canonicalize(keys, true);
        doc
    }

    /// The identity of this content state: any change takes a fresh one.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// True when the children are known to be in canonical order: no op
    /// since the last canonicalization could have reordered them.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Applies `op`; a failed op changes nothing.
    fn apply(&mut self, op: &EditOp, keys: &MergeKeys) -> Result<(), XmlError> {
        op.apply(&mut self.element)?;
        self.stamp = fresh_stamp();
        self.ordered &= keeps_order(op, keys);
        Ok(())
    }

    /// Puts keyed children in canonical order; skipped, unless `force`d,
    /// when no op could have disturbed it.
    pub(crate) fn canonicalize(&mut self, keys: &MergeKeys, force: bool) {
        if (force || !self.ordered) && canonicalize(&mut self.element, keys) {
            self.stamp = fresh_stamp();
        }
        self.ordered = true;
    }
}

/// Whether `op` keeps a canonical document canonical. `SetText` and
/// `Delete` never move a sibling; an insert appends, and an attribute
/// write can change an element's key and so its place.
fn keeps_order(op: &EditOp, keys: &MergeKeys) -> bool {
    match op {
        EditOp::SetText { .. } | EditOp::Delete { .. } => true,
        EditOp::Insert { .. } => false,
        EditOp::SetAttr { path, name, .. } | EditOp::RemoveAttr { path, name } => {
            path.steps.last().is_none_or(|step| !keys.may_key(&step.name, name))
        }
    }
}

impl Deref for Doc {
    type Target = Element;

    fn deref(&self) -> &Element {
        &self.element
    }
}

impl PartialEq for Doc {
    fn eq(&self, other: &Doc) -> bool {
        self.element == other.element
    }
}

impl Eq for Doc {}

impl fmt::Debug for Doc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.element.fmt(f)
    }
}

/// One replica: a site id, the component document, a change log, a
/// Lamport clock and per-peer anchors.
///
/// A phone's address book and the portal's copy of it are two
/// [`Replica`]s of the same component (Req. 4: "telephone book may be
/// stored in the end-user's phone, with a primary copy held by an
/// internet portal").
#[derive(Debug, Clone)]
pub struct Replica {
    /// Site id, e.g. `phone` or `gup.yahoo.com`, and the actor of every
    /// edit made here. Log entries, dedup sets and peers' anchors hold
    /// clones of it, so relaying an edit allocates no string, and the
    /// id is freed with the last replica, entry or anchor that holds it.
    pub id: Arc<str>,
    /// The component document, read-only: edits go through
    /// [`edit`](Self::edit), wholesale replacement through
    /// [`replace_doc`](Self::replace_doc).
    pub doc: Doc,
    /// Edits made here since the last baseline.
    pub log: ChangeLog,
    /// Per-peer sync anchors.
    pub anchors: Anchors,
    /// Lamport clock.
    pub clock: u64,
    /// Merge keys for the component (drive diff/merge identity).
    pub keys: MergeKeys,
    /// Identities `(actor, timestamp)` of every edit incorporated here —
    /// the dedup set that lets a hub **relay** edits between devices
    /// without echoing them back to their originator.
    pub seen: HashSet<(Arc<str>, u64)>,
}

impl Replica {
    /// Creates a replica holding `doc`.
    pub fn new(id: &str, doc: Element, keys: MergeKeys) -> Self {
        Replica {
            id: id.into(),
            doc: Doc::new(doc),
            log: ChangeLog::new(),
            anchors: Anchors::new(),
            clock: 0,
            keys,
            seen: HashSet::new(),
        }
    }

    /// Applies a local edit: mutates the document and logs the op.
    pub fn edit(&mut self, op: EditOp) -> Result<u64, XmlError> {
        self.doc.apply(&op, &self.keys)?;
        self.clock += 1;
        self.seen.insert((self.id.clone(), self.clock));
        Ok(self.log.append(op, self.id.clone(), self.clock))
    }

    /// Replaces the document behind the log's back (a device restored
    /// from a backup, say). Logs, anchors and clock are kept; the next
    /// session finds what changed by comparing documents.
    pub fn replace_doc(&mut self, doc: Element) {
        self.doc = Doc::new(doc);
    }

    /// True when this replica's last session with `peer` left the two
    /// documents equal and neither has changed since — known without
    /// walking either. `false` means "not known", not "different".
    pub fn known_equal(&self, peer: &Replica) -> bool {
        self.anchors.matched(&peer.id, self.doc.stamp, peer.doc.stamp)
    }

    /// Applies a remote edit during sync: mutates the document,
    /// **re-logs the op under its original actor/timestamp** (so a hub
    /// replica relays device edits to other devices on later syncs),
    /// marks it seen, and advances the Lamport clock past the remote
    /// timestamp.
    pub(crate) fn apply_remote(
        &mut self,
        op: EditOp,
        actor: Arc<str>,
        remote_ts: u64,
    ) -> Result<(), XmlError> {
        self.doc.apply(&op, &self.keys)?;
        self.clock = self.clock.max(remote_ts) + 1;
        self.seen.insert((actor.clone(), remote_ts));
        self.log.append(op, actor, remote_ts);
        Ok(())
    }

    /// Marks an op incorporated without applying it (the losing side of
    /// a resolved conflict): the peer must not re-ship it later.
    pub(crate) fn mark_seen(&mut self, actor: &Arc<str>, remote_ts: u64) {
        self.seen.insert((actor.clone(), remote_ts));
    }

    /// Establishes a new baseline after a slow sync: replaces the
    /// document, clears the log and the dedup set.
    pub(crate) fn rebase(&mut self, doc: Doc) {
        self.doc = doc;
        self.log.clear();
        self.seen.clear();
        self.clock += 1;
    }

    /// Compacts this replica's change log against `anchors` (every live
    /// peer's last-incorporated seq — see `ChangeLog::compact`).
    pub fn compact_log(&mut self, anchors: &[u64]) -> crate::changelog::CompactStats {
        self.log.compact(anchors, &self.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::{parse, NodePath};

    #[test]
    fn edit_logs_and_mutates() {
        let doc = parse(r#"<address-book><item id="1"><name>Mom</name></item></address-book>"#)
            .unwrap();
        let mut r = Replica::new("phone", doc, MergeKeys::new().with_key("item", "id"));
        let op = EditOp::SetText {
            path: NodePath::root().keyed("item", "id", "1").child("name", 0),
            text: "Mother".into(),
        };
        let seq = r.edit(op).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(r.doc.child("item").unwrap().child("name").unwrap().text(), "Mother");
        assert_eq!(r.clock, 1);
    }

    #[test]
    fn failed_edit_not_logged() {
        let mut r = Replica::new("phone", parse("<b/>").unwrap(), MergeKeys::new());
        let op = EditOp::SetText { path: NodePath::root().child("ghost", 0), text: "x".into() };
        assert!(r.edit(op).is_err());
        assert!(r.log.is_empty());
        assert_eq!(r.clock, 0);
    }

    #[test]
    fn remote_apply_advances_clock_and_relays() {
        let mut r = Replica::new("phone", parse("<b><v>1</v></b>").unwrap(), MergeKeys::new());
        let op = EditOp::SetText { path: NodePath::root().child("v", 0), text: "2".into() };
        let portal: Arc<str> = "portal".into();
        r.apply_remote(op, portal.clone(), 41).unwrap();
        assert_eq!(r.clock, 42);
        // The op is re-logged under its ORIGINAL actor, so this replica
        // relays it onward — and the dedup set prevents echo.
        assert_eq!(r.log.len(), 1);
        assert_eq!(&*r.log.since(0)[0].actor, "portal");
        assert_eq!(r.log.since(0)[0].timestamp, 41);
        assert!(r.seen.contains(&(portal, 41)));
    }
}
