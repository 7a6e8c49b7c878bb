//! A synchronizable replica of a profile component.

use std::collections::HashSet;

use gupster_xml::{EditOp, Element, MergeKeys, XmlError};

use crate::anchor::Anchors;
use crate::changelog::ChangeLog;
use crate::intern::ActorId;

/// One replica: a site id, the component document, a change log, a
/// Lamport clock and per-peer anchors.
///
/// A phone's address book and the portal's copy of it are two
/// [`Replica`]s of the same component (Req. 4: "telephone book may be
/// stored in the end-user's phone, with a primary copy held by an
/// internet portal").
#[derive(Debug, Clone)]
pub struct Replica {
    /// Site id, e.g. `phone` or `gup.yahoo.com`.
    pub id: String,
    /// The site id interned once at construction — log appends and
    /// dedup-set probes copy 4 bytes instead of cloning the string.
    pub actor: ActorId,
    /// The component document.
    pub doc: Element,
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
    pub seen: HashSet<(ActorId, u64)>,
}

impl Replica {
    /// Creates a replica holding `doc`.
    pub fn new(id: &str, doc: Element, keys: MergeKeys) -> Self {
        Replica {
            id: id.to_string(),
            actor: ActorId::intern(id),
            doc,
            log: ChangeLog::new(),
            anchors: Anchors::new(),
            clock: 0,
            keys,
            seen: HashSet::new(),
        }
    }

    /// Applies a local edit: mutates the document and logs the op.
    pub fn edit(&mut self, op: EditOp) -> Result<u64, XmlError> {
        op.apply(&mut self.doc)?;
        self.clock += 1;
        self.seen.insert((self.actor, self.clock));
        Ok(self.log.append(op, self.actor, self.clock))
    }

    /// Applies a remote edit during sync: mutates the document,
    /// **re-logs the op under its original actor/timestamp** (so a hub
    /// replica relays device edits to other devices on later syncs),
    /// marks it seen, and advances the Lamport clock past the remote
    /// timestamp.
    pub(crate) fn apply_remote(
        &mut self,
        op: &EditOp,
        actor: ActorId,
        remote_ts: u64,
    ) -> Result<(), XmlError> {
        op.apply(&mut self.doc)?;
        self.clock = self.clock.max(remote_ts) + 1;
        self.seen.insert((actor, remote_ts));
        self.log.append(op.clone(), actor, remote_ts);
        Ok(())
    }

    /// Marks an op incorporated without applying it (the losing side of
    /// a resolved conflict): the peer must not re-ship it later.
    pub(crate) fn mark_seen(&mut self, actor: ActorId, remote_ts: u64) {
        self.seen.insert((actor, remote_ts));
    }

    /// Establishes a new baseline after a slow sync: replaces the
    /// document, clears the log and the dedup set.
    pub(crate) fn rebase(&mut self, doc: Element) {
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
        let portal = ActorId::intern("portal");
        r.apply_remote(&op, portal, 41).unwrap();
        assert_eq!(r.clock, 42);
        // The op is re-logged under its ORIGINAL actor, so this replica
        // relays it onward — and the dedup set prevents echo.
        assert_eq!(r.log.len(), 1);
        assert_eq!(r.log.since(0)[0].actor_str(), "portal");
        assert_eq!(r.log.since(0)[0].timestamp, 41);
        assert!(r.seen.contains(&(portal, 41)));
    }
}
