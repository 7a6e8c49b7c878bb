//! Per-replica change logs, with compaction.
//!
//! A log under a sustained write storm grows without bound, and most of
//! what it holds is dead weight: a presence field set 500 times only
//! ever ships its latest value, and a contact added then deleted ships
//! nothing at all. [`ChangeLog::compact`] drops that dead weight while
//! keeping every answer [`ChangeLog::since`] can give to a **live peer
//! anchor** replay-equivalent — the contract the sync session depends
//! on. Sequence numbers survive compaction (the log becomes sparse, and
//! `since` binary-searches instead of slicing), so anchors taken before
//! a compaction remain valid after it.

use std::sync::Arc;

use gupster_xml::{EditOp, MergeKeys, NodePath};

/// One logged edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogEntry {
    /// Sequence number within this replica's log (1-based, ascending;
    /// sparse after a [`ChangeLog::compact`]).
    pub seq: u64,
    /// The edit.
    pub op: EditOp,
    /// Who made it: the originating replica's id, shared with it.
    pub actor: Arc<str>,
    /// Logical timestamp (Lamport-style: max(local, seen) + 1).
    pub timestamp: u64,
}

/// What one `ChangeLog::compact` call removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Entries below the compaction floor (seen by every live peer).
    pub truncated: usize,
    /// Superseded `SetText`/`SetAttr` entries coalesced away.
    pub coalesced: usize,
    /// Entries removed by insert+delete annihilation (the pair plus any
    /// intervening edits inside the dying subtree).
    pub annihilated: usize,
}

impl CompactStats {
    /// Total entries removed.
    pub fn dropped(&self) -> usize {
        self.truncated + self.coalesced + self.annihilated
    }
}

/// An append-mostly log of edits to one replica.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    entries: Vec<LogEntry>,
    /// Highest sequence number ever issued. Tracked separately from
    /// `entries.len()` because compaction leaves gaps.
    head: u64,
}

impl ChangeLog {
    /// Empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends an edit; returns its sequence number. The actor is a
    /// shared id, so an append allocates no string.
    pub(crate) fn append(&mut self, op: EditOp, actor: Arc<str>, timestamp: u64) -> u64 {
        self.head += 1;
        let seq = self.head;
        self.entries.push(LogEntry { seq, op, actor, timestamp });
        seq
    }

    /// Entries with `seq > after` (i.e. everything the peer hasn't
    /// seen). Binary-searches by sequence number — entry seqs are
    /// ascending but sparse once the log has been compacted.
    pub(crate) fn since(&self, after: u64) -> &[LogEntry] {
        let start = self.entries.partition_point(|e| e.seq <= after);
        &self.entries[start..]
    }

    /// Highest sequence number ever issued (0 when never appended).
    /// Unchanged by compaction, so peer anchors stay comparable.
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the log **and restarts sequence numbering from zero** —
    /// used after a slow sync establishes a fresh baseline, at which
    /// point peers' anchors into this log are reset anyway.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
    }

    /// Drops every entry with `seq <= seq`, keeping sequence numbering
    /// intact (unlike [`ChangeLog::clear`]). Safe whenever every live
    /// peer's anchor into this log is at least `seq`: such entries can
    /// never again appear in a [`ChangeLog::since`] answer. Returns the
    /// number of entries dropped.
    pub(crate) fn truncate_through(&mut self, seq: u64) -> usize {
        let cut = self.entries.partition_point(|e| e.seq <= seq);
        self.entries.drain(..cut);
        cut
    }

    /// Compacts the log against the anchors of every live peer.
    ///
    /// `anchors` must contain, for **every** peer that syncs against
    /// this log, that peer's last-incorporated seq (0 for a peer that
    /// has never synced). Three reductions run, each preserving the
    /// final document state produced by replaying `since(a)` for every
    /// `a` in `anchors` (and for any future anchor `>= head()`):
    ///
    /// 1. **Truncation** — entries at or below `min(anchors)` have been
    ///    incorporated by every live peer and are dropped outright.
    /// 2. **Coalescing** — of several `SetText`s to the same path, only
    ///    the last survives (a replay ends on the same text either
    ///    way); likewise `SetAttr` per `(path, attribute)`, unless an
    ///    intervening entry's path resolves through a step keyed on
    ///    that attribute (its resolution could depend on the
    ///    intermediate value).
    /// 3. **Annihilation** — an `Insert` later removed by a keyed
    ///    `Delete` of the same element vanishes, along with every
    ///    intervening edit inside the dying subtree, provided no live
    ///    anchor falls between the pair (a peer holding the insert but
    ///    not the delete still needs the delete shipped). Like `merge`
    ///    and `diff`, this assumes keyed identities are unique within a
    ///    container — the invariant the whole identity-matching layer
    ///    rests on.
    ///
    /// A peer not listed in `anchors` (e.g. one that first appears
    /// after compaction, or one that receives this log's ops relayed
    /// through a third replica) may find the suffix insufficient and
    /// fall back to a slow sync — correct, just slower. The hub
    /// reconciliation plane always lists every device anchor.
    pub(crate) fn compact(&mut self, anchors: &[u64], keys: &MergeKeys) -> CompactStats {
        let mut stats = CompactStats::default();
        let floor = anchors.iter().copied().min().unwrap_or(0);
        stats.truncated = self.truncate_through(floor);

        let n = self.entries.len();
        let mut drop = vec![false; n];

        // Coalesce superseded SetText / SetAttr entries (last wins).
        use std::collections::HashMap;
        let mut last_text: HashMap<&NodePath, usize> = HashMap::new();
        let mut last_attr: HashMap<(&NodePath, &str), usize> = HashMap::new();
        for i in 0..n {
            match &self.entries[i].op {
                EditOp::SetText { path, .. } => {
                    if let Some(prev) = last_text.insert(path, i) {
                        drop[prev] = true;
                        stats.coalesced += 1;
                    }
                }
                EditOp::SetAttr { path, name, .. } => {
                    if let Some(prev) = last_attr.insert((path, name), i) {
                        // A step keyed on this attribute in an entry
                        // between the pair may resolve through the
                        // intermediate value — keep the earlier write.
                        let keyed_between = self.entries[prev + 1..i]
                            .iter()
                            .any(|e| path_keys_on(e.op.target(), name));
                        if !keyed_between {
                            drop[prev] = true;
                            stats.coalesced += 1;
                        }
                    }
                }
                _ => {}
            }
        }

        // Insert + keyed Delete annihilation.
        for j in 0..n {
            if drop[j] {
                continue;
            }
            let EditOp::Delete { path } = &self.entries[j].op else { continue };
            let Some((last, prefix)) = path.steps.split_last() else { continue };
            let Some((ka, kv)) = &last.key else { continue };
            let parent = NodePath { steps: prefix.to_vec() };
            // Latest surviving insert of the same logical element.
            let Some(i) = (0..j).rev().find(|&i| {
                if drop[i] {
                    return false;
                }
                let EditOp::Insert { parent: ip, element } = &self.entries[i].op else {
                    return false;
                };
                *ip == parent
                    && element.name == last.name
                    && element.attr(ka) == Some(kv.as_str())
                    && keys.identity(element).is_some()
            }) else {
                continue;
            };
            let (si, sj) = (self.entries[i].seq, self.entries[j].seq);
            // A peer anchored between the pair already holds the insert
            // and still needs the delete shipped — leave both alone.
            if anchors.iter().any(|&a| a >= si && a < sj) {
                continue;
            }
            drop[i] = true;
            drop[j] = true;
            stats.annihilated += 2;
            // Everything between the pair that edits the dying subtree
            // dies with it (and would not apply without the insert).
            for (k, dead) in drop.iter_mut().enumerate().take(j).skip(i + 1) {
                if !*dead && path.is_prefix_of(self.entries[k].op.target()) {
                    *dead = true;
                    stats.annihilated += 1;
                }
            }
        }

        if stats.coalesced + stats.annihilated > 0 {
            let mut keep = Vec::with_capacity(n - stats.coalesced - stats.annihilated);
            for (i, e) in self.entries.drain(..).enumerate() {
                if !drop[i] {
                    keep.push(e);
                }
            }
            self.entries = keep;
        }
        stats
    }
}

/// True if any step of `p` is keyed on attribute `attr`.
fn path_keys_on(p: &NodePath, attr: &str) -> bool {
    p.steps.iter().any(|s| s.key.as_ref().is_some_and(|(a, _)| a == attr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::Element;

    fn aid() -> Arc<str> {
        "phone".into()
    }

    fn op(text: &str) -> EditOp {
        EditOp::SetText { path: NodePath::root().child("presence", 0), text: text.into() }
    }

    fn op_at(path: NodePath, text: &str) -> EditOp {
        EditOp::SetText { path, text: text.into() }
    }

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    #[test]
    fn append_and_since() {
        let mut log = ChangeLog::new();
        assert_eq!(log.append(op("a"), aid(), 1), 1);
        assert_eq!(log.append(op("b"), aid(), 2), 2);
        assert_eq!(log.append(op("c"), aid(), 3), 3);
        assert_eq!(log.head(), 3);
        assert_eq!(log.since(0).len(), 3);
        assert_eq!(log.since(2).len(), 1);
        assert_eq!(log.since(2)[0].seq, 3);
        assert!(log.since(3).is_empty());
        assert!(log.since(99).is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut log = ChangeLog::new();
        log.append(op("a"), aid(), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.head(), 0);
        // Sequence numbers restart after a new baseline.
        assert_eq!(log.append(op("b"), aid(), 2), 1);
    }

    #[test]
    fn truncate_through_keeps_numbering() {
        let mut log = ChangeLog::new();
        for i in 0..5 {
            log.append(op(&format!("v{i}")), aid(), i + 1);
        }
        assert_eq!(log.truncate_through(3), 3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.head(), 5);
        // Remaining seqs are untouched and since() still lines up.
        assert_eq!(log.since(3).len(), 2);
        assert_eq!(log.since(3)[0].seq, 4);
        assert_eq!(log.since(4).len(), 1);
        // Appends continue the original numbering.
        assert_eq!(log.append(op("f"), aid(), 9), 6);
        assert_eq!(log.truncate_through(0), 0);
    }

    #[test]
    fn since_handles_sparse_seqs() {
        let mut log = ChangeLog::new();
        let p1 = NodePath::root().child("a", 0);
        let p2 = NodePath::root().child("b", 0);
        log.append(op_at(p1.clone(), "1"), aid(), 1); // seq 1
        log.append(op_at(p2.clone(), "2"), aid(), 2); // seq 2
        log.append(op_at(p1.clone(), "3"), aid(), 3); // seq 3 supersedes 1
        log.compact(&[0], &keys());
        // seq 1 coalesced away: the log holds seqs {2, 3}.
        assert_eq!(log.len(), 2);
        assert_eq!(log.since(0).len(), 2);
        assert_eq!(log.since(1).len(), 2);
        assert_eq!(log.since(2).len(), 1);
        assert_eq!(log.since(2)[0].seq, 3);
        assert!(log.since(3).is_empty());
    }

    #[test]
    fn compact_truncates_below_every_anchor() {
        let mut log = ChangeLog::new();
        for i in 0..6 {
            // Distinct paths so coalescing can't interfere.
            log.append(op_at(NodePath::root().child(format!("f{i}"), 0), "x"), aid(), i + 1);
        }
        let stats = log.compact(&[3, 5], &keys());
        assert_eq!(stats.truncated, 3);
        assert_eq!(log.len(), 3);
        // Both live anchors still get exactly their suffixes.
        assert_eq!(log.since(3).len(), 3);
        assert_eq!(log.since(5).len(), 1);
    }

    #[test]
    fn compact_coalesces_last_settext() {
        let mut log = ChangeLog::new();
        let p = NodePath::root().child("presence", 0);
        log.append(op_at(p.clone(), "online"), aid(), 1);
        log.append(op_at(p.clone(), "away"), aid(), 2);
        log.append(op_at(p.clone(), "offline"), aid(), 3);
        let stats = log.compact(&[0], &keys());
        assert_eq!(stats.coalesced, 2);
        assert_eq!(log.len(), 1);
        let last = &log.since(0)[0];
        assert_eq!(last.seq, 3);
        assert!(matches!(&last.op, EditOp::SetText { text, .. } if text == "offline"));
    }

    #[test]
    fn compact_annihilates_insert_delete_pairs() {
        let mut log = ChangeLog::new();
        let item = NodePath::root().keyed("item", "id", "9");
        log.append(
            EditOp::Insert {
                parent: NodePath::root(),
                element: Element::new("item").with_attr("id", "9"),
            },
            aid(),
            1,
        );
        // Edit inside the doomed subtree dies with it.
        log.append(op_at(item.clone().child("name", 0), "Tmp"), aid(), 2);
        log.append(EditOp::Delete { path: item }, aid(), 3);
        // Unrelated survivor.
        log.append(op_at(NodePath::root().child("presence", 0), "on"), aid(), 4);
        let stats = log.compact(&[0], &keys());
        assert_eq!(stats.annihilated, 3);
        assert_eq!(log.len(), 1);
        assert_eq!(log.since(0)[0].seq, 4);
    }

    #[test]
    fn annihilation_respects_anchors_between_the_pair() {
        let mut log = ChangeLog::new();
        let item = NodePath::root().keyed("item", "id", "9");
        log.append(
            EditOp::Insert {
                parent: NodePath::root(),
                element: Element::new("item").with_attr("id", "9"),
            },
            aid(),
            1,
        );
        log.append(EditOp::Delete { path: item }, aid(), 2);
        // A live peer anchored at 1 holds the insert and still needs
        // the delete — the pair must survive.
        let stats = log.compact(&[1], &keys());
        assert_eq!(stats.annihilated, 0);
        assert_eq!(log.since(1).len(), 1);
    }

    #[test]
    fn setattr_keeps_writes_a_keyed_step_depends_on() {
        let mut log = ChangeLog::new();
        let p = NodePath::root().child("item", 0);
        log.append(
            EditOp::SetAttr { path: p.clone(), name: "id".into(), value: "5".into() },
            aid(),
            1,
        );
        // This entry resolves through item[@id='5'] — it needs the
        // intermediate attribute value during replay.
        log.append(op_at(NodePath::root().keyed("item", "id", "5").child("n", 0), "x"), aid(), 2);
        log.append(
            EditOp::SetAttr { path: p.clone(), name: "id".into(), value: "6".into() },
            aid(),
            3,
        );
        let stats = log.compact(&[0], &keys());
        assert_eq!(stats.coalesced, 0);
        assert_eq!(log.len(), 3);

        // Without the dependent entry, the earlier write coalesces.
        let mut log = ChangeLog::new();
        log.append(
            EditOp::SetAttr { path: p.clone(), name: "id".into(), value: "5".into() },
            aid(),
            1,
        );
        log.append(EditOp::SetAttr { path: p, name: "id".into(), value: "6".into() }, aid(), 2);
        assert_eq!(log.compact(&[0], &keys()).coalesced, 1);
    }
}
