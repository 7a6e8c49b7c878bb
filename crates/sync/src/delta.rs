//! Delta-encoded sync sessions.
//!
//! [`crate::two_way_sync`] reconciles with a pairwise `|a| × |b|` scan
//! and ships every op with its full owned path string. Under a
//! 10k-edit write storm both hurt. This module supplies the fast
//! path's two replacements, which the session body [`delta_two_way_sync`]
//! shares with the oracle switches on — anchors, conflict resolution,
//! application to each replica's own document and the slow-sync
//! fallback are that one body's:
//!
//! * **Touched-path index** ([`TouchedIndex`]) — a trie keyed by
//!   [`NodePath`] steps over one side's new ops. A conflicting pair
//!   requires one target path to be a step-prefix of the other, so the
//!   candidates for an op are exactly the ops on its root-walk plus the
//!   subtree below its target: `O(n + m + matches·depth)` instead of
//!   `n × m`. The candidate set provably contains every pair
//!   [`crate::session::ops_conflict`] accepts, and candidate pairs are
//!   examined in the oracle's `(i, j)` order, so conflict counts,
//!   winners and the manual queue come out identical.
//! * **Dictionary delta encoding** ([`DeltaCodec`]) — each distinct
//!   path is shipped once per session; every op after that carries a
//!   fixed-size header plus a dictionary reference and its payload.
//!   [`SyncReport::bytes_exchanged`] measures the saving against the
//!   oracle's owned-path framing.
//!
//! `tests/sync_differential.rs` checks that both engines leave
//! byte-identical replicas.

use std::collections::{HashMap, HashSet};

use gupster_xml::{EditOp, NodePath, Step};

use crate::changelog::LogEntry;
use crate::reconcile::ReconcilePolicy;
use crate::replica::Replica;
use crate::session::{run_session, SyncError, SyncReport};

/// A trie over [`NodePath`] steps indexing one side's new ops by target
/// path. Conflict candidates for a probe path are the ops at every node
/// along the walk to it (ancestor targets) plus every op in the subtree
/// below it (descendant targets) — precisely the pairs with a
/// step-prefix relation between targets.
pub(crate) struct TouchedIndex<'a> {
    nodes: Vec<TrieNode<'a>>,
}

/// One trie node; its edges borrow their steps from the indexed ops.
#[derive(Default)]
struct TrieNode<'a> {
    kids: HashMap<&'a Step, usize>,
    ops: Vec<usize>,
}

impl<'a> TouchedIndex<'a> {
    /// Indexes `ops` by target path.
    pub(crate) fn build(ops: &'a [LogEntry]) -> Self {
        let mut ix = TouchedIndex { nodes: vec![TrieNode::default()] };
        for (j, e) in ops.iter().enumerate() {
            let mut cur = 0usize;
            for step in &e.op.target().steps {
                cur = match ix.nodes[cur].kids.get(step) {
                    Some(&n) => n,
                    None => {
                        let n = ix.nodes.len();
                        ix.nodes.push(TrieNode::default());
                        ix.nodes[cur].kids.insert(step, n);
                        n
                    }
                };
            }
            ix.nodes[cur].ops.push(j);
        }
        ix
    }

    /// Collects (ascending) the indexed ops whose target is a prefix of
    /// `path` or has `path` as a prefix.
    pub(crate) fn candidates(&self, path: &NodePath, out: &mut Vec<usize>) {
        out.clear();
        let mut cur = 0usize;
        let mut complete = true;
        for step in &path.steps {
            out.extend_from_slice(&self.nodes[cur].ops);
            match self.nodes[cur].kids.get(step) {
                Some(&n) => cur = n,
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            // Everything at and below the probe target.
            let mut stack = vec![cur];
            while let Some(n) = stack.pop() {
                out.extend_from_slice(&self.nodes[n].ops);
                stack.extend(self.nodes[n].kids.values());
            }
        }
        out.sort_unstable();
    }
}

/// Session-scoped delta encoder: a path dictionary shared by both
/// directions of one session (the SyncML-style session handshake
/// carries one path table) plus per-op framing. The dictionary is the
/// set of paths shipped so far, borrowed from the session's ops: only
/// its size on the wire is measured, so it needs no entry numbers and
/// no copies.
#[derive(Default)]
pub(crate) struct DeltaCodec<'a> {
    dict: HashSet<&'a NodePath>,
}

/// Fixed per-op framing: one byte op kind + flags, a 2-byte dictionary
/// reference, and a varint-class timestamp/actor field.
const OP_HEADER_BYTES: usize = 8;

impl<'a> DeltaCodec<'a> {
    /// Bytes this op costs on the wire under delta encoding: the fixed
    /// header, the payload, and — first time only — the dictionary
    /// entry for its path.
    pub(crate) fn encode(&mut self, op: &'a EditOp) -> usize {
        let mut bytes = OP_HEADER_BYTES;
        if self.dict.insert(op.target()) {
            // Dictionary entry: the path string plus a 2-byte ref.
            bytes += op.target().to_string().len() + 2;
        }
        bytes += match op {
            // The inserted subtree must ship whole either way.
            EditOp::Insert { element, .. } => element.byte_size(),
            EditOp::Delete { .. } => 0,
            EditOp::SetText { text, .. } => text.len(),
            EditOp::SetAttr { name, value, .. } => name.len() + value.len() + 2,
            EditOp::RemoveAttr { name, .. } => name.len() + 2,
        };
        bytes
    }
}

/// [`crate::two_way_sync`] on the delta fast path: indexed conflict
/// detection and dictionary-encoded shipping.
///
/// Semantics are identical to the oracle — same conflicts, same
/// winners under every [`ReconcilePolicy`], same queued pairs, same
/// converged documents (byte-identical; `tests/sync_differential.rs`
/// holds this under seeded random storms). Only the *measured work*
/// differs: [`SyncReport::compared`] counts candidate pairs actually
/// examined instead of `|a| × |b|`, and
/// [`SyncReport::bytes_exchanged`] reflects delta framing.
pub fn delta_two_way_sync(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
) -> Result<SyncReport, SyncError> {
    run_session(a, b, policy, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ops_conflict;
    use crate::two_way_sync;
    use gupster_xml::{parse, Element, MergeKeys};

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    fn pair() -> (Replica, Replica) {
        let base = parse(
            r#"<address-book><item id="1"><name>Mom</name><phone>111</phone></item><item id="2"><name>Bob</name></item></address-book>"#,
        )
        .unwrap();
        (Replica::new("phone", base.clone(), keys()), Replica::new("portal", base, keys()))
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

    /// Asserts two replicas hold the same document and the same sync
    /// bookkeeping: log entries and head, dedup set, clock, and anchor
    /// into `peer`.
    fn assert_same_replica(oracle: &Replica, delta: &Replica, peer: &str) {
        let who = &oracle.id;
        assert_eq!(oracle.doc, delta.doc, "{who}: document diverged from oracle");
        assert_eq!(oracle.log.since(0), delta.log.since(0), "{who}: log entries");
        assert_eq!(oracle.log.head(), delta.log.head(), "{who}: log head");
        assert_eq!(oracle.seen, delta.seen, "{who}: seen set");
        assert_eq!(oracle.clock, delta.clock, "{who}: clock");
        assert_eq!(oracle.anchors.last_seen(peer), delta.anchors.last_seen(peer), "{who}: anchor");
    }

    /// Runs the same session through the oracle and the delta path on
    /// independent replica pairs; asserts identical semantics.
    fn check_against_oracle(edits_a: &[EditOp], edits_b: &[EditOp], policy: ReconcilePolicy) {
        let (mut oa, mut ob) = pair();
        let (mut da, mut db) = pair();
        for op in edits_a {
            let _ = oa.edit(op.clone());
            let _ = da.edit(op.clone());
        }
        for op in edits_b {
            let _ = ob.edit(op.clone());
            let _ = db.edit(op.clone());
        }
        let ro = two_way_sync(&mut oa, &mut ob, policy).unwrap();
        let rd = delta_two_way_sync(&mut da, &mut db, policy).unwrap();
        assert_same_replica(&oa, &da, &ob.id);
        assert_same_replica(&ob, &db, &oa.id);
        assert_eq!(ro.conflicts, rd.conflicts);
        assert_eq!(ro.first_wins, rd.first_wins);
        assert_eq!(ro.queued, rd.queued);
        assert_eq!(ro.shipped_to_first, rd.shipped_to_first);
        assert_eq!(ro.shipped_to_second, rd.shipped_to_second);
        assert_eq!(ro.converged, rd.converged);
        assert_eq!(ro.fast_path, rd.fast_path);
        assert_eq!(ro.slow_sync, rd.slow_sync);
        assert!(rd.compared <= ro.compared, "{} > {}", rd.compared, ro.compared);
        assert!(
            rd.bytes_exchanged <= ro.bytes_exchanged,
            "{} > {}",
            rd.bytes_exchanged,
            ro.bytes_exchanged
        );
    }

    #[test]
    fn matches_oracle_on_disjoint_edits() {
        check_against_oracle(
            &[insert_item("3", "Carol")],
            &[insert_item("4", "Dave")],
            ReconcilePolicy::LastWriterWins,
        );
    }

    #[test]
    fn matches_oracle_on_conflicts_under_every_policy() {
        for policy in [
            ReconcilePolicy::PreferFirst,
            ReconcilePolicy::PreferSecond,
            ReconcilePolicy::LastWriterWins,
            ReconcilePolicy::Manual,
        ] {
            check_against_oracle(
                &[set_name("1", "A"), insert_item("7", "Eve")],
                &[set_name("1", "B"), set_name("2", "Robert"), insert_item("7", "Eva")],
                policy,
            );
        }
    }

    #[test]
    fn matches_oracle_on_insert_delete_conflicts() {
        check_against_oracle(
            &[EditOp::Delete { path: NodePath::root().keyed("item", "id", "2") }],
            &[EditOp::Insert {
                parent: NodePath::root().keyed("item", "id", "2"),
                element: Element::new("phone").with_text("222"),
            }],
            ReconcilePolicy::LastWriterWins,
        );
    }

    #[test]
    fn compared_and_bytes_shrink_on_wide_storms() {
        let (mut da, mut db) = pair();
        let (mut oa, mut ob) = pair();
        // Disjoint hot-path edits: naive compares n×m, index ~0 pairs.
        for i in 0..20 {
            let op = set_name("1", &format!("a{i}"));
            da.edit(op.clone()).unwrap();
            oa.edit(op).unwrap();
            let op = set_name("2", &format!("b{i}"));
            db.edit(op.clone()).unwrap();
            ob.edit(op).unwrap();
        }
        let ro = two_way_sync(&mut oa, &mut ob, ReconcilePolicy::LastWriterWins).unwrap();
        let rd = delta_two_way_sync(&mut da, &mut db, ReconcilePolicy::LastWriterWins).unwrap();
        assert_eq!(ro.compared, 400);
        assert_eq!(rd.compared, 0, "disjoint paths should produce no candidate pairs");
        // Dictionary encoding ships each hot path once.
        assert!(
            rd.bytes_exchanged * 2 <= ro.bytes_exchanged,
            "delta {} vs naive {}",
            rd.bytes_exchanged,
            ro.bytes_exchanged
        );
        assert_eq!(da.doc, oa.doc);
    }

    #[test]
    fn touched_index_candidates_are_supersets_of_conflicts() {
        let (mut a, _) = pair();
        let ops = [
            set_name("1", "x"),
            insert_item("9", "Z"),
            EditOp::Delete { path: NodePath::root().keyed("item", "id", "2") },
            EditOp::SetAttr {
                path: NodePath::root().keyed("item", "id", "1"),
                name: "vip".into(),
                value: "1".into(),
            },
        ];
        for op in &ops {
            let _ = a.edit(op.clone());
        }
        let entries: Vec<LogEntry> = a.log.since(0).to_vec();
        let index = TouchedIndex::build(&entries);
        let mut cands = Vec::new();
        for ea in &entries {
            index.candidates(ea.op.target(), &mut cands);
            for (j, eb) in entries.iter().enumerate() {
                if ops_conflict(&ea.op, &eb.op, &a.keys) {
                    assert!(cands.contains(&j), "missing candidate {j} for {:?}", ea.op);
                }
            }
        }
    }

    #[test]
    fn compaction_coalesces_superseded_edits() {
        let (mut a, _) = pair();
        for i in 0..10 {
            a.edit(set_name("1", &format!("v{i}"))).unwrap();
        }
        let stats = a.compact_log(&[0]);
        assert_eq!(stats.coalesced, 9);
        assert_eq!(stats.dropped(), 9);
        assert_eq!(a.log.len(), 1);
    }
}
