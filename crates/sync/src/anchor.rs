//! SyncML-style sync anchors.
//!
//! Each side of a sync pair remembers how far into the *peer's* change
//! log it has already incorporated. If a replica's log was rebased
//! (cleared) since the recorded anchor, the anchors no longer line up
//! and the pair must fall back to a slow sync — the same role SyncML's
//! last/next anchors play.
//!
//! The same entry remembers the document stamps (see
//! [`crate::Replica::doc`]) at which the pair was last found equal, so a
//! session between replicas unchanged since then needs no document walk.

use std::collections::HashMap;
use std::sync::Arc;

/// What a replica remembers about one peer.
#[derive(Debug, Clone, Copy, Default)]
struct Anchor {
    /// Last incorporated peer seq.
    seen: u64,
    /// `(own stamp, peer stamp)` when the two documents were last found
    /// equal and canonical; `(0, 0)` (no stamp is 0) when never.
    matched: (u64, u64),
}

/// Anchor store for one replica: peer id → last incorporated peer seq,
/// and the document stamps of the pair's last match. Keyed on the
/// peer's shared id, so a first contact allocates no string.
#[derive(Debug, Clone, Default)]
pub struct Anchors {
    peers: HashMap<Arc<str>, Anchor>,
}

impl Anchors {
    /// Fresh anchors (never synced with anyone).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// How far into `peer`'s log this replica has synced (0 = never).
    pub fn last_seen(&self, peer: &str) -> u64 {
        self.peers.get(peer).map_or(0, |a| a.seen)
    }

    /// Records that this replica has incorporated `peer`'s log up to
    /// `seq`.
    pub(crate) fn advance(&mut self, peer: &Arc<str>, seq: u64) {
        self.peers.entry(peer.clone()).or_default().seen = seq;
    }

    /// True if the recorded anchor is consistent with the peer's current
    /// log head (an anchor *beyond* the head means the peer rebased).
    pub(crate) fn consistent_with(&self, peer: &str, peer_head: u64) -> bool {
        self.last_seen(peer) <= peer_head
    }

    /// Whether this replica's document (stamp `own`) was found equal to
    /// `peer`'s (stamp `theirs`), both canonical, with neither changed
    /// since.
    pub(crate) fn matched(&self, peer: &str, own: u64, theirs: u64) -> bool {
        self.peers.get(peer).is_some_and(|a| a.matched == (own, theirs))
    }

    /// Remembers that the documents stamped `own` (here) and `theirs`
    /// (at `peer`) are equal and canonical.
    pub(crate) fn record_match(&mut self, peer: &Arc<str>, own: u64, theirs: u64) {
        self.peers.entry(peer.clone()).or_default().matched = (own, theirs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_track_peers_independently() {
        let mut a = Anchors::new();
        assert_eq!(a.last_seen("phone"), 0);
        a.advance(&"phone".into(), 5);
        a.advance(&"portal".into(), 2);
        assert_eq!(a.last_seen("phone"), 5);
        assert_eq!(a.last_seen("portal"), 2);
    }

    #[test]
    fn consistency_detects_rebase() {
        let mut a = Anchors::new();
        a.advance(&"phone".into(), 5);
        assert!(a.consistent_with("phone", 7));
        assert!(a.consistent_with("phone", 5));
        assert!(!a.consistent_with("phone", 3)); // peer log shrank: rebase
    }

    #[test]
    fn a_match_is_kept_beside_the_anchor_and_only_for_its_stamps() {
        let mut a = Anchors::new();
        assert!(!a.matched("phone", 0, 0), "never synced is never matched");
        a.record_match(&"phone".into(), 3, 4);
        a.advance(&"phone".into(), 9);
        assert!(a.matched("phone", 3, 4));
        assert!(!a.matched("phone", 3, 5) && !a.matched("phone", 2, 4));
        assert!(!a.matched("portal", 3, 4));
        assert_eq!(a.last_seen("phone"), 9);
    }
}
