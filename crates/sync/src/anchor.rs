//! SyncML-style sync anchors.
//!
//! Each side of a sync pair remembers how far into the *peer's* change
//! log it has already incorporated. If a replica's log was rebased
//! (cleared) since the recorded anchor, the anchors no longer line up
//! and the pair must fall back to a slow sync — the same role SyncML's
//! last/next anchors play.

use std::collections::HashMap;

/// Anchor store for one replica: peer id → last incorporated peer seq.
#[derive(Debug, Clone, Default)]
pub struct Anchors {
    seen: HashMap<String, u64>,
}

impl Anchors {
    /// Fresh anchors (never synced with anyone).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// How far into `peer`'s log this replica has synced (0 = never).
    pub fn last_seen(&self, peer: &str) -> u64 {
        self.seen.get(peer).copied().unwrap_or(0)
    }

    /// Records that this replica has incorporated `peer`'s log up to
    /// `seq`.
    pub(crate) fn advance(&mut self, peer: &str, seq: u64) {
        self.seen.insert(peer.to_string(), seq);
    }

    /// True if the recorded anchor is consistent with the peer's current
    /// log head (an anchor *beyond* the head means the peer rebased).
    pub(crate) fn consistent_with(&self, peer: &str, peer_head: u64) -> bool {
        self.last_seen(peer) <= peer_head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_track_peers_independently() {
        let mut a = Anchors::new();
        assert_eq!(a.last_seen("phone"), 0);
        a.advance("phone", 5);
        a.advance("portal", 2);
        assert_eq!(a.last_seen("phone"), 5);
        assert_eq!(a.last_seen("portal"), 2);
    }

    #[test]
    fn consistency_detects_rebase() {
        let mut a = Anchors::new();
        a.advance("phone", 5);
        assert!(a.consistent_with("phone", 7));
        assert!(a.consistent_with("phone", 5));
        assert!(!a.consistent_with("phone", 3)); // peer log shrank: rebase
    }
}
