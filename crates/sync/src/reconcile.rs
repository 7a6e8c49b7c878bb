//! Reconciliation policies (Req. 6: "End-users should be able to
//! provision the policies used to reconcile profile data").

/// How conflicting concurrent edits are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconcilePolicy {
    /// The first replica in the session wins ("prioritizing sites",
    /// §5.3 — e.g. the network's primary copy beats the handset).
    PreferFirst,
    /// The second replica wins.
    PreferSecond,
    /// The edit with the larger Lamport timestamp wins; ties break by
    /// actor id (deterministic on both sides).
    LastWriterWins,
    /// Neither side applies conflicting edits; they are parked for the
    /// user ("or by some more sophisticated method") in
    /// [`SyncReport::queued`](crate::SyncReport::queued), and the session
    /// leaves the pair diverged. Nothing waits for the user's answer: the
    /// next session between the pair finds the documents unequal and
    /// slow-syncs, which settles every parked conflict in the first
    /// replica's favour.
    Manual,
}

impl ReconcilePolicy {
    /// Decides the winner of one conflict: returns `true` when the
    /// *first* replica's edit wins.
    pub(crate) fn first_wins(
        self,
        first_ts: u64,
        first_actor: &str,
        second_ts: u64,
        second_actor: &str,
    ) -> bool {
        match self {
            ReconcilePolicy::PreferFirst => true,
            ReconcilePolicy::PreferSecond => false,
            ReconcilePolicy::LastWriterWins => {
                (first_ts, first_actor) > (second_ts, second_actor)
            }
            // The fast path parks conflicts instead of asking; this is
            // the slow sync that settles them for the first replica.
            ReconcilePolicy::Manual => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_priority() {
        assert!(ReconcilePolicy::PreferFirst.first_wins(1, "a", 99, "b"));
        assert!(!ReconcilePolicy::PreferSecond.first_wins(99, "a", 1, "b"));
    }

    #[test]
    fn lww_with_deterministic_ties() {
        let p = ReconcilePolicy::LastWriterWins;
        assert!(p.first_wins(5, "a", 3, "b"));
        assert!(!p.first_wins(3, "a", 5, "b"));
        // Tie: actor id decides, the same way on both sides.
        assert!(p.first_wins(5, "z", 5, "a"));
        assert!(!p.first_wins(5, "a", 5, "z"));
    }
}
