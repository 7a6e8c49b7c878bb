//! A mirrored GUPster constellation.
//!
//! §4.2: the "central repository has to be understood from a logical
//! point of view and may be implemented as a constellation of connected
//! servers … a family of mirrored servers hosted by a consortium of
//! enterprises" (the UDDI model); §5.3 Reliability: "Reliability will be
//! achieved by having the logical single entry point be implemented by a
//! constellation of GUPster servers."
//!
//! [`Constellation`] replicates every write (registration, relationship,
//! policy provisioning) to all *reachable* mirrors, serves lookups from
//! the first reachable one, and resynchronizes a mirror that comes back
//! from an outage by copying meta-data from a healthy peer
//! (anti-entropy).

use gupster_policy::{Effect, Purpose, WeekTime};
use gupster_schema::Schema;
use gupster_store::StoreId;
use gupster_xpath::Path;

use crate::error::GupsterError;
use crate::registry::{Gupster, LookupOutcome};

/// A family of mirrored GUPster servers behind one logical entry point.
#[derive(Debug)]
pub struct Constellation {
    mirrors: Vec<Gupster>,
    reachable: Vec<bool>,
    /// Mirrors marked dirty (missed writes while down).
    dirty: Vec<bool>,
    /// Lookups served per mirror (load observation).
    pub served: Vec<u64>,
}

impl Constellation {
    /// Builds `n` mirrors sharing one schema and signing key.
    pub fn new(schema: Schema, key: &[u8], n: usize) -> Self {
        let n = n.max(1);
        Constellation {
            mirrors: (0..n).map(|_| Gupster::new(schema.clone(), key)).collect(),
            reachable: vec![true; n],
            dirty: vec![false; n],
            served: vec![0; n],
        }
    }

    /// Number of mirrors.
    pub fn len(&self) -> usize {
        self.mirrors.len()
    }

    /// True when there is no mirror (never happens via [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.mirrors.is_empty()
    }

    /// Marks a mirror down (outage injection).
    pub fn set_down(&mut self, mirror: usize) {
        self.reachable[mirror] = false;
    }

    /// Brings a mirror back and resynchronizes it from the first healthy
    /// peer.
    pub fn recover(&mut self, mirror: usize) {
        self.reachable[mirror] = true;
        if !self.dirty[mirror] {
            return;
        }
        if let Some(healthy) = (0..self.mirrors.len())
            .find(|&i| i != mirror && self.reachable[i] && !self.dirty[i])
        {
            let (a, b) = if healthy < mirror {
                let (left, right) = self.mirrors.split_at_mut(mirror);
                (&left[healthy], &mut right[0])
            } else {
                let (left, right) = self.mirrors.split_at_mut(healthy);
                (&right[0], &mut left[mirror])
            };
            b.clone_metadata_from(a);
            self.dirty[mirror] = false;
        }
    }

    /// How many mirrors are currently reachable.
    pub fn healthy(&self) -> usize {
        self.reachable.iter().filter(|r| **r).count()
    }

    /// Applies a write to every reachable mirror. Returns `None` when
    /// **no** mirror was reachable (the write did not happen anywhere, so
    /// nobody is marked dirty — the caller must surface the failure);
    /// otherwise down mirrors are marked dirty for later anti-entropy.
    fn broadcast<E>(
        &mut self,
        mut f: impl FnMut(&mut Gupster) -> Result<(), E>,
    ) -> Option<Result<(), E>> {
        if self.healthy() == 0 {
            return None;
        }
        let mut result = Ok(());
        for i in 0..self.mirrors.len() {
            if self.reachable[i] {
                if let Err(e) = f(&mut self.mirrors[i]) {
                    result = Err(e);
                }
            } else {
                self.dirty[i] = true;
            }
        }
        Some(result)
    }

    /// Registers a component on every reachable mirror. Fails when the
    /// whole constellation is unreachable.
    pub fn register_component(
        &mut self,
        user: &str,
        path: Path,
        store: StoreId,
    ) -> Result<(), GupsterError> {
        self.broadcast(|g| g.register_component(user, path.clone(), store.clone()))
            .unwrap_or_else(|| Err(GupsterError::Store("no reachable GUPster mirror".into())))
    }


    /// Provisions a relationship everywhere. Returns `false` when the
    /// whole constellation was down.
    pub fn set_relationship(&mut self, owner: &str, requester: &str, relationship: &str) -> bool {
        self.broadcast::<()>(|g| {
            g.set_relationship(owner, requester, relationship);
            Ok(())
        })
        .is_some()
    }

    /// Provisions a shield rule everywhere. `Ok(false)` means the whole
    /// constellation was down (nothing was provisioned).
    #[allow(clippy::too_many_arguments)]
    pub fn provision_rule(
        &mut self,
        user: &str,
        rule_id: &str,
        effect: Effect,
        scope: &str,
        condition: &str,
        priority: i32,
    ) -> Result<bool, gupster_policy::RuleError> {
        match self
            .broadcast(|g| g.pap.provision(user, rule_id, effect.clone(), scope, condition, priority))
        {
            None => Ok(false),
            Some(Ok(())) => Ok(true),
            Some(Err(e)) => Err(e),
        }
    }

    /// Serves a lookup from the first reachable **clean** mirror. Dirty
    /// mirrors (ones that missed writes) are deliberately skipped even
    /// when reachable: a mirror with a stale policy repository could
    /// leak data a newly provisioned deny rule protects. Errors with
    /// [`GupsterError::Store`] only if no clean mirror is reachable.
    pub fn lookup(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        now: u64,
    ) -> Result<LookupOutcome, GupsterError> {
        for i in 0..self.mirrors.len() {
            if self.reachable[i] && !self.dirty[i] {
                self.served[i] += 1;
                return self.mirrors[i].lookup(owner, request, requester, purpose, time, now);
            }
        }
        Err(GupsterError::Store("no reachable GUPster mirror".into()))
    }

    /// Read access to a mirror (for inspection in tests/experiments).
    pub fn mirror(&self, i: usize) -> &Gupster {
        &self.mirrors[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_schema::gup_schema;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn noon() -> WeekTime {
        WeekTime::at(2, 12, 0)
    }

    fn constellation() -> Constellation {
        let mut c = Constellation::new(gup_schema(), b"uddi", 3);
        c.register_component("alice", p("/user[@id='alice']/presence"), StoreId::new("s1"))
            .unwrap();
        c
    }

    #[test]
    fn writes_replicate_to_all_mirrors() {
        let c = constellation();
        for i in 0..3 {
            assert_eq!(c.mirror(i).coverage_of("alice").unwrap().registration_count(), 1);
        }
    }

    #[test]
    fn lookup_survives_outages() {
        let mut c = constellation();
        c.set_down(0);
        c.set_down(1);
        assert_eq!(c.healthy(), 1);
        let out = c.lookup("alice", &p("/user[@id='alice']/presence"), "alice", Purpose::Query, noon(), 0);
        assert!(out.is_ok());
        assert_eq!(c.served[2], 1);
        c.set_down(2);
        let out = c.lookup("alice", &p("/user[@id='alice']/presence"), "alice", Purpose::Query, noon(), 0);
        assert!(matches!(out, Err(GupsterError::Store(_))));
    }

    #[test]
    fn recovery_resynchronizes_missed_writes() {
        let mut c = constellation();
        c.set_down(1);
        // A write the downed mirror misses.
        c.register_component("alice", p("/user[@id='alice']/calendar"), StoreId::new("s2"))
            .unwrap();
        assert_eq!(c.mirror(1).coverage_of("alice").unwrap().registration_count(), 1);
        c.recover(1);
        // Anti-entropy copied the missed registration.
        assert_eq!(c.mirror(1).coverage_of("alice").unwrap().registration_count(), 2);
        // A dirty-but-up mirror is skipped for lookups until resynced;
        // after recovery it serves again.
        c.set_down(0);
        c.set_down(2);
        let out = c.lookup("alice", &p("/user[@id='alice']/calendar"), "alice", Purpose::Query, noon(), 0);
        assert!(out.is_ok());
        assert_eq!(c.served[1], 1);
    }

    #[test]
    fn policies_and_relationships_replicate() {
        let mut c = constellation();
        c.set_relationship("alice", "rick", "co-worker");
        c.provision_rule(
            "alice",
            "r1",
            Effect::Permit,
            "/user/presence",
            "relationship='co-worker'",
            0,
        )
        .unwrap();
        // Kill the first two mirrors; the third still enforces.
        c.set_down(0);
        c.set_down(1);
        let ok = c.lookup("alice", &p("/user[@id='alice']/presence"), "rick", Purpose::Query, noon(), 0);
        assert!(ok.is_ok());
        let denied =
            c.lookup("alice", &p("/user[@id='alice']/presence"), "spy", Purpose::Query, noon(), 0);
        assert!(matches!(denied, Err(GupsterError::AccessDenied { .. })));
    }

    #[test]
    fn tokens_from_any_mirror_verify_anywhere() {
        let mut c = constellation();
        let out = c
            .lookup("alice", &p("/user[@id='alice']/presence"), "alice", Purpose::Query, noon(), 5)
            .unwrap();
        assert!(c.mirror(1).signer().verify(&out.referral.token, 6).is_ok());
    }
}
