//! The policy enforcement point (Figure 10: "in charge of asking for a
//! decision and enforcing it").
//!
//! In GUPster's role assignment (§4.6) the GUPster server itself is the
//! PEP: it asks the PDP for a decision and *rewrites the request
//! accordingly* before issuing referrals — "it rewrites the query
//! accordingly (for instance only a subset of the information asked for
//! can be returned)" (§5.3). Every access GUPster mediates — a direct
//! lookup or a pushed notification — is enforced by a [`Pep`].

use std::sync::Arc;

use gupster_xpath::Path;

use crate::context::RequestContext;
use crate::memo::{DecisionMemo, MemoKey};
use crate::pdp::{Decision, Pdp};
use crate::repository::PolicyRepository;

/// One [`Pep::enforce`] call: the verdict, and whether the memo gave
/// it, so callers can count memo hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enforced {
    /// What the request may do: [`Decision::Permit`] proceeds with the
    /// request as given, [`Decision::PermitNarrowed`] with its permitted
    /// narrowings only, and [`Decision::Deny`] refuses it.
    pub decision: Decision,
    /// True when the decision memo answered (the PDP was not asked).
    pub memo_hit: bool,
}

/// The enforcement point: a default-closed [`Pdp`] behind a
/// [`DecisionMemo`]. It turns (repository, owner, request, context)
/// into a [`Decision`], asking the PDP only when the memo holds no
/// decision stamped with the repository's current generation — so a
/// PAP write is enforced on the very next request.
#[derive(Debug, Clone)]
pub struct Pep {
    pdp: Pdp,
    memo: DecisionMemo,
}

impl Pep {
    /// An enforcement point memoizing up to `memo_capacity` decisions.
    pub fn new(memo_capacity: usize) -> Self {
        Pep { pdp: Pdp::new(), memo: DecisionMemo::new(memo_capacity) }
    }

    /// Decides `request` on `owner`'s profile under `ctx`: the whole
    /// request may continue, only its narrowings, or nothing. The memo
    /// key shares the caller's owner id; a permit or a refusal
    /// allocates nothing.
    pub fn enforce(
        &mut self,
        repo: &PolicyRepository,
        owner: &Arc<str>,
        request: &Path,
        ctx: &RequestContext,
    ) -> Enforced {
        let generation = repo.generation();
        let key = MemoKey::shared(owner, ctx, request);
        match self.memo.get(&key, generation) {
            Some(decision) => Enforced { decision, memo_hit: true },
            None => {
                let decision = self.pdp.decide(repo, owner, request, ctx);
                self.memo.put(key, generation, decision.clone());
                Enforced { decision, memo_hit: false }
            }
        }
    }

    /// The decision memo, for occupancy and hit/miss counts.
    pub fn memo(&self) -> &DecisionMemo {
        &self.memo
    }

    /// Drops every memoized decision about `owner`'s profile, walking
    /// the owner's own entries only. Returns how many went.
    pub fn invalidate_owner(&mut self, owner: &str) -> usize {
        self.memo.invalidate_owner(owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::context::WeekTime;
    use crate::rule::Rule;

    #[test]
    fn enforcement_mirrors_decisions() {
        let mut pep = Pep::new(8);
        let alice: Arc<str> = Arc::from("alice");
        let mut repo = PolicyRepository::new();
        repo.put(
            "alice",
            Rule::permit(
                "p",
                Path::parse("/user/address-book/item[@type='personal']").unwrap(),
                Condition::parse("relationship='family'").unwrap(),
            ),
        );
        let request = Path::parse("/user[@id='alice']/address-book").unwrap();

        let family = RequestContext::query("mom", "family", WeekTime::at(0, 10, 0));
        match pep.enforce(&repo, &alice, &request, &family).decision {
            Decision::PermitNarrowed(paths) => {
                assert_eq!(paths.len(), 1);
                assert!(paths[0].to_string().contains("personal"));
            }
            other => panic!("family should get the personal split, got {other:?}"),
        }

        let stranger = RequestContext::query("spy", "third-party", WeekTime::at(0, 10, 0));
        assert_eq!(pep.enforce(&repo, &alice, &request, &stranger).decision, Decision::Deny);

        let owner = RequestContext::owner("alice", WeekTime::at(0, 10, 0));
        assert_eq!(pep.enforce(&repo, &alice, &request, &owner).decision, Decision::Permit);
    }

    #[test]
    fn the_memo_answers_until_the_repository_moves() {
        let mut pep = Pep::new(8);
        let alice: Arc<str> = Arc::from("alice");
        let mut repo = PolicyRepository::new();
        let presence = Rule::permit(
            "p",
            Path::parse("/user/presence").unwrap(),
            Condition::parse("relationship='co-worker'").unwrap(),
        );
        repo.put("alice", presence);
        let request = Path::parse("/user[@id='alice']/presence").unwrap();
        let rick = RequestContext::query("rick", "co-worker", WeekTime::at(1, 10, 0));

        let first = pep.enforce(&repo, &alice, &request, &rick);
        assert!(!first.memo_hit);
        let again = pep.enforce(&repo, &alice, &request, &rick);
        assert!(again.memo_hit);
        assert_eq!(again.decision, first.decision);

        // Withdrawing the permit bumps the generation: refused at once.
        assert!(repo.remove("alice", "p"));
        let after = pep.enforce(&repo, &alice, &request, &rick);
        assert!(!after.memo_hit);
        assert_eq!(after.decision, Decision::Deny);
        assert_eq!((pep.memo().hits, pep.memo().misses), (1, 2));

        assert_eq!(pep.invalidate_owner("alice"), 1);
        assert!(pep.memo().is_empty());
    }
}
