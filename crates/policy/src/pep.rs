//! The policy enforcement point (Figure 10: "in charge of asking for a
//! decision and enforcing it").
//!
//! In GUPster's role assignment (§4.6) the GUPster server itself is the
//! PEP: it asks the PDP for a decision and *rewrites the request
//! accordingly* before issuing referrals — "it rewrites the query
//! accordingly (for instance only a subset of the information asked for
//! can be returned)" (§5.3). Every access GUPster mediates — a direct
//! lookup or a pushed notification — is enforced by a [`Pep`].

use gupster_xpath::Path;

use crate::context::RequestContext;
use crate::memo::{DecisionMemo, MemoKey};
use crate::pdp::{Decision, Pdp};
use crate::repository::PolicyRepository;

/// The result of enforcing a decision on a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Enforcement {
    /// Proceed with the request paths listed (the original request, or
    /// its permitted narrowings).
    Proceed(Vec<Path>),
    /// Refuse the request.
    Refused,
}

/// One [`Pep::enforce`] call: the verdict and the work behind it, so
/// callers can count memo hits and charge rule-proportional costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enforced {
    /// What the request may do.
    pub enforcement: Enforcement,
    /// True when the decision memo answered (the PDP was not asked).
    pub memo_hit: bool,
    /// Rules the PDP examined; 0 on a memo hit.
    pub rules_considered: u64,
}

/// The enforcement point: a default-closed [`Pdp`] behind a
/// [`DecisionMemo`]. It turns (repository, owner, request, context)
/// into an [`Enforcement`], asking the PDP only when the memo holds no
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

    /// Decides `request` on `owner`'s profile under `ctx` and returns
    /// the (possibly narrowed) set of request paths that may continue,
    /// or a refusal.
    pub fn enforce(
        &mut self,
        repo: &PolicyRepository,
        owner: &str,
        request: &Path,
        ctx: &RequestContext,
    ) -> Enforced {
        let generation = repo.generation();
        let key = MemoKey::new(owner, ctx, request);
        let (decision, memo_hit, rules_considered) = match self.memo.get(&key, generation) {
            Some(decision) => (decision, true, 0),
            None => {
                let (decision, cost) = self.pdp.decide_with_cost(repo, owner, request, ctx);
                self.memo.put(key, generation, decision.clone());
                (decision, false, cost.rules_considered)
            }
        };
        let enforcement = match decision {
            Decision::Permit => Enforcement::Proceed(vec![request.clone()]),
            Decision::Deny => Enforcement::Refused,
            Decision::PermitNarrowed(parts) => Enforcement::Proceed(parts),
        };
        Enforced { enforcement, memo_hit, rules_considered }
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
        match pep.enforce(&repo, "alice", &request, &family).enforcement {
            Enforcement::Proceed(paths) => {
                assert_eq!(paths.len(), 1);
                assert!(paths[0].to_string().contains("personal"));
            }
            Enforcement::Refused => panic!("family should get the personal split"),
        }

        let stranger = RequestContext::query("spy", "third-party", WeekTime::at(0, 10, 0));
        assert_eq!(pep.enforce(&repo, "alice", &request, &stranger).enforcement, Enforcement::Refused);

        let owner = RequestContext::owner("alice", WeekTime::at(0, 10, 0));
        assert_eq!(
            pep.enforce(&repo, "alice", &request, &owner).enforcement,
            Enforcement::Proceed(vec![request.clone()])
        );
    }

    #[test]
    fn the_memo_answers_until_the_repository_moves() {
        let mut pep = Pep::new(8);
        let mut repo = PolicyRepository::new();
        let presence = Rule::permit(
            "p",
            Path::parse("/user/presence").unwrap(),
            Condition::parse("relationship='co-worker'").unwrap(),
        );
        repo.put("alice", presence);
        let request = Path::parse("/user[@id='alice']/presence").unwrap();
        let rick = RequestContext::query("rick", "co-worker", WeekTime::at(1, 10, 0));

        let first = pep.enforce(&repo, "alice", &request, &rick);
        assert!(!first.memo_hit);
        assert_eq!(first.rules_considered, 1);
        let again = pep.enforce(&repo, "alice", &request, &rick);
        assert_eq!((again.memo_hit, again.rules_considered), (true, 0));
        assert_eq!(again.enforcement, first.enforcement);

        // Withdrawing the permit bumps the generation: refused at once.
        assert!(repo.remove("alice", "p"));
        let after = pep.enforce(&repo, "alice", &request, &rick);
        assert!(!after.memo_hit);
        assert_eq!(after.enforcement, Enforcement::Refused);
        assert_eq!((pep.memo().hits, pep.memo().misses), (1, 2));

        assert_eq!(pep.invalidate_owner("alice"), 1);
        assert!(pep.memo().is_empty());
    }
}
