//! The policy enforcement point (Figure 10: "in charge of asking for a
//! decision and enforcing it").
//!
//! In GUPster's role assignment (§4.6) the GUPster server itself is the
//! PEP: it asks the PDP for a decision and *rewrites the request
//! accordingly* before issuing referrals — "it rewrites the query
//! accordingly (for instance only a subset of the information asked for
//! can be returned)" (§5.3).

use gupster_xpath::Path;

use crate::context::RequestContext;
use crate::pdp::{Decision, DecisionCost, Pdp};
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

/// Asks the PDP and enforces its decision: returns the (possibly
/// narrowed) set of request paths that may continue to referral
/// resolution.
pub fn enforce(
    pdp: &Pdp,
    repo: &PolicyRepository,
    owner: &str,
    request: &Path,
    ctx: &RequestContext,
) -> Enforcement {
    enforce_with_cost(pdp, repo, owner, request, ctx).0
}

/// [`enforce`] plus the PDP's rule-evaluation work, so callers can
/// charge a rule-proportional cost to their `policy.decide` span.
pub(crate) fn enforce_with_cost(
    pdp: &Pdp,
    repo: &PolicyRepository,
    owner: &str,
    request: &Path,
    ctx: &RequestContext,
) -> (Enforcement, DecisionCost) {
    let (decision, cost) = pdp.decide_with_cost(repo, owner, request, ctx);
    (apply(decision, request), cost)
}

/// Enforces an already-rendered decision on a request. Split out so the
/// registry's decision memo can replay a cached [`Decision`] without
/// re-asking the PDP.
pub fn apply(decision: Decision, request: &Path) -> Enforcement {
    match decision {
        Decision::Permit => Enforcement::Proceed(vec![request.clone()]),
        Decision::Deny => Enforcement::Refused,
        Decision::PermitNarrowed(parts) => Enforcement::Proceed(parts),
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
        let pdp = Pdp::new();
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
        match enforce(&pdp, &repo, "alice", &request, &family) {
            Enforcement::Proceed(paths) => {
                assert_eq!(paths.len(), 1);
                assert!(paths[0].to_string().contains("personal"));
            }
            Enforcement::Refused => panic!("family should get the personal split"),
        }

        let stranger = RequestContext::query("spy", "third-party", WeekTime::at(0, 10, 0));
        assert_eq!(enforce(&pdp, &repo, "alice", &request, &stranger), Enforcement::Refused);

        let owner = RequestContext::owner("alice", WeekTime::at(0, 10, 0));
        assert_eq!(
            enforce(&pdp, &repo, "alice", &request, &owner),
            Enforcement::Proceed(vec![request.clone()])
        );
    }
}
