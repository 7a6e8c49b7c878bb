//! The policy administration point (Figure 10: "in charge of
//! provisioning the rules … and other administrative tasks (e.g.,
//! checking that the rules are valid)").

use std::fmt;

use gupster_xpath::Path;

use crate::condition::Condition;
use crate::repository::PolicyRepository;
use crate::rule::{Effect, Rule};

/// Why a rule was rejected at provisioning time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// The scope expression did not parse.
    BadScope(String),
    /// The condition expression did not parse.
    BadCondition(String),
    /// The scope targets the whole document root, which would make the
    /// rule govern everything including the shield's own meta-data.
    ScopeTooBroad,
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::BadScope(e) => write!(f, "invalid scope: {e}"),
            RuleError::BadCondition(e) => write!(f, "invalid condition: {e}"),
            RuleError::ScopeTooBroad => f.write_str("scope must name a component, not '/'"),
        }
    }
}

impl std::error::Error for RuleError {}

/// The administration point: the interface through which end-users
/// provision their privacy shield (Req. 9: "end-users can specify
/// (possibly intricate) policies").
#[derive(Debug, Default)]
pub struct Pap {
    /// The repository this PAP administers.
    pub repository: PolicyRepository,
}

impl Pap {
    /// A PAP over a fresh repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates and provisions a rule from its textual form.
    pub fn provision(
        &mut self,
        user: &str,
        rule_id: &str,
        effect: Effect,
        scope: &str,
        condition: &str,
        priority: i32,
    ) -> Result<(), RuleError> {
        // A rule provisioned from the same texts before is shared, not
        // parsed again.
        let texts = (rule_id, &effect, scope, condition, priority);
        self.repository.provision(user, texts, || {
            Self::validate(rule_id, effect.clone(), scope, condition, priority)
        })
    }

    /// Validation without provisioning (the PAP's "checking that the
    /// rules are valid").
    pub(crate) fn validate(
        rule_id: &str,
        effect: Effect,
        scope: &str,
        condition: &str,
        priority: i32,
    ) -> Result<Rule, RuleError> {
        let scope = Path::parse(scope).map_err(|e| RuleError::BadScope(e.to_string()))?;
        if scope.is_empty() {
            return Err(RuleError::ScopeTooBroad);
        }
        let condition =
            Condition::parse(condition).map_err(RuleError::BadCondition)?;
        Ok(Rule { id: rule_id.to_string(), scope, condition, effect, priority })
    }

    /// Removes a rule.
    pub fn withdraw(&mut self, user: &str, rule_id: &str) -> bool {
        self.repository.remove(user, rule_id)
    }

    /// Lists a user's rules in textual form (the self-provisioning UI).
    pub fn list(&self, user: &str) -> Vec<String> {
        self.repository.rules_for(user).iter().map(|r| r.rule.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provision_valid_rule() {
        let mut pap = Pap::new();
        pap.provision(
            "alice",
            "r1",
            Effect::Permit,
            "/user/presence",
            "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
            0,
        )
        .unwrap();
        assert_eq!(pap.repository.count_for("alice"), 1);
        assert_eq!(pap.list("alice").len(), 1);
        assert!(pap.list("alice")[0].contains("co-worker"));
    }

    #[test]
    fn bad_scope_rejected() {
        let mut pap = Pap::new();
        let err = pap.provision("alice", "r", Effect::Permit, "not a path", "true", 0);
        assert!(matches!(err, Err(RuleError::BadScope(_))));
        let err = pap.provision("alice", "r", Effect::Permit, "/", "true", 0);
        assert!(matches!(err, Err(RuleError::ScopeTooBroad)));
    }

    #[test]
    fn bad_condition_rejected() {
        let mut pap = Pap::new();
        let err =
            pap.provision("alice", "r", Effect::Permit, "/user/presence", "purpose='spy'", 0);
        assert!(matches!(err, Err(RuleError::BadCondition(_))));
        assert_eq!(pap.repository.count_for("alice"), 0);
    }

    #[test]
    fn withdraw() {
        let mut pap = Pap::new();
        pap.provision("alice", "r1", Effect::Deny, "/user/wallet", "true", 0).unwrap();
        assert!(pap.withdraw("alice", "r1"));
        assert!(!pap.withdraw("alice", "r1"));
    }
}
