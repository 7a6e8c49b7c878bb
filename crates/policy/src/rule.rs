//! Access-control rules.

use std::fmt;

use gupster_xpath::Path;

use crate::condition::Condition;

/// What an applicable rule does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Grant access to the requested data (within the rule's scope).
    Permit,
    /// Refuse access.
    Deny,
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Effect::Permit => "permit",
            Effect::Deny => "deny",
        })
    }
}

/// One privacy-shield rule: *scope* (which components), *condition*
/// (which contexts) and *effect*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Stable id (unique per user).
    pub id: String,
    /// The profile sub-tree the rule governs.
    pub scope: Path,
    /// When the rule applies.
    pub condition: Condition,
    /// What it does.
    pub effect: Effect,
    /// Higher priority wins among same-effect rules; deny still
    /// overrides permit at equal applicability (privacy first).
    pub priority: i32,
}

impl Rule {
    /// Creates a permit rule.
    pub fn permit(id: &str, scope: Path, condition: Condition) -> Rule {
        Rule { id: id.to_string(), scope, condition, effect: Effect::Permit, priority: 0 }
    }

    /// Creates a deny rule.
    pub fn deny(id: &str, scope: Path, condition: Condition) -> Rule {
        Rule { id: id.to_string(), scope, condition, effect: Effect::Deny, priority: 0 }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} when {} (prio {})",
            self.id, self.effect, self.scope, self.condition, self.priority
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        let r = Rule {
            priority: 5,
            ..Rule::permit(
                "r1",
                Path::parse("/user/presence").unwrap(),
                Condition::parse("relationship='co-worker'").unwrap(),
            )
        };
        assert_eq!(r.effect, Effect::Permit);
        assert_eq!(r.priority, 5);
        let s = r.to_string();
        assert!(s.contains("permit") && s.contains("/user/presence") && s.contains("prio 5"));
    }
}
