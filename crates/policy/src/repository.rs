//! The policy repository (Figure 10: "in charge of storing policies").
//!
//! Storage carries two fast-path aids (DESIGN.md §7):
//!
//! * a per-user **rule index** bucketed by the first concrete path
//!   segment below `/user` — `Pdp::decide` asks for
//!   [`PolicyRepository::candidate_indices`] and examines only the
//!   bucket of the request's own component plus the wildcard catch-all,
//!   instead of every rule the user ever provisioned;
//! * a **generation** stamp, bumped to a globally-unique value on every
//!   write, which the decision memo compares to detect stale entries —
//!   a PAP write anywhere invalidates exactly the memoized decisions of
//!   the repository that changed, with no epoch ambiguity even across
//!   metadata clones.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use gupster_xml::{NameId, NameInterner};
use gupster_xpath::{NameTest, Path};

use crate::rule::Rule;

/// Hands out process-wide unique generation stamps. Starting at 1 keeps
/// 0 free as "never written" for memo consumers.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The per-user candidate index: rule positions bucketed by the scope's
/// first concrete segment below `/user`. Scopes that leave the core
/// fragment, or are too short to have one, live in the catch-all.
#[derive(Debug, Clone, Default)]
struct RuleIndex {
    by_component: HashMap<NameId, Vec<usize>>,
    catch_all: Vec<usize>,
}

impl RuleIndex {
    fn build(rules: &[Rule]) -> RuleIndex {
        let mut index = RuleIndex::default();
        for (i, rule) in rules.iter().enumerate() {
            match bucket_for_scope(&rule.scope) {
                Some(name) => index.by_component.entry(name).or_default().push(i),
                None => index.catch_all.push(i),
            }
        }
        index
    }
}

/// The bucket a rule scope belongs to: the interned name of its second
/// step (`/user/presence` → `presence`). `None` routes to the
/// catch-all: wildcard scopes, attribute-axis components and scopes of
/// a single step (`/user`) can relate to any request.
fn bucket_for_scope(scope: &Path) -> Option<NameId> {
    if !scope.is_core_fragment() || scope.steps.len() < 2 {
        return None;
    }
    match &scope.steps[1].test {
        NameTest::Name(name) => Some(NameInterner::intern(name)),
        _ => None,
    }
}

/// A request's candidate rule positions: its component's bucket and the
/// catch-all, both ascending, merged into rule order as they are read —
/// so the indexed decision weighs rules in the exact order the naive
/// scan would, and listing them allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Candidates<'a> {
    catch_all: &'a [usize],
    bucket: &'a [usize],
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        // A rule sits in one list only, so the heads never tie.
        let side = match (self.catch_all.first(), self.bucket.first()) {
            (Some(a), Some(b)) if b < a => &mut self.bucket,
            (Some(_), _) => &mut self.catch_all,
            (None, _) => &mut self.bucket,
        };
        let (&i, rest) = side.split_first()?;
        *side = rest;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.catch_all.len() + self.bucket.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Candidates<'_> {}

/// Per-user rule storage. GUPster hosts one repository; hierarchical
/// deployments (§5.1.2) host one per meta-data manager.
#[derive(Debug, Clone, Default)]
pub struct PolicyRepository {
    rules: BTreeMap<String, Vec<Rule>>,
    index: BTreeMap<String, RuleIndex>,
    generation: u64,
}

impl PolicyRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// All rules for a user (possibly empty).
    pub(crate) fn rules_for(&self, user: &str) -> &[Rule] {
        self.rules.get(user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The repository's write generation. Bumped to a process-wide
    /// unique value on every mutation; a memoized decision stamped with
    /// an older generation is stale. `0` means "never written".
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Rule positions (into [`PolicyRepository::rules_for`]) that can
    /// possibly apply to `request`, in rule order: the bucket of the
    /// request's first component below `/user` plus the catch-all.
    /// Sound because two core-fragment paths of ≥ 2 steps whose second
    /// names differ can neither contain nor overlap one another.
    /// Returns `None` when the request cannot be bucketed (wildcards,
    /// or a bare `/user` request) — the caller must scan every rule.
    pub(crate) fn candidate_indices(&self, user: &str, request: &Path) -> Option<Candidates<'_>> {
        if !request.is_core_fragment() || request.steps.len() < 2 {
            return None;
        }
        let NameTest::Name(name) = &request.steps[1].test else {
            return None;
        };
        let Some(index) = self.index.get(user) else {
            return Some(Candidates { catch_all: &[], bucket: &[] });
        };
        // A name that was never interned cannot have a bucket.
        let bucket = NameInterner::lookup(name).and_then(|id| index.by_component.get(&id));
        Some(Candidates { catch_all: &index.catch_all, bucket: bucket.map_or(&[], Vec::as_slice) })
    }

    /// Inserts a rule, replacing any rule with the same id.
    pub fn put(&mut self, user: &str, rule: Rule) {
        let rules = self.rules.entry(user.to_string()).or_default();
        match rules.iter_mut().find(|r| r.id == rule.id) {
            Some(slot) => *slot = rule,
            None => rules.push(rule),
        }
        self.index.insert(user.to_string(), RuleIndex::build(rules));
        self.generation = next_generation();
    }

    /// Removes a rule by id; returns whether it existed.
    pub fn remove(&mut self, user: &str, rule_id: &str) -> bool {
        match self.rules.get_mut(user) {
            Some(rules) => {
                let before = rules.len();
                rules.retain(|r| r.id != rule_id);
                let removed = rules.len() != before;
                if removed {
                    self.index.insert(user.to_string(), RuleIndex::build(rules));
                    self.generation = next_generation();
                }
                removed
            }
            None => false,
        }
    }

    /// Number of rules stored for a user.
    pub fn count_for(&self, user: &str) -> usize {
        self.rules_for(user).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use gupster_xpath::Path;

    fn rule(id: &str) -> Rule {
        Rule::permit(id, Path::parse("/user/presence").unwrap(), Condition::True)
    }

    fn scoped(id: &str, scope: &str) -> Rule {
        Rule::permit(id, Path::parse(scope).unwrap(), Condition::True)
    }

    /// The candidate positions, listed.
    fn candidates(repo: &PolicyRepository, user: &str, req: &Path) -> Option<Vec<usize>> {
        repo.candidate_indices(user, req).map(|c| {
            assert_eq!(c.len(), c.clone().count(), "the length is the count");
            c.collect()
        })
    }

    #[test]
    fn put_replaces_same_id() {
        let mut repo = PolicyRepository::new();
        repo.put("alice", rule("r1"));
        repo.put("alice", rule("r2"));
        let mut updated = rule("r1");
        updated.priority = 9;
        repo.put("alice", updated);
        assert_eq!(repo.count_for("alice"), 2);
        assert_eq!(repo.rules_for("alice")[0].priority, 9);
    }

    #[test]
    fn remove_by_id() {
        let mut repo = PolicyRepository::new();
        repo.put("alice", rule("r1"));
        assert!(repo.remove("alice", "r1"));
        assert!(!repo.remove("alice", "r1"));
        assert!(!repo.remove("ghost", "r1"));
        assert_eq!(repo.count_for("alice"), 0);
    }

    #[test]
    fn per_user_isolation() {
        let mut repo = PolicyRepository::new();
        repo.put("alice", rule("r1"));
        repo.put("bob", rule("r1"));
        assert_eq!(repo.count_for("alice"), 1);
        assert_eq!(repo.count_for("bob"), 1);
        assert!(repo.rules_for("carol").is_empty());
    }

    #[test]
    fn generation_bumps_on_writes_only() {
        let mut repo = PolicyRepository::new();
        assert_eq!(repo.generation(), 0);
        repo.put("alice", rule("r1"));
        let g1 = repo.generation();
        assert_ne!(g1, 0);
        assert!(!repo.remove("alice", "ghost"));
        assert_eq!(repo.generation(), g1, "no-op remove keeps the stamp");
        assert!(repo.remove("alice", "r1"));
        assert_ne!(repo.generation(), g1);
        // Two repositories never share a written generation.
        let mut other = PolicyRepository::new();
        other.put("bob", rule("r1"));
        assert_ne!(other.generation(), repo.generation());
    }

    #[test]
    fn candidates_bucket_by_component_and_keep_rule_order() {
        let mut repo = PolicyRepository::new();
        repo.put("alice", scoped("r0", "/user/presence"));
        repo.put("alice", scoped("r1", "/user/calendar"));
        repo.put("alice", scoped("r2", "//item")); // wildcard → catch-all
        repo.put("alice", scoped("r3", "/user")); // too short → catch-all
        repo.put("alice", scoped("r4", "/user/presence/status"));

        let req = Path::parse("/user/presence").unwrap();
        assert_eq!(candidates(&repo, "alice", &req), Some(vec![0, 2, 3, 4]));
        let req = Path::parse("/user/calendar/event[@id='e']").unwrap();
        assert_eq!(candidates(&repo, "alice", &req), Some(vec![1, 2, 3]));
        let req = Path::parse("/user/never-ruled-component").unwrap();
        assert_eq!(candidates(&repo, "alice", &req), Some(vec![2, 3]));
        // Unbucketable requests force the full scan.
        assert_eq!(candidates(&repo, "alice", &Path::parse("/user").unwrap()), None);
        assert_eq!(candidates(&repo, "alice", &Path::parse("//presence").unwrap()), None);
        // Unknown user: empty candidate set, not a scan.
        assert_eq!(candidates(&repo, "ghost", &req), Some(Vec::new()));
    }

    #[test]
    fn index_follows_replacement_and_removal() {
        let mut repo = PolicyRepository::new();
        repo.put("alice", scoped("r0", "/user/presence"));
        repo.put("alice", scoped("r1", "/user/calendar"));
        // Replace r0 with a calendar scope: presence bucket must empty.
        repo.put("alice", scoped("r0", "/user/calendar"));
        let presence = Path::parse("/user/presence").unwrap();
        let calendar = Path::parse("/user/calendar").unwrap();
        assert_eq!(candidates(&repo, "alice", &presence), Some(Vec::new()));
        assert_eq!(candidates(&repo, "alice", &calendar), Some(vec![0, 1]));
        assert!(repo.remove("alice", "r0"));
        assert_eq!(candidates(&repo, "alice", &calendar), Some(vec![0]));
        assert_eq!(repo.rules_for("alice")[0].id, "r1");
    }
}
