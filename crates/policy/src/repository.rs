//! The policy repository (Figure 10: "in charge of storing policies").
//!
//! An owner holds one pointer to a shared, immutable rule set; rules and
//! sets are hash-consed, so owners provisioned alike share one copy
//! (DESIGN.md §7, "Resident state per owner"). Storage carries two
//! fast-path aids:
//!
//! * each rule set's **rule index**, bucketed by the first concrete path
//!   segment below `/user` — `Pdp::decide` asks the owner's set for its
//!   candidates and examines only the bucket of the request's own
//!   component plus the wildcard catch-all, instead of every rule the
//!   user ever provisioned;
//! * a **generation** stamp, bumped to a globally-unique value on every
//!   write, which the decision memo compares to detect stale entries —
//!   a PAP write anywhere invalidates exactly the memoized decisions of
//!   the repository that changed, with no epoch ambiguity even across
//!   metadata clones.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gupster_xml::{NameId, NameInterner};
use gupster_xpath::{NameTest, Path};

use crate::rule::{Effect, Rule};

/// Hands out process-wide unique generation stamps. Starting at 1 keeps
/// 0 free as "never written" for memo consumers.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A rule set's candidate index: rule positions bucketed by the scope's
/// first concrete segment below `/user`. Scopes that leave the core
/// fragment, or are too short to have one, live in the catch-all.
#[derive(Debug, Clone, Default)]
struct RuleIndex {
    by_component: HashMap<NameId, Vec<usize>>,
    catch_all: Vec<usize>,
}

impl RuleIndex {
    fn build(rules: &[Arc<SharedRule>]) -> RuleIndex {
        let mut index = RuleIndex::default();
        for (i, shared) in rules.iter().enumerate() {
            match bucket_for_scope(&shared.rule.scope) {
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

/// One rule as a repository holds it: shared by every rule set that
/// lists it, and keyed in the rule table by what it was made from.
#[derive(Debug)]
pub(crate) struct SharedRule {
    /// The rule's key in [`PolicyRepository`]'s rule table.
    key: Box<[u8]>,
    pub(crate) rule: Rule,
}

impl SharedRule {
    /// A rule not held yet: it enters the rule table with the first set
    /// that lists it.
    fn new(key: &[u8], rule: Rule) -> Arc<SharedRule> {
        Arc::new(SharedRule { key: key.into(), rule })
    }
}

/// An owner's rules in provisioning order and their candidate index.
/// Immutable, and shared by every owner whose rules are the same rules
/// in the same order: a write finds or builds another set.
#[derive(Debug)]
pub(crate) struct RuleSet {
    rules: Box<[Arc<SharedRule>]>,
    index: RuleIndex,
}

impl RuleSet {
    /// The rules, in provisioning order.
    pub(crate) fn rules(&self) -> &[Arc<SharedRule>] {
        &self.rules
    }

    /// Rule positions (into [`RuleSet::rules`]) that can possibly apply
    /// to `request`, in rule order: the bucket of the request's first
    /// component below `/user` plus the catch-all. Sound because two
    /// core-fragment paths of ≥ 2 steps whose second names differ can
    /// neither contain nor overlap one another. Returns `None` when the
    /// request cannot be bucketed (wildcards, or a bare `/user`
    /// request) — the caller must scan every rule.
    pub(crate) fn candidates(&self, request: &Path) -> Option<Candidates<'_>> {
        if !request.is_core_fragment() || request.steps.len() < 2 {
            return None;
        }
        let NameTest::Name(name) = &request.steps[1].test else {
            return None;
        };
        // A name that was never interned cannot have a bucket.
        let bucket = NameInterner::lookup(name).and_then(|id| self.index.by_component.get(&id));
        Some(Candidates {
            catch_all: &self.index.catch_all,
            bucket: bucket.map_or(&[], Vec::as_slice),
        })
    }
}

/// Per-user rule storage. GUPster hosts one repository; hierarchical
/// deployments (§5.1.2) host one per meta-data manager.
///
/// An owner holds one pointer to a shared rule set: its rules in
/// order, with their index. Rules are
/// hash-consed: a rule provisioned from the same texts is parsed once
/// and shared, and owners whose rules are the same rules in the same
/// order share one set and its index. Both intern tables count their
/// holders in this repository — owners for a set, sets for a rule — and
/// drop an entry when its count reaches zero, so they hold only what
/// some owner uses. A clone copies the tables and shares every rule and
/// set with the original.
#[derive(Debug, Clone, Default)]
pub struct PolicyRepository {
    owners: HashMap<Box<str>, Arc<RuleSet>>,
    /// rule key → the rule, and the interned sets listing it.
    rules: HashMap<Box<[u8]>, (Arc<SharedRule>, usize)>,
    /// The addresses of a set's rules → the set, and the owners
    /// holding it.
    sets: HashMap<Box<[usize]>, (Arc<RuleSet>, usize)>,
    generation: u64,
    /// Reused key buffers for provisioning.
    rule_key: Vec<u8>,
    set_key: Vec<usize>,
}

/// The addresses of `rules`, which key their set in the set table.
fn set_key<'r>(key: &mut Vec<usize>, rules: impl Iterator<Item = &'r Arc<SharedRule>>) {
    key.clear();
    key.extend(rules.map(|r| Arc::as_ptr(r) as usize));
}

impl PolicyRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// A user's rule set, if they have any rule.
    pub(crate) fn rule_set(&self, user: &str) -> Option<&RuleSet> {
        self.owners.get(user).map(|set| &**set)
    }

    /// All rules for a user (possibly empty).
    pub(crate) fn rules_for(&self, user: &str) -> &[Arc<SharedRule>] {
        self.rule_set(user).map_or(&[], RuleSet::rules)
    }

    /// The repository's write generation. Bumped to a process-wide
    /// unique value on every mutation; a memoized decision stamped with
    /// an older generation is stale. `0` means "never written".
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// How many distinct rules and rule sets the repository holds: one
    /// of each per distinct rule and per distinct rule list that some
    /// owner holds now, however many owners share them.
    pub fn interned(&self) -> (usize, usize) {
        (self.rules.len(), self.sets.len())
    }

    /// Inserts a rule, replacing any rule with the same id.
    pub fn put(&mut self, user: &str, rule: Rule) {
        // Derived `Debug` output spells every field, strings escaped, so
        // it keys distinct rules apart; the leading byte keeps these
        // keys apart from the PAP's text keys.
        let key = [b"R", format!("{rule:?}").as_bytes()].concat();
        let shared = self.held_rule(&key).unwrap_or_else(|| SharedRule::new(&key, rule));
        self.put_shared(user, shared);
    }

    /// Provisions the rule with these texts, parsing them with `parse`
    /// only if no rule provisioned from the same texts is held.
    pub(crate) fn provision<E>(
        &mut self,
        user: &str,
        (id, effect, scope, condition, priority): (&str, &Effect, &str, &str, i32),
        parse: impl FnOnce() -> Result<Rule, E>,
    ) -> Result<(), E> {
        // Length-prefixed texts, so no two text tuples share a key.
        let mut key = std::mem::take(&mut self.rule_key);
        key.clear();
        key.push(b'T');
        for text in [id, scope, condition] {
            key.extend_from_slice(&(text.len() as u64).to_le_bytes());
            key.extend_from_slice(text.as_bytes());
        }
        key.push(matches!(effect, Effect::Deny) as u8);
        key.extend_from_slice(&priority.to_le_bytes());
        let shared = match self.held_rule(&key) {
            Some(shared) => Ok(shared),
            None => parse().map(|rule| SharedRule::new(&key, rule)),
        };
        self.rule_key = key;
        self.put_shared(user, shared?);
        Ok(())
    }

    /// The held rule keyed `key`, if some set lists one.
    fn held_rule(&self, key: &[u8]) -> Option<Arc<SharedRule>> {
        self.rules.get(key).map(|(shared, _)| Arc::clone(shared))
    }

    /// Gives `user` their rules with `rule` in place of the one with its
    /// id, or after the others when there is none.
    fn put_shared(&mut self, user: &str, rule: Arc<SharedRule>) {
        let held = self.owners.get(user).cloned();
        let held = held.as_ref().map_or(&[][..], |set| set.rules());
        let slot = held.iter().position(|r| r.rule.id == rule.rule.id);
        let rules = held.iter().enumerate().map(|(i, r)| if Some(i) == slot { &rule } else { r });
        self.assign(user, rules.chain(slot.is_none().then_some(&rule)));
        self.generation = next_generation();
    }

    /// Gives `user` the set of `rules` — the held set listing them, or a
    /// new one — and releases the set they held. No rules, no set.
    fn assign<'r>(
        &mut self,
        user: &str,
        rules: impl Iterator<Item = &'r Arc<SharedRule>> + Clone,
    ) {
        set_key(&mut self.set_key, rules.clone());
        let set = if self.set_key.is_empty() {
            None
        } else if let Some((set, holders)) = self.sets.get_mut(self.set_key.as_slice()) {
            *holders += 1;
            Some(Arc::clone(set))
        } else {
            let rules: Box<[Arc<SharedRule>]> = rules.cloned().collect();
            let index = RuleIndex::build(&rules);
            for r in rules.iter() {
                match self.rules.get_mut(&r.key) {
                    Some((_, sets)) => *sets += 1,
                    None => {
                        self.rules.insert(r.key.clone(), (Arc::clone(r), 1));
                    }
                }
            }
            let set = Arc::new(RuleSet { rules, index });
            self.sets.insert(self.set_key.as_slice().into(), (Arc::clone(&set), 1));
            Some(set)
        };
        let released = match (set, self.owners.get_mut(user)) {
            (Some(set), Some(held)) => Some(std::mem::replace(held, set)),
            (Some(set), None) => {
                self.owners.insert(user.into(), set);
                None
            }
            (None, _) => self.owners.remove(user),
        };
        if let Some(set) = released {
            self.release(&set);
        }
    }

    /// An owner let go of `set`: the last owner's release drops it from
    /// the set table, and each of its rules no other set lists from the
    /// rule table.
    fn release(&mut self, set: &RuleSet) {
        set_key(&mut self.set_key, set.rules.iter());
        let Some((_, holders)) = self.sets.get_mut(self.set_key.as_slice()) else { return };
        *holders -= 1;
        if *holders > 0 {
            return;
        }
        self.sets.remove(self.set_key.as_slice());
        for r in set.rules.iter() {
            if let Some((_, sets)) = self.rules.get_mut(&r.key) {
                *sets -= 1;
                if *sets == 0 {
                    self.rules.remove(&r.key);
                }
            }
        }
    }

    /// Removes a rule by id; returns whether it existed.
    pub fn remove(&mut self, user: &str, rule_id: &str) -> bool {
        let Some(held) = self.owners.get(user).cloned() else { return false };
        if !held.rules.iter().any(|r| r.rule.id == rule_id) {
            return false;
        }
        self.assign(user, held.rules.iter().filter(|r| r.rule.id != rule_id));
        self.generation = next_generation();
        true
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

    /// The candidate positions in `user`'s rule set, listed.
    fn candidates(repo: &PolicyRepository, user: &str, req: &Path) -> Option<Vec<usize>> {
        repo.rule_set(user).expect("user has rules").candidates(req).map(|c| {
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
        assert_eq!(repo.rules_for("alice")[0].rule.priority, 9);
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
        // Unknown user: no rule set, so nothing to weigh.
        assert!(repo.rule_set("ghost").is_none());
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
        assert_eq!(repo.rules_for("alice")[0].rule.id, "r1");
    }

    #[test]
    fn owners_provisioned_alike_share_one_set() {
        let mut repo = PolicyRepository::new();
        for user in ["alice", "bob", "carol"] {
            repo.put(user, scoped("r0", "/user/presence"));
            repo.put(user, scoped("r1", "/user/calendar"));
        }
        assert_eq!(repo.interned(), (2, 1), "the intermediate one-rule set went");
        let alice = repo.rule_set("alice").unwrap();
        assert!(std::ptr::eq(alice, repo.rule_set("carol").unwrap()));

        // Copy on write: bob's replacement leaves the others' set alone.
        repo.put("bob", scoped("r1", "/user/wallet"));
        assert_eq!(repo.rules_for("alice")[1].rule.scope.to_string(), "/user/calendar");
        assert_eq!(repo.rules_for("bob")[1].rule.scope.to_string(), "/user/wallet");
        assert_eq!(repo.interned(), (3, 2));

        // A clone shares every set; its writes stay its own.
        let mut mirror = repo.clone();
        assert!(std::ptr::eq(mirror.rule_set("alice").unwrap(), repo.rule_set("alice").unwrap()));
        assert!(mirror.remove("alice", "r0"));
        assert_eq!(repo.count_for("alice"), 2);

        // Every holder gone: both tables are empty again.
        for user in ["alice", "bob", "carol"] {
            assert!(repo.remove(user, "r0"));
            assert!(repo.remove(user, "r1"));
        }
        assert_eq!(repo.interned(), (0, 0));
        assert!(repo.rule_set("alice").is_none());
    }
}
