//! A small LRU memo for PDP decisions (DESIGN.md §7).
//!
//! The referral pipeline decides the same `(owner, requester context,
//! request path)` triple over and over — HLR-style lookup storms replay
//! identical queries. The memo caches the [`Decision`] keyed by that
//! triple, digested once per lookup so every later step compares
//! integers. Storage, recency and per-owner invalidation are the shared
//! [`OwnerLru`]'s; the memo adds the generation check.
//!
//! Invalidation is by **generation**: every entry is stamped with the
//! [`crate::PolicyRepository::generation`] it was computed under, and a
//! lookup whose stamp disagrees with the repository's current (globally
//! unique) generation is discarded. A PAP write bumps the generation,
//! so no stale decision can ever be served — without the memo having to
//! know *which* rules changed.

use gupster_xpath::{KeyDigest, OwnedKey, OwnerLru, Path};

use crate::context::RequestContext;
use crate::pdp::Decision;

/// The memo key: the profile owner plus two digests — of the owner
/// alone (the route to the owner's entry list) and of the whole
/// `(owner, request context, request path)` triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoKey {
    owner: String,
    owner_digest: u64,
    digest: u64,
}

impl MemoKey {
    /// Builds the key for one decision. The digest folds in every
    /// context facet (requester, relationship, purpose, time, attrs)
    /// and every step of the request path — two requests that could
    /// decide differently never share a key, short of a 64-bit hash
    /// collision between *simultaneously live* keys of one owner.
    /// Nothing is interned: a dropped key leaves no trace.
    pub fn new(owner: &str, ctx: &RequestContext, request: &Path) -> MemoKey {
        let d = KeyDigest::new(owner, &(ctx, request));
        MemoKey { owner: owner.to_string(), owner_digest: d.owner, digest: d.key }
    }
}

impl OwnedKey for MemoKey {
    fn owner(&self) -> &str {
        &self.owner
    }
}

/// A bounded, generation-checked LRU memo of PDP decisions.
#[derive(Debug, Clone)]
pub struct DecisionMemo {
    /// Key → (decision, repository generation at compute time).
    entries: OwnerLru<MemoKey, (Decision, u64)>,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that missed (absent or stale).
    pub misses: u64,
}

impl DecisionMemo {
    /// A memo bounded to `capacity` decisions.
    pub fn new(capacity: usize) -> Self {
        DecisionMemo { entries: OwnerLru::new(capacity), hits: 0, misses: 0 }
    }

    /// Looks up a decision computed under the given repository
    /// generation. Entries stamped with any other generation are stale
    /// (the rules changed since) and are dropped on sight.
    pub fn get(&mut self, key: &MemoKey, generation: u64) -> Option<Decision> {
        match self.entries.get(key.digest, |k| k == key) {
            Some((decision, stamp)) if *stamp == generation => {
                self.hits += 1;
                return Some(decision.clone());
            }
            Some(_) => {
                self.entries.remove(key.digest, |k| k == key);
            }
            None => {}
        }
        self.misses += 1;
        None
    }

    /// Stores a decision computed under the given generation, evicting
    /// the least-recently-used entry at capacity.
    pub fn put(&mut self, key: MemoKey, generation: u64, decision: Decision) {
        let digest = KeyDigest { owner: key.owner_digest, key: key.digest };
        self.entries.put(digest, key, (decision, generation));
    }

    /// Number of memoized decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drops every memoized decision about `owner`'s profile — the
    /// write-through invalidation hook (DESIGN.md §13): a committed
    /// profile write may change what the owner's rules evaluate to
    /// (attribute-conditioned policies), so their decisions must be
    /// recomputed. Walks the owner's own entry list only. Returns how
    /// many entries were dropped.
    pub fn invalidate_owner(&mut self, owner: &str) -> usize {
        self.entries.invalidate_owner(owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::WeekTime;

    fn key(owner: &str, requester: &str, path: &str) -> MemoKey {
        let ctx = RequestContext::query(requester, "family", WeekTime::at(1, 10, 0));
        MemoKey::new(owner, &ctx, &Path::parse(path).unwrap())
    }

    #[test]
    fn hit_miss_and_generation_invalidation() {
        let mut memo = DecisionMemo::new(8);
        let k = key("alice", "mom", "/user/presence");
        assert_eq!(memo.get(&k, 3), None);
        memo.put(k.clone(), 3, Decision::Permit);
        assert_eq!(memo.get(&k, 3), Some(Decision::Permit));
        // The repository moved to generation 7: the entry is stale.
        assert_eq!(memo.get(&k, 7), None);
        assert!(memo.is_empty(), "stale entries are dropped on sight");
        assert_eq!((memo.hits, memo.misses), (1, 2));
    }

    #[test]
    fn distinct_facets_get_distinct_keys() {
        let base = key("alice", "mom", "/user/presence");
        assert_eq!(base, key("alice", "mom", "/user/presence"));
        assert_ne!(base, key("alice", "dad", "/user/presence"));
        assert_ne!(base, key("alice", "mom", "/user/calendar"));
        assert_ne!(base, key("alice", "mom", "/user/presence[@status='busy']"));
        assert_ne!(base, key("bob", "mom", "/user/presence"));
        let late = RequestContext::query("mom", "family", WeekTime::at(6, 23, 0));
        assert_ne!(
            base,
            MemoKey::new("alice", &late, &Path::parse("/user/presence").unwrap())
        );
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut memo = DecisionMemo::new(2);
        let a = key("alice", "a", "/user/presence");
        let b = key("alice", "b", "/user/presence");
        let c = key("alice", "c", "/user/presence");
        memo.put(a.clone(), 1, Decision::Permit);
        memo.put(b.clone(), 1, Decision::Deny);
        // Touch `a` so `b` is the LRU victim.
        assert_eq!(memo.get(&a, 1), Some(Decision::Permit));
        memo.put(c.clone(), 1, Decision::Permit);
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get(&b, 1), None, "LRU victim evicted");
        assert_eq!(memo.get(&a, 1), Some(Decision::Permit));
        assert_eq!(memo.get(&c, 1), Some(Decision::Permit));
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn a_digest_collision_across_owners_is_a_miss_never_a_wrong_answer() {
        let mut memo = DecisionMemo::new(8);
        let alice = key("alice", "mom", "/user/presence");
        // Forge bob's key onto alice's digest (no two real keys are
        // known to collide).
        let bob = MemoKey { digest: alice.digest, ..key("bob", "mom", "/user/presence") };
        memo.put(alice.clone(), 1, Decision::Permit);
        assert_eq!(memo.get(&bob, 1), None);
        memo.put(bob.clone(), 1, Decision::Deny);
        assert_eq!(memo.len(), 1, "the resident gave way");
        assert_eq!(memo.get(&alice, 1), None);
        assert_eq!(memo.get(&bob, 1), Some(Decision::Deny));
        assert_eq!(memo.invalidate_owner("alice"), 0);
        assert_eq!(memo.invalidate_owner("bob"), 1);
        assert!(memo.is_empty());
    }
}
