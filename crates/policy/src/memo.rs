//! A small LRU memo for PDP decisions (DESIGN.md §7).
//!
//! The referral pipeline decides the same `(owner, requester context,
//! request path)` triple over and over — HLR-style lookup storms replay
//! identical queries. The memo caches the [`Decision`] keyed by that
//! triple, digested once per lookup so every later step compares
//! integers.
//!
//! Every operation costs what it touches, never the population: entries
//! live in a slab threaded by two intrusive lists — one in recency order
//! (the LRU victim is its tail) and one per profile owner (a profile
//! write drops that owner's decisions without visiting anyone else's) —
//! behind an index from key digest to slot. The key is stored once, in
//! its slot.
//!
//! Invalidation is by **generation**: every entry is stamped with the
//! [`crate::PolicyRepository::generation`] it was computed under, and a
//! lookup whose stamp disagrees with the repository's current (globally
//! unique) generation is discarded. A PAP write bumps the generation,
//! so no stale decision can ever be served — without the memo having to
//! know *which* rules changed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use gupster_xpath::Path;

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
        let mut h = owner_hasher(owner);
        // `finish` does not consume: the full digest continues the
        // owner's.
        let owner_digest = h.finish();
        ctx.hash(&mut h);
        request.hash(&mut h);
        MemoKey { owner: owner.to_string(), owner_digest, digest: h.finish() }
    }
}

/// An unkeyed hasher fed `owner`: digests are stable across memos,
/// shards and runs.
fn owner_hasher(owner: &str) -> DefaultHasher {
    let mut h = DefaultHasher::new();
    owner.hash(&mut h);
    h
}

/// "No slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// A slot's neighbours in one intrusive list.
#[derive(Debug, Clone, Copy)]
struct Links {
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone)]
struct Slot {
    key: MemoKey,
    decision: Decision,
    /// Repository generation at compute time.
    generation: u64,
    /// Recency list, most recently used first.
    recency: Links,
    /// The list of entries whose owner digest equals this one's.
    same_owner: Links,
}

/// A bounded, generation-checked LRU memo of PDP decisions.
#[derive(Debug, Clone)]
pub struct DecisionMemo {
    capacity: usize,
    slots: Vec<Option<Slot>>,
    /// Vacant positions of `slots`.
    free: Vec<u32>,
    /// Key digest → slot. The digests are unkeyed hashes of request
    /// data, so the maps keep std's keyed hasher over them.
    index: HashMap<u64, u32>,
    /// Owner digest → head of that owner's entry list.
    owners: HashMap<u64, u32>,
    /// Most and least recently used slots.
    head: u32,
    tail: u32,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that missed (absent or stale).
    pub misses: u64,
}

impl DecisionMemo {
    /// A memo bounded to `capacity` decisions.
    pub fn new(capacity: usize) -> Self {
        DecisionMemo {
            capacity: capacity.max(1),
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            owners: HashMap::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a decision computed under the given repository
    /// generation. Entries stamped with any other generation are stale
    /// (the rules changed since) and are dropped on sight.
    pub fn get(&mut self, key: &MemoKey, generation: u64) -> Option<Decision> {
        if let Some(s) = self.find(key) {
            if self.slot(s).generation == generation {
                self.touch(s);
                self.hits += 1;
                return Some(self.slot(s).decision.clone());
            }
            self.remove(s);
        }
        self.misses += 1;
        None
    }

    /// Stores a decision computed under the given generation, evicting
    /// the least-recently-used entry at capacity.
    pub fn put(&mut self, key: MemoKey, generation: u64, decision: Decision) {
        if let Some(&s) = self.index.get(&key.digest) {
            if self.slot(s).key == key {
                let slot = self.slot_mut(s);
                slot.decision = decision;
                slot.generation = generation;
                self.touch(s);
                return;
            }
            // Another owner's key with the same 64-bit digest: the
            // resident gives way (a future miss, never a wrong answer).
            self.remove(s);
        }
        if self.len() >= self.capacity {
            self.remove(self.tail);
        }
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                u32::try_from(self.slots.len() - 1).expect("memo capacity fits u32")
            }
        };
        let next = self.owners.insert(key.owner_digest, s).unwrap_or(NIL);
        if next != NIL {
            self.slot_mut(next).same_owner.prev = s;
        }
        self.index.insert(key.digest, s);
        self.slots[s as usize] = Some(Slot {
            key,
            decision,
            generation,
            recency: Links { prev: NIL, next: NIL },
            same_owner: Links { prev: NIL, next },
        });
        self.push_front(s);
    }

    /// Number of memoized decisions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.owners.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Drops every memoized decision about `owner`'s profile — the
    /// write-through invalidation hook (DESIGN.md §13): a committed
    /// profile write may change what the owner's rules evaluate to
    /// (attribute-conditioned policies), so their decisions must be
    /// recomputed. Walks the owner's own entry list only. Returns how
    /// many entries were dropped.
    pub fn invalidate_owner(&mut self, owner: &str) -> usize {
        let mut dropped = 0;
        let mut s = self.owners.get(&owner_hasher(owner).finish()).copied().unwrap_or(NIL);
        while s != NIL {
            let slot = self.slot(s);
            let next = slot.same_owner.next;
            // The list is per owner *digest*; skip a colliding owner.
            if slot.key.owner == owner {
                self.remove(s);
                dropped += 1;
            }
            s = next;
        }
        dropped
    }

    fn slot(&self, s: u32) -> &Slot {
        self.slots[s as usize].as_ref().expect("linked slots are occupied")
    }

    fn slot_mut(&mut self, s: u32) -> &mut Slot {
        self.slots[s as usize].as_mut().expect("linked slots are occupied")
    }

    /// The slot holding exactly `key`.
    fn find(&self, key: &MemoKey) -> Option<u32> {
        self.index.get(&key.digest).copied().filter(|&s| self.slot(s).key == *key)
    }

    /// Makes `s` the most recently used slot.
    fn touch(&mut self, s: u32) {
        if self.head != s {
            self.unlink_recency(s);
            self.push_front(s);
        }
    }

    fn push_front(&mut self, s: u32) {
        let old = self.head;
        self.slot_mut(s).recency = Links { prev: NIL, next: old };
        match old {
            NIL => self.tail = s,
            _ => self.slot_mut(old).recency.prev = s,
        }
        self.head = s;
    }

    fn unlink_recency(&mut self, s: u32) {
        let Links { prev, next } = self.slot(s).recency;
        match prev {
            NIL => self.head = next,
            _ => self.slot_mut(prev).recency.next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.slot_mut(next).recency.prev = prev,
        }
    }

    /// Vacates slot `s`: out of both lists and the index.
    fn remove(&mut self, s: u32) {
        self.unlink_recency(s);
        let slot = self.slots[s as usize].take().expect("linked slots are occupied");
        let Links { prev, next } = slot.same_owner;
        if next != NIL {
            self.slot_mut(next).same_owner.prev = prev;
        }
        match (prev, next) {
            (NIL, NIL) => {
                self.owners.remove(&slot.key.owner_digest);
            }
            (NIL, _) => {
                self.owners.insert(slot.key.owner_digest, next);
            }
            _ => self.slot_mut(prev).same_owner.next = next,
        }
        self.index.remove(&slot.key.digest);
        self.free.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::WeekTime;
    use gupster_rng::{check, Rng};

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

    /// The memo as it was before the slab: one map, a use tick per
    /// entry, the victim found by scanning for the smallest tick and an
    /// owner's entries by scanning every key. Kept as the model the
    /// O(1) structure must be indistinguishable from.
    struct ScanningMemo {
        capacity: usize,
        entries: HashMap<MemoKey, (Decision, u64, u64)>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanningMemo {
        fn get(&mut self, key: &MemoKey, generation: u64) -> Option<Decision> {
            self.tick += 1;
            let tick = self.tick;
            let stale = match self.entries.get_mut(key) {
                Some((decision, gen, last_use)) if *gen == generation => {
                    *last_use = tick;
                    self.hits += 1;
                    return Some(decision.clone());
                }
                Some(_) => true,
                None => false,
            };
            if stale {
                self.entries.remove(key);
            }
            self.misses += 1;
            None
        }

        fn put(&mut self, key: MemoKey, generation: u64, decision: Decision) {
            self.tick += 1;
            if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
                if let Some(victim) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, _, last_use))| *last_use)
                    .map(|(k, _)| k.clone())
                {
                    self.entries.remove(&victim);
                }
            }
            self.entries.insert(key, (decision, generation, self.tick));
        }

        fn invalidate_owner(&mut self, owner: &str) -> usize {
            let before = self.entries.len();
            self.entries.retain(|k, _| k.owner != owner);
            before - self.entries.len()
        }
    }

    #[test]
    fn random_operations_match_the_scanning_model() {
        const OWNERS: [&str; 5] = ["alice", "bob", "carol", "dave", "erin"];
        const REQUESTERS: [&str; 3] = ["mom", "boss", "spy"];
        const PATHS: [&str; 3] = ["/user/presence", "/user/calendar", "/user/address-book"];
        check::cases(40, 0x1207, |rng| {
            let capacity = rng.gen_range(1..=12);
            let mut memo = DecisionMemo::new(capacity);
            let mut model = ScanningMemo {
                capacity,
                entries: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
            };
            // 45 keys against at most 12 slots: eviction is constant.
            let mut generation = 1;
            for step in 0..600 {
                let (owner, requester, path) =
                    (*rng.pick(&OWNERS), *rng.pick(&REQUESTERS), *rng.pick(&PATHS));
                let k = key(owner, requester, path);
                match rng.gen_range(0..100) {
                    0..=44 => {
                        assert_eq!(memo.get(&k, generation), model.get(&k, generation), "get @{step}");
                    }
                    45..=84 => {
                        let decision = match rng.gen_range(0..3) {
                            0 => Decision::Permit,
                            1 => Decision::Deny,
                            _ => Decision::PermitNarrowed(vec![Path::parse(path).unwrap()]),
                        };
                        // Sometimes a laggard writer stamps an old generation.
                        let stamp = generation - rng.gen_range(0..2);
                        memo.put(k.clone(), stamp, decision.clone());
                        model.put(k, stamp, decision);
                    }
                    85..=94 => {
                        assert_eq!(
                            memo.invalidate_owner(owner),
                            model.invalidate_owner(owner),
                            "invalidate_owner @{step}"
                        );
                    }
                    95..=97 => generation += 1,
                    _ => {
                        memo.clear();
                        model.entries.clear();
                    }
                }
                assert_eq!(memo.len(), model.entries.len(), "len @{step}");
                assert_eq!((memo.hits, memo.misses), (model.hits, model.misses), "counters @{step}");
            }
            // Same survivors — so every victim along the way was the
            // model's — with the same decisions, in the same recency
            // order (read back without disturbing it).
            let mut by_recency: Vec<(&MemoKey, &(Decision, u64, u64))> = model.entries.iter().collect();
            by_recency.sort_by_key(|(_, (_, _, last_use))| std::cmp::Reverse(*last_use));
            let mut s = memo.head;
            for (k, (decision, gen, _)) in by_recency {
                let slot = memo.slot(s);
                assert_eq!((&slot.key, &slot.decision, slot.generation), (k, decision, *gen));
                s = slot.recency.next;
            }
            assert_eq!(s, NIL);
        });
    }
}
