//! A bounded, owner-indexed LRU map (DESIGN.md §7, "Bounded
//! owner-indexed cache") — the one structure behind the PDP decision
//! memo, the referral-token cache, the result and stale caches and
//! [`crate::PathCache`].
//!
//! §5.3's caching service and Req. 7's staleness trigger describe one
//! thing: a bounded map that drops *one owner's* entries when that
//! owner's profile is written. Every operation costs what it touches,
//! never the population: entries live in a slab threaded by two
//! intrusive lists — one in recency order (the LRU victim is its tail)
//! and one per profile owner (a write walks that owner's entries and
//! nobody else's) — behind an index from key digest to slot. Callers
//! digest a key once ([`KeyDigest::new`]) and probe by borrowed parts;
//! the key is stored once, in its slot, and compared there.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A cache key that names the profile owner whose write invalidates it.
pub trait OwnedKey {
    /// The owner this key's entry belongs to.
    fn owner(&self) -> &str;
}

/// A bare string key has no owner dimension: every such entry shares
/// the unit owner.
impl OwnedKey for String {
    fn owner(&self) -> &str {
        ""
    }
}

/// The two digests an entry is filed under, from one unkeyed hash pass
/// (stable across caches, shards and runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyDigest {
    /// Digest of the owner alone — the route to the owner's entry list.
    pub owner: u64,
    /// Digest of the owner followed by the rest of the key.
    pub key: u64,
}

impl KeyDigest {
    /// Digests `owner` and then `rest`. `finish` does not consume the
    /// hasher, so the key digest continues the owner's.
    pub fn new(owner: &str, rest: &(impl Hash + ?Sized)) -> KeyDigest {
        let mut h = owner_hasher(owner);
        let owner = h.finish();
        rest.hash(&mut h);
        KeyDigest { owner, key: h.finish() }
    }
}

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
struct Slot<K, V> {
    digest: KeyDigest,
    key: K,
    value: V,
    /// Recency list, most recently used first.
    recency: Links,
    /// The list of entries whose owner digest equals this one's.
    same_owner: Links,
}

/// A map bounded to a fixed number of entries with exact
/// least-recently-used eviction and per-owner invalidation.
///
/// Two live keys alias only on a 64-bit digest collision, and then the
/// resident gives way to the newcomer — a future miss, never a wrong
/// answer, because a probe always confirms the stored key.
#[derive(Debug, Clone)]
pub struct OwnerLru<K, V> {
    capacity: usize,
    slots: Vec<Option<Slot<K, V>>>,
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
}

impl<K: OwnedKey + PartialEq, V> OwnerLru<K, V> {
    /// An empty map bounded to `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        OwnerLru {
            capacity: capacity.max(1),
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            owners: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// The value filed under `digest` whose stored key satisfies
    /// `same`, made the most recently used entry.
    pub fn get(&mut self, digest: u64, same: impl FnOnce(&K) -> bool) -> Option<&V> {
        let s = self.find(digest, same)?;
        self.touch(s);
        Some(&self.slot(s).value)
    }

    /// Stores `value` under `key` as the most recently used entry,
    /// replacing the key's previous value or, at capacity, evicting the
    /// least recently used entry.
    pub fn put(&mut self, digest: KeyDigest, key: K, value: V) {
        if let Some(&s) = self.index.get(&digest.key) {
            if self.slot(s).key == key {
                self.slot_mut(s).value = value;
                self.touch(s);
                return;
            }
            // Another key with the same 64-bit digest: the resident
            // gives way.
            self.remove_slot(s);
        }
        if self.len() >= self.capacity {
            self.remove_slot(self.tail);
        }
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                u32::try_from(self.slots.len() - 1).expect("cache capacity fits u32")
            }
        };
        let next = self.owners.insert(digest.owner, s).unwrap_or(NIL);
        if next != NIL {
            self.slot_mut(next).same_owner.prev = s;
        }
        self.index.insert(digest.key, s);
        self.slots[s as usize] = Some(Slot {
            digest,
            key,
            value,
            recency: Links { prev: NIL, next: NIL },
            same_owner: Links { prev: NIL, next },
        });
        self.push_front(s);
    }

    /// Drops the entry filed under `digest` whose stored key satisfies
    /// `same`, returning its value.
    pub fn remove(&mut self, digest: u64, same: impl FnOnce(&K) -> bool) -> Option<V> {
        let s = self.find(digest, same)?;
        Some(self.remove_slot(s))
    }

    /// Drops every entry of `owner`, walking that owner's list only.
    /// Returns how many entries were dropped.
    pub fn invalidate_owner(&mut self, owner: &str) -> usize {
        self.retain_owner(owner, |_, _| false)
    }

    /// Drops the entries of `owner` that `keep` rejects, walking that
    /// owner's list only. Returns how many entries were dropped.
    pub fn retain_owner(&mut self, owner: &str, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut dropped = 0;
        let mut s = self.owners.get(&owner_hasher(owner).finish()).copied().unwrap_or(NIL);
        while s != NIL {
            let slot = self.slot(s);
            let next = slot.same_owner.next;
            // The list is per owner *digest*; skip a colliding owner.
            if slot.key.owner() == owner && !keep(&slot.key, &slot.value) {
                self.remove_slot(s);
                dropped += 1;
            }
            s = next;
        }
        dropped
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
        self.owners.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn slot(&self, s: u32) -> &Slot<K, V> {
        self.slots[s as usize].as_ref().expect("linked slots are occupied")
    }

    fn slot_mut(&mut self, s: u32) -> &mut Slot<K, V> {
        self.slots[s as usize].as_mut().expect("linked slots are occupied")
    }

    fn find(&self, digest: u64, same: impl FnOnce(&K) -> bool) -> Option<u32> {
        self.index.get(&digest).copied().filter(|&s| same(&self.slot(s).key))
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
    fn remove_slot(&mut self, s: u32) -> V {
        self.unlink_recency(s);
        let slot = self.slots[s as usize].take().expect("linked slots are occupied");
        let Links { prev, next } = slot.same_owner;
        if next != NIL {
            self.slot_mut(next).same_owner.prev = prev;
        }
        match (prev, next) {
            (NIL, NIL) => {
                self.owners.remove(&slot.digest.owner);
            }
            (NIL, _) => {
                self.owners.insert(slot.digest.owner, next);
            }
            _ => self.slot_mut(prev).same_owner.next = next,
        }
        self.index.remove(&slot.digest.key);
        self.free.push(s);
        slot.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_rng::{check, Rng};

    #[derive(Debug, Clone, PartialEq)]
    struct Key {
        owner: &'static str,
        rest: u8,
    }

    impl OwnedKey for Key {
        fn owner(&self) -> &str {
            self.owner
        }
    }

    /// The caches as they were before the slab: one list, a use tick
    /// per entry, the victim found by scanning for the smallest tick
    /// and an owner's entries by scanning every key. Kept as the model
    /// the O(1) structure must be indistinguishable from.
    struct ScanningLru {
        capacity: usize,
        /// (key, key digest, value, last-use tick)
        entries: Vec<(Key, u64, u32, u64)>,
        tick: u64,
    }

    impl ScanningLru {
        fn get(&mut self, key: &Key) -> Option<u32> {
            self.tick += 1;
            let e = self.entries.iter_mut().find(|e| e.0 == *key)?;
            e.3 = self.tick;
            Some(e.2)
        }

        fn put(&mut self, key: Key, digest: u64, value: u32) {
            self.tick += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
                (e.2, e.3) = (value, self.tick);
                return;
            }
            // A colliding resident gives way before anyone is evicted.
            self.entries.retain(|e| e.1 != digest);
            if self.entries.len() >= self.capacity {
                let victim = self.entries.iter().map(|e| e.3).min().expect("capacity ≥ 1");
                self.entries.retain(|e| e.3 != victim);
            }
            self.entries.push((key, digest, value, self.tick));
        }

        fn retain_owner(&mut self, owner: &str, keep: impl Fn(&Key, &u32) -> bool) -> usize {
            let before = self.entries.len();
            self.entries.retain(|e| e.0.owner != owner || keep(&e.0, &e.2));
            before - self.entries.len()
        }
    }

    #[test]
    fn random_operations_match_the_scanning_model() {
        const OWNERS: [&str; 5] = ["alice", "bob", "carol", "dave", "erin"];
        check::cases(60, 0x1207, |rng| {
            let capacity = rng.gen_range(1..=12);
            // Every third case files keys under 3-bit digests, so keys
            // collide constantly and residents give way.
            let mask = if rng.gen_range(0..3) == 0 { 0x7 } else { u64::MAX };
            let mut lru: OwnerLru<Key, u32> = OwnerLru::new(capacity);
            let mut model = ScanningLru { capacity, entries: Vec::new(), tick: 0 };
            let (mut hits, mut model_hits) = (0u32, 0u32);
            // 45 keys against at most 12 slots: eviction is constant.
            for step in 0..600 {
                let key = Key { owner: OWNERS[rng.gen_range(0..OWNERS.len())], rest: rng.gen_range(0..9) };
                let mut d = KeyDigest::new(key.owner, &key.rest);
                d.key &= mask;
                match rng.gen_range(0..100) {
                    0..=39 => {
                        let got = lru.get(d.key, |k| *k == key).copied();
                        let want = model.get(&key);
                        assert_eq!(got, want, "get @{step}");
                        hits += u32::from(got.is_some());
                        model_hits += u32::from(want.is_some());
                    }
                    40..=79 => {
                        let value = rng.gen_range(0..1000);
                        lru.put(d, key.clone(), value);
                        model.put(key, d.key, value);
                    }
                    80..=84 => {
                        let want = model.retain_owner(key.owner, |k, _| *k != key);
                        assert_eq!(lru.remove(d.key, |k| *k == key).is_some(), want == 1, "remove @{step}");
                    }
                    85..=90 => {
                        assert_eq!(
                            lru.invalidate_owner(key.owner),
                            model.retain_owner(key.owner, |_, _| false),
                            "invalidate_owner @{step}"
                        );
                    }
                    91..=97 => {
                        let keep = |k: &Key, v: &u32| k.rest < 4 || *v < 500;
                        assert_eq!(
                            lru.retain_owner(key.owner, keep),
                            model.retain_owner(key.owner, keep),
                            "retain_owner @{step}"
                        );
                    }
                    _ => {
                        lru.clear();
                        model.entries.clear();
                    }
                }
                assert_eq!(lru.len(), model.entries.len(), "len @{step}");
                assert!(lru.len() <= capacity, "bound @{step}");
            }
            assert_eq!(hits, model_hits);
            // Same survivors — so every victim along the way was the
            // model's — with the same values, in the same recency
            // order (read back without disturbing it).
            model.entries.sort_by_key(|e| std::cmp::Reverse(e.3));
            let mut s = lru.head;
            for (key, _, value, _) in &model.entries {
                let slot = lru.slot(s);
                assert_eq!((&slot.key, &slot.value), (key, value));
                s = slot.recency.next;
            }
            assert_eq!(s, NIL);
        });
    }

    #[test]
    fn an_owner_digest_collision_shares_a_list_not_an_invalidation() {
        let mut lru: OwnerLru<Key, u32> = OwnerLru::new(8);
        let (alice, bob) = (Key { owner: "alice", rest: 0 }, Key { owner: "bob", rest: 0 });
        let d = KeyDigest::new("alice", &0u8);
        // Forge bob onto alice's owner digest (no two real owners are
        // known to collide).
        let forged = KeyDigest { owner: d.owner, key: KeyDigest::new("bob", &0u8).key };
        lru.put(d, alice.clone(), 1);
        lru.put(forged, bob.clone(), 2);
        assert_eq!(lru.invalidate_owner("alice"), 1);
        assert_eq!(lru.get(forged.key, |k| *k == bob), Some(&2));
        assert_eq!(lru.get(d.key, |k| *k == alice), None);
    }

    #[test]
    fn unit_owner_keys_share_one_list() {
        let mut lru: OwnerLru<String, u8> = OwnerLru::new(2);
        for (i, q) in ["a", "b", "c"].into_iter().enumerate() {
            lru.put(KeyDigest::new("", q), q.to_string(), i as u8);
        }
        assert_eq!(lru.get(KeyDigest::new("", "a").key, |k| k == "a"), None, "LRU victim");
        assert_eq!(lru.get(KeyDigest::new("", "c").key, |k| k == "c"), Some(&2));
        assert_eq!(lru.invalidate_owner(""), 2);
        assert!(lru.is_empty());
    }
}
