//! Result caching with invalidation-on-update (§5.3: "GUPster can also
//! offer some caching services", "GUPster should probably also offer
//! some caching to make the access to user profile components faster").

use gupster_xml::Element;
use gupster_xpath::{may_overlap, KeyDigest, OwnedKey, OwnerLru, Path};

/// An LRU cache of merged query results, keyed by (owner, requester,
/// path) — one requester's view of one owner's component. Each entry
/// carries a caller-chosen `u64` stamp (an expiry instant, a fetch
/// time).
///
/// Keys include the **requester**: serving one principal's cached
/// result to another would bypass the privacy shield.
///
/// Invalidation: when a store reports a change at some path for an
/// owner, every requester's entry whose path overlaps it is dropped —
/// the trigger mechanism Req. 7 asks for ("triggers to indicate when
/// data has become stale"). Storage is the shared [`OwnerLru`]
/// (DESIGN.md §7).
#[derive(Debug)]
pub struct ResultCache {
    entries: OwnerLru<ViewKey, (Vec<Element>, u64)>,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
}

#[derive(Debug, PartialEq)]
struct ViewKey {
    owner: String,
    requester: String,
    path: Path,
}

impl OwnedKey for ViewKey {
    fn owner(&self) -> &str {
        &self.owner
    }
}

impl ResultCache {
    /// A cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResultCache { entries: OwnerLru::new(capacity), hits: 0, misses: 0, invalidations: 0 }
    }

    /// Looks up a cached result and its stamp.
    pub fn get(
        &mut self,
        owner: &str,
        requester: &str,
        path: &Path,
    ) -> Option<(Vec<Element>, u64)> {
        let digest = KeyDigest::new(owner, &(requester, path)).key;
        let hit = self
            .entries
            .get(digest, |k| k.owner == owner && k.requester == requester && k.path == *path)
            .cloned();
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Inserts a stamped result, evicting the least-recently-used entry
    /// when full.
    pub fn put(
        &mut self,
        owner: &str,
        requester: &str,
        path: &Path,
        result: Vec<Element>,
        stamp: u64,
    ) {
        let key = ViewKey {
            owner: owner.to_string(),
            requester: requester.to_string(),
            path: path.clone(),
        };
        self.entries.put(KeyDigest::new(owner, &(requester, path)), key, (result, stamp));
    }

    /// Invalidates every requester's entry of `owner` overlapping
    /// `changed`, walking that owner's entries only. Returns how many
    /// entries were dropped.
    pub fn invalidate(&mut self, owner: &str, changed: &Path) -> usize {
        let dropped = self.entries.retain_owner(owner, |k, _| !may_overlap(&k.path, changed));
        self.invalidations += dropped as u64;
        dropped
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit ratio so far (0.0 when unused).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A caching front end over the full lookup+fetch pipeline.
///
/// Entries are stamped with their expiry instant and stop being served
/// `ttl` seconds after the fetch, bounding how long a *time-conditioned*
/// permission (e.g. "co-workers during working hours") can outlive its
/// window; store-update invalidations arrive through
/// [`CachedClient::pump_invalidations`].
#[derive(Debug)]
pub struct CachedClient {
    cache: ResultCache,
    /// Seconds a permitted result may be served from cache.
    pub ttl: u64,
}

impl CachedClient {
    /// A client with the given cache capacity and TTL (seconds).
    pub fn new(capacity: usize, ttl: u64) -> Self {
        CachedClient { cache: ResultCache::new(capacity), ttl }
    }

    /// Looks up and fetches through the cache. On a hit, no shield
    /// check, no referral, no store traffic; on a miss the full
    /// pipeline runs (with [`gupster_policy::Purpose::Cache`], so owners
    /// can forbid caching requesters outright).
    #[allow(clippy::too_many_arguments)]
    pub fn fetch(
        &mut self,
        gupster: &mut crate::registry::Gupster,
        pool: &crate::client::StorePool,
        owner: &str,
        request: &Path,
        requester: &str,
        time: gupster_policy::WeekTime,
        now: u64,
        keys: &gupster_xml::MergeKeys,
    ) -> Result<Vec<Element>, crate::error::GupsterError> {
        use std::sync::atomic::Ordering;

        use gupster_telemetry::stage;

        let hub = gupster.telemetry();
        let mut tracer = hub.tracer("cache.fetch");
        // An expired entry is not served; the re-fetch below replaces it.
        if let Some((hit, _)) =
            self.cache.get(owner, requester, request).filter(|&(_, expiry)| now < expiry)
        {
            hub.counters().cache_hits.fetch_add(1, Ordering::Relaxed);
            tracer.mark(stage::CACHE_HIT);
            return Ok(hit);
        }
        hub.counters().cache_misses.fetch_add(1, Ordering::Relaxed);
        tracer.mark(stage::CACHE_MISS);
        let out = gupster.lookup_traced(
            owner,
            request,
            requester,
            gupster_policy::Purpose::Cache,
            time,
            now,
            &mut tracer,
        )?;
        let signer = gupster.signer();
        let result = crate::client::fetch_merge_traced(
            pool,
            &out.referral,
            &signer,
            now,
            keys,
            &mut tracer,
        )?;
        self.cache.put(owner, requester, request, result.clone(), now + self.ttl);
        Ok(result)
    }

    /// Drains store change events and invalidates overlapping entries
    /// for **every** requester's view of the changed owner (the trigger
    /// of Req. 7). Returns the number of entries dropped.
    pub fn pump_invalidations(&mut self, pool: &mut crate::client::StorePool) -> usize {
        pool.drain_all_events()
            .map(|(_store, event)| self.cache.invalidate(&event.user, &event.path))
            .sum()
    }

    /// Write-through invalidation (DESIGN.md §13): a committed sync
    /// changed `owner`'s profile at `changed` paths — drop every
    /// requester's cached view of them so no post-sync fetch serves a
    /// pre-write result. Returns the number of entries dropped.
    pub fn note_write(&mut self, owner: &str, changed: &[Path]) -> usize {
        changed.iter().map(|path| self.cache.invalidate(owner, path)).sum()
    }

    /// Cache statistics (hits, misses, invalidations).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::parse;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn result(s: &str) -> Vec<Element> {
        vec![parse(s).unwrap()]
    }

    #[test]
    fn hit_after_put() {
        let mut c = ResultCache::new(4);
        assert!(c.get("a", "a", &p("/user/presence")).is_none());
        c.put("a", "a", &p("/user/presence"), result("<presence>online</presence>"), 7);
        let (r, stamp) = c.get("a", "a", &p("/user/presence")).unwrap();
        assert_eq!(r[0].text(), "online");
        assert_eq!(stamp, 7);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_user_keys() {
        let mut c = ResultCache::new(4);
        c.put("a", "a", &p("/user/presence"), result("<presence>a</presence>"), 0);
        assert!(c.get("b", "b", &p("/user/presence")).is_none());
        assert!(c.get("a", "b", &p("/user/presence")).is_none(), "nor another requester's view");
    }

    #[test]
    fn lru_eviction() {
        let mut c = ResultCache::new(2);
        c.put("a", "a", &p("/user/presence"), result("<presence>1</presence>"), 0);
        c.put("a", "a", &p("/user/calendar"), result("<calendar/>"), 0);
        // Touch presence so calendar is the LRU.
        c.get("a", "a", &p("/user/presence"));
        c.put("a", "a", &p("/user/devices"), result("<devices/>"), 0);
        assert!(c.get("a", "a", &p("/user/presence")).is_some());
        assert!(c.get("a", "a", &p("/user/calendar")).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidation_by_overlap() {
        let mut c = ResultCache::new(8);
        c.put("a", "a", &p("/user/address-book"), result("<address-book/>"), 0);
        c.put("a", "a", &p("/user/address-book/item[@type='personal']"), result("<item/>"), 0);
        c.put("a", "a", &p("/user/presence"), result("<presence/>"), 0);
        c.put("b", "b", &p("/user/address-book"), result("<address-book/>"), 0);
        c.put("a", "b", &p("/user/address-book"), result("<address-book/>"), 0);
        // A change inside a's address book kills both book entries and
        // b's view of a's book, but not presence, and not b's own book.
        let n = c.invalidate("a", &p("/user/address-book/item[@id='3']"));
        assert_eq!(n, 3);
        assert!(c.get("a", "b", &p("/user/address-book")).is_none());
        assert!(c.get("a", "a", &p("/user/presence")).is_some());
        assert!(c.get("b", "b", &p("/user/address-book")).is_some());
        assert!(c.get("a", "a", &p("/user/address-book")).is_none());
        assert_eq!(c.invalidations, 3);
    }

    mod cached_client {
        use super::super::CachedClient;
        use crate::client::StorePool;
        use crate::registry::Gupster;
        use gupster_policy::{Effect, WeekTime};
        use gupster_schema::gup_schema;
        use gupster_store::{DataStore, StoreId, UpdateOp, XmlStore};
        use gupster_xml::{parse, MergeKeys};
        use gupster_xpath::Path;

        fn p(s: &str) -> Path {
            Path::parse(s).unwrap()
        }

        fn world() -> (Gupster, StorePool) {
            let mut g = Gupster::new(gup_schema(), b"cc");
            let mut s = XmlStore::new("gup.spcs.com");
            s.put_profile(
                parse(r#"<user id="alice"><presence>online</presence></user>"#).unwrap(),
            )
            .unwrap();
            s.drain_events();
            g.register_component(
                "alice",
                p("/user[@id='alice']/presence"),
                StoreId::new("gup.spcs.com"),
            )
            .unwrap();
            let mut pool = StorePool::new();
            pool.add(Box::new(s));
            (g, pool)
        }

        #[test]
        fn second_fetch_hits_and_skips_shield() {
            let (mut g, pool) = world();
            let mut cc = CachedClient::new(16, 60);
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 0, &keys).unwrap();
            let lookups_after_first = g.stats.lookups;
            let r = cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 1, &keys).unwrap();
            assert_eq!(r[0].text(), "online");
            assert_eq!(g.stats.lookups, lookups_after_first, "hit must not touch GUPster");
            assert_eq!(cc.cache().hits, 1);
        }

        #[test]
        fn cache_never_crosses_requesters() {
            let (mut g, pool) = world();
            g.set_relationship("alice", "rick", "co-worker");
            g.pap
                .provision("alice", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0)
                .unwrap();
            let mut cc = CachedClient::new(16, 60);
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            // rick populates the cache…
            cc.fetch(&mut g, &pool, "alice", &req, "rick", t, 0, &keys).unwrap();
            // …but mallory must still be refused, not served rick's copy.
            let err = cc.fetch(&mut g, &pool, "alice", &req, "mallory", t, 1, &keys);
            assert!(err.is_err());
        }

        #[test]
        fn cache_hits_and_misses_reach_the_hub() {
            let (mut g, pool) = world();
            let mut cc = CachedClient::new(16, 60);
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 0, &keys).unwrap();
            cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 1, &keys).unwrap();
            let c = g.telemetry().counter_snapshot();
            assert_eq!(c.cache_misses, 1);
            assert_eq!(c.cache_hits, 1);
            // The miss ran the full traced pipeline, including a store
            // token verification.
            assert_eq!(c.signature_verifications, 1);
            assert!(g.telemetry().stage_stats("cache.hit").is_some());
            assert!(g.telemetry().stage_stats("cache.miss").is_some());
        }

        #[test]
        fn ttl_expires_time_conditioned_permissions() {
            let (mut g, pool) = world();
            let mut cc = CachedClient::new(16, 10);
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 0, &keys).unwrap();
            let lookups = g.stats.lookups;
            // Within TTL: hit.
            cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 5, &keys).unwrap();
            assert_eq!(g.stats.lookups, lookups);
            // Past TTL: full pipeline again.
            cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 11, &keys).unwrap();
            assert_eq!(g.stats.lookups, lookups + 1);
        }

        #[test]
        fn a_thousand_distinct_views_leave_at_most_capacity_behind() {
            let (mut g, pool) = world();
            g.pap
                .provision("alice", "anyone", Effect::Permit, "/user/presence", "relationship='third-party'", 0)
                .unwrap();
            let mut cc = CachedClient::new(4, 60);
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            for i in 0..1_000 {
                cc.fetch(&mut g, &pool, "alice", &req, &format!("caller{i:04}"), t, 0, &keys).unwrap();
            }
            assert_eq!(cc.cache().len(), 4);
            // Everything the client retains, not just the LRU's count:
            // no side table may remember an evicted view.
            let retained = format!("{cc:?}");
            let remembered: std::collections::BTreeSet<&str> = retained
                .match_indices("caller")
                .filter_map(|(at, _)| retained.get(at..at + 10))
                .collect();
            assert_eq!(remembered.len(), 4, "evicted views must leave nothing behind");
        }

        #[test]
        fn store_update_invalidates_before_stale_read() {
            let (mut g, mut pool) = world();
            let mut cc = CachedClient::new(16, 600);
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 0, &keys).unwrap();
            pool.update(
                &StoreId::new("gup.spcs.com"),
                "alice",
                &UpdateOp::SetText(p("/user/presence"), "busy".into()),
            )
            .unwrap();
            let dropped = cc.pump_invalidations(&mut pool);
            assert_eq!(dropped, 1);
            let r = cc.fetch(&mut g, &pool, "alice", &req, "alice", t, 1, &keys).unwrap();
            assert_eq!(r[0].text(), "busy", "must re-fetch, not serve stale");
        }
    }

    #[test]
    fn replace_does_not_evict_others() {
        let mut c = ResultCache::new(2);
        c.put("a", "a", &p("/user/presence"), result("<presence>1</presence>"), 0);
        c.put("a", "a", &p("/user/calendar"), result("<calendar/>"), 0);
        c.put("a", "a", &p("/user/presence"), result("<presence>2</presence>"), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a", "a", &p("/user/presence")).unwrap().0[0].text(), "2");
        assert!(c.get("a", "a", &p("/user/calendar")).is_some());
    }
}
