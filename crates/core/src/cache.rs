//! Result caching with invalidation-on-update (§5.3: "GUPster can also
//! offer some caching services", "GUPster should probably also offer
//! some caching to make the access to user profile components faster").
//! Each registry's stale rung is the one cache that hands out answers,
//! and every serve from it passes the shield first (DESIGN.md §7).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use gupster_policy::Decision;
use gupster_xpath::{may_overlap, KeyDigest, OwnedKey, OwnerLru, Path};

use crate::client::SharedAnswer;
use crate::provenance::RecordRef;

/// An LRU cache of merged query results, keyed by (owner, requester,
/// path) — one requester's view of one owner's component. Each entry
/// carries the [`Stamp`] of its fill. Results are held as
/// `Arc<[Element]>`: a hit hands out the answer its fill materialized,
/// never a copy of it.
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
    entries: OwnerLru<ViewKey, (SharedAnswer, Stamp)>,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
}

/// What a cached answer was fresh under.
#[derive(Debug)]
pub struct Stamp {
    /// The request clock the answer was fresh at; a serve is aged
    /// against it.
    pub fresh_at: u64,
    /// The path set the shield permitted then.
    pub decision: Decision,
    /// The provenance record of the lookup that filled the entry, when
    /// the fill kept it: a hit of the registry's cached read discloses
    /// it again.
    pub record: Option<RecordRef>,
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

    /// Looks up a cached result and its stamp, borrowed: the caller
    /// clones the `Arc` it keeps, and reads the stamp in place.
    pub fn get(&mut self, owner: &str, requester: &str, path: &Path) -> Option<&(SharedAnswer, Stamp)> {
        let digest = KeyDigest::new(owner, &(requester, path)).key;
        let hit = self
            .entries
            .get(digest, |k| k.owner == owner && k.requester == requester && k.path == *path);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// [`ResultCache::get`] that neither counts nor refreshes recency.
    pub(crate) fn peek(
        &self,
        owner: &str,
        requester: &str,
        path: &Path,
    ) -> Option<&(SharedAnswer, Stamp)> {
        let digest = KeyDigest::new(owner, &(requester, path)).key;
        self.entries
            .peek(digest, |k| k.owner == owner && k.requester == requester && k.path == *path)
    }

    /// Inserts a stamped result, evicting the least-recently-used entry
    /// when full.
    pub fn put(
        &mut self,
        owner: &str,
        requester: &str,
        path: &Path,
        result: SharedAnswer,
        stamp: Stamp,
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use gupster_xml::parse;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn result(s: &str) -> SharedAnswer {
        Arc::new([parse(s).unwrap()])
    }

    fn at(fresh_at: u64) -> Stamp {
        Stamp { fresh_at, decision: Decision::Permit, record: None }
    }

    #[test]
    fn hit_after_put() {
        let mut c = ResultCache::new(4);
        assert!(c.get("a", "a", &p("/user/presence")).is_none());
        c.put("a", "a", &p("/user/presence"), result("<presence>online</presence>"), at(7));
        let (r, stamp) = c.get("a", "a", &p("/user/presence")).unwrap();
        assert_eq!(r[0].text(), "online");
        assert_eq!(stamp.fresh_at, 7);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_user_keys() {
        let mut c = ResultCache::new(4);
        c.put("a", "a", &p("/user/presence"), result("<presence>a</presence>"), at(0));
        assert!(c.get("b", "b", &p("/user/presence")).is_none());
        assert!(c.get("a", "b", &p("/user/presence")).is_none(), "nor another requester's view");
    }

    #[test]
    fn lru_eviction() {
        let mut c = ResultCache::new(2);
        c.put("a", "a", &p("/user/presence"), result("<presence>1</presence>"), at(0));
        c.put("a", "a", &p("/user/calendar"), result("<calendar/>"), at(0));
        // Touch presence so calendar is the LRU.
        c.get("a", "a", &p("/user/presence"));
        c.put("a", "a", &p("/user/devices"), result("<devices/>"), at(0));
        assert!(c.get("a", "a", &p("/user/presence")).is_some());
        assert!(c.get("a", "a", &p("/user/calendar")).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidation_by_overlap() {
        let mut c = ResultCache::new(8);
        c.put("a", "a", &p("/user/address-book"), result("<address-book/>"), at(0));
        c.put("a", "a", &p("/user/address-book/item[@type='personal']"), result("<item/>"), at(0));
        c.put("a", "a", &p("/user/presence"), result("<presence/>"), at(0));
        c.put("b", "b", &p("/user/address-book"), result("<address-book/>"), at(0));
        c.put("a", "b", &p("/user/address-book"), result("<address-book/>"), at(0));
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

    /// [`crate::Gupster::fetch_cached`], the cached read over the
    /// registry's stale rung.
    mod cached_read {
        use crate::client::StorePool;
        use crate::registry::{Gupster, STALE_CAPACITY};
        use crate::GupsterError;
        use gupster_policy::{Effect, WeekTime};
        use gupster_schema::gup_schema;
        use gupster_store::{DataStore, StoreId, UpdateOp, XmlStore};
        use gupster_xml::{parse, MergeKeys};
        use gupster_xpath::Path;

        fn p(s: &str) -> Path {
            Path::parse(s).unwrap()
        }

        /// Drains store change events into the registry's write hook
        /// (the trigger of Req. 7). Returns the number of cached views
        /// dropped.
        fn pump_invalidations(g: &mut Gupster, pool: &mut StorePool) -> u64 {
            let before = g.stale_answers().invalidations;
            for (_store, event) in pool.drain_all_events() {
                g.note_write(&event.user, &[event.path]);
            }
            g.stale_answers().invalidations - before
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

        /// Store-side token verifications so far: one per fetch.
        fn fetches(g: &Gupster) -> u64 {
            g.telemetry().counter_snapshot().signature_verifications
        }

        #[test]
        fn second_fetch_hits_and_asks_the_shield() {
            let (mut g, pool) = world();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            g.fetch_cached(&pool, "alice", &req, "alice", t, 0, &keys, 60).unwrap();
            let (lookups, fetched) = (g.stats.lookups, fetches(&g));
            let (_, memo_hits, _) = g.memo_stats();
            let r = g.fetch_cached(&pool, "alice", &req, "alice", t, 1, &keys, 60).unwrap();
            assert_eq!(r[0].text(), "online");
            assert_eq!(fetches(&g), fetched, "a hit fetches nothing");
            assert_eq!(g.memo_stats().1, memo_hits + 1, "a hit asks the shield");
            assert_eq!(g.stats.lookups, lookups + 1, "the registry counts a hit as a lookup");
            assert_eq!(g.stale_answers().hits, 1);
        }

        #[test]
        fn cache_never_crosses_requesters() {
            let (mut g, pool) = world();
            g.set_relationship("alice", "rick", "co-worker");
            g.pap
                .provision("alice", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0)
                .unwrap();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            // rick populates the cache…
            g.fetch_cached(&pool, "alice", &req, "rick", t, 0, &keys, 60).unwrap();
            // …but mallory must still be refused, not served rick's copy.
            let err = g.fetch_cached(&pool, "alice", &req, "mallory", t, 1, &keys, 60);
            assert!(err.is_err());
        }

        #[test]
        fn cache_hits_and_misses_reach_the_hub() {
            let (mut g, pool) = world();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            g.fetch_cached(&pool, "alice", &req, "alice", t, 0, &keys, 60).unwrap();
            g.fetch_cached(&pool, "alice", &req, "alice", t, 1, &keys, 60).unwrap();
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
        fn max_age_expires_a_cached_view() {
            let (mut g, pool) = world();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            g.fetch_cached(&pool, "alice", &req, "alice", t, 0, &keys, 10).unwrap();
            let fetched = fetches(&g);
            // Younger than `max_age`: hit.
            g.fetch_cached(&pool, "alice", &req, "alice", t, 5, &keys, 10).unwrap();
            assert_eq!(fetches(&g), fetched);
            // Older: full pipeline again.
            g.fetch_cached(&pool, "alice", &req, "alice", t, 11, &keys, 10).unwrap();
            assert_eq!(fetches(&g), fetched + 1);
        }

        #[test]
        fn distinct_views_past_the_bound_leave_at_most_capacity_behind() {
            let (mut g, pool) = world();
            g.pap
                .provision("alice", "anyone", Effect::Permit, "/user/presence", "relationship='third-party'", 0)
                .unwrap();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            for i in 0..STALE_CAPACITY + 1_000 {
                g.fetch_cached(&pool, "alice", &req, &format!("caller{i:05}"), t, 0, &keys, 60).unwrap();
            }
            assert_eq!(g.stale_answers().len(), STALE_CAPACITY);
            // Everything the cache retains, not just the LRU's count:
            // no side table may remember an evicted view.
            let retained = format!("{:?}", g.stale_answers());
            let remembered: std::collections::BTreeSet<&str> = retained
                .match_indices("caller")
                .filter_map(|(at, _)| retained.get(at..at + 11))
                .collect();
            assert_eq!(remembered.len(), STALE_CAPACITY, "evicted views must leave nothing behind");
        }

        #[test]
        fn store_update_invalidates_before_stale_read() {
            let (mut g, mut pool) = world();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            g.fetch_cached(&pool, "alice", &req, "alice", t, 0, &keys, 600).unwrap();
            pool.update(
                &StoreId::new("gup.spcs.com"),
                "alice",
                &UpdateOp::SetText(p("/user/presence"), "busy".into()),
            )
            .unwrap();
            let dropped = pump_invalidations(&mut g, &mut pool);
            assert_eq!(dropped, 1);
            let r = g.fetch_cached(&pool, "alice", &req, "alice", t, 1, &keys, 600).unwrap();
            assert_eq!(r[0].text(), "busy", "must re-fetch, not serve stale");
        }

        /// A grant withdrawn through the PAP stops the very next read,
        /// however young its cached view.
        #[test]
        fn a_rule_withdrawn_through_pap_is_refused_within_max_age() {
            let (mut g, pool) = world();
            g.set_relationship("alice", "rick", "co-worker");
            g.pap
                .provision("alice", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0)
                .unwrap();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            g.fetch_cached(&pool, "alice", &req, "rick", t, 0, &keys, 600).unwrap();
            g.fetch_cached(&pool, "alice", &req, "rick", t, 1, &keys, 600).unwrap();
            assert!(g.pap.withdraw("alice", "cw"));
            let got = g.fetch_cached(&pool, "alice", &req, "rick", t, 2, &keys, 600);
            assert!(matches!(got, Err(GupsterError::AccessDenied { .. })), "{got:?}");
            assert_eq!(g.stats.lookups, 3, "a refused read is a lookup too");
            assert_eq!(g.stats.denied, 1, "counted once");
            assert_eq!(g.telemetry().counter_snapshot().cache_hits, 1);
        }

        /// A co-worker's view cached in working hours is refused when
        /// the same read comes out of hours.
        #[test]
        fn a_working_hours_grant_is_refused_out_of_hours() {
            let (mut g, pool) = world();
            g.set_relationship("alice", "rick", "co-worker");
            g.pap
                .provision(
                    "alice",
                    "cw",
                    Effect::Permit,
                    "/user/presence",
                    "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
                    0,
                )
                .unwrap();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            g.fetch_cached(&pool, "alice", &req, "rick", WeekTime::at(2, 12, 0), 0, &keys, 600).unwrap();
            let got = g.fetch_cached(&pool, "alice", &req, "rick", WeekTime::at(2, 22, 0), 1, &keys, 600);
            assert!(matches!(got, Err(GupsterError::AccessDenied { .. })), "{got:?}");
        }

        /// Every cached read is a disclosure, so each leaves its own
        /// provenance record, hits included.
        #[test]
        fn each_cached_read_leaves_its_own_provenance_record() {
            let (mut g, pool) = world();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            for now in 0..5 {
                g.fetch_cached(&pool, "alice", &req, "alice", t, now, &keys, 60).unwrap();
            }
            assert_eq!(fetches(&g), 1, "one fill, four hits");
            let audit = g.provenance.disclosures_of("alice");
            assert_eq!(audit.iter().map(|d| d.when).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
            assert!(audit.iter().all(|d| d.requester == "alice" && d.paths == audit[0].paths));
            assert_eq!(g.stats.referrals, 5);
        }

        /// A view filled under another purpose (the ladder's
        /// `Purpose::Query`) does not serve a cached read, whose hit would
        /// copy a record naming that purpose: the read runs the pipeline.
        #[test]
        fn a_fill_under_another_purpose_does_not_serve_a_cached_read() {
            use gupster_policy::Purpose;

            let (mut g, pool) = world();
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            g.lookup("alice", &req, "alice", Purpose::Query, t, 0).unwrap();
            let (record, answer) = (g.provenance.newest(), std::sync::Arc::new([parse("<presence/>").unwrap()]));
            g.remember_answer("alice", &req, "alice", Purpose::Query, t, answer, 0, record);
            let fetched = fetches(&g);
            g.fetch_cached(&pool, "alice", &req, "alice", t, 1, &keys, 60).unwrap();
            assert_eq!(fetches(&g), fetched + 1);
            let audit = g.provenance.disclosures_of("alice");
            assert_eq!(audit.last().map(|d| (d.purpose, d.when)), Some((Purpose::Cache, 1)));
        }

        /// A hit whose fill's record the log no longer retains cannot be
        /// disclosed again: the read runs the pipeline instead.
        #[test]
        fn a_hit_whose_record_is_gone_runs_the_pipeline() {
            let (mut g, pool) = world();
            g.provenance.retention = 1;
            let keys = MergeKeys::new();
            let req = p("/user[@id='alice']/presence");
            let t = WeekTime::at(0, 10, 0);
            g.fetch_cached(&pool, "alice", &req, "alice", t, 0, &keys, 60).unwrap();
            g.lookup("alice", &req, "alice", gupster_policy::Purpose::Query, t, 1).unwrap();
            let fetched = fetches(&g);
            g.fetch_cached(&pool, "alice", &req, "alice", t, 2, &keys, 60).unwrap();
            assert_eq!(fetches(&g), fetched + 1);
            assert_eq!(g.provenance.disclosures_of("alice")[0].when, 2);
            // The refill keeps the new record, so the next read hits.
            g.fetch_cached(&pool, "alice", &req, "alice", t, 3, &keys, 60).unwrap();
            assert_eq!(fetches(&g), fetched + 1);
        }
    }

    #[test]
    fn replace_does_not_evict_others() {
        let mut c = ResultCache::new(2);
        c.put("a", "a", &p("/user/presence"), result("<presence>1</presence>"), at(0));
        c.put("a", "a", &p("/user/calendar"), result("<calendar/>"), at(0));
        c.put("a", "a", &p("/user/presence"), result("<presence>2</presence>"), at(0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a", "a", &p("/user/presence")).unwrap().0[0].text(), "2");
        assert!(c.get("a", "a", &p("/user/calendar")).is_some());
    }
}
