//! The GUPster server: registration, lookup, rewriting, referrals.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gupster_policy::pep::Pep;
use gupster_policy::{Decision, Pap, Purpose, RequestContext, WeekTime};
use gupster_schema::Schema;
use gupster_store::StoreId;
use gupster_telemetry::{stage, TelemetryHub, Tracer};
use gupster_xml::MergeKeys;
use gupster_xpath::{KeyDigest, OwnedKey, OwnerLru, Path};

use crate::cache::{ResultCache, Stamp};
use crate::client::{fetch_merge_traced, SharedAnswer, StorePool};
use crate::coverage::CoverageMap;
use crate::error::GupsterError;
use crate::index::TrieWalk;
use crate::provenance::{ProvenanceLog, RecordRef};
use crate::referral::{Referral, ReferralEntry};
use crate::token::{SignedQuery, Signer, TokenPaths};

/// Operation counters (§5.3: the scalability story is that lookups are
/// cheap and spurious/denied queries are filtered before touching any
/// data store).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookup requests received.
    pub lookups: u64,
    /// Referrals issued.
    pub referrals: u64,
    /// Queries rejected for not fitting the GUP schema.
    pub spurious: u64,
    /// Queries refused by the privacy shield.
    pub denied: u64,
    /// Queries with no registered coverage.
    pub uncovered: u64,
    /// Component registrations performed.
    pub registrations: u64,
}

/// The outcome of a successful lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The referral to hand to the client.
    pub referral: Referral,
    /// True when the shield narrowed the request.
    pub narrowed: bool,
}

/// The GUPster meta-data server.
///
/// ```
/// use gupster_core::Gupster;
/// use gupster_policy::{Purpose, WeekTime};
/// use gupster_schema::gup_schema;
/// use gupster_store::StoreId;
/// use gupster_xpath::Path;
///
/// let mut gupster = Gupster::new(gup_schema(), b"shared-key");
/// // Yahoo! registers Arnaud's address book (the §4.3 join step).
/// gupster.register_component(
///     "arnaud",
///     Path::parse("/user[@id='arnaud']/address-book").unwrap(),
///     StoreId::new("gup.yahoo.com"),
/// ).unwrap();
/// // A lookup returns a signed referral, never data.
/// let out = gupster.lookup(
///     "arnaud",
///     &Path::parse("/user[@id='arnaud']/address-book").unwrap(),
///     "arnaud",
///     Purpose::Query,
///     WeekTime::at(1, 10, 0),
///     0,
/// ).unwrap();
/// assert_eq!(out.referral.to_string(), "gup.yahoo.com/user[@id='arnaud']/address-book");
/// assert!(gupster.signer().verify(&out.referral.token, 5).is_ok());
/// ```
#[derive(Debug)]
pub struct Gupster {
    /// The GUP schema in force.
    pub schema: Schema,
    /// owner → registered components. Its keys are the owner ids a
    /// lookup shares with its memo key, token and token-cache key.
    coverage: HashMap<Arc<str>, CoverageMap>,
    /// The policy administration point (owns the repository).
    pub pap: Pap,
    /// The enforcement point (DESIGN.md §7): its decision memo lets
    /// repeated (owner, context, path) triples skip the PDP entirely.
    /// Generation-stamped against the policy repository, so PAP writes
    /// invalidate it exactly.
    pep: Pep,
    signer: Signer,
    /// owner → requester → relationship, provisioned by owners. Keyed
    /// by owner first so a lookup resolves it from two borrowed `&str`s;
    /// an owner key is the coverage table's, and the requester keys are
    /// the ids a provisioned requester's tokens share.
    relationships: HashMap<Arc<str>, HashMap<Arc<str>, Arc<str>>>,
    /// Relationship labels, each held once, with the relationships
    /// naming it.
    labels: HashMap<Arc<str>, usize>,
    /// Store ids, each held once, with the registrations naming it.
    store_ids: HashMap<Arc<StoreId>, usize>,
    /// Counters.
    pub stats: RegistryStats,
    /// The disclosure audit trail (§7's provenance challenge).
    pub provenance: ProvenanceLog,
    telemetry: Arc<TelemetryHub>,
    /// Referral-token cache (DESIGN.md §7), opt-in: repeated lookups
    /// producing the same rewritten path set reuse the signed token
    /// while it is inside the first half of its freshness window,
    /// skipping the HMAC pass. `None` = disabled (the default).
    token_cache: Option<OwnerLru<TokenKey, CachedToken>>,
    /// Per-owner write generations (DESIGN.md §13): bumped by every
    /// committed sync touching the owner's profile, alongside dropping
    /// the owner's derived registry state (memo, token cache).
    write_gens: HashMap<String, u64>,
    /// The coverage trie walk's buffers, reused by every lookup.
    walk: TrieWalk,
    /// Lookup step 4b's `(entry index, full)` matches for one path,
    /// reused by every lookup.
    matched: Vec<(usize, bool)>,
    /// The stale rung (DESIGN.md §6c, §11): the last fresh answer per
    /// (owner, requester, path), stamped with the request clock it was
    /// fresh at and the path set the shield permitted then. The
    /// resilience ladder, the open-loop engine and the cached read
    /// ([`Gupster::fetch_cached`]) fill it and serve from it;
    /// [`Gupster::note_write`] drops overlapping entries, and every
    /// serve re-enforces through `pep` first.
    stale: ResultCache,
}

/// Tokens the referral-token cache holds before the least recently
/// used one gives way.
const TOKEN_CACHE_CAPACITY: usize = 65_536;

/// Views the stale rung holds per shard before the least recently used
/// one gives way.
pub(crate) const STALE_CAPACITY: usize = 4096;

/// What a cached referral token was signed for. The ids are shared
/// with the lookup that signed it.
#[derive(Debug, PartialEq)]
struct TokenKey {
    owner: Arc<str>,
    requester: Arc<str>,
    /// The rewritten path set, serialized.
    paths: TokenPaths,
}

impl OwnedKey for TokenKey {
    fn owner(&self) -> &str {
        &self.owner
    }
}

/// What [`Gupster::shield`] lets through, and the ids it resolved on the
/// way.
pub(crate) struct Shielded {
    /// The owner id: the coverage table's key.
    owner: Arc<str>,
    /// The requester id as the registry already holds it: the owner's
    /// on a self read, the relationship table's key for a provisioned
    /// requester, `None` for anyone else.
    requester: Option<Arc<str>>,
    /// [`Decision::Permit`] (the request as given) or
    /// [`Decision::PermitNarrowed`]; a refusal is an error.
    decision: Decision,
}

/// What the referral-token cache keeps of a token besides its key: the
/// rest of the token is the key's fields.
#[derive(Debug)]
struct CachedToken {
    issued_at: u64,
    signature: [u8; 32],
}

impl Gupster {
    /// Creates a server over a schema with a shared signing key.
    pub fn new(schema: Schema, key: &[u8]) -> Self {
        Gupster {
            schema,
            coverage: HashMap::new(),
            pap: Pap::new(),
            pep: Pep::new(4096),
            signer: Signer::new(key, 30),
            relationships: HashMap::new(),
            labels: HashMap::new(),
            store_ids: HashMap::new(),
            stats: RegistryStats::default(),
            provenance: ProvenanceLog::with_retention(100_000),
            telemetry: Arc::new(TelemetryHub::new()),
            token_cache: None,
            write_gens: HashMap::new(),
            walk: TrieWalk::default(),
            matched: Vec::new(),
            stale: ResultCache::new(STALE_CAPACITY),
        }
    }

    /// Switches on the referral-token cache: lookups that rewrite to a
    /// path set signed earlier for the same (owner, requester) reuse
    /// that token while it is younger than half its freshness window,
    /// instead of an HMAC pass (a real sign measures ≈0.7–0.9µs on the
    /// wall, DESIGN.md §7). Off by default — a reused token carries its
    /// first issue time, so enabling it changes token bytes, and
    /// experiments opt in.
    pub fn enable_token_cache(&mut self) {
        self.token_cache.get_or_insert_with(|| OwnerLru::new(TOKEN_CACHE_CAPACITY));
    }

    /// Sets the signer's token freshness window (seconds). Deployments
    /// trade replay exposure against signing rate; long-running open
    /// profile-clock spans (E20) need windows longer than the default
    /// 30s or every token cache entry dies between reuses.
    pub(crate) fn set_token_freshness(&mut self, window: u64) {
        self.signer.freshness_window = window;
    }

    /// Decision-memo occupancy and counters, for experiment reports.
    pub fn memo_stats(&self) -> (usize, u64, u64) {
        let memo = self.pep.memo();
        (memo.len(), memo.hits, memo.misses)
    }

    /// Write-through invalidation (DESIGN.md §13): a committed sync
    /// changed `owner`'s profile at `changed` paths. Bumps the owner's
    /// write generation and drops the derived registry state that could
    /// now be stale — the owner's memoized PDP decisions, cached
    /// referral tokens and every requester's stale answer overlapping a
    /// changed path, cached reads' views included. Returns the number of
    /// entries dropped (also added to the fleet `invalidations` counter).
    /// It is the one write hook: no cache outside the registry holds
    /// answers.
    pub fn note_write(&mut self, owner: &str, changed: &[Path]) -> usize {
        if changed.is_empty() {
            return 0;
        }
        *self.write_gens.entry(owner.to_string()).or_insert(0) += 1;
        let mut dropped = self.pep.invalidate_owner(owner);
        if let Some(cache) = &mut self.token_cache {
            dropped += cache.invalidate_owner(owner);
        }
        dropped += changed.iter().map(|path| self.stale.invalidate(owner, path)).sum::<usize>();
        self.telemetry.counters().invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// The owner's write generation: 0 until the first committed sync,
    /// bumped once per `Gupster::note_write`.
    pub fn write_generation(&self, owner: &str) -> u64 {
        self.write_gens.get(owner).copied().unwrap_or(0)
    }

    /// Fills the stale rung with a fresh answer to `request`, stamped
    /// with the request clock `now` and the path set [`Gupster::shield`]
    /// permits `requester` under `purpose` at `time` (normally one memo
    /// hit: the answer's own lookup just decided it), and with the
    /// lookup's provenance `record`, which every serve of the entry
    /// discloses again. Nothing is traced.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn remember_answer(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        result: SharedAnswer,
        now: u64,
        record: Option<RecordRef>,
    ) {
        if let Ok(shielded) = self.shield(owner, request, requester, purpose, time, None) {
            let stamp = Stamp { fresh_at: now, decision: shielded.decision, record };
            self.stale.put(owner, requester, request, result, stamp);
        }
    }

    /// The stale rung: the last fresh answer to `request` and its age
    /// at `now`, served only if [`Gupster::shield`], asked again with
    /// `purpose` and `time`, still permits exactly the path set it
    /// permitted when the answer was fresh, and the provenance log
    /// still holds the fill's record. A refusal is the shield's
    /// [`GupsterError::AccessDenied`]; a narrowed or widened grant, or
    /// a record retention has dropped, serves nothing (`Ok(None)`),
    /// like a miss. A serve is a disclosure: it records the fill's
    /// disclosure again, stamped `now` and `purpose`, since the serve
    /// discloses under the purpose it was asked with, whatever the
    /// fill's was. Only a serve counts a hit and
    /// refreshes the entry's recency. Nothing is traced. A serve shares
    /// the remembered answer; the recorded path set is compared where
    /// it lies.
    pub(crate) fn stale_answer(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        now: u64,
    ) -> Result<Option<(SharedAnswer, u64)>, GupsterError> {
        if self.stale.peek(owner, requester, request).is_none() {
            self.stale.misses += 1;
            return Ok(None);
        }
        let still = self.shield(owner, request, requester, purpose, time, None).map(|s| s.decision);
        // The shield leaves the rung alone, so the entry is still there.
        let record = self.stale.peek(owner, requester, request).and_then(|(_, then)| {
            let same = still.as_ref().is_ok_and(|still| then.decision == *still);
            then.record.filter(|&record| same && self.provenance.holds(record))
        });
        let Some(record) = record else {
            self.stale.misses += 1;
            return still.map(|_| None);
        };
        self.provenance.record_again(record, purpose, now);
        let served = self.stale.get(owner, requester, request);
        Ok(served.map(|(result, then)| (Arc::clone(result), now.saturating_sub(then.fresh_at))))
    }

    /// The stale rung's views, for occupancy and hit/miss counts.
    pub fn stale_answers(&self) -> &ResultCache {
        &self.stale
    }

    /// The cached read (§5.3's caching service): `request`'s answer from
    /// the stale rung, if a lookup under [`Purpose::Cache`] filled it
    /// less than `max_age` seconds before `now` and the rung serves it —
    /// the shield, asked again with [`Purpose::Cache`] at `time`,
    /// permits exactly the path set it permitted then, and the log
    /// still holds the fill's record. A hit runs no referral, token or
    /// fetch, but the registry counts it as a lookup, and the rung
    /// records its disclosure again, stamped `now`, as an in-window
    /// duplicate's is. Otherwise the full pipeline runs —
    /// a lookup with [`Purpose::Cache`], so owners can forbid caching
    /// requesters outright, then the fetch — and refills the rung.
    /// Traced as a `cache.fetch` request marked `cache.hit` or
    /// `cache.miss`.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_cached(
        &mut self,
        pool: &StorePool,
        owner: &str,
        request: &Path,
        requester: &str,
        time: WeekTime,
        now: u64,
        keys: &MergeKeys,
        max_age: u64,
    ) -> Result<SharedAnswer, GupsterError> {
        let hub = Arc::clone(&self.telemetry);
        let mut tracer = hub.tracer("cache.fetch");
        // Only a fill made under `Purpose::Cache` serves a cached read, so
        // the disclosure a hit copies names the purpose it was asked for.
        let fill_serves = self.stale.peek(owner, requester, request).is_some_and(|(_, stamp)| {
            let purpose = stamp.record.and_then(|record| self.provenance.purpose(record));
            now.saturating_sub(stamp.fresh_at) < max_age && purpose == Some(Purpose::Cache)
        });
        let served = if fill_serves {
            self.stale_answer(owner, request, requester, Purpose::Cache, time, now)
        } else {
            Ok(None)
        };
        if let Ok(Some((hit, _))) = &served {
            self.count_repeat(owner, None);
            hub.counters().cache_hits.fetch_add(1, Ordering::Relaxed);
            tracer.mark(stage::CACHE_HIT);
            return Ok(Arc::clone(hit));
        }
        hub.counters().cache_misses.fetch_add(1, Ordering::Relaxed);
        tracer.mark(stage::CACHE_MISS);
        if let Err(refused) = served {
            // The shield counted the refusal; this is the lookup it
            // answered.
            self.stats.lookups += 1;
            hub.counters().lookups.fetch_add(1, Ordering::Relaxed);
            self.count_lookup(owner, Some(&refused));
            return Err(refused);
        }
        let out =
            self.lookup_traced(owner, request, requester, Purpose::Cache, time, now, &mut tracer)?;
        let record = self.provenance.newest();
        let result = fetch_merge_traced(pool, &out.referral, &self.signer, now, keys, &mut tracer)?;
        let kept = Arc::clone(&result);
        self.remember_answer(owner, request, requester, Purpose::Cache, time, kept, now, record);
        Ok(result)
    }

    /// A clone of the signer — data stores hold this to verify tokens.
    pub fn signer(&self) -> Signer {
        self.signer.clone()
    }

    /// The telemetry hub this server reports to. Experiment harnesses
    /// read stage histograms, counters and traces from here.
    pub fn telemetry(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.telemetry)
    }

    /// Replaces the telemetry hub — lets a harness share one hub across
    /// several servers (e.g. a mirror constellation).
    pub fn set_telemetry(&mut self, hub: Arc<TelemetryHub>) {
        self.telemetry = hub;
    }

    /// Registers a data store as holding `path` for `user` — the
    /// Napster "join the community" step (§4.3). The path must fit the
    /// schema.
    ///
    /// An owner id holding a NUL is refused: a token's fields are
    /// NUL-terminated in its signed payload, so `alice\0eve` would sign
    /// as owner `alice`, requester `eve`.
    pub fn register_component(
        &mut self,
        user: &str,
        path: Path,
        store: StoreId,
    ) -> Result<(), GupsterError> {
        if user.as_bytes().contains(&0) {
            return Err(GupsterError::NulInId(user.to_string()));
        }
        if !self.schema.admits_path(&path) {
            return Err(GupsterError::SpuriousQuery(path.to_string()));
        }
        let store = intern(&mut self.store_ids, store);
        let added = match self.coverage.get_mut(user) {
            Some(coverage) => coverage.register_shared(path, &store),
            None => {
                let owner = self.owner_key(user);
                self.coverage.entry(owner).or_default().register_shared(path, &store)
            }
        };
        if !added {
            release(&mut self.store_ids, &store, 1);
        }
        self.stats.registrations += 1;
        Ok(())
    }

    /// Unregisters one component registration.
    pub fn unregister_component(&mut self, user: &str, path: &Path, store: &StoreId) -> bool {
        let removed = self.coverage.get_mut(user).is_some_and(|c| c.unregister(path, store));
        if removed {
            release(&mut self.store_ids, store, 1);
        }
        removed
    }

    /// Drops every registration of a store for a user (carrier switch,
    /// §2.1). Returns how many registrations were removed.
    pub fn unregister_store(&mut self, user: &str, store: &StoreId) -> usize {
        let removed = self.coverage.get_mut(user).map_or(0, |c| c.unregister_store(store));
        release(&mut self.store_ids, store, removed);
        removed
    }

    /// The id the registry holds for `owner`: the coverage table's or
    /// the relationship table's key, or a new one.
    fn owner_key(&self, owner: &str) -> Arc<str> {
        let held = self.coverage.get_key_value(owner).map(|(id, _)| id);
        let held = held.or_else(|| self.relationships.get_key_value(owner).map(|(id, _)| id));
        held.map_or_else(|| Arc::from(owner), Arc::clone)
    }

    /// The coverage map of a user (for inspection / experiments).
    pub fn coverage_of(&self, user: &str) -> Option<&CoverageMap> {
        self.coverage.get(user)
    }

    /// The registry's own copy of a known owner's id, for keys that
    /// share it.
    pub(crate) fn owner_id(&self, owner: &str) -> Option<&Arc<str>> {
        self.coverage.get_key_value(owner).map(|(id, _)| id)
    }

    /// Copies all meta-data (coverage, relationships, policies) from a
    /// healthy mirror — the recovery half of mirror anti-entropy. The
    /// schema and signing key are deployment constants and stay as-is.
    pub(crate) fn clone_metadata_from(&mut self, other: &Gupster) {
        self.coverage = other.coverage.clone();
        self.relationships = other.relationships.clone();
        self.labels = other.labels.clone();
        self.store_ids = other.store_ids.clone();
        self.pap.repository = other.pap.repository.clone();
    }

    /// Provisions a relationship (owners declare who their co-workers,
    /// boss, family are — the shield conditions of §4.6 test these).
    pub fn set_relationship(&mut self, owner: &str, requester: &str, relationship: &str) {
        if !self.relationships.contains_key(owner) {
            let owner = self.owner_key(owner);
            self.relationships.insert(owner, HashMap::new());
        }
        let of_owner = self.relationships.get_mut(owner).expect("inserted above");
        if of_owner.get(requester).is_some_and(|held| **held == *relationship) {
            return;
        }
        let label = intern(&mut self.labels, relationship);
        let replaced = match of_owner.get_mut(requester) {
            Some(held) => Some(std::mem::replace(held, label)),
            None => of_owner.insert(Arc::from(requester), label),
        };
        if let Some(replaced) = replaced {
            release(&mut self.labels, &replaced, 1);
        }
    }

    /// Resolves the relationship of a requester to an owner.
    pub(crate) fn relationship(&self, owner: &str, requester: &str) -> &str {
        if owner == requester {
            return "self";
        }
        provisioned(&self.relationships, owner, requester).map_or("third-party", |(_, rel)| rel)
    }

    /// Builds the request context the PDP sees. It borrows `requester`
    /// and the registry's relationship table.
    pub fn context<'a>(
        &'a self,
        owner: &str,
        requester: &'a str,
        purpose: Purpose,
        time: WeekTime,
    ) -> RequestContext<'a> {
        RequestContext::query(requester, self.relationship(owner, requester), time)
            .with_purpose(purpose)
    }

    /// The lookup pipeline of §4.3/§5.3: schema filter → privacy shield
    /// (rewrite) → coverage match → signed referral.
    ///
    /// Each call is traced as its own request: a `registry.lookup` root
    /// span with `policy.decide` / `query.rewrite` / `coverage.match` /
    /// `token.sign` children feeding the hub's per-stage histograms.
    pub fn lookup(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        now: u64,
    ) -> Result<LookupOutcome, GupsterError> {
        let hub = Arc::clone(&self.telemetry);
        let mut tracer = hub.tracer(stage::REGISTRY_LOOKUP);
        self.lookup_pipeline(owner, request, requester, purpose, time, now, &mut tracer)
    }

    /// [`Gupster::lookup`] nested under a caller-owned trace — pattern
    /// executors use this so registry stages appear inside the same
    /// per-request span tree as network hops and store fetches.
    #[allow(clippy::too_many_arguments)]
    pub fn lookup_traced(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        now: u64,
        tracer: &mut Tracer,
    ) -> Result<LookupOutcome, GupsterError> {
        tracer.enter(stage::REGISTRY_LOOKUP);
        let out = self.lookup_pipeline(owner, request, requester, purpose, time, now, tracer);
        tracer.exit();
        out
    }

    /// Lookup steps 1–3: the spurious-query filter, the known-owner
    /// check and the privacy shield, with their stats and counters.
    /// Returns what the shield lets through, with the owner and
    /// requester ids the registry already holds: nothing is copied and
    /// nothing allocated unless the shield narrows the request. Besides
    /// [`Gupster::lookup`], [`crate::ShardedFanout::subscribe`] and the
    /// stale rung call it with no tracer, and build, sign and record no
    /// referral.
    ///
    /// The decision runs under a `policy.decide` span of `tracer`, if
    /// one is given: a memo hit touches no rule, a miss runs the PDP
    /// over the bucketed candidate rules.
    pub(crate) fn shield(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Shielded, GupsterError> {
        // 1. Spurious-query filter.
        if !self.schema.admits_path(request) {
            self.stats.spurious += 1;
            return Err(GupsterError::SpuriousQuery(request.to_string()));
        }

        // 2. Known user? The coverage table's key is the owner id every
        // later step shares.
        let Some(owner_id) = self.owner_id(owner).cloned() else {
            self.stats.uncovered += 1;
            return Err(GupsterError::UnknownUser(owner.to_string()));
        };

        // 3. Privacy shield: decide (step 4a rewrites what it permits).
        // A requester id holding a NUL is refused before any rule is
        // read: a token's fields are NUL-terminated in its signed
        // payload, so such an id would sign as a shorter id followed by
        // paths the shield never saw.
        if requester.as_bytes().contains(&0) {
            return Err(self.refuse(owner, requester));
        }
        // The context borrows the relationship where it is provisioned.
        let (relationship, requester_id) = if owner == requester {
            ("self", Some(Arc::clone(&owner_id)))
        } else {
            match provisioned(&self.relationships, owner, requester) {
                Some((id, rel)) => (rel, Some(Arc::clone(id))),
                None => ("third-party", None),
            }
        };
        let ctx = RequestContext::query(requester, relationship, time).with_purpose(purpose);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.enter(stage::POLICY_DECIDE);
        }
        let enforced = self.pep.enforce(&self.pap.repository, &owner_id, request, &ctx);
        if let Some(tracer) = tracer {
            // Only a lookup's memo hit counts: the dashboard divides it
            // by the lookups that ran, and the stale rung's and a
            // subscription's checks are not lookups.
            if enforced.memo_hit {
                self.telemetry.counters().memo_hits.fetch_add(1, Ordering::Relaxed);
            }
            tracer.exit();
        }
        match enforced.decision {
            Decision::Deny => Err(self.refuse(owner, requester)),
            decision => Ok(Shielded { owner: owner_id, requester: requester_id, decision }),
        }
    }

    /// Counts a refusal by the shield and returns its error.
    fn refuse(&mut self, owner: &str, requester: &str) -> GupsterError {
        self.stats.denied += 1;
        self.telemetry.counters().policy_denials.fetch_add(1, Ordering::Relaxed);
        GupsterError::AccessDenied { owner: owner.to_string(), requester: requester.to_string() }
    }

    /// The pipeline body; the caller owns the `registry.lookup` span
    /// (either the tracer's root or an entered child).
    #[allow(clippy::too_many_arguments)]
    fn lookup_pipeline(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        now: u64,
        tracer: &mut Tracer,
    ) -> Result<LookupOutcome, GupsterError> {
        self.stats.lookups += 1;
        self.telemetry.counters().lookups.fetch_add(1, Ordering::Relaxed);
        let shielded = self.shield(owner, request, requester, purpose, time, Some(&mut *tracer));
        let shielded = match shielded {
            Ok(shielded) => shielded,
            Err(refused) => {
                self.count_lookup(owner, Some(&refused));
                return Err(refused);
            }
        };
        // `shield` has checked that the owner is known.
        let Some(coverage) = self.coverage.get_mut(owner) else {
            return Err(GupsterError::UnknownUser(owner.to_string()));
        };
        coverage.lookups += 1;
        let coverage = &*coverage;
        // The whole request, or the narrowings the shield permits.
        let (whole, parts) = match shielded.decision {
            Decision::PermitNarrowed(parts) => (None, parts),
            _ => (Some(request), Vec::new()),
        };
        let narrowed = whole.is_none() && !matches!(parts.as_slice(), [only] if only == request);

        // 4a. Rewrite: policy scopes omit the user-id predicate;
        // requests to the stores must carry it so multi-tenant stores
        // answer for the right user. Each permitted path is rewritten as
        // the coverage match takes it; the whole request is borrowed,
        // and copied only if it lacks the predicate.
        tracer.mark(stage::QUERY_REWRITE);
        let rewritten = whole
            .map(Cow::Borrowed)
            .into_iter()
            .chain(parts.into_iter().map(Cow::Owned))
            .map(|p| with_user_id(p, owner));

        // 4b. Coverage match per permitted path. The trie index prunes
        // each match to its candidate entries (the walk is a
        // `coverage.index` child span); wildcard requests fall back to
        // the full scan.
        //
        // Every entry a path yields is asked for that path: a full
        // source answers it whole, and partial sources each return the
        // fragment they hold under it for the client to deep-union
        // (Fig. 9) — the narrower registered path only selects *which*
        // stores participate. Full sources are listed before partial
        // ones, each store once per path. The entries of one path share
        // one `Arc` of it: the registration's own when the path is
        // registered (the usual whole-request read), else one copy.
        tracer.enter(stage::COVERAGE_MATCH);
        let mut entries: Vec<ReferralEntry> = Vec::new();
        let (walk, matched) = (&mut self.walk, &mut self.matched);
        for p in rewritten {
            matched.clear();
            let match_stats = coverage.visit_matches(&p, walk, |idx, full| matched.push((idx, full)));
            if match_stats.used_index {
                self.telemetry.counters().trie_hits.fetch_add(1, Ordering::Relaxed);
                tracer.mark(stage::COVERAGE_INDEX);
            } else {
                self.telemetry.counters().fallback_scans.fetch_add(1, Ordering::Relaxed);
            }
            // A path nothing serves lists no entry. A path the shield
            // permitted twice names the same stores again: its first
            // occurrence listed them.
            if matched.is_empty() || entries.iter().any(|e| *e.path == *p) {
                continue;
            }
            // Entries arrive in ascending index order, so ordering by
            // (partial?, index) lists full sources first and keeps the
            // arrival order within each kind. A store keeps its first
            // listing only.
            matched.sort_unstable_by_key(|&(idx, full)| (!full, idx));
            let registered = coverage.entries();
            let path = match matched.iter().find(|&&(idx, full)| full && *registered[idx].0 == *p) {
                Some(&(idx, _)) => Arc::clone(&registered[idx].0),
                None => Arc::new(p.into_owned()),
            };
            let first = entries.len();
            for &(idx, complete) in matched.iter() {
                for store in &registered[idx].1 {
                    if !entries[first..].iter().any(|e| e.store == *store) {
                        let (store, path) = (Arc::clone(store), Arc::clone(&path));
                        entries.push(ReferralEntry { store, path, complete });
                    }
                }
            }
        }
        tracer.exit();
        if entries.is_empty() {
            self.stats.uncovered += 1;
            return Err(GupsterError::NoCoverage(request.to_string()));
        }

        // 5. Sign the rewritten query — or reuse a cached token for the
        // same (owner, requester, path set) while it is younger than
        // half its freshness window, so stores never see a near-expiry
        // token. On the wall a sign measures ≈0.7–0.9µs (two SHA-256
        // blocks for a presence token; DESIGN.md §7). The token shares
        // the shield's ids; only a requester the registry has never
        // heard of gets a copy of its own.
        let merge_required = entries.iter().any(|e| !e.complete);
        let paths = TokenPaths::render(entries.iter().map(|e| &*e.path));
        let user = shielded.owner;
        let requester_id = shielded.requester.unwrap_or_else(|| Arc::from(requester));
        tracer.enter(stage::TOKEN_SIGN);
        let mut token_cached = false;
        let token = match &mut self.token_cache {
            Some(cache) => {
                let digest = KeyDigest::new(owner, &(requester, &paths));
                let held = cache.get(digest.key, |k| {
                    *k.owner == *owner && *k.requester == *requester && k.paths == paths
                });
                match held {
                    Some(t)
                        if now >= t.issued_at
                            && now - t.issued_at <= self.signer.freshness_window / 2 =>
                    {
                        token_cached = true;
                        self.telemetry.counters().token_reuse.fetch_add(1, Ordering::Relaxed);
                        SignedQuery {
                            user,
                            requester: requester_id,
                            paths,
                            issued_at: t.issued_at,
                            signature: t.signature,
                        }
                    }
                    _ => {
                        let key = TokenKey {
                            owner: Arc::clone(&user),
                            requester: Arc::clone(&requester_id),
                            paths: paths.clone(),
                        };
                        let t = self.signer.sign_shared(user, requester_id, paths, now);
                        cache.put(digest, key, CachedToken { issued_at: t.issued_at, signature: t.signature });
                        t
                    }
                }
            }
            None => self.signer.sign_shared(user, requester_id, paths, now),
        };
        tracer.exit();
        self.stats.referrals += 1;
        self.telemetry.counters().referrals.fetch_add(1, Ordering::Relaxed);
        self.provenance.record(now, owner, requester, purpose, &entries, narrowed);
        Ok(LookupOutcome {
            referral: Referral { entries, merge_required, token, token_cached },
            narrowed,
        })
    }

    /// Accounts a lookup answered by an identical earlier one instead
    /// of the pipeline (the shard's window table, DESIGN.md §8).
    /// `earlier` is that lookup's provenance record, or its refusal.
    /// The request counters move as if the pipeline had run; the work
    /// counters (memo hits, trie hits, token reuse) do not, since no
    /// work ran. A permitted lookup is disclosed again, stamped `now`
    /// and `purpose` (the earlier lookup's own, since only an identical
    /// request is answered this way). Returns false, accounting
    /// nothing, when retention has dropped the record to copy: the
    /// caller runs the pipeline instead.
    pub(crate) fn repeat_lookup(
        &mut self,
        owner: &str,
        earlier: Result<RecordRef, &GupsterError>,
        purpose: Purpose,
        now: u64,
    ) -> bool {
        if let Ok(record) = earlier {
            if !self.provenance.record_again(record, purpose, now) {
                return false;
            }
        }
        self.count_repeat(owner, earlier.err());
        true
    }

    /// The request counters of a lookup answered without the pipeline:
    /// a referral, or the refusal `refused`.
    fn count_repeat(&mut self, owner: &str, refused: Option<&GupsterError>) {
        self.count_lookup(owner, refused);
        let counters = self.telemetry.counters();
        self.stats.lookups += 1;
        counters.lookups.fetch_add(1, Ordering::Relaxed);
        match refused {
            None => {
                self.stats.referrals += 1;
                counters.referrals.fetch_add(1, Ordering::Relaxed);
            }
            Some(GupsterError::SpuriousQuery(_)) => self.stats.spurious += 1,
            Some(GupsterError::AccessDenied { .. }) => {
                self.stats.denied += 1;
                counters.policy_denials.fetch_add(1, Ordering::Relaxed);
            }
            Some(GupsterError::UnknownUser(_) | GupsterError::NoCoverage(_)) => {
                self.stats.uncovered += 1;
            }
            // The pipeline refuses with the four above only.
            Some(_) => {}
        }
    }

    /// Counts a lookup on its owner's coverage entry, unless the request
    /// did not fit the schema; an unknown owner has no entry to count on.
    fn count_lookup(&mut self, owner: &str, refused: Option<&GupsterError>) {
        if !matches!(refused, Some(GupsterError::SpuriousQuery(_))) {
            if let Some(coverage) = self.coverage.get_mut(owner) {
                coverage.lookups += 1;
            }
        }
    }

    /// Every owner with a lookup counted, and its count.
    pub(crate) fn owner_lookups(&self) -> impl Iterator<Item = (&str, u64)> {
        self.coverage.iter().filter(|(_, c)| c.lookups > 0).map(|(owner, c)| (&**owner, c.lookups))
    }

    /// Routes an update (provisioning request, Req. 11): the stores
    /// whose registered coverage fully contains the update target. The
    /// shield is consulted with [`Purpose::Provision`].
    pub fn route_update(
        &mut self,
        owner: &str,
        target: &Path,
        requester: &str,
        time: WeekTime,
        now: u64,
    ) -> Result<LookupOutcome, GupsterError> {
        let out = self.lookup(owner, target, requester, Purpose::Provision, time, now)?;
        // Updates cannot go to partial sources whose fragment might not
        // contain the target; restrict to complete entries when any
        // exist.
        if out.referral.entries.iter().any(|e| e.complete) {
            let mut r = out.referral.clone();
            r.entries.retain(|e| e.complete);
            r.merge_required = false;
            return Ok(LookupOutcome { referral: r, narrowed: out.narrowed });
        }
        Ok(out)
    }
}

/// The held copy of `value` in an intern table that counts its holders,
/// counting one more; a value not held yet enters the table.
fn intern<T, Q>(table: &mut HashMap<Arc<T>, usize>, value: Q) -> Arc<T>
where
    T: ?Sized + Eq + std::hash::Hash,
    Q: std::borrow::Borrow<T> + Into<Arc<T>>,
{
    if let Some(held) = table.get_key_value(value.borrow()).map(|(held, _)| Arc::clone(held)) {
        if let Some(holders) = table.get_mut(&*held) {
            *holders += 1;
        }
        return held;
    }
    let held: Arc<T> = value.into();
    table.insert(Arc::clone(&held), 1);
    held
}

/// `n` holders of `value` let it go: the last one's release drops it
/// from the intern table.
fn release<T>(table: &mut HashMap<Arc<T>, usize>, value: &T, n: usize)
where
    T: ?Sized + Eq + std::hash::Hash,
{
    if n == 0 {
        return;
    }
    if let Some(holders) = table.get_mut(value) {
        *holders -= n;
        if *holders == 0 {
            table.remove(value);
        }
    }
}

/// `requester`'s provisioned relationship to `owner`, with the table's
/// own copy of the requester id.
fn provisioned<'t>(
    relationships: &'t HashMap<Arc<str>, HashMap<Arc<str>, Arc<str>>>,
    owner: &str,
    requester: &str,
) -> Option<(&'t Arc<str>, &'t str)> {
    let (id, rel) = relationships.get(owner)?.get_key_value(requester)?;
    Some((id, rel))
}

/// Ensures the first step carries `[@id='owner']`, copying a borrowed
/// path only when it must add it.
fn with_user_id<'p>(mut p: Cow<'p, Path>, owner: &str) -> Cow<'p, Path> {
    use gupster_xpath::Predicate;
    let lacks = p.steps.first().is_some_and(|first| {
        !first.predicates.iter().any(|pr| matches!(pr, Predicate::AttrEq(a, _) if a == "id"))
    });
    if lacks {
        if let Some(first) = p.to_mut().steps.first_mut() {
            first.predicates.insert(0, Predicate::AttrEq("id".into(), owner.into()));
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_policy::Effect;
    use gupster_schema::gup_schema;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn sid(s: &str) -> StoreId {
        StoreId::new(s)
    }

    fn server() -> Gupster {
        let mut g = Gupster::new(gup_schema(), b"test-key");
        g.register_component("arnaud", p("/user[@id='arnaud']/address-book"), sid("gup.yahoo.com"))
            .unwrap();
        g.register_component("arnaud", p("/user[@id='arnaud']/address-book"), sid("gup.spcs.com"))
            .unwrap();
        g.register_component("arnaud", p("/user[@id='arnaud']/presence"), sid("gup.spcs.com"))
            .unwrap();
        g
    }

    fn noon() -> WeekTime {
        WeekTime::at(2, 12, 0)
    }

    #[test]
    fn owner_lookup_yields_choice_referral() {
        let mut g = server();
        let out = g
            .lookup("arnaud", &p("/user[@id='arnaud']/address-book"), "arnaud", Purpose::Query, noon(), 100)
            .unwrap();
        assert_eq!(out.referral.entries.len(), 2);
        assert!(out.referral.choices().count() == 2);
        assert!(!out.referral.merge_required);
        assert!(!out.narrowed);
        // The token covers the rewritten paths and verifies.
        assert!(g.signer().verify(&out.referral.token, 120).is_ok());
        assert_eq!(g.stats.referrals, 1);
    }

    /// A whole-request permit of a registered path asks for the
    /// registration's own path and names the table's own store ids; any
    /// other permitted path is one copy its entries share.
    #[test]
    fn entries_share_the_registered_path_and_store_ids() {
        let mut g = server();
        let book = p("/user[@id='arnaud']/address-book");
        let out = g.lookup("arnaud", &book, "arnaud", Purpose::Query, noon(), 0).unwrap();
        let (registered, stores) = g.coverage_of("arnaud").unwrap().entries()[0].clone();
        assert_eq!(*registered, book);
        assert_eq!(out.referral.entries.len(), 2);
        for (entry, store) in out.referral.entries.iter().zip(&stores) {
            assert!(Arc::ptr_eq(&entry.path, &registered), "{entry:?}");
            assert!(Arc::ptr_eq(&entry.store, store), "{entry:?}");
        }

        // A deeper request is covered by the book but is not it: one
        // copy, shared by both choices.
        let item = p("/user[@id='arnaud']/address-book/item[@id='7']");
        let out = g.lookup("arnaud", &item, "arnaud", Purpose::Query, noon(), 0).unwrap();
        let [a, b] = &out.referral.entries[..] else { panic!("two choices: {:?}", out.referral) };
        assert_eq!(*a.path, item);
        assert!(Arc::ptr_eq(&a.path, &b.path));
        assert!(!Arc::ptr_eq(&a.path, &registered));
    }

    /// A token's fields are NUL-terminated in its signed payload, so a
    /// requester id holding a NUL would sign as a shorter id plus the
    /// paths after its NUL: eve, allowed alice's presence, would hold a
    /// token signing her alice's address book too. The shield refuses
    /// such an id; before it did, this lookup was granted.
    #[test]
    fn a_requester_id_holding_nul_is_refused() {
        let mut g = server();
        g.pap.provision("arnaud", "pub", Effect::Permit, "/user/presence", "true", 0).unwrap();
        let (book, presence) = ("/user[@id='arnaud']/address-book", p("/user[@id='arnaud']/presence"));
        assert!(g.lookup("arnaud", &presence, "eve", Purpose::Query, noon(), 0).is_ok());
        let smuggler = format!("eve\0{book}");
        let got = g.lookup("arnaud", &presence, &smuggler, Purpose::Query, noon(), 0);
        assert!(matches!(got, Err(GupsterError::AccessDenied { .. })), "{got:?}");
        assert_eq!(g.stats.denied, 1);
        // What the refused token would have signed: eve's own token for
        // the book and the presence.
        let s = g.signer();
        let smuggled = s.sign("arnaud", &smuggler, vec![presence.to_string()], 0);
        let both = s.sign("arnaud", "eve", vec![book.to_string(), presence.to_string()], 0);
        assert_eq!(smuggled.signature, both.signature);
    }

    /// An owner id is the first NUL-terminated field of a token's
    /// signed payload, so `arnaud\0eve`'s tokens would sign as owner
    /// arnaud, requester eve: registration refuses it, on one shard or
    /// through the sharded front end.
    #[test]
    fn an_owner_id_holding_nul_is_refused() {
        let owner = "arnaud\0eve";
        let presence = p("/user[@id='arnaud']/presence");
        let mut g = server();
        let got = g.register_component(owner, presence.clone(), StoreId::new("s1"));
        assert_eq!(got, Err(GupsterError::NulInId(owner.to_string())));
        assert!(g.coverage_of(owner).is_none());
        let mut reg = crate::ShardedRegistry::new(gup_schema(), b"k", 2);
        let got = reg.register_component(owner, presence.clone(), StoreId::new("s1"));
        assert_eq!(got, Err(GupsterError::NulInId(owner.to_string())));
        // What such an owner's token would have signed.
        let s = g.signer();
        let smuggled = s.sign(owner, "x", vec![presence.to_string()], 0);
        let other = s.sign("arnaud", "eve", vec!["x".to_string(), presence.to_string()], 0);
        assert_eq!(smuggled.signature, other.signature);
    }

    #[test]
    fn spurious_query_filtered() {
        let mut g = server();
        let err = g.lookup("arnaud", &p("/user/mp3-collection"), "arnaud", Purpose::Query, noon(), 0);
        assert!(matches!(err, Err(GupsterError::SpuriousQuery(_))));
        assert_eq!(g.stats.spurious, 1);
        assert_eq!(g.stats.referrals, 0);
    }

    #[test]
    fn unknown_user_and_uncovered() {
        let mut g = server();
        let err = g.lookup("ghost", &p("/user/presence"), "ghost", Purpose::Query, noon(), 0);
        assert!(matches!(err, Err(GupsterError::UnknownUser(_))));
        let err = g.lookup("arnaud", &p("/user[@id='arnaud']/calendar"), "arnaud", Purpose::Query, noon(), 0);
        assert!(matches!(err, Err(GupsterError::NoCoverage(_))));
        assert_eq!(g.stats.uncovered, 2);
    }

    #[test]
    fn shield_denies_stranger() {
        let mut g = server();
        let err = g.lookup("arnaud", &p("/user[@id='arnaud']/presence"), "spy", Purpose::Query, noon(), 0);
        assert!(matches!(err, Err(GupsterError::AccessDenied { .. })));
        assert_eq!(g.stats.denied, 1);
    }

    #[test]
    fn shield_permits_provisioned_coworker() {
        let mut g = server();
        g.set_relationship("arnaud", "rick", "co-worker");
        g.pap.provision(
            "arnaud",
            "cw",
            Effect::Permit,
            "/user/presence",
            "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
            0,
        )
        .unwrap();
        let ok = g.lookup("arnaud", &p("/user[@id='arnaud']/presence"), "rick", Purpose::Query, noon(), 0);
        assert!(ok.is_ok());
        // Same co-worker outside working hours: denied.
        let err = g.lookup(
            "arnaud",
            &p("/user[@id='arnaud']/presence"),
            "rick",
            Purpose::Query,
            WeekTime::at(2, 22, 0),
            0,
        );
        assert!(matches!(err, Err(GupsterError::AccessDenied { .. })));
    }

    #[test]
    fn figure_9_merge_referral() {
        let mut g = Gupster::new(gup_schema(), b"k");
        g.register_component(
            "arnaud",
            p("/user[@id='arnaud']/address-book/item[@type='personal']"),
            sid("gup.yahoo.com"),
        )
        .unwrap();
        g.register_component(
            "arnaud",
            p("/user[@id='arnaud']/address-book/item[@type='corporate']"),
            sid("gup.lucent.com"),
        )
        .unwrap();
        let out = g
            .lookup("arnaud", &p("/user[@id='arnaud']/address-book"), "arnaud", Purpose::Query, noon(), 0)
            .unwrap();
        assert!(out.referral.merge_required);
        assert_eq!(out.referral.entries.iter().filter(|e| !e.complete).count(), 2);
        let s = out.referral.to_string();
        assert!(s.contains("gup.yahoo.com") && s.contains("gup.lucent.com"), "{s}");
    }

    #[test]
    fn narrowing_flows_into_referral() {
        let mut g = server();
        g.set_relationship("arnaud", "mom", "family");
        g.pap.provision(
            "arnaud",
            "fam",
            Effect::Permit,
            "/user/address-book/item[@type='personal']",
            "relationship='family'",
            0,
        )
        .unwrap();
        let out = g
            .lookup("arnaud", &p("/user[@id='arnaud']/address-book"), "mom", Purpose::Query, noon(), 0)
            .unwrap();
        assert!(out.narrowed);
        for e in &out.referral.entries {
            assert!(e.path.to_string().contains("personal"), "{}", e.path);
            // The store-facing path carries the user id.
            assert!(e.path.to_string().contains("arnaud"), "{}", e.path);
        }
    }

    #[test]
    fn registration_validated_against_schema() {
        let mut g = Gupster::new(gup_schema(), b"k");
        let err = g.register_component("a", p("/user/mp3s"), sid("s"));
        assert!(matches!(err, Err(GupsterError::SpuriousQuery(_))));
    }

    #[test]
    fn carrier_switch_unregisters_store() {
        let mut g = server();
        assert_eq!(g.unregister_store("arnaud", &sid("gup.spcs.com")), 2);
        // Address book still answered by Yahoo!.
        let out = g
            .lookup("arnaud", &p("/user[@id='arnaud']/address-book"), "arnaud", Purpose::Query, noon(), 0)
            .unwrap();
        assert_eq!(out.referral.entries.len(), 1);
        assert_eq!(*out.referral.entries[0].store, sid("gup.yahoo.com"));
        // Presence is gone.
        let err = g.lookup("arnaud", &p("/user[@id='arnaud']/presence"), "arnaud", Purpose::Query, noon(), 0);
        assert!(matches!(err, Err(GupsterError::NoCoverage(_))));
    }

    #[test]
    fn update_routing_prefers_complete_sources() {
        let mut g = server();
        let out = g
            .route_update("arnaud", &p("/user[@id='arnaud']/address-book"), "arnaud", noon(), 0)
            .unwrap();
        assert!(out.referral.entries.iter().all(|e| e.complete));
        assert_eq!(out.referral.entries.len(), 2);
    }

    #[test]
    fn provenance_records_disclosures() {
        let mut g = server();
        g.set_relationship("arnaud", "rick", "co-worker");
        g.pap
            .provision("arnaud", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0)
            .unwrap();
        g.lookup("arnaud", &p("/user[@id='arnaud']/presence"), "rick", Purpose::Query, noon(), 7)
            .unwrap();
        // Denied lookups leave no disclosure.
        let _ = g.lookup("arnaud", &p("/user[@id='arnaud']/presence"), "spy", Purpose::Query, noon(), 8);
        let audit = g.provenance.disclosures_of("arnaud");
        assert_eq!(audit.len(), 1);
        assert_eq!(audit[0].requester, "rick");
        assert_eq!(audit[0].when, 7);
        assert_eq!(
            g.provenance.accessors_of("arnaud", &p("/user/presence")),
            vec!["rick"]
        );
    }

    #[test]
    fn lookup_traces_pipeline_stages() {
        let mut g = server();
        g.lookup("arnaud", &p("/user[@id='arnaud']/address-book"), "arnaud", Purpose::Query, noon(), 0)
            .unwrap();
        let hub = g.telemetry();
        let spans = hub.spans();
        assert!(gupster_telemetry::single_rooted_tree(&spans), "{spans:?}");
        assert_eq!(spans[0].stage, "registry.lookup");
        for s in ["registry.lookup", "policy.decide", "query.rewrite", "coverage.match", "token.sign"] {
            assert!(hub.stage_stats(s).is_some(), "missing stage {s}");
        }
        let c = hub.counter_snapshot();
        assert_eq!(c.lookups, 1);
        assert_eq!(c.referrals, 1);
        assert_eq!(c.policy_denials, 0);
    }

    #[test]
    fn denied_lookup_counts_denial_and_stops_tracing() {
        let mut g = server();
        let _ = g.lookup("arnaud", &p("/user[@id='arnaud']/presence"), "spy", Purpose::Query, noon(), 0);
        let hub = g.telemetry();
        let c = hub.counter_snapshot();
        assert_eq!(c.policy_denials, 1);
        assert_eq!(c.referrals, 0);
        // The pipeline stopped at the shield: no signing span.
        assert!(hub.stage_stats("token.sign").is_none());
        assert!(hub.stage_stats("policy.decide").is_some());
    }

    #[test]
    fn huge_referral_dedups_without_quadratic_scan() {
        // Regression: `push_unique` scanned the whole entry list per
        // insert (O(n²)); a 10k-fragment referral now scans only the
        // entries already listed for its path, one per distinct store.
        // Two stores per item exercise the dedup on both the partial
        // and full arms.
        let mut g = Gupster::new(gup_schema(), b"k");
        for i in 0..10_000 {
            g.register_component(
                "arnaud",
                p(&format!("/user[@id='arnaud']/address-book/item[@id='{i}']")),
                sid(&format!("store-{}", i % 2)),
            )
            .unwrap();
        }
        let out = g
            .lookup("arnaud", &p("/user[@id='arnaud']/address-book"), "arnaud", Purpose::Query, noon(), 0)
            .unwrap();
        // Partial entries carry the request path, so the 10k fragments
        // collapse to one entry per store.
        assert_eq!(out.referral.entries.len(), 2);
        let mut uniq = std::collections::HashSet::new();
        for e in &out.referral.entries {
            assert!(uniq.insert((e.store.clone(), e.path.clone())), "duplicate {e:?}");
        }
        // A point lookup stays pruned: the trie examines ~1 candidate
        // out of 10k.
        let out = g
            .lookup(
                "arnaud",
                &p("/user[@id='arnaud']/address-book/item[@id='77']"),
                "arnaud",
                Purpose::Query,
                noon(),
                1,
            )
            .unwrap();
        assert_eq!(out.referral.entries.len(), 1);
        assert_eq!(*out.referral.entries[0].store, sid("store-1"));
        let c = g.telemetry().counter_snapshot();
        assert_eq!(c.trie_hits, 2);
        assert_eq!(c.fallback_scans, 0);
    }

    #[test]
    fn referral_lists_full_sources_first_and_each_store_once() {
        // The partial registration comes first, and one store holds
        // both a partial and a full registration: it is listed once, as
        // a full source, and full sources lead in registration order.
        let mut g = Gupster::new(gup_schema(), b"k");
        let book = "/user[@id='arnaud']/address-book";
        for (path, store) in [
            (format!("{book}/item[@type='personal']"), "gup.yahoo.com"),
            (book.to_string(), "gup.spcs.com"),
            (book.to_string(), "gup.yahoo.com"),
        ] {
            g.register_component("arnaud", p(&path), sid(store)).unwrap();
        }
        let out = g.lookup("arnaud", &p(book), "arnaud", Purpose::Query, noon(), 0).unwrap();
        let listed: Vec<_> = out
            .referral
            .entries
            .iter()
            .map(|e| (e.store.0.as_str(), e.path.to_string(), e.complete))
            .collect();
        assert_eq!(
            listed,
            [("gup.spcs.com", book.to_string(), true), ("gup.yahoo.com", book.to_string(), true)]
        );
        assert!(!out.referral.merge_required);
    }

    #[test]
    fn decision_memo_hits_and_invalidates_on_pap_writes() {
        let mut g = server();
        g.set_relationship("arnaud", "rick", "co-worker");
        g.pap
            .provision("arnaud", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0)
            .unwrap();
        let presence = p("/user[@id='arnaud']/presence");
        g.lookup("arnaud", &presence, "rick", Purpose::Query, noon(), 0).unwrap();
        g.lookup("arnaud", &presence, "rick", Purpose::Query, noon(), 1).unwrap();
        g.lookup("arnaud", &presence, "rick", Purpose::Query, noon(), 2).unwrap();
        let c = g.telemetry().counter_snapshot();
        assert_eq!(c.memo_hits, 2, "repeat lookups ride the memo");
        let (len, hits, _) = g.memo_stats();
        assert!(len >= 1);
        assert_eq!(hits, 2);
        // A PAP write bumps the repository generation: the memoized
        // permit must NOT survive the owner revoking the rule.
        assert!(g.pap.withdraw("arnaud", "cw"));
        let err = g.lookup("arnaud", &presence, "rick", Purpose::Query, noon(), 3);
        assert!(matches!(err, Err(GupsterError::AccessDenied { .. })), "stale memo served");
        // A different context (other requester) never shares an entry.
        let err = g.lookup("arnaud", &presence, "spy", Purpose::Query, noon(), 4);
        assert!(matches!(err, Err(GupsterError::AccessDenied { .. })));
    }

    #[test]
    fn note_write_drops_the_written_owner_only() {
        let mut g = server();
        g.enable_token_cache();
        g.register_component("bob", p("/user[@id='bob']/presence"), sid("gup.spcs.com")).unwrap();
        let ask = |g: &mut Gupster, owner: &str, component: &str, now: u64| {
            let path = p(&format!("/user[@id='{owner}']/{component}"));
            g.lookup(owner, &path, owner, Purpose::Query, noon(), now).unwrap().referral.token_cached
        };
        // Two decisions and two tokens for arnaud, one of each for bob.
        assert!(!ask(&mut g, "arnaud", "address-book", 0));
        assert!(!ask(&mut g, "arnaud", "presence", 0));
        assert!(!ask(&mut g, "bob", "presence", 0));
        assert_eq!(g.memo_stats(), (3, 0, 3));

        assert_eq!(g.note_write("arnaud", &[]), 0, "nothing changed, nothing dropped");
        assert_eq!(g.note_write("arnaud", &[p("/user[@id='arnaud']/presence")]), 4);
        assert_eq!(g.telemetry().counter_snapshot().invalidations, 4);
        assert_eq!((g.write_generation("arnaud"), g.write_generation("bob")), (1, 0));
        assert_eq!(g.memo_stats(), (1, 0, 3));

        // Bob rides his memo entry and his token; arnaud starts over.
        assert!(ask(&mut g, "bob", "presence", 1));
        assert_eq!(g.memo_stats(), (1, 1, 3));
        assert!(!ask(&mut g, "arnaud", "presence", 1));
        assert_eq!(g.memo_stats(), (2, 1, 4));
        assert!(ask(&mut g, "arnaud", "presence", 2));
        // A second write finds only what was rebuilt since.
        assert_eq!(g.note_write("arnaud", &[p("/user[@id='arnaud']/presence")]), 2);
        assert_eq!(g.telemetry().counter_snapshot().invalidations, 6);
    }

    /// A stale view the shield now refuses serves nothing, so it counts
    /// no hit and keeps its place in the recency order.
    #[test]
    fn a_refused_stale_view_counts_no_hit_and_is_not_refreshed() {
        let mut g = server();
        // The seam: the shipped bound is 4096; two shows the same.
        g.stale = ResultCache::new(2);
        g.set_relationship("arnaud", "rick", "co-worker");
        g.pap
            .provision("arnaud", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0)
            .unwrap();
        let (presence, book) = (p("/user[@id='arnaud']/presence"), p("/user[@id='arnaud']/address-book"));
        // A fill keeps its own lookup's disclosure record.
        let fill = |g: &mut Gupster, path: &Path, requester: &str, now: u64| {
            g.lookup("arnaud", path, requester, Purpose::Query, noon(), now).unwrap();
            let (answer, record): (SharedAnswer, _) =
                (Arc::new([gupster_xml::Element::new("x")]), g.provenance.newest());
            g.remember_answer("arnaud", path, requester, Purpose::Query, noon(), answer, now, record);
        };
        fill(&mut g, &presence, "rick", 0);
        fill(&mut g, &book, "arnaud", 0);
        assert!(g.pap.withdraw("arnaud", "cw"));
        let got = g.stale_answer("arnaud", &presence, "rick", Purpose::Query, noon(), 1);
        assert!(matches!(got, Err(GupsterError::AccessDenied { .. })), "{got:?}");
        assert_eq!((g.stale_answers().hits, g.stale_answers().misses), (0, 1));
        // rick's refused view is still the least recently used: the next
        // fill evicts it, not arnaud's book.
        fill(&mut g, &presence, "arnaud", 1);
        assert!(g.stale_answers().peek("arnaud", "rick", &presence).is_none());
        let served = g.stale_answer("arnaud", &book, "arnaud", Purpose::Query, noon(), 3).unwrap();
        assert_eq!(served.map(|(_, age)| age), Some(3));
        assert_eq!((g.stale_answers().hits, g.stale_answers().misses), (1, 1));
    }

    #[test]
    fn a_full_token_cache_evicts_one_token_not_all_of_them() {
        let mut g = server();
        // The seam: the shipped bound is 65 536; three shows the same.
        g.token_cache = Some(OwnerLru::new(3));
        for u in ["u1", "u2", "u3", "u4"] {
            g.register_component(u, p(&format!("/user[@id='{u}']/presence")), sid("s")).unwrap();
        }
        let ask = |g: &mut Gupster, owner: &str, now: u64| {
            let path = p(&format!("/user[@id='{owner}']/presence"));
            g.lookup(owner, &path, owner, Purpose::Query, noon(), now).unwrap().referral.token_cached
        };
        for u in ["u1", "u2", "u3"] {
            assert!(!ask(&mut g, u, 0));
        }
        // Reusing u1's token leaves u2's the least recently used…
        assert!(ask(&mut g, "u1", 1));
        // …so one token past the bound costs u2's alone.
        assert!(!ask(&mut g, "u4", 1));
        for u in ["u1", "u3", "u4"] {
            assert!(ask(&mut g, u, 2), "{u}'s token must survive the eviction");
        }
        assert!(!ask(&mut g, "u2", 2));
        assert_eq!(g.token_cache.as_ref().map(OwnerLru::len), Some(3));
    }

    #[test]
    fn debug_output_leaks_no_signing_key() {
        let g = Gupster::new(gup_schema(), b"secret-key");
        let shown = format!("{g:?}");
        assert!(shown.contains("Signer { freshness_window: 30, .. }"), "{shown}");
        assert!(!shown.contains("secret-key"), "the key text is printed");
        let bytes: Vec<String> = b"secret-key".iter().map(u8::to_string).collect();
        assert!(!shown.contains(&bytes.join(", ")), "the key bytes are printed");
    }

    #[test]
    fn relationship_resolution() {
        let mut g = server();
        assert_eq!(g.relationship("arnaud", "arnaud"), "self");
        assert_eq!(g.relationship("arnaud", "spy"), "third-party");
        g.set_relationship("arnaud", "rick", "co-worker");
        assert_eq!(g.relationship("arnaud", "rick"), "co-worker");
        // Relationships are directional.
        assert_eq!(g.relationship("rick", "arnaud"), "third-party");
    }

    #[test]
    fn owners_share_store_ids_labels_and_their_own_id() {
        let mut g = server();
        g.register_component("bob", p("/user[@id='bob']/presence"), sid("gup.spcs.com")).unwrap();
        let held = |g: &Gupster, owner: &str, entry: usize| {
            Arc::clone(&g.coverage_of(owner).unwrap().entries()[entry].1[0])
        };
        assert!(Arc::ptr_eq(&held(&g, "bob", 0), &held(&g, "arnaud", 1)));
        assert_eq!(g.store_ids.len(), 2);

        // The relationship table's owner key is the coverage table's.
        g.set_relationship("arnaud", "rick", "co-worker");
        g.set_relationship("bob", "rick", "co-worker");
        let (owner, _) = g.relationships.get_key_value("arnaud").unwrap();
        assert!(Arc::ptr_eq(owner, g.owner_id("arnaud").unwrap()));
        let label = |g: &Gupster, owner: &str| Arc::clone(&g.relationships[owner]["rick"]);
        assert!(Arc::ptr_eq(&label(&g, "arnaud"), &label(&g, "bob")));
        // An owner provisioned before registering keeps one id too.
        g.set_relationship("carol", "rick", "family");
        g.register_component("carol", p("/user[@id='carol']/presence"), sid("s3")).unwrap();
        let (owner, _) = g.relationships.get_key_value("carol").unwrap();
        assert!(Arc::ptr_eq(owner, g.owner_id("carol").unwrap()));

        // A table entry goes with its last holder.
        g.set_relationship("carol", "rick", "co-worker");
        assert_eq!(g.labels.len(), 1);
        assert_eq!(g.unregister_store("arnaud", &sid("gup.spcs.com")), 2);
        assert_eq!(g.store_ids.len(), 3, "bob still names gup.spcs.com");
        let bob = p("/user[@id='bob']/presence");
        assert!(g.unregister_component("bob", &bob, &sid("gup.spcs.com")));
        assert!(g.unregister_component("carol", &p("/user[@id='carol']/presence"), &sid("s3")));
        let names: Vec<String> = g.store_ids.keys().map(|s| s.to_string()).collect();
        assert_eq!(names, ["gup.yahoo.com"]);
        assert_eq!(g.store_ids[&sid("gup.yahoo.com")], 1);
    }
}
