//! The GUPster server: registration, lookup, rewriting, referrals.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gupster_netsim::SimTime;
use gupster_policy::pep::{Enforcement, Pep};
use gupster_policy::{Pap, Purpose, RequestContext, WeekTime};
use gupster_schema::Schema;
use gupster_store::StoreId;
use gupster_telemetry::{stage, TelemetryHub, Tracer};
use gupster_xpath::{KeyDigest, OwnedKey, OwnerLru, Path};

use crate::cache::ResultCache;
use crate::client::SharedAnswer;
use crate::coverage::CoverageMap;
use crate::error::GupsterError;
use crate::index::TrieWalk;
use crate::provenance::ProvenanceLog;
use crate::referral::{Referral, ReferralEntry};
use crate::token::{SignedQuery, Signer};

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
    coverage: HashMap<String, CoverageMap>,
    /// The policy administration point (owns the repository).
    pub pap: Pap,
    /// The enforcement point (DESIGN.md §7): its decision memo lets
    /// repeated (owner, context, path) triples skip the PDP entirely.
    /// Generation-stamped against the policy repository, so PAP writes
    /// invalidate it exactly.
    pep: Pep,
    signer: Signer,
    /// owner → requester → relationship, provisioned by owners. Keyed
    /// by owner first so a lookup resolves it from two borrowed `&str`s.
    relationships: HashMap<String, HashMap<String, String>>,
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
    /// resilience ladder and the open-loop engine fill it and serve
    /// from it; [`Gupster::note_write`] drops overlapping entries, and
    /// every serve re-enforces through `pep` first.
    stale: ResultCache<(u64, Vec<Path>)>,
}

/// Tokens the referral-token cache holds before the least recently
/// used one gives way.
const TOKEN_CACHE_CAPACITY: usize = 65_536;

/// Views the stale rung holds per shard before the least recently used
/// one gives way.
const STALE_CAPACITY: usize = 4096;

/// What a cached referral token was signed for.
#[derive(Debug, PartialEq)]
struct TokenKey {
    owner: String,
    requester: String,
    /// The rewritten path set, serialized.
    paths: Vec<String>,
}

impl OwnedKey for TokenKey {
    fn owner(&self) -> &str {
        &self.owner
    }
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
    /// that token while it is younger than half its freshness window.
    /// The cost model charges a reuse 1µs of simulated time instead of
    /// the 20µs it charges an HMAC pass (a real sign measures ≈0.7–0.9µs
    /// on the wall, DESIGN.md §7). Stores see a token they have already
    /// verified, so their signature check memoizes too (see the
    /// client's `token.verify` charge). Off by default — enabling it
    /// changes simulated costs, so experiments opt in.
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
    /// changed path. Returns the number of entries dropped (also added
    /// to the fleet `invalidations` counter). The one cache outside the
    /// registry, [`crate::cache::CachedClient`]'s, takes the same write
    /// through [`crate::cache::CachedClient::note_write`].
    pub(crate) fn note_write(&mut self, owner: &str, changed: &[Path]) -> usize {
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
    /// hit: the answer's own lookup just decided it). Nothing is charged
    /// or traced.
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
    ) {
        if let Ok(permitted) = self.shield(owner, request, requester, purpose, time, None) {
            self.stale.put(owner, requester, request, result, (now, permitted));
        }
    }

    /// The stale rung: the last fresh answer to `request` and its age
    /// at `now`, served only if [`Gupster::shield`], asked again with
    /// `purpose` and `time`, still permits exactly the path set it
    /// permitted when the answer was fresh. A refusal is the shield's
    /// [`GupsterError::AccessDenied`]; a narrowed or widened grant
    /// serves nothing (`Ok(None)`), like a miss. Nothing is charged or
    /// traced. A serve shares the remembered answer; the recorded path
    /// set is compared where it lies.
    pub(crate) fn stale_answer(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        now: u64,
    ) -> Result<Option<(SharedAnswer, u64)>, GupsterError> {
        let Some((result, (fresh_at, _))) = self.stale.get(owner, requester, request) else {
            return Ok(None);
        };
        let (result, age) = (Arc::clone(result), now.saturating_sub(*fresh_at));
        let still = self.shield(owner, request, requester, purpose, time, None)?;
        // The shield leaves the rung alone, so the entry is still there.
        let same =
            self.stale.peek(owner, requester, request).is_some_and(|(_, (_, then))| *then == still);
        Ok(same.then_some((result, age)))
    }

    /// The stale rung's views, for occupancy and hit/miss counts.
    pub fn stale_answers(&self) -> &ResultCache<(u64, Vec<Path>)> {
        &self.stale
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
    pub fn register_component(
        &mut self,
        user: &str,
        path: Path,
        store: StoreId,
    ) -> Result<(), GupsterError> {
        if !self.schema.admits_path(&path) {
            return Err(GupsterError::SpuriousQuery(path.to_string()));
        }
        self.coverage.entry(user.to_string()).or_default().register(path, store);
        self.stats.registrations += 1;
        Ok(())
    }

    /// Unregisters one component registration.
    pub fn unregister_component(&mut self, user: &str, path: &Path, store: &StoreId) -> bool {
        self.coverage.get_mut(user).map(|c| c.unregister(path, store)).unwrap_or(false)
    }

    /// Drops every registration of a store for a user (carrier switch,
    /// §2.1). Returns how many registrations were removed.
    pub fn unregister_store(&mut self, user: &str, store: &StoreId) -> usize {
        self.coverage.get_mut(user).map(|c| c.unregister_store(store)).unwrap_or(0)
    }

    /// The coverage map of a user (for inspection / experiments).
    pub fn coverage_of(&self, user: &str) -> Option<&CoverageMap> {
        self.coverage.get(user)
    }

    /// Copies all meta-data (coverage, relationships, policies) from a
    /// healthy mirror — the recovery half of mirror anti-entropy. The
    /// schema and signing key are deployment constants and stay as-is.
    pub(crate) fn clone_metadata_from(&mut self, other: &Gupster) {
        self.coverage = other.coverage.clone();
        self.relationships = other.relationships.clone();
        self.pap.repository = other.pap.repository.clone();
    }

    /// Provisions a relationship (owners declare who their co-workers,
    /// boss, family are — the shield conditions of §4.6 test these).
    pub fn set_relationship(&mut self, owner: &str, requester: &str, relationship: &str) {
        self.relationships
            .entry(owner.to_string())
            .or_default()
            .insert(requester.to_string(), relationship.to_string());
    }

    /// Resolves the relationship of a requester to an owner.
    pub(crate) fn relationship(&self, owner: &str, requester: &str) -> &str {
        if owner == requester {
            return "self";
        }
        self.relationships
            .get(owner)
            .and_then(|of_owner| of_owner.get(requester))
            .map_or("third-party", String::as_str)
    }

    /// Builds the request context the PDP sees.
    pub fn context(
        &self,
        owner: &str,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
    ) -> RequestContext {
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
    /// Returns the request paths the shield lets through. Besides
    /// [`Gupster::lookup`], [`crate::ShardedFanout::subscribe`] and the
    /// stale rung call it with no tracer, and build, sign and record no
    /// referral.
    ///
    /// A memo hit touches no rule and is charged 1µs of simulated time
    /// under a `policy.decide` span of `tracer`; a miss runs the PDP
    /// over the bucketed candidate rules, charged per rule examined
    /// (2µs each: condition eval + overlap test). Without a tracer
    /// nothing is charged.
    pub(crate) fn shield(
        &mut self,
        owner: &str,
        request: &Path,
        requester: &str,
        purpose: Purpose,
        time: WeekTime,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Vec<Path>, GupsterError> {
        // 1. Spurious-query filter.
        if !self.schema.admits_path(request) {
            self.stats.spurious += 1;
            return Err(GupsterError::SpuriousQuery(request.to_string()));
        }

        // 2. Known user?
        if !self.coverage.contains_key(owner) {
            self.stats.uncovered += 1;
            return Err(GupsterError::UnknownUser(owner.to_string()));
        }

        // 3. Privacy shield: decide (step 4a rewrites what it permits).
        let ctx = self.context(owner, requester, purpose, time);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.enter(stage::POLICY_DECIDE);
        }
        let enforced = self.pep.enforce(&self.pap.repository, owner, request, &ctx);
        if enforced.memo_hit {
            self.telemetry.counters().memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(tracer) = tracer {
            tracer.charge(SimTime::micros(1 + 2 * enforced.rules_considered));
            tracer.exit();
        }
        match enforced.enforcement {
            Enforcement::Refused => {
                self.stats.denied += 1;
                self.telemetry.counters().policy_denials.fetch_add(1, Ordering::Relaxed);
                Err(GupsterError::AccessDenied {
                    owner: owner.to_string(),
                    requester: requester.to_string(),
                })
            }
            Enforcement::Proceed(paths) => Ok(paths),
        }
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
        let permitted = self.shield(owner, request, requester, purpose, time, Some(&mut *tracer))?;
        // `shield` has checked that the owner is known.
        let Some(coverage) = self.coverage.get(owner) else {
            return Err(GupsterError::UnknownUser(owner.to_string()));
        };
        let narrowed = !matches!(permitted.as_slice(), [only] if only == request);

        // 4a. Rewrite: policy scopes omit the user-id predicate;
        // requests to the stores must carry it so multi-tenant stores
        // answer for the right user.
        tracer.enter(stage::QUERY_REWRITE);
        let rewritten: Vec<Path> = permitted.into_iter().map(|p| with_user_id(p, owner)).collect();
        tracer.charge(SimTime::micros(rewritten.len() as u64));
        tracer.exit();

        // 4b. Coverage match per permitted path. The trie index prunes
        // each match to its candidate entries (charged ~1µs per
        // candidate examined, with the walk itself a `coverage.index`
        // child span); wildcard requests fall back to the full scan.
        //
        // Every entry a path yields is asked for that path: a full
        // source answers it whole, and partial sources each return the
        // fragment they hold under it for the client to deep-union
        // (Fig. 9) — the narrower registered path only selects *which*
        // stores participate. Full sources are listed before partial
        // ones, each store once per path.
        tracer.enter(stage::COVERAGE_MATCH);
        let mut entries: Vec<ReferralEntry> = Vec::new();
        let mut examined: u64 = 0;
        let (walk, matched) = (&mut self.walk, &mut self.matched);
        for p in rewritten {
            matched.clear();
            let match_stats = coverage.visit_matches(&p, walk, |idx, full| matched.push((idx, full)));
            if match_stats.used_index {
                self.telemetry.counters().trie_hits.fetch_add(1, Ordering::Relaxed);
                tracer.enter(stage::COVERAGE_INDEX);
                tracer.charge(SimTime::micros(1));
                tracer.exit();
            } else {
                self.telemetry.counters().fallback_scans.fetch_add(1, Ordering::Relaxed);
            }
            examined += match_stats.candidates as u64;
            // A path the shield permitted twice names the same stores
            // again: its first occurrence listed them.
            if entries.iter().any(|e| e.path == p) {
                continue;
            }
            // Entries arrive in ascending index order, so ordering by
            // (partial?, index) lists full sources first and keeps the
            // arrival order within each kind. A store keeps its first
            // listing only.
            matched.sort_unstable_by_key(|&(idx, full)| (!full, idx));
            let first = entries.len();
            for &(idx, complete) in matched.iter() {
                for store in &coverage.entries()[idx].1 {
                    if !entries[first..].iter().any(|e| &e.store == store) {
                        let path = Path { steps: Vec::new() };
                        entries.push(ReferralEntry { store: store.clone(), path, complete });
                    }
                }
            }
            // Every new entry asks for `p`: copies for all but the
            // last, which takes it.
            if let Some((last, rest)) = entries[first..].split_last_mut() {
                for e in rest {
                    e.path = p.clone();
                }
                last.path = p;
            }
        }
        tracer.charge(SimTime::micros(1 + examined));
        tracer.exit();
        if entries.is_empty() {
            self.stats.uncovered += 1;
            return Err(GupsterError::NoCoverage(request.to_string()));
        }

        // 5. Sign the rewritten query — or reuse a cached token for the
        // same (owner, requester, path set) while it is younger than
        // half its freshness window, so stores never see a near-expiry
        // token. The charges are the cost model's simulated time: 20µs
        // for an HMAC pass, 1µs for a reuse. On the wall a sign measures
        // ≈0.7–0.9µs (two SHA-256 blocks for a presence token; DESIGN.md
        // §7).
        let merge_required = entries.iter().any(|e| !e.complete);
        let paths: Vec<String> = entries.iter().map(|e| render(&e.path)).collect();
        tracer.enter(stage::TOKEN_SIGN);
        let mut token_cached = false;
        let token = match &mut self.token_cache {
            Some(cache) => {
                let digest = KeyDigest::new(owner, &(requester, &paths));
                let held = cache.get(digest.key, |k| {
                    k.owner == owner && k.requester == requester && k.paths == paths
                });
                match held {
                    Some(t)
                        if now >= t.issued_at
                            && now - t.issued_at <= self.signer.freshness_window / 2 =>
                    {
                        token_cached = true;
                        self.telemetry.counters().token_reuse.fetch_add(1, Ordering::Relaxed);
                        tracer.charge(SimTime::micros(1));
                        SignedQuery {
                            user: owner.to_string(),
                            requester: requester.to_string(),
                            paths,
                            issued_at: t.issued_at,
                            signature: t.signature,
                        }
                    }
                    _ => {
                        let key = TokenKey {
                            owner: owner.to_string(),
                            requester: requester.to_string(),
                            paths: paths.clone(),
                        };
                        let t = self.signer.sign(owner, requester, paths, now);
                        cache.put(digest, key, CachedToken { issued_at: t.issued_at, signature: t.signature });
                        tracer.charge(SimTime::micros(20));
                        t
                    }
                }
            }
            None => {
                let t = self.signer.sign(owner, requester, paths, now);
                tracer.charge(SimTime::micros(20));
                t
            }
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

/// `p` as a token path: its display form, written once into a string
/// of exactly its size rather than grown by doubling.
fn render(p: &Path) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(p.display_len());
    // Writing to a `String` never fails.
    let _ = write!(s, "{p}");
    s
}

/// Ensures the first step carries `[@id='owner']`.
fn with_user_id(mut p: Path, owner: &str) -> Path {
    use gupster_xpath::Predicate;
    if let Some(first) = p.steps.first_mut() {
        let has = first
            .predicates
            .iter()
            .any(|pr| matches!(pr, Predicate::AttrEq(a, _) if a == "id"));
        if !has {
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
        assert_eq!(out.referral.entries[0].store, sid("gup.yahoo.com"));
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
        assert_eq!(out.referral.entries[0].store, sid("store-1"));
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
}
