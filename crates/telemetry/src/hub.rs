//! The [`TelemetryHub`]: request-id allotment, per-stage histograms,
//! pipeline counters, tail-latency exemplars and finished-trace
//! storage.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gupster_netsim::SimTime;

use crate::histogram::Histogram;
use crate::intern::{StageId, StageInterner};
use crate::span::{RequestId, Span, Tracer};

/// Pipeline event counters. Plain atomics so instrumented code can bump
/// them without holding the hub's histogram lock.
#[derive(Debug, Default)]
pub struct Counters {
    /// Lookup requests traced.
    pub lookups: AtomicU64,
    /// Referrals issued.
    pub referrals: AtomicU64,
    /// Requests refused by the privacy shield.
    pub policy_denials: AtomicU64,
    /// Cache hits.
    pub cache_hits: AtomicU64,
    /// Cache misses.
    pub cache_misses: AtomicU64,
    /// Signature verifications performed by data stores.
    pub signature_verifications: AtomicU64,
    /// Retry attempts issued by the resilience layer.
    pub retries: AtomicU64,
    /// Fallbacks to a lower rung of the degradation ladder.
    pub fallbacks: AtomicU64,
    /// Requests that exhausted their deadline budget.
    pub deadline_exceeded: AtomicU64,
    /// Results served from the stale cache after every rung failed.
    pub stale_serves: AtomicU64,
    /// Coverage matches answered by the path-trie index.
    pub trie_hits: AtomicU64,
    /// Policy decisions served from the decision memo.
    pub memo_hits: AtomicU64,
    /// Coverage matches that fell back to the naive full scan.
    pub fallback_scans: AtomicU64,
    /// Duplicate in-flight fetches coalesced by a singleflight table.
    pub singleflight_hits: AtomicU64,
    /// Per-store batch RPCs issued in place of per-fragment fetches.
    pub batched_fetches: AtomicU64,
    /// Two-way sync sessions completed.
    pub sync_sessions: AtomicU64,
    /// Changelog operations shipped during sync sessions.
    pub sync_ops_shipped: AtomicU64,
    /// Conflicting change pairs detected during sync reconciliation.
    pub sync_conflicts: AtomicU64,
    /// Sync sessions that fell back to the slow full-document path.
    pub sync_slow_paths: AtomicU64,
    /// Changelog entries removed by compaction (truncated, coalesced,
    /// or annihilated) across the fleet.
    pub compacted_ops: AtomicU64,
    /// Cache/memo entries invalidated by write-through invalidation
    /// after committed syncs.
    pub invalidations: AtomicU64,
    /// Open-loop requests admitted through the ingress queues.
    pub admitted: AtomicU64,
    /// Call-delivery requests shed by admission control.
    pub shed_calls: AtomicU64,
    /// Profile-edit / bulk requests shed by admission control.
    pub shed_edits: AtomicU64,
    /// Bulk services preempted by call-delivery arrivals.
    pub preemptions: AtomicU64,
    /// Shed requests answered from the admission stale cache.
    pub overload_stale_serves: AtomicU64,
    /// Referral tokens reused from the registry's token cache instead
    /// of freshly signed (DESIGN.md §7).
    pub token_reuse: AtomicU64,
    /// Write events matched through the inverted subscription index
    /// (DESIGN.md §12) instead of the linear watcher scan.
    pub index_hits: AtomicU64,
    /// Coalesced notification batches delivered (one message pair per
    /// subscriber per delivery window).
    pub fanout_batched: AtomicU64,
    /// Notifications absorbed into an earlier message of the same
    /// delivery window (dedup + per-subscriber coalescing).
    pub fanout_coalesced: AtomicU64,
}

/// A point-in-time copy of the [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Lookup requests traced.
    pub lookups: u64,
    /// Referrals issued.
    pub referrals: u64,
    /// Requests refused by the privacy shield.
    pub policy_denials: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Signature verifications performed by data stores.
    pub signature_verifications: u64,
    /// Retry attempts issued by the resilience layer.
    pub retries: u64,
    /// Fallbacks to a lower rung of the degradation ladder.
    pub fallbacks: u64,
    /// Requests that exhausted their deadline budget.
    pub deadline_exceeded: u64,
    /// Results served from the stale cache after every rung failed.
    pub stale_serves: u64,
    /// Coverage matches answered by the path-trie index.
    pub trie_hits: u64,
    /// Policy decisions served from the decision memo.
    pub memo_hits: u64,
    /// Coverage matches that fell back to the naive full scan.
    pub fallback_scans: u64,
    /// Duplicate in-flight fetches coalesced by a singleflight table.
    pub singleflight_hits: u64,
    /// Per-store batch RPCs issued in place of per-fragment fetches.
    pub batched_fetches: u64,
    /// Two-way sync sessions completed.
    pub sync_sessions: u64,
    /// Changelog operations shipped during sync sessions.
    pub sync_ops_shipped: u64,
    /// Conflicting change pairs detected during sync reconciliation.
    pub sync_conflicts: u64,
    /// Sync sessions that fell back to the slow full-document path.
    pub sync_slow_paths: u64,
    /// Changelog entries removed by compaction across the fleet.
    pub compacted_ops: u64,
    /// Cache/memo entries invalidated after committed syncs.
    pub invalidations: u64,
    /// Open-loop requests admitted through the ingress queues.
    pub admitted: u64,
    /// Call-delivery requests shed by admission control.
    pub shed_calls: u64,
    /// Profile-edit / bulk requests shed by admission control.
    pub shed_edits: u64,
    /// Bulk services preempted by call-delivery arrivals.
    pub preemptions: u64,
    /// Shed requests answered from the admission stale cache.
    pub overload_stale_serves: u64,
    /// Referral tokens reused from the token cache.
    pub token_reuse: u64,
    /// Write events matched through the inverted subscription index.
    pub index_hits: u64,
    /// Coalesced notification batches delivered.
    pub fanout_batched: u64,
    /// Notifications absorbed into an earlier batch message.
    pub fanout_coalesced: u64,
}

impl CounterSnapshot {
    /// Adds `other` into `self`, field by field — shard harnesses use
    /// this to aggregate per-shard hubs into fleet-wide totals.
    pub fn absorb(&mut self, other: &CounterSnapshot) {
        self.lookups += other.lookups;
        self.referrals += other.referrals;
        self.policy_denials += other.policy_denials;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.signature_verifications += other.signature_verifications;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.deadline_exceeded += other.deadline_exceeded;
        self.stale_serves += other.stale_serves;
        self.trie_hits += other.trie_hits;
        self.memo_hits += other.memo_hits;
        self.fallback_scans += other.fallback_scans;
        self.singleflight_hits += other.singleflight_hits;
        self.batched_fetches += other.batched_fetches;
        self.sync_sessions += other.sync_sessions;
        self.sync_ops_shipped += other.sync_ops_shipped;
        self.sync_conflicts += other.sync_conflicts;
        self.sync_slow_paths += other.sync_slow_paths;
        self.compacted_ops += other.compacted_ops;
        self.invalidations += other.invalidations;
        self.admitted += other.admitted;
        self.shed_calls += other.shed_calls;
        self.shed_edits += other.shed_edits;
        self.preemptions += other.preemptions;
        self.overload_stale_serves += other.overload_stale_serves;
        self.token_reuse += other.token_reuse;
        self.index_hits += other.index_hits;
        self.fanout_batched += other.fanout_batched;
        self.fanout_coalesced += other.fanout_coalesced;
    }

    /// The counter's fields as `(name, value)` rows in declaration
    /// order — the single source of truth the snapshot exporters and
    /// the dashboard iterate, so a newly added counter cannot be
    /// silently missing from one of them.
    pub fn named_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("lookups", self.lookups),
            ("referrals", self.referrals),
            ("policy_denials", self.policy_denials),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("signature_verifications", self.signature_verifications),
            ("retries", self.retries),
            ("fallbacks", self.fallbacks),
            ("deadline_exceeded", self.deadline_exceeded),
            ("stale_serves", self.stale_serves),
            ("trie_hits", self.trie_hits),
            ("memo_hits", self.memo_hits),
            ("fallback_scans", self.fallback_scans),
            ("singleflight_hits", self.singleflight_hits),
            ("batched_fetches", self.batched_fetches),
            ("sync_sessions", self.sync_sessions),
            ("sync_ops_shipped", self.sync_ops_shipped),
            ("sync_conflicts", self.sync_conflicts),
            ("sync_slow_paths", self.sync_slow_paths),
            ("compacted_ops", self.compacted_ops),
            ("invalidations", self.invalidations),
            ("admitted", self.admitted),
            ("shed_calls", self.shed_calls),
            ("shed_edits", self.shed_edits),
            ("preemptions", self.preemptions),
            ("overload_stale_serves", self.overload_stale_serves),
            ("token_reuse", self.token_reuse),
            ("index_hits", self.index_hits),
            ("fanout_batched", self.fanout_batched),
            ("fanout_coalesced", self.fanout_coalesced),
        ]
    }

    /// Sets the field called `name` to `value`; false when no counter
    /// has that name. The snapshot parser uses this as the inverse of
    /// [`CounterSnapshot::named_fields`].
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "lookups" => &mut self.lookups,
            "referrals" => &mut self.referrals,
            "policy_denials" => &mut self.policy_denials,
            "cache_hits" => &mut self.cache_hits,
            "cache_misses" => &mut self.cache_misses,
            "signature_verifications" => &mut self.signature_verifications,
            "retries" => &mut self.retries,
            "fallbacks" => &mut self.fallbacks,
            "deadline_exceeded" => &mut self.deadline_exceeded,
            "stale_serves" => &mut self.stale_serves,
            "trie_hits" => &mut self.trie_hits,
            "memo_hits" => &mut self.memo_hits,
            "fallback_scans" => &mut self.fallback_scans,
            "singleflight_hits" => &mut self.singleflight_hits,
            "batched_fetches" => &mut self.batched_fetches,
            "sync_sessions" => &mut self.sync_sessions,
            "sync_ops_shipped" => &mut self.sync_ops_shipped,
            "sync_conflicts" => &mut self.sync_conflicts,
            "sync_slow_paths" => &mut self.sync_slow_paths,
            "compacted_ops" => &mut self.compacted_ops,
            "invalidations" => &mut self.invalidations,
            "admitted" => &mut self.admitted,
            "shed_calls" => &mut self.shed_calls,
            "shed_edits" => &mut self.shed_edits,
            "preemptions" => &mut self.preemptions,
            "overload_stale_serves" => &mut self.overload_stale_serves,
            "token_reuse" => &mut self.token_reuse,
            "index_hits" => &mut self.index_hits,
            "fanout_batched" => &mut self.fanout_batched,
            "fanout_coalesced" => &mut self.fanout_coalesced,
            _ => return false,
        };
        *slot = value;
        true
    }
}

impl Counters {
    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            lookups: self.lookups.load(Ordering::Relaxed),
            referrals: self.referrals.load(Ordering::Relaxed),
            policy_denials: self.policy_denials.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            signature_verifications: self.signature_verifications.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
            trie_hits: self.trie_hits.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            fallback_scans: self.fallback_scans.load(Ordering::Relaxed),
            singleflight_hits: self.singleflight_hits.load(Ordering::Relaxed),
            batched_fetches: self.batched_fetches.load(Ordering::Relaxed),
            sync_sessions: self.sync_sessions.load(Ordering::Relaxed),
            sync_ops_shipped: self.sync_ops_shipped.load(Ordering::Relaxed),
            sync_conflicts: self.sync_conflicts.load(Ordering::Relaxed),
            sync_slow_paths: self.sync_slow_paths.load(Ordering::Relaxed),
            compacted_ops: self.compacted_ops.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_calls: self.shed_calls.load(Ordering::Relaxed),
            shed_edits: self.shed_edits.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            overload_stale_serves: self.overload_stale_serves.load(Ordering::Relaxed),
            token_reuse: self.token_reuse.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            fanout_batched: self.fanout_batched.load(Ordering::Relaxed),
            fanout_coalesced: self.fanout_coalesced.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.lookups.store(0, Ordering::Relaxed);
        self.referrals.store(0, Ordering::Relaxed);
        self.policy_denials.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.signature_verifications.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
        self.deadline_exceeded.store(0, Ordering::Relaxed);
        self.stale_serves.store(0, Ordering::Relaxed);
        self.trie_hits.store(0, Ordering::Relaxed);
        self.memo_hits.store(0, Ordering::Relaxed);
        self.fallback_scans.store(0, Ordering::Relaxed);
        self.singleflight_hits.store(0, Ordering::Relaxed);
        self.batched_fetches.store(0, Ordering::Relaxed);
        self.sync_sessions.store(0, Ordering::Relaxed);
        self.sync_ops_shipped.store(0, Ordering::Relaxed);
        self.sync_conflicts.store(0, Ordering::Relaxed);
        self.sync_slow_paths.store(0, Ordering::Relaxed);
        self.compacted_ops.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
        self.admitted.store(0, Ordering::Relaxed);
        self.shed_calls.store(0, Ordering::Relaxed);
        self.shed_edits.store(0, Ordering::Relaxed);
        self.preemptions.store(0, Ordering::Relaxed);
        self.overload_stale_serves.store(0, Ordering::Relaxed);
        self.token_reuse.store(0, Ordering::Relaxed);
        self.index_hits.store(0, Ordering::Relaxed);
        self.fanout_batched.store(0, Ordering::Relaxed);
        self.fanout_coalesced.store(0, Ordering::Relaxed);
    }
}

/// Aggregate latency statistics of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Number of spans recorded for the stage.
    pub count: u64,
    /// Median duration.
    pub p50: SimTime,
    /// 95th-percentile duration.
    pub p95: SimTime,
    /// 99th-percentile duration.
    pub p99: SimTime,
    /// Mean duration.
    pub mean: SimTime,
    /// Largest duration.
    pub max: SimTime,
}

/// A retained tail-latency exemplar: the full span tree of one request
/// whose end-to-end duration cleared the hub's exemplar threshold.
///
/// `key` is caller-assigned (see [`Tracer::set_key`]) and is the
/// identity the deterministic top-k selection ties on — sharded
/// harnesses set it to the request's *global* submission index so the
/// selected exemplars are identical at any shard count, even though
/// per-shard [`RequestId`]s differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Stable, shard-independent identity of the exemplified request.
    pub key: u64,
    /// End-to-end simulated duration of the request.
    pub duration: SimTime,
    /// The request's full span tree, root first.
    pub spans: Vec<Span>,
}

impl Exemplar {
    /// The total order exemplar selection uses: slowest first, ties
    /// broken by the smaller (earlier) key. A total order over
    /// (duration, key) is what makes top-k selection merge-stable:
    /// the global top-k of a union is always a subset of the union of
    /// per-shard top-k sets.
    pub fn rank_cmp(&self, other: &Exemplar) -> std::cmp::Ordering {
        other.duration.cmp(&self.duration).then(self.key.cmp(&other.key))
    }
}

/// Merges per-hub exemplar sets into the fleet-wide top-`cap`,
/// deterministically: concatenate, sort by [`Exemplar::rank_cmp`],
/// truncate. Because each hub already keeps its own top-`cap` under
/// the same total order, the result is identical for any partitioning
/// of the requests across hubs.
pub fn merge_exemplars(sets: Vec<Vec<Exemplar>>, cap: usize) -> Vec<Exemplar> {
    let mut all: Vec<Exemplar> = sets.into_iter().flatten().collect();
    all.sort_by(Exemplar::rank_cmp);
    all.truncate(cap);
    all
}

/// Owns everything telemetric: assigns [`RequestId`]s, aggregates
/// per-stage histograms as spans close, keeps [`Counters`], captures
/// tail-latency [`Exemplar`]s and stores finished traces for export.
/// Shared as `Arc<TelemetryHub>` between the registry, client-side
/// instrumentation and experiment harnesses.
#[derive(Debug)]
pub struct TelemetryHub {
    next_request: AtomicU64,
    counters: Counters,
    /// Per-stage histograms, indexed by [`StageId`] — the interner
    /// assigns ids process-wide, so a hub's vector may have gaps
    /// (empty histograms) for stages other subsystems interned.
    stages: Mutex<Vec<Histogram>>,
    spans: Mutex<Vec<Span>>,
    /// Finished-span retention cap: once the store holds this many
    /// spans, further traces feed the stage histograms but are not
    /// retained. Large sharded workloads set this to keep memory flat.
    span_limit: AtomicUsize,
    /// Exemplar capture threshold in µs; `u64::MAX` disables capture.
    exemplar_threshold: AtomicU64,
    /// How many exemplars the hub retains (top-k by duration).
    exemplar_cap: AtomicUsize,
    exemplars: Mutex<Vec<Exemplar>>,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        TelemetryHub {
            next_request: AtomicU64::new(0),
            counters: Counters::default(),
            stages: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            span_limit: AtomicUsize::new(usize::MAX),
            exemplar_threshold: AtomicU64::new(u64::MAX),
            exemplar_cap: AtomicUsize::new(0),
            exemplars: Mutex::new(Vec::new()),
        }
    }
}

impl TelemetryHub {
    /// A fresh hub.
    pub fn new() -> Self {
        TelemetryHub::default()
    }

    /// Allots the next request id.
    pub fn next_request(&self) -> RequestId {
        RequestId(self.next_request.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts tracing a new request; the root span carries `root_stage`.
    pub fn tracer(self: &Arc<Self>, root_stage: &str) -> Tracer {
        let request = self.next_request();
        Tracer::new(Arc::clone(self), request, root_stage)
    }

    /// The pipeline counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// A copy of the counters.
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Zeroes the counters (histograms and traces are untouched).
    pub fn reset_counters(&self) {
        self.counters.reset();
    }

    /// Feeds one closed span's duration into its stage's histogram.
    /// Public so simulation layers without a [`Tracer`] at hand can
    /// still contribute stage timings.
    pub fn record_stage(&self, stage: &str, duration: SimTime) {
        self.record_stage_ids(&[(StageInterner::intern(stage), duration)]);
    }

    /// Feeds a whole batch of closed-span durations under **one** lock
    /// acquisition, with the stage labels already interned — this is
    /// the [`Tracer`]'s flush path: a request costs one histogram lock
    /// and zero label allocations instead of one `String` per span.
    /// Shard workers hammering a shared hub depend on this.
    pub fn record_stage_ids(&self, batch: &[(StageId, SimTime)]) {
        if batch.is_empty() {
            return;
        }
        let mut stages = self.lock_stages();
        for &(stage, duration) in batch {
            let idx = stage.0 as usize;
            if idx >= stages.len() {
                stages.resize_with(idx + 1, Histogram::default);
            }
            stages[idx].record(duration);
        }
    }

    /// Owned-label variant of [`TelemetryHub::record_stage_ids`], kept
    /// for callers (and benchmarks) that still hold `String` batches.
    pub fn record_stages(&self, batch: &[(String, SimTime)]) {
        if batch.is_empty() {
            return;
        }
        let mut stages = self.lock_stages();
        for (stage, duration) in batch {
            let idx = StageInterner::intern(stage).0 as usize;
            if idx >= stages.len() {
                stages.resize_with(idx + 1, Histogram::default);
            }
            stages[idx].record(*duration);
        }
    }

    /// Caps how many finished spans the hub retains (see
    /// [`TelemetryHub::spans`]); histograms and counters are unaffected.
    /// `usize::MAX` (the default) retains everything.
    pub fn set_span_limit(&self, limit: usize) {
        self.span_limit.store(limit, Ordering::Relaxed);
    }

    pub(crate) fn absorb(&self, spans: Vec<Span>) {
        let limit = self.span_limit.load(Ordering::Relaxed);
        let mut held = self.lock_spans();
        if held.len() >= limit {
            return;
        }
        let room = limit - held.len();
        if spans.len() <= room {
            held.extend(spans);
        } else {
            held.extend(spans.into_iter().take(room));
        }
    }

    /// All finished spans, in absorption order (root-first per request).
    pub fn spans(&self) -> Vec<Span> {
        self.lock_spans().clone()
    }

    /// Number of finished spans held.
    pub fn span_count(&self) -> usize {
        self.lock_spans().len()
    }

    /// The stage labels with at least one recorded span, sorted.
    pub fn stages(&self) -> Vec<String> {
        self.stage_histograms().into_iter().map(|(name, _)| name).collect()
    }

    /// Latency statistics of one stage, `None` when nothing recorded.
    pub fn stage_stats(&self, stage: &str) -> Option<StageStats> {
        let id = StageInterner::lookup(stage)?;
        let stages = self.lock_stages();
        let h = stages.get(id.0 as usize)?;
        if h.count() == 0 {
            return None;
        }
        Some(stats_of(h))
    }

    /// Every non-empty stage histogram as `(label, histogram)` rows,
    /// sorted by label, copied out under **one** lock acquisition —
    /// the consistent read the scatter-gather merge and the dashboard
    /// snapshot use, so no torn view across stages is possible.
    pub fn stage_histograms(&self) -> Vec<(String, Histogram)> {
        let copied: Vec<(usize, Histogram)> = {
            let stages = self.lock_stages();
            stages
                .iter()
                .enumerate()
                .filter(|(_, h)| h.count() > 0)
                .map(|(i, h)| (i, h.clone()))
                .collect()
        };
        let mut rows: Vec<(String, Histogram)> = copied
            .into_iter()
            .map(|(i, h)| (StageInterner::resolve(StageId(i as u32)).to_string(), h))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Every non-empty stage's [`StageStats`], sorted by label, from
    /// one consistent histogram read.
    pub fn stage_rows(&self) -> Vec<(String, StageStats)> {
        self.stage_histograms().into_iter().map(|(name, h)| (name, stats_of(&h))).collect()
    }

    /// Enables tail-latency exemplar capture: any request whose
    /// end-to-end duration is ≥ `threshold` keeps its full span tree,
    /// and the hub retains the top-`cap` slowest (ties broken by the
    /// smaller [`Exemplar::key`]). A `cap` of zero disables capture.
    pub fn set_exemplar_policy(&self, threshold: SimTime, cap: usize) {
        self.exemplar_threshold.store(threshold.0, Ordering::Relaxed);
        self.exemplar_cap.store(cap, Ordering::Relaxed);
    }

    /// The retained exemplars, slowest first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.lock_exemplars().clone()
    }

    /// The configured exemplar retention cap.
    pub fn exemplar_cap(&self) -> usize {
        self.exemplar_cap.load(Ordering::Relaxed)
    }

    pub(crate) fn wants_exemplar(&self, duration: SimTime) -> bool {
        self.exemplar_cap.load(Ordering::Relaxed) > 0
            && duration.0 >= self.exemplar_threshold.load(Ordering::Relaxed)
    }

    pub(crate) fn offer_exemplar(&self, exemplar: Exemplar) {
        let cap = self.exemplar_cap.load(Ordering::Relaxed);
        if cap == 0 {
            return;
        }
        let mut held = self.lock_exemplars();
        let at = held.partition_point(|e| e.rank_cmp(&exemplar).is_lt());
        if at >= cap {
            return;
        }
        held.insert(at, exemplar);
        held.truncate(cap);
    }

    pub(crate) fn span_room(&self) -> usize {
        let limit = self.span_limit.load(Ordering::Relaxed);
        limit.saturating_sub(self.lock_spans().len())
    }

    /// Renders the per-stage latency table (see [`crate::table`]).
    pub fn render_stage_table(&self, title: &str) -> String {
        crate::table::render_stage_table(self, title)
    }

    /// Serializes every finished span as JSON lines (see
    /// [`crate::export`]).
    pub fn export_jsonl(&self) -> String {
        crate::export::export(&self.spans())
    }

    fn lock_stages(&self) -> std::sync::MutexGuard<'_, Vec<Histogram>> {
        self.stages.lock().expect("telemetry stage mutex poisoned")
    }

    fn lock_spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("telemetry span mutex poisoned")
    }

    fn lock_exemplars(&self) -> std::sync::MutexGuard<'_, Vec<Exemplar>> {
        self.exemplars.lock().expect("telemetry exemplar mutex poisoned")
    }
}

/// [`StageStats`] of one histogram.
fn stats_of(h: &Histogram) -> StageStats {
    StageStats {
        count: h.count(),
        p50: h.p50(),
        p95: h.p95(),
        p99: h.p99(),
        mean: h.mean(),
        max: h.max(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_bump_and_reset() {
        let hub = TelemetryHub::new();
        hub.counters().lookups.fetch_add(3, Ordering::Relaxed);
        hub.counters().cache_hits.fetch_add(1, Ordering::Relaxed);
        hub.counters().signature_verifications.fetch_add(2, Ordering::Relaxed);
        hub.counters().trie_hits.fetch_add(7, Ordering::Relaxed);
        hub.counters().memo_hits.fetch_add(5, Ordering::Relaxed);
        hub.counters().fallback_scans.fetch_add(1, Ordering::Relaxed);
        let snap = hub.counter_snapshot();
        assert_eq!(snap.lookups, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.signature_verifications, 2);
        assert_eq!(snap.policy_denials, 0);
        assert_eq!((snap.trie_hits, snap.memo_hits, snap.fallback_scans), (7, 5, 1));
        hub.reset_counters();
        assert_eq!(hub.counter_snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn stage_stats_aggregate_across_tracers() {
        let hub = Arc::new(TelemetryHub::new());
        for i in 1..=100u64 {
            let mut t = hub.tracer("root");
            t.span("token.sign", SimTime::micros(i));
        }
        let stats = hub.stage_stats("token.sign").unwrap();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.max, SimTime::micros(100));
        assert!(stats.p50 >= SimTime::micros(50) && stats.p50 < SimTime::micros(100));
        assert!(stats.p95 >= SimTime::micros(95));
        assert!(hub.stage_stats("ghost").is_none());
        assert_eq!(hub.stages(), vec!["root".to_string(), "token.sign".to_string()]);
    }

    #[test]
    fn stage_batches_equal_single_records() {
        let a = TelemetryHub::new();
        let b = TelemetryHub::new();
        for i in 1..=20u64 {
            a.record_stage("s", SimTime::micros(i));
        }
        let batch: Vec<(String, SimTime)> =
            (1..=20u64).map(|i| ("s".to_string(), SimTime::micros(i))).collect();
        b.record_stages(&batch);
        assert_eq!(a.stage_stats("s"), b.stage_stats("s"));
    }

    #[test]
    fn span_limit_caps_retention_but_not_histograms() {
        let hub = Arc::new(TelemetryHub::new());
        hub.set_span_limit(3);
        for _ in 0..10 {
            hub.tracer("root").span("token.sign", SimTime::micros(1));
        }
        assert!(hub.span_count() <= 3, "{}", hub.span_count());
        // Every span still fed its stage histogram.
        assert_eq!(hub.stage_stats("token.sign").unwrap().count, 10);
    }

    #[test]
    fn snapshot_absorb_sums_fields() {
        let a = TelemetryHub::new();
        a.counters().lookups.fetch_add(3, Ordering::Relaxed);
        a.counters().singleflight_hits.fetch_add(2, Ordering::Relaxed);
        let b = TelemetryHub::new();
        b.counters().lookups.fetch_add(4, Ordering::Relaxed);
        b.counters().batched_fetches.fetch_add(5, Ordering::Relaxed);
        let mut total = a.counter_snapshot();
        total.absorb(&b.counter_snapshot());
        assert_eq!(total.lookups, 7);
        assert_eq!(total.singleflight_hits, 2);
        assert_eq!(total.batched_fetches, 5);
    }

    #[test]
    fn exemplars_capture_the_tail_only() {
        let hub = Arc::new(TelemetryHub::new());
        hub.set_span_limit(0);
        hub.set_exemplar_policy(SimTime::micros(50), 3);
        for i in 1..=100u64 {
            let mut t = hub.tracer("shard.request");
            t.set_key(1000 + i);
            t.span("store.fetch", SimTime::micros(i));
        }
        let exemplars = hub.exemplars();
        assert_eq!(exemplars.len(), 3, "top-3 of the 51 over-threshold requests");
        let durations: Vec<u64> = exemplars.iter().map(|e| e.duration.0).collect();
        assert_eq!(durations, vec![100, 99, 98], "slowest first");
        assert_eq!(exemplars[0].key, 1100);
        // The full span tree rides along even with span retention off.
        assert_eq!(exemplars[0].spans.len(), 2);
        assert_eq!(exemplars[0].spans[0].stage, "shard.request");
        assert_eq!(hub.span_count(), 0);
    }

    #[test]
    fn exemplar_ties_break_on_the_earlier_key() {
        let hub = Arc::new(TelemetryHub::new());
        hub.set_exemplar_policy(SimTime::micros(1), 2);
        for key in [9u64, 3, 7] {
            let mut t = hub.tracer("root");
            t.set_key(key);
            t.charge(SimTime::micros(10));
        }
        let keys: Vec<u64> = hub.exemplars().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![3, 7]);
    }

    #[test]
    fn exemplar_merge_is_partition_independent() {
        let run = |hub: &Arc<TelemetryHub>, key: u64| {
            let mut t = hub.tracer("root");
            t.set_key(key);
            t.charge(SimTime::micros(10 + key % 7));
        };
        let whole = Arc::new(TelemetryHub::new());
        whole.set_exemplar_policy(SimTime::micros(1), 4);
        let left = Arc::new(TelemetryHub::new());
        let right = Arc::new(TelemetryHub::new());
        left.set_exemplar_policy(SimTime::micros(1), 4);
        right.set_exemplar_policy(SimTime::micros(1), 4);
        for key in 0..40u64 {
            run(&whole, key);
            run(if key % 2 == 0 { &left } else { &right }, key);
        }
        let merged = merge_exemplars(vec![left.exemplars(), right.exemplars()], 4);
        let expect: Vec<(u64, u64)> =
            whole.exemplars().iter().map(|e| (e.key, e.duration.0)).collect();
        let got: Vec<(u64, u64)> = merged.iter().map(|e| (e.key, e.duration.0)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn stage_histograms_read_consistently() {
        let hub = TelemetryHub::new();
        hub.record_stage("alpha.stage", SimTime::micros(5));
        hub.record_stage("beta.stage", SimTime::micros(7));
        let rows = hub.stage_histograms();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted: {names:?}");
        let alpha = rows.iter().find(|(n, _)| n == "alpha.stage").unwrap();
        assert_eq!(alpha.1.count(), 1);
        // Gap entries (stages interned by other hubs/tests) never leak.
        assert!(rows.iter().all(|(_, h)| h.count() > 0));
    }

    #[test]
    fn counter_reset_keeps_histograms() {
        let hub = Arc::new(TelemetryHub::new());
        hub.tracer("root").span("xml.merge", SimTime::micros(10));
        hub.counters().referrals.fetch_add(5, Ordering::Relaxed);
        hub.reset_counters();
        assert_eq!(hub.counter_snapshot().referrals, 0);
        assert_eq!(hub.stage_stats("xml.merge").unwrap().count, 1);
        assert_eq!(hub.span_count(), 2);
    }
}
