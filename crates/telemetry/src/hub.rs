//! The [`TelemetryHub`]: request-id allotment, per-stage histograms,
//! pipeline counters, tail-latency exemplars and finished-trace
//! storage.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gupster_netsim::SimTime;
use gupster_xml::{NameId, NameInterner};

use crate::histogram::Histogram;
use crate::span::{RequestId, Span, Tracer};

/// Declares the pipeline counters once: the atomic [`Counters`], the
/// plain [`CounterSnapshot`] and every per-field routine between them
/// are generated from one list, in its order — the column order of the
/// snapshot exporters and the dashboard.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// Pipeline event counters. Plain atomics so instrumented code can bump
        /// them without holding the hub's histogram lock.
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of the [`Counters`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl CounterSnapshot {
            /// Adds `other` into `self`, field by field — shard harnesses use
            /// this to aggregate per-shard hubs into fleet-wide totals.
            pub fn absorb(&mut self, other: &CounterSnapshot) {
                $(self.$name += other.$name;)+
            }

            /// The counter's fields as `(name, value)` rows in declaration
            /// order — the single source of truth the snapshot exporters and
            /// the dashboard iterate, so a newly added counter cannot be
            /// silently missing from one of them.
            pub(crate) fn named_fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name)),+]
            }

            /// Sets the field called `name` to `value`; false when no counter
            /// has that name. The snapshot parser uses this as the inverse of
            /// [`CounterSnapshot::named_fields`].
            pub(crate) fn set_field(&mut self, name: &str, value: u64) -> bool {
                let slot = match name {
                    $(stringify!($name) => &mut self.$name,)+
                    _ => return false,
                };
                *slot = value;
                true
            }
        }

        impl Counters {
            fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }
    };
}

counters! {
    /// Lookup requests traced.
    lookups,
    /// Referrals issued.
    referrals,
    /// Requests refused by the privacy shield.
    policy_denials,
    /// Cache hits.
    cache_hits,
    /// Cache misses.
    cache_misses,
    /// Signature verifications performed by data stores.
    signature_verifications,
    /// Retry attempts issued by the resilience layer.
    retries,
    /// Fallbacks to a lower rung of the degradation ladder.
    fallbacks,
    /// Requests that exhausted their deadline budget.
    deadline_exceeded,
    /// Results served from the registry's stale rung after every ladder
    /// rung failed, or after a transient open-loop failure.
    stale_serves,
    /// Coverage matches answered by the path-trie index.
    trie_hits,
    /// Policy decisions served from the decision memo.
    memo_hits,
    /// Coverage matches that fell back to the naive full scan.
    fallback_scans,
    /// Requests served by a singleflight table from an identical earlier
    /// request in their window, with no lookup and no fetch.
    singleflight_hits,
    /// Per-store batch RPCs issued in place of per-fragment fetches.
    batched_fetches,
    /// Two-way sync sessions completed.
    sync_sessions,
    /// Changelog operations shipped during sync sessions.
    sync_ops_shipped,
    /// Conflicting change pairs detected during sync reconciliation.
    sync_conflicts,
    /// Sync sessions that fell back to the slow full-document path.
    sync_slow_paths,
    /// Changelog entries removed by compaction (truncated, coalesced,
    /// or annihilated) across the fleet.
    compacted_ops,
    /// Cache/memo entries invalidated by write-through invalidation
    /// after committed syncs.
    invalidations,
    /// Open-loop requests admitted through the ingress queues.
    admitted,
    /// Call-delivery requests shed by admission control.
    shed_calls,
    /// Profile-edit / bulk requests shed by admission control.
    shed_edits,
    /// Bulk services preempted by call-delivery arrivals.
    preemptions,
    /// Shed requests answered from the registry's stale rung.
    overload_stale_serves,
    /// Referral tokens reused from the registry's token cache instead
    /// of freshly signed (DESIGN.md §7).
    token_reuse,
    /// Write events matched through the inverted subscription index
    /// (DESIGN.md §12) instead of the linear watcher scan.
    index_hits,
    /// Coalesced notification batches delivered (one message pair per
    /// subscriber per delivery window).
    fanout_batched,
    /// Notifications absorbed into an earlier message of the same
    /// delivery window (dedup + per-subscriber coalescing).
    fanout_coalesced,
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
    pub(crate) fn rank_cmp(&self, other: &Exemplar) -> std::cmp::Ordering {
        other.duration.cmp(&self.duration).then(self.key.cmp(&other.key))
    }
}

/// Merges per-hub exemplar sets into the fleet-wide top-`cap`,
/// deterministically: concatenate, sort slowest first (ties to the
/// smaller [`Exemplar::key`]), truncate. Because each hub already
/// keeps its own top-`cap` under the same total order, the result is
/// identical for any partitioning of the requests across hubs.
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
    /// The interned labels of the stages this hub recorded, in first-seen
    /// order (a few dozen at most, so a scan finds one), and their
    /// histograms at the same positions.
    stages: Mutex<(Vec<NameId>, Vec<Histogram>)>,
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
            stages: Mutex::default(),
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
    pub(crate) fn next_request(&self) -> RequestId {
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

    /// Feeds one closed span's duration into its stage's histogram.
    /// Public so simulation layers without a [`Tracer`] at hand can
    /// still contribute stage timings.
    pub fn record_stage(&self, stage: &str, duration: SimTime) {
        self.record_stage_ids(&[(NameInterner::intern(stage), duration)]);
    }

    /// Feeds a whole batch of closed-span durations under **one** lock
    /// acquisition, with the stage labels already interned — this is
    /// the [`Tracer`]'s flush path: a request costs one histogram lock
    /// and zero label allocations instead of one `String` per span.
    /// Shard workers hammering a shared hub depend on this.
    pub fn record_stage_ids(&self, batch: &[(NameId, SimTime)]) {
        if batch.is_empty() {
            return;
        }
        let (ids, histograms) = &mut *self.lock_stages();
        for &(stage, duration) in batch {
            let at = match ids.iter().position(|&id| id == stage) {
                Some(at) => at,
                None => {
                    ids.push(stage);
                    histograms.push(Histogram::default());
                    ids.len() - 1
                }
            };
            histograms[at].record(duration);
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

    /// The stage labels with at least one recorded span, sorted.
    pub(crate) fn stages(&self) -> Vec<String> {
        self.stage_histograms().into_iter().map(|(name, _)| name).collect()
    }

    /// Latency statistics of one stage, `None` when nothing recorded.
    pub fn stage_stats(&self, stage: &str) -> Option<StageStats> {
        let id = NameInterner::lookup(stage)?;
        let (ids, histograms) = &*self.lock_stages();
        Some(stats_of(&histograms[ids.iter().position(|&s| s == id)?]))
    }

    /// Every non-empty stage histogram as `(label, histogram)` rows,
    /// sorted by label, copied out under **one** lock acquisition —
    /// the consistent read the scatter-gather merge and the dashboard
    /// snapshot use, so no torn view across stages is possible.
    pub fn stage_histograms(&self) -> Vec<(String, Histogram)> {
        let (ids, histograms) = &*self.lock_stages();
        let mut rows: Vec<(String, Histogram)> =
            ids.iter().zip(histograms).map(|(id, h)| (id.to_string(), h.clone())).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
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

    /// Renders the per-stage latency table: one row per stage with
    /// count, p50, p95, p99 and max.
    pub fn render_stage_table(&self, title: &str) -> String {
        crate::table::render_stage_table(self, title)
    }

    fn lock_stages(&self) -> std::sync::MutexGuard<'_, (Vec<NameId>, Vec<Histogram>)> {
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
    fn counters_bump() {
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
        let s = NameInterner::intern("s");
        let batch: Vec<(NameId, SimTime)> = (1..=20u64).map(|i| (s, SimTime::micros(i))).collect();
        b.record_stage_ids(&batch);
        assert_eq!(a.stage_stats("s"), b.stage_stats("s"));
    }

    #[test]
    fn span_limit_caps_retention_but_not_histograms() {
        let hub = Arc::new(TelemetryHub::new());
        hub.set_span_limit(3);
        for _ in 0..10 {
            hub.tracer("root").span("token.sign", SimTime::micros(1));
        }
        assert!(hub.spans().len() <= 3, "{}", hub.spans().len());
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
    fn every_counter_round_trips_by_name_and_absorbs() {
        let mut snap = CounterSnapshot::default();
        let names: Vec<&str> = snap.named_fields().into_iter().map(|(name, _)| name).collect();
        assert_eq!(names.len(), 30);
        for (i, name) in names.iter().enumerate() {
            assert!(snap.set_field(name, i as u64 + 1), "{name}");
        }
        assert!(!snap.set_field("no_such_counter", 1));
        let expect: Vec<(&str, u64)> =
            names.iter().enumerate().map(|(i, &name)| (name, i as u64 + 1)).collect();
        assert_eq!(snap.named_fields(), expect);
        let copy = snap;
        snap.absorb(&copy);
        let doubled: Vec<(&str, u64)> = expect.iter().map(|&(name, v)| (name, 2 * v)).collect();
        assert_eq!(snap.named_fields(), doubled);
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
        assert!(hub.spans().is_empty());
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
        // Stages interned by other hubs/tests never leak in.
        assert!(rows.iter().all(|(_, h)| h.count() > 0));
    }
}
