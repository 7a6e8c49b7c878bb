//! The owner-sharded executor, and the sharded registry front end that
//! runs lookups on it.
//!
//! The paper sizes GUPster for "hundreds of millions of users" (§3) —
//! one core doesn't get there. Everything that affects a lookup's
//! *output* is keyed by the profile owner: the coverage trie, the
//! decision memo, the owner's policies and relationships. That makes
//! the registry embarrassingly partitionable, and partitioning by owner
//! is the system's one scaling decision. It lives in one place: the
//! `Shards` executor below holds N parts, routes every owner to exactly
//! one of them by a stable hash, and runs the crate's only scatter/gather,
//! so shard workers never share mutable state and never need a lock.
//! Every sharded plane keeps its per-shard state in one: a
//! [`ShardedRegistry`] its [`Gupster`]s (and its open-loop ingress
//! queues), the sync plane its replica stars, the push fanout plane its
//! subscription indexes.
//!
//! **Determinism argument.** A seeded workload produces byte-identical
//! referrals and answers to the sequential path regardless of shard
//! count or thread interleaving, because
//!
//! 1. a user's requests all land on that user's one shard, in their
//!    original submission order (per-shard FIFO);
//! 2. no lookup output depends on another user's state — stats,
//!    provenance and telemetry are side channels, and a decision-memo
//!    hit returns the same decision a recompute would;
//! 3. the referral token is an HMAC over `(owner, requester, paths,
//!    now)` with the shared key — shard-independent;
//! 4. the gather step merges results into **stable request order**
//!    (the scatter index), not completion order.
//!
//! A full answer ([`ShardedRegistry::answer_batch`], the open loop)
//! fetches the way every client does: one round per destination store
//! ([`crate::fetch_merge`]), through the shard's per-window
//! singleflight table in `answer_batch`.
//!
//! Scatter-gather uses `std::thread::scope` workers over persistent
//! shard state — zero external deps, and the borrow checker proves the
//! partitioning (each worker holds `&mut` to exactly one part).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

use gupster_netsim::SimTime;
use gupster_policy::{Purpose, WeekTime};
use gupster_schema::Schema;
use gupster_store::StoreId;
use gupster_telemetry::obs::{FleetObs, HotKey, ObsSnapshot, ShardObs, StageRow};
use gupster_telemetry::{
    merge_exemplars, stage, CounterSnapshot, ExemplarSummary, Histogram, StageStats, Tracer,
};
use gupster_xml::MergeKeys;
use gupster_xpath::Path;

use crate::admission::{
    AdmissionConfig, Completion, IngressQueue, Priority, RequestOutcome, Shed,
};
use crate::client::{fetch_merge_traced, SharedAnswer, Singleflight, StorePool};
use crate::error::GupsterError;
use crate::registry::{Gupster, LookupOutcome};
use crate::resilience::is_transient;

// The scatter workers move `&mut Gupster` into scoped threads and share
// `&StorePool` between them; both bounds are load-bearing, so break the
// build loudly if a field ever loses them.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Gupster>();
    assert_sync::<StorePool>();
};

/// Stable FNV-1a over the user id — the shard route must not depend on
/// `std` hasher seeding, so per-shard counters and load factors are
/// reproducible run to run.
fn shard_hash(user: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The owner-sharded executor: `n ≥ 1` parts, each the sole holder of
/// the profile owners [`index`](Self::index) routes to it.
#[derive(Debug)]
pub(crate) struct Shards<T> {
    parts: Vec<T>,
}

impl<T> Shards<T> {
    /// `n` parts, part `i` built by `part(i)`.
    ///
    /// # Panics
    /// When `n` is zero.
    pub(crate) fn new(n: usize, part: impl FnMut(usize) -> T) -> Self {
        assert!(n >= 1, "an owner-sharded plane needs at least one shard");
        Shards { parts: (0..n).map(part).collect() }
    }

    /// The one owner → part route.
    pub(crate) fn index(&self, owner: &str) -> usize {
        (shard_hash(owner) % self.parts.len() as u64) as usize
    }

    /// The part holding `owner`.
    pub(crate) fn get(&self, owner: &str) -> &T {
        &self.parts[self.index(owner)]
    }

    /// The part holding `owner`, mutably.
    pub(crate) fn get_mut(&mut self, owner: &str) -> &mut T {
        let i = self.index(owner);
        &mut self.parts[i]
    }

    /// Every part, in part order.
    pub(crate) fn parts(&self) -> &[T] {
        &self.parts
    }

    /// Every part, mutably, in part order.
    pub(crate) fn parts_mut(&mut self) -> &mut [T] {
        &mut self.parts
    }

    /// Scatter/gather: buckets `items` by `owner`, runs one scoped worker
    /// per non-empty bucket with `&mut` to exactly its part, and gathers
    /// the results in submission order. `work` gets its part and its
    /// bucket's item indices (ascending) and returns a summary of the
    /// part's run plus one result per index, in bucket order. Also
    /// returns each part's `(bucket depth, summary)`, in part order; a
    /// part that got nothing reports `(0, S::default())`.
    ///
    /// A lone non-empty bucket runs on the calling thread: there is
    /// nothing to overlap it with, and spawning and joining a worker
    /// costs more than, say, one dirty replica star's reconcile pass.
    pub(crate) fn scatter<'a, I, R, S, F>(
        &mut self,
        items: &'a [I],
        owner: impl Fn(&'a I) -> &'a str,
        work: F,
    ) -> (Vec<R>, Vec<(usize, S)>)
    where
        T: Send,
        R: Send,
        S: Send + Default,
        F: Fn(&mut T, &[usize]) -> (S, Vec<R>) + Sync,
    {
        // Item indices grouped by part, ascending within a part: part
        // `p`'s bucket is the run of `order` that routes to `p`.
        let route: Vec<usize> = items.iter().map(|item| self.index(owner(item))).collect();
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_unstable_by_key(|&i| (route[i], i));
        let mut rest = &order[..];
        let buckets: Vec<&[usize]> = (0..self.parts.len())
            .map(|p| {
                let (bucket, tail) = rest.split_at(rest.partition_point(|&i| route[i] == p));
                rest = tail;
                bucket
            })
            .collect();
        let work = &work;
        let parts = self.parts.iter_mut().zip(buckets.iter().copied());
        let runs: Vec<Option<(S, Vec<R>)>> = if buckets.iter().filter(|b| !b.is_empty()).count() <= 1 {
            parts.map(|(part, bucket)| (!bucket.is_empty()).then(|| work(part, bucket))).collect()
        } else {
            thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .map(|(part, bucket)| (!bucket.is_empty()).then(|| scope.spawn(move || work(part, bucket))))
                    .collect();
                handles.into_iter().map(|h| h.map(|h| h.join().expect("shard worker panicked"))).collect()
            })
        };
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let per_part = (buckets.iter().zip(runs))
            .map(|(bucket, run)| {
                let Some((summary, out)) = run else { return (0, S::default()) };
                assert_eq!(out.len(), bucket.len(), "a shard worker must answer its whole bucket");
                for (&i, r) in bucket.iter().zip(out) {
                    slots[i] = Some(r);
                }
                (bucket.len(), summary)
            })
            .collect();
        let results = slots.into_iter().map(|r| r.expect("answered above")).collect();
        (results, per_part)
    }
}

/// One request in a scatter batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest {
    /// The profile owner (the shard route).
    pub owner: String,
    /// The requested path.
    pub path: Path,
    /// The requesting principal.
    pub requester: String,
    /// The request's purpose (shield context).
    pub purpose: Purpose,
    /// The request's week-time (shield context).
    pub time: WeekTime,
    /// Profile-clock seconds (token timestamp).
    pub now: u64,
}

/// Per-batch execution accounting from the scatter-gather run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Simulated busy time each shard spent on its slice of the batch
    /// (sum of its requests' traced pipeline costs).
    pub shard_sim: Vec<SimTime>,
    /// The simulated makespan: the busiest shard's time — what a
    /// wall clock would show with one core per shard.
    pub makespan: SimTime,
    /// Total simulated work across all shards (the one-core cost).
    pub total_sim: SimTime,
}

/// Fault-injection hook for open-loop runs: invoked once per admitted
/// request with the service instant and the request; returning `Some`
/// fails that execution before it reaches the pipeline.
pub(crate) type OpenLoopProbe<'a> = &'a dyn Fn(SimTime, &ShardRequest) -> Option<GupsterError>;

/// One arrival in an open-loop run: a request plus its arrival instant
/// and priority class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenLoopRequest {
    /// The request itself (owner routes both the physical shard and
    /// the virtual ingress queue).
    pub request: ShardRequest,
    /// When the request arrives at the service (simulated clock).
    pub arrival: SimTime,
    /// Its priority class.
    pub class: Priority,
}

/// Aggregate results of one [`ShardedRegistry::answer_open_loop`] run.
#[derive(Debug, Clone, Default)]
pub struct OverloadReport {
    /// Requests offered (arrivals).
    pub offered: usize,
    /// Requests admitted and answered by a full pipeline execution
    /// (the result may still be a typed error).
    pub admitted: u64,
    /// Admitted requests whose pipeline returned `Ok`.
    pub fresh: u64,
    /// Requests (shed or transiently failed) covered by the owner
    /// shard's stale rung.
    pub stale_served: u64,
    /// Call-delivery requests shed by admission control.
    pub shed_calls: u64,
    /// Profile-edit / bulk requests shed by admission control.
    pub shed_edits: u64,
    /// Call-delivery arrivals offered.
    pub offered_calls: u64,
    /// Profile-edit arrivals offered.
    pub offered_edits: u64,
    /// Bulk services preempted by call arrivals.
    pub preemptions: u64,
    /// High-water waiting-room depth across all ingress queues.
    pub max_queue_depth: usize,
    /// The instant the last service completed (run makespan).
    pub horizon: SimTime,
    /// Total simulated execution time across all shards.
    pub busy: SimTime,
    /// Sojourn (wait + service) histogram of the call class.
    pub call_latency: Histogram,
    /// Sojourn histogram of the bulk class.
    pub edit_latency: Histogram,
}

impl OverloadReport {
    /// Fraction of offered call-delivery requests that were shed.
    pub fn call_shed_rate(&self) -> f64 {
        if self.offered_calls == 0 {
            0.0
        } else {
            self.shed_calls as f64 / self.offered_calls as f64
        }
    }

    /// Fraction of offered profile-edit requests that were shed.
    pub fn edit_shed_rate(&self) -> f64 {
        if self.offered_edits == 0 {
            0.0
        } else {
            self.shed_edits as f64 / self.offered_edits as f64
        }
    }

    /// Fresh answers per simulated second (the goodput axis of E20).
    pub fn goodput_per_sec(&self) -> f64 {
        if self.horizon == SimTime::ZERO {
            0.0
        } else {
            self.fresh as f64 / (self.horizon.0 as f64 / 1_000_000.0)
        }
    }
}

/// Cumulative per-shard execution gauges, maintained at every
/// scatter-gather join (never inside the workers, so reading them can
/// never observe a torn mid-window state).
#[derive(Debug, Clone, Default)]
struct ShardAccum {
    /// Requests routed to the shard so far.
    requests: u64,
    /// Simulated busy time accumulated by the shard.
    busy: SimTime,
    /// Scatter windows observed (including ones where this shard got
    /// no requests — a zero-depth queue is a real observation).
    windows: u64,
    /// Sum of per-window queue depths (for the mean).
    queued_total: u64,
    /// Deepest per-window queue.
    queued_max: u64,
}

/// How many hottest users/paths the observability snapshot keeps.
const HOT_KEY_TOP_K: usize = 10;

/// Simulated cost charged per admission decision (the
/// `admission.decide` stage).
const ADMISSION_DECIDE_COST: SimTime = SimTime::micros(1);

/// N independent [`Gupster`] shards behind one facade: mutations route
/// to the owning shard, batches scatter across shard worker threads
/// and gather in stable request order.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Shards<Gupster>,
    /// Per-shard cumulative gauges, updated at each gather join.
    accum: Vec<ShardAccum>,
    /// Requests submitted across all batches — also the base of the
    /// stable per-request exemplar key (global submission index), which
    /// is what keeps exemplar selection byte-identical across shard
    /// counts even though hub-local request ids differ.
    ops: u64,
    /// Accumulated makespan across batches (simulated wall clock).
    makespan_total: SimTime,
    /// Request counts per profile owner (hot-user skew view).
    hot_users: BTreeMap<String, u64>,
    /// Request counts per requested path (hot-path skew view).
    hot_paths: BTreeMap<String, u64>,
}

impl ShardedRegistry {
    /// Builds `shards` independent registries over one schema and one
    /// shared signing key (tokens verify identically across shards).
    ///
    /// # Panics
    /// When `shards` is zero.
    pub fn new(schema: Schema, key: &[u8], shards: usize) -> Self {
        ShardedRegistry {
            shards: Shards::new(shards, |_| Gupster::new(schema.clone(), key)),
            accum: vec![ShardAccum::default(); shards],
            ops: 0,
            makespan_total: SimTime::ZERO,
            hot_users: BTreeMap::new(),
            hot_paths: BTreeMap::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards().len()
    }

    /// The shard index owning `user`.
    pub fn shard_of(&self, user: &str) -> usize {
        self.shards.index(user)
    }

    /// The shard owning `user`.
    pub fn shard(&self, user: &str) -> &Gupster {
        self.shards.get(user)
    }

    /// Mutable access to the shard owning `user` — policy provisioning
    /// and other owner-keyed mutations go through here.
    pub fn shard_mut(&mut self, user: &str) -> &mut Gupster {
        self.shards.get_mut(user)
    }

    /// All shards, for per-shard inspection (counters, memo stats).
    pub fn shards(&self) -> &[Gupster] {
        self.shards.parts()
    }

    /// Registers a component on the owning shard (see
    /// [`Gupster::register_component`]).
    pub fn register_component(
        &mut self,
        user: &str,
        path: Path,
        store: StoreId,
    ) -> Result<(), GupsterError> {
        self.shard_mut(user).register_component(user, path, store)
    }

    /// Switches on the referral-token cache on every shard (see
    /// [`Gupster::enable_token_cache`]). An owner's requests always land
    /// on the same shard, so per-key cache behavior — and therefore
    /// every simulated cost — is identical at any shard count.
    pub fn enable_token_cache(&mut self) {
        for g in self.shards.parts_mut() {
            g.enable_token_cache();
        }
    }

    /// Sets the token freshness window on every shard's signer (see
    /// `Gupster::set_token_freshness`).
    pub fn set_token_freshness(&mut self, window: u64) {
        for g in self.shards.parts_mut() {
            g.set_token_freshness(window);
        }
    }

    /// Caps finished-span retention on every shard's hub (large sharded
    /// workloads keep memory flat this way; histograms still aggregate
    /// everything).
    pub fn set_span_limit(&self, limit: usize) {
        for g in self.shards() {
            g.telemetry().set_span_limit(limit);
        }
    }

    /// Enables tail-latency exemplar capture on every shard's hub:
    /// requests whose end-to-end simulated duration reaches
    /// `threshold` keep their full span tree, top-`cap` retained per
    /// shard (and top-`cap` fleet-wide after the deterministic merge).
    pub fn set_exemplar_policy(&self, threshold: SimTime, cap: usize) {
        for g in self.shards() {
            g.telemetry().set_exemplar_policy(threshold, cap);
        }
    }

    /// Assembles the fleet observability snapshot by merging the
    /// per-shard hubs at the gather boundary: histograms merge
    /// bucket-wise, counters sum field-wise, exemplars re-rank under
    /// their total order and hot keys sum by name — every fleet
    /// section is byte-identical for any shard count over the same
    /// seeded workload.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut merged: BTreeMap<String, Histogram> = BTreeMap::new();
        for g in self.shards() {
            for (label, h) in g.telemetry().stage_histograms() {
                merged.entry(label).or_default().merge(&h);
            }
        }
        let stages: Vec<StageRow> = merged
            .into_iter()
            .map(|(stage, h)| StageRow {
                stage,
                stats: StageStats {
                    count: h.count(),
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                    mean: h.mean(),
                    max: h.max(),
                },
            })
            .collect();

        let cap = self.shards().iter().map(|g| g.telemetry().exemplar_cap()).max().unwrap_or(0);
        let exemplars = merge_exemplars(
            self.shards().iter().map(|g| g.telemetry().exemplars()).collect(),
            cap,
        )
        .iter()
        .map(ExemplarSummary::from_exemplar)
        .collect();

        let top_k = |map: &BTreeMap<String, u64>| -> Vec<HotKey> {
            let mut rows: Vec<HotKey> =
                map.iter().map(|(name, &count)| HotKey { name: name.clone(), count }).collect();
            rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.name.cmp(&b.name)));
            rows.truncate(HOT_KEY_TOP_K);
            rows
        };

        let shards = self
            .shards()
            .iter()
            .zip(&self.accum)
            .enumerate()
            .map(|(shard, (g, acc))| ShardObs {
                shard,
                requests: acc.requests,
                busy: acc.busy,
                utilization: if self.makespan_total == SimTime::ZERO {
                    0.0
                } else {
                    acc.busy.0 as f64 / self.makespan_total.0 as f64
                },
                windows: acc.windows,
                queued_max: acc.queued_max,
                queued_mean: if acc.windows == 0 {
                    0.0
                } else {
                    acc.queued_total as f64 / acc.windows as f64
                },
                p99_request: g
                    .telemetry()
                    .stage_stats(stage::SHARD_REQUEST)
                    .map(|s| s.p99)
                    .unwrap_or(SimTime::ZERO),
                counters: g.telemetry().counter_snapshot(),
            })
            .collect();

        ObsSnapshot {
            fleet: FleetObs {
                requests: self.ops,
                busy: SimTime(self.accum.iter().map(|a| a.busy.0).sum()),
                totals: self.counter_totals(),
                stages,
                exemplars,
                hot_users: top_k(&self.hot_users),
                hot_paths: top_k(&self.hot_paths),
            },
            makespan: self.makespan_total,
            shards,
        }
    }

    /// Per-shard counter snapshots, shard order.
    pub(crate) fn shard_counters(&self) -> Vec<CounterSnapshot> {
        self.shards().iter().map(|g| g.telemetry().counter_snapshot()).collect()
    }

    /// Fleet-wide counter totals (per-shard snapshots summed).
    pub fn counter_totals(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot::default();
        for snap in self.shard_counters() {
            total.absorb(&snap);
        }
        total
    }

    /// Counts `requests` into the hot-user and hot-path views. Keys
    /// are looked up borrowed (paths rendered into one reused buffer);
    /// only a first-seen key allocates.
    fn note_hot_keys<'a>(&mut self, requests: impl Iterator<Item = &'a ShardRequest>) {
        use std::fmt::Write;
        fn bump(counts: &mut BTreeMap<String, u64>, key: &str) {
            match counts.get_mut(key) {
                Some(n) => *n += 1,
                None => {
                    counts.insert(key.to_string(), 1);
                }
            }
        }
        let mut path = String::new();
        for r in requests {
            bump(&mut self.hot_users, &r.owner);
            path.clear();
            write!(path, "{}", r.path).expect("writing to a String cannot fail");
            bump(&mut self.hot_paths, &path);
        }
    }

    /// Scatter-gather core: runs `requests` on the executor, each under
    /// its own `shard.request` trace, one singleflight window per shard.
    /// `work` answers one request, possibly through the worker's
    /// singleflight window.
    fn scatter<R, F>(
        &mut self,
        requests: &[ShardRequest],
        work: F,
    ) -> (Vec<Result<R, GupsterError>>, BatchReport)
    where
        R: Send,
        F: Fn(
                &mut Gupster,
                &mut Singleflight,
                &ShardRequest,
                &mut Tracer,
            ) -> Result<R, GupsterError>
            + Sync,
    {
        self.note_hot_keys(requests.iter());
        let key_base = self.ops;
        let (results, per_shard) = self.shards.scatter(
            requests,
            |r| &r.owner,
            |gupster, bucket| {
                let hub = gupster.telemetry();
                // One singleflight window per shard per batch: stores
                // are quiescent for the batch's duration, so duplicates
                // within it are safe to coalesce.
                let mut flight = Singleflight::new();
                let mut busy = SimTime::ZERO;
                // One tracer for the bucket, restarted per request: each
                // request still gets its own id and span tree, on the
                // buffers of the first. `scatter` calls `work` only for
                // a non-empty bucket.
                let mut tracer = hub.tracer(stage::SHARD_REQUEST);
                let out = bucket
                    .iter()
                    .enumerate()
                    .map(|(n, &i)| {
                        if n > 0 {
                            tracer.restart(stage::SHARD_REQUEST);
                        }
                        // Exemplar identity must not depend on the
                        // partitioning, so key by global submission
                        // index, not the hub-local request id.
                        tracer.set_key(key_base + i as u64);
                        let res = work(gupster, &mut flight, &requests[i], &mut tracer);
                        busy += tracer.now();
                        res
                    })
                    .collect();
                (busy, out)
            },
        );
        let shard_sim: Vec<SimTime> = per_shard.iter().map(|&(_, busy)| busy).collect();
        let makespan = shard_sim.iter().copied().max().unwrap_or(SimTime::ZERO);
        let total_sim = SimTime(shard_sim.iter().map(|t| t.0).sum());
        let report = BatchReport { shard_sim, makespan, total_sim };
        self.close_window(requests.len(), report.makespan, per_shard);
        (results, report)
    }

    /// Gather-join accounting for one observation window: `per_shard`
    /// holds each shard's `(requests routed, simulated busy time)`.
    /// Gauges only ever change here, on the routing thread, so snapshot
    /// readers never see a torn window.
    fn close_window(
        &mut self,
        requests: usize,
        makespan: SimTime,
        per_shard: impl IntoIterator<Item = (usize, SimTime)>,
    ) {
        self.ops += requests as u64;
        self.makespan_total += makespan;
        for (acc, (depth, busy)) in self.accum.iter_mut().zip(per_shard) {
            let depth = depth as u64;
            acc.requests += depth;
            acc.busy += busy;
            acc.windows += 1;
            acc.queued_total += depth;
            acc.queued_max = acc.queued_max.max(depth);
        }
    }

    /// Runs a batch of lookups across the shards. Results come back in
    /// request order and are byte-identical to running the same
    /// sequence through one sequential [`Gupster`].
    pub fn lookup_batch(
        &mut self,
        requests: &[ShardRequest],
    ) -> (Vec<Result<LookupOutcome, GupsterError>>, BatchReport) {
        self.scatter(
            requests,
            |g, _flight, r, tracer| {
                g.lookup_traced(&r.owner, &r.path, &r.requester, r.purpose, r.time, r.now, tracer)
            },
        )
    }

    /// Runs a batch of full answers: lookup on the owning shard, then
    /// fetch-and-merge against the shared pool — deduped through the
    /// shard's per-batch singleflight window, one fetch round per
    /// destination store. Each answer is materialized once; in-window
    /// duplicates share it.
    ///
    /// `_batch_fetches` is ignored: every fetch is per store. It stays
    /// only because the wall-clock benchmark passes it.
    pub fn answer_batch(
        &mut self,
        pool: &StorePool,
        requests: &[ShardRequest],
        keys: &MergeKeys,
        _batch_fetches: bool,
    ) -> (Vec<Result<SharedAnswer, GupsterError>>, BatchReport) {
        self.scatter(
            requests,
            |g, flight, r, tracer| {
                let out = g.lookup_traced(
                    &r.owner, &r.path, &r.requester, r.purpose, r.time, r.now, tracer,
                )?;
                let signer = g.signer();
                flight.fetch_merge(
                    pool,
                    &out.referral,
                    &r.requester,
                    &signer,
                    r.now,
                    keys,
                    Some(tracer),
                )
            },
        )
    }

    /// Open-loop execution under admission control (DESIGN.md §11).
    ///
    /// `arrivals` (non-decreasing arrival times) are routed to
    /// [`AdmissionConfig::queues`] virtual ingress queues by owner hash
    /// — deliberately independent of the physical shard count, so the
    /// admitted/shed partition and every answer are byte-identical when
    /// the same workload runs on 1 or 8 shards. Admitted requests
    /// execute the full pipeline on the owner's shard at their service
    /// start instant; [`Priority::CallDelivery`] preempts bulk work at
    /// every queue. Completed answers feed the owner shard's stale rung
    /// (the one the resilience ladder uses, kept across runs); shed and
    /// transiently-failed requests consult it, behind the shard's
    /// shield, before resolving, so every arrival lands on exactly one
    /// [`RequestOutcome`] — a fresh answer, a stale serve, or a typed
    /// error or `Overloaded` rejection. No hangs, no silent drops.
    ///
    /// `probe` is the netsim hook: called with each request's service
    /// start instant before the pipeline runs (the chaos suite advances
    /// the network clock there and injects `StoreUnavailable` for
    /// requests whose stores sit in a fault window).
    pub fn answer_open_loop(
        &mut self,
        pool: &StorePool,
        arrivals: &[OpenLoopRequest],
        keys: &MergeKeys,
        config: &AdmissionConfig,
        probe: Option<OpenLoopProbe<'_>>,
    ) -> (Vec<RequestOutcome>, OverloadReport) {
        let mut queues =
            Shards::new(config.queues, |q| IngressQueue::new(q, config.capacity, config.call_slots));
        for w in arrivals.windows(2) {
            assert!(
                w[0].arrival <= w[1].arrival,
                "open-loop arrivals must be offered in non-decreasing time order"
            );
        }
        let n = arrivals.len();
        let mut report = OverloadReport { offered: n, ..OverloadReport::default() };
        if n == 0 {
            return (Vec::new(), report);
        }
        report.horizon = arrivals[n - 1].arrival;
        let key_base = self.ops;

        // Hot-key views and per-shard routing gauges are fleet-level
        // bookkeeping: same values at any shard count. `per_shard` holds
        // each shard's (requests routed, simulated execution time).
        self.note_hot_keys(arrivals.iter().map(|a| &a.request));
        let mut per_shard = vec![(0usize, SimTime::ZERO); self.shard_count()];
        for a in arrivals {
            per_shard[self.shard_of(&a.request.owner)].0 += 1;
            match a.class {
                Priority::CallDelivery => report.offered_calls += 1,
                Priority::ProfileEdit => report.offered_edits += 1,
            }
        }

        let mut results: Vec<Option<Result<SharedAnswer, GupsterError>>> =
            (0..n).map(|_| None).collect();
        let mut outcomes: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
        let mut completions: Vec<Completion> = Vec::new();
        // Runs arrival `j`'s full pipeline on its owner's shard at its
        // service start instant `start`, under a `shard.request` trace
        // keyed by global submission index, and returns its traced cost.
        // The mutable run state is passed in so the borrow ends with
        // each queue call.
        let run = |shards: &mut Shards<Gupster>,
                   results: &mut [Option<Result<SharedAnswer, GupsterError>>],
                   per_shard: &mut [(usize, SimTime)],
                   j: usize,
                   start: SimTime| {
            let r = &arrivals[j].request;
            let g = shards.get_mut(&r.owner);
            let mut tracer = g.telemetry().tracer(stage::SHARD_REQUEST);
            tracer.set_key(key_base + j as u64);
            let res = (|| {
                if let Some(e) = probe.and_then(|p| p(start, r)) {
                    return Err(e);
                }
                let out = g.lookup_traced(
                    &r.owner, &r.path, &r.requester, r.purpose, r.time, r.now, &mut tracer,
                )?;
                fetch_merge_traced(pool, &out.referral, &g.signer(), r.now, keys, &mut tracer)
            })();
            let cost = tracer.now();
            per_shard[shards.index(&r.owner)].1 += cost;
            results[j] = Some(res);
            cost
        };

        for (i, a) in arrivals.iter().enumerate() {
            let hub = self.shard(&a.request.owner).telemetry();
            // The admission decision itself is a per-request fixed-cost
            // stage charged to the owning shard's hub, so the fleet
            // `admission.decide` histogram is shard-count invariant.
            hub.record_stage(stage::ADMISSION_DECIDE, ADMISSION_DECIDE_COST);

            completions.clear();
            let offer = {
                let mut exec = |j: usize, start: SimTime| {
                    run(&mut self.shards, &mut results, &mut per_shard, j, start)
                };
                // Advance every queue to this arrival first, so the
                // stale rung holds exactly the answers completed
                // before `now` regardless of which queue they ran on.
                for queue in queues.parts_mut() {
                    queue.run_until(a.arrival, &mut exec, &mut completions);
                }
                let queue = queues.get_mut(&a.request.owner);
                queue.offer(i, a.class, a.arrival, &mut exec, &mut completions)
            };
            // Per-key freshness is last-completed-wins: settle in
            // finish order, not queue order.
            completions.sort_by_key(|c| (c.finished, c.idx));
            for c in &completions {
                self.settle_open(arrivals, c, &mut results, &mut outcomes, &mut report);
            }
            if offer.preempted {
                report.preemptions += 1;
                hub.counters().preemptions.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(shed) = offer.shed {
                self.shed_open(arrivals, shed, &mut outcomes, &mut report);
            }
        }

        // Drain the backlog to quiescence.
        completions.clear();
        {
            let mut exec = |j: usize, start: SimTime| {
                run(&mut self.shards, &mut results, &mut per_shard, j, start)
            };
            for queue in queues.parts_mut() {
                queue.drain(&mut exec, &mut completions);
            }
        }
        completions.sort_by_key(|c| (c.finished, c.idx));
        for c in &completions {
            self.settle_open(arrivals, c, &mut results, &mut outcomes, &mut report);
        }

        let queues = queues.parts();
        report.max_queue_depth = queues.iter().map(IngressQueue::max_depth).max().unwrap_or(0);
        report.busy = SimTime(per_shard.iter().map(|(_, busy)| busy.0).sum());
        debug_assert_eq!(
            report.preemptions,
            queues.iter().map(IngressQueue::preemptions).sum::<u64>()
        );

        // The open-loop run is one observation window whose makespan is
        // its horizon.
        self.close_window(n, report.horizon, per_shard);

        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("open-loop run left a request unresolved"))
            .collect();
        (outcomes, report)
    }

    /// Resolves one completed service: records per-class sojourn,
    /// refreshes the owner shard's stale rung on success and degrades
    /// transient pipeline failures to it when the shield still allows.
    fn settle_open(
        &mut self,
        arrivals: &[OpenLoopRequest],
        c: &Completion,
        results: &mut [Option<Result<SharedAnswer, GupsterError>>],
        outcomes: &mut [Option<RequestOutcome>],
        report: &mut OverloadReport,
    ) {
        let a = &arrivals[c.idx];
        let ShardRequest { owner, path, requester, purpose, time, now } = &a.request;
        let g = self.shards.get_mut(owner);
        let hub = g.telemetry();
        let sojourn = c.finished.saturating_sub(c.arrived);
        match a.class {
            Priority::CallDelivery => {
                hub.record_stage(stage::CLASS_CALL_DELIVERY, sojourn);
                report.call_latency.record(sojourn);
            }
            Priority::ProfileEdit => {
                hub.record_stage(stage::CLASS_PROFILE_EDIT, sojourn);
                report.edit_latency.record(sojourn);
            }
        }
        hub.counters().admitted.fetch_add(1, Ordering::Relaxed);
        report.admitted += 1;
        report.horizon = report.horizon.max(c.finished);
        let res = results[c.idx].take().expect("completed service without an executed result");
        let outcome = match res {
            Ok(elems) => {
                report.fresh += 1;
                let kept = Arc::clone(&elems);
                g.remember_answer(owner, path, requester, *purpose, *time, kept, *now);
                RequestOutcome::Answer(Ok(elems))
            }
            Err(e) if is_transient(&e) => {
                // A fault window bit the execution: the open-loop
                // analogue of the ladder's stale rung.
                match g.stale_answer(owner, path, requester, *purpose, *time, *now) {
                    Ok(Some((result, age))) => {
                        hub.counters().stale_serves.fetch_add(1, Ordering::Relaxed);
                        report.stale_served += 1;
                        RequestOutcome::Stale { result, age }
                    }
                    Ok(None) => RequestOutcome::Answer(Err(e)),
                    Err(denied) => RequestOutcome::Answer(Err(denied)),
                }
            }
            Err(e) => RequestOutcome::Answer(Err(e)),
        };
        outcomes[c.idx] = Some(outcome);
    }

    /// Resolves one shed request: typed rejection, unless the owner
    /// shard's stale rung still covers the (owner, requester, path) and
    /// the shield still permits what it permitted then.
    fn shed_open(
        &mut self,
        arrivals: &[OpenLoopRequest],
        shed: Shed,
        outcomes: &mut [Option<RequestOutcome>],
        report: &mut OverloadReport,
    ) {
        let a = &arrivals[shed.idx];
        let ShardRequest { owner, path, requester, purpose, time, now } = &a.request;
        debug_assert_eq!(a.class, shed.cause.class, "shed class must match the request's");
        let g = self.shards.get_mut(owner);
        let hub = g.telemetry();
        match a.class {
            Priority::CallDelivery => {
                hub.counters().shed_calls.fetch_add(1, Ordering::Relaxed);
                report.shed_calls += 1;
            }
            Priority::ProfileEdit => {
                hub.counters().shed_edits.fetch_add(1, Ordering::Relaxed);
                report.shed_edits += 1;
            }
        }
        let outcome = match g.stale_answer(owner, path, requester, *purpose, *time, *now) {
            Ok(Some((result, age))) => {
                hub.counters().overload_stale_serves.fetch_add(1, Ordering::Relaxed);
                report.stale_served += 1;
                RequestOutcome::Stale { result, age }
            }
            // A refusal or a changed grant leaves the typed rejection.
            Ok(None) | Err(_) => RequestOutcome::Overloaded(shed.cause),
        };
        debug_assert!(outcomes[shed.idx].is_none(), "a request must resolve exactly once");
        outcomes[shed.idx] = Some(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_schema::gup_schema;
    use gupster_store::XmlStore;
    use gupster_xml::parse;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn req(owner: &str, path: &str) -> ShardRequest {
        ShardRequest {
            owner: owner.to_string(),
            path: p(path),
            requester: owner.to_string(),
            purpose: Purpose::Query,
            time: WeekTime::at(0, 12, 0),
            now: 100,
        }
    }

    fn populate(reg: &mut ShardedRegistry, users: &[&str]) {
        for u in users {
            reg.register_component(
                u,
                p(&format!("/user[@id='{u}']/presence")),
                StoreId::new("s1"),
            )
            .unwrap();
        }
    }

    #[test]
    fn routing_is_stable_and_user_keyed() {
        let reg = ShardedRegistry::new(gup_schema(), b"k", 4);
        let a = reg.shard_of("alice");
        assert_eq!(a, reg.shard_of("alice"));
        assert!(a < 4);
        // FNV is fixed, so the route never moves between runs.
        assert_eq!(shard_hash("alice"), shard_hash("alice"));
        assert_ne!(shard_hash("alice"), shard_hash("bob"));
    }

    /// The executor over random owner mixes at 1, 2 and 3 parts: every
    /// item runs exactly once, on the part its owner routes to, and its
    /// result comes back at its submission index. Parts that receive
    /// nothing are skipped and report an empty bucket.
    #[test]
    fn scatter_runs_each_item_once_on_its_owners_part_and_gathers_in_order() {
        use gupster_rng::check::cases;
        use gupster_rng::Rng;

        let mut idle_parts = 0;
        cases(60, 0x5CA7, |r| {
            for n in 1..=3 {
                let owners: Vec<String> =
                    (0..r.gen_range(0..12usize)).map(|_| format!("u{}", r.gen_range(0..6u32))).collect();
                // Each part records the items it ran, in order.
                let mut shards: Shards<Vec<usize>> = Shards::new(n, |_| Vec::new());
                let (results, per_part) = shards.scatter(&owners, |o| o, |ran, bucket| {
                    ran.extend_from_slice(bucket);
                    let out = bucket.iter().map(|&i| (i, owners[i].clone()));
                    (bucket.len() * 10, out.collect())
                });
                let expected: Vec<(usize, String)> = owners.iter().cloned().enumerate().collect();
                assert_eq!(results, expected, "{n} parts: results out of submission order");
                let mut runs = vec![0; owners.len()];
                for (part, ran) in shards.parts().iter().enumerate() {
                    assert!(ran.windows(2).all(|w| w[0] < w[1]), "part {part} ran out of order");
                    for &i in ran {
                        runs[i] += 1;
                        assert_eq!(shards.index(&owners[i]), part, "{} ran on the wrong part", owners[i]);
                    }
                    assert_eq!(per_part[part], (ran.len(), ran.len() * 10), "part {part}'s report");
                    idle_parts += ran.is_empty() as usize;
                }
                assert!(runs.iter().all(|&k| k == 1), "{n} parts: runs per item {runs:?}");
            }
        });
        assert!(idle_parts > 0, "the mixes must leave some part with nothing to do");
    }

    #[test]
    fn batch_results_match_sequential_registry() {
        let users = ["alice", "bob", "carol", "dave", "erin", "frank"];
        let mut seq = Gupster::new(gup_schema(), b"k");
        let mut sharded = ShardedRegistry::new(gup_schema(), b"k", 3);
        for u in &users {
            seq.register_component(u, p(&format!("/user[@id='{u}']/presence")), StoreId::new("s1"))
                .unwrap();
        }
        populate(&mut sharded, &users);

        let requests: Vec<ShardRequest> = (0..30)
            .map(|i| {
                let u = users[i % users.len()];
                req(u, &format!("/user[@id='{u}']/presence"))
            })
            .collect();
        let expected: Vec<String> = requests
            .iter()
            .map(|r| {
                match seq.lookup(&r.owner, &r.path, &r.requester, r.purpose, r.time, r.now) {
                    Ok(out) => format!("{:?}", out.referral),
                    Err(e) => format!("{e:?}"),
                }
            })
            .collect();
        let (results, report) = sharded.lookup_batch(&requests);
        let got: Vec<String> = results
            .iter()
            .map(|r| match r {
                Ok(out) => format!("{:?}", out.referral),
                Err(e) => format!("{e:?}"),
            })
            .collect();
        assert_eq!(expected, got);
        assert_eq!(report.shard_sim.len(), 3);
        assert!(report.makespan <= report.total_sim);
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn answer_batch_coalesces_duplicates() {
        let mut sharded = ShardedRegistry::new(gup_schema(), b"k", 2);
        populate(&mut sharded, &["alice"]);
        let mut store = XmlStore::new("s1");
        store
            .put_profile(parse(r#"<user id="alice"><presence>online</presence></user>"#).unwrap())
            .unwrap();
        let mut pool = StorePool::new();
        pool.add(Box::new(store));

        let requests: Vec<ShardRequest> =
            (0..8).map(|_| req("alice", "/user[@id='alice']/presence")).collect();
        let (results, _) =
            sharded.answer_batch(&pool, &requests, &MergeKeys::new(), true);
        for r in &results {
            let elems = r.as_ref().unwrap();
            assert_eq!(elems[0].text(), "online");
        }
        // 8 identical requests, one flight: 7 coalesced.
        assert_eq!(sharded.counter_totals().singleflight_hits, 7);
    }

    #[test]
    fn per_shard_counters_sum_to_totals() {
        let users = ["u1", "u2", "u3", "u4", "u5"];
        let mut sharded = ShardedRegistry::new(gup_schema(), b"k", 4);
        populate(&mut sharded, &users);
        let requests: Vec<ShardRequest> = users
            .iter()
            .map(|u| req(u, &format!("/user[@id='{u}']/presence")))
            .collect();
        let (_, _) = sharded.lookup_batch(&requests);
        let per_shard = sharded.shard_counters();
        let total: u64 = per_shard.iter().map(|c| c.lookups).sum();
        assert_eq!(total, 5);
        assert_eq!(sharded.counter_totals().lookups, 5);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_refused() {
        let _ = ShardedRegistry::new(gup_schema(), b"k", 0);
    }

    #[test]
    fn obs_snapshot_accounts_the_whole_batch() {
        let users = ["alice", "bob", "carol", "dave", "erin"];
        let mut sharded = ShardedRegistry::new(gup_schema(), b"k", 2);
        populate(&mut sharded, &users);
        sharded.set_exemplar_policy(SimTime::ZERO, 4);
        let mut requests: Vec<ShardRequest> = users
            .iter()
            .map(|u| req(u, &format!("/user[@id='{u}']/presence")))
            .collect();
        // Skew: alice twice as hot as everyone else.
        requests.push(req("alice", "/user[@id='alice']/presence"));
        let (_, report) = sharded.lookup_batch(&requests);
        let (_, report2) = sharded.lookup_batch(&requests);
        let snap = sharded.obs_snapshot();

        assert_eq!(snap.fleet.requests, 12);
        assert_eq!(snap.shards.iter().map(|s| s.requests).sum::<u64>(), 12);
        assert_eq!(snap.fleet.busy, report.total_sim + report2.total_sim);
        assert_eq!(snap.makespan, report.makespan + report2.makespan);
        assert_eq!(snap.fleet.totals.lookups, 12);
        for s in &snap.shards {
            assert_eq!(s.windows, 2, "every shard observes every window");
            assert!(s.utilization > 0.0 && s.utilization <= 1.0);
            // Identical windows: the mean queue depth equals the max.
            assert!((s.queued_mean - s.queued_max as f64).abs() < 1e-9);
        }
        assert_eq!(snap.fleet.hot_users[0].name, "alice");
        assert_eq!(snap.fleet.hot_users[0].count, 4);
        // Zero threshold + cap 4 keeps the four slowest requests, keyed
        // by global submission index.
        assert_eq!(snap.fleet.exemplars.len(), 4);
        assert!(snap.fleet.exemplars.iter().all(|e| e.key < 12));
        // The snapshot round-trips through its JSON codec.
        let back = gupster_telemetry::ObsSnapshot::parse_json(&snap.render_json()).unwrap();
        assert_eq!(back, snap);
    }
}
