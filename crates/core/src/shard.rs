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
//! ([`crate::fetch_merge`]). In `answer_batch`, each shard's per-window
//! singleflight table is keyed on the request, so a request identical to
//! an earlier one in the window runs neither the lookup nor the fetch:
//! it shares that request's answer or refusal, and a permitted one still
//! leaves its own provenance record.
//!
//! The routing thread only routes: it hashes each owner id and keeps
//! no per-request state. A request is counted where its owner lives:
//! each lookup, and each duplicate a window table serves, bumps a count
//! on the owner's coverage entry on its shard, and
//! [`ShardedRegistry::obs_snapshot`] reads the hottest users from there.
//!
//! Scatter-gather uses `std::thread::scope` workers over persistent
//! shard state — zero external deps, and the borrow checker proves the
//! partitioning (each worker holds `&mut` to exactly one part).

use std::collections::{BTreeMap, HashMap};
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
use crate::client::{fetch_merge_inner, fetch_merge_traced, SharedAnswer, StorePool};
use crate::error::GupsterError;
use crate::provenance::RecordRef;
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

/// A request's identity within a window: everything the shield and the
/// coverage walk read, borrowed from the batch. `now` is left out, since
/// neither reads it: it only stamps the token and the provenance record.
type RequestKey<'a> = (&'a str, &'a str, &'a Path, Purpose, WeekTime);

/// What the first request under a key came to. The larger parts live
/// out of line, in the window's lists, so the table — sized to the
/// whole bucket — stays small per entry.
#[derive(Debug)]
enum Earlier {
    /// Its answer, and its provenance record's place in `records`.
    Answer(SharedAnswer, usize),
    /// The pipeline's refusal's place in `refusals`.
    Refused(usize),
}

/// One shard's singleflight table for one `answer_batch` window: a
/// request identical to an earlier one in the window is served that
/// request's outcome without a lookup or a fetch. Within a window no
/// write or policy change runs and stores are quiescent, so the reuse is
/// exact; the table is dropped with the window, so there is no TTL and
/// no invalidation. Cross-window caching is the registry's cached read,
/// [`Gupster::fetch_cached`], behind the shield.
#[derive(Debug)]
struct Singleflight<'a> {
    table: HashMap<RequestKey<'a>, Earlier>,
    /// The provenance records of the window's answers, in answer order.
    records: Vec<RecordRef>,
    /// The window's refusals, in refusal order.
    refusals: Vec<GupsterError>,
}

impl<'a> Singleflight<'a> {
    /// A table for a bucket of `requests`: sized once, since it never
    /// holds more keys than that. The lists grow as outcomes arrive.
    fn new(requests: usize) -> Self {
        Singleflight {
            table: HashMap::with_capacity(requests),
            records: Vec::new(),
            refusals: Vec::new(),
        }
    }

    /// Keeps `r`'s answer and its provenance record for the rest of the
    /// window.
    fn answered(&mut self, r: &'a ShardRequest, answer: &SharedAnswer, record: RecordRef) {
        let at = self.records.len();
        self.records.push(record);
        self.table.insert(Self::key(r), Earlier::Answer(Arc::clone(answer), at));
    }

    /// Keeps `r`'s refusal for the rest of the window.
    fn refused(&mut self, r: &'a ShardRequest, refused: &GupsterError) {
        let at = self.refusals.len();
        self.refusals.push(refused.clone());
        self.table.insert(Self::key(r), Earlier::Refused(at));
    }

    fn key(r: &'a ShardRequest) -> RequestKey<'a> {
        (&r.owner, &r.requester, &r.path, r.purpose, r.time)
    }

    /// `r`'s outcome, if an identical earlier request in the window has
    /// one `g` can account as `r`'s (see [`Gupster::repeat_lookup`]).
    fn serve(
        &self,
        g: &mut Gupster,
        r: &'a ShardRequest,
    ) -> Option<Result<SharedAnswer, GupsterError>> {
        match *self.table.get(&Self::key(r))? {
            Earlier::Answer(ref answer, at) => {
                let record = self.records[at];
                let again = g.repeat_lookup(&r.owner, Ok(record), r.purpose, r.now);
                again.then(|| Ok(Arc::clone(answer)))
            }
            Earlier::Refused(at) => {
                let refused = &self.refusals[at];
                g.repeat_lookup(&r.owner, Err(refused), r.purpose, r.now);
                Some(Err(refused.clone()))
            }
        }
    }
}

/// Per-batch execution accounting from the scatter-gather run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Requests each shard was routed, in shard order.
    pub shard_requests: Vec<usize>,
}

/// Fault-injection hook for open-loop runs: invoked once per admitted
/// request with the service instant and the request; returning `Some`
/// fails that execution before it reaches the pipeline.
pub(crate) type OpenLoopProbe<'a> = &'a dyn Fn(SimTime, &ShardRequest) -> Option<GupsterError>;

/// An open-loop request's executed pipeline: its answer and the
/// lookup's provenance record, or why it failed.
type Executed = Result<(SharedAnswer, Option<RecordRef>), GupsterError>;

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
    /// Simulated busy time accumulated by the shard: the service table
    /// prices of the open-loop requests it ran.
    busy: SimTime,
}

/// How many hottest users the observability snapshot keeps.
const HOT_USERS_TOP_K: usize = 10;

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
    /// Accumulated open-loop horizons (simulated wall clock).
    makespan_total: SimTime,
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
    /// every token — is identical at any shard count.
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
    /// their total order, and the hot users are the top owners by
    /// lookups over every shard's coverage table (a shard holds its
    /// owners alone) — every fleet section is byte-identical for any
    /// shard count over the same seeded workload.
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

        let mut hot_users: Vec<(&str, u64)> =
            self.shards().iter().flat_map(Gupster::owner_lookups).collect();
        hot_users.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        hot_users.truncate(HOT_USERS_TOP_K);

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
                hot_users: hot_users
                    .into_iter()
                    .map(|(name, count)| HotKey { name: name.to_string(), count })
                    .collect(),
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

    /// Scatter-gather core: runs `requests` on the executor, each under
    /// its own `shard.request` trace. Each shard's bucket gets one fresh
    /// window state, `window(bucket length)`, which `work` sees beside
    /// each request of it: `answer_batch`'s [`Singleflight`] table, or
    /// nothing.
    fn scatter<'a, W, R, F>(
        &mut self,
        requests: &'a [ShardRequest],
        window: impl Fn(usize) -> W + Sync,
        work: F,
    ) -> (Vec<Result<R, GupsterError>>, BatchReport)
    where
        R: Send,
        F: Fn(&mut Gupster, &mut W, &'a ShardRequest, &mut Tracer) -> Result<R, GupsterError>
            + Sync,
    {
        let key_base = self.ops;
        let (results, per_shard) = self.shards.scatter(
            requests,
            |r| &r.owner,
            |gupster, bucket| {
                let hub = gupster.telemetry();
                let mut window = window(bucket.len());
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
                        work(gupster, &mut window, &requests[i], &mut tracer)
                    })
                    .collect();
                ((), out)
            },
        );
        let shard_requests: Vec<usize> = per_shard.iter().map(|&(depth, ())| depth).collect();
        self.close_window(requests.len(), SimTime::ZERO, shard_requests.iter().map(|&d| (d, SimTime::ZERO)));
        (results, BatchReport { shard_requests })
    }

    /// Gather-join accounting for one observation window: `per_shard`
    /// holds each shard's `(requests routed, simulated busy time)`;
    /// only an open-loop run has busy time or a makespan.
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
            acc.requests += depth as u64;
            acc.busy += busy;
        }
    }

    /// Runs a batch of lookups across the shards. Results come back in
    /// request order and are byte-identical to running the same
    /// sequence through one sequential [`Gupster`].
    pub fn lookup_batch(
        &mut self,
        requests: &[ShardRequest],
    ) -> (Vec<Result<LookupOutcome, GupsterError>>, BatchReport) {
        self.scatter(requests, |_| (), |g, _, r, tracer| {
            g.lookup_traced(&r.owner, &r.path, &r.requester, r.purpose, r.time, r.now, tracer)
        })
    }

    /// Runs a batch of full answers: lookup on the owning shard, then
    /// fetch-and-merge against the shared pool, one fetch round per
    /// destination store. Each answer is materialized once. A request
    /// identical to an earlier one in the shard's window runs neither:
    /// it shares that request's answer or refusal through the shard's
    /// per-window singleflight table, and a permitted one still leaves
    /// its own provenance record.
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
        self.scatter(requests, Singleflight::new, |g, flight, r, tracer| {
            if let Some(shared) = flight.serve(g, r) {
                tracer.hub().counters().singleflight_hits.fetch_add(1, Ordering::Relaxed);
                tracer.mark(stage::SINGLEFLIGHT_HIT);
                return shared;
            }
            let out = match g.lookup_traced(
                &r.owner, &r.path, &r.requester, r.purpose, r.time, r.now, tracer,
            ) {
                Ok(out) => out,
                Err(refused) => {
                    flight.refused(r, &refused);
                    return Err(refused);
                }
            };
            let answer: SharedAnswer =
                fetch_merge_inner(pool, &out.referral, &g.signer(), r.now, keys, Some(tracer))?;
            // A fetch error is never kept: the next duplicate retries.
            if let Some(record) = g.provenance.newest() {
                flight.answered(r, &answer, record);
            }
            Ok(answer)
        })
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

        // `per_shard` holds each shard's (requests routed, simulated
        // execution time).
        let mut per_shard = vec![(0usize, SimTime::ZERO); self.shard_count()];
        for a in arrivals {
            per_shard[self.shard_of(&a.request.owner)].0 += 1;
            match a.class {
                Priority::CallDelivery => report.offered_calls += 1,
                Priority::ProfileEdit => report.offered_edits += 1,
            }
        }

        let mut results: Vec<Option<Executed>> = (0..n).map(|_| None).collect();
        let mut outcomes: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
        let mut completions: Vec<Completion> = Vec::new();
        // Runs arrival `j`'s full pipeline on its owner's shard at its
        // service start instant `start`, under a `shard.request` trace
        // keyed by global submission index, and returns its service
        // time: its class's entry in the service table, which closes
        // the trace as an `admission.service` span. The mutable run
        // state is passed in so the borrow ends with each queue call.
        let run = |shards: &mut Shards<Gupster>,
                   results: &mut [Option<Executed>],
                   per_shard: &mut [(usize, SimTime)],
                   j: usize,
                   start: SimTime| {
            let OpenLoopRequest { request: r, class, .. } = &arrivals[j];
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
                // The lookup's disclosure, which a stale serve of this
                // answer records again.
                let record = g.provenance.newest();
                fetch_merge_traced(pool, &out.referral, &g.signer(), r.now, keys, &mut tracer)
                    .map(|answer| (answer, record))
            })();
            let service = class.service();
            tracer.span(stage::ADMISSION_SERVICE, service);
            per_shard[shards.index(&r.owner)].1 += service;
            results[j] = Some(res);
            service
        };

        for (i, a) in arrivals.iter().enumerate() {
            let hub = self.shard(&a.request.owner).telemetry();
            // The admission decision is a zero-width stage on the
            // owning shard's hub, so the fleet `admission.decide`
            // histogram is shard-count invariant.
            hub.record_stage(stage::ADMISSION_DECIDE, SimTime::ZERO);

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
        results: &mut [Option<Executed>],
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
            Ok((elems, record)) => {
                report.fresh += 1;
                let kept = Arc::clone(&elems);
                g.remember_answer(owner, path, requester, *purpose, *time, kept, *now, record);
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
        assert_eq!(report.shard_requests.len(), 3);
        assert_eq!(report.shard_requests.iter().sum::<usize>(), requests.len());
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

    /// Alice's presence on `s1`, readable by her co-worker rick.
    fn presence_world(shards: usize) -> (ShardedRegistry, StorePool) {
        let mut sharded = ShardedRegistry::new(gup_schema(), b"k", shards);
        populate(&mut sharded, &["alice"]);
        let g = sharded.shard_mut("alice");
        g.set_relationship("alice", "rick", "co-worker");
        g.pap
            .provision(
                "alice",
                "cw",
                gupster_policy::Effect::Permit,
                "/user/presence",
                "relationship='co-worker'",
                0,
            )
            .unwrap();
        let mut store = XmlStore::new("s1");
        store
            .put_profile(parse(r#"<user id="alice"><presence>online</presence></user>"#).unwrap())
            .unwrap();
        let mut pool = StorePool::new();
        pool.add(Box::new(store));
        (sharded, pool)
    }

    #[test]
    fn singleflight_serves_duplicates_from_first_answer() {
        let (mut sharded, pool) = presence_world(1);
        let read = req("alice", "/user[@id='alice']/presence");
        let window = [read.clone(), read.clone()];
        let (results, _) = sharded.answer_batch(&pool, &window, &MergeKeys::new(), true);
        let (first, second) = (results[0].as_ref().unwrap(), results[1].as_ref().unwrap());
        assert!(Arc::ptr_eq(first, second), "a duplicate shares the first answer");
        assert_eq!(sharded.counter_totals().singleflight_hits, 1);
        // The shared answer is the one a lookup and a fetch give alone.
        let g = sharded.shard_mut("alice");
        let ShardRequest { owner, path, requester, purpose, time, now } = &read;
        let out = g.lookup(owner, path, requester, *purpose, *time, *now).unwrap();
        let keys = MergeKeys::new();
        let alone = crate::client::fetch_merge(&pool, &out.referral, &g.signer(), *now, &keys);
        assert_eq!(**first, *alone.unwrap());
    }

    /// The window table is sized to the whole bucket, so what it holds
    /// per request stays small: a shared answer and an index, or an
    /// index, never an error inline.
    #[test]
    fn a_window_table_entry_keeps_its_outcome_out_of_line() {
        let size = std::mem::size_of::<Earlier>();
        assert!(size <= 24, "{size} bytes per entry");
        assert!(std::mem::size_of::<GupsterError>() > 24, "the bound shows something");
    }

    #[test]
    fn singleflight_never_shares_across_requester_purpose_or_time() {
        let base = req("alice", "/user[@id='alice']/presence");
        let variants = [
            ShardRequest { requester: "rick".into(), ..base.clone() },
            ShardRequest { purpose: Purpose::Cache, ..base.clone() },
            ShardRequest { time: WeekTime::at(3, 9, 0), ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(Singleflight::key(&base), Singleflight::key(v), "{v:?}");
        }
        // Only the profile clock may differ: neither the shield nor the
        // coverage walk reads it.
        let later = ShardRequest { now: base.now + 7, ..base.clone() };
        assert_eq!(Singleflight::key(&base), Singleflight::key(&later));

        let (mut sharded, pool) = presence_world(1);
        let mut window = vec![base];
        window.extend(variants);
        let (results, _) = sharded.answer_batch(&pool, &window, &MergeKeys::new(), true);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(sharded.counter_totals().singleflight_hits, 0);
        assert_eq!(sharded.shard("alice").stats.lookups, 4);
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
        for (s, (a, b)) in snap.shards.iter().zip(report.shard_requests.iter().zip(&report2.shard_requests)) {
            assert_eq!(s.requests, (a + b) as u64);
        }
        // Closed-loop windows advance no simulated time.
        assert_eq!((snap.fleet.busy, snap.makespan), (SimTime::ZERO, SimTime::ZERO));
        assert_eq!(snap.fleet.totals.lookups, 12);
        // Alice's four lookups first, then two each, ties by id.
        assert_eq!(
            hot_users(&snap),
            [("alice", 4), ("bob", 2), ("carol", 2), ("dave", 2), ("erin", 2)]
        );
        // Zero threshold + cap 4 keeps the four slowest requests, keyed
        // by global submission index.
        assert_eq!(snap.fleet.exemplars.len(), 4);
        assert!(snap.fleet.exemplars.iter().all(|e| e.key < 12));
        // The snapshot round-trips through its JSON codec.
        let back = gupster_telemetry::ObsSnapshot::parse_json(&snap.render_json()).unwrap();
        assert_eq!(back, snap);
    }

    fn hot_users(snap: &ObsSnapshot) -> Vec<(&str, u64)> {
        snap.fleet.hot_users.iter().map(|h| (&*h.name, h.count)).collect()
    }

    /// `users`, each with a presence on `s1` they may read themselves.
    fn self_read_world(shards: usize, users: &[&str]) -> (ShardedRegistry, StorePool) {
        let mut sharded = ShardedRegistry::new(gup_schema(), b"k", shards);
        populate(&mut sharded, users);
        let mut store = XmlStore::new("s1");
        for u in users {
            let profile = format!(r#"<user id="{u}"><presence>online</presence></user>"#);
            store.put_profile(parse(&profile).unwrap()).unwrap();
        }
        let mut pool = StorePool::new();
        pool.add(Box::new(store));
        (sharded, pool)
    }

    fn presence(owner: &str) -> ShardRequest {
        req(owner, &format!("/user[@id='{owner}']/presence"))
    }

    /// An owner's hot-user count is its lookups: the ones the pipeline
    /// ran, refusals included, and the duplicates a window table served.
    /// A request for an unknown owner or one the schema refuses counts
    /// nowhere. Each owner is counted on its own shard, so the fleet
    /// section reads the same at any shard count.
    #[test]
    fn hot_users_count_each_owners_lookups_at_any_shard_count() {
        let users = ["alice", "bob", "carol"];
        let stranger = |owner| ShardRequest { requester: "mallory".into(), ..presence(owner) };
        let window = [
            presence("alice"),
            presence("alice"),
            presence("bob"),
            stranger("carol"),
            stranger("carol"),
            presence("alice"),
            presence("zed"),
            req("bob", "/user[@id='bob']/no-such-component"),
        ];
        let mut fleets = Vec::new();
        for shards in [1, 2, 8] {
            let (mut sharded, pool) = self_read_world(shards, &users);
            let (results, _) = sharded.answer_batch(&pool, &window, &MergeKeys::new(), true);
            let refused: Vec<usize> = (0..window.len()).filter(|&i| results[i].is_err()).collect();
            assert_eq!(refused, [3, 4, 6, 7], "{shards} shards");
            // Two of alice's reads and carol's second refusal were duplicates.
            assert_eq!(sharded.counter_totals().singleflight_hits, 3, "{shards} shards");
            let _ = sharded.lookup_batch(&[presence("bob")]);
            let snap = sharded.obs_snapshot();
            let expected = [("alice", 3), ("bob", 2), ("carol", 2)];
            assert_eq!(hot_users(&snap), expected, "{shards} shards");
            let spurious: u64 = sharded.shards().iter().map(|g| g.stats.spurious).sum();
            assert_eq!((sharded.counter_totals().lookups, spurious), (9, 1), "{shards} shards");
            fleets.push(snap.fleet_json());
        }
        assert!(fleets.iter().all(|f| *f == fleets[0]));
    }

    /// Admission sheds before any lookup runs, so an open-loop run
    /// counts its admitted requests only.
    #[test]
    fn hot_users_count_admitted_open_loop_requests_only() {
        use crate::admission::RequestOutcome;

        let users = ["alice", "bob", "carol"];
        let (mut sharded, pool) = self_read_world(2, &users);
        // Calls every 20 µs into one queue that holds one waiting call:
        // each takes 75 µs, so most are shed.
        let arrivals: Vec<OpenLoopRequest> = (0..24)
            .map(|i| OpenLoopRequest {
                request: presence(users[i % 3]),
                arrival: SimTime::micros(20 * i as u64),
                class: Priority::CallDelivery,
            })
            .collect();
        let config = AdmissionConfig { queues: 1, capacity: 1, call_slots: usize::MAX };
        let (outcomes, report) =
            sharded.answer_open_loop(&pool, &arrivals, &MergeKeys::new(), &config, None);
        assert!(report.shed_calls > 0 && report.admitted > 3, "{report:?}");
        let mut admitted: BTreeMap<&str, u64> = BTreeMap::new();
        for (a, outcome) in arrivals.iter().zip(&outcomes) {
            if matches!(outcome, RequestOutcome::Answer(Ok(_))) {
                *admitted.entry(&*a.request.owner).or_default() += 1;
            }
        }
        assert_eq!(admitted.values().sum::<u64>(), report.admitted);
        let snap = sharded.obs_snapshot();
        assert_eq!(hot_users(&snap).into_iter().collect::<BTreeMap<_, _>>(), admitted);
    }
}
