//! # gupster-telemetry
//!
//! End-to-end request telemetry for the GUPster referral pipeline:
//! spans, per-stage latency histograms and machine-readable trace
//! export.
//!
//! Durations are measured in simulated [`SimTime`] — the workspace has
//! no wall clocks in its hot paths, so traces are **deterministic**:
//! the same seed produces byte-identical trace files, which keeps the
//! experiments reproducible and the telemetry assertions testable.
//!
//! * [`Span`]s carry a monotonically-assigned [`RequestId`], nest via
//!   parent links and are labelled with pipeline stages
//!   ([`stage::REGISTRY_LOOKUP`], [`stage::TOKEN_SIGN`], …).
//! * The [`TelemetryHub`] aggregates finished spans into per-stage
//!   log-scale-bucket [`Histogram`]s (p50/p95/p99) and keeps pipeline
//!   [`Counters`].
//! * Two exporters: a human-readable stage table
//!   ([`TelemetryHub::render_stage_table`]) and JSON-lines traces
//!   ([`TelemetryHub::export_jsonl`] / [`export::parse`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod histogram;
pub mod hub;
pub mod intern;
pub mod obs;
pub mod scan;
pub mod slo;
pub mod span;
pub mod table;

pub use gupster_netsim::SimTime;
pub use histogram::Histogram;
pub use hub::{merge_exemplars, CounterSnapshot, Counters, Exemplar, StageStats, TelemetryHub};
pub use intern::{StageId, StageInterner};
pub use obs::{ExemplarSummary, FleetObs, HotKey, ObsSnapshot, ShardObs, StageRow};
pub use slo::{AttributionRow, SloOutcome, SloSpec};
pub use span::{single_rooted_tree, RequestId, Span, Tracer};

/// Canonical stage labels of the referral pipeline. Free-form labels
/// are accepted everywhere; these constants keep the instrumented
/// crates and the experiment reports in agreement.
pub mod stage {
    /// The registry lookup pipeline (root of a registry-side trace).
    pub const REGISTRY_LOOKUP: &str = "registry.lookup";
    /// Matching the (rewritten) request against the coverage map.
    pub const COVERAGE_MATCH: &str = "coverage.match";
    /// The trie-index candidate walk inside a coverage match.
    pub const COVERAGE_INDEX: &str = "coverage.index";
    /// The privacy shield's decision (PDP rule evaluation).
    pub const POLICY_DECIDE: &str = "policy.decide";
    /// Rewriting the request (narrowing + user-id injection).
    pub const QUERY_REWRITE: &str = "query.rewrite";
    /// Signing the rewritten query (HMAC).
    pub const TOKEN_SIGN: &str = "token.sign";
    /// Verifying a signed query at a data store.
    pub const TOKEN_VERIFY: &str = "token.verify";
    /// Fetching one fragment from a data store.
    pub const STORE_FETCH: &str = "store.fetch";
    /// Adopting fetched fragments into arena documents (zero-copy parse).
    pub const XML_PARSE: &str = "xml.parse";
    /// Deep-unioning fetched fragments.
    pub const XML_MERGE: &str = "xml.merge";
    /// Serializing the merged result for the client.
    pub const XML_SERIALIZE: &str = "xml.serialize";
    /// A result served from cache (zero-duration marker span).
    pub const CACHE_HIT: &str = "cache.hit";
    /// A cache miss falling through to the full pipeline.
    pub const CACHE_MISS: &str = "cache.miss";
    /// Client-side fetch-and-merge of a referral.
    pub const FETCH_MERGE: &str = "fetch.merge";
    /// A fetch coalesced onto an identical in-flight one (singleflight).
    pub const SINGLEFLIGHT_HIT: &str = "fetch.singleflight";
    /// One request processed by a shard worker (root of a sharded
    /// scatter-gather trace).
    pub const SHARD_REQUEST: &str = "shard.request";
    /// Network time of the client↔registry lookup exchange.
    pub const NET_LOOKUP: &str = "net.lookup";
    /// Network time of fragment fetches (parallel fan-out).
    pub const NET_FETCH: &str = "net.fetch";
    /// Network time returning the merged result to the client.
    pub const NET_RETURN: &str = "net.return";
    /// Root span of a resilient request (deadline + retry + fallback).
    pub const RESILIENCE_REQUEST: &str = "resilience.request";
    /// Deterministic backoff wait before a retry attempt.
    pub const RETRY_BACKOFF: &str = "resilience.backoff";
    /// Fallback to the next rung of the degradation ladder (marker).
    pub const FALLBACK: &str = "resilience.fallback";
    /// A stale-cache serve after every rung failed (marker).
    pub const STALE_SERVE: &str = "resilience.stale";
    /// A request abandoned on deadline-budget exhaustion (marker).
    pub const DEADLINE_EXCEEDED: &str = "resilience.deadline";
    /// Root span of a two-way changelog sync session.
    pub const SYNC_SESSION: &str = "sync.session";
    /// Shipping changelog operations between the replica pair.
    pub const SYNC_SHIP: &str = "sync.ship";
    /// Detecting conflicting change pairs (reconciliation).
    pub const SYNC_RECONCILE: &str = "sync.reconcile";
    /// Applying accepted remote operations to the local document.
    pub const SYNC_APPLY: &str = "sync.apply";
    /// The slow path: full-document exchange and deep merge (marker
    /// plus cost when taken).
    pub const SYNC_SLOW: &str = "sync.slow";
    /// Changelog compaction: truncation below the live-anchor floor
    /// plus superseded-op coalescing and insert+delete annihilation.
    pub const SYNC_COMPACT: &str = "sync.compact";
    /// Delta-session reconciliation: building/probing the touched-path
    /// index and dictionary-encoding the shipped op batches.
    pub const SYNC_DELTA: &str = "sync.delta";
    /// One admission-control decision at an ingress queue (fixed cost
    /// per open-loop arrival).
    pub const ADMISSION_DECIDE: &str = "admission.decide";
    /// End-to-end sojourn (queue wait + service) of a call-delivery
    /// class request under open-loop load.
    pub const CLASS_CALL_DELIVERY: &str = "class.call_delivery";
    /// End-to-end sojourn of a profile-edit / bulk class request under
    /// open-loop load.
    pub const CLASS_PROFILE_EDIT: &str = "class.profile_edit";
    /// Matching one store change event against the inverted
    /// subscription index (trie walk + candidate confirmation).
    pub const SUBS_INDEX: &str = "subs.index";
}
