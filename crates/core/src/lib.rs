//! # gupster-core
//!
//! The GUPster server — "GUPster is to user profile components what
//! Napster was to music files" (§4.1 of the paper).
//!
//! Data stores **register** the profile components they hold; the server
//! maintains per-user **coverage** (XPath → data stores, §4.5) and
//! access-control metadata. Client applications send a request and get
//! back a **referral** — "GUPster does not return any data, just a
//! referral to be used by the client application" (§4.3) — after the
//! privacy shield rewrote the request and the server **signed and
//! time-stamped** it so data stores accept only GUPster-blessed queries
//! (§5.3 Security).
//!
//! The crate also implements the paper's §5 variations:
//!
//! * [`patterns`] — referral vs. **chaining** vs. **recruiting**
//!   distributed-query patterns (§5.2), executed over the simulated
//!   converged network with full latency/byte accounting;
//! * [`subs`] — push subscriptions vs. polling (§5.2);
//! * [`cache`] — result caching with invalidation-on-update (§5.3);
//! * [`resilience`] — deadline budgets, deterministic retry/backoff and
//!   the referral → chaining → recruiting → stale-cache degradation
//!   ladder (Req. 12 availability);
//! * [`mdm`] — centralized vs. user-distributed (white pages, listed or
//!   unlisted) vs. hierarchical meta-data management (§5.1.2);
//! * [`syncplane`] — the fleet write path (DESIGN.md §13):
//!   owner-sharded N-replica reconciliation over `gupster-sync`'s delta
//!   sessions, with write-through invalidation of the decision memo,
//!   token cache, result/stale caches and the push-fanout plane.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
mod client;
pub mod constellation;
mod coverage;
mod error;
mod index;
pub mod mdm;
pub mod patterns;
pub mod provenance;
mod referral;
mod registry;
pub mod resilience;
mod sha256;
pub mod shard;
pub mod subs;
pub mod syncplane;
mod token;

pub use admission::{
    AdmissionConfig, Completion, IngressQueue, OfferOutcome, Priority, RequestOutcome, Shed,
    ShedCause,
};
pub use client::{
    fetch_merge, fetch_merge_batched, fetch_merge_batched_traced, fetch_merge_traced,
    FlightTicket, Singleflight, StorePool,
};
pub use constellation::Constellation;
pub use coverage::{CoverageMap, CoverageMatch, MatchStats};
pub use provenance::{Disclosure, ProvenanceLog};
pub use error::GupsterError;
pub use referral::{Referral, ReferralEntry};
pub use registry::{Gupster, LookupOutcome, RegistryStats};
pub use resilience::{ResilientExecutor, ResilientRun, RetryPolicy, ServedVia};
pub use shard::{BatchReport, OpenLoopRequest, OverloadReport, ShardRequest, ShardedRegistry};
pub use sha256::{hmac_sha256, sha256_hex};
pub use subs::{
    DeliveryBatch, MatchOutcome, Notification, ShardedFanout, SubscriptionManager, WindowOutcome,
};
pub use syncplane::{write_through, EditError, PlaneReport, SyncPlane, UserOutcome};
pub use token::{SignedQuery, Signer, TokenError};
