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
//! * `resilience` — deadline budgets, deterministic retry/backoff and
//!   the referral → chaining → recruiting → stale-cache degradation
//!   ladder (Req. 12 availability);
//! * `syncplane` — the fleet write path (DESIGN.md §13):
//!   owner-sharded N-replica reconciliation over `gupster-sync`'s delta
//!   sessions, with write-through invalidation of the decision memo,
//!   token cache, the registry's stale rung (cached reads included) and
//!   the push-fanout plane.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub(crate) mod admission;
pub mod cache;
mod client;
pub(crate) mod constellation;
mod coverage;
mod error;
mod index;
pub mod patterns;
pub(crate) mod provenance;
mod referral;
mod registry;
pub(crate) mod resilience;
mod sha256;
pub(crate) mod shard;
pub mod subs;
pub(crate) mod syncplane;
mod token;

pub use admission::{
    AdmissionConfig, Completion, IngressQueue, OfferOutcome, Priority, RequestOutcome, Shed,
    ShedCause,
};
pub use client::{fetch_merge, fetch_merge_traced, SharedAnswer, StorePool};
/// The old name of [`fetch_merge`], kept for the wall-clock benchmark:
/// every fetch is per store now, so the two are one function.
pub use client::fetch_merge as fetch_merge_batched;
pub use constellation::Constellation;
pub use coverage::{CoverageMap, CoverageMatch, MatchStats};
pub use provenance::{Disclosure, ProvenanceLog, RecordRef};
pub use error::GupsterError;
pub use referral::{Referral, ReferralEntry};
pub use registry::{Gupster, LookupOutcome, RegistryStats};
pub use resilience::{ResilientExecutor, ResilientRun, ServedVia};
pub use shard::{BatchReport, OpenLoopRequest, OverloadReport, ShardRequest, ShardedRegistry};
pub use subs::ShardedFanout;
pub use syncplane::{write_through, EditError, PlaneReport, SyncPlane, UserOutcome};
pub use token::{SignedQuery, Signer, TokenError, TokenPaths};
