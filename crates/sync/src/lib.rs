//! # gupster-sync
//!
//! Data synchronization and reconciliation (Requirements 6 and 7 of the
//! paper). 3GPP GUP picked SyncML as the transport, but "SyncML is only
//! a transport protocol. Issues like synchronization semantics need to
//! be addressed" (§5.3) — this crate implements those semantics:
//!
//! * per-replica **change logs** ([`ChangeLog`]) carrying the edit
//!   operations of `gupster-xml`,
//! * **sync anchors** ([`Anchors`]) in the SyncML style: each side
//!   remembers how far into the peer's log it has synced; anchor
//!   mismatch forces a *slow sync* (full-state compare),
//! * **two-way sync sessions** ([`two_way_sync`]) with conflict
//!   detection (overlapping edits since the last anchors),
//! * **traced sessions** ([`two_way_sync_traced`]): the same session
//!   under a `gupster-telemetry` tracer — ship/reconcile/apply/slow
//!   phases become spans with deterministic simulated costs, and the
//!   hub's sync counters advance,
//! * **reconciliation policies** ([`ReconcilePolicy`]): site priority,
//!   last-writer-wins, or a manual queue — "end-users should be able to
//!   provision the policies used to reconcile profile data" (Req. 6),
//! * the **write path at scale** (DESIGN.md §13): interned actor ids and
//!   paths ([`ActorId`], [`PathId`]), anchor-safe **changelog
//!   compaction** ([`ChangeLog::compact`]), and **delta-encoded
//!   sessions** ([`delta_two_way_sync`]) — a touched-path trie replaces
//!   the pairwise conflict scan and dictionary encoding replaces
//!   owned-path framing. Everything else is one session body shared
//!   with [`two_way_sync`], the byte-identical differential oracle.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod anchor;
mod changelog;
mod delta;
mod intern;
mod reconcile;
mod replica;
mod session;

pub use anchor::Anchors;
pub use changelog::{ChangeLog, CompactStats, LogEntry};
pub use delta::{
    compact_traced, delta_two_way_sync, delta_two_way_sync_traced, DeltaCodec, TouchedIndex,
};
pub use intern::{ActorId, PathId};
pub use reconcile::ReconcilePolicy;
pub use replica::Replica;
pub use session::{two_way_sync, two_way_sync_traced, SyncError, SyncReport};
