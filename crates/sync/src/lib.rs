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
//!   detection (overlapping edits since the last anchors); each returns
//!   a [`SyncReport`] counting the work it did (pairs compared, ops
//!   shipped, bytes exchanged, slow syncs), which callers tally,
//! * **reconciliation policies** ([`ReconcilePolicy`]): site priority,
//!   last-writer-wins, or a manual queue — "end-users should be able to
//!   provision the policies used to reconcile profile data" (Req. 6),
//! * the **write path at scale** (DESIGN.md §13): interned actor ids
//!   ([`ActorId`]), anchor-safe **changelog compaction**
//!   (`ChangeLog::compact`), and **delta-encoded sessions**
//!   ([`delta_two_way_sync`]) — a touched-path trie replaces the
//!   pairwise conflict scan and dictionary encoding replaces owned-path
//!   framing. Node paths are never interned: compaction and the
//!   dictionary borrow them from the log entries. Everything else is
//!   one session body shared with [`two_way_sync`], the byte-identical
//!   differential oracle.

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
pub use changelog::{ChangeLog, CompactStats};
pub use delta::delta_two_way_sync;
pub use intern::ActorId;
pub use reconcile::ReconcilePolicy;
pub use replica::Replica;
pub use session::{two_way_sync, SyncError, SyncReport};
