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
//! * **stamped arena documents** ([`Doc`]): a replica holds its
//!   component as an `ArenaDoc`, the form the stores keep, edited in
//!   place by each op and compacted on the stores' rule; every document
//!   state has a process-wide stamp, and the anchor entry keeps the
//!   stamps at which the pair last matched, so a session between
//!   replicas unchanged since then skips the document walks,
//! * **two-way sync sessions** ([`two_way_sync`]) with conflict
//!   detection (overlapping edits since the last anchors); each returns
//!   a [`SyncReport`] counting the work it did (pairs compared, ops
//!   shipped, bytes exchanged, slow syncs), which callers tally,
//! * **reconciliation policies** ([`ReconcilePolicy`]): site priority,
//!   last-writer-wins, or a manual queue — "end-users should be able to
//!   provision the policies used to reconcile profile data" (Req. 6);
//!   the manual queue parks conflicts for the user, and the pair's next
//!   session slow-syncs them in the first replica's favour,
//! * the **write path at scale** (DESIGN.md §13): each replica's id is
//!   its actor, shared by refcount with its log entries, dedup sets and
//!   peers' anchors ([`Replica::id`]), anchor-safe **changelog compaction**
//!   (`ChangeLog::compact`), and **delta-encoded sessions**
//!   ([`delta_two_way_sync`]) — a touched-path trie replaces the
//!   pairwise conflict scan and dictionary encoding replaces owned-path
//!   framing. Node paths are never interned: compaction and the
//!   dictionary borrow them from the log entries. Everything else is
//!   one session body shared with [`two_way_sync`], the byte-identical
//!   differential oracle.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod anchor;
mod changelog;
mod delta;
mod reconcile;
mod replica;
mod session;

pub use anchor::Anchors;
pub use changelog::{ChangeLog, CompactStats};
pub use delta::delta_two_way_sync;
pub use reconcile::ReconcilePolicy;
pub use replica::{Doc, Replica};
pub use session::{two_way_sync, SyncError, SyncReport};
