//! The sync plane: fleet-scale replica reconciliation with
//! write-through invalidation (DESIGN.md §13).
//!
//! Each user's profile component lives as an N-replica star: a **hub**
//! replica (the primary copy, Req. 4) plus device replicas that only
//! ever sync against the hub. Each shard of the plane holds the stars of
//! the owners the crate's owner-sharded executor (`crate::shard`) routes
//! to it, and a pass scatters the dirty stars over that executor, one
//! scoped thread per shard with work — users are disjoint across shards,
//! so the outcome stream is **invariant at any shard count**: per-user
//! outcomes are deterministic and the plane reports them in owner order,
//! whichever shard produced them.
//!
//! A reconcile pass costs what was edited, not what is registered: each
//! shard keeps a **dirty list** — an edit appends its star's owner (once
//! until the next pass), and a pass runs sessions and compaction for
//! listed stars only (a star whose pass did not converge, or errored,
//! is listed again). An idle star is neither touched nor reported: the
//! report has one row per star the pass ran, and counts idle stars only
//! in `converged_users`.
//!
//! Reconciliation itself is the delta fast path of `gupster-sync`
//! ([`gupster_sync::delta_two_way_sync`]): two hub-centred rounds relay
//! every device's edits to every other device, then each replica's
//! change log is **compacted** against its live peer anchors. A session
//! between replicas unchanged since they last matched walks neither
//! document, and neither does the convergence check
//! ([`Replica::known_equal`]). The naive pairwise baseline that E22 and
//! the differential suites compare against is `gupster-oracle`'s
//! `NaivePlane`. A pass reports what it did as counts (pairs
//! compared, ops shipped, bytes, conflicts, slow syncs, entries
//! compacted) and adds them to the telemetry hub's sync counters.
//!
//! A committed reconcile is a profile **write**, and the registry holds
//! derived state that must not survive one: memoized PDP decisions,
//! cached referral tokens, the stale rung's answers. [`write_through`]
//! bumps the owner's write generation ([`Gupster::note_write`]), drops
//! the derived entries, and turns the changed paths into
//! [`ChangeEvent`]s for the push-fanout plane — post-sync reads never
//! see pre-write cache entries (asserted by
//! `tests/sync_differential.rs`).

use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gupster_store::ChangeEvent;
use gupster_sync::{delta_two_way_sync, ReconcilePolicy, Replica, SyncReport};
use gupster_telemetry::TelemetryHub;
use gupster_xml::{EditOp, Element, MergeKeys, NameInterner, NodePath, XmlError};
use gupster_xpath::{LocStep, Path};

use crate::registry::Gupster;
use crate::shard::Shards;

/// One user's replica star: the hub (primary copy) plus device
/// replicas.
#[derive(Debug, Clone)]
struct UserReplicas {
    /// The component's root element name (e.g. `address-book`) —
    /// prefixed under `/user[@id='…']/` when changed paths are
    /// published registry-side.
    component: String,
    hub: Replica,
    devices: Vec<Replica>,
    /// Target paths of every edit accepted since the last reconcile,
    /// in arrival order — drained into [`UserOutcome::changed`].
    pending: Vec<NodePath>,
    /// Listed in its shard's [`StarShard::dirty`]: the next reconcile
    /// pass runs this star's sessions.
    dirty: bool,
}

/// One shard of the plane: its stars, and the owners of those the next
/// pass runs.
#[derive(Debug, Default)]
struct StarShard {
    stars: BTreeMap<String, UserReplicas>,
    /// Owners of the stars flagged `dirty`, each once, in marking order.
    dirty: Vec<String>,
}

/// Outcome of one star a reconcile pass ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserOutcome {
    /// The profile owner.
    pub owner: String,
    /// Sync sessions run (2 rounds × devices).
    pub sessions: usize,
    /// Bytes shipped across all of the user's sessions.
    pub bytes_exchanged: usize,
    /// Op pairs examined for conflicts.
    pub compared: usize,
    /// Conflicting pairs found.
    pub conflicts: usize,
    /// Conflicts the first (hub) side won.
    pub first_wins: usize,
    /// Ops shipped (both directions, all sessions).
    pub shipped: usize,
    /// Conflict pairs parked for the user under
    /// [`ReconcilePolicy::Manual`]. Parked, not held: the star's next
    /// pass slow-syncs each such device with the hub, and the hub's
    /// side wins.
    pub queued: usize,
    /// Sessions that fell back to a slow sync.
    pub slow_syncs: usize,
    /// Sessions that errored (component mismatch).
    pub errors: usize,
    /// Log entries removed by post-sync compaction (all replicas).
    pub compacted: usize,
    /// True when every device document equals the hub's after the pass.
    pub converged: bool,
    /// Registry-side paths touched since the last reconcile, first-
    /// appearance order. Names-only (keys and indices dropped):
    /// coarser than the edits, so invalidation over-approximates —
    /// conservative and safe.
    pub changed: Vec<Path>,
}

impl UserOutcome {
    fn absorb(&mut self, r: &SyncReport) {
        self.sessions += 1;
        self.bytes_exchanged += r.bytes_exchanged;
        self.compared += r.compared;
        self.conflicts += r.conflicts;
        self.first_wins += r.first_wins;
        self.shipped += r.shipped_to_first + r.shipped_to_second;
        self.queued += r.queued.len();
        self.slow_syncs += r.slow_sync as usize;
    }
}

/// Aggregate outcome of one [`SyncPlane::reconcile`] pass. `users` is
/// sorted by owner, so the report — and everything fed from it — is
/// identical at any shard count.
#[derive(Debug, Clone, Default)]
pub struct PlaneReport {
    /// Outcomes of the stars this pass ran, sorted by owner: those
    /// edited since the last pass, and those it left unconverged or
    /// erroring. An idle star has no row.
    pub users: Vec<UserOutcome>,
    /// Total sync sessions run.
    pub sessions: usize,
    /// Total bytes shipped.
    pub bytes_exchanged: usize,
    /// Total op pairs examined.
    pub compared: usize,
    /// Total conflicts found.
    pub conflicts: usize,
    /// Total sessions that went slow.
    pub slow_syncs: usize,
    /// Total ops shipped.
    pub shipped: usize,
    /// Total log entries removed by compaction.
    pub compacted: usize,
    /// Registered users whose replicas all converged, idle ones included
    /// (an idle star is as converged as its last pass left it).
    pub converged_users: usize,
}

impl PlaneReport {
    /// The report of a pass that ran `users` over a plane of
    /// `registered` stars.
    fn from_users(users: Vec<UserOutcome>, registered: usize) -> Self {
        let mut report = PlaneReport { converged_users: registered, ..PlaneReport::default() };
        for u in &users {
            report.sessions += u.sessions;
            report.bytes_exchanged += u.bytes_exchanged;
            report.compared += u.compared;
            report.conflicts += u.conflicts;
            report.slow_syncs += u.slow_syncs;
            report.shipped += u.shipped;
            report.compacted += u.compacted;
            report.converged_users -= !u.converged as usize;
        }
        report.users = users;
        report
    }
}

/// Why [`SyncPlane::edit_device`] or [`SyncPlane::edit_hub`] refused an
/// edit. Nothing was applied or logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// No replica star is registered for this owner.
    UnknownOwner(String),
    /// The owner's star has no device with this number.
    UnknownDevice {
        /// The profile owner.
        owner: String,
        /// The device number asked for.
        device: usize,
    },
    /// The edit does not apply to the replica's document.
    Xml(XmlError),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownOwner(owner) => write!(f, "no replica star for owner {owner}"),
            EditError::UnknownDevice { owner, device } => {
                write!(f, "owner {owner} has no device {device}")
            }
            EditError::Xml(e) => write!(f, "edit does not apply: {e}"),
        }
    }
}

impl std::error::Error for EditError {}

/// The sharded reconciliation plane over every user's replica star.
#[derive(Debug)]
pub struct SyncPlane {
    /// Each shard's replica stars, by owner, and its dirty list.
    stars: Shards<StarShard>,
    /// Conflict policy applied in every session.
    pub policy: ReconcilePolicy,
}

impl SyncPlane {
    /// A plane over `shards` partitions (≥ 1).
    pub fn new(shards: usize, policy: ReconcilePolicy) -> Self {
        let stars = Shards::new(shards, |_| StarShard::default());
        SyncPlane { stars, policy }
    }

    /// Number of users with replica stars.
    pub fn user_count(&self) -> usize {
        self.stars.parts().iter().map(|s| s.stars.len()).sum()
    }

    /// Registers a user's component: a hub replica seeded with `doc`
    /// plus `device_count` device replicas holding the same baseline.
    pub fn add_user(&mut self, owner: &str, doc: Element, keys: MergeKeys, device_count: usize) {
        let replica = |id: String| Replica::new(&id, doc.clone(), keys.clone());
        let star = UserReplicas {
            component: doc.name.to_string(),
            hub: replica(format!("{owner}#hub")),
            devices: (0..device_count).map(|i| replica(format!("{owner}#dev{i}"))).collect(),
            pending: Vec::new(),
            dirty: false,
        };
        let shard = self.stars.get_mut(owner);
        if shard.stars.insert(owner.to_string(), star).is_some_and(|old| old.dirty) {
            shard.dirty.retain(|o| o != owner);
        }
    }

    /// Applies a local edit on one of the user's device replicas.
    pub fn edit_device(&mut self, owner: &str, device: usize, op: EditOp) -> Result<u64, EditError> {
        self.edit(owner, Some(device), op)
    }

    /// Applies a local edit on the user's hub replica (a portal-side
    /// write).
    pub fn edit_hub(&mut self, owner: &str, op: EditOp) -> Result<u64, EditError> {
        self.edit(owner, None, op)
    }

    /// Applies a local edit on a device replica, or on the hub when
    /// `device` is `None`. An accepted edit's target is pending
    /// publication and its star needs a reconcile.
    fn edit(&mut self, owner: &str, device: Option<usize>, op: EditOp) -> Result<u64, EditError> {
        let shard = self.stars.get_mut(owner);
        let u = shard.stars.get_mut(owner).ok_or_else(|| EditError::UnknownOwner(owner.to_string()))?;
        let replica = match device {
            None => &mut u.hub,
            Some(device) => u.devices.get_mut(device).ok_or_else(|| EditError::UnknownDevice {
                owner: owner.to_string(),
                device,
            })?,
        };
        let target = op.target().clone();
        let seq = replica.edit(op).map_err(EditError::Xml)?;
        u.pending.push(target);
        if !u.dirty {
            u.dirty = true;
            shard.dirty.push(owner.to_string());
        }
        Ok(seq)
    }

    /// The hub document of a user (for assertions and reads).
    pub fn hub_doc(&self, owner: &str) -> &Element {
        &self.stars.get(owner).stars[owner].hub.doc
    }

    /// A device document of a user.
    pub fn device_doc(&self, owner: &str, device: usize) -> &Element {
        &self.stars.get(owner).stars[owner].devices[device].doc
    }

    /// Total retained change-log entries across every replica —
    /// compaction's effect is visible here.
    pub fn log_entries(&self) -> usize {
        self.stars
            .parts()
            .iter()
            .flat_map(|s| s.stars.values())
            .map(|u| u.hub.log.len() + u.devices.iter().map(|d| d.log.len()).sum::<usize>())
            .sum()
    }

    /// Runs one reconcile pass over the dirty stars: every shard's in
    /// parallel, two hub-centred rounds each, then per-replica log
    /// compaction. Idle stars are not visited. The
    /// returned report has one row per star the pass ran, sorted by
    /// owner, and is byte-identical at any shard count. Its totals are
    /// added to `telemetry`'s `sync_sessions`, `sync_ops_shipped`,
    /// `sync_conflicts`, `sync_slow_paths` and `compacted_ops` counters.
    pub fn reconcile(&mut self, telemetry: &Arc<TelemetryHub>) -> PlaneReport {
        let policy = self.policy;
        let mut dirty: Vec<String> =
            self.stars.parts_mut().iter_mut().flat_map(|s| mem::take(&mut s.dirty)).collect();
        dirty.sort_unstable();
        let (mut outcomes, _) = self.stars.scatter(&dirty, String::as_str, |shard, bucket| {
            let out = bucket.iter().map(|&k| {
                let owner = &dirty[k];
                let u = shard.stars.get_mut(owner).expect("a star lives on its owner's shard");
                let outcome = reconcile_user(owner, u, policy);
                if u.dirty {
                    shard.dirty.push(owner.clone());
                }
                outcome
            });
            ((), out.collect())
        });
        for (outcome, owner) in outcomes.iter_mut().zip(dirty) {
            outcome.owner = owner;
        }
        let report = PlaneReport::from_users(outcomes, self.user_count());
        let counters = telemetry.counters();
        for (counter, total) in [
            (&counters.sync_sessions, report.sessions),
            (&counters.sync_ops_shipped, report.shipped),
            (&counters.sync_conflicts, report.conflicts),
            (&counters.sync_slow_paths, report.slow_syncs),
            (&counters.compacted_ops, report.compacted),
        ] {
            counter.fetch_add(total as u64, Ordering::Relaxed);
        }
        report
    }
}

/// Reconciles one dirty star: two rounds of hub↔device sessions (the
/// hub is the *first* replica, so [`ReconcilePolicy::PreferFirst`]
/// means "the primary copy wins"), then log compaction against live
/// anchors. The outcome's `owner` is left empty for the caller, which
/// owns the name already.
fn reconcile_user(owner: &str, u: &mut UserReplicas, policy: ReconcilePolicy) -> UserOutcome {
    let mut outcome = UserOutcome::default();
    for _round in 0..2 {
        for d in &mut u.devices {
            match delta_two_way_sync(&mut u.hub, d, policy) {
                Ok(r) => outcome.absorb(&r),
                Err(_) => outcome.errors += 1,
            }
        }
    }
    // The last session may already have found the pair equal.
    outcome.converged = u.devices.iter().all(|d| u.hub.known_equal(d) || d.doc == u.hub.doc);
    // Unfinished business keeps the star in the dirty set.
    u.dirty = !outcome.converged || outcome.errors > 0;
    // The star topology makes compaction anchors exact: devices sync
    // only against the hub, so the hub's live anchors are every
    // device's last-seen, and each device's sole anchor is the hub's
    // last-seen of it.
    let hub_anchors: Vec<u64> = u.devices.iter().map(|d| d.anchors.last_seen(&u.hub.id)).collect();
    if !hub_anchors.is_empty() {
        outcome.compacted += u.hub.compact_log(&hub_anchors).dropped();
    }
    for d in &mut u.devices {
        let anchor = u.hub.anchors.last_seen(&d.id);
        outcome.compacted += d.compact_log(&[anchor]).dropped();
    }
    // `seen` only filters log entries, and no log holds one now; every
    // later entry carries a fresh `(actor, ts)`, since an actor's
    // Lamport clock only grows. So the dedup sets have nothing left to
    // guard, and clearing them bounds each by the edits since the
    // star's last fully compacted pass.
    if u.hub.log.is_empty() && u.devices.iter().all(|d| d.log.is_empty()) {
        u.hub.seen.clear();
        u.devices.iter_mut().for_each(|d| d.seen.clear());
    }
    for p in u.pending.drain(..) {
        let registry = registry_path(owner, &u.component, &p);
        if !outcome.changed.contains(&registry) {
            outcome.changed.push(registry);
        }
    }
    outcome
}

/// Converts a component-local [`NodePath`] into the registry-side
/// [`Path`] `/user[@id='owner']/component/...`, keeping element names
/// only — keys and indices are dropped, so the published path covers at
/// least everything the edit touched. Built step by step, not parsed:
/// an owner id or element name need not be valid XPath text.
fn registry_path(owner: &str, component: &str, p: &NodePath) -> Path {
    let mut steps = vec![
        LocStep::child("user").with_attr_eq("id", owner),
        LocStep::child(NameInterner::name(component)),
    ];
    steps.extend(p.steps.iter().map(|step| LocStep::child(NameInterner::name(&step.name))));
    Path { steps }
}

/// Commits a reconcile pass against the registry: every touched owner's
/// write generation is bumped and their derived registry state (PDP
/// memo, referral-token cache, the stale answers the resilience ladder,
/// the open-loop engine and the cached read serve) dropped via
/// [`Gupster::note_write`] — the one write hook, since no answer cache
/// lives outside the registry. The changed paths come back as
/// [`ChangeEvent`]s: feed them to [`crate::ShardedFanout::stage_events`]
/// (push subscribers).
pub fn write_through(gupster: &mut Gupster, report: &PlaneReport) -> Vec<ChangeEvent> {
    let mut events = Vec::new();
    for u in &report.users {
        if u.changed.is_empty() {
            continue;
        }
        gupster.note_write(&u.owner, &u.changed);
        let generation = gupster.write_generation(&u.owner);
        for path in &u.changed {
            events.push(ChangeEvent {
                user: u.owner.clone(),
                path: path.clone(),
                generation,
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_oracle::NaivePlane;
    use gupster_xml::parse;

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    fn base() -> Element {
        parse(r#"<address-book><item id="1"><name>Mom</name></item></address-book>"#).unwrap()
    }

    fn set_name(v: &str) -> EditOp {
        EditOp::SetText {
            path: NodePath::root().keyed("item", "id", "1").child("name", 0),
            text: v.into(),
        }
    }

    fn insert_item(id: &str) -> EditOp {
        EditOp::Insert {
            parent: NodePath::root(),
            element: Element::new("item").with_attr("id", id),
        }
    }

    fn plane(shards: usize, users: usize, devices: usize) -> SyncPlane {
        let mut plane = SyncPlane::new(shards, ReconcilePolicy::LastWriterWins);
        for i in 0..users {
            plane.add_user(&format!("user{i}"), base(), keys(), devices);
        }
        plane
    }

    #[test]
    fn star_converges_all_devices() {
        let hub = Arc::new(TelemetryHub::new());
        let mut plane = plane(2, 3, 3);
        plane.edit_device("user0", 0, set_name("A")).unwrap();
        plane.edit_device("user0", 1, insert_item("7")).unwrap();
        plane.edit_device("user1", 2, set_name("B")).unwrap();
        plane.edit_hub("user2", insert_item("9")).unwrap();
        let report = plane.reconcile(&hub);
        assert_eq!(report.converged_users, 3);
        for owner in ["user0", "user1", "user2"] {
            for d in 0..3 {
                assert_eq!(plane.device_doc(owner, d), plane.hub_doc(owner), "{owner} dev{d}");
            }
        }
        // user0's two edits reached the hub and every device.
        assert!(plane.hub_doc("user0").children.len() == 2);
        assert_eq!(report.users.len(), 3);
        assert_eq!(report.users[0].changed.len(), 2);
    }

    #[test]
    fn outcome_stream_is_shard_count_invariant() {
        let edits = |plane: &mut SyncPlane| {
            for i in 0..6 {
                let owner = format!("user{i}");
                plane.edit_device(&owner, 0, set_name(&format!("v{i}"))).unwrap();
                plane.edit_device(&owner, 1, insert_item(&format!("{i}"))).unwrap();
            }
        };
        let mut reports = Vec::new();
        for shards in [1, 2, 8] {
            let hub = Arc::new(TelemetryHub::new());
            let mut plane = plane(shards, 6, 2);
            edits(&mut plane);
            reports.push(plane.reconcile(&hub).users);
        }
        assert_eq!(reports[0], reports[1], "1 vs 2 shards");
        assert_eq!(reports[0], reports[2], "1 vs 8 shards");
    }

    /// A user's replica star, wherever the plane keeps it.
    fn star_of<'p>(plane: &'p SyncPlane, owner: &str) -> &'p UserReplicas {
        &plane.stars.get(owner).stars[owner]
    }

    /// A user's first device replica.
    fn first_device<'p>(plane: &'p mut SyncPlane, owner: &str) -> &'p mut Replica {
        &mut plane.stars.get_mut(owner).stars.get_mut(owner).unwrap().devices[0]
    }

    /// Gives a user's first device its document under another root name
    /// (another component's, unless `name` is the star's own).
    fn rename_first_device(plane: &mut SyncPlane, owner: &str, name: &'static str) {
        rename(first_device(plane, owner), name);
    }

    /// Gives a replica its document under another root name.
    fn rename(device: &mut Replica, name: &'static str) {
        let mut doc = (*device.doc).clone();
        doc.name = name.into();
        device.replace_doc(doc);
    }

    /// The row a pass reported for `owner`, if it ran the star.
    fn row<'r>(report: &'r PlaneReport, owner: &str) -> Option<&'r UserOutcome> {
        report.users.iter().find(|u| u.owner == owner)
    }

    /// Every registered owner of a plane built by [`plane`].
    fn owners(users: usize) -> impl Iterator<Item = String> {
        (0..users).map(|i| format!("user{i}"))
    }

    /// Every dirty star on one shard of a 3-shard plane (the other two
    /// get nothing to run): the report equals the 1-shard plane's.
    #[test]
    fn a_pass_whose_dirty_stars_share_one_shard_matches_one_shard() {
        let hub = Arc::new(TelemetryHub::new());
        let mut reference = plane(1, 12, 2);
        let mut sharded = plane(3, 12, 2);
        let shard = sharded.stars.index("user0");
        let edited: Vec<String> = (0..12)
            .map(|i| format!("user{i}"))
            .filter(|owner| sharded.stars.index(owner) == shard)
            .collect();
        assert!(edited.len() >= 2 && edited.len() < 12, "{edited:?}");
        for plane in [&mut reference, &mut sharded] {
            for (i, owner) in edited.iter().enumerate() {
                plane.edit_device(owner, 0, set_name(&format!("v{i}"))).unwrap();
                plane.edit_hub(owner, insert_item(&format!("{i}"))).unwrap();
            }
        }
        let (one, three) = (reference.reconcile(&hub), sharded.reconcile(&hub));
        assert_eq!(three.sessions, 4 * edited.len());
        assert_eq!(three.users, one.users);
        for owner in &edited {
            assert_eq!(sharded.hub_doc(owner), reference.hub_doc(owner), "{owner}");
        }
    }

    /// Marks every star, as the pass did before the dirty set existed.
    fn mark_all(plane: &mut SyncPlane) {
        for shard in plane.stars.parts_mut() {
            for (owner, u) in shard.stars.iter_mut().filter(|(_, u)| !u.dirty) {
                u.dirty = true;
                shard.dirty.push(owner.clone());
            }
        }
    }

    #[test]
    fn a_pass_runs_sessions_for_edited_stars_only() {
        const USERS: usize = 6;
        let mut reports = Vec::new();
        for shards in [1, 2, 8] {
            let hub = Arc::new(TelemetryHub::new());
            let mut lazy = plane(shards, USERS, 2);
            let mut full_scan = plane(shards, USERS, 2);

            // Nothing edited: nothing runs or is reported, and every
            // star counts as converged.
            let idle = lazy.reconcile(&hub);
            assert_eq!((idle.users.len(), idle.converged_users, idle.sessions), (0, USERS, 0));

            lazy.edit_device("user3", 0, set_name("edited")).unwrap();
            full_scan.edit_device("user3", 0, set_name("edited")).unwrap();
            let report = lazy.reconcile(&hub);
            mark_all(&mut full_scan);
            let control = full_scan.reconcile(&hub);

            assert_eq!((report.users.len(), report.converged_users), (1, USERS));
            assert_eq!(report.sessions, 4, "2 rounds x 2 devices of the one edited star");
            assert_eq!((control.users.len(), control.sessions), (USERS, 4 * USERS));
            for (owner, c) in owners(USERS).zip(&control.users) {
                assert_eq!(c.owner, owner);
                let u = row(&report, &owner);
                assert_eq!(u.map_or(0, |u| u.sessions), if owner == "user3" { 4 } else { 0 }, "{owner}");
                assert!(u.is_none_or(|u| u.converged && u.errors == 0), "{owner}");
                assert_eq!(u.map_or(&[][..], |u| &u.changed), c.changed, "{owner}");
                assert_eq!(lazy.hub_doc(&owner), full_scan.hub_doc(&owner));
                for d in 0..2 {
                    assert_eq!(lazy.device_doc(&owner, d), full_scan.device_doc(&owner, d));
                }
            }
            assert_eq!(row(&report, "user3"), Some(&control.users[3]));
            assert_eq!(lazy.log_entries(), full_scan.log_entries());
            reports.push(report.users);
        }
        assert_eq!(reports[0], reports[1], "1 vs 2 shards");
        assert_eq!(reports[0], reports[2], "1 vs 8 shards");
    }

    /// A star registered again replaces the old one, dirty mark and all.
    #[test]
    fn re_registering_an_edited_star_leaves_nothing_to_run() {
        let hub = Arc::new(TelemetryHub::new());
        let mut plane = plane(2, 3, 2);
        plane.edit_device("user1", 0, set_name("edited")).unwrap();
        plane.edit_device("user2", 1, set_name("edited")).unwrap();
        plane.add_user("user1", base(), keys(), 2);
        assert_eq!(plane.user_count(), 3);
        let report = plane.reconcile(&hub);
        assert_eq!(report.users.iter().map(|u| u.owner.as_str()).collect::<Vec<_>>(), ["user2"]);
        assert_eq!((report.sessions, report.converged_users), (4, 3));
        assert_eq!(plane.hub_doc("user1"), &base());
    }

    #[test]
    fn an_unfinished_star_is_revisited_until_it_settles() {
        let hub = Arc::new(TelemetryHub::new());
        let mut plane = plane(2, 3, 2);
        // A device that no longer holds the hub's component: its
        // sessions error, so the star cannot converge.
        rename_first_device(&mut plane, "user1", "calendar");
        plane.edit_hub("user1", insert_item("2")).unwrap();
        let first = plane.reconcile(&hub);
        let user1 = |report: &PlaneReport| row(report, "user1").cloned().expect("user1 ran");
        assert_eq!((user1(&first).errors, user1(&first).converged), (2, false));
        assert_eq!(user1(&first).changed.len(), 1);
        assert_eq!(first.converged_users, 2);

        // No new edit, yet it comes round again; the idle stars do not.
        let second = plane.reconcile(&hub);
        assert_eq!((user1(&second).errors, user1(&second).sessions), (2, 2));
        assert_eq!(second.sessions, 2);
        assert!(user1(&second).changed.is_empty(), "changed paths are published once");

        // Once the cause is gone the star settles and drops out.
        rename_first_device(&mut plane, "user1", "address-book");
        let third = plane.reconcile(&hub);
        assert_eq!((user1(&third).errors, third.converged_users), (0, 3));
        assert_eq!(plane.device_doc("user1", 0), plane.hub_doc("user1"));
        assert_eq!(plane.reconcile(&hub).sessions, 0);
    }

    #[test]
    fn compaction_shrinks_logs_after_convergence() {
        let hub = Arc::new(TelemetryHub::new());
        let mut plane = plane(1, 1, 2);
        for i in 0..10 {
            plane.edit_device("user0", 0, set_name(&format!("v{i}"))).unwrap();
        }
        let report = plane.reconcile(&hub);
        assert_eq!(report.converged_users, 1);
        assert!(report.compacted > 0, "acked and superseded entries must drop");
        // After full convergence every anchor sits at the head, so the
        // entire acked history truncates away.
        assert_eq!(plane.log_entries(), 0);
        // A later edit still syncs fast — compaction never broke the
        // anchors of live peers.
        plane.edit_device("user0", 1, set_name("final")).unwrap();
        let report = plane.reconcile(&hub);
        assert_eq!(report.converged_users, 1);
        assert_eq!(report.slow_syncs, 0, "compaction must not force slow syncs");
        assert_eq!(plane.hub_doc("user0").child("item").unwrap().child("name").unwrap().text(), "final");
    }

    /// A pass adds its report's totals to the hub's five sync counters,
    /// at 1 and 2 shards, over a pass with a conflict and a pass where a
    /// laggard device forces a slow sync.
    #[test]
    fn hub_sync_counters_equal_the_report_totals() {
        for shards in [1, 2] {
            let hub = Arc::new(TelemetryHub::new());
            let mut plane = plane(shards, 3, 2);
            let mut totals = [0u64; 5];
            let mut pass = |plane: &mut SyncPlane| {
                let r = plane.reconcile(&hub);
                let counts = [r.sessions, r.shipped, r.conflicts, r.slow_syncs, r.compacted];
                for (total, count) in totals.iter_mut().zip(counts) {
                    *total += count as u64;
                }
                r
            };
            plane.edit_device("user0", 0, set_name("A")).unwrap();
            plane.edit_device("user0", 1, set_name("B")).unwrap();
            plane.edit_hub("user1", insert_item("2")).unwrap();
            pass(&mut plane);
            // The laggard: a device restored from a backup taken before
            // item 2 existed cannot apply the hub's next edit of it, so
            // its session falls back to a slow sync.
            first_device(&mut plane, "user1").replace_doc(base());
            let vip = EditOp::SetAttr {
                path: NodePath::root().keyed("item", "id", "2"),
                name: "vip".into(),
                value: "1".into(),
            };
            plane.edit_hub("user1", vip).unwrap();
            let laggard = pass(&mut plane);
            assert!(laggard.slow_syncs > 0, "{shards} shards");
            assert_eq!(laggard.converged_users, 3);

            let c = hub.counter_snapshot();
            let counters = [
                c.sync_sessions,
                c.sync_ops_shipped,
                c.sync_conflicts,
                c.sync_slow_paths,
                c.compacted_ops,
            ];
            assert_eq!(counters, totals, "{shards} shards");
            assert!(totals[..4].iter().all(|&t| t > 0), "{totals:?}");
            assert!(totals[4] > 0, "the plane compacts");
        }
    }

    #[test]
    fn registry_paths_drop_keys_and_prefix_owner() {
        let p = registry_path(
            "alice",
            "address-book",
            &NodePath::root().keyed("item", "id", "3").child("name", 0),
        );
        assert_eq!(p.to_string(), "/user[@id='alice']/address-book/item/name");
        // For ordinary names the built path is the parsed one.
        for (owner, component, path) in [
            ("alice", "address-book", NodePath::root().keyed("item", "id", "3").child("name", 0)),
            ("bob-2", "calendar", NodePath::root()),
            ("user_7", "buddy.list", NodePath::root().child("group", 1).child("buddy", 0)),
        ] {
            let mut text = format!("/user[@id='{owner}']/{component}");
            for step in &path.steps {
                text = format!("{text}/{}", step.name);
            }
            let parsed = Path::parse(&text).unwrap();
            assert_eq!(registry_path(owner, component, &path), parsed, "{text}");
        }
    }

    #[test]
    fn owner_ids_and_names_outside_xpath_syntax_reconcile() {
        let set_note =
            EditOp::SetText { path: NodePath::root().child("vc:note", 0), text: "y".into() };
        // A quote in the owner id; a `:` the XML parser accepts in a name.
        for (owner, op, names) in
            [("o'brien", set_name("Mum"), &["item", "name"][..]), ("carol", set_note, &["vc:note"])]
        {
            let hub = Arc::new(TelemetryHub::new());
            let mut plane = SyncPlane::new(2, ReconcilePolicy::LastWriterWins);
            let doc = parse(
                r#"<address-book><item id="1"><name>Mom</name></item><vc:note>x</vc:note></address-book>"#,
            )
            .unwrap();
            plane.add_user(owner, doc, keys(), 2);
            plane.edit_device(owner, 0, op).unwrap();
            let report = plane.reconcile(&hub);
            assert_eq!(report.converged_users, 1, "{owner}");
            let mut steps = vec![LocStep::child("user").with_attr_eq("id", owner)];
            steps.extend(["address-book"].iter().chain(names).map(|n| LocStep::child(*n)));
            assert_eq!(report.users[0].changed, vec![Path { steps }], "{owner}");
            assert_eq!(plane.device_doc(owner, 1), plane.hub_doc(owner), "{owner}");
        }
    }

    #[test]
    fn a_device_edit_for_an_unknown_owner_is_an_error() {
        let mut plane = plane(2, 2, 2);
        let err = plane.edit_device("ghost", 0, set_name("x")).unwrap_err();
        assert_eq!(err, EditError::UnknownOwner("ghost".into()));
        assert!(err.to_string().contains("ghost"), "{err}");
        assert_eq!(plane.reconcile(&Arc::new(TelemetryHub::new())).sessions, 0);
    }

    #[test]
    fn a_hub_edit_for_an_unknown_owner_is_an_error() {
        let mut plane = plane(2, 2, 2);
        let err = plane.edit_hub("ghost", set_name("x")).unwrap_err();
        assert_eq!(err, EditError::UnknownOwner("ghost".into()));
        assert!(err.to_string().contains("ghost"), "{err}");
        assert_eq!(plane.reconcile(&Arc::new(TelemetryHub::new())).sessions, 0);
    }

    #[test]
    fn an_edit_on_a_device_the_star_lacks_is_an_error() {
        let mut plane = plane(2, 2, 2);
        let err = plane.edit_device("user1", 2, set_name("x")).unwrap_err();
        assert_eq!(err, EditError::UnknownDevice { owner: "user1".into(), device: 2 });
        assert!(err.to_string().contains("user1") && err.to_string().contains('2'), "{err}");
        // Nothing was applied, logged or marked for the next pass.
        assert_eq!(plane.log_entries(), 0);
        assert_eq!(plane.reconcile(&Arc::new(TelemetryHub::new())).sessions, 0);
    }

    const STORM_USERS: usize = 4;
    const STORM_DEVICES: usize = 3;
    /// The star a device holding another component keeps unconverged
    /// until [`unstick`] fixes it.
    const STUCK: &str = "user1";

    /// What the storm tests read off either plane. The oracle plane is
    /// `gupster-oracle`'s, built against this crate's library rather
    /// than this test build, so its report is that build's
    /// `PlaneReport`, read field by field.
    trait StarDocs {
        fn hub(&self, owner: &str) -> &Element;
        fn device(&self, owner: &str, device: usize) -> &Element;
    }

    impl StarDocs for SyncPlane {
        fn hub(&self, owner: &str) -> &Element {
            self.hub_doc(owner)
        }
        fn device(&self, owner: &str, device: usize) -> &Element {
            self.device_doc(owner, device)
        }
    }

    impl StarDocs for NaivePlane {
        fn hub(&self, owner: &str) -> &Element {
            self.hub_doc(owner)
        }
        fn device(&self, owner: &str, device: usize) -> &Element {
            self.device_doc(owner, device)
        }
    }

    /// A delta plane and an oracle plane (which never compacts and so
    /// never prunes `seen`) over the same stars of four contacts each.
    /// [`STUCK`]'s first device holds another component and an unsynced
    /// edit, so its sessions error.
    fn storm_planes(policy: ReconcilePolicy) -> (SyncPlane, NaivePlane) {
        let book = || {
            let mut book = Element::new("address-book");
            for i in 0..4 {
                book.push_child(
                    Element::new("item")
                        .with_attr("id", format!("c{i}"))
                        .with_child(Element::new("name").with_text(format!("Contact {i}"))),
                );
            }
            book
        };
        let mut delta = SyncPlane::new(2, policy);
        let mut oracle = NaivePlane::new(policy);
        for u in 0..STORM_USERS {
            delta.add_user(&format!("user{u}"), book(), keys(), STORM_DEVICES);
            oracle.add_user(&format!("user{u}"), book(), keys(), STORM_DEVICES);
        }
        rename_first_device(&mut delta, STUCK, "calendar");
        rename(oracle.device_mut(STUCK, 0), "calendar");
        let unsynced = || storm_rename("c0".into(), "unsynced".into());
        delta.edit_device(STUCK, 0, unsynced()).unwrap();
        oracle.edit_device(STUCK, 0, unsynced()).unwrap();
        (delta, oracle)
    }

    fn storm_rename(id: String, text: String) -> EditOp {
        EditOp::SetText { path: NodePath::root().keyed("item", "id", id).child("name", 0), text }
    }

    /// Gives [`STUCK`]'s first device its component back on both planes.
    fn unstick(delta: &mut SyncPlane, oracle: &mut NaivePlane) {
        rename_first_device(delta, STUCK, "address-book");
        rename(oracle.device_mut(STUCK, 0), "address-book");
    }

    /// One pass's seeded edits, applied alike to both planes. Concurrent
    /// writes collide only on identical targets and only the hub
    /// deletes, so every session stays on the fast path.
    fn storm_edits(
        r: &mut gupster_rng::StdRng,
        serial: &mut usize,
        delta: &mut SyncPlane,
        oracle: &mut NaivePlane,
    ) {
        use gupster_rng::Rng;
        for _ in 0..r.gen_range(0..30usize) {
            *serial += 1;
            let owner = format!("user{}", r.gen_range(0..STORM_USERS));
            let replica = r.gen_range(0..=STORM_DEVICES);
            let op = match r.gen_range(0..6u32) {
                0 => EditOp::Insert {
                    parent: NodePath::root(),
                    element: Element::new("item").with_attr("id", format!("n{serial}")),
                },
                1 if replica == STORM_DEVICES => EditOp::Delete {
                    path: NodePath::root()
                        .keyed("item", "id", format!("n{}", r.gen_range(0..*serial))),
                },
                _ => storm_rename(format!("c{}", r.gen_range(0..4u32)), format!("t{serial}")),
            };
            if replica == STORM_DEVICES {
                let _ = delta.edit_hub(&owner, op.clone());
                let _ = oracle.edit_hub(&owner, op);
            } else {
                let _ = delta.edit_device(&owner, replica, op.clone());
                let _ = oracle.edit_device(&owner, replica, op);
            }
        }
    }

    /// `seen` pruning is invisible to sync and bounds the dedup sets. A
    /// seeded interleaving of hub and device edits and passes runs on a
    /// delta plane, which prunes, and on an oracle plane, which never
    /// compacts and so never prunes; one star is held unconverged for a
    /// while by a device that holds another component.
    #[test]
    fn seen_pruning_keeps_sync_exact_and_empties_settled_stars() {
        use gupster_rng::check::cases;

        const USERS: usize = STORM_USERS;
        const DEVICES: usize = STORM_DEVICES;
        let seen_sets = |plane: &SyncPlane, owner: &str| {
            let u = star_of(plane, owner);
            std::iter::once(&u.hub).chain(&u.devices).map(|r| r.seen.clone()).collect::<Vec<_>>()
        };
        cases(12, 0x5EE2, |r| {
            let hub = Arc::new(TelemetryHub::new());
            hub.set_span_limit(0);
            // Not last-writer-wins: a peer that rejoins after lagging
            // applies fewer (compacted) remote ops on the delta plane, so
            // its Lamport clock, and with it later tie-breaks, differs
            // from the oracle plane's with or without pruning.
            let (mut delta, mut oracle) = storm_planes(ReconcilePolicy::PreferFirst);
            let (mut settled, mut held, mut converged, mut serial) = (0, 0, 0, 0usize);
            for pass in 0..8 {
                if pass == 4 {
                    unstick(&mut delta, &mut oracle);
                }
                // Both planes must agree exactly.
                storm_edits(r, &mut serial, &mut delta, &mut oracle);
                let before = seen_sets(&delta, STUCK);
                let rd = delta.reconcile(&hub);
                let ro = oracle.reconcile();
                let oracle_row = |owner: &str| ro.users.iter().find(|u| u.owner == owner);
                assert_eq!((rd.slow_syncs, ro.slow_syncs), (0, 0), "pass {pass}");
                converged = rd.converged_users;
                for owner in &owners(USERS).collect::<Vec<_>>() {
                    // Both planes run the same stars; one neither ran is
                    // as converged as its last pass left it.
                    let (d, o) = (row(&rd, owner), oracle_row(owner));
                    assert_eq!(d.map(|d| d.converged), o.map(|o| o.converged), "pass {pass}: {owner}");
                    assert_eq!(delta.hub_doc(owner), oracle.hub_doc(owner), "pass {pass}: {owner}");
                    for dev in 0..DEVICES {
                        assert_eq!(
                            delta.device_doc(owner, dev),
                            oracle.device_doc(owner, dev),
                            "pass {pass}: {owner} dev{dev}"
                        );
                    }
                    let u = star_of(&delta, owner);
                    let replicas = || std::iter::once(&u.hub).chain(&u.devices);
                    if d.is_none_or(|d| d.converged) && replicas().all(|r| r.log.is_empty()) {
                        assert!(replicas().all(|r| r.seen.is_empty()), "pass {pass}: {owner}");
                        settled += 1;
                    }
                }
                let stuck = star_of(&delta, STUCK);
                if !stuck.devices[0].log.is_empty() {
                    // Not every log compacted away: nothing is forgotten.
                    for (was, is) in before.iter().zip(seen_sets(&delta, STUCK)) {
                        assert!(was.is_subset(&is), "pass {pass}: {STUCK} lost a seen entry");
                    }
                    assert!(!stuck.devices[0].seen.is_empty());
                    held += 1;
                }
            }
            assert_eq!(converged, USERS, "the stuck star settles once fixed");
            assert!(settled > 0 && held == 4, "settled {settled}, held {held}");
        });
    }

    /// Every star of `plane` but a lagging one is converged after `pass`;
    /// `ran` says whether the pass ran a star and if so whether it
    /// converged.
    fn settled(plane: &dyn StarDocs, ran: &dyn Fn(&str) -> Option<bool>, pass: usize) {
        for owner in &owners(STORM_USERS).collect::<Vec<_>>() {
            if pass < 4 && owner == STUCK {
                continue;
            }
            assert!(ran(owner).is_none_or(|converged| converged), "pass {pass}: {owner}");
            for dev in 0..STORM_DEVICES {
                assert_eq!(plane.device(owner, dev), plane.hub(owner), "pass {pass}: {owner} dev{dev}");
            }
        }
    }

    /// The last-writer-wins contract between the planes (DESIGN.md §13):
    /// the same storm as above converges every star on each plane once
    /// the stuck device is fixed, and the planes hold identical
    /// documents for every star that never lagged. The star that lagged
    /// may settle on different documents: its device replays the hub's
    /// compacted suffix on the delta plane, applies fewer remote ops,
    /// and so carries smaller Lamport timestamps into later tie-breaks.
    #[test]
    fn last_writer_wins_planes_converge_and_agree_where_nothing_lagged() {
        use gupster_rng::check::cases;

        cases(12, 0x5EE2, |r| {
            let hub = Arc::new(TelemetryHub::new());
            hub.set_span_limit(0);
            let (mut delta, mut oracle) = storm_planes(ReconcilePolicy::LastWriterWins);
            let mut serial = 0usize;
            for pass in 0..8 {
                if pass == 4 {
                    unstick(&mut delta, &mut oracle);
                }
                storm_edits(r, &mut serial, &mut delta, &mut oracle);
                let rd = delta.reconcile(&hub);
                let ro = oracle.reconcile();
                settled(&delta, &|owner| row(&rd, owner).map(|u| u.converged), pass);
                let oracle_row = |owner: &str| ro.users.iter().find(|u| u.owner == owner);
                settled(&oracle, &|owner| oracle_row(owner).map(|u| u.converged), pass);
                for owner in owners(STORM_USERS).filter(|owner| owner != STUCK) {
                    let owner = &owner;
                    assert_eq!(delta.hub_doc(owner), oracle.hub_doc(owner), "pass {pass}: {owner}");
                }
            }
        });
    }
}
