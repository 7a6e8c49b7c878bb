//! The sync plane: fleet-scale replica reconciliation with
//! write-through invalidation (DESIGN.md §13).
//!
//! Each user's profile component lives as an N-replica star: a **hub**
//! replica (the primary copy, Req. 4) plus device replicas that only
//! ever sync against the hub. The plane partitions users across
//! owner-hashed shards (the same stable `shard_index` as
//! [`crate::ShardedRegistry`] and [`crate::ShardedFanout`]) and runs
//! each shard's reconciliation on its own scoped thread — users are
//! disjoint across shards, so the outcome stream is **invariant at any
//! shard count**: per-user outcomes are deterministic and the plane
//! reports them in owner order, whichever shard produced them.
//!
//! A reconcile pass costs what was edited, not what is registered: the
//! plane keeps a **dirty set** — an edit marks its star, and a pass runs
//! sessions and compaction for marked stars only (a star whose pass did
//! not converge, or errored, stays marked). An idle star is not touched;
//! it is still reported, as converged with zero sessions, so a report
//! always carries one row per registered user.
//!
//! Reconciliation itself is the delta fast path of `gupster-sync`
//! ([`gupster_sync::delta_two_way_sync_traced`]): two hub-centred
//! rounds relay every device's edits to every other device, then each
//! replica's change log is **compacted** against its live peer anchors.
//! [`SyncPlane::use_oracle`] switches the same plane onto the naive
//! [`gupster_sync::two_way_sync_traced`] path — the experiment baseline
//! and the differential-test oracle.
//!
//! A committed reconcile is a profile **write**, and the registry holds
//! derived state that must not survive one: memoized PDP decisions,
//! cached referral tokens, stale-serve result caches. [`write_through`]
//! bumps the owner's write generation ([`Gupster::note_write`]), drops
//! the derived entries, and turns the changed paths into
//! [`ChangeEvent`]s for the push-fanout plane — post-sync reads never
//! see pre-write cache entries (asserted by
//! `tests/sync_differential.rs`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use gupster_store::ChangeEvent;
use gupster_sync::{
    compact_traced, delta_two_way_sync_traced, two_way_sync_traced, ReconcilePolicy, Replica,
    SyncReport,
};
use gupster_telemetry::TelemetryHub;
use gupster_xml::{EditOp, Element, MergeKeys, NodePath, XmlError};
use gupster_xpath::{LocStep, Path};

use crate::registry::Gupster;
use crate::shard::shard_index;

/// One user's replica star: the hub (primary copy) plus device
/// replicas.
#[derive(Debug, Clone)]
struct UserReplicas {
    owner: String,
    /// The component's root element name (e.g. `address-book`) —
    /// prefixed under `/user[@id='…']/` when changed paths are
    /// published registry-side.
    component: String,
    hub: Replica,
    devices: Vec<Replica>,
    /// Target paths of every edit accepted since the last reconcile,
    /// in arrival order — drained into [`UserOutcome::changed`].
    pending: Vec<NodePath>,
    /// Membership in the plane's dirty set: the next reconcile pass
    /// runs this star's sessions.
    dirty: bool,
}

impl UserReplicas {
    /// Records an accepted local edit: its target is pending
    /// publication and the star needs a reconcile.
    fn note_edit(&mut self, target: NodePath) {
        self.pending.push(target);
        self.dirty = true;
    }
}

/// Per-user outcome of one reconcile pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserOutcome {
    /// The profile owner.
    pub owner: String,
    /// Sync sessions run (2 rounds × devices; none for an idle star).
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
    /// [`ReconcilePolicy::Manual`].
    pub queued: usize,
    /// Sessions that fell back to a slow sync.
    pub slow_syncs: usize,
    /// Sessions that errored (component mismatch).
    pub errors: usize,
    /// Log entries removed by post-sync compaction (all replicas).
    pub compacted: usize,
    /// True when every device document equals the hub's after the pass
    /// (an idle star stays as its last pass left it: converged).
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
    /// Per-user outcomes, sorted by owner.
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
    /// Users whose replicas all converged.
    pub converged_users: usize,
}

impl PlaneReport {
    fn from_users(users: Vec<UserOutcome>) -> Self {
        let mut report = PlaneReport::default();
        for u in &users {
            report.sessions += u.sessions;
            report.bytes_exchanged += u.bytes_exchanged;
            report.compared += u.compared;
            report.conflicts += u.conflicts;
            report.slow_syncs += u.slow_syncs;
            report.shipped += u.shipped;
            report.compacted += u.compacted;
            report.converged_users += u.converged as usize;
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

impl From<XmlError> for EditError {
    fn from(e: XmlError) -> Self {
        EditError::Xml(e)
    }
}

/// The sharded reconciliation plane over every user's replica star.
#[derive(Debug)]
pub struct SyncPlane {
    shards: usize,
    users: BTreeMap<String, UserReplicas>,
    /// Conflict policy applied in every session.
    pub policy: ReconcilePolicy,
    /// When true, sessions run through the naive
    /// [`gupster_sync::two_way_sync_traced`] oracle (pairwise conflict
    /// scan, owned-path framing, no compaction) — the measured baseline
    /// for the delta path.
    pub use_oracle: bool,
}

impl SyncPlane {
    /// A plane over `shards` partitions (≥ 1).
    pub fn new(shards: usize, policy: ReconcilePolicy) -> Self {
        assert!(shards >= 1, "at least one shard");
        SyncPlane { shards, users: BTreeMap::new(), policy, use_oracle: false }
    }

    /// Number of shard partitions.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of users with replica stars.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Registers a user's component: a hub replica seeded with `doc`
    /// plus `device_count` device replicas holding the same baseline.
    pub fn add_user(&mut self, owner: &str, doc: Element, keys: MergeKeys, device_count: usize) {
        let component = doc.name.to_string();
        let hub = Replica::new(&format!("{owner}#hub"), doc.clone(), keys.clone());
        let devices = (0..device_count)
            .map(|i| Replica::new(&format!("{owner}#dev{i}"), doc.clone(), keys.clone()))
            .collect();
        self.users.insert(
            owner.to_string(),
            UserReplicas {
                owner: owner.to_string(),
                component,
                hub,
                devices,
                pending: Vec::new(),
                dirty: false,
            },
        );
    }

    /// Applies a local edit on one of the user's device replicas.
    pub fn edit_device(&mut self, owner: &str, device: usize, op: EditOp) -> Result<u64, EditError> {
        let u = self.star(owner)?;
        let target = op.target().clone();
        let replica = u.devices.get_mut(device).ok_or_else(|| EditError::UnknownDevice {
            owner: owner.to_string(),
            device,
        })?;
        let seq = replica.edit(op)?;
        u.note_edit(target);
        Ok(seq)
    }

    /// Applies a local edit on the user's hub replica (a portal-side
    /// write).
    pub fn edit_hub(&mut self, owner: &str, op: EditOp) -> Result<u64, EditError> {
        let u = self.star(owner)?;
        let target = op.target().clone();
        let seq = u.hub.edit(op)?;
        u.note_edit(target);
        Ok(seq)
    }

    fn star(&mut self, owner: &str) -> Result<&mut UserReplicas, EditError> {
        self.users.get_mut(owner).ok_or_else(|| EditError::UnknownOwner(owner.to_string()))
    }

    /// The hub document of a user (for assertions and reads).
    pub fn hub_doc(&self, owner: &str) -> &Element {
        &self.users[owner].hub.doc
    }

    /// A device document of a user.
    pub fn device_doc(&self, owner: &str, device: usize) -> &Element {
        &self.users[owner].devices[device].doc
    }

    /// Total retained change-log entries across every replica —
    /// compaction's effect is visible here.
    pub fn log_entries(&self) -> usize {
        self.users
            .values()
            .map(|u| u.hub.log.len() + u.devices.iter().map(|d| d.log.len()).sum::<usize>())
            .sum()
    }

    /// Runs one reconcile pass over the dirty stars: every shard's in
    /// parallel, two hub-centred rounds each, then per-replica log
    /// compaction (delta mode only). Idle stars get their converged,
    /// zero-session row without being visited. The returned report has
    /// one row per user, sorted by owner, and is byte-identical at any
    /// shard count.
    pub fn reconcile(&mut self, telemetry: &Arc<TelemetryHub>) -> PlaneReport {
        let shards = self.shards;
        let policy = self.policy;
        let oracle = self.use_oracle;
        // `users` iterates in owner order, so the rows are born sorted;
        // a dirty star's row is replaced by its pass's outcome.
        let mut rows: Vec<UserOutcome> = Vec::with_capacity(self.users.len());
        let mut buckets: Vec<Vec<(usize, &mut UserReplicas)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (row, u) in self.users.values_mut().enumerate() {
            rows.push(UserOutcome { owner: u.owner.clone(), converged: true, ..Default::default() });
            if u.dirty {
                buckets[shard_index(&u.owner, shards)].push((row, u));
            }
        }
        let per_shard: Vec<Vec<(usize, UserOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .filter(|bucket| !bucket.is_empty())
                .map(|bucket| {
                    scope.spawn(move || {
                        bucket
                            .into_iter()
                            .map(|(row, u)| (row, reconcile_user(u, policy, oracle, telemetry)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("sync shard worker panicked")).collect()
        });
        for (row, outcome) in per_shard.into_iter().flatten() {
            rows[row] = outcome;
        }
        PlaneReport::from_users(rows)
    }
}

/// Reconciles one dirty star: two rounds of hub↔device sessions (the
/// hub is the *first* replica, so [`ReconcilePolicy::PreferFirst`]
/// means "the primary copy wins"), then log compaction against live
/// anchors.
fn reconcile_user(
    u: &mut UserReplicas,
    policy: ReconcilePolicy,
    oracle: bool,
    telemetry: &Arc<TelemetryHub>,
) -> UserOutcome {
    let mut tracer = telemetry.tracer("sync.plane");
    let mut outcome = UserOutcome { owner: u.owner.clone(), ..Default::default() };
    for _round in 0..2 {
        for d in &mut u.devices {
            let result = if oracle {
                two_way_sync_traced(&mut u.hub, d, policy, &mut tracer)
            } else {
                delta_two_way_sync_traced(&mut u.hub, d, policy, &mut tracer)
            };
            match result {
                Ok(r) => outcome.absorb(&r),
                Err(_) => outcome.errors += 1,
            }
        }
    }
    outcome.converged = u.devices.iter().all(|d| d.doc == u.hub.doc);
    // Unfinished business keeps the star in the dirty set.
    u.dirty = !outcome.converged || outcome.errors > 0;
    if !oracle {
        // The star topology makes compaction anchors exact: devices
        // sync only against the hub, so the hub's live anchors are
        // every device's last-seen, and each device's sole anchor is
        // the hub's last-seen of it.
        let hub_anchors: Vec<u64> =
            u.devices.iter().map(|d| d.anchors.last_seen(&u.hub.id)).collect();
        if !hub_anchors.is_empty() {
            outcome.compacted += compact_traced(&mut u.hub, &hub_anchors, &mut tracer).dropped();
        }
        for d in &mut u.devices {
            let anchor = u.hub.anchors.last_seen(&d.id);
            outcome.compacted += compact_traced(d, &[anchor], &mut tracer).dropped();
        }
        // `seen` only filters log entries, and no log holds one now;
        // every later entry carries a fresh `(actor, ts)`, since an
        // actor's Lamport clock only grows. So the dedup sets have
        // nothing left to guard, and clearing them bounds each by the
        // edits since the star's last fully compacted pass.
        if u.hub.log.is_empty() && u.devices.iter().all(|d| d.log.is_empty()) {
            u.hub.seen.clear();
            u.devices.iter_mut().for_each(|d| d.seen.clear());
        }
    }
    for p in u.pending.drain(..) {
        let registry = registry_path(&u.owner, &u.component, &p);
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
    let mut steps =
        vec![LocStep::child("user").with_attr_eq("id", owner), LocStep::child(component)];
    steps.extend(p.steps.iter().map(|step| LocStep::child(step.name.as_str())));
    Path { steps }
}

/// Commits a reconcile pass against the registry: every touched owner's
/// write generation is bumped and their derived registry state (PDP
/// memo, referral-token cache) dropped via [`Gupster::note_write`], and
/// the changed paths come back as [`ChangeEvent`]s — feed them to
/// [`crate::ShardedFanout::stage_events`] (push subscribers) and to
/// [`crate::cache::CachedClient::note_write`] /
/// [`crate::ResilientExecutor::note_write`] (result + stale caches).
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

    /// Marks every star, as the pass did before the dirty set existed.
    fn mark_all(plane: &mut SyncPlane) {
        plane.users.values_mut().for_each(|u| u.dirty = true);
    }

    #[test]
    fn a_pass_runs_sessions_for_edited_stars_only() {
        const USERS: usize = 6;
        for oracle in [false, true] {
            let mut reports = Vec::new();
            for shards in [1, 2, 8] {
                let hub = Arc::new(TelemetryHub::new());
                let mut lazy = plane(shards, USERS, 2);
                lazy.use_oracle = oracle;
                let mut full_scan = plane(shards, USERS, 2);
                full_scan.use_oracle = oracle;

                // Nothing edited: nothing runs, everyone is reported.
                let idle = lazy.reconcile(&hub);
                assert_eq!((idle.users.len(), idle.converged_users, idle.sessions), (USERS, USERS, 0));

                lazy.edit_device("user3", 0, set_name("edited")).unwrap();
                full_scan.edit_device("user3", 0, set_name("edited")).unwrap();
                let report = lazy.reconcile(&hub);
                mark_all(&mut full_scan);
                let control = full_scan.reconcile(&hub);

                assert_eq!((report.users.len(), report.converged_users), (USERS, USERS));
                assert_eq!(report.sessions, 4, "2 rounds x 2 devices of the one edited star");
                assert_eq!(control.sessions, 4 * USERS);
                for (i, (u, c)) in report.users.iter().zip(&control.users).enumerate() {
                    assert_eq!(u.owner, format!("user{i}"));
                    assert_eq!(u.sessions, if i == 3 { 4 } else { 0 }, "{}", u.owner);
                    assert!(u.converged && u.errors == 0, "{}", u.owner);
                    assert_eq!(u.changed, c.changed, "{}", u.owner);
                    assert_eq!(lazy.hub_doc(&u.owner), full_scan.hub_doc(&u.owner));
                    for d in 0..2 {
                        assert_eq!(lazy.device_doc(&u.owner, d), full_scan.device_doc(&u.owner, d));
                    }
                }
                assert_eq!(report.users[3], control.users[3]);
                assert_eq!(lazy.log_entries(), full_scan.log_entries());
                reports.push(report.users);
            }
            assert_eq!(reports[0], reports[1], "1 vs 2 shards (oracle: {oracle})");
            assert_eq!(reports[0], reports[2], "1 vs 8 shards (oracle: {oracle})");
        }
    }

    #[test]
    fn an_unfinished_star_is_revisited_until_it_settles() {
        let hub = Arc::new(TelemetryHub::new());
        let mut plane = plane(2, 3, 2);
        // A device that no longer holds the hub's component: its
        // sessions error, so the star cannot converge.
        plane.users.get_mut("user1").unwrap().devices[0].doc.name = "calendar".into();
        plane.edit_hub("user1", insert_item("2")).unwrap();
        let first = plane.reconcile(&hub);
        assert_eq!((first.users[1].errors, first.users[1].converged), (2, false));
        assert_eq!(first.users[1].changed.len(), 1);
        assert_eq!(first.converged_users, 2);

        // No new edit, yet it comes round again; the idle stars do not.
        let second = plane.reconcile(&hub);
        assert_eq!((second.users[1].errors, second.users[1].sessions), (2, 2));
        assert_eq!(second.sessions, 2);
        assert!(second.users[1].changed.is_empty(), "changed paths are published once");

        // Once the cause is gone the star settles and drops out.
        plane.users.get_mut("user1").unwrap().devices[0].doc.name = "address-book".into();
        let third = plane.reconcile(&hub);
        assert_eq!((third.users[1].errors, third.converged_users), (0, 3));
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

    #[test]
    fn oracle_mode_matches_delta_outcomes() {
        let run = |oracle: bool| {
            let hub = Arc::new(TelemetryHub::new());
            let mut plane = plane(2, 4, 2);
            plane.use_oracle = oracle;
            for i in 0..4 {
                let owner = format!("user{i}");
                plane.edit_device(&owner, 0, set_name("left")).unwrap();
                plane.edit_device(&owner, 1, set_name("right")).unwrap();
            }
            let report = plane.reconcile(&hub);
            let docs: Vec<Element> =
                (0..4).map(|i| plane.hub_doc(&format!("user{i}")).clone()).collect();
            (report, docs)
        };
        let (delta, delta_docs) = run(false);
        let (naive, naive_docs) = run(true);
        assert_eq!(delta_docs, naive_docs, "converged documents must be byte-identical");
        assert_eq!(delta.conflicts, naive.conflicts);
        assert_eq!(delta.converged_users, naive.converged_users);
        assert_eq!(delta.shipped, naive.shipped);
        assert!(delta.compared <= naive.compared);
        assert!(delta.bytes_exchanged <= naive.bytes_exchanged);
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

    /// `seen` pruning is invisible to sync and bounds the dedup sets. A
    /// seeded interleaving of hub and device edits and passes runs on a
    /// delta plane, which prunes, and on an oracle plane, which never
    /// compacts and so never prunes; one star is held unconverged for a
    /// while by a device that holds another component.
    #[test]
    fn seen_pruning_keeps_sync_exact_and_empties_settled_stars() {
        use gupster_rng::check::cases;
        use gupster_rng::Rng;

        const USERS: usize = 4;
        const DEVICES: usize = 3;
        const STUCK: &str = "user1";
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
        let rename = |id: String, text: String| EditOp::SetText {
            path: NodePath::root().keyed("item", "id", id).child("name", 0),
            text,
        };
        let seen_sets = |plane: &SyncPlane, owner: &str| {
            let u = &plane.users[owner];
            std::iter::once(&u.hub).chain(&u.devices).map(|r| r.seen.clone()).collect::<Vec<_>>()
        };
        cases(12, 0x5EE2, |r| {
            let hub = Arc::new(TelemetryHub::new());
            hub.set_span_limit(0);
            // Not last-writer-wins: a peer that rejoins after lagging
            // applies fewer (compacted) remote ops on the delta plane, so
            // its Lamport clock, and with it later tie-breaks, differs
            // from the oracle plane's with or without pruning.
            let mut delta = SyncPlane::new(2, ReconcilePolicy::PreferFirst);
            let mut oracle = SyncPlane::new(2, ReconcilePolicy::PreferFirst);
            oracle.use_oracle = true;
            for plane in [&mut delta, &mut oracle] {
                for u in 0..USERS {
                    plane.add_user(&format!("user{u}"), book(), keys(), DEVICES);
                }
                plane.users.get_mut(STUCK).unwrap().devices[0].doc.name = "calendar".into();
                plane.edit_device(STUCK, 0, rename("c0".into(), "unsynced".into())).unwrap();
            }
            let (mut settled, mut held, mut converged, mut serial) = (0, 0, 0, 0usize);
            for pass in 0..8 {
                if pass == 4 {
                    for plane in [&mut delta, &mut oracle] {
                        plane.users.get_mut(STUCK).unwrap().devices[0].doc.name =
                            "address-book".into();
                    }
                }
                // Concurrent writes collide only on identical targets and
                // only the hub deletes, so every session stays on the fast
                // path and both planes must agree exactly.
                for _ in 0..r.gen_range(0..30usize) {
                    serial += 1;
                    let owner = format!("user{}", r.gen_range(0..USERS));
                    let replica = r.gen_range(0..=DEVICES);
                    let op = match r.gen_range(0..6u32) {
                        0 => EditOp::Insert {
                            parent: NodePath::root(),
                            element: Element::new("item").with_attr("id", format!("n{serial}")),
                        },
                        1 if replica == DEVICES => EditOp::Delete {
                            path: NodePath::root()
                                .keyed("item", "id", format!("n{}", r.gen_range(0..serial))),
                        },
                        _ => rename(format!("c{}", r.gen_range(0..4u32)), format!("t{serial}")),
                    };
                    for plane in [&mut delta, &mut oracle] {
                        let _ = if replica == DEVICES {
                            plane.edit_hub(&owner, op.clone())
                        } else {
                            plane.edit_device(&owner, replica, op.clone())
                        };
                    }
                }
                let before = seen_sets(&delta, STUCK);
                let rd = delta.reconcile(&hub);
                let ro = oracle.reconcile(&hub);
                assert_eq!((rd.slow_syncs, ro.slow_syncs), (0, 0), "pass {pass}");
                converged = rd.converged_users;
                for (d, o) in rd.users.iter().zip(&ro.users) {
                    let owner = &d.owner;
                    assert_eq!(d.converged, o.converged, "pass {pass}: {owner}");
                    assert_eq!(delta.hub_doc(owner), oracle.hub_doc(owner), "pass {pass}: {owner}");
                    for dev in 0..DEVICES {
                        assert_eq!(
                            delta.device_doc(owner, dev),
                            oracle.device_doc(owner, dev),
                            "pass {pass}: {owner} dev{dev}"
                        );
                    }
                    let u = &delta.users[owner];
                    let replicas = || std::iter::once(&u.hub).chain(&u.devices);
                    if d.converged && replicas().all(|r| r.log.is_empty()) {
                        assert!(replicas().all(|r| r.seen.is_empty()), "pass {pass}: {owner}");
                        settled += 1;
                    }
                }
                let stuck = &delta.users[STUCK];
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
}
