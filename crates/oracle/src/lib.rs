//! # gupster-oracle
//!
//! The reference implementations the tests and experiments check
//! GUPster's fast paths against (DESIGN.md, "Oracles"). Each one is
//! the plain algorithm its fast path replaced, built only from the
//! shipped crates' public API, so no oracle shares code with what it
//! checks:
//!
//! * [`naive_match`] — the coverage match as a scan of every
//!   registration, against the coverage trie;
//! * [`NaiveFanout`] — push matching as a scan of every subscription,
//!   against the fanout plane's inverted index;
//! * [`NaivePlane`] — replica stars reconciled through the pairwise
//!   [`two_way_sync`] session and never compacted, against the sync
//!   plane's delta sessions and compaction;
//! * [`select`] and [`select_strings`] — path selection over owned
//!   [`Element`] trees, against the arena selection every store read
//!   runs ([`Path::select_arena`]);
//! * [`select_node_paths`] — the same selection as
//!   [`NodePath`](gupster_xml::NodePath) addresses, which the store
//!   tests' owned-tree model edits through;
//! * [`merge_all`] — a left fold of the owned pairwise [`merge`],
//!   against the arena fold [`gupster_xml::merge_arena_all`].
//!
//! The crate is dev-only: no library crate may depend on it through a
//! normal dependency (CI checks this with `cargo tree`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod select;

use std::collections::BTreeMap;

use gupster_core::subs::{MatchOutcome, Notification};
use gupster_core::{CoverageMap, CoverageMatch, EditError, PlaneReport, UserOutcome};
use gupster_store::{ChangeEvent, StoreId};
use gupster_sync::{two_way_sync, ReconcilePolicy, Replica};
use gupster_xml::{merge, EditOp, Element, MergeKeys, XmlError};
use gupster_xpath::{covers, may_overlap, Path};

pub use select::{select, select_node_paths, select_strings};

/// Matches `request` against every registration of `map`, in entry
/// order and, within an entry, in store order: a registration that
/// covers the request is a full source asked for the request itself,
/// one that only overlaps it a partial source listed with its own
/// narrower path.
pub fn naive_match(map: &CoverageMap, request: &Path) -> CoverageMatch {
    let mut m = CoverageMatch::default();
    for (registered, stores) in map.entries() {
        let full = covers(registered, request);
        if !full && !may_overlap(registered, request) {
            continue;
        }
        for store in stores {
            let store = StoreId::clone(store);
            if full {
                m.full.push((store, request.clone()));
            } else {
                m.partial.push((store, Path::clone(registered)));
            }
        }
    }
    m
}

/// Merges a non-empty sequence of fragments left to right with the
/// owned pairwise [`merge`].
pub fn merge_all(parts: &[Element], keys: &MergeKeys) -> Result<Element, XmlError> {
    let (first, rest) = parts.split_first().ok_or_else(|| XmlError::MergeConflict {
        tag: String::new(),
        detail: "merge_all of zero fragments".into(),
    })?;
    let mut acc = first.clone();
    for p in rest {
        acc = merge(&acc, p, keys)?;
    }
    Ok(acc)
}

/// A copy of a fanout plane's subscriptions, matched by scanning every
/// one of them. The caller copies each subscribe and unsubscribe of the
/// plane it checks into it, with the id the plane issued.
#[derive(Debug, Default)]
pub struct NaiveFanout {
    /// Subscription id → (owner, subscriber, scope).
    subs: BTreeMap<u64, (String, String, Path)>,
}

impl NaiveFanout {
    /// An empty copy.
    pub fn new() -> Self {
        NaiveFanout::default()
    }

    /// Copies subscription `id`: `subscriber` watches `scope` of
    /// `owner`'s profile.
    pub fn subscribe(&mut self, id: u64, owner: &str, scope: &Path, subscriber: &str) {
        self.subs.insert(id, (owner.to_string(), subscriber.to_string(), scope.clone()));
    }

    /// Drops subscription `id`; false if it was not held.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.subs.remove(&id).is_some()
    }

    /// Every subscription of the event's owner whose scope overlaps the
    /// changed path, by ascending id. Every live subscription is
    /// examined.
    pub fn on_event(&self, event: &ChangeEvent) -> MatchOutcome {
        let notifications = self
            .subs
            .iter()
            .filter(|(_, (owner, _, scope))| *owner == event.user && may_overlap(scope, &event.path))
            .map(|(&id, (owner, subscriber, _))| Notification {
                subscription_id: id,
                subscriber: subscriber.clone(),
                owner: owner.clone(),
                path: event.path.clone(),
            })
            .collect();
        MatchOutcome { notifications, examined: self.subs.len(), indexed: false }
    }
}

/// One user's replica star: the hub and its devices.
#[derive(Debug)]
struct Star {
    hub: Replica,
    devices: Vec<Replica>,
    /// Edited, unconverged or erroring since the last pass.
    dirty: bool,
}

/// Replica stars reconciled the pairwise way: a pass runs each dirty
/// star through two hub-centred rounds of [`two_way_sync`] (every pair
/// of new ops compared, every shipped op framed with its full path,
/// both documents compared after each session) and never compacts a
/// log. Replica ids and the order of sessions are the sync plane's, so
/// the two planes reconcile identical histories.
#[derive(Debug)]
pub struct NaivePlane {
    policy: ReconcilePolicy,
    stars: BTreeMap<String, Star>,
}

impl NaivePlane {
    /// An empty plane reconciling under `policy`.
    pub fn new(policy: ReconcilePolicy) -> Self {
        NaivePlane { policy, stars: BTreeMap::new() }
    }

    /// Registers a user's component: a hub replica seeded with `doc`
    /// plus `device_count` device replicas holding the same baseline.
    pub fn add_user(&mut self, owner: &str, doc: Element, keys: MergeKeys, device_count: usize) {
        let replica = |id: String| Replica::new(&id, doc.clone(), keys.clone());
        let star = Star {
            hub: replica(format!("{owner}#hub")),
            devices: (0..device_count).map(|i| replica(format!("{owner}#dev{i}"))).collect(),
            dirty: false,
        };
        self.stars.insert(owner.to_string(), star);
    }

    /// Applies a local edit on one of the user's device replicas.
    pub fn edit_device(&mut self, owner: &str, device: usize, op: EditOp) -> Result<u64, EditError> {
        self.edit(owner, Some(device), op)
    }

    /// Applies a local edit on the user's hub replica.
    pub fn edit_hub(&mut self, owner: &str, op: EditOp) -> Result<u64, EditError> {
        self.edit(owner, None, op)
    }

    fn edit(&mut self, owner: &str, device: Option<usize>, op: EditOp) -> Result<u64, EditError> {
        let star =
            self.stars.get_mut(owner).ok_or_else(|| EditError::UnknownOwner(owner.to_string()))?;
        let replica = match device {
            None => &mut star.hub,
            Some(device) => star.devices.get_mut(device).ok_or_else(|| {
                EditError::UnknownDevice { owner: owner.to_string(), device }
            })?,
        };
        let seq = replica.edit(op).map_err(EditError::Xml)?;
        star.dirty = true;
        Ok(seq)
    }

    /// A device replica, for a test that stages a laggard (a device
    /// restored from a backup) or a device holding another component.
    pub fn device_mut(&mut self, owner: &str, device: usize) -> &mut Replica {
        &mut self.stars.get_mut(owner).expect("a registered owner").devices[device]
    }

    /// The hub document of a user.
    pub fn hub_doc(&self, owner: &str) -> &Element {
        &self.stars[owner].hub.doc
    }

    /// A device document of a user.
    pub fn device_doc(&self, owner: &str, device: usize) -> &Element {
        &self.stars[owner].devices[device].doc
    }

    /// Total change-log entries across every replica; nothing is ever
    /// compacted.
    pub fn log_entries(&self) -> usize {
        self.stars
            .values()
            .map(|s| s.hub.log.len() + s.devices.iter().map(|d| d.log.len()).sum::<usize>())
            .sum()
    }

    /// Runs one pass over the dirty stars, in owner order. The report
    /// has one row per star the pass ran; rows list no changed paths
    /// and no compaction.
    pub fn reconcile(&mut self) -> PlaneReport {
        let policy = self.policy;
        let mut report = PlaneReport { converged_users: self.stars.len(), ..PlaneReport::default() };
        for (owner, star) in self.stars.iter_mut().filter(|(_, star)| star.dirty) {
            let mut u = UserOutcome { owner: owner.clone(), ..UserOutcome::default() };
            for _round in 0..2 {
                for d in &mut star.devices {
                    match two_way_sync(&mut star.hub, d, policy) {
                        Ok(r) => {
                            u.sessions += 1;
                            u.bytes_exchanged += r.bytes_exchanged;
                            u.compared += r.compared;
                            u.conflicts += r.conflicts;
                            u.first_wins += r.first_wins;
                            u.shipped += r.shipped_to_first + r.shipped_to_second;
                            u.queued += r.queued.len();
                            u.slow_syncs += r.slow_sync as usize;
                        }
                        Err(_) => u.errors += 1,
                    }
                }
            }
            u.converged = star.devices.iter().all(|d| d.doc == star.hub.doc);
            star.dirty = !u.converged || u.errors > 0;
            report.sessions += u.sessions;
            report.bytes_exchanged += u.bytes_exchanged;
            report.compared += u.compared;
            report.conflicts += u.conflicts;
            report.slow_syncs += u.slow_syncs;
            report.shipped += u.shipped;
            report.converged_users -= !u.converged as usize;
            report.users.push(u);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xml::parse;

    #[test]
    fn merge_all_three_fragments() {
        let keys = MergeKeys::new().with_key("item", "id");
        let parts: Vec<_> = ["1", "2", "3"]
            .iter()
            .map(|i| parse(&format!(r#"<b><item id="{i}"/></b>"#)).unwrap())
            .collect();
        let m = merge_all(&parts, &keys).unwrap();
        assert_eq!(m.children_named("item").count(), 3);
        assert!(merge_all(&[], &keys).is_err());
    }
}
