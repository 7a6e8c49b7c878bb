//! Subscriptions: push vs. poll (§5.2), at fanout scale.
//!
//! "In the current architecture, GUPster is a reactive (pull-based) not
//! pro-active (push-based) system. It is always possible to push-enable
//! a pull-based system using polling, but this may not be very
//! efficient. In our case, every polling request needs to be checked to
//! enforce the end-user's privacy shield. Having the subscription
//! handled by GUPster internally would save this extra work."
//!
//! [`SubscriptionManager`] implements the internal (push) variant: the
//! shield is checked **once** at subscribe time; store change events are
//! then forwarded to matching subscribers. The polling variant is a
//! plain repeated lookup, which pays the shield check every round —
//! experiment E10 quantifies the difference.
//!
//! Three layers sit on top of that seed behaviour (DESIGN.md §12):
//!
//! - **Inverted subscription index.** Each owner's subscriptions are
//!   registered into a [`CoverageTrie`] keyed by the scope's interned
//!   path spine (wildcard scopes land in the trie's always-scanned
//!   fallback bucket). A write walks the trie once and confirms only
//!   the pruned candidate set with [`may_overlap`] — instead of the
//!   naive scan over every subscription in the system, which is kept
//!   as [`SubscriptionManager::on_event_naive`], the differential
//!   oracle. Scopes are interned once at subscribe time; `pump` no
//!   longer clones the subscription list per cycle.
//! - **Policy-filtered staging.** [`SubscriptionManager::stage_window`]
//!   passes every matched notification through the PDP with the
//!   *subscriber* as requester ([`Purpose::Query`], memoized in a
//!   [`DecisionMemo`] invalidated by PAP generation bumps), so a push
//!   can never leak what the equivalent direct query would refuse.
//! - **Coalesced delivery windows.** Staged notifications accumulate
//!   until [`SubscriptionManager::flush_window`], which collapses all
//!   notifications for one subscriber into one [`DeliveryBatch`]
//!   (one message pair on the wire) and drops duplicate payloads.
//!   `unsubscribe` purges its queued notifications from the pending
//!   window, so a cancelled subscription never delivers late.
//!
//! [`ShardedFanout`] partitions owners across per-shard managers by
//! the same hash as [`crate::ShardedRegistry`]; ids come from a shared
//! counter and staged notifications keep global event-arrival order,
//! so delivery is byte-identical at any shard count.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

use gupster_netsim::SimTime;
use gupster_policy::{pep, DecisionMemo, MemoKey, Pdp, Purpose, WeekTime};
use gupster_store::ChangeEvent;
use gupster_telemetry::{stage, TelemetryHub};
use gupster_xpath::{may_overlap, Path};

use crate::client::StorePool;
use crate::error::GupsterError;
use crate::index::CoverageTrie;
use crate::registry::Gupster;
use crate::shard::shard_index;

/// Decision-memo capacity of the fanout filter. Sized for the hub
/// stress shape (100k+ watchers of one owner): each watcher's first
/// window misses once, later windows hit until the PAP generation
/// moves.
const FANOUT_MEMO_CAPACITY: usize = 1 << 17;

/// A delivered change notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// The subscription that fired.
    pub subscription_id: u64,
    /// The subscriber.
    pub subscriber: String,
    /// The profile owner whose data changed.
    pub owner: String,
    /// The changed path (as reported by the store).
    pub path: Path,
}

/// One subscriber's coalesced share of a delivery window: everything
/// destined for them collapses into one message pair over netsim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryBatch {
    /// The subscriber this batch is addressed to.
    pub subscriber: String,
    /// The notifications carried (duplicate payloads already dropped).
    pub notifications: Vec<Notification>,
}

/// The result of matching one change event against the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Matching notifications, in subscription-id order.
    pub notifications: Vec<Notification>,
    /// Candidate subscriptions examined: the trie's pruned candidate
    /// set, or the scan width on a fallback / naive pass.
    pub examined: usize,
    /// True when the event walked the trie (false: fallback scan, the
    /// event path left the core fragment — or the naive oracle ran).
    pub indexed: bool,
}

/// The result of staging one delivery window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowOutcome {
    /// Notifications queued for the next [`flush_window`]
    /// (policy-permitted matches).
    ///
    /// [`flush_window`]: SubscriptionManager::flush_window
    pub staged: usize,
    /// Matches the shield refused for the subscriber — never delivered.
    /// Returned so the policy-leak differential can assert each one is
    /// also refused on the direct query path.
    pub suppressed: Vec<Notification>,
}

#[derive(Debug, Clone)]
struct Subscription {
    owner: String,
    subscriber: String,
    path: Path,
}

/// One owner's inverted index: scope trie over slot numbers, plus the
/// slot → subscription-id table. Slots are append-only; `unsubscribe`
/// tombstones (the trie has no removal) and the whole index is rebuilt
/// once tombstones outnumber live entries.
#[derive(Debug, Default)]
struct OwnerIndex {
    trie: CoverageTrie,
    /// slot → subscription id; `u64::MAX` marks a tombstone.
    slots: Vec<u64>,
    slot_of: HashMap<u64, usize>,
    dead: usize,
}

impl OwnerIndex {
    fn insert(&mut self, path: &Path, id: u64) {
        let slot = self.slots.len();
        self.trie.insert(path, slot);
        self.slot_of.insert(id, slot);
        self.slots.push(id);
    }

    fn live(&self) -> usize {
        self.slots.len() - self.dead
    }
}

/// GUPster's internal subscription manager.
#[derive(Debug)]
pub struct SubscriptionManager {
    subs: HashMap<u64, Subscription>,
    /// Subscription ids in subscribe order — the naive oracle's scan
    /// order (and, per owner, the trie's slot order).
    order: Vec<u64>,
    owners: HashMap<String, OwnerIndex>,
    /// Notifications staged for the current delivery window.
    pending: Vec<Notification>,
    memo: DecisionMemo,
    pdp: Pdp,
    next_id: u64,
    /// Policy checks performed (once per subscribe).
    pub shield_checks: u64,
    /// Notifications delivered.
    pub delivered: u64,
}

impl Default for SubscriptionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SubscriptionManager {
    /// Empty manager.
    pub fn new() -> Self {
        SubscriptionManager {
            subs: HashMap::new(),
            order: Vec::new(),
            owners: HashMap::new(),
            pending: Vec::new(),
            memo: DecisionMemo::new(FANOUT_MEMO_CAPACITY),
            pdp: Pdp::new(),
            next_id: 0,
            shield_checks: 0,
            delivered: 0,
        }
    }

    /// Subscribes to changes under `path` of `owner`'s profile. The
    /// privacy shield is consulted once, with [`Purpose::Subscribe`] —
    /// owners can therefore write policies that allow queries but not
    /// standing subscriptions. The scope's spine is interned into the
    /// owner's trie here, so matching never re-parses it.
    pub fn subscribe(
        &mut self,
        gupster: &mut Gupster,
        owner: &str,
        path: &Path,
        subscriber: &str,
        time: WeekTime,
        now: u64,
    ) -> Result<u64, GupsterError> {
        let id = self.next_id;
        self.subscribe_with_id(gupster, owner, path, subscriber, time, now, id)?;
        self.next_id = id + 1;
        Ok(id)
    }

    /// [`subscribe`](Self::subscribe) with a caller-assigned id —
    /// [`ShardedFanout`] allocates ids from a shared counter so the id
    /// sequence is shard-count invariant.
    #[allow(clippy::too_many_arguments)]
    fn subscribe_with_id(
        &mut self,
        gupster: &mut Gupster,
        owner: &str,
        path: &Path,
        subscriber: &str,
        time: WeekTime,
        now: u64,
        id: u64,
    ) -> Result<u64, GupsterError> {
        self.shield_checks += 1;
        // Reuse the lookup pipeline for the shield + schema checks (the
        // referral itself is discarded; we only need the permission).
        gupster.lookup(owner, path, subscriber, Purpose::Subscribe, time, now)?;
        self.subs.insert(
            id,
            Subscription {
                owner: owner.to_string(),
                subscriber: subscriber.to_string(),
                path: path.clone(),
            },
        );
        self.order.push(id);
        self.owners.entry(owner.to_string()).or_default().insert(path, id);
        Ok(id)
    }

    /// Cancels a subscription. Also drops any of its notifications
    /// still queued in the pending delivery window — an unsubscribe
    /// between staging and flush must not deliver late.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        let Some(sub) = self.subs.remove(&id) else {
            return false;
        };
        self.order.retain(|&o| o != id);
        self.pending.retain(|n| n.subscription_id != id);
        let ix = self.owners.get_mut(&sub.owner).expect("owner indexed");
        if let Some(slot) = ix.slot_of.remove(&id) {
            ix.slots[slot] = u64::MAX;
            ix.dead += 1;
        }
        if ix.dead > ix.live() {
            // Rebuild in slot (= id) order so candidate ordering — and
            // with it the delivered byte stream — is unchanged.
            let live: Vec<u64> = ix.slots.iter().copied().filter(|&s| s != u64::MAX).collect();
            let mut fresh = OwnerIndex::default();
            for live_id in live {
                fresh.insert(&self.subs[&live_id].path, live_id);
            }
            if fresh.slots.is_empty() {
                self.owners.remove(&sub.owner);
            } else {
                *self.owners.get_mut(&sub.owner).expect("owner indexed") = fresh;
            }
        }
        true
    }

    /// Number of active subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when nobody is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Notifications staged and not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The staged, not-yet-flushed window, in arrival order — what
    /// per-notification (unbatched) delivery would send.
    pub fn pending(&self) -> &[Notification] {
        &self.pending
    }

    /// Decision-memo occupancy and hit/miss counts of the fanout
    /// policy filter.
    pub fn memo_stats(&self) -> (usize, u64, u64) {
        (self.memo.len(), self.memo.hits, self.memo.misses)
    }

    /// Matches one change event through the inverted index: walk the
    /// owner's trie once, confirm only the pruned candidates with
    /// [`may_overlap`]. Events whose path leaves the core fragment
    /// fall back to scanning that owner's live subscriptions (counted
    /// via `fallback_scans` when a hub is attached).
    pub fn on_event(&self, event: &ChangeEvent) -> MatchOutcome {
        self.match_event(event, None)
    }

    /// The retained naive matcher — scans **every** subscription in
    /// the system, like the pre-index `pump` did. Kept as the
    /// differential oracle: its notification stream must be
    /// byte-identical to [`on_event`](Self::on_event).
    pub fn on_event_naive(&self, event: &ChangeEvent) -> MatchOutcome {
        let mut notifications = Vec::new();
        for &id in &self.order {
            let sub = &self.subs[&id];
            if sub.owner == event.user && may_overlap(&sub.path, &event.path) {
                notifications.push(Notification {
                    subscription_id: id,
                    subscriber: sub.subscriber.clone(),
                    owner: sub.owner.clone(),
                    path: event.path.clone(),
                });
            }
        }
        MatchOutcome { notifications, examined: self.order.len(), indexed: false }
    }

    fn match_event(&self, event: &ChangeEvent, hub: Option<&TelemetryHub>) -> MatchOutcome {
        let Some(ix) = self.owners.get(&event.user) else {
            return MatchOutcome { notifications: Vec::new(), examined: 0, indexed: true };
        };
        let mut notifications = Vec::new();
        let mut candidates: Vec<usize> = Vec::new();
        let examined;
        let indexed = ix.trie.candidates(&event.path, &mut candidates);
        if indexed {
            examined = candidates.len();
            // Candidate slots are sorted ascending = this owner's
            // subscribe order = ascending subscription id — the same
            // order the naive oracle emits.
            for &slot in &candidates {
                let id = ix.slots[slot];
                if id == u64::MAX {
                    continue; // tombstoned by unsubscribe
                }
                self.confirm(id, event, &mut notifications);
            }
            if let Some(hub) = hub {
                hub.counters().index_hits.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            // Wildcard write path: scan this owner's live watchers.
            examined = ix.live();
            for &id in &ix.slots {
                if id == u64::MAX {
                    continue;
                }
                self.confirm(id, event, &mut notifications);
            }
            if let Some(hub) = hub {
                hub.counters().fallback_scans.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(hub) = hub {
            // 1µs for the walk plus 1µs per candidate confirmed.
            hub.record_stage(stage::SUBS_INDEX, SimTime::micros(1 + examined as u64));
        }
        MatchOutcome { notifications, examined, indexed }
    }

    fn confirm(&self, id: u64, event: &ChangeEvent, out: &mut Vec<Notification>) {
        let sub = &self.subs[&id];
        if may_overlap(&sub.path, &event.path) {
            out.push(Notification {
                subscription_id: id,
                subscriber: sub.subscriber.clone(),
                owner: sub.owner.clone(),
                path: event.path.clone(),
            });
        }
    }

    /// Drains change events from the stores and fans them out to
    /// matching subscriptions — the push path, now through the
    /// inverted index. No shield checks happen here; that's the §5.2
    /// saving (use [`stage_window`](Self::stage_window) for the
    /// policy-filtered variant).
    pub fn pump(&mut self, pool: &mut StorePool) -> Vec<Notification> {
        let mut out = Vec::new();
        for (_store, event) in pool.drain_all_events() {
            out.append(&mut self.match_event(&event, None).notifications);
        }
        self.delivered += out.len() as u64;
        out
    }

    /// [`pump`](Self::pump) through the naive linear matcher — the
    /// differential oracle for the whole drain-and-match cycle.
    pub fn pump_naive(&mut self, pool: &mut StorePool) -> Vec<Notification> {
        let mut out = Vec::new();
        for (_store, event) in pool.drain_all_events() {
            out.append(&mut self.on_event_naive(&event).notifications);
        }
        self.delivered += out.len() as u64;
        out
    }

    /// Stages one delivery window: drains change events, matches them
    /// through the index, and passes every candidate notification
    /// through the PDP **with the subscriber as requester** before it
    /// may queue — a push never leaks what the equivalent direct query
    /// would refuse. Decisions are memoized per
    /// `(owner, subscriber-context, path)` and invalidated when the
    /// PAP generation moves.
    pub fn stage_window(
        &mut self,
        gupster: &Gupster,
        pool: &mut StorePool,
        time: WeekTime,
    ) -> WindowOutcome {
        self.stage_own(gupster, pool.drain_all_events().map(|(_store, event)| event), time)
    }

    /// [`stage_window`](Self::stage_window) over an already-drained
    /// event stream — replay and differential tests feed identical
    /// streams to managers at different shard counts through this.
    pub fn stage_events(
        &mut self,
        gupster: &Gupster,
        events: &[ChangeEvent],
        time: WeekTime,
    ) -> WindowOutcome {
        self.stage_own(gupster, events.iter(), time)
    }

    /// Stages into this manager's own window: a lone manager is a
    /// one-shard plane.
    fn stage_own(
        &mut self,
        gupster: &Gupster,
        events: impl Iterator<Item = impl Borrow<ChangeEvent>>,
        time: WeekTime,
    ) -> WindowOutcome {
        let mut pending = std::mem::take(&mut self.pending);
        let outcome = stage(std::slice::from_mut(self), gupster, events, time, &mut pending);
        self.pending = pending;
        outcome
    }

    /// The fanout policy filter: exactly the decision the registry's
    /// lookup pipeline would render for the subscriber's equivalent
    /// direct query (same context construction, same PDP, memoized the
    /// same way) — so deliver ⇔ the direct query is not refused.
    fn permit(
        &mut self,
        gupster: &Gupster,
        n: &Notification,
        time: WeekTime,
        hub: &TelemetryHub,
    ) -> bool {
        let ctx = gupster.context(&n.owner, &n.subscriber, Purpose::Query, time);
        let generation = gupster.pap.repository.generation();
        let key = MemoKey::new(&n.owner, &ctx, &n.path);
        let decision = match self.memo.get(&key, generation) {
            Some(decision) => {
                hub.counters().memo_hits.fetch_add(1, Ordering::Relaxed);
                decision
            }
            None => {
                let decision = self.pdp.decide(&gupster.pap.repository, &n.owner, &n.path, &ctx);
                self.memo.put(key, generation, decision.clone());
                decision
            }
        };
        !matches!(pep::apply(decision, &n.path), pep::Enforcement::Refused)
    }

    /// Closes the delivery window: everything staged for one
    /// subscriber coalesces into one [`DeliveryBatch`] (one message
    /// pair on the wire), duplicate payloads dropped. Batches come out
    /// in subscriber first-appearance order; notifications keep their
    /// staging order within a batch.
    pub fn flush_window(&mut self, gupster: &Gupster) -> Vec<DeliveryBatch> {
        let hub = gupster.telemetry();
        let batches = coalesce(&mut self.pending, Some(&hub));
        self.delivered += batches.iter().map(|b| b.notifications.len() as u64).sum::<u64>();
        batches
    }
}

/// The one staging routine: each event routes to its owner's manager,
/// is matched through that manager's index, and every match is passed
/// through the policy filter — permitted notifications append to
/// `pending` in event-arrival order, refused ones are reported.
fn stage(
    managers: &mut [SubscriptionManager],
    gupster: &Gupster,
    events: impl Iterator<Item = impl Borrow<ChangeEvent>>,
    time: WeekTime,
    pending: &mut Vec<Notification>,
) -> WindowOutcome {
    let hub = gupster.telemetry();
    let mut outcome = WindowOutcome::default();
    for event in events {
        let event = event.borrow();
        let manager = &mut managers[shard_index(&event.user, managers.len())];
        for n in manager.match_event(event, Some(&hub)).notifications {
            if manager.permit(gupster, &n, time, &hub) {
                pending.push(n);
                outcome.staged += 1;
            } else {
                outcome.suppressed.push(n);
            }
        }
    }
    outcome
}

/// Collapses a pending window into per-subscriber batches, deduping
/// identical `(owner, path)` payloads within a batch. Shared between
/// [`SubscriptionManager`] and [`ShardedFanout`] so the sharded plane
/// coalesces byte-identically to the single manager.
fn coalesce(pending: &mut Vec<Notification>, hub: Option<&TelemetryHub>) -> Vec<DeliveryBatch> {
    let raw = pending.len();
    let mut batches: Vec<DeliveryBatch> = Vec::new();
    let mut batch_of: HashMap<String, usize> = HashMap::new();
    for n in pending.drain(..) {
        let slot = match batch_of.get(n.subscriber.as_str()) {
            Some(&slot) => slot,
            None => {
                batch_of.insert(n.subscriber.clone(), batches.len());
                batches.push(DeliveryBatch {
                    subscriber: n.subscriber.clone(),
                    notifications: Vec::new(),
                });
                batches.len() - 1
            }
        };
        let batch = &mut batches[slot];
        // Same payload already queued for this subscriber (two of
        // their subscriptions matched the same write, or the same
        // write repeated inside the window): deliver it once.
        if batch.notifications.iter().any(|q| q.owner == n.owner && q.path == n.path) {
            continue;
        }
        batch.notifications.push(n);
    }
    if let Some(hub) = hub {
        let emitted: usize = batches.iter().map(|b| b.notifications.len()).sum();
        let counters = hub.counters();
        counters.fanout_batched.fetch_add(batches.len() as u64, Ordering::Relaxed);
        counters.fanout_coalesced.fetch_add((raw - emitted) as u64, Ordering::Relaxed);
    }
    batches
}

/// The sharded fanout plane: owners hash-partition across per-shard
/// [`SubscriptionManager`]s with the same `shard_index` as
/// [`crate::ShardedRegistry`], ids come from one shared counter, and
/// the pending window lives here in global event-arrival order — so
/// staging, filtering, and coalescing are byte-identical at 1, 2, or
/// 8 shards (asserted by `tests/subs_differential.rs`).
#[derive(Debug)]
pub struct ShardedFanout {
    managers: Vec<SubscriptionManager>,
    pending: Vec<Notification>,
    next_id: u64,
    /// Notifications delivered across all flushed windows.
    pub delivered: u64,
}

impl ShardedFanout {
    /// A fanout plane over `shards` partitions (≥ 1).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        ShardedFanout {
            managers: (0..shards).map(|_| SubscriptionManager::new()).collect(),
            pending: Vec::new(),
            next_id: 0,
            delivered: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.managers.len()
    }

    /// Subscribes on the owner's shard; the id comes from the shared
    /// counter so it is shard-count invariant.
    pub fn subscribe(
        &mut self,
        gupster: &mut Gupster,
        owner: &str,
        path: &Path,
        subscriber: &str,
        time: WeekTime,
        now: u64,
    ) -> Result<u64, GupsterError> {
        let id = self.next_id;
        let shard = shard_index(owner, self.managers.len());
        self.managers[shard].subscribe_with_id(gupster, owner, path, subscriber, time, now, id)?;
        self.next_id = id + 1;
        Ok(id)
    }

    /// Cancels a subscription anywhere in the plane, dropping its
    /// queued notifications from the pending window.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.pending.retain(|n| n.subscription_id != id);
        self.managers.iter_mut().any(|m| m.unsubscribe(id))
    }

    /// Active subscriptions across all shards.
    pub fn len(&self) -> usize {
        self.managers.iter().map(SubscriptionManager::len).sum()
    }

    /// True when nobody is subscribed anywhere.
    pub fn is_empty(&self) -> bool {
        self.managers.iter().all(SubscriptionManager::is_empty)
    }

    /// Shield checks performed across all shards (once per subscribe).
    pub fn shield_checks(&self) -> u64 {
        self.managers.iter().map(|m| m.shield_checks).sum()
    }

    /// Notifications staged and not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The staged, not-yet-flushed window, in arrival order.
    pub fn pending(&self) -> &[Notification] {
        &self.pending
    }

    /// Stages one delivery window: each drained event routes to its
    /// owner's shard for matching and policy filtering; permitted
    /// notifications append to the plane-wide pending queue in global
    /// arrival order.
    pub fn stage_window(
        &mut self,
        gupster: &Gupster,
        pool: &mut StorePool,
        time: WeekTime,
    ) -> WindowOutcome {
        let events = pool.drain_all_events().map(|(_store, event)| event);
        stage(&mut self.managers, gupster, events, time, &mut self.pending)
    }

    /// [`stage_window`](Self::stage_window) over an already-drained
    /// event stream (see [`SubscriptionManager::stage_events`]).
    pub fn stage_events(
        &mut self,
        gupster: &Gupster,
        events: &[ChangeEvent],
        time: WeekTime,
    ) -> WindowOutcome {
        stage(&mut self.managers, gupster, events.iter(), time, &mut self.pending)
    }

    /// Closes the delivery window — same coalescing as
    /// [`SubscriptionManager::flush_window`], over the plane-wide
    /// queue.
    pub fn flush_window(&mut self, gupster: &Gupster) -> Vec<DeliveryBatch> {
        let hub = gupster.telemetry();
        let batches = coalesce(&mut self.pending, Some(&hub));
        self.delivered += batches.iter().map(|b| b.notifications.len() as u64).sum::<u64>();
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_policy::Effect;
    use gupster_schema::gup_schema;
    use gupster_store::{DataStore, StoreId, UpdateOp, XmlStore};
    use gupster_xml::parse;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn world() -> (Gupster, StorePool) {
        let mut g = Gupster::new(gup_schema(), b"k");
        let mut s = XmlStore::new("gup.spcs.com");
        s.put_profile(
            parse(r#"<user id="alice"><presence>online</presence><address-book/></user>"#)
                .unwrap(),
        )
        .unwrap();
        s.drain_events();
        g.register_component("alice", p("/user[@id='alice']/presence"), StoreId::new("gup.spcs.com"))
            .unwrap();
        g.register_component(
            "alice",
            p("/user[@id='alice']/address-book"),
            StoreId::new("gup.spcs.com"),
        )
        .unwrap();
        let mut pool = StorePool::new();
        pool.add(Box::new(s));
        (g, pool)
    }

    #[test]
    fn push_delivery_after_single_shield_check() {
        let (mut g, mut pool) = world();
        let mut subs = SubscriptionManager::new();
        let id = subs
            .subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        assert_eq!(subs.shield_checks, 1);
        // Two updates → two notifications, zero extra shield checks.
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "busy".into()),
        )
        .unwrap();
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "away".into()),
        )
        .unwrap();
        let notes = subs.pump(&mut pool);
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[0].subscription_id, id);
        assert_eq!(subs.shield_checks, 1);
        assert_eq!(subs.delivered, 2);
    }

    #[test]
    fn unrelated_changes_not_delivered() {
        let (mut g, mut pool) = world();
        let mut subs = SubscriptionManager::new();
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::InsertChild(
                p("/user/address-book"),
                parse(r#"<item id="1"><name>Bob</name></item>"#).unwrap(),
            ),
        )
        .unwrap();
        assert!(subs.pump(&mut pool).is_empty());
    }

    #[test]
    fn shield_gates_subscriptions() {
        let (mut g, _) = world();
        let mut subs = SubscriptionManager::new();
        let err = subs.subscribe(
            &mut g,
            "alice",
            &p("/user[@id='alice']/presence"),
            "spy",
            WeekTime::at(0, 9, 0),
            0,
        );
        assert!(err.is_err());
        assert!(subs.is_empty());
    }

    #[test]
    fn purpose_specific_policy_can_block_subscribe_but_allow_query() {
        let (mut g, _) = world();
        g.set_relationship("alice", "rick", "co-worker");
        g.pap.provision(
            "alice",
            "q-only",
            Effect::Permit,
            "/user/presence",
            "relationship='co-worker' and purpose='query'",
            0,
        )
        .unwrap();
        // Query succeeds…
        assert!(g
            .lookup(
                "alice",
                &p("/user[@id='alice']/presence"),
                "rick",
                Purpose::Query,
                WeekTime::at(0, 9, 0),
                0
            )
            .is_ok());
        // …but a standing subscription is refused.
        let mut subs = SubscriptionManager::new();
        assert!(subs
            .subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "rick", WeekTime::at(0, 9, 0), 0)
            .is_err());
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let (mut g, mut pool) = world();
        let mut subs = SubscriptionManager::new();
        let id = subs
            .subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        assert!(subs.unsubscribe(id));
        assert!(!subs.unsubscribe(id));
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "busy".into()),
        )
        .unwrap();
        assert!(subs.pump(&mut pool).is_empty());
    }

    #[test]
    fn unsubscribe_purges_pending_window() {
        let (mut g, mut pool) = world();
        let mut subs = SubscriptionManager::new();
        let keep = subs
            .subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        let drop = subs
            .subscribe(&mut g, "alice", &p("/user[@id='alice']"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "busy".into()),
        )
        .unwrap();
        let staged = subs.stage_window(&g, &mut pool, WeekTime::at(0, 9, 0));
        assert_eq!(staged.staged, 2);
        assert_eq!(subs.pending_len(), 2);
        // The regression: unsubscribe mid-window must drop the queued
        // notification; flushing must deliver only the survivor.
        assert!(subs.unsubscribe(drop));
        assert_eq!(subs.pending_len(), 1);
        let batches = subs.flush_window(&g);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].notifications.len(), 1);
        assert_eq!(batches[0].notifications[0].subscription_id, keep);
    }

    #[test]
    fn window_coalesces_per_subscriber_and_dedups_payloads() {
        let (mut g, mut pool) = world();
        g.set_relationship("alice", "bob", "family");
        g.pap.provision("alice", "fam", Effect::Permit, "/user", "relationship='family'", 0)
            .unwrap();
        let mut subs = SubscriptionManager::new();
        // Bob watches both the whole profile and presence: one write
        // matches twice but must deliver once.
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']"), "bob", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "bob", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "busy".into()),
        )
        .unwrap();
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "away".into()),
        )
        .unwrap();
        let staged = subs.stage_window(&g, &mut pool, WeekTime::at(0, 9, 0));
        assert_eq!(staged.staged, 6, "3 matches per write, all permitted");
        let batches = subs.flush_window(&g);
        // Two subscribers → two message pairs for six notifications.
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].subscriber, "bob");
        // Bob's double-match of the same write deduped; the two writes
        // share a path, so the whole window carries it once.
        assert_eq!(batches[0].notifications.len(), 1);
        assert_eq!(batches[1].subscriber, "alice");
        assert_eq!(batches[1].notifications.len(), 1);
        let snap = g.telemetry().counter_snapshot();
        assert_eq!(snap.fanout_batched, 2);
        assert_eq!(snap.fanout_coalesced, 4);
        assert!(snap.index_hits >= 2);
    }

    #[test]
    fn stage_window_filters_what_a_query_would_refuse() {
        let (mut g, mut pool) = world();
        g.set_relationship("alice", "rick", "co-worker");
        // Rick may subscribe and query now…
        g.pap.provision(
            "alice",
            "rick-ok",
            Effect::Permit,
            "/user/presence",
            "relationship='co-worker'",
            0,
        )
        .unwrap();
        let mut subs = SubscriptionManager::new();
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "rick", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        // …then alice tightens the shield: deny rick outright.
        g.pap.provision(
            "alice",
            "rick-blocked",
            Effect::Deny,
            "/user/presence",
            "relationship='co-worker'",
            1,
        )
        .unwrap();
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "busy".into()),
        )
        .unwrap();
        let staged = subs.stage_window(&g, &mut pool, WeekTime::at(0, 9, 0));
        assert_eq!(staged.staged, 0, "push must not leak past the tightened shield");
        assert_eq!(staged.suppressed.len(), 1);
        assert!(subs.flush_window(&g).is_empty());
        // The direct query agrees.
        assert!(g
            .lookup(
                "alice",
                &p("/user[@id='alice']/presence"),
                "rick",
                Purpose::Query,
                WeekTime::at(0, 9, 0),
                1
            )
            .is_err());
    }

    #[test]
    fn indexed_matches_naive_on_the_seed_world() {
        let (mut g, mut pool) = world();
        let mut subs = SubscriptionManager::new();
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        pool.update(
            &StoreId::new("gup.spcs.com"),
            "alice",
            &UpdateOp::SetText(p("/user/presence"), "busy".into()),
        )
        .unwrap();
        let events: Vec<ChangeEvent> =
            pool.drain_all_events().map(|(_, e)| e).collect();
        for e in &events {
            let fast = subs.on_event(e);
            let slow = subs.on_event_naive(e);
            assert_eq!(fast.notifications, slow.notifications);
            assert!(fast.indexed);
            assert!(fast.examined <= slow.examined);
        }
    }
}
