//! Subscriptions: push vs. poll (§5.2), at fanout scale.
//!
//! "In the current architecture, GUPster is a reactive (pull-based) not
//! pro-active (push-based) system. It is always possible to push-enable
//! a pull-based system using polling, but this may not be very
//! efficient. In our case, every polling request needs to be checked to
//! enforce the end-user's privacy shield. Having the subscription
//! handled by GUPster internally would save this extra work."
//!
//! [`ShardedFanout`] implements the internal (push) variant: the shield
//! is checked at subscribe time, and then only when a store change
//! event actually matches — through a decision memo, so a repeat
//! delivery costs a memo hit, not a PDP evaluation. The polling variant
//! is a plain repeated lookup, which consults the shield every round
//! whether or not anything changed — experiment E10 quantifies the
//! difference.
//!
//! Three layers sit on top of that seed behaviour (DESIGN.md §12):
//!
//! - **Inverted subscription index.** Each owner's subscriptions are
//!   registered into a `CoverageTrie` keyed by the scope's path spine:
//!   step names interned in `gupster-xml`'s name table, predicate
//!   values kept as strings in the owner's trie (wildcard scopes land
//!   in the trie's always-scanned fallback bucket). A write walks the trie once and confirms only
//!   the pruned candidate set with [`may_overlap`] — instead of the
//!   naive scan over every subscription in the system, which is kept
//!   as [`ShardedFanout::on_event_naive`], the differential oracle.
//!   Scopes are compiled into the trie once at subscribe time.
//! - **Policy-filtered staging.** [`ShardedFanout::stage_window`]
//!   passes every matched notification through a [`Pep`] — the
//!   enforcement routine the lookup pipeline uses — with the
//!   *subscriber* as requester ([`Purpose::Query`]), so a push can
//!   never leak what the equivalent direct query would refuse. Staging
//!   is the only way into the delivery window.
//! - **Coalesced delivery windows.** Staged notifications accumulate
//!   until [`ShardedFanout::flush_window`], which collapses all
//!   notifications for one subscriber into one [`DeliveryBatch`]
//!   (one message pair on the wire) and drops duplicate payloads.
//!   `unsubscribe` purges its queued notifications from the pending
//!   window, so a cancelled subscription never delivers late.
//!
//! The plane keeps each shard's subscription index and policy filter in
//! the crate's owner-sharded executor (`crate::shard`): an event is
//! matched and filtered on its owner's shard. Ids come from one plane-wide
//! counter and the pending window keeps global event-arrival order, so
//! delivery is byte-identical at any shard count.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gupster_policy::pep::Pep;
use gupster_policy::{Purpose, WeekTime};
use gupster_store::ChangeEvent;
use gupster_telemetry::TelemetryHub;
use gupster_xpath::{may_overlap, Path};

use crate::client::StorePool;
use crate::error::GupsterError;
use crate::index::{CoverageTrie, TrieWalk};
use crate::registry::Gupster;
use crate::shard::Shards;

/// Decision-memo capacity of each shard's [`Pep`]. Sized for the hub
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
    /// [`flush_window`]: ShardedFanout::flush_window
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

impl Subscription {
    /// The notification subscription `id` owes for `event`.
    fn notify(&self, id: u64, event: &ChangeEvent) -> Notification {
        Notification {
            subscription_id: id,
            subscriber: self.subscriber.clone(),
            owner: self.owner.clone(),
            path: event.path.clone(),
        }
    }
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

/// One shard of the fanout plane: the subscriptions of the owners it
/// holds, their inverted indexes, and the policy filter's [`Pep`].
#[derive(Debug)]
struct FanoutShard {
    subs: HashMap<u64, Subscription>,
    owners: HashMap<String, OwnerIndex>,
    pep: Pep,
}

impl FanoutShard {
    fn new() -> Self {
        FanoutShard {
            subs: HashMap::new(),
            owners: HashMap::new(),
            pep: Pep::new(FANOUT_MEMO_CAPACITY),
        }
    }

    /// Drops subscription `id` from this shard's index, if it lives here.
    fn unsubscribe(&mut self, id: u64) -> bool {
        let Some(sub) = self.subs.remove(&id) else {
            return false;
        };
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

    /// [`ShardedFanout::on_event`], counting index hits and fallback
    /// scans on `hub` when one is attached.
    fn match_event(
        &self,
        event: &ChangeEvent,
        walk: &mut TrieWalk,
        hub: Option<&TelemetryHub>,
    ) -> MatchOutcome {
        let Some(ix) = self.owners.get(&event.user) else {
            return MatchOutcome { notifications: Vec::new(), examined: 0, indexed: true };
        };
        let mut notifications = Vec::new();
        let examined;
        let indexed = ix.trie.candidates(&event.path, walk);
        if indexed {
            examined = walk.candidates.len();
            // Candidate slots are sorted ascending = this owner's
            // subscribe order = ascending subscription id — the same
            // order the naive oracle emits.
            for &slot in &walk.candidates {
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
        MatchOutcome { notifications, examined, indexed }
    }

    fn confirm(&self, id: u64, event: &ChangeEvent, out: &mut Vec<Notification>) {
        let sub = &self.subs[&id];
        if may_overlap(&sub.path, &event.path) {
            out.push(sub.notify(id, event));
        }
    }

    /// The fanout policy filter: the subscriber's equivalent direct
    /// query (same context construction), enforced by this shard's
    /// [`Pep`] — so deliver ⇔ the direct query is not refused.
    fn permit(
        &mut self,
        gupster: &Gupster,
        n: &Notification,
        time: WeekTime,
        hub: &TelemetryHub,
    ) -> bool {
        let ctx = gupster.context(&n.owner, &n.subscriber, Purpose::Query, time);
        // The memo key shares the registry's copy of the owner id.
        let owner =
            gupster.owner_id(&n.owner).cloned().unwrap_or_else(|| Arc::from(n.owner.as_str()));
        let enforced = self.pep.enforce(&gupster.pap.repository, &owner, &n.path, &ctx);
        if enforced.memo_hit {
            hub.counters().memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        enforced.decision.allows_anything()
    }
}

/// GUPster's internal push plane. Owners hash-partition across shards
/// (each with its own subscription index and policy filter), ids come
/// from one plane-wide counter, and the pending window lives here in
/// global event-arrival order — so staging, filtering, and coalescing
/// are byte-identical at 1, 2, or 8 shards (asserted by
/// `tests/subs_differential.rs`).
#[derive(Debug)]
pub struct ShardedFanout {
    shards: Shards<FanoutShard>,
    /// Notifications staged for the current delivery window.
    pending: Vec<Notification>,
    next_id: u64,
    /// Notifications delivered by flushed windows.
    pub delivered: u64,
    /// The trie walk's buffers, reused by every staged event.
    walk: TrieWalk,
}

impl ShardedFanout {
    /// A fanout plane over `shards` partitions (≥ 1).
    pub fn new(shards: usize) -> Self {
        ShardedFanout {
            shards: Shards::new(shards, |_| FanoutShard::new()),
            pending: Vec::new(),
            next_id: 0,
            delivered: 0,
            walk: TrieWalk::default(),
        }
    }

    /// Subscribes to changes under `path` of `owner`'s profile. The
    /// lookup's schema filter, known-owner check and privacy shield are
    /// consulted once, with [`Purpose::Subscribe`] — owners can
    /// therefore write policies that allow queries but not standing
    /// subscriptions. No referral is built, so nothing is signed or
    /// recorded and `_now` stamps nothing. The scope's spine is
    /// compiled into the owner's trie on the owner's shard here, so
    /// matching never re-parses it. Ids are issued in ascending order.
    pub fn subscribe(
        &mut self,
        gupster: &mut Gupster,
        owner: &str,
        path: &Path,
        subscriber: &str,
        time: WeekTime,
        _now: u64,
    ) -> Result<u64, GupsterError> {
        // The lookup's schema, owner and shield checks; no referral.
        gupster.shield(owner, path, subscriber, Purpose::Subscribe, time, None)?;
        let id = self.next_id;
        self.next_id += 1;
        let shard = self.shards.get_mut(owner);
        shard.subs.insert(
            id,
            Subscription {
                owner: owner.to_string(),
                subscriber: subscriber.to_string(),
                path: path.clone(),
            },
        );
        shard.owners.entry(owner.to_string()).or_default().insert(path, id);
        Ok(id)
    }

    /// Cancels a subscription. Also drops any of its notifications
    /// still queued in the pending delivery window — an unsubscribe
    /// between staging and flush must not deliver late.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.pending.retain(|n| n.subscription_id != id);
        self.shards.parts_mut().iter_mut().any(|shard| shard.unsubscribe(id))
    }

    /// Number of active subscriptions.
    pub fn len(&self) -> usize {
        self.shards.parts().iter().map(|shard| shard.subs.len()).sum()
    }

    /// True when nobody is subscribed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decision-memo occupancy and counters summed over the shards'
    /// policy filters, like [`Gupster::memo_stats`]: every filtered
    /// notification is one hit or one miss (a PDP evaluation).
    pub fn memo_stats(&self) -> (usize, u64, u64) {
        self.shards.parts().iter().map(|shard| shard.pep.memo()).fold((0, 0, 0), |a, m| {
            (a.0 + m.len(), a.1 + m.hits, a.2 + m.misses)
        })
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

    /// Matches one change event through the inverted index on its
    /// owner's shard: walk the owner's trie once, confirm only the
    /// pruned candidates with [`may_overlap`]. Events whose path leaves
    /// the core fragment fall back to scanning that owner's live
    /// subscriptions (counted via `fallback_scans` when staging).
    pub fn on_event(&self, event: &ChangeEvent) -> MatchOutcome {
        self.shards.get(&event.user).match_event(event, &mut TrieWalk::default(), None)
    }

    /// The retained naive matcher — scans **every** subscription in
    /// the plane, like the pre-index matcher did, and reports matches by
    /// ascending id (= subscribe order). Kept as the differential
    /// oracle: its notification stream must be byte-identical to
    /// [`on_event`](Self::on_event).
    pub fn on_event_naive(&self, event: &ChangeEvent) -> MatchOutcome {
        let mut notifications: Vec<Notification> = self
            .shards
            .parts()
            .iter()
            .flat_map(|shard| &shard.subs)
            .filter(|(_, sub)| sub.owner == event.user && may_overlap(&sub.path, &event.path))
            .map(|(&id, sub)| sub.notify(id, event))
            .collect();
        notifications.sort_unstable_by_key(|n| n.subscription_id);
        MatchOutcome { notifications, examined: self.len(), indexed: false }
    }

    /// Stages one delivery window: drains change events, matches them
    /// through the index, and passes every candidate notification
    /// through the owner shard's [`Pep`] **with the subscriber as
    /// requester** before it may queue — a push never leaks what the
    /// equivalent direct query would refuse. Decisions are memoized per
    /// `(owner, subscriber-context, path)` and invalidated when the
    /// PAP generation moves.
    pub fn stage_window(
        &mut self,
        gupster: &Gupster,
        pool: &mut StorePool,
        time: WeekTime,
    ) -> WindowOutcome {
        self.stage(gupster, pool.drain_all_events().map(|(_store, event)| event), time)
    }

    /// [`stage_window`](Self::stage_window) over an already-drained
    /// event stream — replay and differential tests feed identical
    /// streams to planes at different shard counts through this.
    pub fn stage_events(
        &mut self,
        gupster: &Gupster,
        events: &[ChangeEvent],
        time: WeekTime,
    ) -> WindowOutcome {
        self.stage(gupster, events.iter(), time)
    }

    /// The one staging routine: each event is matched and
    /// policy-filtered on its owner's shard; permitted notifications
    /// append to the pending window in event-arrival order, refused
    /// ones are reported.
    fn stage(
        &mut self,
        gupster: &Gupster,
        events: impl Iterator<Item = impl Borrow<ChangeEvent>>,
        time: WeekTime,
    ) -> WindowOutcome {
        let hub = gupster.telemetry();
        let mut outcome = WindowOutcome::default();
        for event in events {
            let event = event.borrow();
            let shard = self.shards.get_mut(&event.user);
            for n in shard.match_event(event, &mut self.walk, Some(&hub)).notifications {
                if shard.permit(gupster, &n, time, &hub) {
                    self.pending.push(n);
                    outcome.staged += 1;
                } else {
                    outcome.suppressed.push(n);
                }
            }
        }
        outcome
    }

    /// Closes the delivery window: everything staged for one
    /// subscriber coalesces into one [`DeliveryBatch`] (one message
    /// pair on the wire), duplicate `(owner, path)` payloads dropped.
    /// Batches come out in subscriber first-appearance order;
    /// notifications keep their staging order within a batch.
    pub fn flush_window(&mut self, gupster: &Gupster) -> Vec<DeliveryBatch> {
        let raw = self.pending.len();
        let mut batches: Vec<DeliveryBatch> = Vec::new();
        let mut batch_of: HashMap<String, usize> = HashMap::new();
        for n in self.pending.drain(..) {
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
        let emitted: usize = batches.iter().map(|b| b.notifications.len()).sum();
        let hub = gupster.telemetry();
        let counters = hub.counters();
        counters.fanout_batched.fetch_add(batches.len() as u64, Ordering::Relaxed);
        counters.fanout_coalesced.fetch_add((raw - emitted) as u64, Ordering::Relaxed);
        self.delivered += emitted as u64;
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

    /// Stages and flushes one delivery window; returns what it delivered.
    fn deliver(subs: &mut ShardedFanout, g: &Gupster, pool: &mut StorePool) -> Vec<Notification> {
        subs.stage_window(g, pool, WeekTime::at(0, 9, 0));
        subs.flush_window(g).into_iter().flat_map(|b| b.notifications).collect()
    }

    #[test]
    fn push_deliveries_pass_the_memoized_shield() {
        let (mut g, mut pool) = world();
        let mut subs = ShardedFanout::new(1);
        let id = subs
            .subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", WeekTime::at(0, 9, 0), 0)
            .unwrap();
        // Two updates in two windows → two deliveries; the second one's
        // shield check is a memo hit, not a PDP evaluation.
        for value in ["busy", "away"] {
            pool.update(
                &StoreId::new("gup.spcs.com"),
                "alice",
                &UpdateOp::SetText(p("/user/presence"), value.into()),
            )
            .unwrap();
            let notes = deliver(&mut subs, &g, &mut pool);
            assert_eq!(notes.len(), 1);
            assert_eq!(notes[0].subscription_id, id);
        }
        assert_eq!(subs.delivered, 2);
        assert_eq!(g.telemetry().counter_snapshot().memo_hits, 1);
        assert_eq!(subs.memo_stats(), (1, 1, 1));
    }

    #[test]
    fn unrelated_changes_not_delivered() {
        let (mut g, mut pool) = world();
        let mut subs = ShardedFanout::new(1);
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
        assert!(deliver(&mut subs, &g, &mut pool).is_empty());
    }

    #[test]
    fn shield_gates_subscriptions() {
        let (mut g, _) = world();
        let mut subs = ShardedFanout::new(1);
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
    fn subscribing_checks_the_shield_but_mints_no_referral() {
        let (mut g, _) = world();
        let mut subs = ShardedFanout::new(1);
        let at = WeekTime::at(0, 9, 0);
        subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "alice", at, 0).unwrap();
        assert!(matches!(
            subs.subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "spy", at, 0),
            Err(GupsterError::AccessDenied { .. })
        ));
        assert!(matches!(
            subs.subscribe(&mut g, "ghost", &p("/user/presence"), "ghost", at, 0),
            Err(GupsterError::UnknownUser(_))
        ));
        assert!(matches!(
            subs.subscribe(&mut g, "alice", &p("/user/mp3-collection"), "alice", at, 0),
            Err(GupsterError::SpuriousQuery(_))
        ));
        assert_eq!(subs.len(), 1);
        // The lookup's checks ran, with their counters…
        assert_eq!((g.stats.denied, g.stats.uncovered, g.stats.spurious), (1, 1, 1));
        // …but no lookup, referral, token or disclosure record.
        assert_eq!((g.stats.lookups, g.stats.referrals), (0, 0));
        assert!(g.provenance.is_empty());
        assert_eq!(g.telemetry().counter_snapshot().lookups, 0);
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
        let mut subs = ShardedFanout::new(1);
        assert!(subs
            .subscribe(&mut g, "alice", &p("/user[@id='alice']/presence"), "rick", WeekTime::at(0, 9, 0), 0)
            .is_err());
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let (mut g, mut pool) = world();
        let mut subs = ShardedFanout::new(1);
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
        assert!(deliver(&mut subs, &g, &mut pool).is_empty());
    }

    #[test]
    fn unsubscribe_purges_pending_window() {
        let (mut g, mut pool) = world();
        let mut subs = ShardedFanout::new(1);
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
        assert_eq!(subs.pending().len(), 2);
        // The regression: unsubscribe mid-window must drop the queued
        // notification; flushing must deliver only the survivor.
        assert!(subs.unsubscribe(drop));
        assert_eq!(subs.pending().len(), 1);
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
        let mut subs = ShardedFanout::new(1);
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
        let mut subs = ShardedFanout::new(1);
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
        let mut subs = ShardedFanout::new(1);
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
