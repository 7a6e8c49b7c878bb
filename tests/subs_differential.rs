//! Seeded differential suite for the inverted-index push fanout
//! (DESIGN.md §12): across random subscription populations — wildcard
//! scopes included — the trie-backed matcher must stay byte-identical
//! to `gupster-oracle`'s naive scan, the sharded plane must stage and flush
//! the same byte stream at 1, 2 and 8 shards, and a pushed notification
//! must never leak what the direct query path would refuse.

use gupster::core::{Gupster, GupsterError, ShardedFanout, StorePool};
use gupster::policy::{Effect, Purpose, WeekTime};
use gupster::schema::gup_schema;
use gupster::store::{ChangeEvent, DataStore, StoreId, UpdateOp, XmlStore};
use gupster::xml::parse;
use gupster::xpath::Path;
use gupster_oracle::NaiveFanout;
use gupster_rng::check::cases;
use gupster_rng::{Rng, StdRng};

const OWNERS: [&str; 5] = ["alice", "bob", "carol", "dave", "erin"];
const WATCHERS: [&str; 4] = ["walt", "wendy", "will", "wanda"];
const COMPONENTS: [&str; 3] = ["presence", "address-book", "devices"];
const RELATIONSHIPS: [&str; 4] = ["family", "boss", "co-worker", "third-party"];
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Deny-rule material for the leak differential. Scopes and conditions
/// are all schema-valid / parseable; conditions are evaluated under the
/// `Purpose::Query` context both at staging and on the direct lookup.
const DENY_SCOPES: [&str; 4] = ["/user/presence", "/user/address-book", "/user/devices", "/user"];
const DENY_CONDITIONS: [&str; 4] = [
    "true",
    "relationship='third-party'",
    "not relationship='family'",
    "relationship='co-worker' and time in Mon-Fri 09:00-18:00",
];

fn t() -> WeekTime {
    WeekTime::at(2, 11, 0)
}

/// Five owners, three registered components each, and a wide-open
/// permit rule — so every subscribe passes the shield and the policy
/// only becomes interesting once a test tightens it.
fn open_world() -> Gupster {
    let mut g = Gupster::new(gup_schema(), b"subs-diff");
    g.telemetry().set_span_limit(0);
    for owner in OWNERS {
        for comp in COMPONENTS {
            let path = Path::parse(&format!("/user/{comp}")).unwrap();
            g.register_component(owner, path, StoreId::new(format!("{owner}-{comp}")))
                .unwrap();
        }
        g.pap.provision(owner, "open", Effect::Permit, "/user", "true", 0).unwrap();
    }
    g
}

/// A random subscription scope. Wildcard scopes (`//comp`, `/user/*`)
/// land in the trie's fallback bucket; they are taken out by the owner
/// themselves so the shield decision does not depend on how a permit
/// rule's `covers` treats wildcard requests.
fn rand_scope(r: &mut StdRng) -> (Path, bool) {
    match r.gen_range(0..8) {
        0 => {
            let c = *r.pick(&COMPONENTS);
            (Path::parse(&format!("//{c}")).unwrap(), true)
        }
        1 => (Path::parse("/user/*").unwrap(), true),
        2 => (
            Path::parse(&format!("/user/address-book/item[@id='{}']", r.gen_range(0..4)))
                .unwrap(),
            false,
        ),
        3 => (Path::parse("/user/devices/device").unwrap(), false),
        _ => {
            let c = *r.pick(&COMPONENTS);
            (Path::parse(&format!("/user/{c}")).unwrap(), false)
        }
    }
}

/// A random change event. Paths are always schema-admissible so the
/// leak differential's direct lookups never fail as spurious; a small
/// slice uses `//…` shapes that leave the core fragment and force the
/// matcher onto its fallback scan.
fn rand_event(r: &mut StdRng, generation: u64) -> ChangeEvent {
    let user = if r.gen_range(0..10) == 0 {
        "mallory".to_string() // unknown to the registry: must match nothing
    } else {
        (*r.pick(&OWNERS)).to_string()
    };
    let path = match r.gen_range(0..10) {
        0 => Path::parse(&format!("//{}", *r.pick(&COMPONENTS))).unwrap(),
        1 => Path::parse(&format!("/user/address-book/item[@id='{}']", r.gen_range(0..4)))
            .unwrap(),
        2 => Path::parse("/user/devices/device").unwrap(),
        _ => Path::parse(&format!("/user/{}", *r.pick(&COMPONENTS))).unwrap(),
    };
    ChangeEvent { user, path, generation }
}

/// One store holding a profile for every owner and for `mallory`, with
/// every node a [`rand_event`] path can name — so writing an event's
/// path there emits that same event.
fn profile_pool() -> StorePool {
    let mut store = XmlStore::new("profiles");
    for user in OWNERS.iter().chain(&["mallory"]) {
        let xml = format!(
            r#"<user id="{user}"><presence>on</presence><address-book><item id="0"/><item id="1"/><item id="2"/><item id="3"/></address-book><devices><device/></devices></user>"#
        );
        store.put_profile(parse(&xml).unwrap()).unwrap();
    }
    store.drain_events();
    let mut pool = StorePool::new();
    pool.add(Box::new(store));
    pool
}

/// Subscribes a random population into `targets` (same sequence into
/// each), returning the ids that were accepted and copying each into
/// `naive`. Shield verdicts depend only on policy state, so acceptance
/// — and with it the shared id sequence — is identical across planes.
fn subscribe_population(
    r: &mut StdRng,
    g: &mut Gupster,
    mgr: &mut ShardedFanout,
    planes: &mut [ShardedFanout],
    naive: &mut NaiveFanout,
) -> Vec<u64> {
    let mut ids = Vec::new();
    for _ in 0..r.gen_range(5..40) {
        let owner = *r.pick(&OWNERS);
        let (scope, wildcard) = rand_scope(r);
        let subscriber = if wildcard { owner } else { *r.pick(&WATCHERS) };
        let direct = mgr.subscribe(g, owner, &scope, subscriber, t(), 0);
        for plane in planes.iter_mut() {
            let sharded = plane.subscribe(g, owner, &scope, subscriber, t(), 0);
            assert_eq!(
                direct.is_ok(),
                sharded.is_ok(),
                "shield verdict diverged between planes for {owner} {scope}"
            );
            if let (&Ok(a), &Ok(b)) = (&direct, &sharded) {
                assert_eq!(a, b, "id sequence diverged");
            }
        }
        if let Ok(id) = direct {
            naive.subscribe(id, owner, &scope, subscriber);
            ids.push(id);
        }
    }
    ids
}

#[test]
fn indexed_match_is_byte_identical_to_naive_scan() {
    cases(80, 0xFA11, |r| {
        let mut g = open_world();
        let mut mgr = ShardedFanout::new(1);
        let mut oracle = NaiveFanout::new();
        let mut ids = subscribe_population(r, &mut g, &mut mgr, &mut [], &mut oracle);
        for i in 0..r.gen_range(10..40) {
            // Churn: occasionally drop a live subscription so the
            // tombstone / rebuild machinery is exercised mid-stream.
            if !ids.is_empty() && r.gen_range(0..4) == 0 {
                let id = ids.swap_remove(r.gen_range(0..ids.len()));
                assert!(mgr.unsubscribe(id));
                assert!(oracle.unsubscribe(id));
            }
            let event = rand_event(r, i as u64);
            let indexed = mgr.on_event(&event);
            let naive = oracle.on_event(&event);
            assert_eq!(
                indexed.notifications, naive.notifications,
                "event {} on {} diverged over {} subscriptions",
                event.path, event.user, mgr.len()
            );
            assert!(
                indexed.examined <= naive.examined,
                "index examined {} candidates, naive scan only {}",
                indexed.examined,
                naive.examined
            );
        }
    });
}

#[test]
fn sharded_staging_is_shard_count_invariant() {
    cases(50, 0x5AAD, |r| {
        let mut g = open_world();
        let mut mgr = ShardedFanout::new(1);
        let mut planes: Vec<ShardedFanout> =
            SHARD_COUNTS.iter().map(|&s| ShardedFanout::new(s)).collect();
        subscribe_population(r, &mut g, &mut mgr, &mut planes, &mut NaiveFanout::new());

        let events: Vec<ChangeEvent> =
            (0..r.gen_range(5..30)).map(|i| rand_event(r, i as u64)).collect();
        let reference_outcome = mgr.stage_events(&g, &events, t());
        let reference_pending = mgr.pending().to_vec();
        let reference_batches = mgr.flush_window(&g);
        for (plane, &shards) in planes.iter_mut().zip(&SHARD_COUNTS) {
            let outcome = plane.stage_events(&g, &events, t());
            assert_eq!(outcome, reference_outcome, "window outcome diverged at {shards} shards");
            assert_eq!(
                plane.pending(),
                &reference_pending[..],
                "staged order diverged at {shards} shards"
            );
            let batches = plane.flush_window(&g);
            assert_eq!(batches, reference_batches, "delivery diverged at {shards} shards");
            assert_eq!(plane.pending_len(), 0);
        }
    });
}

#[test]
fn unsubscribe_mid_window_is_dropped_on_every_plane() {
    cases(40, 0xD1E, |r| {
        let mut g = open_world();
        let mut mgr = ShardedFanout::new(1);
        let mut planes: Vec<ShardedFanout> =
            SHARD_COUNTS.iter().map(|&s| ShardedFanout::new(s)).collect();
        subscribe_population(r, &mut g, &mut mgr, &mut planes, &mut NaiveFanout::new());

        let events: Vec<ChangeEvent> =
            (0..r.gen_range(5..25)).map(|i| rand_event(r, i as u64)).collect();
        mgr.stage_events(&g, &events, t());
        for plane in &mut planes {
            plane.stage_events(&g, &events, t());
        }
        // Cancel a subscription that actually has queued notifications
        // (when any does) between staging and flush.
        let Some(victim) = mgr.pending().first().map(|n| n.subscription_id) else {
            return; // nothing staged this case; generator rolled all misses
        };
        assert!(mgr.unsubscribe(victim));
        let reference = mgr.flush_window(&g);
        assert!(
            reference.iter().all(|b| b.notifications.iter().all(|n| n.subscription_id != victim)),
            "unsubscribed id {victim} still delivered"
        );
        for (plane, &shards) in planes.iter_mut().zip(&SHARD_COUNTS) {
            assert!(plane.unsubscribe(victim), "id {victim} unknown at {shards} shards");
            assert_eq!(
                plane.flush_window(&g),
                reference,
                "post-unsubscribe delivery diverged at {shards} shards"
            );
        }
    });
}

/// The policy-leak differential: tighten the shield *after*
/// subscriptions exist, stage a window — from store writes through
/// `stage_window` or from a replayed stream through `stage_events` —
/// and check both directions: every delivered notification would also
/// be permitted on the direct query path, and every suppressed one is
/// refused there.
// The explicit deref on `Rng::pick` below is load-bearing: without it
// the item type infers as unsized `str` and the call fails to compile.
#[allow(clippy::explicit_auto_deref)]
#[test]
fn push_delivers_exactly_what_a_direct_query_permits() {
    cases(50, 0x1EAC, |r| {
        let mut g = open_world();
        let mut plane = ShardedFanout::new(*r.pick(&SHARD_COUNTS));
        let mut mgr = ShardedFanout::new(1);
        subscribe_population(r, &mut g, &mut mgr, std::slice::from_mut(&mut plane), &mut NaiveFanout::new());

        // Tighten: random relationships, withdrawn open permits, then
        // high-priority deny rules layered over the open permits that
        // remain (generation bumps flush memos).
        for owner in OWNERS {
            for watcher in WATCHERS {
                if r.gen_bool(0.5) {
                    g.set_relationship(owner, watcher, *r.pick(&RELATIONSHIPS));
                }
            }
            if r.gen_bool(0.2) {
                assert!(g.pap.withdraw(owner, "open"));
            }
            for (j, scope) in DENY_SCOPES.iter().enumerate() {
                if r.gen_bool(0.3) {
                    let cond = *r.pick(&DENY_CONDITIONS);
                    g.pap.provision(owner, &format!("lock{j}"), Effect::Deny, scope, cond, 5)
                        .unwrap();
                }
            }
        }

        let events: Vec<ChangeEvent> =
            (0..r.gen_range(5..25)).map(|i| rand_event(r, i as u64)).collect();
        let outcome = if r.gen_bool(0.5) {
            let mut pool = profile_pool();
            for e in &events {
                let op = UpdateOp::SetAttr(e.path.clone(), "rev".into(), e.generation.to_string());
                pool.update(&StoreId::new("profiles"), &e.user, &op).unwrap();
            }
            let staged = plane.stage_window(&g, &mut pool, t());
            let replayed = mgr.stage_events(&g, &events, t());
            assert_eq!(staged, replayed, "store-emitted window diverged from the replayed stream");
            staged
        } else {
            plane.stage_events(&g, &events, t())
        };
        let delivered = plane.flush_window(&g);

        for batch in &delivered {
            for n in &batch.notifications {
                let direct = g.lookup(&n.owner, &n.path, &n.subscriber, Purpose::Query, t(), 0);
                assert!(
                    !matches!(direct, Err(GupsterError::AccessDenied { .. })),
                    "push delivered {} of {} to {} but the direct query is refused",
                    n.path,
                    n.owner,
                    n.subscriber
                );
            }
        }
        for n in &outcome.suppressed {
            let direct = g.lookup(&n.owner, &n.path, &n.subscriber, Purpose::Query, t(), 0);
            assert!(
                matches!(direct, Err(GupsterError::AccessDenied { .. })),
                "push suppressed {} of {} to {} but the direct query answers: {direct:?}",
                n.path,
                n.owner,
                n.subscriber
            );
        }
    });
}
