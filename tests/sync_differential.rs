//! Seeded differential suite for the write path at scale (DESIGN.md
//! §13): across random edit storms the delta-encoded sync session must
//! stay byte-identical to the pairwise `two_way_sync` session under
//! every reconcile policy, the sharded sync plane must emit the same
//! outcome stream at 1, 2 and 8 shards and land on `gupster-oracle`'s
//! naive plane's documents, changelog compaction must preserve
//! replay for laggard peers, and a committed reconcile must never
//! leave a pre-write copy servable from any derived cache (decision
//! memo, referral tokens, result cache, stale cache).

mod common;

use std::sync::Arc;

use common::{book_request, fault_world, keys, p};
use gupster::core::patterns::PatternExecutor;
use gupster::core::{write_through, Gupster, ResilientExecutor, ShardedFanout, StorePool, SyncPlane};
use gupster::netsim::{FaultSchedule, SimTime};
use gupster::policy::{Purpose, WeekTime};
use gupster::sync::{delta_two_way_sync, two_way_sync, ReconcilePolicy, Replica};
use gupster::telemetry::TelemetryHub;
use gupster_oracle::NaivePlane;
use gupster::xml::{EditOp, Element, NodePath};
use gupster_rng::check::cases;
use gupster_rng::{Rng, StdRng};

const FOREVER: SimTime = SimTime(u64::MAX / 2);

const POLICIES: [ReconcilePolicy; 4] = [
    ReconcilePolicy::PreferFirst,
    ReconcilePolicy::PreferSecond,
    ReconcilePolicy::LastWriterWins,
    ReconcilePolicy::Manual,
];

/// An eight-item address book — the shared baseline every replica
/// starts from.
fn base_book() -> Element {
    let mut book = Element::new("address-book");
    for i in 0..8 {
        book.push_child(
            Element::new("item")
                .with_attr("id", format!("c{i:03}"))
                .with_child(Element::new("name").with_text(format!("Contact {i}"))),
        );
    }
    book
}

fn item(id: &str) -> NodePath {
    NodePath::root().keyed("item", "id", id)
}

fn set_name(id: &str, text: &str) -> EditOp {
    EditOp::SetText { path: item(id).child("name", 0), text: text.into() }
}

/// A random edit over the base book: mostly text writes (the profile
/// write mix), with inserts, deletes and attribute churn sprinkled in.
/// `serial` keeps inserted ids unique across replicas and rounds. Ops
/// may miss (e.g. a write to an item a previous op deleted) — callers
/// apply them with the error ignored, identically on every replica
/// under test, so a miss can never make two planes diverge.
fn rand_op(r: &mut StdRng, serial: usize) -> EditOp {
    let id = format!("c{:03}", r.gen_range(0..8usize));
    match r.gen_range(0..10u32) {
        0 => EditOp::Insert {
            parent: NodePath::root(),
            element: Element::new("item")
                .with_attr("id", format!("n{serial:04}"))
                .with_child(Element::new("name").with_text(format!("New {serial}"))),
        },
        1 => EditOp::Delete { path: item(&id) },
        2 => EditOp::SetAttr { path: item(&id), name: "note".into(), value: format!("v{serial}") },
        3 => EditOp::RemoveAttr { path: item(&id), name: "note".into() },
        _ => set_name(&id, &format!("t{serial}")),
    }
}

/// [`rand_op`] restricted to ops whose conflicts resolve on the fast
/// path. Two rules make that provable:
///
/// * no `Delete`/`RemoveAttr` — a relayed destructive op can miss on a
///   replica whose prerequisite write lost a conflict elsewhere, and a
///   miss falls back to a slow sync (which rebases both replicas and
///   clears their logs);
/// * concurrent writes only ever collide on an **identical** target
///   (`SetText`s on items c000–c003's names, `SetAttr note` on items
///   c004–c007), so the conflict winner's op lands on both sides and
///   overwrites the loser's state. Overlapping-but-distinct targets
///   (an item's attr vs its child's text) also count as conflicts, but
///   dropping the loser on the wire leaves its *local* write in place
///   — the session diverges and legitimately goes slow.
///
/// Storms that assert multi-round convergence and log-retention shapes
/// use this mix; the destructive mix is exercised by the pairwise
/// differential above, where slow syncs are part of the contract.
fn rand_op_fast(r: &mut StdRng, serial: usize) -> EditOp {
    match r.gen_range(0..8u32) {
        0 => EditOp::Insert {
            parent: NodePath::root(),
            element: Element::new("item")
                .with_attr("id", format!("n{serial:04}"))
                .with_child(Element::new("name").with_text(format!("New {serial}"))),
        },
        1 => EditOp::SetAttr {
            path: item(&format!("c{:03}", 4 + r.gen_range(0..4usize))),
            name: "note".into(),
            value: format!("v{serial}"),
        },
        _ => set_name(&format!("c{:03}", r.gen_range(0..4usize)), &format!("t{serial}")),
    }
}

/// Pairwise differential: under random concurrent edit storms the
/// delta session must produce byte-identical documents and the same
/// conflict accounting as the naive oracle, for every policy — while
/// never examining more pairs or shipping more bytes.
#[test]
fn delta_sessions_match_the_oracle_across_policies() {
    cases(24, 0xDE17A, |r| {
        for policy in POLICIES {
            let mut a = Replica::new("hub", base_book(), keys());
            let mut b = Replica::new("phone", base_book(), keys());
            let a_edits: usize = r.gen_range(1..40);
            let b_edits: usize = r.gen_range(1..40);
            for i in 0..a_edits {
                let _ = a.edit(rand_op(r, i));
            }
            for i in 0..b_edits {
                let _ = b.edit(rand_op(r, 1000 + i));
            }
            let (mut ad, mut bd) = (a.clone(), b.clone());
            let rd = delta_two_way_sync(&mut ad, &mut bd, policy).unwrap();
            let (mut ao, mut bo) = (a.clone(), b.clone());
            let ro = two_way_sync(&mut ao, &mut bo, policy).unwrap();
            assert_eq!(ad.doc, ao.doc, "{policy:?}: first replica diverged from the oracle");
            assert_eq!(bd.doc, bo.doc, "{policy:?}: second replica diverged from the oracle");
            assert_eq!(rd.converged, ro.converged, "{policy:?}");
            assert_eq!(rd.conflicts, ro.conflicts, "{policy:?}");
            assert_eq!(rd.first_wins, ro.first_wins, "{policy:?}");
            assert_eq!(rd.queued.len(), ro.queued.len(), "{policy:?}");
            assert_eq!(rd.shipped_to_first, ro.shipped_to_first, "{policy:?}");
            assert_eq!(rd.shipped_to_second, ro.shipped_to_second, "{policy:?}");
            assert_eq!(rd.slow_sync, ro.slow_sync, "{policy:?}");
            assert!(
                rd.compared <= ro.compared,
                "{policy:?}: delta examined {} pairs, oracle {}",
                rd.compared,
                ro.compared
            );
            assert!(
                rd.bytes_exchanged <= ro.bytes_exchanged,
                "{policy:?}: delta shipped {}B, oracle {}B",
                rd.bytes_exchanged,
                ro.bytes_exchanged
            );
        }
    });
}

/// Plane differential: the same random fleet storm reconciled at 1, 2
/// and 8 shards must emit an identical per-user outcome stream and
/// identical documents; the delta plane must land on the oracle
/// plane's documents while pruning comparisons, bytes and retained log
/// entries.
#[test]
fn plane_outcomes_are_shard_invariant_and_match_the_oracle() {
    cases(6, 0x51AC, |r| {
        const USERS: usize = 5;
        const DEVICES: usize = 3;
        let mut ops: Vec<(String, usize, EditOp)> = Vec::new();
        for serial in 0..120 {
            let owner = format!("user{}", r.gen_range(0..USERS));
            // replica == DEVICES addresses the hub (a portal-side write).
            let replica = r.gen_range(0..=DEVICES);
            ops.push((owner, replica, rand_op_fast(r, serial)));
        }
        let run = |shards: usize| {
            let hub = Arc::new(TelemetryHub::new());
            hub.set_span_limit(0);
            let mut plane = SyncPlane::new(shards, ReconcilePolicy::LastWriterWins);
            for u in 0..USERS {
                plane.add_user(&format!("user{u}"), base_book(), keys(), DEVICES);
            }
            for (owner, replica, op) in &ops {
                let _ = if *replica == DEVICES {
                    plane.edit_hub(owner, op.clone())
                } else {
                    plane.edit_device(owner, *replica, op.clone())
                };
            }
            let report = plane.reconcile(&hub);
            let docs: Vec<Element> =
                (0..USERS).map(|u| plane.hub_doc(&format!("user{u}")).clone()).collect();
            let retained = plane.log_entries();
            (report, docs, retained)
        };
        let (r1, d1, l1) = run(1);
        let (r2, d2, _) = run(2);
        let (r8, d8, _) = run(8);
        assert_eq!(r1.users, r2.users, "outcome stream differs at 1 vs 2 shards");
        assert_eq!(r1.users, r8.users, "outcome stream differs at 1 vs 8 shards");
        assert_eq!(d1, d2);
        assert_eq!(d1, d8);
        let (ro, docs_oracle, lo) = {
            let mut oracle = NaivePlane::new(ReconcilePolicy::LastWriterWins);
            for u in 0..USERS {
                oracle.add_user(&format!("user{u}"), base_book(), keys(), DEVICES);
            }
            for (owner, replica, op) in &ops {
                let _ = if *replica == DEVICES {
                    oracle.edit_hub(owner, op.clone())
                } else {
                    oracle.edit_device(owner, *replica, op.clone())
                };
            }
            let report = oracle.reconcile();
            let docs: Vec<Element> =
                (0..USERS).map(|u| oracle.hub_doc(&format!("user{u}")).clone()).collect();
            (report, docs, oracle.log_entries())
        };
        assert_eq!(d1, docs_oracle, "delta plane must converge to the oracle's documents");
        assert_eq!(r1.converged_users, USERS);
        assert_eq!(ro.converged_users, USERS);
        assert_eq!(r1.conflicts, ro.conflicts);
        assert_eq!(r1.shipped, ro.shipped);
        assert!(r1.compared <= ro.compared);
        assert!(r1.bytes_exchanged <= ro.bytes_exchanged);
        assert_eq!(r1.slow_syncs, 0, "the fast-path mix must never fall off the fast path");
        assert_eq!(ro.slow_syncs, 0);
        assert!(lo > 0, "the oracle never compacts");
        assert!(l1 < lo, "compaction must retain fewer entries ({l1}) than the oracle ({lo})");
    });
}

/// Compaction differential with a laggard: coalescing and annihilation
/// above a peer still anchored at 0 must leave a log whose replay
/// produces a byte-identical document on that peer, without forcing a
/// slow sync and without disturbing the up-to-date peer's fast path.
#[test]
fn compaction_preserves_replay_for_laggard_peers() {
    cases(12, 0xC0A7, |r| {
        let mut a = Replica::new("hub", base_book(), keys());
        let mut b = Replica::new("phone", base_book(), keys());
        let c = Replica::new("tablet", base_book(), keys());
        for i in 0..30 {
            let _ = a.edit(rand_op(r, i));
        }
        // Guaranteed compaction fodder regardless of the random mix: a
        // churned subtree (insert + delete annihilate along with any
        // edits inside it) and a hot path (superseded writes coalesce).
        a.edit(EditOp::Insert {
            parent: NodePath::root(),
            element: Element::new("item").with_attr("id", "tmp"),
        })
        .unwrap();
        a.edit(EditOp::SetAttr { path: item("tmp"), name: "note".into(), value: "x".into() })
            .unwrap();
        a.edit(EditOp::Delete { path: item("tmp") }).unwrap();
        for v in 0..5 {
            let _ = a.edit(set_name("c007", &format!("v{v}")));
        }
        // b catches up; c has never synced, so its view of a is 0.
        delta_two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        let control = a.clone();
        let anchors = [b.anchors.last_seen(&a.id), c.anchors.last_seen(&a.id)];
        assert_eq!(anchors[1], 0, "the laggard pins the truncation floor at 0");
        let stats = a.compact_log(&anchors);
        assert_eq!(stats.truncated, 0, "nothing is below a floor of 0");
        assert!(stats.dropped() > 0, "coalescing/annihilation must fire above the floor");
        assert!(a.log.len() < control.log.len());
        assert_eq!(a.doc, control.doc, "compaction must never touch the document");

        // The laggard replays the compacted log vs the uncompacted
        // control — byte-identical documents, no slow path, no extra
        // shipping.
        let (mut c_compacted, mut c_control) = (c.clone(), c);
        let mut control = control;
        let rc = delta_two_way_sync(&mut a, &mut c_compacted, ReconcilePolicy::LastWriterWins)
            .unwrap();
        let r_ctl =
            delta_two_way_sync(&mut control, &mut c_control, ReconcilePolicy::LastWriterWins)
                .unwrap();
        assert_eq!(c_compacted.doc, c_control.doc, "replay from the compacted log diverged");
        assert_eq!(a.doc, control.doc);
        assert!(rc.converged && r_ctl.converged);
        assert!(!rc.slow_sync, "compaction must not force the laggard onto the slow path");
        assert!(rc.shipped_to_second <= r_ctl.shipped_to_second);
        assert!(rc.bytes_exchanged <= r_ctl.bytes_exchanged);

        // The up-to-date peer's anchors survived compaction: the next
        // a↔b sync stays on the fast path.
        let _ = a.edit(set_name("c006", "after"));
        let rb = delta_two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
        assert!(rb.fast_path && !rb.slow_sync, "compaction broke a live peer's anchor");
        assert!(rb.converged);
    });
}

/// Write-through invalidation end to end: a committed reconcile bumps
/// the owner's write generation and drops every derived copy — the
/// PDP decision memo, the referral-token cache, the client result
/// cache and the registry's stale rung — and its change events reach
/// the push-fanout plane. Post-sync reads must never see pre-write
/// derived state; untouched owners keep theirs.
#[test]
fn write_through_drops_derived_state_everywhere() {
    let mut w = fault_world(11, 2, 2, b"sync-diff");
    w.gupster.enable_token_cache();
    let t = WeekTime::at(1, 10, 0);
    let merge = keys();

    // Warm alice's decision memo (second lookup is a memo hit).
    w.gupster.lookup("alice", &book_request(), "alice", Purpose::Query, t, 0).unwrap();
    let (_, hits_cold, _) = w.gupster.memo_stats();
    w.gupster.lookup("alice", &book_request(), "alice", Purpose::Query, t, 1).unwrap();
    let (len_warm, hits_warm, _) = w.gupster.memo_stats();
    assert!(hits_warm > hits_cold, "repeat lookup must hit the memo");
    assert!(len_warm > 0);

    // One reconcile of alice's replica star commits a profile write.
    let hub = Arc::new(TelemetryHub::new());
    let mut plane = SyncPlane::new(2, ReconcilePolicy::LastWriterWins);
    plane.add_user("alice", base_book(), merge.clone(), 2);
    plane.edit_device("alice", 0, set_name("c000", "moved")).unwrap();
    plane.edit_device("alice", 1, set_name("c001", "renamed")).unwrap();
    let report = plane.reconcile(&hub);
    assert_eq!(report.converged_users, 1);

    let events = write_through(&mut w.gupster, &report);
    assert!(!events.is_empty());
    assert_eq!(w.gupster.write_generation("alice"), 1);
    assert_eq!(w.gupster.write_generation("bob"), 0, "untouched owners keep generation 0");
    for e in &events {
        assert_eq!(e.user, "alice");
        assert_eq!(e.generation, 1);
        assert!(
            e.path.to_string().starts_with("/user[@id='alice']/address-book"),
            "event path {} must be registry-side under the owner",
            e.path
        );
    }
    let (len_after, _, misses_before) = w.gupster.memo_stats();
    assert!(len_after < len_warm, "alice's memoized decisions must drop");
    // The post-write lookup re-decides instead of reusing the memo.
    w.gupster.lookup("alice", &book_request(), "alice", Purpose::Query, t, 2).unwrap();
    let (_, _, misses_after) = w.gupster.memo_stats();
    assert!(misses_after > misses_before, "post-sync lookup must not reuse a pre-write decision");

    // Cached read: warm → hit → note_write drops it → forced miss.
    let changed = &report.users[0].changed;
    assert!(!changed.is_empty());
    let cached = |g: &mut Gupster, pool: &StorePool, now| {
        g.fetch_cached(pool, "alice", &book_request(), "alice", t, now, &merge, 1_000).unwrap()
    };
    let first = cached(&mut w.gupster, &w.pool, 10);
    cached(&mut w.gupster, &w.pool, 11);
    assert!(w.gupster.stale_answers().hits >= 1, "repeat fetch must hit the result cache");
    let views_before = w.gupster.stale_answers().invalidations;
    w.gupster.note_write("alice", changed);
    assert!(
        w.gupster.stale_answers().invalidations - views_before >= 1,
        "the cached book overlaps the changed paths"
    );
    let misses = w.gupster.telemetry().counter_snapshot().cache_misses;
    let refetched = cached(&mut w.gupster, &w.pool, 12);
    assert!(
        w.gupster.telemetry().counter_snapshot().cache_misses > misses,
        "post-write fetch must go back to the stores"
    );
    assert_eq!(refetched, first, "stores were not edited; only the cache was dropped");

    // Stale rung: once a committed write goes through the registry, an
    // all-dark fleet must fail the request rather than serve the
    // pre-write copy.
    let exec = PatternExecutor {
        net: &w.net,
        client: w.client,
        gupster_node: w.gupster_node,
        store_nodes: w.node_map.clone(),
    };
    let mut rex = ResilientExecutor::new(exec, 7);
    rex.fetch(&mut w.gupster, &w.pool, "alice", &book_request(), "alice", t, 20, &merge).unwrap();
    assert!(!w.gupster.stale_answers().is_empty(), "the fresh fetch must warm the stale cache");
    let before = w.gupster.stale_answers().invalidations;
    write_through(&mut w.gupster, &report);
    assert!(w.gupster.stale_answers().invalidations - before >= 1);
    let mut dark = FaultSchedule::new();
    for &node in &w.store_nodes {
        dark = dark.node_offline(node, SimTime::ZERO, FOREVER);
    }
    w.net.install_faults(dark);
    let starved =
        rex.fetch(&mut w.gupster, &w.pool, "alice", &book_request(), "alice", t, 30, &merge);
    assert!(starved.is_err(), "a pre-write stale copy must never be served after write_through");
    assert_eq!(w.gupster.telemetry().counter_snapshot().stale_serves, 0);

    // The same events drive the push-fanout plane: a permitted
    // subscriber sees the committed write.
    let mut mgr = ShardedFanout::new(1);
    mgr.subscribe(&mut w.gupster, "alice", &p("/user/address-book"), "alice", t, 40).unwrap();
    let outcome = mgr.stage_events(&w.gupster, &events, t);
    assert!(outcome.staged >= 1, "the committed write must reach push subscribers");
    assert!(outcome.suppressed.is_empty());
}

/// Chaos: five rounds of random fleet storms, reconciled each round.
/// The delta plane must match the oracle plane's documents after every
/// round while its logs truncate back to empty; the oracle's logs grow
/// without bound.
#[test]
fn chaos_storm_rounds_stay_converged_with_bounded_logs() {
    cases(3, 0xC405, |r| {
        const USERS: usize = 4;
        const DEVICES: usize = 3;
        let hub_d = Arc::new(TelemetryHub::new());
        hub_d.set_span_limit(0);
        let mut delta_plane = SyncPlane::new(4, ReconcilePolicy::LastWriterWins);
        let mut oracle_plane = NaivePlane::new(ReconcilePolicy::LastWriterWins);
        for u in 0..USERS {
            delta_plane.add_user(&format!("user{u}"), base_book(), keys(), DEVICES);
            oracle_plane.add_user(&format!("user{u}"), base_book(), keys(), DEVICES);
        }
        let mut serial = 0usize;
        let mut oracle_log_prev = 0usize;
        let mut total_compacted = 0usize;
        for round in 0..5 {
            for _ in 0..40 {
                let owner = format!("user{}", r.gen_range(0..USERS));
                let replica = r.gen_range(0..=DEVICES);
                let op = rand_op_fast(r, serial);
                serial += 1;
                if replica == DEVICES {
                    let _ = delta_plane.edit_hub(&owner, op.clone());
                    let _ = oracle_plane.edit_hub(&owner, op);
                } else {
                    let _ = delta_plane.edit_device(&owner, replica, op.clone());
                    let _ = oracle_plane.edit_device(&owner, replica, op);
                }
            }
            let rd = delta_plane.reconcile(&hub_d);
            let ro = oracle_plane.reconcile();
            assert_eq!(rd.converged_users, USERS, "round {round}: delta star did not converge");
            assert_eq!(ro.converged_users, USERS, "round {round}: oracle star did not converge");
            assert_eq!(rd.conflicts, ro.conflicts, "round {round}");
            assert!(rd.compared <= ro.compared, "round {round}");
            // The fast-path mix keeps every session off the slow
            // path, so the log-retention claims below are exact.
            assert_eq!(rd.slow_syncs, 0, "round {round}: delta fell off the fast path");
            assert_eq!(ro.slow_syncs, 0, "round {round}: oracle fell off the fast path");
            total_compacted += rd.compacted;
            for u in 0..USERS {
                let owner = format!("user{u}");
                assert_eq!(
                    delta_plane.hub_doc(&owner),
                    oracle_plane.hub_doc(&owner),
                    "round {round}: {owner} hub diverged from the oracle"
                );
                for d in 0..DEVICES {
                    assert_eq!(
                        delta_plane.device_doc(&owner, d),
                        delta_plane.hub_doc(&owner),
                        "round {round}: {owner} dev{d} did not converge"
                    );
                }
            }
            // Full convergence puts every anchor at the head, so the
            // delta plane's logs truncate to nothing while the
            // oracle's only ever grow.
            assert_eq!(delta_plane.log_entries(), 0, "round {round}: logs must compact away");
            let oracle_log = oracle_plane.log_entries();
            assert!(
                oracle_log > oracle_log_prev,
                "round {round}: oracle logs must grow without compaction"
            );
            oracle_log_prev = oracle_log;
        }
        assert!(total_compacted > 0, "the delta plane must have compacted real entries");
    });
}
