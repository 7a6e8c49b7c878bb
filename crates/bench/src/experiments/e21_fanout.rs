//! E21 — push fanout at scale: the inverted subscription index and
//! coalesced delivery windows (DESIGN.md §12).
//!
//! Two sections:
//!
//! 1. **Match sweep** — social-graph-shaped subscription sets (Zipf
//!    watcher counts over the owner population, including wildcard
//!    self-scopes in the trie's fallback bucket) at growing
//!    subscription counts. Every store write is matched through the
//!    inverted index *and* `gupster-oracle`'s [`NaiveFanout`], a naive
//!    scan over a copy of the same subscriptions; the notification
//!    streams are asserted byte-identical event by event before any
//!    number is reported. The rows count subscriptions examined: the
//!    naive matcher examines every subscription in the system, the
//!    index only the trie's pruned candidate set. The acceptance bar
//!    (≥10× fewer examined at every scale) is asserted in-run, with the
//!    measured wall ratio printed beside it.
//! 2. **Hub delivery** — one hub owner watched by 100k+ subscribers
//!    (quick mode shrinks the hub). A delivery window of several
//!    writes stages through the policy filter, then flushes as
//!    per-subscriber coalesced batches over netsim (one message pair
//!    per subscriber, duplicate payloads dropped) next to an unbatched
//!    plane that sends one pair per staged notification. Reports hub
//!    fanout latency, message pairs per staged notification, and the
//!    push-vs-poll message cost; coalesced < unbatched and the
//!    messages-per-notification ceiling are asserted in-run.
//!
//! Every row lands in `BENCH_subs.json`; CI re-runs the reduced sweep
//! (`experiments --quick e21`) and `bench_compare` requires it to
//! reproduce the checked-in file exactly. The hub row's `sim_` fields
//! come from netsim latencies; the `wall_` fields are informative only
//! and ignored by the gate.

use std::time::Instant;

use gupster_core::{Gupster, ShardedFanout, StorePool};
use gupster_netsim::{Domain, Journey, Network, NodeId, SimTime};
use gupster_oracle::NaiveFanout;
use gupster_policy::{Effect, WeekTime};
use gupster_rng::Rng;
use gupster_schema::gup_schema;
use gupster_store::{ChangeEvent, DataStore, StoreId, UpdateOp, XmlStore};
use gupster_xml::Element;
use gupster_xpath::Path;

use crate::benchjson::{self, Row};
use crate::table::{f2, print_table};
use crate::workload::{rng, social_watchers, user_id, Zipf};

/// Subscription counts swept in section A.
const SCALES_FULL: [usize; 3] = [1_000, 10_000, 100_000];
const SCALES_QUICK: [usize; 2] = [1_000, 10_000];
/// Owner population of section A (watchers spread over these).
const N_OWNERS: usize = 512;
/// Writes matched per scale in section A.
const EVENTS_FULL: usize = 1_024;
const EVENTS_QUICK: usize = 256;
/// Acceptance floor: naive over indexed subscriptions examined.
const EXAMINED_FLOOR: f64 = 10.0;
/// Hub watcher count in section B (the 100k+ social-overlay stress
/// shape; quick mode shrinks it but keeps the same window shape).
const HUB_FULL: usize = 120_000;
const HUB_QUICK: usize = 8_192;
/// Sender-side occupancy per message pair (serialization + syscall).
const SEND_PAIR_US: u64 = 2;
/// In-run ceiling on coalesced message pairs per staged notification.
const MPN_CEILING: f64 = 0.5;

fn at() -> WeekTime {
    WeekTime::at(1, 10, 0)
}

// ---------------------------------------------------------------- A —

/// A registry whose owners all accept third-party subscriptions, so
/// the one-time shield check at subscribe time passes for strangers.
fn open_registry(owners: &[String]) -> Gupster {
    let mut g = Gupster::new(gup_schema(), b"e21");
    g.telemetry().set_span_limit(0); // histograms only

    for o in owners {
        for comp in ["presence", "address-book", "devices"] {
            g.register_component(
                o,
                Path::parse(&format!("/user[@id='{o}']/{comp}")).expect("static"),
                StoreId::new("store.net"),
            )
            .expect("valid");
        }
        g.pap
            .provision(o, "open", Effect::Permit, "/user", "relationship='third-party'", 0)
            .expect("valid rule");
    }
    g
}

/// Builds `n_subs` subscriptions over `owners` with Zipf-skewed
/// watcher counts. Most scopes are concrete component paths; a slice
/// are wildcard `//presence` self-subscriptions, exercising the
/// trie's always-scanned fallback bucket. Returns the oracle's copy of
/// the same subscriptions.
fn subscribe_population(
    g: &mut Gupster,
    subs: &mut ShardedFanout,
    owners: &[String],
    n_subs: usize,
    seed: u64,
) -> NaiveFanout {
    let mut r = rng(seed);
    let mut naive = NaiveFanout::new();
    let owner_of = social_watchers(owners.len(), n_subs, 0.99, &mut r);
    for (w, &oi) in owner_of.iter().enumerate() {
        let owner = &owners[oi];
        let (scope, subscriber) = if w % 20 == 19 {
            // Wildcard self-scope: owners watching their whole profile
            // from any store ("self" always passes the shield).
            (Path::parse("//presence").expect("static"), owner.clone())
        } else {
            let comp = match r.gen_range(0..10u32) {
                0..=5 => "presence",
                6..=8 => "address-book",
                _ => "devices",
            };
            let scope = Path::parse(&format!("/user[@id='{owner}']/{comp}")).expect("static");
            (scope, format!("watcher{w:06}"))
        };
        let id = subs.subscribe(g, owner, &scope, &subscriber, at(), 0).expect("open shield");
        naive.subscribe(id, owner, &scope, &subscriber);
    }
    naive
}

/// A pre-built write stream: change events over the owner population
/// (mildly skewed — hot users get written to more, but the write mix
/// is flatter than the watch mix, as profile edits are).
fn write_stream(owners: &[String], n_events: usize, seed: u64) -> Vec<ChangeEvent> {
    let zipf = Zipf::new(owners.len(), 0.6);
    let mut r = rng(seed);
    (0..n_events)
        .map(|i| {
            let owner = &owners[zipf.sample(&mut r)];
            let comp = match r.gen_range(0..10u32) {
                0..=5 => "presence",
                6..=8 => "address-book",
                _ => "devices",
            };
            ChangeEvent {
                user: owner.clone(),
                path: Path::parse(&format!("/user/{comp}")).expect("static"),
                generation: i as u64,
            }
        })
        .collect()
}

fn match_sweep(quick: bool, rows_out: &mut Vec<Row>) {
    let scales: &[usize] = if quick { &SCALES_QUICK } else { &SCALES_FULL };
    let n_events = if quick { EVENTS_QUICK } else { EVENTS_FULL };
    let owners: Vec<String> = (0..N_OWNERS).map(user_id).collect();
    let events = write_stream(&owners, n_events, 2101);

    let mut table = Vec::new();
    for &n_subs in scales {
        let mut g = open_registry(&owners);
        let mut subs = ShardedFanout::new(1);
        let naive = subscribe_population(&mut g, &mut subs, &owners, n_subs, 2102);
        assert_eq!(subs.len(), n_subs);

        // One pass: match each event both ways, assert the streams are
        // byte-identical, and count the subscriptions each examined,
        // plus wall time.
        let mut naive_examined = 0u64;
        let mut indexed_examined = 0u64;
        let mut matched = 0u64;
        let mut naive_wall = std::time::Duration::ZERO;
        let mut indexed_wall = std::time::Duration::ZERO;
        for e in &events {
            let t0 = Instant::now();
            let fast = subs.on_event(e);
            indexed_wall += t0.elapsed();
            let t1 = Instant::now();
            let slow = naive.on_event(e);
            naive_wall += t1.elapsed();
            assert_eq!(
                fast.notifications, slow.notifications,
                "index diverged from the naive oracle at {n_subs} subs"
            );
            naive_examined += slow.examined as u64;
            indexed_examined += fast.examined as u64;
            matched += fast.notifications.len() as u64;
        }
        let examined_ratio = naive_examined as f64 / indexed_examined.max(1) as f64;
        assert!(
            examined_ratio >= EXAMINED_FLOOR,
            "acceptance: ≥{EXAMINED_FLOOR}× fewer subscriptions examined at {n_subs} subs, \
             got {examined_ratio:.1}×"
        );
        let naive_ops = n_events as f64 / naive_wall.as_secs_f64().max(1e-9);
        let indexed_ops = n_events as f64 / indexed_wall.as_secs_f64().max(1e-9);
        let per_event = |count: u64| count as f64 / n_events as f64;
        table.push(vec![
            n_subs.to_string(),
            format!("{:.0}", per_event(naive_examined)),
            f2(per_event(indexed_examined)),
            format!("{examined_ratio:.0}x"),
            format!("{:.1}x", indexed_ops / naive_ops),
            format!("{:.1}", per_event(matched)),
        ]);
        rows_out.push(
            Row::new("subs")
                .count("subscriptions", n_subs as u64)
                .count("events", n_events as u64)
                .count("naive_examined", naive_examined)
                .count("indexed_examined", indexed_examined)
                .count("notifications", matched)
                .real("wall_naive_ops", naive_ops)
                .real("wall_indexed_ops", indexed_ops),
        );
    }
    print_table(
        &format!(
            "E21a — write-vs-watchers match throughput ({n_events} writes over {N_OWNERS} \
             owners, Zipf 0.99 watcher sets)"
        ),
        &["subs", "naive examined", "indexed examined", "examined ratio", "wall speedup", "notes/write"],
        &table,
    );
    println!(
        "  paper check: the inverted trie prunes a write to one owner's relevant watchers — \
         the naive matcher pays for every subscription in the system on every write."
    );
}

// ---------------------------------------------------------------- B —

/// The hub world: one owner with a real store, `n_watchers`
/// subscribers (a slice of them double-subscribed to the whole
/// profile, so coalescing has duplicates to drop).
fn hub_world(n_watchers: usize) -> (Gupster, StorePool, ShardedFanout) {
    let hub = "hubuser";
    let mut g = Gupster::new(gup_schema(), b"e21");
    g.telemetry().set_span_limit(0); // histograms only
    let mut store = XmlStore::new("store.net");
    let mut doc = Element::new("user").with_attr("id", hub);
    doc.push_child(Element::new("presence").with_text("online"));
    doc.push_child(Element::new("devices"));
    store.put_profile(doc).expect("has id");
    store.drain_events();
    for comp in ["presence", "devices"] {
        g.register_component(
            hub,
            Path::parse(&format!("/user[@id='{hub}']/{comp}")).expect("static"),
            StoreId::new("store.net"),
        )
        .expect("valid");
    }
    g.pap
        .provision(hub, "open", Effect::Permit, "/user", "relationship='third-party'", 0)
        .expect("valid rule");
    let mut pool = StorePool::new();
    pool.add(Box::new(store));

    let mut subs = ShardedFanout::new(1);
    let presence = Path::parse(&format!("/user[@id='{hub}']/presence")).expect("static");
    let whole = Path::parse(&format!("/user[@id='{hub}']")).expect("static");
    for w in 0..n_watchers {
        let watcher = format!("watcher{w:06}");
        subs.subscribe(&mut g, hub, &presence, &watcher, at(), 0).expect("open shield");
        if w % 10 == 0 {
            // Every tenth watcher also watches the whole profile: both
            // subscriptions match a presence write, and the duplicate
            // payload must coalesce away.
            subs.subscribe(&mut g, hub, &whole, &watcher, at(), 0).expect("open shield");
        }
    }
    (g, pool, subs)
}

/// One delivery plane: a registry node fanning out to one node per
/// subscriber over internet links.
struct Plane {
    net: Network,
    registry: NodeId,
    watchers: Vec<NodeId>,
}

fn plane(n_watchers: usize, seed: u64) -> Plane {
    let mut net = Network::new(seed);
    let registry = net.add_node("gupster", Domain::Internet);
    let watchers = (0..n_watchers)
        .map(|w| net.add_node(format!("watcher{w:06}"), Domain::Client))
        .collect();
    Plane { net, registry, watchers }
}

fn watcher_index(subscriber: &str) -> usize {
    subscriber["watcher".len()..].parse().expect("watcherNNNNNN")
}

fn hub_delivery(quick: bool, rows_out: &mut Vec<Row>) {
    let n_watchers = if quick { HUB_QUICK } else { HUB_FULL };
    let (g, mut pool, mut subs) = hub_world(n_watchers);
    let hub_id = StoreId::new("store.net");

    // One delivery window: three writes land before the flush — two
    // touch presence (same payload path → dedup fodder), one devices.
    for (path, text) in [
        ("/user/presence", "busy"),
        ("/user/presence", "away"),
        ("/user/devices", ""),
    ] {
        let op = if text.is_empty() {
            UpdateOp::InsertChild(
                Path::parse(path).expect("static"),
                Element::new("device").with_attr("id", "d9"),
            )
        } else {
            UpdateOp::SetText(Path::parse(path).expect("static"), text.into())
        };
        pool.update(&hub_id, "hubuser", &op).expect("writes apply");
    }

    let t0 = Instant::now();
    let staged = subs.stage_window(&g, &mut pool, at());
    let stage_wall = t0.elapsed();
    assert!(staged.suppressed.is_empty(), "the open shield permits every watcher");
    let raw = staged.staged;
    // What unbatched delivery would send: one pair per staged
    // notification, captured before the flush drains the window.
    let unbatched_targets: Vec<usize> =
        subs.pending().iter().map(|n| watcher_index(&n.subscriber)).collect();
    let batches = subs.flush_window(&g);

    // Coalesced plane: one batch RPC pair per subscriber, fragments =
    // notifications carried; sender occupancy is per pair.
    let coalesced = plane(n_watchers, 21);
    let calls: Vec<(NodeId, usize, usize, u64)> = batches
        .iter()
        .map(|b| {
            let to = coalesced.watchers[watcher_index(&b.subscriber)];
            (to, 64 + 96 * b.notifications.len(), 16, b.notifications.len() as u64)
        })
        .collect();
    let mut journey = Journey::start();
    journey.compute(SimTime::micros(SEND_PAIR_US * calls.len() as u64));
    journey
        .try_batch_rpcs(&coalesced.net, coalesced.registry, &calls)
        .expect("no faults scheduled");
    let coalesced_latency = journey.elapsed();
    let coalesced_pairs = calls.len() as u64;
    let delivered: usize = batches.iter().map(|b| b.notifications.len()).sum();

    // Unbatched plane: one pair per *staged* notification (no window,
    // no dedup) — what per-notification push would have sent.
    let unbatched = plane(n_watchers, 21);
    let repeat: Vec<(NodeId, usize, usize)> =
        unbatched_targets.iter().map(|&wi| (unbatched.watchers[wi], 160, 16)).collect();
    let mut unbatched_journey = Journey::start();
    unbatched_journey.compute(SimTime::micros(SEND_PAIR_US * repeat.len() as u64));
    unbatched_journey
        .try_parallel_rpcs(&unbatched.net, unbatched.registry, &repeat)
        .expect("no faults scheduled");
    let unbatched_latency = unbatched_journey.elapsed();
    let unbatched_pairs = repeat.len() as u64;

    // In-run acceptance: coalescing must reduce messages per staged
    // notification, and stay under the gated ceiling.
    assert!(
        coalesced_pairs < unbatched_pairs,
        "coalesced delivery must send fewer message pairs ({coalesced_pairs} vs {unbatched_pairs})"
    );
    let mpn = coalesced_pairs as f64 / raw.max(1) as f64;
    assert!(
        mpn <= MPN_CEILING,
        "acceptance: ≤{MPN_CEILING} message pairs per staged notification, got {mpn:.2}"
    );

    // Push vs. poll: a polling round is one lookup pair per watcher
    // per window — and every poll pays the shield again, while the
    // push plane checked it once at subscribe time.
    let poll_pairs = n_watchers as u64;

    let coalesced_metrics = coalesced.net.metrics();
    print_table(
        &format!("E21b — hub fanout ({n_watchers} watchers, 3-write delivery window)"),
        &["plane", "msg pairs", "pairs/notification", "fanout latency", "sim sender µs"],
        &[
            vec![
                "coalesced".into(),
                coalesced_pairs.to_string(),
                f2(mpn),
                coalesced_latency.to_string(),
                (SEND_PAIR_US * coalesced_pairs).to_string(),
            ],
            vec![
                "unbatched".into(),
                unbatched_pairs.to_string(),
                f2(unbatched_pairs as f64 / raw.max(1) as f64),
                unbatched_latency.to_string(),
                (SEND_PAIR_US * unbatched_pairs).to_string(),
            ],
            vec!["poll round".into(), poll_pairs.to_string(), "-".into(), "-".into(), "-".into()],
        ],
    );
    println!(
        "  staged {raw} notifications → {delivered} delivered in {} batches \
         ({} payload duplicates coalesced away); staging wall {:?}",
        batches.len(),
        raw - delivered,
        stage_wall,
    );
    println!(
        "  batch counters: {} batched rpcs, {} coalesced fragments",
        coalesced_metrics.batched_rpcs, coalesced_metrics.coalesced_fragments
    );
    println!(
        "  paper check: push pays the shield once per subscribe; a poll round costs \
         {poll_pairs} lookup pairs *and* {poll_pairs} fresh shield checks every window."
    );

    rows_out.push(
        Row::new("fanout")
            .count("watchers", n_watchers as u64)
            .count("staged", raw as u64)
            .count("coalesced_pairs", coalesced_pairs)
            .count("unbatched_pairs", unbatched_pairs)
            .real("sim_unbatched_ops", 1e6 * raw as f64 / unbatched_latency.0.max(1) as f64)
            .real("sim_coalesced_ops", 1e6 * raw as f64 / coalesced_latency.0.max(1) as f64)
            .ratio("pairs_per_notification", mpn),
    );
}

/// Runs the experiment.
pub fn run() {
    let quick = super::quick();
    println!("\nE21 — push fanout at scale ({} sweep)", super::mode());
    let mut rows: Vec<Row> = Vec::new();
    match_sweep(quick, &mut rows);
    hub_delivery(quick, &mut rows);
    benchjson::write("e21_fanout", "BENCH_subs.json", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_match_sweep_is_identical_and_pruned() {
        let owners: Vec<String> = (0..16).map(user_id).collect();
        let mut g = open_registry(&owners);
        let mut subs = ShardedFanout::new(1);
        let naive = subscribe_population(&mut g, &mut subs, &owners, 400, 5);
        assert_eq!(subs.len(), 400);
        for e in write_stream(&owners, 64, 6) {
            let fast = subs.on_event(&e);
            let slow = naive.on_event(&e);
            assert_eq!(fast.notifications, slow.notifications);
            assert!(fast.examined <= slow.examined);
        }
    }

    #[test]
    fn hub_window_coalesces_and_stays_under_ceiling() {
        let (g, mut pool, mut subs) = hub_world(50);
        pool.update(
            &StoreId::new("store.net"),
            "hubuser",
            &UpdateOp::SetText(Path::parse("/user/presence").expect("static"), "busy".into()),
        )
        .expect("applies");
        pool.update(
            &StoreId::new("store.net"),
            "hubuser",
            &UpdateOp::SetText(Path::parse("/user/presence").expect("static"), "away".into()),
        )
        .expect("applies");
        let staged = subs.stage_window(&g, &mut pool, at());
        // 50 presence watchers + 5 whole-profile doubles, two writes.
        assert_eq!(staged.staged, 55 * 2);
        let batches = subs.flush_window(&g);
        assert_eq!(batches.len(), 50, "one batch per subscriber");
        let delivered: usize = batches.iter().map(|b| b.notifications.len()).sum();
        assert_eq!(delivered, 50, "same-path payloads dedup to one per watcher");
        assert!((batches.len() as f64 / staged.staged as f64) <= MPN_CEILING);
    }
}
