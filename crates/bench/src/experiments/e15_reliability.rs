//! E15 — §4.2 / §5.3 Reliability (Req. 12).
//!
//! Two sections:
//!
//! 1. **Constellation** — "reliability will be achieved by having the
//!    logical single entry point be implemented by a constellation of
//!    GUPster servers" (the UDDI model). Mirror outages during a
//!    lookup stream; availability plus anti-entropy recovery.
//! 2. **Fault injection + resilience ladder** — a seeded
//!    [`FaultSchedule`] flaps links and darkens nodes while a stream
//!    of requests runs through the [`ResilientExecutor`]'s
//!    referral → chaining → recruiting → stale-cache ladder. Reports
//!    availability, staleness, retries, fallbacks and p99 wall clock
//!    per fault rate. Fully deterministic: the same seed renders a
//!    byte-identical report.

use std::collections::HashMap;
use std::sync::Arc;

use gupster_core::patterns::PatternExecutor;
use gupster_core::{Constellation, Gupster, ResilientExecutor, StorePool};
use gupster_netsim::{Domain, FaultRates, FaultSchedule, Network, NodeId, SimTime};
use gupster_policy::{Purpose, WeekTime};
use gupster_schema::gup_schema;
use gupster_store::{StoreId, XmlStore};
use gupster_telemetry::TelemetryHub;
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::table::{pct, print_table, render_table};
use crate::workload::rng;
use gupster_rng::Rng;

/// Outcomes of one fault-rate cell of the sweep.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Per-link per-tick fault probability driven through the schedule.
    pub rate: f64,
    /// Requests issued.
    pub requests: usize,
    /// Answered fresh by a ladder rung.
    pub fresh: usize,
    /// Answered from the stale cache.
    pub stale: usize,
    /// Not answered at all.
    pub failed: usize,
    /// Retry waits spent.
    pub retries: u64,
    /// Ladder rungs fallen through.
    pub fallbacks: u64,
    /// Requests that ran out of deadline budget.
    pub deadline_exceeded: u64,
    /// p99 wall clock of answered requests.
    pub p99: SimTime,
}

impl FaultRow {
    /// Fraction of requests answered (fresh or stale).
    pub fn availability(&self) -> f64 {
        (self.fresh + self.stale) as f64 / self.requests.max(1) as f64
    }
}

/// The rendered fault section plus its structured rows.
#[derive(Debug)]
pub struct FaultSweep {
    /// One row per fault rate.
    pub rows: Vec<FaultRow>,
    /// The exact report text (byte-identical for a given seed).
    pub report: String,
    /// One telemetry hub per rate, for trace export.
    pub hubs: Vec<Arc<TelemetryHub>>,
}

struct World {
    net: Network,
    client: NodeId,
    gupster_node: NodeId,
    fault_nodes: Vec<NodeId>,
    store_nodes: HashMap<StoreId, NodeId>,
    gupster: Gupster,
    pool: StorePool,
}

/// A 3-store split address book (same shape as E5's world).
fn build(seed: u64) -> World {
    const K: usize = 3;
    let mut net = Network::new(seed);
    let client = net.add_node("client", Domain::Client);
    let gupster_node = net.add_node("gupster.net", Domain::Internet);
    let mut gupster = Gupster::new(gup_schema(), b"e15");
    let mut pool = StorePool::new();
    let mut store_nodes = HashMap::new();
    let mut fault_nodes = vec![client, gupster_node];
    for s in 0..K {
        let label = format!("store{s}.net");
        let node = net.add_node(label.clone(), Domain::Internet);
        fault_nodes.push(node);
        let mut store = XmlStore::new(label.clone());
        let mut doc = Element::new("user").with_attr("id", "alice");
        let mut book = Element::new("address-book");
        for i in (s..60).step_by(K) {
            book.push_child(
                Element::new("item")
                    .with_attr("id", i.to_string())
                    .with_attr("type", format!("slice{s}"))
                    .with_child(Element::new("name").with_text(format!("Contact number {i}"))),
            );
        }
        doc.push_child(book);
        store.put_profile(doc).expect("id");
        gupster
            .register_component(
                "alice",
                Path::parse(&format!("/user[@id='alice']/address-book/item[@type='slice{s}']"))
                    .expect("static"),
                StoreId::new(label.clone()),
            )
            .expect("valid");
        store_nodes.insert(StoreId::new(label), node);
        pool.add(Box::new(store));
    }
    World { net, client, gupster_node, fault_nodes, store_nodes, gupster, pool }
}

/// Runs the fault-rate sweep. Everything — network jitter, the fault
/// schedule, retry backoff — derives from `seed`, so two calls with
/// the same seed produce identical [`FaultSweep::report`] bytes.
pub fn fault_sweep(seed: u64) -> FaultSweep {
    const REQUESTS: usize = 200;
    let gap = SimTime::millis(200);
    let keys = MergeKeys::new().with_key("item", "id");
    let request = Path::parse("/user[@id='alice']/address-book").expect("static");
    let mut rows = Vec::new();
    let mut hubs = Vec::new();
    for (idx, rate) in [0.0f64, 0.05, 0.10, 0.20].into_iter().enumerate() {
        let hub = Arc::new(TelemetryHub::new());
        let mut w = build(seed ^ 0xE15);
        w.gupster.set_telemetry(Arc::clone(&hub));
        let exec = PatternExecutor {
            net: &w.net,
            client: w.client,
            gupster_node: w.gupster_node,
            store_nodes: w.store_nodes.clone(),
        };
        let mut rex = ResilientExecutor::new(exec, seed).with_budget(SimTime::secs(2));
        // Warm the stale cache before the faults start — a store that
        // has never answered has nothing to degrade to.
        rex.fetch(&mut w.gupster, &w.pool, "alice", &request, "alice", WeekTime::at(0, 12, 0), 0, &keys)
            .expect("fault-free warm-up");
        let rates = FaultRates::links(rate)
            .with_node_outages(rate / 5.0)
            .with_latency_spikes(rate / 10.0);
        let horizon = SimTime(gap.0 * (REQUESTS as u64 + 5));
        w.net.install_faults(FaultSchedule::generate(
            seed.wrapping_add(idx as u64),
            &rates,
            &w.fault_nodes,
            horizon,
        ));
        let (mut fresh, mut stale, mut failed) = (0usize, 0usize, 0usize);
        let mut walls: Vec<SimTime> = Vec::new();
        for i in 0..REQUESTS {
            w.net.advance(gap);
            match rex.fetch(
                &mut w.gupster,
                &w.pool,
                "alice",
                &request,
                "alice",
                WeekTime::at(0, 12, 0),
                1 + i as u64,
                &keys,
            ) {
                Ok(run) => {
                    if run.stale {
                        stale += 1;
                    } else {
                        fresh += 1;
                    }
                    walls.push(run.wall);
                }
                Err(_) => failed += 1,
            }
        }
        walls.sort();
        let p99 = walls
            .get((walls.len().saturating_mul(99) / 100).min(walls.len().saturating_sub(1)))
            .copied()
            .unwrap_or(SimTime::ZERO);
        let c = hub.counter_snapshot();
        rows.push(FaultRow {
            rate,
            requests: REQUESTS,
            fresh,
            stale,
            failed,
            retries: c.retries,
            fallbacks: c.fallbacks,
            deadline_exceeded: c.deadline_exceeded,
            p99,
        });
        hubs.push(hub);
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                pct(r.rate),
                r.requests.to_string(),
                pct(r.availability()),
                r.fresh.to_string(),
                r.stale.to_string(),
                r.failed.to_string(),
                r.retries.to_string(),
                r.fallbacks.to_string(),
                r.deadline_exceeded.to_string(),
                r.p99.to_string(),
            ]
        })
        .collect();
    let mut report = render_table(
        "E15 / Req. 12 — availability under injected faults (200 requests, resilience ladder)",
        &["link fault rate", "reqs", "availability", "fresh", "stale", "failed", "retries", "fallbacks", "deadline", "p99 wall"],
        &table_rows,
    );
    report.push_str(
        "  paper check: the referral→chaining→recruiting→stale ladder holds availability ≥99% while faults climb.\n",
    );
    FaultSweep { rows, report, hubs }
}

/// Runs the experiment.
pub fn run() {
    run_constellation();
    let sweep = fault_sweep(15);
    print!("{}", sweep.report);
    for hub in &sweep.hubs {
        super::dump_traces(hub);
    }
}

/// The original constellation section: mirrored GUPster servers.
fn run_constellation() {
    let mut rows = Vec::new();
    for n_mirrors in [1usize, 3, 5] {
        let mut c = Constellation::new(gup_schema(), b"e15", n_mirrors);
        c.register_component(
            "alice",
            Path::parse("/user[@id='alice']/presence").expect("static"),
            StoreId::new("s1"),
        )
        .expect("valid");
        let mut r = rng(15);
        const ROUNDS: usize = 10_000;
        let outage_p = 0.002; // per-round chance each mirror fails
        let recovery_p = 0.05; // per-round chance a down mirror recovers
        let mut ok = 0usize;
        let mut writes_ok = 0usize;
        let path = Path::parse("/user[@id='alice']/presence").expect("static");
        for round in 0..ROUNDS {
            for m in 0..n_mirrors {
                if r.gen_bool(outage_p) {
                    c.set_down(m);
                } else if r.gen_bool(recovery_p) {
                    c.recover(m);
                }
            }
            // Periodic write (re-registration churn).
            if round % 100 == 0
                && c.register_component(
                    "alice",
                    Path::parse("/user[@id='alice']/calendar").expect("static"),
                    StoreId::new(format!("s{}", round / 100)),
                )
                .is_ok()
            {
                writes_ok += 1;
            }
            if c.lookup("alice", &path, "alice", Purpose::Query, WeekTime::at(0, 12, 0), round as u64)
                .is_ok()
            {
                ok += 1;
            }
        }
        rows.push(vec![
            n_mirrors.to_string(),
            pct(ok as f64 / ROUNDS as f64),
            writes_ok.to_string(),
            c.healthy().to_string(),
        ]);
    }
    print_table(
        "E15 / §5.3 — constellation availability under random mirror outages (10k lookups)",
        &["mirrors", "lookup availability", "writes accepted", "healthy at end"],
        &rows,
    );
    println!("  paper check: availability rises toward five-nines as the constellation widens (Req. 12).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_mirrors_higher_availability() {
        let avail = |n: usize| {
            let mut c = Constellation::new(gup_schema(), b"t", n);
            c.register_component(
                "a",
                Path::parse("/user[@id='a']/presence").unwrap(),
                StoreId::new("s"),
            )
            .unwrap();
            let mut r = rng(4);
            let path = Path::parse("/user[@id='a']/presence").unwrap();
            let mut ok = 0usize;
            for round in 0..2_000 {
                for m in 0..n {
                    if r.gen_bool(0.01) {
                        c.set_down(m);
                    } else if r.gen_bool(0.05) {
                        c.recover(m);
                    }
                }
                if c.lookup("a", &path, "a", Purpose::Query, WeekTime::at(0, 0, 0), round).is_ok()
                {
                    ok += 1;
                }
            }
            ok as f64 / 2_000.0
        };
        let one = avail(1);
        let five = avail(5);
        assert!(five > one, "5 mirrors {five} vs 1 mirror {one}");
        assert!(five > 0.99);
    }

    #[test]
    fn ladder_holds_availability_under_ten_percent_faults() {
        let sweep = fault_sweep(15);
        let row = sweep.rows.iter().find(|r| (r.rate - 0.10).abs() < 1e-9).unwrap();
        assert!(
            row.availability() >= 0.99,
            "availability {} under 10% faults",
            row.availability()
        );
        // Faults actually bit: the ladder did real work.
        assert!(row.retries + row.fallbacks > 0, "{row:?}");
        // The fault-free baseline is fully fresh.
        let base = &sweep.rows[0];
        assert_eq!(base.fresh, base.requests);
        assert_eq!(base.stale, 0);
    }

    #[test]
    fn same_seed_renders_byte_identical_report() {
        let a = fault_sweep(99);
        let b = fault_sweep(99);
        assert_eq!(a.report, b.report);
        let c = fault_sweep(100);
        assert_ne!(a.report, c.report, "different seed, different report");
    }

    #[test]
    fn runs() {
        super::run();
    }
}
