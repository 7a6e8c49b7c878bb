//! E20 — open-loop overload: offered load past saturation (DESIGN.md
//! §11).
//!
//! Closed-loop E17 can only report throughput *at* capacity; this
//! experiment drives the sharded registry with an open Poisson arrival
//! process from 0.25× to 4× the measured saturation rate and watches
//! what admission control does past the knee:
//!
//! * **Goodput plateaus instead of collapsing** — bounded ingress
//!   queues shed excess bulk work, so fresh answers per simulated
//!   second level off near capacity rather than drowning in queueing
//!   delay.
//! * **The call path holds its budget** — `CallDelivery` (presence
//!   lookups, the paper's "hundreds of milliseconds" call-setup path)
//!   preempts `ProfileEdit` at every queue; its p99 sojourn stays
//!   under the 256µs simulated budget even at 4× offered load, while
//!   the bulk class absorbs the entire shed.
//!
//! Section B replays the same 1× mean load through the bursty on/off
//! and diurnal arrival shapes: bursts inflate bulk latency and force
//! shedding during on-windows, but the call p99 budget still holds.
//!
//! Rows land in `BENCH_overload.json`; CI re-runs the reduced sweep
//! (`experiments --quick e20`), whose in-run asserts hold the call-path
//! p99 budget at every load. The sweep is fully simulated and seeded
//! (every field is `sim_` or the load point), so `bench_compare`
//! requires the fresh rows to reproduce the checked-in baseline byte
//! for byte.

use gupster_core::{
    AdmissionConfig, OpenLoopRequest, Priority, ShardRequest, ShardedRegistry, StorePool,
};
use gupster_netsim::SimTime;
use gupster_policy::{Purpose, WeekTime};
use gupster_rng::Rng;
use gupster_store::XmlStore;
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::arrivals::ArrivalProcess;
use crate::benchjson::{self, Row};
use crate::experiments::e17_shards::{provision, ShardWorkload};
use crate::table::{pct, print_table};
use crate::workload::{rng, Zipf};

/// Offered-load points, in percent of the measured saturation rate.
const LOADS_FULL: [u64; 7] = [25, 50, 100, 150, 200, 300, 400];
const LOADS_QUICK: [u64; 4] = [50, 100, 200, 400];
/// Arrivals per load point — identical in both modes so the quick CI
/// sweep reproduces the checked-in rows exactly.
const N_ARRIVALS: usize = 4_096;
/// Users behind the arrival stream.
const N_USERS: usize = 1_024;
/// Physical shards (the admission plane is invariant to this; see
/// tests/overload.rs for the proof at other counts).
const N_SHARDS: usize = 4;
/// Requests used to calibrate the mean service cost.
const N_CALIBRATE: usize = 512;
/// The call-path p99 budget (simulated) the sweep must hold at ≥2×.
const CALL_P99_BUDGET: SimTime = SimTime::micros(256);
/// Share of arrivals on the call-delivery class.
const CALL_SHARE: f64 = 0.25;
/// Address-book bulk: items per user in the personal / corporate
/// slices. Profile edits drag whole merged books through the pipeline
/// (~0.4ms each), while a presence read stays a two-digit-µs referral —
/// the cost asymmetry the priority classes exist for.
const PERSONAL_ITEMS: usize = 120;
const CORPORATE_ITEMS: usize = 80;
/// Call-class trunk count per ingress queue: an admitted call's sojourn
/// is bounded by `E20_CALL_SLOTS × max call service`, which must sit
/// under [`CALL_P99_BUDGET`] (asserted against the measured calibration
/// cost in `run`).
const E20_CALL_SLOTS: usize = 3;
/// Token freshness window (profile-clock seconds) for the sweep: long
/// enough that warmed referral tokens stay reusable across the whole
/// arrival span.
const TOKEN_WINDOW: u64 = 1 << 16;

/// The E20 store layout: the same six multi-tenant stores and
/// round-robin placement as E17 (so `e17::provision` registers the
/// matching coverage), but with bulk address books — `PERSONAL_ITEMS` +
/// `CORPORATE_ITEMS` entries per user instead of E17's five.
fn build_bulk_workload(n_users: usize) -> ShardWorkload {
    const N_STORES: usize = 6;
    let users: Vec<String> = (0..n_users).map(|i| format!("user{i:05}")).collect();
    let mut stores: Vec<XmlStore> =
        (0..N_STORES).map(|j| XmlStore::new(format!("store{j}.net"))).collect();
    for (i, u) in users.iter().enumerate() {
        let mut presence = Element::new("user").with_attr("id", u.clone());
        presence.push_child(Element::new("presence").with_text(format!("online-{i}")));
        stores[i % N_STORES].put_profile(presence).expect("id");

        for (slice, prefix, count, target) in [
            ("personal", 'p', PERSONAL_ITEMS, (i + 1) % N_STORES),
            ("corporate", 'c', CORPORATE_ITEMS, (i + 2) % N_STORES),
        ] {
            let mut doc = Element::new("user").with_attr("id", u.clone());
            let mut book = Element::new("address-book");
            for k in 0..count {
                book.push_child(
                    Element::new("item")
                        .with_attr("id", format!("{prefix}{k}"))
                        .with_attr("type", slice)
                        .with_child(Element::new("name").with_text(format!("Entry {k} of {u}"))),
                );
            }
            doc.push_child(book);
            stores[target].put_profile(doc).expect("id");
        }
    }
    let mut pool = StorePool::new();
    for s in stores {
        pool.add(Box::new(s));
    }
    ShardWorkload { users, pool, requests: Vec::new() }
}

/// The E20 request stream: 25% presence reads tagged `CallDelivery`,
/// 75% merged address-book reads tagged `ProfileEdit`, Zipf-skewed
/// owners — bulk traffic dominates, as in the paper's profile-edit vs.
/// call-delivery split.
fn request_stream(w: &ShardWorkload, n: usize, seed: u64) -> Vec<(ShardRequest, Priority)> {
    let zipf = Zipf::new(w.users.len(), 0.4);
    let mut r = rng(seed);
    (0..n)
        .map(|op| {
            let u = &w.users[zipf.sample(&mut r)];
            let call = r.gen_bool(CALL_SHARE);
            let path = if call {
                format!("/user[@id='{u}']/presence")
            } else {
                format!("/user[@id='{u}']/address-book")
            };
            let class = if call { Priority::CallDelivery } else { Priority::ProfileEdit };
            (
                ShardRequest {
                    owner: u.clone(),
                    path: Path::parse(&path).expect("static"),
                    requester: u.clone(),
                    purpose: Purpose::Query,
                    time: WeekTime::at(1, 10, 0),
                    now: op as u64,
                },
                class,
            )
        })
        .collect()
}

fn to_arrivals(
    stream: &[(ShardRequest, Priority)],
    instants: &[SimTime],
) -> Vec<OpenLoopRequest> {
    stream
        .iter()
        .zip(instants)
        .map(|((request, class), &arrival)| OpenLoopRequest {
            request: request.clone(),
            arrival,
            class: *class,
        })
        .collect()
}

/// Measures the mean per-request pipeline cost by running a prefix of
/// the stream far below saturation (10ms gaps — every queue idle).
fn calibrate(w: &ShardWorkload, stream: &[(ShardRequest, Priority)], keys: &MergeKeys) -> SimTime {
    let mut reg = provision_e20(w, keys);
    let instants: Vec<SimTime> =
        (1..=N_CALIBRATE).map(|i| SimTime::millis(10) * i as u64).collect();
    let arrivals = to_arrivals(&stream[..N_CALIBRATE], &instants);
    let config = AdmissionConfig::default();
    let (_, report) = reg.answer_open_loop(&w.pool, &arrivals, keys, &config, None);
    assert_eq!(report.fresh as usize, N_CALIBRATE, "calibration must not shed");
    // The structural call-latency guarantee (`call_slots × max call
    // service ≤ budget`) only holds if a call's service really fits
    // `budget / call_slots` — check it against measured reality here,
    // where the queues are idle and sojourn == service.
    let worst = SimTime(E20_CALL_SLOTS as u64 * report.call_latency.max().0);
    assert!(
        worst <= CALL_P99_BUDGET,
        "call service {} × {E20_CALL_SLOTS} trunks = {worst} does not fit the \
         {CALL_P99_BUDGET} budget",
        report.call_latency.max()
    );
    SimTime(report.busy.0 / N_CALIBRATE as u64)
}

/// A provisioned registry with warm decision memos and referral-token
/// cache: every (user, presence) and (user, address-book) pair runs
/// once before measurement. Overload behavior is a steady-state
/// question — a cold fleet's first-touch policy decisions and token
/// signings would otherwise dominate the call-class tail.
fn provision_e20(w: &ShardWorkload, keys: &MergeKeys) -> ShardedRegistry {
    let mut reg = provision(w, N_SHARDS);
    reg.set_token_freshness(TOKEN_WINDOW);
    reg.enable_token_cache();
    let warmup: Vec<ShardRequest> = w
        .users
        .iter()
        .flat_map(|u| {
            ["presence", "address-book"].into_iter().map(move |leaf| ShardRequest {
                owner: u.clone(),
                path: Path::parse(&format!("/user[@id='{u}']/{leaf}")).expect("static"),
                requester: u.clone(),
                purpose: Purpose::Query,
                time: WeekTime::at(1, 10, 0),
                now: 0,
            })
        })
        .collect();
    for window in warmup.chunks(512) {
        let (results, _) = reg.answer_batch(&w.pool, window, keys, true);
        assert!(results.iter().all(Result::is_ok), "warmup must answer cleanly");
    }
    reg
}

struct SweepPoint {
    label: String,
    offered_per_sec: f64,
    report: gupster_core::OverloadReport,
}

fn run_point(
    w: &ShardWorkload,
    stream: &[(ShardRequest, Priority)],
    keys: &MergeKeys,
    config: &AdmissionConfig,
    process: &ArrivalProcess,
    seed: u64,
    label: &str,
) -> SweepPoint {
    let instants = process.generate(stream.len(), &mut rng(seed));
    let arrivals = to_arrivals(stream, &instants);
    let offered_per_sec =
        stream.len() as f64 / (instants.last().expect("non-empty").0 as f64 / 1e6);
    let mut reg = provision_e20(w, keys);
    let (outcomes, report) = reg.answer_open_loop(&w.pool, &arrivals, keys, config, None);
    assert_eq!(outcomes.len(), stream.len(), "every arrival resolves exactly once");
    SweepPoint { label: label.to_string(), offered_per_sec, report }
}

fn point_row(p: &SweepPoint) -> Vec<String> {
    let r = &p.report;
    vec![
        p.label.clone(),
        format!("{:.0}", p.offered_per_sec),
        format!("{:.0}", r.goodput_per_sec()),
        pct(r.call_shed_rate()),
        pct(r.edit_shed_rate()),
        r.call_latency.p99().to_string(),
        r.edit_latency.p99().to_string(),
        r.max_queue_depth.to_string(),
        r.stale_served.to_string(),
    ]
}

const HEADERS: [&str; 9] = [
    "load",
    "offered/s",
    "goodput/s",
    "call shed",
    "edit shed",
    "call p99",
    "edit p99",
    "max depth",
    "stale",
];

/// Runs the experiment.
pub fn run() {
    println!("\nE20 — open-loop overload and admission control ({} sweep)", super::mode());

    let w = build_bulk_workload(N_USERS);
    let stream = request_stream(&w, N_ARRIVALS, 2020);
    let keys = MergeKeys::new().with_key("item", "id");
    let config = AdmissionConfig { call_slots: E20_CALL_SLOTS, ..AdmissionConfig::default() };

    let mean_cost = calibrate(&w, &stream, &keys);
    // Ideal capacity: `queues` independent servers, one request each
    // per mean service time. Queue imbalance puts the real knee below
    // this — which is exactly what the sweep shows.
    let saturation_per_sec = config.queues as f64 * 1e6 / mean_cost.0.max(1) as f64;
    println!(
        "  calibration: mean pipeline cost {mean_cost}, ideal saturation \
         {saturation_per_sec:.0} req/s over {} ingress queues",
        config.queues
    );

    let loads: &[u64] = if super::quick() { &LOADS_QUICK } else { &LOADS_FULL };
    let mut rows: Vec<Row> = Vec::new();
    let mut table = Vec::new();
    let mut points = Vec::new();
    for &load in loads {
        let rate = saturation_per_sec * load as f64 / 100.0;
        let p = run_point(
            &w,
            &stream,
            &keys,
            &config,
            &ArrivalProcess::Poisson { rate_per_sec: rate },
            9000 + load,
            &format!("{load}%"),
        );
        let r = &p.report;
        table.push(point_row(&p));
        rows.push(
            Row::new("overload")
                .count("load_pct", load)
                .real("sim_offered_ops", p.offered_per_sec)
                .real("sim_goodput_ops", r.goodput_per_sec())
                .real("sim_edit_shed_pct", 100.0 * r.edit_shed_rate())
                .count("sim_edit_p99_us", r.edit_latency.p99().0)
                .count("sim_call_p99_us", r.call_latency.p99().0),
        );
        points.push(p);
    }
    print_table(
        &format!(
            "E20a — Poisson load sweep ({N_ARRIVALS} arrivals, {N_USERS} users, \
             {} queues × capacity {}, {N_SHARDS} shards)",
            config.queues, config.capacity
        ),
        &HEADERS,
        &table,
    );
    for (p, &load) in points.iter().zip(loads) {
        let r = &p.report;
        assert!(
            r.call_shed_rate() <= r.edit_shed_rate() + 1e-12,
            "at {load}%: call shed {} must not exceed edit shed {}",
            r.call_shed_rate(),
            r.edit_shed_rate()
        );
        assert!(
            r.call_latency.p99() <= CALL_P99_BUDGET,
            "at {load}%: call p99 {} blew the {CALL_P99_BUDGET} budget",
            r.call_latency.p99()
        );
    }

    // Knee sanity: goodput past saturation must plateau, not collapse.
    let peak = points.iter().map(|p| p.report.goodput_per_sec()).fold(0.0, f64::max);
    let last = points.last().expect("swept").report.goodput_per_sec();
    assert!(
        last >= 0.8 * peak,
        "goodput collapsed past the knee: {last:.0}/s at max load vs {peak:.0}/s peak"
    );
    println!(
        "  knee: peak goodput {peak:.0}/s; at {}% offered the registry still serves \
         {last:.0}/s ({:.0}% of peak) — overload sheds bulk work, it does not melt down.",
        loads.last().expect("swept"),
        100.0 * last / peak
    );

    // -------------------------------------------------- B: shapes —
    // Same 1× mean load, bursty and diurnal envelopes. These stress
    // the queues during bursts; the call budget must still hold.
    let mut shape_table = Vec::new();
    for (label, process) in [
        (
            "on/off 1x",
            ArrivalProcess::OnOff {
                rate_per_sec: saturation_per_sec * 2.0,
                on: SimTime::millis(40),
                off: SimTime::millis(40),
            },
        ),
        (
            "diurnal 1x",
            ArrivalProcess::Diurnal {
                rate_per_sec: saturation_per_sec,
                amplitude: 0.6,
                period: SimTime::millis(200),
            },
        ),
    ] {
        let p = run_point(&w, &stream, &keys, &config, &process, 7_777, label);
        assert!(
            p.report.call_latency.p99() <= CALL_P99_BUDGET,
            "{label}: call p99 {} blew the {CALL_P99_BUDGET} budget",
            p.report.call_latency.p99()
        );
        shape_table.push(point_row(&p));
        points.push(p);
    }
    print_table("E20b — bursty and diurnal envelopes at 1× mean load", &HEADERS, &shape_table);
    println!(
        "  paper check: the call-setup path is protected *by construction* — preemptive \
         priority plus bounded queues keep call p99 under {CALL_P99_BUDGET} at every swept \
         load and shape, while profile-edit traffic absorbs the shed."
    );

    benchjson::write("e20_overload", "BENCH_overload.json", &rows);
}
