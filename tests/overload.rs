//! Differential + property suite for admission control and the
//! open-loop engine (DESIGN.md §11).
//!
//! The contract under test, mirroring the shard-differential suite:
//! admission control is a pure *protection* mechanism —
//!
//! * below saturation it is invisible: every request is admitted and
//!   answers byte-identically to the unguarded batch path, at every
//!   shard count;
//! * above saturation every request still resolves to exactly one of
//!   {fresh answer, explicit stale serve, typed `Overloaded`} — no
//!   hangs, no silent drops — and the whole outcome stream is
//!   byte-identical across shard counts (shed decisions live in
//!   virtual ingress queues, not physical shards);
//! * the call-delivery class is never shed harder than the bulk class
//!   at any swept load point;
//! * the ingress queue itself upholds its bounds under randomized
//!   interleavings (capacity, conservation, per-class FIFO, the
//!   fast-busy trunk bound).

mod common;

use common::{build_pool, keys, p, provision, request_stream};
use gupster::core::{
    AdmissionConfig, IngressQueue, OpenLoopRequest, Priority, RequestOutcome, ShardRequest,
    ShardedRegistry, StorePool,
};
use gupster::netsim::SimTime;
use gupster::policy::{Purpose, WeekTime};
use gupster::schema::gup_schema;
use gupster::store::{StoreId, XmlStore};
use gupster::xml::Element;
use gupster_rng::check::cases;
use gupster_rng::Rng;

/// Deterministic class mix: every fourth request is a call delivery.
fn class_for(op: usize) -> Priority {
    if op.is_multiple_of(4) {
        Priority::CallDelivery
    } else {
        Priority::ProfileEdit
    }
}

/// Wraps the shared multi-user request stream into open-loop arrivals
/// spaced `gap_us` apart.
fn arrivals_with_gap(n: usize, gap_us: u64) -> Vec<OpenLoopRequest> {
    request_stream(n)
        .into_iter()
        .enumerate()
        .map(|(op, request)| OpenLoopRequest {
            request,
            arrival: SimTime::micros(op as u64 * gap_us),
            class: class_for(op),
        })
        .collect()
}

// ------------------------------------------- below saturation —

#[test]
fn below_saturation_admission_is_invisible() {
    let requests = request_stream(120);
    let pool = build_pool();
    let keys = keys();

    // Oracle: the unguarded closed-loop batch path.
    let mut oracle = ShardedRegistry::new(gup_schema(), b"adm", 1);
    provision(|u, path, store| oracle.register_component(u, path, store).unwrap());
    let (expected, _) = oracle.answer_batch(&pool, &requests, &keys, true);
    let expected: Vec<String> = expected.iter().map(|r| format!("{r:?}")).collect();

    // 10ms between arrivals: each request completes long before the
    // next arrives, so admission control never has a reason to act.
    let arrivals = arrivals_with_gap(120, 10_000);
    for shards in [1usize, 2, 8] {
        let mut reg = ShardedRegistry::new(gup_schema(), b"adm", shards);
        provision(|u, path, store| reg.register_component(u, path, store).unwrap());
        let (outcomes, report) =
            reg.answer_open_loop(&pool, &arrivals, &keys, &AdmissionConfig::default(), None);
        assert_eq!(report.shed_calls + report.shed_edits, 0, "{shards} shards: shed below saturation");
        assert_eq!(report.admitted, arrivals.len() as u64);
        assert_eq!(report.stale_served, 0);
        for (i, o) in outcomes.iter().enumerate() {
            match o {
                RequestOutcome::Answer(res) => assert_eq!(
                    format!("{res:?}"),
                    expected[i],
                    "request {i} diverged from the unguarded path at {shards} shards"
                ),
                other => panic!("request {i} at {shards} shards: admitted run produced {other:?}"),
            }
        }
    }
}

// ------------------------------------------- above saturation —

#[test]
fn above_saturation_every_request_resolves_exactly_once() {
    let pool = build_pool();
    let keys = keys();
    const N: usize = 400;
    // Unlimited trunks: the class comparison below is about the
    // preempt/evict machinery. (A finite fast-busy cap deliberately
    // sheds burst calls before edits — covered by the property test
    // and sized properly in E20.)
    let config = AdmissionConfig { capacity: 16, ..AdmissionConfig::default() };

    // Sweep from fully-bunched arrivals to near the saturation point.
    for gap_us in [0u64, 3, 10, 50] {
        let arrivals = arrivals_with_gap(N, gap_us);
        let mut streams = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut reg = ShardedRegistry::new(gup_schema(), b"adm", shards);
            provision(|u, path, store| reg.register_component(u, path, store).unwrap());
            let (outcomes, report) = reg.answer_open_loop(&pool, &arrivals, &keys, &config, None);

            // Totality: N offered, N resolved, and the taxonomy adds up.
            assert_eq!(outcomes.len(), N);
            let answers = outcomes.iter().filter(|o| matches!(o, RequestOutcome::Answer(_))).count();
            let stales = outcomes.iter().filter(|o| matches!(o, RequestOutcome::Stale { .. })).count();
            let overloaded =
                outcomes.iter().filter(|o| matches!(o, RequestOutcome::Overloaded(_))).count();
            assert_eq!(answers + stales + overloaded, N);
            assert_eq!(report.admitted, answers as u64, "gap {gap_us}us, {shards} shards");
            assert_eq!(
                report.admitted + report.shed_calls + report.shed_edits,
                N as u64,
                "gap {gap_us}us, {shards} shards: requests lost or duplicated"
            );
            // No probe: stale serves can only cover shed requests here.
            assert_eq!(report.stale_served, stales as u64);

            // Priority inversion check at every swept load point.
            assert!(
                report.call_shed_rate() <= report.edit_shed_rate() + 1e-9,
                "gap {gap_us}us, {shards} shards: calls shed harder than edits ({:.3} vs {:.3})",
                report.call_shed_rate(),
                report.edit_shed_rate()
            );
            streams.push((shards, outcomes.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>()));
        }
        // Shed decisions live in virtual ingress queues: the full
        // outcome stream must not notice the physical shard count.
        let (_, reference) = &streams[0];
        for (shards, stream) in &streams[1..] {
            assert_eq!(
                reference, stream,
                "gap {gap_us}us: outcome stream diverged at {shards} shards"
            );
        }
        // The tightest gaps must actually overload the service,
        // otherwise this test proves nothing about the shed path.
        if gap_us <= 3 {
            let (_, report) = {
                let mut reg = ShardedRegistry::new(gup_schema(), b"adm", 1);
                provision(|u, path, store| reg.register_component(u, path, store).unwrap());
                reg.answer_open_loop(&pool, &arrivals, &keys, &config, None)
            };
            assert!(
                report.shed_calls + report.shed_edits > 0,
                "gap {gap_us}us never shed; tighten the sweep"
            );
        }
    }
}

// ------------------------------------ the stale rung's view bound —

/// Views each shard's stale rung holds (DESIGN.md §11).
const RUNG_VIEWS: usize = 4096;

/// Outcomes of `views` owners' presence reads, each answered once in a
/// quiet open-loop run, then offered again all at one instant, newest
/// first, so that the queues fill and the oldest views are shed and
/// fall back to the stale rung. Also returns how many views shard 0's
/// rung holds after the quiet run.
fn rung_outcomes(views: usize, shards: usize) -> (Vec<String>, usize) {
    let owner = |i: usize| format!("v{i:04}");
    let mut store = XmlStore::new("s1");
    let mut reg = ShardedRegistry::new(gup_schema(), b"adm", shards);
    for i in 0..views {
        let u = owner(i);
        store
            .put_profile(
                Element::new("user")
                    .with_attr("id", u.clone())
                    .with_child(Element::new("presence").with_text(format!("online-{i}"))),
            )
            .unwrap();
        reg.register_component(&u, p(&format!("/user[@id='{u}']/presence")), StoreId::new("s1"))
            .unwrap();
    }
    let mut pool = StorePool::new();
    pool.add(Box::new(store));
    let read = |i: usize, now: u64, arrival: SimTime| {
        let u = owner(i);
        OpenLoopRequest {
            request: ShardRequest {
                path: p(&format!("/user[@id='{u}']/presence")),
                owner: u.clone(),
                requester: u,
                purpose: Purpose::Query,
                time: WeekTime::at(1, 10, 0),
                now,
            },
            arrival,
            class: Priority::ProfileEdit,
        }
    };
    let config = AdmissionConfig::default();
    let quiet: Vec<_> =
        (0..views).map(|i| read(i, 100, SimTime::micros(i as u64 * 10_000))).collect();
    let (fresh, _) = reg.answer_open_loop(&pool, &quiet, &keys(), &config, None);
    assert!(fresh.iter().all(|o| matches!(o, RequestOutcome::Answer(Ok(_)))), "{views} views");
    let held = reg.shards()[0].stale_answers().len();
    let burst: Vec<_> =
        (0..views).rev().map(|i| read(i, 160, SimTime::micros(100_000_000))).collect();
    let (outcomes, report) = reg.answer_open_loop(&pool, &burst, &keys(), &config, None);
    assert!(report.shed_edits as usize > views / 2, "the burst must shed most reads");
    (outcomes.iter().map(|o| format!("{o:?}")).collect(), held)
}

#[test]
fn stale_rung_outcomes_are_shard_count_invariant_up_to_its_view_bound() {
    // At the bound: one shard's rung holds every view, and every shed
    // read, the oldest view's included, is served stale at either
    // shard count.
    let (one, held) = rung_outcomes(RUNG_VIEWS, 1);
    assert_eq!(held, RUNG_VIEWS);
    let (two, _) = rung_outcomes(RUNG_VIEWS, 2);
    assert_eq!(one, two, "outcomes diverged between 1 and 2 shards at {RUNG_VIEWS} views");
    assert!(one.last().unwrap().starts_with("Stale"), "{}", one.last().unwrap());
    assert!(!one.iter().any(|o| o.starts_with("Overloaded")));

    // One view past it: the lone rung evicts the oldest view, which
    // two half-full rungs still hold, so its shed read diverges.
    let (one, held) = rung_outcomes(RUNG_VIEWS + 1, 1);
    assert_eq!(held, RUNG_VIEWS);
    let (two, _) = rung_outcomes(RUNG_VIEWS + 1, 2);
    assert!(one.last().unwrap().starts_with("Overloaded"), "{}", one.last().unwrap());
    assert!(two.last().unwrap().starts_with("Stale"), "{}", two.last().unwrap());
}

// ------------------------------------------------ property test —

#[test]
fn ingress_queue_invariants_under_random_interleavings() {
    cases(300, 0xAD41, |rng| {
        let capacity = rng.gen_range(0..=8usize);
        let call_slots =
            if rng.gen_bool(0.5) { usize::MAX } else { rng.gen_range(1..=4usize) };
        let n = rng.gen_range(1..=40usize);
        let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=200u64)).collect();
        let classes: Vec<Priority> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.3) { Priority::CallDelivery } else { Priority::ProfileEdit }
            })
            .collect();
        let mut arrivals = Vec::with_capacity(n);
        let mut t = 0u64;
        for _ in 0..n {
            t += rng.gen_range(0..=150u64);
            arrivals.push(SimTime::micros(t));
        }

        let mut q = IngressQueue::new(0, capacity, call_slots);
        let mut done = Vec::new();
        let mut shed = Vec::new();
        let mut cost = |idx: usize, _start: SimTime| SimTime::micros(costs[idx]);
        for i in 0..n {
            let out = q.offer(i, classes[i], arrivals[i], &mut cost, &mut done);
            if let Some(s) = out.shed {
                shed.push(s);
            }
        }
        q.drain(&mut cost, &mut done);

        // Bounded waiting room: depth never exceeds the configured cap.
        assert!(
            q.max_depth() <= capacity,
            "depth {} over capacity {capacity}",
            q.max_depth()
        );
        // Conservation: every offered job completes or sheds, once.
        let mut seen = vec![0u8; n];
        for c in &done {
            seen[c.idx] += 1;
        }
        for s in &shed {
            seen[s.idx] += 1;
        }
        assert!(
            seen.iter().all(|&k| k == 1),
            "jobs lost or duplicated: {seen:?} (capacity {capacity}, slots {call_slots})"
        );
        // FIFO within each priority class, even across preemptions.
        for class in [Priority::CallDelivery, Priority::ProfileEdit] {
            let order: Vec<usize> =
                done.iter().filter(|c| c.class == class).map(|c| c.idx).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "{class:?} completions out of arrival order");
        }
        // The fast-busy trunk bound: an admitted call waits only
        // behind calls, so its sojourn is capped by slots x the
        // longest call service in the run.
        if call_slots != usize::MAX {
            let max_call = classes
                .iter()
                .zip(&costs)
                .filter(|(c, _)| **c == Priority::CallDelivery)
                .map(|(_, &c)| c)
                .max()
                .unwrap_or(0);
            let bound = SimTime::micros(call_slots as u64 * max_call);
            for c in done.iter().filter(|c| c.class == Priority::CallDelivery) {
                assert!(
                    c.finished - c.arrived <= bound,
                    "call {} sojourn {} over trunk bound {bound}",
                    c.idx,
                    c.finished - c.arrived
                );
            }
        }
    });
}
