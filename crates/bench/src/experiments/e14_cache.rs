//! E14 — §5.3 data placement: GUPster result caching under Zipf access
//! skew (hit ratios, zero-staleness via invalidation-on-update) and
//! replicated-store routing to the closest replica.

use gupster_core::cache::{CachedClient, ResultCache};
use gupster_core::{Gupster, StorePool};
use gupster_netsim::{Domain, LatencyModel, Network, SimTime};
use gupster_policy::WeekTime;
use gupster_schema::gup_schema;
use gupster_store::{DataStore, StoreId, XmlStore};
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::table::{pct, print_table};
use crate::workload::{rng, user_id, Zipf};
use gupster_rng::Rng;

/// Runs the experiment.
pub fn run() {
    // Hit ratio vs. skew and capacity; staleness stays zero because an
    // update invalidates before the next read.
    const USERS: usize = 10_000;
    const OPS: usize = 100_000;
    let path = Path::parse("/user/presence").expect("static");
    let mut rows = Vec::new();
    for theta in [0.6f64, 0.9, 0.99] {
        for capacity in [100usize, 1_000, 5_000] {
            let zipf = Zipf::new(USERS, theta);
            let mut r = rng(14);
            let mut cache = ResultCache::new(capacity);
            let mut versions = vec![0u32; USERS];
            let mut stale_reads = 0usize;
            for _ in 0..OPS {
                let u = zipf.sample(&mut r);
                let user = user_id(u);
                if r.gen_bool(0.05) {
                    // An update: bump the truth, invalidate.
                    versions[u] += 1;
                    cache.invalidate(&user, &path);
                } else {
                    // The owner's own view; entries carry no stamp here.
                    match cache.get(&user, &user, &path) {
                        Some((hit, _)) => {
                            let got: u32 =
                                hit[0].text().parse().expect("numeric payload");
                            if got != versions[u] {
                                stale_reads += 1;
                            }
                        }
                        None => {
                            cache.put(
                                &user,
                                &user,
                                &path,
                                vec![Element::new("presence")
                                    .with_text(versions[u].to_string())],
                                0,
                            );
                        }
                    }
                }
            }
            rows.push(vec![
                format!("{theta}"),
                capacity.to_string(),
                pct(cache.hit_ratio()),
                cache.invalidations.to_string(),
                stale_reads.to_string(),
            ]);
        }
    }
    print_table(
        "E14a / §5.3 — GUPster result cache (10k users, 5% updates, Zipf skew)",
        &["theta", "capacity", "hit ratio", "invalidations", "stale reads"],
        &rows,
    );

    // Replica routing: "requests sent to www.yahoo.com will be routed to
    // the closest Yahoo! store available".
    let mut net = Network::new(3);
    let client = net.add_node("client-nj", Domain::Client);
    let us_east = net.add_node("us-east.yahoo.com", Domain::Internet);
    let us_west = net.add_node("us-west.yahoo.com", Domain::Internet);
    let uk = net.add_node("www.yahoo.co.uk", Domain::Internet);
    net.set_link(client, us_east, LatencyModel::fixed(SimTime::millis(15)));
    net.set_link(client, us_west, LatencyModel::fixed(SimTime::millis(45)));
    net.set_link(client, uk, LatencyModel::fixed(SimTime::millis(90)));
    let replicas = [us_east, us_west, uk];
    let closest = *replicas
        .iter()
        .min_by_key(|r| net.rpc(client, **r, 64, 512))
        .expect("non-empty");
    let t_best = net.rpc(client, closest, 64, 4096);
    let t_worst = net.rpc(client, uk, 64, 4096);
    print_table(
        "E14b — replicated-store routing (closest of 3 Yahoo! replicas)",
        &["strategy", "fetch latency"],
        &[
            vec![
                format!("route to closest ({})", net.node(closest).label),
                t_best.to_string(),
            ],
            vec!["route to farthest (UK)".into(), t_worst.to_string()],
        ],
    );

    // E14c — the caching front end over the *full* pipeline (shield
    // check, referral, fetch, merge), observed through the telemetry
    // hub: hit/miss counters plus per-stage latency of the miss path.
    const CC_USERS: usize = 50;
    const CC_OPS: usize = 2_000;
    let mut gupster = Gupster::new(gup_schema(), b"e14");
    let mut store = XmlStore::new("gup.spcs.com");
    for u in 0..CC_USERS {
        let user = user_id(u);
        store
            .put_profile(
                Element::new("user")
                    .with_attr("id", user.clone())
                    .with_child(Element::new("presence").with_text("online")),
            )
            .expect("has id");
        gupster
            .register_component(
                &user,
                Path::parse(&format!("/user[@id='{user}']/presence")).expect("static"),
                StoreId::new("gup.spcs.com"),
            )
            .expect("valid");
    }
    store.drain_events();
    let mut pool = StorePool::new();
    pool.add(Box::new(store));
    let mut client = CachedClient::new(200, 3_600);
    let keys = MergeKeys::new();
    let zipf = Zipf::new(CC_USERS, 0.9);
    let mut r = rng(1414);
    for op in 0..CC_OPS {
        let user = user_id(zipf.sample(&mut r));
        let req = Path::parse(&format!("/user[@id='{user}']/presence")).expect("static");
        client
            .fetch(&mut gupster, &pool, &user, &req, &user, WeekTime::at(1, 10, 0), op as u64, &keys)
            .expect("covered");
    }
    let hub = gupster.telemetry();
    let c = hub.counter_snapshot();
    let hit_ratio = c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64;
    print_table(
        "E14c — caching front end, full pipeline (50 users, Zipf 0.9, 2k fetches)",
        &["counter", "value"],
        &[
            vec!["cache hits".into(), c.cache_hits.to_string()],
            vec!["cache misses".into(), c.cache_misses.to_string()],
            vec!["hit ratio".into(), pct(hit_ratio)],
            vec!["registry lookups".into(), c.lookups.to_string()],
            vec!["referrals issued".into(), c.referrals.to_string()],
            vec!["policy denials".into(), c.policy_denials.to_string()],
            vec!["signature verifications".into(), c.signature_verifications.to_string()],
        ],
    );
    println!();
    println!(
        "{}",
        hub.render_stage_table("E14c — per-stage latency through the caching front end")
    );
    super::dump_traces(&hub);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_raises_hit_ratio() {
        let run_theta = |theta: f64| {
            let zipf = Zipf::new(1_000, theta);
            let mut r = rng(2);
            let mut cache = ResultCache::new(50);
            let path = Path::parse("/user/presence").unwrap();
            for _ in 0..20_000 {
                let user = user_id(zipf.sample(&mut r));
                if cache.get(&user, &user, &path).is_none() {
                    cache.put(&user, &user, &path, vec![Element::new("presence")], 0);
                }
            }
            cache.hit_ratio()
        };
        assert!(run_theta(0.99) > run_theta(0.3) + 0.1);
    }

    #[test]
    fn invalidation_prevents_stale_reads() {
        let mut cache = ResultCache::new(10);
        let path = Path::parse("/user/presence").unwrap();
        cache.put("u", "u", &path, vec![Element::new("presence").with_text("0")], 0);
        cache.invalidate("u", &path);
        assert!(cache.get("u", "u", &path).is_none(), "stale entry must be gone");
    }

    #[test]
    fn runs() {
        super::run();
    }
}
