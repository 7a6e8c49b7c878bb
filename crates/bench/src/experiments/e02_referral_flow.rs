//! E2 — Figure 7 / §4.3: the end-to-end referral flow, with a latency
//! breakdown per phase (register → lookup → direct fetch → merge).

use gupster_core::{fetch_merge_traced, Gupster, StorePool};
use gupster_netsim::{Domain, Network, SimTime};
use gupster_policy::{Purpose, WeekTime};
use gupster_schema::gup_schema;
use gupster_store::{DataStore, StoreId, XmlStore};
use gupster_telemetry::stage;
use gupster_xml::MergeKeys;
use gupster_xpath::Path;

use crate::table::print_table;
use crate::workload::profile_with_contacts;

/// Runs the experiment.
pub fn run() {
    let mut net = Network::new(2003);
    let client = net.add_node("alice-phone", Domain::Client);
    let gupster_node = net.add_node("gupster.net", Domain::Internet);
    let yahoo_node = net.add_node("gup.yahoo.com", Domain::Internet);

    let mut gupster = Gupster::new(gup_schema(), b"e2");
    let mut yahoo = XmlStore::new("gup.yahoo.com");
    yahoo.put_profile(profile_with_contacts("alice", 40)).expect("has id");
    yahoo.drain_events();
    gupster
        .register_component(
            "alice",
            Path::parse("/user[@id='alice']/address-book").expect("static"),
            StoreId::new("gup.yahoo.com"),
        )
        .expect("valid");
    let mut pool = StorePool::new();
    pool.add(Box::new(yahoo));

    let request = Path::parse("/user[@id='alice']/address-book").expect("static");
    let keys = MergeKeys::new().with_key("item", "id");
    const TRIALS: usize = 200;
    let mut lookup_t = Vec::new();
    let mut fetch_t = Vec::new();
    let mut totals = Vec::new();

    let hub = gupster.telemetry();
    for trial in 0..TRIALS {
        let now = trial as u64;
        let mut tracer = hub.tracer("e2.referral_flow");
        net.begin_request(tracer.request().0);
        let out = gupster
            .lookup_traced(
                "alice",
                &request,
                "alice",
                Purpose::Query,
                WeekTime::at(1, 10, 0),
                now,
                &mut tracer,
            )
            .expect("covered");
        let t_lookup =
            net.rpc(client, gupster_node, 96, out.referral.byte_size());
        tracer.span(stage::NET_LOOKUP, t_lookup);
        let store = pool.get(&StoreId::new("gup.yahoo.com")).expect("added");
        let frag_bytes = store.result_bytes(&out.referral.entries[0].path);
        let t_fetch = net.rpc(client, yahoo_node, out.referral.token.byte_size() + 32, frag_bytes);
        tracer.span(stage::NET_FETCH, t_fetch);
        let signer = gupster.signer();
        let result: Vec<_> =
            fetch_merge_traced(&pool, &out.referral, &signer, now, &keys, &mut tracer)
                .expect("fetches");
        net.end_request();
        assert_eq!(result.len(), 1);
        lookup_t.push(t_lookup);
        fetch_t.push(t_fetch);
        totals.push(t_lookup + t_fetch);
    }

    let stat = |v: &mut Vec<SimTime>| {
        v.sort();
        let mean = SimTime((v.iter().map(|t| t.0).sum::<u64>()) / v.len() as u64);
        let p95 = v[(v.len() * 95) / 100 - 1];
        (mean, p95)
    };
    let (lm, lp) = stat(&mut lookup_t);
    let (fm, fp) = stat(&mut fetch_t);
    let (tm, tp) = stat(&mut totals);

    print_table(
        "E2 / Figure 7 — referral flow latency breakdown (200 trials, 40-entry book)",
        &["Phase", "mean", "p95"],
        &[
            vec!["lookup (client → GUPster, referral back)".into(), lm.to_string(), lp.to_string()],
            vec!["direct fetch (client → data store)".into(), fm.to_string(), fp.to_string()],
            vec!["end-to-end".into(), tm.to_string(), tp.to_string()],
        ],
    );
    println!(
        "  paper check: call-delivery class budget (Req. 13, 'hundreds of milliseconds') holds = {}",
        tp < SimTime::millis(500)
    );
    println!();
    println!(
        "{}",
        hub.render_stage_table("E2 — per-stage latency, 200 traced referral requests")
    );
    super::dump_traces(&hub);
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs() {
        super::run();
    }
}
