//! E10 — §5.2: push subscriptions vs. polling at equal staleness
//! targets. The paper's point: "every polling request needs to be
//! checked to enforce the end-user's privacy shield. Having the
//! subscription handled by GUPster internally would save this extra
//! work."

use gupster_core::subs::ShardedFanout;
use gupster_core::{Gupster, StorePool};
use gupster_policy::{Effect, Purpose, WeekTime};
use gupster_schema::gup_schema;
use gupster_store::{DataStore, StoreId, UpdateOp, XmlStore};
use gupster_xml::parse;
use gupster_xpath::Path;

use crate::table::print_table;
use crate::workload::rng;
use gupster_rng::Rng;

struct SimResult {
    /// Calls into the privacy shield's enforcement point, memo hit or not.
    consultations: u64,
    /// Consultations the decision memo could not answer.
    pdp_evaluations: u64,
    messages: u64,
    mean_staleness_rounds: f64,
}

/// Simulates `rounds` rounds with per-round update probability
/// `update_p`; `poll_every` = None means push.
fn simulate(rounds: u32, update_p: f64, poll_every: Option<u32>, seed: u64) -> SimResult {
    let mut g = Gupster::new(gup_schema(), b"e10");
    let mut store = XmlStore::new("gup.spcs.com");
    store
        .put_profile(parse(r#"<user id="alice"><presence>v0</presence></user>"#).expect("static"))
        .expect("id");
    store.drain_events();
    g.register_component(
        "alice",
        Path::parse("/user[@id='alice']/presence").expect("static"),
        StoreId::new("gup.spcs.com"),
    )
    .expect("valid");
    g.set_relationship("alice", "rick", "co-worker");
    g.pap
        .provision("alice", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0)
        .expect("valid rule");
    let mut pool = StorePool::new();
    pool.add(Box::new(store));

    let path = Path::parse("/user[@id='alice']/presence").expect("static");
    let mut r = rng(seed);
    let mut subs = ShardedFanout::new(1);
    let mut messages = 0u64;
    let mut staleness_sum = 0u64;
    let mut staleness_samples = 0u64;
    let mut last_change: Option<u32> = None;

    if poll_every.is_none() {
        subs.subscribe(&mut g, "alice", &path, "rick", WeekTime::at(0, 12, 0), 0)
            .expect("permitted");
        messages += 1; // the subscribe itself
    }

    for round in 0..rounds {
        if r.gen_bool(update_p) {
            pool.update(
                &StoreId::new("gup.spcs.com"),
                "alice",
                &UpdateOp::SetText(Path::parse("/user/presence").expect("static"), format!("v{round}")),
            )
            .expect("applies");
            last_change = Some(round);
        }
        match poll_every {
            None => {
                // Every matched change passes the shield before it is sent.
                subs.stage_window(&g, &mut pool, WeekTime::at(0, 12, 0));
                let batches = subs.flush_window(&g);
                messages += batches.len() as u64;
                if !batches.is_empty() {
                    // Push delivers within the same round.
                    staleness_samples += 1;
                    last_change = None;
                }
            }
            Some(k) => {
                if round % k == 0 {
                    // A poll is a full lookup: shield check included.
                    let out = g.lookup(
                        "alice",
                        &path,
                        "rick",
                        Purpose::Query,
                        WeekTime::at(0, 12, 0),
                        round as u64,
                    );
                    messages += 2; // request + response
                    if out.is_ok() {
                        if let Some(changed_at) = last_change.take() {
                            staleness_sum += (round - changed_at) as u64;
                            staleness_samples += 1;
                        }
                    }
                }
            }
        }
    }
    let (_, lookup_hits, lookup_misses) = g.memo_stats();
    let (_, push_hits, push_misses) = subs.memo_stats();
    SimResult {
        consultations: lookup_hits + lookup_misses + push_hits + push_misses,
        pdp_evaluations: lookup_misses + push_misses,
        messages,
        mean_staleness_rounds: if staleness_samples == 0 {
            0.0
        } else {
            staleness_sum as f64 / staleness_samples as f64
        },
    }
}

/// Runs the experiment.
pub fn run() {
    const ROUNDS: u32 = 10_000;
    let mut rows = Vec::new();
    for update_p in [0.01f64, 0.1] {
        let push = simulate(ROUNDS, update_p, None, 42);
        rows.push(vec![
            format!("{update_p}"),
            "push (internal subscription)".into(),
            push.consultations.to_string(),
            push.pdp_evaluations.to_string(),
            push.messages.to_string(),
            format!("{:.2}", push.mean_staleness_rounds),
        ]);
        for k in [1u32, 10, 100] {
            let poll = simulate(ROUNDS, update_p, Some(k), 42);
            rows.push(vec![
                format!("{update_p}"),
                format!("poll every {k}"),
                poll.consultations.to_string(),
                poll.pdp_evaluations.to_string(),
                poll.messages.to_string(),
                format!("{:.2}", poll.mean_staleness_rounds),
            ]);
        }
    }
    print_table(
        &format!("E10 / §5.2 — push vs. poll over {ROUNDS} rounds"),
        &[
            "update rate",
            "mode",
            "shield consultations",
            "PDP evaluations",
            "messages",
            "mean staleness (rounds)",
        ],
        &rows,
    );
    println!(
        "  paper check: push consults the shield once to subscribe and once per delivered change; \
         polling once per poll, changed or not, and still lags."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_saves_shield_checks() {
        let push = simulate(1_000, 0.05, None, 1);
        let poll = simulate(1_000, 0.05, Some(10), 1);
        // One consultation for the subscribe and one per delivery, each
        // of which is one message.
        assert_eq!(push.consultations, push.messages);
        assert!(push.consultations < poll.consultations);
        assert_eq!(poll.consultations, 100);
        // The memo answers every repeat: push misses once per purpose
        // (subscribe, then query), polling once.
        assert_eq!((push.pdp_evaluations, poll.pdp_evaluations), (2, 1));
        // Push staleness is zero rounds by construction.
        assert_eq!(push.mean_staleness_rounds, 0.0);
        assert!(poll.mean_staleness_rounds >= 0.0);
    }

    #[test]
    fn frequent_polling_sends_more_messages_than_push_at_low_update_rates() {
        let push = simulate(2_000, 0.01, None, 2);
        let poll = simulate(2_000, 0.01, Some(1), 2);
        assert!(poll.messages > push.messages * 5, "poll={} push={}", poll.messages, push.messages);
    }
}
