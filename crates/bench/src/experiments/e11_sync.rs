//! E11 — Requirements 6 & 7: synchronizing the phone's address book
//! with the portal's under concurrent editing. Conflict rates, per-
//! policy outcomes, convergence and bytes (incremental vs. whole-
//! document shipping), tallied from each session's `SyncReport`.

use gupster_sync::{two_way_sync, ReconcilePolicy, Replica};
use gupster_xml::{EditOp, Element, MergeKeys, NodePath};

use crate::table::{bytes, f2, print_table};
use crate::workload::rng;
use gupster_rng::Rng;

fn base_book(entries: usize) -> Element {
    let mut book = Element::new("address-book");
    for i in 0..entries {
        book.push_child(
            Element::new("item")
                .with_attr("id", i.to_string())
                .with_child(Element::new("name").with_text(format!("Contact {i}")))
                .with_child(Element::new("phone").with_text(format!("908-555-{i:04}"))),
        );
    }
    book
}

#[derive(Default)]
struct Outcome {
    sessions: usize,
    shipped: usize,
    conflicts: usize,
    converged_rounds: usize,
    fast_bytes: usize,
    slow_syncs: usize,
    queued: usize,
}

fn drive(
    policy: ReconcilePolicy,
    rounds: usize,
    edits_per_round: usize,
    seed: u64,
) -> Outcome {
    const HOT_SET: usize = 30; // both sides edit a hot subset → real conflicts
    let keys = MergeKeys::new().with_key("item", "id");
    let book = base_book(100);
    let mut phone = Replica::new("phone", book.clone(), keys.clone());
    let mut portal = Replica::new("gup.yahoo.com", book, keys);
    let mut r = rng(seed);
    let mut out = Outcome::default();

    for round in 0..rounds {
        for side in 0..2 {
            for _ in 0..edits_per_round {
                let id = r.gen_range(0..HOT_SET).to_string();
                let op = EditOp::SetText {
                    path: NodePath::root().keyed("item", "id", &id).child("name", 0),
                    text: format!("edit-r{round}-s{side}-{}", r.gen_range(0..1000)),
                };
                let replica = if side == 0 { &mut phone } else { &mut portal };
                let _ = replica.edit(op);
            }
        }
        let report = two_way_sync(&mut phone, &mut portal, policy).expect("same component");
        out.sessions += 1;
        out.shipped += report.shipped_to_first + report.shipped_to_second;
        out.conflicts += report.conflicts;
        out.fast_bytes += report.bytes_exchanged;
        out.slow_syncs += report.slow_sync as usize;
        out.queued += report.queued.len();
        if report.converged {
            out.converged_rounds += 1;
        }
    }
    out
}

/// Runs the experiment.
pub fn run() {
    const ROUNDS: usize = 50;
    let whole_doc = base_book(100).byte_size() * 2 * ROUNDS; // naive both-ways shipping
    let mut rows = Vec::new();
    let mut total = Outcome::default();
    for (name, policy) in [
        ("last-writer-wins", ReconcilePolicy::LastWriterWins),
        ("prefer portal (site priority)", ReconcilePolicy::PreferSecond),
        ("prefer phone (site priority)", ReconcilePolicy::PreferFirst),
        ("manual queue", ReconcilePolicy::Manual),
    ] {
        let o = drive(policy, ROUNDS, 3, 9);
        total.sessions += o.sessions;
        total.shipped += o.shipped;
        total.conflicts += o.conflicts;
        total.slow_syncs += o.slow_syncs;
        rows.push(vec![
            name.to_string(),
            o.conflicts.to_string(),
            format!("{}/{ROUNDS}", o.converged_rounds),
            o.slow_syncs.to_string(),
            o.queued.to_string(),
            bytes(o.fast_bytes),
            f2(whole_doc as f64 / o.fast_bytes.max(1) as f64),
        ]);
    }
    print_table(
        "E11 / Req. 6–7 — two-way sync under concurrent edits (100 entries, 3 edits/side/round on a 30-entry hot set)",
        &[
            "reconciliation policy",
            "conflicts",
            "converged rounds",
            "slow syncs",
            "queued",
            "bytes shipped",
            "naive/incremental ratio",
        ],
        &rows,
    );
    println!(
        "  sync counts: sessions={} ops shipped={} conflicts={} slow paths={}",
        total.sessions, total.shipped, total.conflicts, total.slow_syncs
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lww_converges_and_ships_less_than_whole_docs() {
        let o = drive(ReconcilePolicy::LastWriterWins, 20, 2, 3);
        assert_eq!(o.converged_rounds, 20, "LWW must converge every round");
        let whole = base_book(100).byte_size() * 2 * 20;
        assert!(o.fast_bytes < whole, "{} vs {whole}", o.fast_bytes);
        assert_eq!(o.sessions, 20);
    }

    #[test]
    fn manual_policy_queues_conflicts() {
        let o = drive(ReconcilePolicy::Manual, 10, 5, 4);
        assert!(o.queued > 0);
    }

    #[test]
    fn runs() {
        super::run();
    }
}
