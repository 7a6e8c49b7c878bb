//! E22 — write path at scale: compacted changelogs, delta-encoded sync
//! sessions, write-through invalidation (DESIGN.md §13).
//!
//! A fleet of users each owns an N-replica star (hub + device replicas
//! of one address-book component). A seeded **write storm** lands edits
//! across the fleet, then every star is reconciled twice: once by
//! `gupster-oracle`'s [`NaivePlane`] through the pairwise
//! [`gupster_sync::two_way_sync`] session (the measured baseline *and*
//! the correctness oracle) and once by a [`SyncPlane`] through the delta
//! path (touched-path trie conflict pruning, dictionary-coded op
//! batches, post-sync log compaction). Both planes see the identical
//! storm; their converged hub documents are asserted **byte-identical**
//! before any number is reported.
//!
//! The rows carry what each plane did, counted off its
//! [`PlaneReport`]: op pairs examined for conflicts (the naive path
//! examines every new-A × new-B pair; the delta path only the trie's
//! candidate set) and bytes shipped (the naive session frames every op
//! with its full path string; the delta session ships an 8-byte header
//! plus a once-per-session dictionary entry). The acceptance bars — ≥5×
//! fewer pairs compared and ≥3× fewer bytes at the 10k-edit storm and
//! above — are asserted in-run; `bench_compare` then requires a quick
//! run to reproduce the checked-in `BENCH_sync.json` exactly, outside
//! its `wall_` fields.
//!
//! The `wall speedup (1 run)` column is one run's wall ratio, printed
//! for information only. It compares the 4-shard delta plane
//! with the oracle, which runs its stars serially, and it moves from
//! run to run while every count column stays put: three full runs on
//! an idle 2-vCPU VM read 1.2×–1.6× at 1 000 edits, 3.0×–5.3× at
//! 10 000 and 2.2×–4.2× at 100 000. One run resolves no change in it.
//!
//! The compaction column shows the other half of the story: after the
//! delta pass every replica's changelog truncates behind its live peer
//! anchors (the star makes anchors exact), while the naive plane
//! retains the full edit history forever.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gupster_core::{PlaneReport, SyncPlane};
use gupster_oracle::NaivePlane;
use gupster_rng::Rng;
use gupster_sync::ReconcilePolicy;
use gupster_telemetry::TelemetryHub;
use gupster_xml::{ArenaDoc, EditOp, Element, MergeKeys, NodePath};

use crate::benchjson::{self, Row};
use crate::table::{bytes as fmt_bytes, f2, print_table};
use crate::workload::rng;

/// Swept storm shapes: (total edits, device replicas per user, users).
/// Users grow slower than edits so per-star history deepens with scale
/// — that is where the naive pairwise scan goes quadratic.
const SCALES_FULL: [(usize, usize, usize); 3] =
    [(1_000, 2, 4), (10_000, 4, 8), (100_000, 8, 64)];
const SCALES_QUICK: [(usize, usize, usize); 2] = [(1_000, 2, 4), (10_000, 4, 8)];
/// Shard partitions of the plane (outcomes are shard-count invariant).
const SHARDS: usize = 4;
/// Items in each user's baseline address book. Each replica (hub
/// included) owns a [`SLICE`]-item band it re-edits over and over —
/// the presence-update shape: every op relays to every other replica,
/// and a session's paths repeat enough for the dictionary codec to
/// amortize. Edits land in the replica's own band except for the
/// [`SHARED_BASE`].. tail, a hot set all replicas fight over, so the
/// conflict machinery is genuinely exercised too.
const BOOK_ITEMS: usize = 40;
/// Items in each replica's private band.
const SLICE: usize = 4;
/// First index of the cross-replica hot set (`SHARED_BASE..BOOK_ITEMS`).
const SHARED_BASE: usize = 36;
/// One edit in this many targets the shared hot set.
const SHARED_EVERY: usize = 10;
/// One storm edit in this many inserts a fresh item at the book root.
/// Root-parented inserts sit on the trie's root node — an ancestor of
/// every probe — so they are deliberately rare, as profile-item
/// creation is next to field edits.
const INSERT_EVERY: usize = 128;
/// Acceptance floors, enforced in-run at `GATE_SCALE` edits and above.
const COMPARED_RATIO_FLOOR: f64 = 5.0;
const BYTES_RATIO_FLOOR: f64 = 3.0;
const GATE_SCALE: u64 = 10_000;

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

fn base_book() -> Element {
    let mut book = Element::new("address-book");
    for i in 0..BOOK_ITEMS {
        book.push_child(
            Element::new("item")
                .with_attr("id", format!("c{i:03}"))
                .with_child(Element::new("name").with_text(format!("Contact {i}"))),
        );
    }
    book
}

/// One storm edit: which user, which replica (`device == devices` means
/// the hub — a portal-side write), and the op itself.
type StormEdit = (usize, usize, EditOp);

/// A seeded storm over the fleet: mostly `SetText`s in the editing
/// replica's own item band (repeated field updates, all of which must
/// relay fleet-wide), a slice on the shared hot set (two replicas
/// renaming the same contact is the canonical Req. 6 conflict), and
/// rare fresh inserts. The same storm is replayed onto both planes, so
/// naive and delta reconcile identical histories.
fn storm(edits: usize, devices: usize, users: usize, seed: u64) -> Vec<StormEdit> {
    assert!((devices + 1) * SLICE <= SHARED_BASE, "replica bands must fit the book");
    let mut r = rng(seed);
    (0..edits)
        .map(|i| {
            let user = r.gen_range(0..users as u32) as usize;
            let replica = r.gen_range(0..devices as u32 + 1) as usize; // == devices → hub
            let op = if i % INSERT_EVERY == INSERT_EVERY - 1 {
                EditOp::Insert {
                    parent: NodePath::root(),
                    element: Element::new("item").with_attr("id", format!("n{i:06}")),
                }
            } else {
                let off = r.gen_range(0..SLICE as u32) as usize;
                let item = if i % SHARED_EVERY == SHARED_EVERY - 1 {
                    SHARED_BASE + off
                } else {
                    replica * SLICE + off
                };
                EditOp::SetText {
                    path: NodePath::root().keyed("item", "id", format!("c{item:03}")).child("name", 0),
                    text: format!("s{}", r.gen_range(0..97u32)),
                }
            };
            (user, replica, op)
        })
        .collect()
}

struct PlaneRun {
    report: PlaneReport,
    wall: Duration,
    /// Changelog entries retained across the whole fleet after the pass.
    log_entries: usize,
    /// Converged hub documents, one per user in owner order.
    hub_docs: Vec<ArenaDoc>,
}

/// The calls a storm run makes, on the delta plane and on the oracle.
trait Plane {
    fn add_user(&mut self, owner: &str, devices: usize);
    /// Applies a storm edit to a device, or to the hub when `device` is
    /// `None`.
    fn edit(&mut self, owner: &str, device: Option<usize>, op: EditOp);
    fn reconcile(&mut self, hub: &Arc<TelemetryHub>) -> PlaneReport;
    fn hub_doc(&self, owner: &str) -> &ArenaDoc;
    fn log_entries(&self) -> usize;
}

impl Plane for SyncPlane {
    fn add_user(&mut self, owner: &str, devices: usize) {
        SyncPlane::add_user(self, owner, base_book(), keys(), devices);
    }
    fn edit(&mut self, owner: &str, device: Option<usize>, op: EditOp) {
        match device {
            Some(device) => self.edit_device(owner, device, op),
            None => self.edit_hub(owner, op),
        }
        .expect("storm edits apply");
    }
    fn reconcile(&mut self, hub: &Arc<TelemetryHub>) -> PlaneReport {
        SyncPlane::reconcile(self, hub)
    }
    fn hub_doc(&self, owner: &str) -> &ArenaDoc {
        SyncPlane::hub_doc(self, owner)
    }
    fn log_entries(&self) -> usize {
        SyncPlane::log_entries(self)
    }
}

impl Plane for NaivePlane {
    fn add_user(&mut self, owner: &str, devices: usize) {
        NaivePlane::add_user(self, owner, base_book(), keys(), devices);
    }
    fn edit(&mut self, owner: &str, device: Option<usize>, op: EditOp) {
        match device {
            Some(device) => self.edit_device(owner, device, op),
            None => self.edit_hub(owner, op),
        }
        .expect("storm edits apply");
    }
    fn reconcile(&mut self, _hub: &Arc<TelemetryHub>) -> PlaneReport {
        NaivePlane::reconcile(self)
    }
    fn hub_doc(&self, owner: &str) -> &ArenaDoc {
        NaivePlane::hub_doc(self, owner)
    }
    fn log_entries(&self) -> usize {
        NaivePlane::log_entries(self)
    }
}

/// Runs one storm through the oracle plane when `oracle`, else through
/// a [`SHARDS`]-shard delta plane.
fn run_plane(devices: usize, users: usize, storm: &[StormEdit], oracle: bool) -> PlaneRun {
    let hub = Arc::new(TelemetryHub::new());
    let mut plane: Box<dyn Plane> = if oracle {
        Box::new(NaivePlane::new(ReconcilePolicy::LastWriterWins))
    } else {
        Box::new(SyncPlane::new(SHARDS, ReconcilePolicy::LastWriterWins))
    };
    for u in 0..users {
        plane.add_user(&format!("user{u:03}"), devices);
    }
    for (user, replica, op) in storm {
        let device = (*replica != devices).then_some(*replica);
        plane.edit(&format!("user{user:03}"), device, op.clone());
    }
    let t0 = Instant::now();
    let report = plane.reconcile(&hub);
    let wall = t0.elapsed();
    let hub_docs = (0..users).map(|u| plane.hub_doc(&format!("user{u:03}")).clone()).collect();
    PlaneRun { report, wall, log_entries: plane.log_entries(), hub_docs }
}

/// Runs one storm shape through both planes, asserts the delta path
/// against the oracle, and reports the row.
fn run_config(edits: usize, devices: usize, users: usize, rows_out: &mut Vec<Row>) -> Vec<String> {
    let storm = storm(edits, devices, users, 2200 + edits as u64);
    let naive = run_plane(devices, users, &storm, true);
    let delta = run_plane(devices, users, &storm, false);

    // Correctness before any number: both planes fully converge, and
    // the converged documents are byte-identical replica for replica
    // (every device equals its hub — that is what `converged` asserts —
    // so hub equality pins the whole fleet).
    assert_eq!(naive.report.converged_users, users, "oracle plane must converge");
    assert_eq!(delta.report.converged_users, users, "delta plane must converge");
    assert_eq!(
        delta.hub_docs, naive.hub_docs,
        "delta-converged documents must be byte-identical to the oracle's at {edits} edits"
    );
    assert_eq!(delta.report.conflicts, naive.report.conflicts);
    assert_eq!(delta.report.shipped, naive.report.shipped);

    let (n, d) = (&naive.report, &delta.report);
    let compared_ratio = n.compared as f64 / d.compared.max(1) as f64;
    let bytes_ratio = n.bytes_exchanged as f64 / d.bytes_exchanged.max(1) as f64;
    if edits as u64 >= GATE_SCALE {
        assert!(
            compared_ratio >= COMPARED_RATIO_FLOOR,
            "acceptance: ≥{COMPARED_RATIO_FLOOR}× fewer pairs compared at {edits} edits, \
             got {compared_ratio:.1}×"
        );
        assert!(
            bytes_ratio >= BYTES_RATIO_FLOOR,
            "acceptance: ≥{BYTES_RATIO_FLOOR}× fewer bytes at {edits} edits, got {bytes_ratio:.1}×"
        );
    }

    let wall_ops = |run: &PlaneRun| edits as f64 / run.wall.as_secs_f64().max(1e-9);
    rows_out.push(
        Row::new("sync")
            .count("edits", edits as u64)
            .count("shipped", n.shipped as u64)
            .count("conflicts", n.conflicts as u64)
            .count("naive_compared", n.compared as u64)
            .count("delta_compared", d.compared as u64)
            .count("naive_bytes", n.bytes_exchanged as u64)
            .count("delta_bytes", d.bytes_exchanged as u64)
            .count("delta_compacted", d.compacted as u64)
            .real("wall_naive_ops", wall_ops(&naive))
            .real("wall_delta_ops", wall_ops(&delta)),
    );
    vec![
        format!("{edits}"),
        format!("{users}x{devices}"),
        n.compared.to_string(),
        d.compared.to_string(),
        format!("{compared_ratio:.1}x"),
        fmt_bytes(n.bytes_exchanged),
        fmt_bytes(d.bytes_exchanged),
        f2(bytes_ratio),
        format!("{:.1}x", wall_ops(&delta) / wall_ops(&naive)),
        d.compacted.to_string(),
        format!("{}/{}", delta.log_entries, naive.log_entries),
    ]
}

/// Runs the experiment.
pub fn run() {
    println!("\nE22 — write path at scale ({} sweep)", super::mode());
    let scales: &[(usize, usize, usize)] =
        if super::quick() { &SCALES_QUICK } else { &SCALES_FULL };
    let mut rows: Vec<Row> = Vec::new();
    let mut table = Vec::new();
    for &(edits, devices, users) in scales {
        table.push(run_config(edits, devices, users, &mut rows));
    }
    print_table(
        &format!(
            "E22 — naive vs delta reconciliation over {SHARDS}-shard replica fleets \
             (LWW, {BOOK_ITEMS}-item books, docs oracle-checked)"
        ),
        &[
            "edits",
            "fleet",
            "naive compared",
            "delta compared",
            "ratio",
            "naive bytes",
            "delta bytes",
            "ratio",
            "wall speedup (1 run)",
            "compacted",
            "log after (d/n)",
        ],
        &table,
    );
    println!(
        "  wall speedup: one run's wall ratio of the {SHARDS}-shard delta plane over the serial \
         oracle, informative only; it moves run to run (3.0x-5.3x at 10 000 edits over three \
         runs). The counts are the measurement."
    );
    println!(
        "  paper check: Req. 6/7 sync at fleet scale — the delta session compares only \
         trie-matched op pairs and ships dictionary-coded batches, and compaction caps \
         every changelog at its live peer anchors; the naive plane re-pays the full \
         pairwise scan and full-path framing on every session."
    );

    benchjson::write("e22_sync_storm", "BENCH_sync.json", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_matches_oracle_and_prunes() {
        let storm = storm(400, 3, 4, 7);
        let naive = run_plane(3, 4, &storm, true);
        let delta = run_plane(3, 4, &storm, false);
        assert_eq!(delta.hub_docs, naive.hub_docs);
        assert_eq!(delta.report.converged_users, 4);
        assert_eq!(delta.report.conflicts, naive.report.conflicts);
        assert!(delta.report.compared <= naive.report.compared);
        assert!(delta.report.bytes_exchanged < naive.report.bytes_exchanged);
        // Compaction ran on the delta plane only.
        assert!(delta.log_entries < naive.log_entries);
    }

    #[test]
    fn storms_are_deterministic() {
        let a = storm(64, 2, 3, 11);
        let b = storm(64, 2, 3, 11);
        assert_eq!(a.len(), b.len());
        for ((ua, ra, oa), (ub, rb, ob)) in a.iter().zip(&b) {
            assert_eq!((ua, ra), (ub, rb));
            assert_eq!(format!("{oa:?}"), format!("{ob:?}"));
        }
    }
}
