//! E19 — the zero-copy XML hot path: owned trees vs. arena documents
//! (DESIGN.md §10).
//!
//! Three stages of the referral hot path are measured head-to-head on
//! the same seeded fragment sets, at three document scales:
//!
//! * **parse** — adopting fetched fragment text into a tree. The owned
//!   parser allocates a `String` per name, a buffer per attribute value
//!   and text run (each `Value` its own) and a `Vec` per element; the
//!   arena parser pushes fixed-width records
//!   onto flat tables and keeps values as byte ranges over the retained
//!   input, copying only entity-escaped runs.
//! * **merge_all** — deep-unioning the fragments of one referral. The
//!   owned fold clones every node of the accumulated result each round;
//!   the structural-sharing merge builds a fresh spine and grafts
//!   unchanged subtrees by id.
//! * **serialize** — rendering the merged result. The owned writer
//!   escapes per character into per-node strings; the arena writer
//!   scan-first-copies whole clean runs.
//!
//! Both paths are asserted byte-identical before anything is timed —
//! the speedup is only worth reporting if the answers agree.
//!
//! The CI-gated fields are **work counts**: tree nodes and arena
//! records built, source and copied bytes on parse; nodes the owned
//! fold allocates against the fresh, shared and grafted nodes of the
//! arena merge; nodes and bytes written on serialize. The `wall_`
//! fields are informative only. Rows land in `BENCH_xml.json`;
//! `bench_compare` fails the build unless a quick run reproduces the
//! checked-in file exactly, and `run()` asserts the acceptance bar
//! directly: the owned fold allocates ≥2× the nodes the arena merge
//! does at the largest scale swept. The measured wall ratio is printed
//! beside it.
//!
//! The `wall speedup (1 run)` column is one run's ratio of the
//! `wall_arena_ops` and `wall_owned_ops` fields, printed for
//! information only. It moves from run to run while every count column
//! stays put: five quick runs of one binary on an idle 2-vCPU VM read
//! the 64-item owned parse at 7 316–13 249 ops/s. One run resolves no
//! parser or merge speed difference smaller than that.

use std::time::Instant;

use gupster_xml::{
    merge, merge_arena_all, parse, ArenaDoc, Element, MergeKeys, MergeOut, MergeStats,
};

use crate::benchjson::{self, Row};
use crate::table::{f2, print_table};
use crate::workload::rng;
use gupster_rng::Rng;

/// Fragments per referral (stores a profile is scattered across).
const FRAGMENTS: usize = 8;
/// Address-book items per profile, swept smallest to largest.
const SCALES: [usize; 3] = [64, 512, 4096];

/// Acceptance floor: owned-fold nodes allocated per arena-merge fresh
/// node at the largest scale swept.
const MERGE_FLOOR: f64 = 2.0;

fn scales(quick: bool) -> &'static [usize] {
    if quick {
        &SCALES[..2]
    } else {
        &SCALES[..]
    }
}

/// One referral's worth of fragment sources: `n` keyed items scattered
/// round-robin over [`FRAGMENTS`] per-store slices of one user's
/// address book, with enough entity-escaped text to exercise the
/// escape scanners on both sides.
fn fragment_sources(n: usize, seed: u64) -> Vec<String> {
    let mut r = rng(seed);
    let mut frags: Vec<Element> = (0..FRAGMENTS)
        .map(|_| {
            Element::new("user")
                .with_attr("id", "alice")
                .with_child(Element::new("address-book"))
        })
        .collect();
    for i in 0..n {
        let name = if r.gen_bool(0.2) {
            format!("Dupont & Dupond <{i}>")
        } else {
            format!("Contact {i}")
        };
        let item = Element::new("item")
            .with_attr("id", i.to_string())
            .with_attr("type", if r.gen_bool(0.5) { "personal" } else { "work" })
            .with_child(Element::new("name").with_text(name))
            .with_child(
                Element::new("phone").with_text(format!("+1-908-582-{:04}", r.gen_range(0u32..10_000))),
            );
        match &mut frags[i % FRAGMENTS].children[0] {
            gupster_xml::Node::Element(book) => book.push_child(item),
            gupster_xml::Node::Text(_) => unreachable!("book is an element"),
        }
    }
    frags.iter().map(Element::to_xml).collect()
}

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

/// Wall-clock ops/sec of `body` over `reps` repetitions.
fn wall_ops(reps: usize, mut body: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        body();
    }
    let dt = t0.elapsed().as_secs_f64();
    if dt > 0.0 {
        reps as f64 / dt
    } else {
        0.0
    }
}

/// What the merge floor reads at one scale: owned-fold nodes allocated
/// per arena-merge fresh node, and the merge's wall speedup.
struct MergeReading {
    ratio: f64,
    wall: f64,
}

/// Runs all three stages at one scale, checks the two paths agree
/// byte-for-byte before counting anything, and adds one row and one
/// table line per stage.
fn stage_pass(n: usize, seed: u64, rows: &mut Vec<Row>, table: &mut Vec<Vec<String>>) -> MergeReading {
    let srcs = fragment_sources(n, seed);
    let keys = keys();
    let reps = (200_000 / n.max(1)).clamp(2, 400);
    let mut add = |row: Row, work: String, (owned, arena): (f64, f64)| {
        let speedup = arena / owned.max(f64::MIN_POSITIVE);
        table.push(vec![row.kind.to_string(), n.to_string(), work, f2(speedup)]);
        rows.push(row.real("wall_owned_ops", owned).real("wall_arena_ops", arena));
        speedup
    };

    // -- parse ---------------------------------------------------------
    let owned: Vec<Element> = srcs.iter().map(|s| parse(s).expect("valid")).collect();
    let docs: Vec<ArenaDoc> = srcs.iter().map(|s| ArenaDoc::parse(s).expect("valid")).collect();
    for (e, d) in owned.iter().zip(&docs) {
        assert_eq!(&d.root_element(), e, "arena parse diverged from owned");
    }
    let src_bytes: u64 = srcs.iter().map(|s| s.len() as u64).sum();
    let nodes: u64 = owned.iter().map(|e| e.subtree_size() as u64).sum();
    let records: u64 = docs.iter().map(|d| d.node_count() as u64).sum();
    let copied: u64 = docs.iter().map(|d| d.owned_value_bytes() as u64).sum();
    assert!(copied < src_bytes, "the arena parse copies only escaped runs");
    add(
        Row::new("parse")
            .count("items", n as u64)
            .count("source_bytes", src_bytes)
            .count("owned_nodes", nodes)
            .count("arena_records", records)
            .count("arena_copied_bytes", copied),
        format!("{nodes} nodes / {records} records; {copied} of {src_bytes} bytes copied"),
        (
            wall_ops(reps, || {
                for s in &srcs {
                    std::hint::black_box(parse(s).expect("valid"));
                }
            }),
            wall_ops(reps, || {
                for s in &srcs {
                    std::hint::black_box(ArenaDoc::parse(s).expect("valid"));
                }
            }),
        ),
    );

    // -- merge_all -----------------------------------------------------
    // The owned fold allocates the whole accumulated result, every round.
    let mut acc = owned[0].clone();
    let mut fold_nodes: u64 = 0;
    for f in &owned[1..] {
        acc = merge(&acc, f, &keys).expect("mergeable");
        fold_nodes += acc.subtree_size() as u64;
    }
    let refs: Vec<&ArenaDoc> = docs.iter().collect();
    let merged: MergeOut<'_> = merge_arena_all(&refs, &keys).expect("mergeable");
    let stats: MergeStats = merged.stats();
    assert_eq!(merged.to_element(), acc, "arena merge diverged from owned fold");
    let ratio = fold_nodes as f64 / stats.fresh_nodes.max(1) as f64;
    let wall = add(
        Row::new("merge_all")
            .count("items", n as u64)
            .count("owned_nodes", fold_nodes)
            .count("arena_fresh_nodes", stats.fresh_nodes)
            .count("arena_shared_subtrees", stats.shared_subtrees)
            .count("arena_shared_nodes", stats.shared_nodes),
        format!(
            "{fold_nodes} nodes / {} fresh ({ratio:.1}x), {} shared in {} grafts",
            stats.fresh_nodes, stats.shared_nodes, stats.shared_subtrees
        ),
        (
            wall_ops(reps, || {
                let mut acc = owned[0].clone();
                for f in &owned[1..] {
                    acc = merge(&acc, f, &keys).expect("mergeable");
                }
                std::hint::black_box(acc);
            }),
            wall_ops(reps, || {
                std::hint::black_box(merge_arena_all(&refs, &keys).expect("mergeable"));
            }),
        ),
    );

    // -- serialize -----------------------------------------------------
    // Both writers emit the same nodes and bytes; only the wall differs.
    let out = acc.to_xml();
    assert_eq!(merged.to_xml(), out, "arena serializer diverged from owned");
    let out_nodes = acc.subtree_size() as u64;
    add(
        Row::new("serialize")
            .count("items", n as u64)
            .count("nodes", out_nodes)
            .count("bytes", out.len() as u64),
        format!("{out_nodes} nodes, {} bytes", out.len()),
        (
            wall_ops(reps, || {
                std::hint::black_box(acc.to_xml());
            }),
            wall_ops(reps, || {
                std::hint::black_box(merged.to_xml());
            }),
        ),
    );
    MergeReading { ratio, wall }
}

/// Sweeps every scale into `rows`; returns the largest scale and its
/// merge reading.
fn sweep(quick: bool, rows: &mut Vec<Row>) -> (usize, MergeReading) {
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut largest = None;
    for &n in scales(quick) {
        largest = Some((n, stage_pass(n, 0xe19, rows, &mut table)));
    }
    print_table(
        &format!("E19 — owned vs. arena XML hot path ({FRAGMENTS} fragments per referral)"),
        &["stage", "items", "work (owned / arena)", "wall speedup (1 run)"],
        &table,
    );
    println!(
        "  wall speedup: one run's wall_arena_ops / wall_owned_ops, informative only; it \
         moves run to run (up to ±40 % between back-to-back quick runs). The counts are the \
         measurement."
    );
    println!(
        "  paper check: the registry's answer is assembled from per-store fragments on every \
         request — a zero-copy merge path keeps 'share everywhere' from costing a deep copy \
         everywhere."
    );
    largest.expect("at least one scale")
}

/// Runs the experiment.
pub fn run() {
    println!("\nE19 — zero-copy XML hot path ({} sweep)", super::mode());
    let mut rows: Vec<Row> = Vec::new();
    let (n, merge) = sweep(super::quick(), &mut rows);

    // Acceptance bar: the owned fold allocates ≥2× the nodes the arena
    // merge builds, at the largest scale swept in this mode.
    assert!(
        merge.ratio >= MERGE_FLOOR,
        "structural-sharing merge below acceptance bar at scale {n}: {:.2}x",
        merge.ratio
    );
    println!(
        "  acceptance: merge_all at {n} items: {:.1}x fewer nodes allocated (wall, 1 run: {:.1}x)",
        merge.ratio, merge.wall
    );

    benchjson::write("e19_xml_hotpath", "BENCH_xml.json", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_and_merge_clears_bar_at_small_scale() {
        // stage_pass asserts byte-identity and that the arena parse
        // copies less than its source; check the merge floor holds at
        // even the smallest scale.
        let (mut rows, mut table) = (Vec::new(), Vec::new());
        let merge = stage_pass(64, 7, &mut rows, &mut table);
        assert!(merge.ratio >= MERGE_FLOOR, "merge sharing ratio collapsed");
        assert_eq!((rows.len(), table.len()), (3, 3));
    }

    #[test]
    fn fragment_sources_are_deterministic_and_disjoint() {
        let a = fragment_sources(64, 7);
        let b = fragment_sources(64, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), FRAGMENTS);
        // Every item id lands in exactly one fragment.
        let total: usize = a
            .iter()
            .map(|s| parse(s).expect("valid"))
            .map(|e| {
                e.children_named("address-book")
                    .next()
                    .expect("book")
                    .children_named("item")
                    .count()
            })
            .sum();
        assert_eq!(total, 64);
    }
}
