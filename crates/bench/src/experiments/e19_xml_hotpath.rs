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
//! The CI-gated columns are **simulated ops/sec** from the
//! deterministic work-unit model below (units ≈ ns on the reference
//! cost model: 16 units per allocated node, 1 per copied or per-char
//! escaped byte, 2 per flat-table record or grafted subtree). Wall
//! columns are informative only. Rows land in `BENCH_xml.json`;
//! `bench_compare` fails the build unless a quick run reproduces the
//! checked-in file exactly, and `run()` asserts the acceptance bar
//! directly: ≥2× on `merge_all` at the largest scale swept.

use std::time::Instant;

use gupster_xml::{
    merge, merge_arena_all, parse, ArenaDoc, Element, MergeKeys, MergeOut, MergeStats,
};

use crate::benchjson::{render_named, BenchRow};
use crate::table::{f2, print_table};
use crate::workload::rng;
use gupster_rng::Rng;

/// Fragments per referral (stores a profile is scattered across).
const FRAGMENTS: usize = 8;
/// Address-book items per profile, swept smallest to largest.
const SCALES: [usize; 3] = [64, 512, 4096];

/// Work units per freshly allocated owned node (strings + vecs).
const UNIT_ALLOC_NODE: u64 = 16;
/// Work units per flat arena record or grafted shared subtree.
const UNIT_FLAT_RECORD: u64 = 2;

fn quick_mode() -> bool {
    std::env::var("GUPSTER_E19_QUICK").map(|v| v == "1").unwrap_or(false)
}

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

struct StageCells {
    /// (owned_units, arena_units, owned_wall, arena_wall, mean_candidates)
    parse: (u64, u64, f64, f64, f64),
    merge_all: (u64, u64, f64, f64, f64),
    serialize: (u64, u64, f64, f64, f64),
}

/// Runs all three stages at one scale and checks the two paths agree
/// byte-for-byte before costing anything.
fn stage_pass(n: usize, seed: u64) -> StageCells {
    let srcs = fragment_sources(n, seed);
    let keys = keys();
    let reps = (200_000 / n.max(1)).clamp(2, 400);

    // -- parse ---------------------------------------------------------
    let owned: Vec<Element> = srcs.iter().map(|s| parse(s).expect("valid")).collect();
    let docs: Vec<ArenaDoc> = srcs.iter().map(|s| ArenaDoc::parse(s).expect("valid")).collect();
    for (e, d) in owned.iter().zip(&docs) {
        assert_eq!(&d.root_element(), e, "arena parse diverged from owned");
    }
    let src_bytes: u64 = srcs.iter().map(|s| s.len() as u64).sum();
    let owned_nodes: u64 = owned.iter().map(|e| e.subtree_size() as u64).sum();
    let parse_owned_units = UNIT_ALLOC_NODE * owned_nodes + src_bytes;
    let copied: u64 = docs.iter().map(|d| d.owned_value_bytes() as u64).sum();
    let arena_nodes: u64 = docs.iter().map(|d| d.node_count() as u64).sum();
    let parse_arena_units = UNIT_FLAT_RECORD * arena_nodes + copied;
    let parse_owned_wall = wall_ops(reps, || {
        for s in &srcs {
            std::hint::black_box(parse(s).expect("valid"));
        }
    });
    let parse_arena_wall = wall_ops(reps, || {
        for s in &srcs {
            std::hint::black_box(ArenaDoc::parse(s).expect("valid"));
        }
    });
    let copied_fraction = copied as f64 / src_bytes.max(1) as f64;

    // -- merge_all -----------------------------------------------------
    // The owned fold's cost is what it clones: the whole accumulated
    // result, every round.
    let mut acc = owned[0].clone();
    let mut merge_owned_units: u64 = 0;
    for f in &owned[1..] {
        acc = merge(&acc, f, &keys).expect("mergeable");
        merge_owned_units += UNIT_ALLOC_NODE * acc.subtree_size() as u64;
    }
    let refs: Vec<&ArenaDoc> = docs.iter().collect();
    let merged: MergeOut<'_> = merge_arena_all(&refs, &keys).expect("mergeable");
    let stats: MergeStats = merged.stats();
    let merge_arena_units =
        UNIT_ALLOC_NODE * stats.fresh_nodes + UNIT_FLAT_RECORD * stats.shared_subtrees;
    assert_eq!(merged.to_element(), acc, "arena merge diverged from owned fold");
    let merge_owned_wall = wall_ops(reps, || {
        let mut acc = owned[0].clone();
        for f in &owned[1..] {
            acc = merge(&acc, f, &keys).expect("mergeable");
        }
        std::hint::black_box(acc);
    });
    let merge_arena_wall = wall_ops(reps, || {
        std::hint::black_box(merge_arena_all(&refs, &keys).expect("mergeable"));
    });
    let shared_per_fresh = stats.shared_nodes as f64 / stats.fresh_nodes.max(1) as f64;

    // -- serialize -----------------------------------------------------
    let owned_out = acc.to_xml();
    let arena_out = merged.to_xml();
    assert_eq!(arena_out, owned_out, "arena serializer diverged from owned");
    let out_bytes = owned_out.len() as u64;
    let out_nodes = acc.subtree_size() as u64;
    let ser_owned_units = UNIT_ALLOC_NODE * out_nodes + 4 * out_bytes;
    let ser_arena_units = UNIT_FLAT_RECORD * out_nodes + out_bytes;
    let ser_owned_wall = wall_ops(reps, || {
        std::hint::black_box(acc.to_xml());
    });
    let ser_arena_wall = wall_ops(reps, || {
        std::hint::black_box(merged.to_xml());
    });

    StageCells {
        parse: (parse_owned_units, parse_arena_units, parse_owned_wall, parse_arena_wall, copied_fraction),
        merge_all: (merge_owned_units, merge_arena_units, merge_owned_wall, merge_arena_wall, shared_per_fresh),
        serialize: (ser_owned_units, ser_arena_units, ser_owned_wall, ser_arena_wall, out_bytes as f64 / out_nodes.max(1) as f64),
    }
}

/// Simulated ops/sec from work units (1 unit ≈ 1ns of model time).
fn sim_ops(units: u64) -> f64 {
    1e9 / units.max(1) as f64
}

fn sweep(quick: bool, rows: &mut Vec<BenchRow>) {
    let mut table: Vec<Vec<String>> = Vec::new();
    for &n in scales(quick) {
        let cells = stage_pass(n, 0xe19);
        for (kind, (ou, au, ow, aw, mc)) in [
            ("parse", cells.parse),
            ("merge_all", cells.merge_all),
            ("serialize", cells.serialize),
        ] {
            let (naive, indexed) = (sim_ops(ou), sim_ops(au));
            table.push(vec![
                kind.to_string(),
                n.to_string(),
                f2(naive),
                f2(indexed),
                f2(indexed / naive),
                f2(aw / ow.max(f64::MIN_POSITIVE)),
                f2(mc),
            ]);
            rows.push(BenchRow {
                kind: kind.to_string(),
                scale: n as u64,
                naive_sim_ops: naive,
                indexed_sim_ops: indexed,
                naive_wall_ops: ow,
                indexed_wall_ops: aw,
                mean_candidates: mc,
            });
        }
    }
    print_table(
        &format!("E19 — owned vs. arena XML hot path ({FRAGMENTS} fragments per referral)"),
        &["stage", "items", "owned sim ops/s", "arena sim ops/s", "sim speedup", "wall speedup", "detail"],
        &table,
    );
    println!(
        "  paper check: the registry's answer is assembled from per-store fragments on every \
         request — a zero-copy merge path keeps 'share everywhere' from costing a deep copy \
         everywhere. (detail: parse = copied-byte fraction, merge_all = shared nodes per fresh \
         node, serialize = bytes per node)"
    );
}

/// Runs the experiment.
pub fn run() {
    let quick = quick_mode();
    let mode = if quick { "quick" } else { "full" };
    println!("\nE19 — zero-copy XML hot path ({mode} sweep)");
    let mut rows: Vec<BenchRow> = Vec::new();
    sweep(quick, &mut rows);

    // Acceptance bar: ≥2× simulated merge throughput at the largest
    // scale swept in this mode.
    let largest = rows
        .iter()
        .filter(|r| r.kind == "merge_all")
        .max_by_key(|r| r.scale)
        .expect("merge rows");
    let ratio = largest.indexed_sim_ops / largest.naive_sim_ops;
    assert!(
        ratio >= 2.0,
        "structural-sharing merge below acceptance bar at scale {}: {ratio:.2}x",
        largest.scale
    );
    println!("  acceptance: merge_all at {} items: {:.1}x simulated speedup", largest.scale, ratio);

    let out = std::env::var("GUPSTER_BENCH_OUT").unwrap_or_else(|_| "BENCH_xml.json".into());
    match std::fs::write(&out, render_named("e19_xml_hotpath", mode, &rows)) {
        Ok(()) => println!("\n  wrote {} rows to {out}", rows.len()),
        Err(e) => eprintln!("  cannot write {out}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_agree_and_merge_clears_bar_at_small_scale() {
        let cells = stage_pass(64, 7);
        // stage_pass already asserts byte-identity; check the model
        // favors the arena on every stage at even the smallest scale.
        let (ou, au, ..) = cells.merge_all;
        assert!(sim_ops(au) / sim_ops(ou) >= 2.0, "merge sharing ratio collapsed");
        let (pou, pau, ..) = cells.parse;
        assert!(pau < pou, "arena parse should cost fewer work units");
        let (sou, sau, ..) = cells.serialize;
        assert!(sau < sou, "arena serialize should cost fewer work units");
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
