//! The per-experiment harness (DESIGN.md §4). Each `eN::run()` prints
//! the tables for that experiment; `run_all` runs the suite in order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use gupster_telemetry::TelemetryHub;

pub mod e01_placement;
pub mod e02_referral_flow;
pub mod e03_split_book;
pub mod e04_reach_me;
pub mod e05_patterns;
pub mod e06_mdm;
pub mod e07_scalability;
pub mod e08_ldap_vs_xml;
pub mod e09_policy;
pub mod e10_push_pull;
pub mod e11_sync;
pub mod e12_hlr;
pub mod e13_containment;
pub mod e14_cache;
pub mod e15_reliability;
pub mod e16_registry_scale;
pub mod e17_shards;
pub mod e18_observability;
pub mod e19_xml_hotpath;
pub mod e20_overload;
pub mod e21_fanout;
pub mod e22_sync_storm;

static QUICK: AtomicBool = AtomicBool::new(false);
static TRACE_OUT: OnceLock<PathBuf> = OnceLock::new();
/// Request-id offset for the next dumped hub, so traces from several
/// independent hubs never collide in one file.
static TRACE_BASE: AtomicU64 = AtomicU64::new(0);

/// Switches the scale experiments (e16–e22) to their reduced sweeps,
/// the ones the checked-in `BENCH_*.json` files record (the `--quick`
/// flag).
pub fn set_quick() {
    QUICK.store(true, Ordering::Relaxed);
}

/// Whether the reduced sweeps were asked for.
pub fn quick() -> bool {
    QUICK.load(Ordering::Relaxed)
}

/// The sweep mode every `BENCH_*.json` file records: `quick` or `full`.
pub fn mode() -> &'static str {
    if quick() {
        "quick"
    } else {
        "full"
    }
}

/// Routes span traces from instrumented experiments to `path` as JSON
/// lines (the `--trace-out` flag). First call wins.
pub fn set_trace_out(path: PathBuf) {
    let _ = std::fs::write(&path, ""); // start fresh per run
    let _ = TRACE_OUT.set(path);
}

/// Appends every finished span of `hub` to the `--trace-out` file.
/// No-op when tracing was not requested. Request ids are shifted by a
/// per-hub base so each dumped request stays a single rooted tree even
/// when several experiments (each with its own hub) write to one file.
pub fn dump_traces(hub: &TelemetryHub) {
    let Some(path) = TRACE_OUT.get() else { return };
    let mut spans = hub.spans();
    if spans.is_empty() {
        return;
    }
    let width = spans.iter().map(|s| s.request.0).max().unwrap_or(0) + 1;
    let base = TRACE_BASE.fetch_add(width, Ordering::Relaxed);
    for s in &mut spans {
        s.request.0 += base;
    }
    let text = gupster_telemetry::export::export(&spans);
    use std::io::Write;
    let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
    match file.and_then(|mut f| f.write_all(text.as_bytes())) {
        Ok(()) => {}
        Err(e) => eprintln!("trace-out: cannot write {}: {e}", path.display()),
    }
}

/// Runs one experiment by id (`e1`…`e22`), or `all`.
pub fn run(which: &str) -> bool {
    match which {
        "e1" => e01_placement::run(),
        "e2" => e02_referral_flow::run(),
        "e3" => e03_split_book::run(),
        "e4" => e04_reach_me::run(),
        "e5" => e05_patterns::run(),
        "e6" => e06_mdm::run(),
        "e7" => e07_scalability::run(),
        "e8" => e08_ldap_vs_xml::run(),
        "e9" => e09_policy::run(),
        "e10" => e10_push_pull::run(),
        "e11" => e11_sync::run(),
        "e12" => e12_hlr::run(),
        "e13" => e13_containment::run(),
        "e14" => e14_cache::run(),
        "e15" => e15_reliability::run(),
        "e16" => e16_registry_scale::run(),
        "e17" => e17_shards::run(),
        "e18" => e18_observability::run(),
        "e19" => e19_xml_hotpath::run(),
        "e20" => e20_overload::run(),
        "e21" => e21_fanout::run(),
        "e22" => e22_sync_storm::run(),
        "all" => {
            for i in 1..=22 {
                run(&format!("e{i}"));
            }
        }
        _ => return false,
    }
    true
}
