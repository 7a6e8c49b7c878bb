//! Microbench for the telemetry hot path (DESIGN.md §9): interned
//! stage recording, and the tracer lifecycle that every sharded request
//! pays.

use std::sync::Arc;

use gupster_bench::microbench::{bench, suite};
use gupster_telemetry::{stage, SimTime, TelemetryHub};
use gupster_xml::{NameId, NameInterner};

const LABELS: [&str; 8] = [
    stage::SHARD_REQUEST,
    stage::REGISTRY_LOOKUP,
    stage::COVERAGE_MATCH,
    stage::POLICY_DECIDE,
    stage::QUERY_REWRITE,
    stage::TOKEN_SIGN,
    stage::STORE_FETCH,
    stage::XML_MERGE,
];

fn main() {
    suite("telemetry");

    let hub = TelemetryHub::new();
    let ids: Vec<(NameId, SimTime)> = LABELS
        .iter()
        .enumerate()
        .map(|(i, l)| (NameInterner::intern(l), SimTime::micros(i as u64 + 1)))
        .collect();
    bench("record_stage_ids_interned(8)", || hub.record_stage_ids(&ids));

    // The full per-request lifecycle at span limit 0 (histograms
    // only, the E17/E18 configuration): 8 spans open and close on the
    // interned RawSpan path without allocating a single label.
    let hub = Arc::new(TelemetryHub::new());
    hub.set_span_limit(0);
    bench("tracer_8span_drop_histograms_only", || {
        let mut t = hub.tracer(LABELS[0]);
        for l in &LABELS[1..] {
            t.span(l, SimTime::micros(3));
        }
    });

    // Same lifecycle with exemplar capture armed and every request in
    // the tail: adds the lazy Span materialization plus the sorted
    // top-k insert — the cost a p99 outlier pays, not the common case.
    let hub = Arc::new(TelemetryHub::new());
    hub.set_span_limit(0);
    hub.set_exemplar_policy(SimTime::ZERO, 8);
    bench("tracer_8span_drop_exemplified", || {
        let mut t = hub.tracer(LABELS[0]);
        for l in &LABELS[1..] {
            t.span(l, SimTime::micros(3));
        }
    });
}
