//! The traced run: the same workload with the pipeline decomposed by
//! hand into the library's public calls, a span recorded around each
//! and counts taken at each layer boundary. Spans live in memory and
//! are written to `benchmark/out/trace-<workload>.jsonl` at exit.
//!
//! GUPster's own spans carry *simulated* time, so until the library
//! records wall-clock spans itself the benchmark has to stand outside:
//! it times the real call (`Gupster::lookup`, `fetch_merge_batched`)
//! and then re-runs that call's layers one by one on the same inputs
//! (the "shadow" spans). A layer's self time is its span minus its
//! children; for the two opaque calls it is the call minus the shadows
//! that apply to that request. End-to-end metrics never come from this
//! run — `trace.overhead_ratio` says how much slower it is.
//!
//! Four sections share `--seconds`: R, reads decomposed one at a time
//! (alternating with plain untraced reads for the overhead ratio); S,
//! the shard probe (1-shard batch vs sequential, 2-shard vs 1-shard);
//! W, rounds of the write path with each stage timed (the workload's
//! own write side, or a probe-sized one on read-only workloads); T, the
//! telemetry hub on its own.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gupster_core::{fetch_merge_batched, GupsterError};
use gupster_policy::{Pdp, Purpose};
use gupster_telemetry::{stage, CounterSnapshot, TelemetryHub};
use gupster_xml::{ArenaDoc, Element, MergeOut};
use gupster_xpath::Path;

use crate::alloc;
use crate::fleet::{self, request_time, Fleet};
use crate::gen::{EditGen, Expect, RawRequest, RequestGen};
use crate::ops::{answer_one, answer_window, serialize, write_round, Gate, Round};
use crate::report::{Metric, Outcome};
use crate::run::{edit_gen, fill_audit_rings, proc_status_kb, verify_reads, verify_writes};
use crate::spec::{Spec, PROBE_WRITE, SHARDS, WINDOW};
use crate::stats::{self, sliced_throughput};

/// Shares of `--seconds` per section (T takes a fixed fraction of a
/// second on top).
const READ_SHARE: f64 = 0.3;
const SHARD_SHARE: f64 = 0.35;
const WRITE_SHARE: f64 = 0.3;
/// Requests per traced / plain chunk in section R.
const CHUNK: usize = 64;
/// Spans written to the trace file (the first this many; every span
/// still counts towards the metrics).
const SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// In-memory span recorder: a stack of open spans over one clock.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: u64) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
    }

    pub fn exit(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end;
    }

    /// Records a span around `f`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.spans.len().min(SPANS_WRITTEN);
        for (id, s) in self.spans[..n].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()?;
        Ok(n)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += s.end_ns - s.start_ns;
        l.self_ns += own;
    }
    out
}

/// Counts taken at the layer boundaries of section R.
#[derive(Debug, Default)]
struct Counts {
    requests: u64,
    decisions: u64,
    rules_considered: u64,
    matches: u64,
    candidates: u64,
    indexed: u64,
    queries: u64,
    query_bytes: u64,
    answers: u64,
    xml_allocs: u64,
    fresh_nodes: u64,
    shared_nodes: u64,
    /// Shadows that ran under each opaque call: spans and their time.
    lookup_children: (u64, u64),
    fetch_children: (u64, u64),
}

/// One read with every layer timed. The real calls answer the request;
/// the shadows repeat their layers on the same inputs.
fn traced_read(
    fleet: &mut Fleet,
    raw: &RawRequest,
    id: u64,
    rec: &mut Recorder,
    c: &mut Counts,
    gate: &mut Gate,
) {
    c.requests += 1;
    rec.enter("request", id);
    let path = rec.time("xpath.parse", id, || Path::parse(&raw.path)).expect("generated paths parse");
    let shard = fleet.reg.shard_mut(&raw.owner);
    let memo_hits = shard.memo_stats().1;
    let looked_up = rec.time("registry.lookup", id, || {
        shard.lookup(&raw.owner, &path, &raw.requester, Purpose::Query, request_time(), raw.now)
    });
    let memo_hit = shard.memo_stats().1 > memo_hits;
    let signer = shard.signer();

    let before = rec.spans.len();
    rec.enter("registry.shadow", id);
    rec.time("schema.admits", id, || shard.schema.admits_path(&path));
    if !memo_hit {
        let ctx = shard.context(&raw.owner, &raw.requester, Purpose::Query, request_time());
        let (_, cost) = rec.time("policy.decide", id, || {
            Pdp::new().decide_with_cost(&shard.pap.repository, &raw.owner, &path, &ctx)
        });
        c.decisions += 1;
        c.rules_considered += cost.rules_considered;
    }
    if let Ok(out) = &looked_up {
        let coverage = shard.coverage_of(&raw.owner).expect("a looked-up owner has coverage");
        let (_, stats) = rec.time("coverage.match", id, || coverage.match_request_with_stats(&path));
        c.matches += 1;
        c.candidates += stats.candidates as u64;
        c.indexed += stats.used_index as u64;
        if !out.referral.token_cached {
            let paths = out.referral.token.paths.clone();
            rec.time("token.sign", id, || signer.sign(&raw.owner, &raw.requester, paths, raw.now));
        }
    }
    rec.exit();
    add(&mut c.lookup_children, children(&rec.spans[before..]));

    let answer = match looked_up {
        Err(e) => Err(e),
        Ok(out) => {
            let referral = &out.referral;
            let fetched = rec.time("client.fetch_merge", id, || {
                fetch_merge_batched(&fleet.pool, referral, &signer, raw.now, &fleet.keys)
            });
            let before = rec.spans.len();
            let allocs = alloc::snapshot().0;
            rec.enter("client.shadow", id);
            let verified = rec.time("token.verify", id, || signer.verify(&referral.token, raw.now));
            gate.invariant(verified.is_ok(), || format!("{}: token refused", raw.wire()));
            let entries: Vec<_> = if referral.merge_required {
                referral.entries.iter().collect()
            } else {
                referral.choices().take(1).collect()
            };
            let mut fragments: Vec<Element> = Vec::new();
            for entry in entries {
                let store = fleet.pool.get(&entry.store).expect("referrals name live stores");
                let got = rec.time("store.query", id, || store.query(&entry.path)).expect("stores answer");
                c.queries += 1;
                c.query_bytes += got.iter().map(Element::byte_size).sum::<usize>() as u64;
                fragments.extend(got);
            }
            let docs: Vec<ArenaDoc> =
                rec.time("xml.adopt", id, || fragments.iter().map(ArenaDoc::from_element).collect());
            let keys = &fleet.keys;
            let merged: Vec<MergeOut<'_>> = rec.time("xml.merge", id, || {
                // The fold `fetch_merge` performs: same-identity roots
                // merge, anything else stands alone.
                let mut out: Vec<MergeOut<'_>> = Vec::new();
                'next: for doc in &docs {
                    let frag = MergeOut::from_doc(doc);
                    for existing in &mut out {
                        if existing.root_name() == frag.root_name()
                            && existing.root_identity(keys) == frag.root_identity(keys)
                        {
                            if let Ok(m) = existing.merge_with(doc, keys) {
                                *existing = m;
                                continue 'next;
                            }
                        }
                    }
                    out.push(frag);
                }
                out
            });
            for m in &merged {
                c.fresh_nodes += m.stats().fresh_nodes;
                c.shared_nodes += m.stats().shared_nodes;
            }
            let rebuilt: Vec<Element> =
                rec.time("xml.materialize", id, || merged.iter().map(MergeOut::to_element).collect());
            rec.exit();
            add(&mut c.fetch_children, children(&rec.spans[before..]));
            gate.invariant(fetched.as_ref().ok() == Some(&rebuilt), || {
                format!("{}: hand-decomposed fetch differs from fetch_merge_batched", raw.wire())
            });
            fetched.map(|elems| {
                let bytes = rec.time("xml.serialize", id, || serialize(&elems));
                c.answers += 1;
                c.xml_allocs += alloc::snapshot().0 - allocs;
                let reparsed =
                    rec.time("xml.parse", id, || elems.iter().all(|e| ArenaDoc::parse(&e.to_xml()).is_ok()));
                gate.invariant(reparsed, || format!("{}: answer bytes do not parse", raw.wire()));
                bytes
            })
        }
    };
    rec.exit();
    let ok = match (&answer, raw.expect) {
        (Ok(bytes), Expect::Answer) => !bytes.is_empty(),
        (Err(GupsterError::AccessDenied { .. }), Expect::Denied) => true,
        _ => false,
    };
    gate.op(ok, || format!("traced {} expected {:?}", raw.wire(), raw.expect));
}

/// Count and summed duration of the leaf spans under a just-closed
/// shadow parent (`spans[0]`).
fn children(spans: &[Span]) -> (u64, u64) {
    (spans.len() as u64 - 1, spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum())
}

fn add(total: &mut (u64, u64), part: (u64, u64)) {
    *total = (total.0 + part.0, total.1 + part.1);
}

/// What the recorder adds to every span it measures: the duration it
/// reports for a span around nothing (two clock reads apart). Several
/// layers cost little more than that, so every layer mean has it taken
/// off.
fn recorder_floor_ns() -> f64 {
    let mut rec = Recorder::new();
    for _ in 0..4000 {
        rec.time("floor", 0, || ());
    }
    let empty: Vec<f64> = rec.spans.iter().map(|s| (s.end_ns - s.start_ns) as f64).collect();
    stats::median(&empty)
}

/// Section R. Returns the plain (untraced) per-request latencies and
/// the traced / plain wall time for the overhead ratio.
fn section_reads(
    fleet: &mut Fleet,
    gen: &mut RequestGen,
    budget: Duration,
    rec: &mut Recorder,
    c: &mut Counts,
    gate: &mut Gate,
) -> (Vec<f64>, f64) {
    let mut plain_us = Vec::new();
    let (mut traced_ns, mut plain_ns, mut id) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        for raw in gen.take(CHUNK) {
            traced_read(fleet, &raw, id, rec, c, gate);
            id += 1;
        }
        traced_ns += t.elapsed().as_nanos() as u64;
        for raw in gen.take(CHUNK) {
            let (ns, _) = answer_one(fleet, &raw, gate);
            plain_ns += ns;
            plain_us.push(ns as f64 / 1e3);
        }
    }
    (plain_us, plain_ns as f64 / traced_ns.max(1) as f64)
}

struct ShardProbe {
    window_ns: f64,
    batch_vs_serial: f64,
    speedup_2v1: f64,
    imbalance: f64,
    singleflight_hit_ratio: f64,
    slice_drift: f64,
    spans_per_request: f64,
}

fn stage_spans(fleet: &Fleet) -> (u64, u64) {
    let snap = fleet.reg.obs_snapshot();
    (snap.fleet.stages.iter().map(|r| r.stats.count).sum(), snap.fleet.requests)
}

/// Section S. The 1-shard fleet alternates sequential and batch windows
/// over one stream; the 2-shard fleet answers a copy of that stream in
/// batch windows only.
fn section_shards(
    fleet2: &mut Fleet,
    fleet1: &mut Fleet,
    gen: &RequestGen,
    budget: Duration,
    gate: &mut Gate,
) -> ShardProbe {
    let (mut gen1, mut gen2) = (gen.clone(), gen.clone());
    let mut two: Vec<(u64, u64)> = Vec::new();
    let (mut batch1, mut serial1) = ((0u64, 0u64), (0u64, 0u64));
    let routed0: Vec<u64> = fleet2.reg.obs_snapshot().shards.iter().map(|s| s.requests).collect();
    let flights0 = fleet2.reg.counter_totals().singleflight_hits;
    let spans0 = stage_spans(fleet2);
    let start = Instant::now();
    let mut k = 0usize;
    // At least two rounds of each kind of window, however slow.
    while start.elapsed() < budget || k < 4 {
        let raws = gen1.take(WINDOW);
        if k.is_multiple_of(2) {
            let (ns, _) = answer_window(fleet1, &raws, gate);
            batch1 = (batch1.0 + WINDOW as u64, batch1.1 + ns);
        } else {
            for raw in &raws {
                serial1.1 += answer_one(fleet1, raw, gate).0;
            }
            serial1.0 += WINDOW as u64;
        }
        let (ns, _) = answer_window(fleet2, &gen2.take(WINDOW), gate);
        two.push((WINDOW as u64, ns));
        k += 1;
    }
    let rate = |(ops, ns): (u64, u64)| ops as f64 * 1e9 / ns.max(1) as f64;
    let two_total = two.iter().fold((0, 0), |a, u| (a.0 + u.0, a.1 + u.1));
    let routed: Vec<f64> = fleet2
        .reg
        .obs_snapshot()
        .shards
        .iter()
        .zip(&routed0)
        .map(|(s, r0)| (s.requests - r0) as f64)
        .collect();
    let spans1 = stage_spans(fleet2);
    let series = sliced_throughput(&two).series;
    ShardProbe {
        window_ns: two_total.1 as f64 / two.len() as f64,
        batch_vs_serial: rate(batch1) / rate(serial1),
        speedup_2v1: rate(two_total) / rate(batch1),
        imbalance: routed.iter().copied().fold(0.0, f64::max) / stats::mean(&routed).max(1.0),
        singleflight_hit_ratio: (fleet2.reg.counter_totals().singleflight_hits - flights0) as f64
            / two_total.0 as f64,
        slice_drift: series[series.len() - 1] / series[0],
        spans_per_request: (spans1.0 - spans0.0) as f64 / (spans1.1 - spans0.1).max(1) as f64,
    }
}

struct WriteProbe {
    total: Round,
    rounds: u64,
    idle_scan_ns: f64,
    log_entries_after: f64,
}

/// Section W: rounds of the write path, then a few single-edit passes —
/// a reconcile with one dirty star is the idle scan over all the rest.
fn section_writes(
    fleet: &mut Fleet,
    edits: &mut EditGen,
    reads: &mut RequestGen,
    budget: Duration,
    gate: &mut Gate,
) -> WriteProbe {
    let w = fleet.write.as_ref().expect("write side").spec;
    let mut total = Round::default();
    let mut rounds = 0;
    let start = Instant::now();
    while start.elapsed() < budget || rounds < 2 {
        total.absorb(&write_round(fleet, edits, reads, w.edits_per_round, w.reads_per_round, gate, None));
        rounds += 1;
    }
    let idle: Vec<f64> =
        (0..3).map(|_| write_round(fleet, edits, reads, 1, 0, gate, None).reconcile_ns as f64).collect();
    let left = fleet.write.as_ref().expect("write side").plane.log_entries();
    gate.invariant(left == 0, || format!("{left} change-log entries survived compaction"));
    WriteProbe { total, rounds, idle_scan_ns: stats::median(&idle), log_entries_after: left as f64 }
}

/// Section T: what one traced request costs the telemetry hub — a root
/// tracer, eight stage spans, and the drop that flushes them.
fn section_telemetry(fleet: &Fleet) -> (f64, f64) {
    const STAGES: [&str; 8] = [
        stage::REGISTRY_LOOKUP,
        stage::POLICY_DECIDE,
        stage::QUERY_REWRITE,
        stage::COVERAGE_MATCH,
        stage::TOKEN_SIGN,
        stage::FETCH_MERGE,
        stage::TOKEN_VERIFY,
        stage::STORE_FETCH,
    ];
    const ROUNDS: u32 = 20_000;
    let hub = Arc::new(TelemetryHub::new());
    hub.set_span_limit(0);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let mut tracer = hub.tracer(stage::SHARD_REQUEST);
        for s in STAGES {
            tracer.enter(s);
            tracer.exit();
        }
        drop(std::hint::black_box(tracer));
    }
    let span_ns = t.elapsed().as_nanos() as f64 / f64::from(ROUNDS);
    let snapshots: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fleet.reg.obs_snapshot());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    (span_ns, stats::median(&snapshots))
}

fn memo_totals(fleet: &Fleet) -> (u64, u64) {
    fleet.reg.shards().iter().map(|g| g.memo_stats()).fold((0, 0), |a, m| (a.0 + m.1, a.1 + m.2))
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    // From the checkout root (how the driver runs it) or from inside
    // `benchmark/` (how `cargo run` there does).
    let dir = if std::path::Path::new("benchmark").is_dir() { "benchmark/out" } else { "out" };
    std::path::Path::new(dir).join(format!("trace-{workload}.jsonl"))
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let rss0 = proc_status_kb("VmRSS:");
    let mut fleet = fleet::build(spec, SHARDS, Some(spec.write.unwrap_or(PROBE_WRITE)));
    let rss_per_user = (proc_status_kb("VmRSS:").saturating_sub(rss0) * 1024) as f64 / spec.users as f64;
    let mut fleet1 = fleet::build(spec, 1, None);

    let mut gate = Gate::default();
    let mut reads = RequestGen::new(spec, seed);
    let mut edits = edit_gen(&fleet, seed).expect("the traced fleet always has a write side");
    // The same verify phase as the untraced run, so both print the
    // same checksum for the same seed.
    let checksum = if spec.write.is_some() {
        verify_writes(&mut fleet, &mut edits, &mut reads, &mut gate)
    } else {
        verify_reads(&mut fleet, &mut reads, &mut gate)
    };
    for f in [&mut fleet, &mut fleet1] {
        let full = fill_audit_rings(f, &mut reads, &mut gate);
        gate.invariant(full, || "audit rings not full after the warm-up cap".to_string());
    }

    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let counters = |f: &Fleet| -> (CounterSnapshot, (u64, u64)) { (f.reg.counter_totals(), memo_totals(f)) };
    let mut rec = Recorder::new();
    let mut c = Counts::default();

    let reads_before = counters(&fleet);
    let (plain_us, overhead_ratio) =
        section_reads(&mut fleet, &mut reads, budget(READ_SHARE), &mut rec, &mut c, &mut gate);
    let shards = section_shards(&mut fleet, &mut fleet1, &reads, budget(SHARD_SHARE), &mut gate);
    let reads_after = counters(&fleet);
    let writes = section_writes(&mut fleet, &mut edits, &mut reads, budget(WRITE_SHARE), &mut gate);
    let writes_after = counters(&fleet);
    let (span_ns, snapshot_ns) = section_telemetry(&fleet);

    // Cache ratios: over the post-write reads where the workload
    // writes, over the read sections where it does not.
    let ((c0, m0), (c1, m1)) =
        if spec.write.is_some() { (reads_after, writes_after) } else { (reads_before, reads_after) };
    let (memo_hits, memo_misses) = (m1.0 - m0.0, m1.1 - m0.1);

    let layers = layers(&rec.spans);
    let floor = recorder_floor_ns();
    let mean = |name: &str| (layers.get(name).map_or(0.0, Layer::mean_ns) - floor).max(0.0);
    let count = |name: &str| layers.get(name).map_or(0, |l| l.count);
    // An opaque call's self time: the call minus the shadows that ran
    // for it, each side with the recorder's floor taken off.
    let self_ns = |call: &str, (spans, ns): (u64, u64)| {
        mean(call) - (ns as f64 - floor * spans as f64).max(0.0) / count(call).max(1) as f64
    };
    let lookup_self = self_ns("registry.lookup", c.lookup_children);
    let fetch_self = self_ns("client.fetch_merge", c.fetch_children);
    let memo_miss_ns = memo_miss_probe();
    let plain_p50_us = stats::median(&plain_us);
    let t = &writes.total;
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;

    let n =
        |name: &'static str, value: f64, unit: &'static str, note: &str| Metric::new(name, value, unit, note);
    let metrics = vec![
        n("xpath.parse_ns", mean("xpath.parse"), "ns", "Path::parse of the request string"),
        n("schema.admits_ns", mean("schema.admits"), "ns", "Schema::admits_path"),
        n("policy.decide_ns", mean("policy.decide"), "ns", "Pdp::decide_with_cost on memo misses"),
        n("policy.rules_considered", ratio(c.rules_considered, c.decisions), "count", "per decision"),
        n("policy.memo_hit_ratio", ratio(memo_hits, memo_hits + memo_misses), "ratio", "Gupster::memo_stats"),
        n("policy.memo_miss_ns", memo_miss_ns, "ns", "DecisionMemo get+put at capacity (eviction scan)"),
        n("coverage.match_ns", mean("coverage.match"), "ns", "CoverageMap::match_request_with_stats"),
        n("coverage.candidates", ratio(c.candidates, c.matches), "count", "per match"),
        n("coverage.index_ratio", ratio(c.indexed, c.matches), "ratio", "matches answered by the trie"),
        n("token.sign_ns", mean("token.sign"), "ns", "Signer::sign"),
        n("token.verify_ns", mean("token.verify"), "ns", "Signer::verify"),
        n(
            "token.reuse_ratio",
            ratio(c1.token_reuse - c0.token_reuse, c1.referrals - c0.referrals),
            "ratio",
            "token_reuse / referrals",
        ),
        n("registry.lookup_ns", mean("registry.lookup"), "ns", "Gupster::lookup"),
        n("registry.self_ns", lookup_self, "ns", "lookup minus its shadowed layers"),
        n(
            "registry.denied_ratio",
            ratio(c1.policy_denials - c0.policy_denials, c1.lookups - c0.lookups),
            "ratio",
            "policy_denials / lookups",
        ),
        n("registry.rss_bytes_per_user", rss_per_user, "B", "VmRSS growth over the fleet build / users"),
        n("store.query_ns", mean("store.query"), "ns", "DataStore::query"),
        n(
            "store.bytes_per_query",
            ratio(c.query_bytes, c.queries),
            "B",
            "Element::byte_size of the fragments",
        ),
        n("xml.adopt_ns", mean("xml.adopt"), "ns", "ArenaDoc::from_element of every fragment"),
        n("xml.merge_ns", mean("xml.merge"), "ns", "MergeOut::from_doc + merge_with"),
        n("xml.materialize_ns", mean("xml.materialize"), "ns", "MergeOut::to_element"),
        n("xml.serialize_ns", mean("xml.serialize"), "ns", "Element::to_xml of the answer"),
        n("xml.parse_ns", mean("xml.parse"), "ns", "to_xml + ArenaDoc::parse of the answer bytes"),
        n(
            "xml.shared_node_ratio",
            ratio(c.shared_nodes, c.shared_nodes + c.fresh_nodes),
            "ratio",
            "MergeStats shared / (shared + fresh)",
        ),
        n(
            "xml.allocs_per_answer",
            ratio(c.xml_allocs, c.answers),
            "count",
            "query + adopt + merge + materialize + serialize",
        ),
        n("client.fetch_merge_ns", mean("client.fetch_merge"), "ns", "fetch_merge_batched"),
        n("client.self_ns", fetch_self, "ns", "fetch_merge_batched minus its shadowed layers"),
        n("shard.window_ns", shards.window_ns, "ns", "one 512-request answer_batch window at 2 shards"),
        n(
            "shard.batch_vs_serial",
            shards.batch_vs_serial,
            "ratio",
            "1-shard answer_batch ops/s / sequential ops/s",
        ),
        n("shard.speedup_2v1", shards.speedup_2v1, "ratio", "2-shard / 1-shard answer_batch ops/s"),
        n("shard.imbalance", shards.imbalance, "ratio", "busiest shard's requests / mean"),
        n(
            "shard.singleflight_hit_ratio",
            shards.singleflight_hit_ratio,
            "ratio",
            "in-window duplicate fetches",
        ),
        n("shard.slice_drift", shards.slice_drift, "ratio", "last / first slice throughput"),
        n(
            "sync.reconcile_ns_per_edit",
            per(t.reconcile_ns, t.edits),
            "ns",
            &format!("{} rounds", writes.rounds),
        ),
        n("sync.compared_per_edit", ratio(t.compared, t.edits), "count", "op pairs examined"),
        n("sync.wire_bytes_per_edit", ratio(t.wire_bytes, t.edits), "B", "delta-coded session bytes"),
        n("sync.conflicts_per_round", ratio(t.conflicts, writes.rounds), "count", ""),
        n("sync.log_entries_after", writes.log_entries_after, "count", "retained after compaction"),
        n(
            "syncplane.write_through_ns_per_user",
            per(t.write_through_ns, t.changed_users),
            "ns",
            "per changed user",
        ),
        n("syncplane.idle_scan_ns", writes.idle_scan_ns, "ns", "reconcile with one dirty star"),
        n("subs.stage_ns_per_event", per(t.stage_ns, t.events), "ns", ""),
        n("subs.flush_ns_per_window", per(t.flush_ns, writes.rounds), "ns", ""),
        n(
            "subs.shield_checks_per_event",
            ratio(t.staged + t.suppressed, t.events),
            "count",
            "candidates filtered",
        ),
        n("subs.suppressed_ratio", ratio(t.suppressed, t.staged + t.suppressed), "ratio", ""),
        n("subs.coalesce_ratio", ratio(t.batches, t.notifications), "ratio", "batches / notifications"),
        n("telemetry.span_ns", span_ns, "ns", "tracer + 8 stage enter/exit + drop"),
        n("telemetry.snapshot_ns", snapshot_ns, "ns", "ShardedRegistry::obs_snapshot"),
        n(
            "telemetry.share",
            span_ns / 9.0 * shards.spans_per_request / (plain_p50_us * 1e3).max(1.0),
            "ratio",
            &format!(
                "{:.1} spans per request against a plain p50 of {plain_p50_us:.1} us",
                shards.spans_per_request
            ),
        ),
        n("trace.overhead_ratio", overhead_ratio, "ratio", "traced / untraced throughput in section R"),
    ];

    let mut remarks = vec![format!(
        "write side: {}; {} traced requests, {} spans in memory; recorder floor {floor:.0} ns per span, taken off every layer mean",
        if spec.write.is_some() { "the workload's own" } else { "probe-sized (read-only workload)" },
        c.requests,
        rec.spans.len()
    )];
    remarks.extend(pairings(&layers, t));
    let file = trace_path(spec.name);
    match rec.write_jsonl(&file) {
        Ok(n) => remarks.push(format!("wrote the first {n} spans to {}", file.display())),
        Err(e) => eprintln!("cannot write {}: {e}", file.display()),
    }
    Ok(Outcome { workload: spec.name, traced: true, gate, metrics, checksum, remarks })
}

/// `DecisionMemo` at capacity: every miss is a `get` that fails plus a
/// `put` that scans for the least-recently-used victim.
fn memo_miss_probe() -> f64 {
    use gupster_policy::{Decision, DecisionMemo, MemoKey, RequestContext};
    const CAPACITY: usize = 4096;
    const PROBES: usize = 2000;
    let mut memo = DecisionMemo::new(CAPACITY);
    let ctx = RequestContext::query("probe", "friend", request_time());
    let keys: Vec<MemoKey> = (0..CAPACITY + PROBES)
        .map(|i| {
            let path = Path::parse(&format!("/user[@id='m{i:06}']/presence")).expect("static path");
            MemoKey::new(&format!("m{i:06}"), &ctx, &path)
        })
        .collect();
    let (fill, probes) = keys.split_at(CAPACITY);
    for k in fill {
        memo.put(k.clone(), 1, Decision::Permit);
    }
    let t = Instant::now();
    for k in probes {
        if memo.get(k, 1).is_none() {
            memo.put(k.clone(), 1, Decision::Permit);
        }
    }
    t.elapsed().as_nanos() as f64 / PROBES as f64
}

/// The predicted pairings of the README, checked against this run.
fn pairings(layers: &BTreeMap<&'static str, Layer>, t: &Round) -> Vec<String> {
    let request = layers.get("request").copied().unwrap_or_default();
    let per_request = |names: &[&str]| -> f64 {
        names.iter().filter_map(|n| layers.get(n)).map(|l| l.total_ns as f64).sum::<f64>()
            / request.count.max(1) as f64
    };
    let xml = per_request(&["xml.adopt", "xml.merge", "xml.materialize", "xml.serialize"]);
    let plain = per_request(&["xpath.parse", "registry.lookup", "client.fetch_merge", "xml.serialize"]);
    vec![
        format!(
            "pairing: xml adopt+merge+materialize+serialize = {:.1}% of a plain request ({xml:.0} of {plain:.0} ns); \
             a traced request takes {:.0} ns, {:.0} of them the benchmark's own glue (the request span's self time)",
            100.0 * xml / plain.max(1.0),
            request.mean_ns(),
            request.self_ns as f64 / request.count.max(1) as f64
        ),
        format!(
            "pairing: reconcile = {:.1}% of a write round's edit-to-delivery time, {:.1}% of the whole round",
            100.0 * t.reconcile_ns as f64 / t.propagate_ns.max(1) as f64,
            100.0 * t.reconcile_ns as f64 / t.total_ns().max(1) as f64
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // request 0..100
        //   ├ lookup 10..50
        //   │   ├ decide 15..25
        //   │   └ sign   30..45
        //   └ fetch  60..90
        let spans = vec![
            span("request", 0, 100, None),
            span("lookup", 10, 50, Some(0)),
            span("decide", 15, 25, Some(1)),
            span("sign", 30, 45, Some(1)),
            span("fetch", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 10, 15, 30]);
        let l = layers(&spans);
        assert_eq!(l["lookup"], Layer { count: 1, total_ns: 40, self_ns: 15 });
        assert_eq!(l["request"].self_ns, 30);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(l.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new();
        rec.enter("request", 7);
        let v = rec.time("a", 7, || 41 + 1);
        rec.enter("b", 7);
        rec.time("c", 7, || ());
        rec.exit();
        rec.exit();
        assert_eq!(v, 42);
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("request", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]);
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns && s.request == 7));
        assert!(rec.spans[0].end_ns >= rec.spans[3].end_ns);
    }
}
