//! The fleet observability snapshot: per-shard gauges, merged stage
//! histograms, counter totals, tail-latency exemplars and the hottest
//! users, in one machine-readable [`ObsSnapshot`].
//!
//! The snapshot is assembled at the scatter-gather join by merging
//! per-shard [`crate::TelemetryHub`]s. Every merged section is
//! **shard-count invariant**: histograms merge bucket-wise
//! ([`crate::Histogram::merge`]), counters sum field-wise, exemplar
//! top-k selection runs under a total order ([`crate::hub::Exemplar::
//! rank_cmp`]), and the hottest users are the top owners by lookup
//! count, each counted on the one shard that holds it — so
//! [`ObsSnapshot::fleet_json`] is byte-identical whether the same
//! seeded workload ran on 1 shard or 8. Per-shard rows are naturally
//! shaped by the shard count and live outside the invariant section.
//!
//! The JSON codec follows the workspace's line-oriented hand-rolled
//! idiom (no serde): one self-describing row object per line,
//! discriminated by its `"row"` key, so the parser is a line scanner.

use std::borrow::Cow;
use std::fmt::Write as _;

use gupster_netsim::SimTime;

use crate::hub::{CounterSnapshot, Exemplar, StageStats};
use crate::export::escape;
use crate::scan::{scan_f64, scan_str, scan_u64};
use crate::{stage, table};

/// One shard's gauges at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardObs {
    /// Shard index.
    pub shard: usize,
    /// Requests the shard has processed.
    pub requests: u64,
    /// Simulated busy time the shard accumulated: the admission service
    /// times of the open-loop requests it ran.
    pub busy: SimTime,
    /// `busy / fleet makespan`: the servers the shard's load kept busy.
    /// Above 1.0 when fewer shards than ingress queues carry an
    /// open-loop run.
    pub utilization: f64,
    /// p99 of the shard's `shard.request` root spans.
    pub p99_request: SimTime,
    /// The shard's own pipeline counters.
    pub counters: CounterSnapshot,
}

/// One merged per-stage latency row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Stage label.
    pub stage: String,
    /// Statistics of the merged (fleet-wide) histogram.
    pub stats: StageStats,
}

/// One row of the hottest-users view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotKey {
    /// The profile owner's id.
    pub name: String,
    /// Lookups the registry ran for the owner.
    pub count: u64,
}

/// A tail exemplar reduced to its reportable form: stable key, total
/// duration, serve provenance and the per-stage *self time* breakdown
/// (each stage's exclusive time, children subtracted) that attributes
/// the tail latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemplarSummary {
    /// Stable, shard-independent request key.
    pub key: u64,
    /// End-to-end duration.
    pub duration: SimTime,
    /// How the request was ultimately served: `fresh`, `cached`,
    /// `degraded` (a fallback rung answered), `stale` (stale-cache
    /// serve) or `deadline` (budget exhausted).
    pub provenance: String,
    /// Per-stage self time, largest share first (ties by label).
    pub breakdown: Vec<(String, SimTime)>,
}

impl ExemplarSummary {
    /// Reduces a full exemplar span tree to its summary.
    pub fn from_exemplar(ex: &Exemplar) -> ExemplarSummary {
        let spans = &ex.spans;
        let mut child_sum = std::collections::BTreeMap::<u64, u64>::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_sum.entry(p).or_default() += s.duration().0;
            }
        }
        let mut per_stage = std::collections::BTreeMap::<&str, u64>::new();
        for s in spans {
            let self_time =
                s.duration().0.saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0));
            *per_stage.entry(s.stage).or_default() += self_time;
        }
        let mut breakdown: Vec<(String, SimTime)> =
            per_stage.into_iter().map(|(k, v)| (k.to_string(), SimTime(v))).collect();
        breakdown.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let has = |label: &str| spans.iter().any(|s| s.stage == label);
        let provenance = if has(stage::STALE_SERVE) {
            "stale"
        } else if has(stage::DEADLINE_EXCEEDED) {
            "deadline"
        } else if has(stage::FALLBACK) {
            "degraded"
        } else if has(stage::CACHE_HIT) {
            "cached"
        } else {
            "fresh"
        };
        ExemplarSummary {
            key: ex.key,
            duration: ex.duration,
            provenance: provenance.to_string(),
            breakdown,
        }
    }
}

/// The shard-count-invariant (merged) section of the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetObs {
    /// Requests processed fleet-wide.
    pub requests: u64,
    /// Total simulated busy time across all shards (the one-core
    /// cost of the workload — shard-count invariant, unlike the
    /// makespan, which lives next to the shard rows).
    pub busy: SimTime,
    /// Summed pipeline counters.
    pub totals: CounterSnapshot,
    /// Merged per-stage latency rows, sorted by stage label.
    pub stages: Vec<StageRow>,
    /// Fleet-wide top-k tail exemplars, slowest first.
    pub exemplars: Vec<ExemplarSummary>,
    /// Top-k profile owners by lookups, most first (ties by id).
    pub hot_users: Vec<HotKey>,
}

/// The full observability snapshot: the merged fleet section plus the
/// deployment-shaped part (makespan and one row per shard).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Merged, shard-count-invariant section.
    pub fleet: FleetObs,
    /// Accumulated makespan (the sum of the open-loop runs' horizons;
    /// a closed-loop window adds nothing) — the fleet's simulated wall
    /// clock. It lives outside the invariant section, beside the
    /// gauges it divides.
    pub makespan: SimTime,
    /// Per-shard gauges, shard order.
    pub shards: Vec<ShardObs>,
}

fn counter_rows(out: &mut String, scope: &str, c: &CounterSnapshot, comma: bool) {
    let fields = c.named_fields();
    for (i, (name, value)) in fields.iter().enumerate() {
        let trailing = if comma || i + 1 < fields.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"row\": \"counter\", \"scope\": \"{}\", \"name\": \"{}\", \
             \"value\": {value}}}{trailing}",
            escape(scope),
            escape(name)
        );
    }
}

fn fleet_rows(out: &mut String, f: &FleetObs, comma_after_last: bool) {
    let _ = writeln!(
        out,
        "    {{\"row\": \"fleet\", \"requests\": {}, \"busy_us\": {}}},",
        f.requests, f.busy.0
    );
    counter_rows(out, "fleet", &f.totals, true);
    for r in &f.stages {
        let s = &r.stats;
        let _ = writeln!(
            out,
            "    {{\"row\": \"stage\", \"stage\": \"{}\", \"count\": {}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}, \"mean_us\": {}, \"max_us\": {}}},",
            escape(&r.stage), s.count, s.p50.0, s.p95.0, s.p99.0, s.mean.0, s.max.0
        );
    }
    for e in &f.exemplars {
        let breakdown: Vec<String> =
            e.breakdown.iter().map(|(s, t)| format!("{s}={}", t.0)).collect();
        let _ = writeln!(
            out,
            "    {{\"row\": \"exemplar\", \"key\": {}, \"duration_us\": {}, \
             \"provenance\": \"{}\", \"breakdown\": \"{}\"}},",
            e.key,
            e.duration.0,
            escape(&e.provenance),
            escape(&breakdown.join(";"))
        );
    }
    for (i, h) in f.hot_users.iter().enumerate() {
        let trailing = if comma_after_last || i + 1 < f.hot_users.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"row\": \"hot_user\", \"name\": \"{}\", \"count\": {}}}{trailing}",
            escape(&h.name),
            h.count
        );
    }
}

impl ObsSnapshot {
    /// Serializes the whole snapshot as line-oriented JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"snapshot\": \"gupster-obs\",");
        let _ = writeln!(out, "  \"rows\": [");
        fleet_rows(&mut out, &self.fleet, true);
        let _ = writeln!(
            out,
            "    {{\"row\": \"layout\", \"shards\": {}, \"makespan_us\": {}}}{}",
            self.shards.len(),
            self.makespan.0,
            if self.shards.is_empty() { "" } else { "," }
        );
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"row\": \"shard\", \"shard\": {}, \"requests\": {}, \"busy_us\": {}, \
                 \"utilization\": {:.4}, \"p99_request_us\": {}}},",
                s.shard,
                s.requests,
                s.busy.0,
                s.utilization,
                s.p99_request.0
            );
            counter_rows(&mut out, &format!("shard{}", s.shard), &s.counters, i + 1 < self.shards.len());
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Serializes only the shard-count-invariant fleet section — the
    /// artifact the byte-identity guarantee (and its differential
    /// tests) quantify over.
    pub fn fleet_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"snapshot\": \"gupster-obs-fleet\",");
        let _ = writeln!(out, "  \"rows\": [");
        fleet_rows(&mut out, &self.fleet, false);
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses [`ObsSnapshot::render_json`] output back. Rows may
    /// arrive in any order; unknown row kinds are an error (a
    /// truncated or foreign artifact must fail loudly), and so is a
    /// shard index at or above the number of shard rows the text holds.
    pub fn parse_json(text: &str) -> Result<ObsSnapshot, String> {
        let mut fleet = FleetObs {
            requests: 0,
            busy: SimTime::ZERO,
            totals: CounterSnapshot::default(),
            stages: Vec::new(),
            exemplars: Vec::new(),
            hot_users: Vec::new(),
        };
        let mut makespan = SimTime::ZERO;
        let mut shards: Vec<ShardObs> = Vec::new();
        let shard_rows = text
            .lines()
            .filter(|l| l.contains("\"row\"") && scan_str(l, "row").is_ok_and(|r| r == "shard"))
            .count();
        let mut saw_fleet = false;
        for line in text.lines() {
            if !line.contains("\"row\"") {
                continue;
            }
            let row = scan_str(line, "row")?;
            match row.as_str() {
                "fleet" => {
                    saw_fleet = true;
                    fleet.requests = scan_u64(line, "requests")?;
                    fleet.busy = SimTime(scan_u64(line, "busy_us")?);
                }
                "layout" => {
                    makespan = SimTime(scan_u64(line, "makespan_us")?);
                    let n = scan_u64(line, "shards")?;
                    if n > 0 {
                        shard_slot(&mut shards, n - 1, shard_rows, "shards")?;
                    }
                }
                "counter" => {
                    let scope = scan_str(line, "scope")?;
                    let name = scan_str(line, "name")?;
                    let value = scan_u64(line, "value")?;
                    let target = if scope == "fleet" {
                        &mut fleet.totals
                    } else {
                        let idx: u64 = scope
                            .strip_prefix("shard")
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| format!("bad counter scope {scope:?}"))?;
                        &mut shard_slot(&mut shards, idx, shard_rows, "scope")?.counters
                    };
                    if !target.set_field(&name, value) {
                        return Err(format!("unknown counter {name:?}"));
                    }
                }
                "stage" => {
                    let label = scan_str(line, "stage")?;
                    fleet.stages.push(StageRow {
                        stage: label,
                        stats: StageStats {
                            count: scan_u64(line, "count")?,
                            p50: SimTime(scan_u64(line, "p50_us")?),
                            p95: SimTime(scan_u64(line, "p95_us")?),
                            p99: SimTime(scan_u64(line, "p99_us")?),
                            mean: SimTime(scan_u64(line, "mean_us")?),
                            max: SimTime(scan_u64(line, "max_us")?),
                        },
                    });
                }
                "exemplar" => {
                    let breakdown_text = scan_str(line, "breakdown")?;
                    let mut breakdown = Vec::new();
                    for part in breakdown_text.split(';').filter(|p| !p.is_empty()) {
                        let (label, us) = part
                            .rsplit_once('=')
                            .ok_or_else(|| format!("bad breakdown part {part:?}"))?;
                        let us: u64 =
                            us.parse().map_err(|e| format!("bad breakdown time: {e}"))?;
                        breakdown.push((label.to_string(), SimTime(us)));
                    }
                    fleet.exemplars.push(ExemplarSummary {
                        key: scan_u64(line, "key")?,
                        duration: SimTime(scan_u64(line, "duration_us")?),
                        provenance: scan_str(line, "provenance")?,
                        breakdown,
                    });
                }
                "hot_user" => fleet.hot_users.push(HotKey {
                    name: scan_str(line, "name")?,
                    count: scan_u64(line, "count")?,
                }),
                "shard" => {
                    let idx = scan_u64(line, "shard")?;
                    let slot = shard_slot(&mut shards, idx, shard_rows, "shard")?;
                    slot.requests = scan_u64(line, "requests")?;
                    slot.busy = SimTime(scan_u64(line, "busy_us")?);
                    slot.utilization = scan_f64(line, "utilization")?;
                    slot.p99_request = SimTime(scan_u64(line, "p99_request_us")?);
                }
                other => return Err(format!("unknown row kind {other:?}")),
            }
        }
        if !saw_fleet {
            return Err("snapshot has no fleet row".to_string());
        }
        Ok(ObsSnapshot { fleet, makespan, shards })
    }

    /// Renders the live-style text dashboard.
    pub fn render_dashboard(&self) -> String {
        let f = &self.fleet;
        let mut out = String::new();
        let _ = writeln!(out, "== GUPster fleet dashboard ==");
        let _ = writeln!(
            out,
            "fleet: {} requests | {} shards | busy {} | makespan {}",
            f.requests,
            self.shards.len(),
            table::fmt_time(f.busy),
            table::fmt_time(self.makespan)
        );
        if !self.shards.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "  {:>5}  {:<22} {:>9} {:>10} {:>10}",
                "shard", "utilization", "requests", "busy", "p99(req)"
            );
            for s in &self.shards {
                let filled = (s.utilization * 20.0).round().clamp(0.0, 20.0) as usize;
                let bar: String =
                    "#".repeat(filled) + &" ".repeat(20usize.saturating_sub(filled));
                let _ = writeln!(
                    out,
                    "  {:>5}  [{bar}] {:>8} {:>10} {:>10}",
                    s.shard,
                    s.requests,
                    table::fmt_time(s.busy),
                    table::fmt_time(s.p99_request)
                );
            }
        }
        let t = &f.totals;
        let pct = |num: u64, den: u64| -> String {
            if den == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * num as f64 / den as f64)
            }
        };
        // Memo and trie hits are work: a duplicate the singleflight
        // table served ran no lookup, so they count against the lookups
        // that ran, and singleflight hits against every lookup request.
        let ran = t.lookups.saturating_sub(t.singleflight_hits);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "hit rates: memo {} | trie {} | singleflight {} | cache {}",
            pct(t.memo_hits, ran),
            pct(t.trie_hits, ran),
            pct(t.singleflight_hits, t.lookups),
            pct(t.cache_hits, t.cache_hits + t.cache_misses)
        );
        let _ = writeln!(
            out,
            "ladder: retries {} | fallbacks {} | stale {} | deadline {} | denials {}",
            t.retries, t.fallbacks, t.stale_serves, t.deadline_exceeded, t.policy_denials
        );
        let _ = writeln!(
            out,
            "fetch: batched {} | verifications {} | referrals {}",
            t.batched_fetches, t.signature_verifications, t.referrals
        );
        if t.sync_sessions > 0 {
            let _ = writeln!(
                out,
                "sync: sessions {} | ops {} | conflicts {} | slow {}",
                t.sync_sessions, t.sync_ops_shipped, t.sync_conflicts, t.sync_slow_paths
            );
        }
        if !f.hot_users.is_empty() {
            let row = |h: &HotKey| format!("{} ({})", printable(&h.name), h.count);
            let hot: Vec<String> = f.hot_users.iter().map(row).collect();
            let _ = writeln!(out, "hottest users: {}", hot.join("  "));
        }
        if !f.stages.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "  {:<24} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "stage (merged)", "count", "p50", "p95", "p99", "max"
            );
            for r in &f.stages {
                let s = &r.stats;
                let _ = writeln!(
                    out,
                    "  {:<24} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    printable(&r.stage),
                    s.count,
                    table::fmt_time(s.p50),
                    table::fmt_time(s.p95),
                    table::fmt_time(s.p99),
                    table::fmt_time(s.max)
                );
            }
        }
        if !f.exemplars.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "tail exemplars (slowest first):");
            for e in &f.exemplars {
                let top: Vec<String> = e
                    .breakdown
                    .iter()
                    .take(4)
                    .map(|(label, t)| {
                        let share = if e.duration.0 == 0 {
                            0.0
                        } else {
                            100.0 * t.0 as f64 / e.duration.0 as f64
                        };
                        format!("{} {share:.0}%", printable(label))
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "  key {:>6}  {:>9}  {:<8}  {}",
                    e.key,
                    table::fmt_time(e.duration),
                    printable(&e.provenance),
                    top.join(" | ")
                );
            }
        }
        out
    }
}

/// `s` with its control characters escaped (`\n`, `\r`, `\u{1b}`, …),
/// for the dashboard: names and labels are read back from a snapshot
/// file, and owner ids and paths arrive in requests, so a raw newline
/// in one would print as a forged dashboard line.
fn printable(s: &str) -> Cow<'_, str> {
    if !s.chars().any(char::is_control) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        if c.is_control() {
            out.extend(c.escape_debug());
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// The slot of shard `idx`, growing `shards` up to it. `idx` is read
/// from the input under `key`, so it must be below `rows`, the number of
/// shard rows the input holds: a forged index cannot make the reader
/// allocate for shards the input does not describe.
fn shard_slot<'a>(
    shards: &'a mut Vec<ShardObs>,
    idx: u64,
    rows: usize,
    key: &str,
) -> Result<&'a mut ShardObs, String> {
    let idx = usize::try_from(idx)
        .ok()
        .filter(|&i| i < rows)
        .ok_or_else(|| format!("bad {key}: shard {idx} but {rows} shard rows"))?;
    while shards.len() <= idx {
        let shard = shards.len();
        shards.push(ShardObs {
            shard,
            requests: 0,
            busy: SimTime::ZERO,
            utilization: 0.0,
            p99_request: SimTime::ZERO,
            counters: CounterSnapshot::default(),
        });
    }
    Ok(&mut shards[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{RequestId, Span};

    fn sample() -> ObsSnapshot {
        let mut totals = CounterSnapshot::default();
        totals.set_field("lookups", 100);
        totals.set_field("memo_hits", 80);
        totals.set_field("sync_conflicts", 2);
        let mut shard_counters = CounterSnapshot::default();
        shard_counters.set_field("lookups", 60);
        ObsSnapshot {
            fleet: FleetObs {
                requests: 100,
                busy: SimTime::millis(12),
                totals,
                stages: vec![StageRow {
                    stage: "store.fetch".to_string(),
                    stats: StageStats {
                        count: 100,
                        p50: SimTime::micros(60),
                        p95: SimTime::micros(120),
                        p99: SimTime::micros(250),
                        mean: SimTime::micros(70),
                        max: SimTime::micros(400),
                    },
                }],
                exemplars: vec![ExemplarSummary {
                    key: 42,
                    duration: SimTime::micros(400),
                    provenance: "fresh".to_string(),
                    breakdown: vec![
                        ("store.fetch".to_string(), SimTime::micros(300)),
                        ("xml.merge".to_string(), SimTime::micros(100)),
                    ],
                }],
                hot_users: vec![HotKey { name: "u7".to_string(), count: 31 }],
            },
            makespan: SimTime::millis(4),
            shards: vec![
                ShardObs {
                    shard: 0,
                    requests: 60,
                    busy: SimTime::millis(8),
                    utilization: 0.75,
                    p99_request: SimTime::micros(300),
                    counters: shard_counters,
                },
                ShardObs {
                    shard: 1,
                    requests: 40,
                    busy: SimTime::millis(4),
                    utilization: 0.5,
                    p99_request: SimTime::micros(260),
                    counters: CounterSnapshot::default(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        // Owner ids arrive in requests: a name must not end its string
        // early or forge the fields after it.
        for name in ["u7", r#"x", "count": 999, "y"#, r#"a"b"#, "back\\slash\ttab"] {
            let mut snap = sample();
            snap.fleet.hot_users[0].name = name.to_string();
            snap.fleet.exemplars[0].provenance = name.to_string();
            let text = snap.render_json();
            let back = ObsSnapshot::parse_json(&text).unwrap();
            assert_eq!(back, snap, "{name}");
            // Rendering the parse is byte-identical to the original render.
            assert_eq!(back.render_json(), text);
        }
    }

    #[test]
    fn fleet_json_excludes_shard_rows() {
        let snap = sample();
        let fleet = snap.fleet_json();
        assert!(!fleet.contains("\"row\": \"shard\""));
        assert!(!fleet.contains("shard0"));
        assert!(fleet.contains("\"row\": \"stage\""));
        let mut one = snap.clone();
        one.shards.truncate(1);
        assert_eq!(one.fleet_json(), fleet, "fleet section ignores shard layout");
    }

    #[test]
    fn parse_rejects_foreign_rows() {
        assert!(ObsSnapshot::parse_json("{\"row\": \"mystery\"}").is_err());
        assert!(ObsSnapshot::parse_json("no rows").is_err(), "fleet row required");
    }

    /// Duplicates served 40 of 100 lookup requests; each of the 60
    /// lookups that ran hit the trie, and 45 of them the memo.
    #[test]
    fn dashboard_hit_rates_count_the_lookups_that_ran() {
        let mut snap = sample();
        for (field, n) in [("lookups", 100), ("singleflight_hits", 40), ("trie_hits", 60), ("memo_hits", 45)] {
            snap.fleet.totals.set_field(field, n);
        }
        let text = snap.render_dashboard();
        let needle = "hit rates: memo 75.0% | trie 100.0% | singleflight 40.0%";
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    #[test]
    fn dashboard_mentions_the_load_bearing_numbers() {
        let text = sample().render_dashboard();
        for needle in [
            "fleet dashboard",
            "100 requests",
            "memo 80.0%",
            "store.fetch",
            "key     42",
            "hottest users: u7 (31)",
            "p99(req)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn dashboard_escapes_control_characters_in_names() {
        let render = |name: &str| {
            let mut snap = sample();
            snap.fleet.hot_users[0].name = name.to_string();
            snap.fleet.exemplars[0].provenance = name.to_string();
            snap.render_dashboard()
        };
        let plain = render("u7");
        let forged = render("u7 (1)\nfleet: 999999 requests | 99 shards\r");
        assert_eq!(forged.lines().count(), plain.lines().count(), "{forged}");
        assert!(
            forged.contains(r"hottest users: u7 (1)\nfleet: 999999 requests | 99 shards\r (31)"),
            "{forged}"
        );
        assert_eq!(forged.matches("fleet: ").count(), 1 + 2, "one real line, two escaped names");
        assert_eq!(printable("/user[@id='u7']/presence"), "/user[@id='u7']/presence");
        assert_eq!(printable("a\u{1b}[2Jb"), r"a\u{1b}[2Jb");
    }

    #[test]
    fn exemplar_summary_attributes_self_time() {
        let span = |id, parent, stage: &'static str, start: u64, end: u64| Span {
            request: RequestId(0),
            id,
            parent,
            stage,
            start: SimTime::micros(start),
            end: SimTime::micros(end),
        };
        let ex = Exemplar {
            key: 9,
            duration: SimTime::micros(100),
            spans: vec![
                span(0, None, "shard.request", 0, 100),
                span(1, Some(0), "store.fetch", 10, 70),
                span(2, Some(0), "resilience.fallback", 70, 70),
            ],
        };
        let sum = ExemplarSummary::from_exemplar(&ex);
        assert_eq!(sum.provenance, "degraded");
        // Root self time = 100 - 60 (fetch) - 0 (marker) = 40.
        assert_eq!(
            sum.breakdown,
            vec![
                ("store.fetch".to_string(), SimTime::micros(60)),
                ("shard.request".to_string(), SimTime::micros(40)),
                ("resilience.fallback".to_string(), SimTime::ZERO),
            ]
        );
    }
}
