//! The untraced run of one workload: set-up (timed), a fixed verify and
//! warm-up phase (checksummed), a fixed block whose allocations are
//! counted, then the measured part — windows or rounds for throughput
//! in turn with single operations for latency.
//!
//! Closed loop throughout: the generator hands over the next window, or
//! the next single request, only when the previous one has been
//! answered. GUPster has no resident server loop, so there is no
//! arrival schedule to hold it to.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::fleet::{self, Fleet};
use crate::gen::{EditGen, RequestGen};
use crate::ops::{answer_one, answer_window, checksum, write_round, Gate, Round};
use crate::report::{Metric, Outcome};
use crate::spec::{Spec, SHARDS, WINDOW};
use crate::stats::{self, beyond, sliced_percentile, sliced_throughput, supported_tail, Fnv, SLICES};

/// Fleet builds per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of `--seconds` spent in throughput chunks (the rest goes to
/// the latency chunks).
const THROUGHPUT_SHARE: f64 = 0.5;
/// One request in this many of the verify phase is re-answered on the
/// sequential path and compared byte for byte.
const RECHECK_EVERY: usize = 20;

/// One cold fleet build, timed.
pub fn timed_setup(spec: &Spec) -> (Fleet, f64) {
    let t = Instant::now();
    let fleet = fleet::build(spec, SHARDS, spec.write);
    (fleet, t.elapsed().as_secs_f64())
}

/// Builds the fleet `SETUPS` times and keeps the last. All but the last
/// build run in child processes (`--setup-only`), one after the other,
/// before this process builds its own: every build then pays for its
/// own fresh memory the way a restart does (a rebuild into an already
/// grown heap is ~15% cheaper), and this process's peak RSS is that of
/// exactly one fleet.
fn cold_setups(spec: &Spec) -> Result<(Fleet, f64, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name, "--setup-only", "1"])
            .output()
            .map_err(|e| format!("cannot start set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text.trim().parse::<f64>().ok().filter(|_| out.status.success());
        times.push(secs.ok_or_else(|| format!("set-up child failed: {text:?}"))?);
    }
    let (fleet, own) = timed_setup(spec);
    times.push(own);
    Ok((fleet, stats::median(&times), times))
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") as f64 / 1024.0
}

pub fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// What the measured part of a run produces, whichever kind of
/// workload.
struct Measured {
    /// `(ops, ns)` per window or round of the throughput chunks.
    units: Vec<(u64, u64)>,
    alloc_ops: u64,
    allocs: u64,
    alloc_bytes: u64,
    /// Per-operation latency of the latency chunks, µs, arrival order.
    latencies_us: Vec<f64>,
}

/// What one step of the measured part does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// One window (or write round) through the sharded planes.
    Unit,
    /// One operation on its own, one client.
    Single,
}

/// The measured part: `SLICES` turns, each a throughput chunk followed
/// by a latency chunk, so that both kinds of sample are spread over the
/// whole of `seconds` and a slow spell of the machine cannot swallow
/// one of them. `step` returns `(ops, ns)`.
fn measure(seconds: f64, mut step: impl FnMut(Step) -> (u64, u64)) -> (Vec<(u64, u64)>, Vec<f64>) {
    let chunk = |share: f64| Duration::from_secs_f64(seconds * share / SLICES as f64);
    let (mut units, mut latencies_us) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        // At least one step per chunk, however slow a step is.
        let start = Instant::now();
        loop {
            units.push(step(Step::Unit));
            if start.elapsed() >= chunk(THROUGHPUT_SHARE) {
                break;
            }
        }
        let start = Instant::now();
        loop {
            latencies_us.push(step(Step::Single).1 as f64 / 1e3);
            if start.elapsed() >= chunk(1.0 - THROUGHPUT_SHARE) {
                break;
            }
        }
    }
    (units, latencies_us)
}

/// The verify phase of a read workload doubles as warm-up: a fixed
/// number of windows through the 2-shard front end, every answer folded
/// into the checksum, one in `RECHECK_EVERY` re-answered sequentially.
pub fn verify_reads(fleet: &mut Fleet, gen: &mut RequestGen, gate: &mut Gate) -> u64 {
    let mut sum = Fnv::default();
    for _ in 0..fleet.spec.warmup_ops.div_ceil(WINDOW) {
        let raws = gen.take(WINDOW);
        let (_, answers) = answer_window(fleet, &raws, gate);
        for (k, (raw, answer)) in raws.iter().zip(&answers).enumerate() {
            checksum(&mut sum, answer);
            if k % RECHECK_EVERY == 0 {
                let (_, again) = answer_one(fleet, raw, gate);
                gate.invariant(&again == answer, || {
                    format!("{}: sharded and sequential answers differ", raw.wire())
                });
            }
        }
    }
    sum.0
}

/// Keeps the warm-up going until the audit rings are full, so that the
/// measured phases see the steady state and not the transition into it.
/// Returns false if the cap ran out first.
pub fn fill_audit_rings(fleet: &mut Fleet, gen: &mut RequestGen, gate: &mut Gate) -> bool {
    let mut ops = 0;
    while ops < fleet.spec.fill_cap_ops && !fleet.audit_rings_full() {
        answer_window(fleet, &gen.take(WINDOW), gate);
        ops += WINDOW;
    }
    fleet.spec.fill_cap_ops == 0 || fleet.audit_rings_full()
}

fn measure_reads(fleet: &mut Fleet, gen: &mut RequestGen, seconds: f64, gate: &mut Gate) -> Measured {
    let (mut allocs, mut alloc_bytes) = (0, 0);
    for _ in 0..fleet.spec.alloc_units {
        let raws = gen.take(WINDOW);
        let before = alloc::snapshot();
        answer_window(fleet, &raws, gate);
        let after = alloc::snapshot();
        allocs += after.0 - before.0;
        alloc_bytes += after.1 - before.1;
    }
    let (units, latencies_us) = measure(seconds, |step| match step {
        Step::Unit => (WINDOW as u64, answer_window(fleet, &gen.take(WINDOW), gate).0),
        Step::Single => (1, answer_one(fleet, &gen.next_request(), gate).0),
    });
    Measured { units, alloc_ops: (fleet.spec.alloc_units * WINDOW) as u64, allocs, alloc_bytes, latencies_us }
}

/// Verify rounds of a write workload: fixed work, checksummed, with the
/// post-write token checks switched on.
pub fn verify_writes(fleet: &mut Fleet, edits: &mut EditGen, reads: &mut RequestGen, gate: &mut Gate) -> u64 {
    let w = fleet.write.as_ref().expect("write workload").spec;
    let per_round = w.edits_per_round + w.reads_per_round;
    let mut sum = Fnv::default();
    for _ in 0..fleet.spec.warmup_ops.div_ceil(per_round) {
        write_round(fleet, edits, reads, w.edits_per_round, w.reads_per_round, gate, Some(&mut sum));
    }
    sum.0
}

fn measure_writes(
    fleet: &mut Fleet,
    edits: &mut EditGen,
    reads: &mut RequestGen,
    seconds: f64,
    gate: &mut Gate,
) -> Measured {
    let w = fleet.write.as_ref().expect("write workload").spec;
    let mut counted = Round::default();
    for _ in 0..fleet.spec.alloc_units {
        counted.absorb(&write_round(fleet, edits, reads, w.edits_per_round, w.reads_per_round, gate, None));
    }
    let (units, latencies_us) = measure(seconds, |step| match step {
        Step::Unit => {
            let r = write_round(fleet, edits, reads, w.edits_per_round, w.reads_per_round, gate, None);
            (r.ops(), r.total_ns())
        }
        // Propagation time of a single edit: from `edit_device` to its
        // delivery batch leaving `flush_window`.
        Step::Single => {
            let r = write_round(fleet, edits, reads, 1, 0, gate, None);
            gate.invariant(r.batches >= 1, || "a single edit produced no delivery batch".to_string());
            (1, r.propagate_ns)
        }
    });
    Measured {
        units,
        alloc_ops: counted.ops(),
        allocs: counted.allocs,
        alloc_bytes: counted.alloc_bytes,
        latencies_us,
    }
}

pub fn edit_gen(fleet: &Fleet, seed: u64) -> Option<EditGen> {
    fleet
        .write
        .as_ref()
        .map(|w| EditGen::new(w.spec.writers, w.spec.theta, w.spec.devices, fleet.spec.personal, seed))
}

pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut fleet, setup_s, setup_times) = cold_setups(spec)?;
    let mut gate = Gate::default();
    let mut reads = RequestGen::new(spec, seed);
    let mut edits = edit_gen(&fleet, seed);

    let (checksum, m) = match edits.as_mut() {
        None => {
            let sum = verify_reads(&mut fleet, &mut reads, &mut gate);
            let full = fill_audit_rings(&mut fleet, &mut reads, &mut gate);
            gate.invariant(full, || "audit rings not full after the warm-up cap".to_string());
            (sum, measure_reads(&mut fleet, &mut reads, seconds, &mut gate))
        }
        Some(edits) => {
            let sum = verify_writes(&mut fleet, edits, &mut reads, &mut gate);
            let m = measure_writes(&mut fleet, edits, &mut reads, seconds, &mut gate);
            let left = fleet.write.as_ref().expect("write workload").plane.log_entries();
            gate.invariant(left == 0, || format!("{left} change-log entries survived compaction"));
            (sum, m)
        }
    };

    let ops: u64 = m.units.iter().map(|u| u.0).sum();
    let throughput = sliced_throughput(&m.units);
    let p50 = sliced_percentile(&m.latencies_us, 0.5);
    let samples = m.latencies_us.len();
    let tail = supported_tail(samples);
    let p99 = sliced_percentile(&m.latencies_us, tail);
    let mut p99_metric = Metric::sliced("p99_us", &p99, "us", samples);
    p99_metric.note.push_str(&format!(
        "; percentile reported: p{:.0}, the highest with {} samples beyond it per slice",
        tail * 100.0,
        beyond(samples, p99.slices, tail)
    ));
    let per_op = |total: u64| total as f64 / m.alloc_ops.max(1) as f64;
    let metrics = vec![
        Metric::sliced("throughput_ops", &throughput, "1/s", ops as usize),
        Metric::sliced("p50_us", &p50, "us", samples),
        p99_metric,
        Metric::new(
            "allocs_per_op",
            per_op(m.allocs),
            "count",
            format!("over a fixed block of {} ops after warm-up", m.alloc_ops),
        ),
        Metric::new(
            "alloc_bytes_per_op",
            per_op(m.alloc_bytes),
            "B",
            format!("over a fixed block of {} ops after warm-up", m.alloc_ops),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM at exit"),
        Metric::new(
            "setup_s",
            setup_s,
            "s",
            format!("median of {SETUPS} cold fleet builds, each in its own process: {setup_times:.3?}"),
        ),
    ];
    Ok(Outcome {
        workload: spec.name,
        traced: false,
        gate,
        metrics,
        checksum,
        remarks: vec![format!(
            "closed loop, {SHARDS} shards (= worker threads), windows of {WINDOW}, seed {seed}; why: {}",
            spec.why
        )],
    })
}
