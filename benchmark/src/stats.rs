//! Slice and percentile arithmetic, and the answer checksum.
//!
//! A measured phase is cut into equal-work slices and the metric is
//! read from the **quiet end** of the slice distribution: the best
//! slice in 33 — the fastest of 24 throughput slices, the third lowest
//! of 96 per-slice latency percentiles. The reference box has two
//! speeds: for seconds to minutes at a time everything runs 15–35%
//! slower (single-threaded code included), then recovers. Interference
//! only ever slows a slice down, so the quiet end estimates what the
//! code costs, and the finer the slices the likelier a run is to catch
//! a quiet moment: it reads slow only if all of it was.

/// Slices the throughput chunks are cut into (also the number of turns
/// of the measured part).
pub const SLICES: usize = 24;

/// Slices a latency series is cut into when it has enough samples.
pub const LATENCY_SLICES: usize = 96;

/// The quiet end: this share of the slices may be better than the one
/// reported (at least the best one is always looked at).
pub const QUIET: f64 = 0.03;

/// Samples that must lie beyond a reported tail percentile, per slice.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`0 < q ≤ 1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `k`-th of `slices` equal cuts of `0..n` (the remainder spreads over
/// the cuts, nothing is dropped).
pub fn cut(n: usize, slices: usize, k: usize) -> std::ops::Range<usize> {
    (k * n / slices)..((k + 1) * n / slices)
}

/// How many slices a phase of `samples` latencies supports for
/// percentile `q`: the most (up to [`LATENCY_SLICES`]) that still leave
/// [`MIN_BEYOND`] samples beyond `q` in every slice; 1 when even the
/// whole phase cannot.
pub fn slices_for_tail(samples: usize, q: f64) -> usize {
    (1..=LATENCY_SLICES).rev().find(|&s| beyond(samples, s, q) >= MIN_BEYOND).unwrap_or(1)
}

/// The percentiles a tail metric may report, best first.
pub const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// The highest percentile of [`TAIL_LADDER`] that `samples` latencies
/// support in at least [`SLICES`] slices, each with [`MIN_BEYOND`]
/// samples beyond it (the lowest rung when none does). A tail read from
/// a handful of slices has no quiet end to be read from — `book_merge`'s
/// p99 over six slices moved by a factor of two to three with the
/// machine's mood where its p95 over thirty did not — and a phase of a
/// few dozen slow operations cannot say anything about its 99th
/// percentile at all: the largest of fifty samples is the machine's
/// worst moment.
pub fn supported_tail(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&q| slices_for_tail(samples, q) >= SLICES)
        .unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1])
}

/// Samples beyond percentile `q` in the smallest slice.
pub fn beyond(samples: usize, slices: usize, q: f64) -> usize {
    // `1.0 - 0.9` is a hair under a tenth; without the nudge a hundred
    // samples would leave 9.99… beyond p90.
    ((samples / slices) as f64 * (1.0 - q) + 1e-9).floor() as usize
}

/// Which end of the slice distribution is the quiet one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiet {
    /// Bigger is better (throughput).
    High,
    /// Smaller is better (latency).
    Low,
}

/// A metric with the slice distribution it was read from.
#[derive(Debug, Clone, PartialEq)]
pub struct Sliced {
    pub value: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub slices: usize,
    /// The per-slice values in run order (drift shows here).
    pub series: Vec<f64>,
}

pub fn quiet_end(per_slice: &[f64], quiet: Quiet) -> Sliced {
    let s = sorted(per_slice);
    // Rank from the better end: ⌈QUIET · n⌉, at least the best slice.
    let rank = ((QUIET * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Sliced {
        value: if quiet == Quiet::High { s[s.len() - rank] } else { s[rank - 1] },
        min: s[0],
        median: percentile(&s, 0.5),
        max: s[s.len() - 1],
        slices: s.len(),
        series: per_slice.to_vec(),
    }
}

/// Per-slice throughput (ops/s) of a phase recorded as `(ops, ns)`
/// units of work (windows or rounds), quiet end taken high.
pub fn sliced_throughput(units: &[(u64, u64)]) -> Sliced {
    let slices = SLICES.min(units.len()).max(1);
    let per_slice: Vec<f64> = (0..slices)
        .map(|k| {
            let part = &units[cut(units.len(), slices, k)];
            let ops: u64 = part.iter().map(|u| u.0).sum();
            let ns: u64 = part.iter().map(|u| u.1).sum();
            ops as f64 * 1e9 / ns.max(1) as f64
        })
        .collect();
    quiet_end(&per_slice, Quiet::High)
}

/// Per-slice percentile `q` of a latency series (in arrival order),
/// quiet end taken low. Tail percentiles use fewer slices when the
/// series is short (see [`slices_for_tail`]).
pub fn sliced_percentile(latencies: &[f64], q: f64) -> Sliced {
    let slices = slices_for_tail(latencies.len(), q).min(latencies.len()).max(1);
    let per_slice: Vec<f64> =
        (0..slices).map(|k| percentile(&sorted(&latencies[cut(latencies.len(), slices, k)]), q)).collect();
    quiet_end(&per_slice, Quiet::Low)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so `--repeat`
/// verdicts agree with the acceptance script's.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| -> f64 {
        // Cut point i of 4 at position i·(n+1)/4, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// FNV-1a, 64-bit, streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn cuts_cover_everything_once() {
        for n in [12usize, 13, 100, 1001] {
            let total: usize = (0..SLICES).map(|k| cut(n, SLICES, k).len()).sum();
            assert_eq!(total, n);
            assert_eq!(cut(n, SLICES, 0).start, 0);
            assert_eq!(cut(n, SLICES, SLICES - 1).end, n);
        }
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 96 slices of 1000 leave exactly 10 beyond p99.
        assert_eq!(slices_for_tail(96_000, 0.99), 96);
        assert_eq!(beyond(96_000, 96, 0.99), 10);
        // One sample short: 95 slices of 1010.
        assert_eq!(slices_for_tail(95_999, 0.99), 95);
        // 4000 samples support 4 slices of 1000.
        assert_eq!(slices_for_tail(4_000, 0.99), 4);
        // Fewer than 1000 samples: one slice, rule not met.
        assert_eq!(slices_for_tail(600, 0.99), 1);
        assert!(beyond(600, 1, 0.99) < MIN_BEYOND);
        // The median needs only 20 samples per slice.
        assert_eq!(slices_for_tail(600, 0.5), 30);
        assert_eq!(slices_for_tail(6_000, 0.5), 96);
    }

    #[test]
    fn tail_percentile_falls_back_with_the_sample_count() {
        // 24 slices of 1000 carry a p99, of 200 a p95, of 100 a p90.
        assert_eq!(supported_tail(70_000), 0.99);
        assert_eq!(supported_tail(24_000), 0.99);
        assert_eq!(supported_tail(23_999), 0.95);
        assert_eq!(supported_tail(4_800), 0.95);
        assert_eq!(supported_tail(4_799), 0.90);
        assert_eq!(supported_tail(2_400), 0.90);
        assert_eq!(supported_tail(2_399), 0.75);
        // Too few for 24 slices of any rung: the lowest rung, over as
        // many slices as it supports.
        assert_eq!(supported_tail(50), 0.75);
        assert_eq!(slices_for_tail(50, 0.75), 1);
    }

    #[test]
    fn quiet_end_picks_the_undisturbed_slices() {
        // One quiet slice and 23 that interference slowed: the run
        // still reads quiet.
        let mut thr = vec![70.0; 23];
        thr.push(100.0);
        let t = quiet_end(&thr, Quiet::High);
        assert_eq!((t.value, t.min, t.median, t.max, t.slices), (100.0, 70.0, 70.0, 100.0, 24));
        // Of 96 latency slices the third lowest: two freak slices are
        // not believed.
        let lat: Vec<f64> = (1..=96).map(f64::from).collect();
        let l = quiet_end(&lat, Quiet::Low);
        assert_eq!((l.value, l.median, l.slices), (3.0, 48.0, 96));
        assert_eq!(quiet_end(&[5.0, 4.0], Quiet::Low).value, 4.0);
    }

    #[test]
    fn sliced_throughput_sums_ops_over_time() {
        // 48 windows of 512 ops in 1 ms each: 512k ops/s in every slice.
        let units = vec![(512u64, 1_000_000u64); 48];
        let t = sliced_throughput(&units);
        assert_eq!(t.slices, 24);
        assert!((t.value - 512_000.0).abs() < 1e-6);
        // Fewer units than slices: one slice per unit.
        assert_eq!(sliced_throughput(&units[..5]).slices, 5);
    }

    #[test]
    fn sliced_percentile_respects_arrival_order() {
        // Two halves with different levels; 2400 samples → p50 slices 96.
        let lat: Vec<f64> = (0..2400).map(|i| if i < 1200 { 10.0 } else { 20.0 }).collect();
        let p50 = sliced_percentile(&lat, 0.5);
        assert_eq!((p50.min, p50.max, p50.slices), (10.0, 20.0, 96));
        assert_eq!(p50.value, 10.0);
        // p99 of 2400 samples only supports 2 slices.
        assert_eq!(sliced_percentile(&lat, 0.99).slices, 2);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_reference_vectors() {
        let mut h = Fnv::default();
        h.update(b"");
        assert_eq!(h.0, 0xcbf29ce484222325);
        h.update(b"a");
        assert_eq!(h.0, 0xaf63dc4c8601ec8c);
        let mut h = Fnv::default();
        h.update(b"foobar");
        assert_eq!(h.0, 0x85944171f73967e8);
    }
}
