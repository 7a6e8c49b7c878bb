//! A minimal wall-clock micro-benchmark harness.
//!
//! The benches under `benches/` are plain `main()` binaries
//! (`harness = false`) built on this module: [`bench()`] warms the body
//! up, sizes a measurement batch from the warm-up rate, and prints one
//! `ns/iter` line per benchmark. No statistics beyond the mean — these
//! exist to catch order-of-magnitude regressions and to be runnable in
//! a hermetic environment.
//!
//! ```text
//! cargo bench -p gupster-bench --bench registry
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

const WARM_UP: Duration = Duration::from_millis(200);
const MEASURE: Duration = Duration::from_millis(600);

/// Runs `body` repeatedly and prints its mean wall-clock cost. The
/// body's return value is passed through [`black_box`] so the work is
/// not optimized away.
pub fn bench<T>(name: &str, mut body: impl FnMut() -> T) {
    // Warm-up: run until the budget elapses, counting iterations to
    // estimate the per-iteration cost.
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < WARM_UP {
        black_box(body());
        warm_iters += 1;
    }
    let per_iter_ns =
        (WARM_UP.as_nanos() as u64 / warm_iters.max(1)).max(1);
    let iters = (MEASURE.as_nanos() as u64 / per_iter_ns).clamp(1, 100_000_000);

    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    let elapsed = t0.elapsed();
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<44} {:>14}/iter  ({iters} iters)", fmt_ns(ns));
}

/// Prints the suite header (one per bench binary).
pub fn suite(title: &str) {
    println!("== {title} ==");
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::fmt_ns;

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(950.0), "950 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
    }
}
