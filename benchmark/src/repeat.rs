//! Suite and `--repeat` modes: every workload run in a fresh child
//! process of this same executable, so no run inherits another's heap,
//! interners or page cache state.
//!
//! `--repeat N` is the tool for judging noise and, later, for A/B
//! pairs: N passes over the workloads with seeds `seed..seed+N`,
//! alternating the workload order, then per metric the spread between
//! the passes (interquartile range over median, the acceptance rule's
//! statistic) and a verdict against the metric's bound.

use std::process::{Command, Stdio};

use crate::spec::{self, Better, END_TO_END};
use crate::stats;

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    Ok(cmd)
}

/// The whole suite once: each workload untraced, then traced, output
/// passed straight through. True when every run was correct.
pub fn suite(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for spec in spec::all() {
        for trace in [false, true] {
            let status = child(spec.name, seed, seconds, trace)
                .and_then(|mut c| c.status().map_err(|e| format!("cannot run {}: {e}", spec.name)));
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} (trace {}) failed: {s}", spec.name, trace as u8);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    ok
}

/// One child's result line, as far as `--repeat` needs it.
#[derive(Debug, PartialEq)]
struct Parsed {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Reads back the one-line JSON this program prints (not JSON in
/// general): `"name": {"value": 1.5, "unit": "us"}` pairs after
/// `"metrics":`.
fn parse_result(line: &str) -> Option<Parsed> {
    let correct = line.contains("\"correct\": true");
    let (_, metrics) = line.split_once("\"metrics\": {")?;
    let mut out = Vec::new();
    for part in metrics.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        out.push((name.to_string(), value.trim_end_matches([',', ' ']).parse().ok()?));
    }
    Some(Parsed { correct, metrics: out })
}

fn run_captured(workload: &str, seed: u64, seconds: f64) -> Result<(Parsed, String), String> {
    let out = child(workload, seed, seconds, false)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let parsed = parse_result(last).ok_or_else(|| format!("{workload}: no result line in {text:?}"))?;
    let checksum = text
        .lines()
        .find_map(|l| l.split_once("checksum ").map(|(_, c)| c.trim().to_string()))
        .unwrap_or_default();
    Ok((parsed, checksum))
}

pub fn repeat(n: usize, only: Option<&str>, seed: u64, seconds: f64) -> bool {
    let names: Vec<&'static str> =
        spec::all().iter().map(|s| s.name).filter(|w| only.is_none_or(|o| o == *w)).collect();
    // values[workload][metric] = one value per pass.
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; names.len()];
    let mut order: Vec<usize> = (0..names.len()).collect();
    let mut ok = true;
    for pass in 0..n {
        for &wi in &order {
            let w = names[wi];
            match run_captured(w, seed + pass as u64, seconds) {
                Ok((parsed, checksum)) => {
                    ok &= parsed.correct;
                    let cell = |name: &str| parsed.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
                    println!(
                        "pass {pass} seed {} {w}: correct {} checksum {checksum} allocs_per_op {}",
                        seed + pass as u64,
                        parsed.correct,
                        cell("allocs_per_op").unwrap_or(f64::NAN)
                    );
                    for (mi, m) in END_TO_END.iter().enumerate() {
                        match cell(m.name) {
                            Some(v) => values[wi][mi].push(v),
                            None => ok = false,
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        order.reverse();
    }
    println!("\nspread over {n} passes = (q3 - q1) / median; verdict against the metric's bound");
    for (wi, w) in names.iter().enumerate() {
        println!("== {w} ==");
        for (mi, m) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            if v.is_empty() {
                continue;
            }
            let spread = stats::spread(v);
            let verdict = if m.name == "setup_s" {
                "exempt from the spread rule"
            } else if spread <= m.bound / 3.0 {
                "steady (below a third of the bound)"
            } else if spread <= m.bound {
                "within the bound"
            } else {
                ok = false;
                "UNRESOLVED: spread exceeds the bound"
            };
            let (q1, q3) = stats::quartiles(v);
            println!(
                "  {:<20} median {:>14.4} {:<5} q1 {:>14.4} q3 {:>14.4} spread {:>6.2}% bound {:>4.0}% ({}) {verdict}",
                m.name,
                stats::median(v),
                m.unit,
                q1,
                q3,
                100.0 * spread,
                100.0 * m.bound,
                if m.better == Better::Higher { "higher is better" } else { "lower is better" },
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_its_own_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        assert_eq!(
            parse_result(line),
            Some(Parsed {
                correct: true,
                metrics: vec![("p50_us".to_string(), 12.5), ("setup_s".to_string(), 0.25)]
            })
        );
        assert!(!parse_result(&line.replace("true", "false")).unwrap().correct);
        assert_eq!(parse_result("== call_path =="), None);
    }
}
