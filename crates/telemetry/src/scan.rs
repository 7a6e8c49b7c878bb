//! Field scanners for the one-object-per-line JSON this workspace
//! writes (`OBS_snapshot.json`, `BENCH_*.json`). Not a JSON parser:
//! each reader knows its own writer's line shape and pulls `"key":
//! value` pairs out of a line. A missing, truncated or unparsable
//! field is an `Err` naming the key — a damaged artifact must fail
//! its gate loudly.

use std::fmt::Display;
use std::str::FromStr;

fn scan_after<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).ok_or_else(|| format!("no {key} in: {line}"))? + pat.len();
    Ok(line[at..].trim_start())
}

fn scan_num<T: FromStr>(line: &str, key: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let rest = scan_after(line, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().map_err(|e| format!("bad {key}: {e}"))
}

/// The string value of `key` in `line`.
pub fn scan_str(line: &str, key: &str) -> Result<String, String> {
    let unterminated = || format!("bad {key}: not a closed string in: {line}");
    let rest = scan_after(line, key)?.strip_prefix('"').ok_or_else(unterminated)?;
    Ok(rest[..rest.find('"').ok_or_else(unterminated)?].to_string())
}

/// The unsigned integer value of `key` in `line`.
pub fn scan_u64(line: &str, key: &str) -> Result<u64, String> {
    scan_num(line, key)
}

/// The floating-point value of `key` in `line`.
pub fn scan_f64(line: &str, key: &str) -> Result<f64, String> {
    scan_num(line, key)
}
