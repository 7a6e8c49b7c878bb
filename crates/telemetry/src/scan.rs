//! Field scanners for the one-object-per-line JSON this workspace
//! writes (`OBS_snapshot.json`, `BENCH_slo.json`). Not a JSON parser:
//! each reader knows its own writer's line shape and pulls `"key":
//! value` pairs out of a line. A missing, truncated or unparsable
//! field is an `Err` naming the key — a damaged artifact must fail
//! loudly.

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

#[cfg(test)]
mod tests {
    use crate::slo::parse_slo_json;
    use crate::ObsSnapshot;

    /// Every line-JSON reader in the workspace, fed damaged rows: each
    /// must refuse with an `Err` naming the offending key — never
    /// panic, never read a damaged row as a smaller valid one.
    #[test]
    fn damaged_rows_are_errors_in_every_reader() {
        let slo = |t: &str| parse_slo_json(t).map(drop);
        let obs = |t: &str| ObsSnapshot::parse_json(t).map(drop);
        type Reader<'a> = &'a dyn Fn(&str) -> Result<(), String>;
        let table: [(&str, Reader, &str, &str); 8] = [
            // truncated mid-string, mid-number's key, and mid-row
            ("slo", &slo, r#"{"name": "p99", "stage": "shard.req"#, "stage"),
            ("slo", &slo, r#"{"shard": 0, "stage": "x", "count": 3, "p99_us": 7, "share""#, "share"),
            ("obs", &obs, r#"{"row": "fleet", "requests": 10, "busy_"#, "busy_us"),
            ("obs", &obs, r#"{"row": "hot_user", "name": "u7"#, "name"),
            // a required key missing
            ("slo", &slo, r#"{"name": "p99", "stage": "s", "budget_us": 9, "burn_rate": 1.0}"#, "target"),
            ("obs", &obs, r#"{"row": "layout", "makespan_us": 4}"#, "shards"),
            // a number that is not one
            ("slo", &slo, r#"{"shard": 0, "stage": "x", "count": -3, "p99_us": 7, "share": 0.5}"#, "count"),
            ("obs", &obs, r#"{"row": "fleet", "requests": 1e3, "busy_us": 5}"#, "requests"),
        ];
        for (reader, read, text, key) in table {
            let err = read(text).expect_err(text);
            assert!(err.contains(key), "{reader} on {text}: {err}");
        }
    }
}
