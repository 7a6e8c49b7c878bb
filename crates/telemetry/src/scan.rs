//! Field scanners for the one-object-per-line JSON of
//! `OBS_snapshot.json`. Not a JSON parser: the reader knows its
//! writer's line shape and pulls `"key": value` pairs out of a line. A
//! missing, truncated or unparsable field is an `Err` naming the key —
//! a damaged artifact must fail loudly.

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
pub(crate) fn scan_str(line: &str, key: &str) -> Result<String, String> {
    let unterminated = || format!("bad {key}: not a closed string in: {line}");
    let rest = scan_after(line, key)?.strip_prefix('"').ok_or_else(unterminated)?;
    Ok(rest[..rest.find('"').ok_or_else(unterminated)?].to_string())
}

/// The unsigned integer value of `key` in `line`.
pub(crate) fn scan_u64(line: &str, key: &str) -> Result<u64, String> {
    scan_num(line, key)
}

/// The floating-point value of `key` in `line`.
pub(crate) fn scan_f64(line: &str, key: &str) -> Result<f64, String> {
    scan_num(line, key)
}

#[cfg(test)]
mod tests {
    use crate::ObsSnapshot;

    /// The line-JSON reader fed damaged rows: it must refuse each with
    /// an `Err` naming the offending key — never panic, never read a
    /// damaged row as a smaller valid one, never allocate for shards
    /// the input does not hold.
    #[test]
    fn damaged_rows_are_errors_in_every_reader() {
        let table = [
            // truncated mid-key and mid-string
            (r#"{"row": "fleet", "requests": 10, "busy_"#, "busy_us"),
            (r#"{"row": "hot_user", "name": "u7"#, "name"),
            // a required key missing
            (r#"{"row": "layout", "makespan_us": 4}"#, "shards"),
            // a number that is not one
            (r#"{"row": "fleet", "requests": 1e3, "busy_us": 5}"#, "requests"),
            // a shard count or index no shard row backs
            (r#"{"row": "layout", "shards": 4294967296, "makespan_us": 4}"#, "shards"),
            (r#"{"row": "counter", "scope": "shard4294967296", "name": "lookups", "value": 1}"#, "scope"),
            (r#"{"row": "shard", "shard": 4294967296, "requests": 1, "busy_us": 1}"#, "shard"),
            (r#"{"row": "fleet", "requests": 1, "busy_us": 1}
{"row": "layout", "shards": 3, "makespan_us": 4}
{"row": "shard", "shard": 0, "requests": 1, "busy_us": 1, "utilization": 0.5, "windows": 1, "queued_max": 1, "queued_mean": 1.0, "p99_request_us": 1}"#, "shards"),
        ];
        for (text, key) in table {
            let err = ObsSnapshot::parse_json(text).map(drop).expect_err(text);
            assert!(err.contains(key), "{text}: {err}");
        }
    }
}
