//! Field scanners for the one-object-per-line JSON of
//! `OBS_snapshot.json`. Not a general JSON parser: a row is one flat
//! object of `"key": value` pairs whose values are strings or bare
//! numbers. A lookup walks the pairs in order with the trace codec's
//! [`Parser`], so a key is only ever matched as a key, never inside a
//! string value, and strings decode the escapes
//! [`escape`](crate::export::escape) writes. A missing, truncated or
//! unparsable field is an `Err` naming the key — a damaged artifact
//! must fail loudly.

use std::fmt::Display;
use std::str::FromStr;

use crate::export::Parser;

/// A parser positioned at the value of `key` in `line`.
fn value_of<'a>(line: &'a str, key: &str) -> Result<Parser<'a>, String> {
    let missing = || format!("no {key} in: {line}");
    let mut p = Parser::new(line.trim_start());
    p.expect(b'{').map_err(|_| missing())?;
    loop {
        p.skip_spaces();
        let k = p.string().map_err(|_| missing())?;
        p.expect(b':').map_err(|_| missing())?;
        p.skip_spaces();
        if k == key {
            return Ok(p);
        }
        p.skip_value().map_err(|_| missing())?;
        if !p.eat(b',') {
            return Err(missing());
        }
    }
}

fn scan_num<T: FromStr>(line: &str, key: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let token = value_of(line, key)?.token().map_err(|e| format!("bad {key}: {e}"))?;
    token.trim().parse().map_err(|e| format!("bad {key}: {e}"))
}

/// The string value of `key` in `line`.
pub(crate) fn scan_str(line: &str, key: &str) -> Result<String, String> {
    value_of(line, key)?.string().map_err(|e| format!("bad {key}: {e} in: {line}"))
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
