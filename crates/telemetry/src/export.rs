//! JSON-lines trace export and its (round-tripping) parser.
//!
//! One span per line, flat object, stable key order:
//!
//! ```text
//! {"request":3,"span":1,"parent":0,"stage":"token.sign","start_us":10,"end_us":30}
//! ```
//!
//! The format is deliberately minimal — flat objects with unsigned
//! integers, `null` and strings — so downstream tooling (and the
//! round-trip tests) can parse it without a JSON library.

use gupster_netsim::SimTime;
use gupster_xml::NameInterner;

use crate::span::{RequestId, Span};

/// Serializes one span as a single JSON line (no trailing newline).
pub(crate) fn to_line(s: &Span) -> String {
    let parent = match s.parent {
        Some(p) => p.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"request\":{},\"span\":{},\"parent\":{},\"stage\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
        s.request.0,
        s.id,
        parent,
        escape(s.stage),
        s.start.0,
        s.end.0
    )
}

/// Serializes spans as JSON lines, one per span, trailing newline when
/// non-empty.
pub fn export(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&to_line(s));
        out.push('\n');
    }
    out
}

/// Escapes `s` as the body of a JSON string: the one string encoding of
/// the trace lines and the `ObsSnapshot` rows, which [`Parser::string`]
/// decodes.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parse failure: the offending line (1-based) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole JSON-lines trace (empty lines ignored). A stage label
/// this process never recorded is refused: the name table it would be
/// interned into lives as long as the process.
pub fn parse(text: &str) -> Result<Vec<Span>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|message| ParseError { line: i + 1, message })?);
    }
    Ok(out)
}

/// Parses one exported line back into a [`Span`] whose stage label is
/// the interned one a tracer recorded.
pub(crate) fn parse_line(line: &str) -> Result<Span, String> {
    let mut p = Parser::new(line.trim());
    p.expect(b'{')?;
    let mut request = None;
    let mut span = None;
    let mut parent: Option<Option<u64>> = None;
    let mut stage = None;
    let mut start = None;
    let mut end = None;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "request" => request = Some(p.number()?),
            "span" => span = Some(p.number()?),
            "parent" => parent = Some(p.null_or_number()?),
            "stage" => stage = Some(p.string()?),
            "start_us" => start = Some(p.number()?),
            "end_us" => end = Some(p.number()?),
            other => return Err(format!("unknown key {other:?}")),
        }
        if !p.eat(b',') {
            break;
        }
    }
    p.expect(b'}')?;
    p.end()?;
    let stage = stage.ok_or("missing \"stage\"")?;
    let stage = NameInterner::lookup(&stage).ok_or_else(|| format!("unknown stage {stage:?}"))?;
    Ok(Span {
        request: RequestId(request.ok_or("missing \"request\"")?),
        id: span.ok_or("missing \"span\"")?,
        parent: parent.ok_or("missing \"parent\"")?,
        stage: NameInterner::resolve(stage),
        start: SimTime(start.ok_or("missing \"start_us\"")?),
        end: SimTime(end.ok_or("missing \"end_us\"")?),
    })
}

/// A cursor over one line of flat JSON.
pub(crate) struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character: always a character
    /// boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        Parser { text: line, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips spaces.
    pub(crate) fn skip_spaces(&mut self) {
        while self.peek() == Some(b' ') {
            self.pos += 1;
        }
    }

    /// A bare (number) token: everything up to the next `,` or `}`.
    pub(crate) fn token(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        while !matches!(self.peek(), None | Some(b',' | b'}')) {
            self.pos += 1;
        }
        self.text.get(start..self.pos).ok_or_else(|| format!("bad token at byte {start}"))
    }

    /// Skips one value: a string or a bare token.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'"') {
            self.string().map(drop)
        } else {
            self.token().map(drop)
        }
    }

    pub(crate) fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    pub(crate) fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn end(&self) -> Result<(), String> {
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected number at byte {start}"));
        }
        self.text[start..self.pos]
            .parse()
            .map_err(|e| format!("bad number: {e}"))
    }

    fn null_or_number(&mut self) -> Result<Option<u64>, String> {
        if self.text[self.pos..].starts_with("null") {
            self.pos += 4;
            Ok(None)
        } else {
            self.number().map(Some)
        }
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("dangling escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar, reading no further.
                    let rest = &self.text[self.pos..];
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span whose stage label this process recorded, as a tracer
    /// does.
    fn span(request: u64, id: u64, parent: Option<u64>, stage: &'static str) -> Span {
        Span {
            request: RequestId(request),
            id,
            parent,
            stage: NameInterner::resolve(NameInterner::intern(stage)),
            start: SimTime::micros(10 * id),
            end: SimTime::micros(10 * id + 7),
        }
    }

    #[test]
    fn round_trip() {
        let spans = vec![
            span(0, 0, None, "registry.lookup"),
            span(0, 1, Some(0), "policy.decide"),
            span(1, 0, None, "cache.hit"),
        ];
        let text = export(&spans);
        assert_eq!(text.lines().count(), 3);
        let back = parse(&text).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn line_shape_is_stable() {
        let line = to_line(&span(3, 1, Some(0), "token.sign"));
        assert_eq!(
            line,
            r#"{"request":3,"span":1,"parent":0,"stage":"token.sign","start_us":10,"end_us":17}"#
        );
        let root = to_line(&span(3, 0, None, "root"));
        assert!(root.contains("\"parent\":null"), "{root}");
    }

    #[test]
    fn escaping_round_trips() {
        let s = span(0, 0, None, "weird \"stage\"\\ with\nnewline\tand\u{1}ctrl");
        let back = parse_line(&to_line(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"request":1}"#).is_err(), "missing keys");
        assert!(parse_line(r#"{"request":1,"span":0,"parent":null,"stage":"s","start_us":0,"end_us":0} extra"#).is_err());
        let err = parse("{\"request\":oops}\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    /// A label no tracer in this process recorded is refused, naming its
    /// line, and never reaches the process-wide name table.
    #[test]
    fn unrecorded_labels_are_refused_and_not_interned() {
        let label = |i: usize| format!("made-up.label-5c4f-{i}");
        // A recorded root span's line, relabelled.
        let line = |id, stage: &str| {
            let recorded = span(0, id, id.checked_sub(1), "registry.lookup");
            to_line(&recorded).replace("registry.lookup", stage)
        };
        for i in 0..100_000 {
            let err = parse(&line(0, &label(i))).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.message.contains(&label(i)), "{err}");
        }
        let text = format!("{}\n{}\n", line(0, "registry.lookup"), line(1, &label(7)));
        assert_eq!(parse(&text).unwrap_err().line, 2);
        assert!((0..100_000).all(|i| NameInterner::lookup(&label(i)).is_none()));
    }

    #[test]
    fn empty_lines_ignored() {
        let spans = vec![span(0, 0, None, "r")];
        let mut text = String::from("\n");
        text.push_str(&export(&spans));
        text.push('\n');
        assert_eq!(parse(&text).unwrap(), spans);
    }
}
