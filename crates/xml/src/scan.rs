//! The XML grammar, once: the scanner both parsers build from.
//!
//! [`scan`] reads the XML 1.0 subset GUPster exchanges: elements,
//! attributes (single- or double-quoted), character data with the five
//! predefined entities plus numeric references, CDATA sections,
//! comments, an optional XML declaration and processing instructions
//! (both skipped). Not supported (rejected or ignored by design): DTDs,
//! namespaces, entity definitions. It reports what it reads to a
//! [`Sink`] as open / attribute / text / close events. The owned
//! [`crate::parse`] and [`crate::ArenaDoc::parse`] are two sinks, so
//! they accept and reject the same inputs, with the same error at the
//! same byte, by construction.
//!
//! Two limits bound what hostile input can cost. The input must be
//! shorter than 4 GiB, so that every offset into it fits the `u32`s
//! values and arena rows are addressed with. Elements nest at most
//! [`MAX_DEPTH`] deep: the scanner keeps the open elements on a heap
//! stack rather than the call stack, and the bound keeps the recursive
//! walks over a parsed tree (drop, serialize, merge) shallow.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::ops::Range;

use crate::error::{ParseError, ParseErrorKind};
use crate::escape::resolve_entity;

/// The deepest an element may nest, counting the document element as
/// depth one. Every document in the workspace's tests, experiments and
/// examples would parse under a bound of 12.
pub(crate) const MAX_DEPTH: usize = 256;

/// Character data or an attribute value, as the scanner hands it over.
pub(crate) enum Chars<'s> {
    /// These bytes of the input, literally: no entity reference, CDATA
    /// section, comment or PI falls among them.
    Source(Range<usize>),
    /// Decoded characters, lent for the duration of the event.
    Decoded(&'s str),
}

impl<'s> Chars<'s> {
    /// The characters, with a [`Chars::Source`] range read from `input`.
    pub(crate) fn text(self, input: &'s str) -> &'s str {
        match self {
            Chars::Source(r) => &input[r],
            Chars::Decoded(s) => s,
        }
    }
}

/// What a parse builds: the scanner's events arrive in document order.
/// An element's attributes directly follow its `open`; its text runs
/// and child elements follow those, up to its `close`.
pub(crate) trait Sink<'a> {
    /// A start tag `<name`.
    fn open(&mut self, name: &'a str);
    /// An attribute of the element opened last, its entities resolved.
    /// No attribute name repeats within a start tag.
    fn attr(&mut self, name: &'a str, value: Chars<'_>);
    /// A non-empty run of character data in the innermost open element:
    /// everything between two tags, with comments and PIs left out and
    /// entity references and CDATA sections resolved.
    fn text(&mut self, text: Chars<'_>);
    /// The end of the innermost open element: its end tag, or `/>`.
    fn close(&mut self);
}

/// Scans a complete document into `sink`. On `Ok`, `sink` has seen one
/// document element, opened and closed.
pub(crate) fn scan<'a, S: Sink<'a>>(input: &'a str, sink: &mut S) -> Result<(), ParseError> {
    if u32::try_from(input.len()).is_err() {
        let msg = format!("input of {} bytes is not under 4 GiB", input.len());
        return Err(ParseError::new(0, input, ParseErrorKind::TooLong, msg));
    }
    let mut s =
        Scanner { input, pos: 0, open: Vec::new(), attrs: Vec::new(), decoded: String::new() };
    s.skip_prolog()?;
    s.document_element(sink)?;
    s.skip_misc();
    if s.pos < input.len() {
        return Err(s.err("trailing content after document element"));
    }
    Ok(())
}

struct Scanner<'a> {
    input: &'a str,
    pos: usize,
    /// Names of the open elements, innermost last: what end tags must
    /// match, and the depth.
    open: Vec<&'a str>,
    /// Attribute names of the start tag being read.
    attrs: Vec<&'a str>,
    /// The attribute value being read, decoded, once it holds an entity
    /// reference.
    decoded: String,
}

impl<'a> Scanner<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, self.input, ParseErrorKind::Syntax, msg)
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    /// Moves past every byte `keep` accepts.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.input.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
    }

    /// Moves past the first `close` that starts `skip` bytes on or
    /// later, and returns what lies between. Without one, stays put and
    /// fails with `msg`.
    fn through(&mut self, skip: usize, close: &str, msg: &str) -> Result<&'a str, ParseError> {
        let body = &self.rest()[skip..];
        match body.find(close) {
            Some(end) => {
                self.bump(skip + end + close.len());
                Ok(&body[..end])
            }
            None => Err(self.err(msg)),
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        self.through(0, "?>", "unterminated processing instruction").map(drop)
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        self.through(4, "-->", "unterminated comment").map(drop)
    }

    /// Skips the XML declaration, comments, PIs and whitespace before
    /// the document element.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                return Err(self.err("DTDs are not supported"));
            } else {
                return Ok(());
            }
        }
    }

    /// Skips comments, PIs and whitespace after the document element.
    /// An unterminated one is left in place, as trailing content.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let skipped = if self.starts_with("<!--") {
                self.skip_comment()
            } else if self.starts_with("<?") {
                self.skip_pi()
            } else {
                return;
            };
            if skipped.is_err() {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        if !self.peek().is_some_and(is_name_start) {
            return Err(self.err("expected a name"));
        }
        self.skip_while(is_name_char);
        Ok(&self.input[start..self.pos])
    }

    /// The document element and everything in it, iteratively: an
    /// element costs a slot on `open`, not a stack frame.
    fn document_element<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<(), ParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        if !self.start_tag(sink)? {
            return Ok(());
        }
        let mut run = TextRun { start: self.pos, slice: None, acc: String::new() };
        loop {
            let at = self.pos;
            if self.starts_with("</") {
                run.finish(self.input, at, sink);
                self.end_tag()?;
                sink.close();
                if self.open.is_empty() {
                    return Ok(());
                }
                run.start = self.pos;
                continue;
            }
            match self.peek() {
                None => {
                    let name = self.open.last().copied().unwrap_or_default();
                    return Err(self.err(format!("unclosed element <{name}>")));
                }
                Some(b'<') if self.starts_with("<!--") => {
                    self.skip_comment()?;
                    run.interrupt(self.input, at, self.pos);
                }
                Some(b'<') if self.starts_with("<![CDATA[") => {
                    self.bump(9);
                    let cdata = self.through(0, "]]>", "unterminated CDATA section")?;
                    run.push(self.input, at, cdata, self.pos);
                }
                Some(b'<') if self.starts_with("<?") => {
                    self.skip_pi()?;
                    run.interrupt(self.input, at, self.pos);
                }
                Some(b'<') => {
                    run.finish(self.input, at, sink);
                    self.start_tag(sink)?;
                    run.start = self.pos;
                }
                Some(b'&') => {
                    self.bump(1);
                    let Some((c, n)) = resolve_entity(self.rest()) else {
                        return Err(self.err("malformed entity reference"));
                    };
                    self.bump(n);
                    run.push(self.input, at, c.encode_utf8(&mut [0; 4]), self.pos);
                }
                // Literal character data extends the current segment.
                Some(_) => self.skip_while(|b| b != b'<' && b != b'&'),
            }
        }
    }

    /// A start tag, from its `<`. Returns whether the element has
    /// content to read; a `/>` closes it at once.
    fn start_tag<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<bool, ParseError> {
        if self.open.len() >= MAX_DEPTH {
            let msg = format!("elements nest more than {MAX_DEPTH} deep");
            return Err(ParseError::new(self.pos, self.input, ParseErrorKind::TooDeep, msg));
        }
        self.bump(1);
        let name = self.name()?;
        sink.open(name);
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("expected '/>'"));
                    }
                    self.bump(2);
                    sink.close();
                    return Ok(false);
                }
                Some(b'>') => {
                    self.bump(1);
                    self.open.push(name);
                    return Ok(true);
                }
                Some(_) => self.attribute(sink)?,
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// An attribute: a literal value is a range of the input, one with
    /// entity references is decoded.
    fn attribute<S: Sink<'a>>(&mut self, sink: &mut S) -> Result<(), ParseError> {
        let name = self.name()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(self.err("expected '=' after attribute name"));
        }
        self.bump(1);
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.bump(1);
        self.decoded.clear();
        let mut seg = self.pos;
        loop {
            self.skip_while(|b| b != quote && b != b'<' && b != b'&');
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(b'&') => {
                    self.decoded.push_str(&self.input[seg..self.pos]);
                    self.bump(1);
                    let Some((c, n)) = resolve_entity(self.rest()) else {
                        return Err(self.err("malformed entity reference"));
                    };
                    self.decoded.push(c);
                    self.bump(n);
                    seg = self.pos;
                }
                Some(_) => break,
            }
        }
        let end = self.pos;
        self.bump(1);
        if self.attrs.contains(&name) {
            return Err(self.err(format!("duplicate attribute '{name}'")));
        }
        self.attrs.push(name);
        // Every entity reference decodes to a character.
        if self.decoded.is_empty() {
            sink.attr(name, Chars::Source(seg..end));
        } else {
            self.decoded.push_str(&self.input[seg..end]);
            sink.attr(name, Chars::Decoded(&self.decoded));
        }
        Ok(())
    }

    /// An end tag, from its `</`: it must close the innermost open
    /// element.
    fn end_tag(&mut self) -> Result<(), ParseError> {
        self.bump(2);
        let close = self.name()?;
        let open = self.open.pop().unwrap_or_default();
        if close != open {
            return Err(self.err(format!(
                "mismatched closing tag: expected </{open}>, found </{close}>"
            )));
        }
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("expected '>' to end closing tag"));
        }
        self.bump(1);
        Ok(())
    }
}

/// A run of character data being read. It stays one literal range of
/// the input ([`Chars::Source`]) for as long as it can, and turns into
/// decoded text ([`Chars::Decoded`]) once an entity reference or a
/// CDATA section joins it, or text continues on both sides of a
/// comment or PI.
struct TextRun {
    /// Where the literal segment being read began.
    start: usize,
    /// The run so far, while it is one literal range.
    slice: Option<Range<usize>>,
    /// The run so far, once it is not.
    acc: String,
}

impl TextRun {
    /// Ends the literal segment `start..upto` and adds it to the run.
    fn close_seg(&mut self, input: &str, upto: usize) {
        if upto <= self.start {
            return;
        }
        if self.slice.is_none() && self.acc.is_empty() {
            self.slice = Some(self.start..upto);
        } else {
            self.decode(input);
            self.acc.push_str(&input[self.start..upto]);
        }
        self.start = upto;
    }

    /// Moves a literal run into `acc`.
    fn decode(&mut self, input: &str) {
        if let Some(r) = self.slice.take() {
            self.acc.push_str(&input[r]);
        }
    }

    /// Decoded characters `s` read from `at` on (an entity reference or
    /// a CDATA section); literal text resumes at `resume`.
    fn push(&mut self, input: &str, at: usize, s: &str, resume: usize) {
        self.close_seg(input, at);
        self.decode(input);
        self.acc.push_str(s);
        self.start = resume;
    }

    /// A comment or PI from `at` to `resume`: it adds nothing, but splits
    /// the literal text around it into two segments.
    fn interrupt(&mut self, input: &str, at: usize, resume: usize) {
        self.close_seg(input, at);
        self.start = resume;
    }

    /// Ends the run at the tag at `at`, handing `sink` what it read.
    fn finish<'a, S: Sink<'a>>(&mut self, input: &str, at: usize, sink: &mut S) {
        self.close_seg(input, at);
        if let Some(r) = self.slice.take() {
            sink.text(Chars::Source(r));
        } else if !self.acc.is_empty() {
            sink.text(Chars::Decoded(&self.acc));
            self.acc.clear();
        }
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.' || b == b':'
}
