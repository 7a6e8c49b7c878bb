//! A recursive-descent parser for the XML 1.0 subset GUPster exchanges.
//!
//! Supported: elements, attributes (single- or double-quoted), character
//! data with the five predefined entities plus numeric references, CDATA
//! sections, comments, an optional XML declaration and processing
//! instructions (both skipped). Not supported (rejected or ignored by
//! design): DTDs, namespaces, entity definitions.

use crate::error::ParseError;
use crate::escape::resolve_entity;
use crate::node::{Element, Node};

/// Parses a complete XML document and returns its root element.
///
/// Whitespace-only text between elements is preserved inside mixed
/// content but dropped when an element contains only element children —
/// "pretty printed" profile documents round-trip to the same value.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_prolog()?;
    let root = p.parse_element()?;
    p.skip_misc();
    if p.pos < p.input.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, self.input, msg)
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

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips the XML declaration, comments, PIs and whitespace before the
    /// document element.
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

    /// Skips comments/PIs/whitespace after the document element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_comment().is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_pi().is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_pi(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with("<?"));
        match self.rest().find("?>") {
            Some(end) => {
                self.bump(end + 2);
                Ok(())
            }
            None => Err(self.err("unterminated processing instruction")),
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        debug_assert!(self.starts_with("<!--"));
        match self.rest()[4..].find("-->") {
            Some(end) => {
                self.bump(4 + end + 3);
                Ok(())
            }
            None => Err(self.err("unterminated comment")),
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let bytes = self.input.as_bytes();
        if self.pos >= bytes.len() || !is_name_start(bytes[self.pos]) {
            return Err(self.err("expected a name"));
        }
        while self.pos < bytes.len() && is_name_char(bytes[self.pos]) {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_element(&mut self) -> Result<Element, ParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.bump(1);
        let name = self.parse_name()?.to_owned();
        let mut elem = Element::new(name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if !self.starts_with("/>") {
                        return Err(self.err("expected '/>'"));
                    }
                    self.bump(2);
                    return Ok(elem);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let (an, av) = self.parse_attribute()?;
                    if elem.attr(&an).is_some() {
                        return Err(self.err(format!("duplicate attribute '{an}'")));
                    }
                    elem.attrs.push((an.into(), av.into()));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }

        self.parse_content(&mut elem)?;

        // Closing tag: parse_content stops right before "</".
        self.bump(2);
        let close = self.parse_name()?;
        if close != elem.name {
            return Err(self.err(format!(
                "mismatched closing tag: expected </{}>, found </{close}>",
                elem.name
            )));
        }
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("expected '>' to end closing tag"));
        }
        self.bump(1);
        normalize_whitespace(&mut elem);
        Ok(elem)
    }

    fn parse_attribute(&mut self) -> Result<(String, String), ParseError> {
        let name = self.parse_name()?.to_owned();
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
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(q) if q == quote => {
                    self.bump(1);
                    return Ok((name, value));
                }
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(b'&') => {
                    self.bump(1);
                    match resolve_entity(self.rest()) {
                        Some((c, n)) => {
                            value.push(c);
                            self.bump(n);
                        }
                        None => return Err(self.err("malformed entity reference")),
                    }
                }
                Some(_) => {
                    let c = self.rest().chars().next().expect("peeked");
                    value.push(c);
                    self.bump(c.len_utf8());
                }
            }
        }
    }

    fn parse_content(&mut self, elem: &mut Element) -> Result<(), ParseError> {
        let mut text = String::new();
        loop {
            if self.starts_with("</") {
                flush_text(&mut text, elem);
                return Ok(());
            }
            match self.peek() {
                None => return Err(self.err(format!("unclosed element <{}>", elem.name))),
                Some(b'<') => {
                    if self.starts_with("<!--") {
                        self.skip_comment()?;
                    } else if self.starts_with("<![CDATA[") {
                        self.bump(9);
                        match self.rest().find("]]>") {
                            Some(end) => {
                                text.push_str(&self.rest()[..end]);
                                self.bump(end + 3);
                            }
                            None => return Err(self.err("unterminated CDATA section")),
                        }
                    } else if self.starts_with("<?") {
                        self.skip_pi()?;
                    } else {
                        flush_text(&mut text, elem);
                        let child = self.parse_element()?;
                        elem.children.push(Node::Element(child));
                    }
                }
                Some(b'&') => {
                    self.bump(1);
                    match resolve_entity(self.rest()) {
                        Some((c, n)) => {
                            text.push(c);
                            self.bump(n);
                        }
                        None => return Err(self.err("malformed entity reference")),
                    }
                }
                Some(_) => {
                    let c = self.rest().chars().next().expect("peeked");
                    text.push(c);
                    self.bump(c.len_utf8());
                }
            }
        }
    }
}

fn flush_text(text: &mut String, elem: &mut Element) {
    if !text.is_empty() {
        elem.children.push(Node::Text(text.as_str().into()));
        text.clear();
    }
}

/// Drops whitespace-only text children from elements that also contain
/// element children ("element content" indentation); an element whose
/// only children are whitespace text keeps them (it is genuine data).
fn normalize_whitespace(elem: &mut Element) {
    let has_elem = elem.children.iter().any(|c| matches!(c, Node::Element(_)));
    if has_elem {
        elem.children.retain(|c| match c {
            Node::Text(t) => !t.chars().all(char::is_whitespace),
            Node::Element(_) => true,
        });
    }
}

pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

pub(crate) fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.' || b == b':'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name, "a");
        assert!(e.children.is_empty());
    }

    #[test]
    fn declaration_and_comments() {
        let e = parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><!-- in --><b/></a>\n<!-- post -->").unwrap();
        assert_eq!(e.child_elements().count(), 1);
    }

    #[test]
    fn attributes_both_quotes() {
        let e = parse(r#"<a x="1" y='2 "quoted"'/>"#).unwrap();
        assert_eq!(e.attr("x"), Some("1"));
        assert_eq!(e.attr("y"), Some(r#"2 "quoted""#));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let e = parse(r#"<a k="&lt;&amp;&gt;">&#65;&amp;B</a>"#).unwrap();
        assert_eq!(e.attr("k"), Some("<&>"));
        assert_eq!(e.text(), "A&B");
    }

    #[test]
    fn cdata() {
        let e = parse("<a><![CDATA[<raw> & stuff]]></a>").unwrap();
        assert_eq!(e.text(), "<raw> & stuff");
    }

    #[test]
    fn mixed_content_preserved() {
        let e = parse("<p>hello <b>world</b>!</p>").unwrap();
        assert_eq!(e.children.len(), 3);
        assert_eq!(e.deep_text(), "hello world!");
    }

    #[test]
    fn pretty_printed_indentation_dropped() {
        let e = parse("<a>\n  <b>x</b>\n  <c/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn whitespace_only_leaf_text_kept() {
        let e = parse("<a>   </a>").unwrap();
        assert_eq!(e.text(), "   ");
    }

    #[test]
    fn mismatched_close_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn unclosed_rejected() {
        assert!(parse("<a><b>").is_err());
        assert!(parse("<a").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn doctype_rejected() {
        assert!(parse("<!DOCTYPE html><a/>").is_err());
    }

    #[test]
    fn error_position_reported() {
        let err = parse("<a>\n<b x=></b></a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn utf8_names_and_text() {
        let e = parse("<café note=\"déjà\">vü</café>").unwrap();
        assert_eq!(e.name, "café");
        assert_eq!(e.attr("note"), Some("déjà"));
        assert_eq!(e.text(), "vü");
    }

    #[test]
    fn roundtrip_compact() {
        let src = r#"<user id="arnaud"><address-book><item type="personal"><name>Bob &amp; Carol</name></item></address-book></user>"#;
        let e = parse(src).unwrap();
        assert_eq!(e.to_xml(), src);
        assert_eq!(parse(&e.to_pretty_xml()).unwrap(), e);
    }
}
