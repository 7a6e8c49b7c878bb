//! The owned parser: an [`Element`] tree built from the scanner's events.
//!
//! The grammar, its error messages and its limits live in `scan.rs`,
//! which [`crate::ArenaDoc::parse`] builds from too; this module only
//! turns elements, attributes and text runs into [`Node`]s.

use crate::error::ParseError;
use crate::node::{Element, Node};
use crate::scan::{scan, Chars, Sink};
use crate::value::Value;

/// Parses a complete XML document and returns its root element.
///
/// Whitespace-only text between elements is preserved inside mixed
/// content but dropped when an element contains only element children —
/// "pretty printed" profile documents round-trip to the same value.
/// Accepts and rejects exactly the inputs [`crate::ArenaDoc::parse`]
/// does, with the same errors: both read the input through one scanner.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut tree = Tree { input, open: Vec::new(), root: Element::default() };
    scan(input, &mut tree)?;
    Ok(tree.root)
}

/// The owned builder: the open elements, innermost last, and the
/// document element once it has closed.
struct Tree<'a> {
    input: &'a str,
    open: Vec<Element>,
    root: Element,
}

impl<'a> Sink<'a> for Tree<'a> {
    fn open(&mut self, name: &'a str) {
        self.open.push(Element::new(name.to_owned()));
    }

    fn attr(&mut self, name: &'a str, value: Chars<'_>) {
        let value = Value::from(value.text(self.input));
        if let Some(e) = self.open.last_mut() {
            e.attrs.push((name.to_owned().into(), value));
        }
    }

    fn text(&mut self, text: Chars<'_>) {
        let text = Value::from(text.text(self.input));
        if let Some(e) = self.open.last_mut() {
            e.children.push(Node::Text(text));
        }
    }

    fn close(&mut self) {
        let Some(e) = self.open.pop() else { return };
        match self.open.last_mut() {
            Some(parent) => parent.children.push(Node::Element(e)),
            None => self.root = e,
        }
    }
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
