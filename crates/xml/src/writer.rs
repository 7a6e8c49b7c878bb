//! XML serialization (compact and pretty).

use crate::escape::{escape_attr, escape_text, escaped_attr_len, escaped_text_len};
use crate::node::{Element, Node};

pub(crate) fn write_compact(e: &Element, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (n, v) in &e.attrs {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_attr(v, out);
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for ch in &e.children {
        match ch {
            Node::Element(c) => write_compact(c, out),
            Node::Text(t) => escape_text(t, out),
        }
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

/// `write_compact`'s output length, without the output.
pub(crate) fn compact_len(e: &Element) -> usize {
    let attrs: usize =
        e.attrs.iter().map(|(n, v)| tag_len::attr(n.len(), escaped_attr_len(v))).sum();
    let kids: usize = e
        .children
        .iter()
        .map(|ch| match ch {
            Node::Element(c) => compact_len(c),
            Node::Text(t) => escaped_text_len(t),
        })
        .sum();
    tag_len::element(e.name.len(), attrs, e.children.is_empty(), kids)
}

/// Byte counts of the compact form's punctuation, shared by the owned
/// and the arena counting walks (each is tested against its writer).
pub(crate) mod tag_len {
    /// ` name="value"`.
    pub(crate) fn attr(name: usize, escaped_value: usize) -> usize {
        1 + name + 2 + escaped_value + 1
    }

    /// `<name attrs/>` or `<name attrs>kids</name>`.
    pub(crate) fn element(name: usize, attrs: usize, empty: bool, kids: usize) -> usize {
        if empty {
            1 + name + attrs + 2
        } else {
            1 + name + attrs + 1 + kids + 2 + name + 1
        }
    }
}

pub(crate) fn write_pretty(e: &Element, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    out.push_str(&pad);
    out.push('<');
    out.push_str(&e.name);
    for (n, v) in &e.attrs {
        out.push(' ');
        out.push_str(n);
        out.push_str("=\"");
        escape_attr(v, out);
        out.push('"');
    }
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    let only_text = e.children.iter().all(|c| matches!(c, Node::Text(_)));
    out.push('>');
    if only_text {
        for ch in &e.children {
            if let Node::Text(t) = ch {
                escape_text(t, out);
            }
        }
    } else {
        for ch in &e.children {
            out.push('\n');
            match ch {
                Node::Element(c) => write_pretty(c, indent + 1, out),
                Node::Text(t) => {
                    out.push_str(&"  ".repeat(indent + 1));
                    escape_text(t, out);
                }
            }
        }
        out.push('\n');
        out.push_str(&pad);
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use crate::node::Element;
    use crate::parse;

    #[test]
    fn pretty_shape() {
        let e = Element::new("a")
            .with_child(Element::new("b").with_text("x"))
            .with_child(Element::new("c"));
        let p = e.to_pretty_xml();
        assert_eq!(p, "<a>\n  <b>x</b>\n  <c/>\n</a>");
    }

    #[test]
    fn pretty_roundtrips_to_same_value() {
        let e = Element::new("root")
            .with_attr("id", "u1")
            .with_child(
                Element::new("inner")
                    .with_child(Element::new("leaf").with_text("v < 3 & more")),
            );
        assert_eq!(parse(&e.to_pretty_xml()).unwrap(), e);
        assert_eq!(parse(&e.to_xml()).unwrap(), e);
    }
}
