//! Entity escaping and unescaping for text and attribute values.
//!
//! Both escape directions are scan-first: a byte scan (escapable
//! characters are all ASCII, so scanning bytes is UTF-8 safe) decides
//! whether anything needs escaping at all, and the overwhelmingly
//! common clean string is appended in one `push_str` — the [`Cow`]
//! variants hand it back borrowed without touching an output buffer.

use std::borrow::Cow;

/// Escapes the predefined XML entities for text content, returning the
/// input borrowed when nothing needs escaping.
pub(crate) fn escape_text_cow(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| matches!(b, b'&' | b'<' | b'>')) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Escapes for a double-quoted attribute value, returning the input
/// borrowed when nothing needs escaping.
pub(crate) fn escape_attr_cow(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| matches!(b, b'&' | b'<' | b'>' | b'"' | b'\'')) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Escapes the five predefined XML entities for use in text content.
pub(crate) fn escape_text(s: &str, out: &mut String) {
    out.push_str(&escape_text_cow(s));
}

/// Escapes for a double-quoted attribute value.
pub(crate) fn escape_attr(s: &str, out: &mut String) {
    out.push_str(&escape_attr_cow(s));
}

/// Length of `s` once escaped as text content ([`escape_text`]).
pub(crate) fn escaped_text_len(s: &str) -> usize {
    s.bytes().fold(s.len(), |n, b| match b {
        b'&' => n + 4,
        b'<' | b'>' => n + 3,
        _ => n,
    })
}

/// Length of `s` once escaped as an attribute value ([`escape_attr`]).
pub(crate) fn escaped_attr_len(s: &str) -> usize {
    s.bytes().fold(s.len(), |n, b| match b {
        b'&' => n + 4,
        b'<' | b'>' => n + 3,
        b'"' | b'\'' => n + 5,
        _ => n,
    })
}

/// Resolves one entity reference starting *after* the `&`. Returns the
/// decoded char and the number of input bytes consumed (excluding `&`),
/// or `None` if the reference is malformed.
pub(crate) fn resolve_entity(rest: &str) -> Option<(char, usize)> {
    let semi = rest.find(';')?;
    if semi == 0 || semi > 10 {
        return None;
    }
    let name = &rest[..semi];
    let ch = match name {
        "amp" => '&',
        "lt" => '<',
        "gt" => '>',
        "quot" => '"',
        "apos" => '\'',
        _ => {
            let code = if let Some(hex) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                u32::from_str_radix(hex, 16).ok()?
            } else if let Some(dec) = name.strip_prefix('#') {
                dec.parse::<u32>().ok()?
            } else {
                return None;
            };
            char::from_u32(code)?
        }
    };
    Some((ch, semi + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip_chars() {
        let mut s = String::new();
        escape_text("a<b&c>d", &mut s);
        assert_eq!(s, "a&lt;b&amp;c&gt;d");
        let mut a = String::new();
        escape_attr(r#"say "hi" & 'bye'"#, &mut a);
        assert_eq!(a, "say &quot;hi&quot; &amp; &apos;bye&apos;");
    }

    #[test]
    fn escaped_lengths_match_the_escapers() {
        for s in ["", "plain", "a<b&c>d", r#"say "hi" & 'bye'"#, "déjà <vü>"] {
            assert_eq!(escaped_text_len(s), escape_text_cow(s).len(), "{s}");
            assert_eq!(escaped_attr_len(s), escape_attr_cow(s).len(), "{s}");
        }
    }

    #[test]
    fn clean_strings_borrow() {
        assert!(matches!(escape_text_cow("plain text"), std::borrow::Cow::Borrowed(_)));
        assert!(matches!(escape_attr_cow("plain attr"), std::borrow::Cow::Borrowed(_)));
        // Attribute escaping is stricter than text escaping.
        assert!(matches!(escape_text_cow(r#"has "quotes""#), std::borrow::Cow::Borrowed(_)));
        assert!(matches!(escape_attr_cow(r#"has "quotes""#), std::borrow::Cow::Owned(_)));
        // UTF-8 passes the byte scan untouched.
        assert!(matches!(escape_text_cow("déjà vü"), std::borrow::Cow::Borrowed(_)));
    }

    #[test]
    fn entities_resolve() {
        assert_eq!(resolve_entity("amp;x"), Some(('&', 4)));
        assert_eq!(resolve_entity("lt;"), Some(('<', 3)));
        assert_eq!(resolve_entity("#65;"), Some(('A', 4)));
        assert_eq!(resolve_entity("#x41;"), Some(('A', 5)));
        assert_eq!(resolve_entity("bogus;"), None);
        assert_eq!(resolve_entity("noend"), None);
        assert_eq!(resolve_entity(";"), None);
    }
}
