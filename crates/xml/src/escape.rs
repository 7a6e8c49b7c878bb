//! Entity escaping and unescaping for text and attribute values.
//!
//! Escaping writes straight into the caller's buffer. It first counts
//! what escaping would add, one table lookup per byte and no branch
//! (escapable characters are all ASCII, so counting bytes is UTF-8
//! safe), and appends the overwhelmingly common clean string whole.
//! Nothing is built on the side.

/// What escaping adds to each byte's length: `&` → `&amp;`, `<` and
/// `>` → `&lt;` / `&gt;`, and for an attribute value `"` and `'` →
/// `&quot;` / `&apos;`.
const fn extra_table(attr: bool) -> [u8; 256] {
    let mut t = [0u8; 256];
    t[b'&' as usize] = 4;
    t[b'<' as usize] = 3;
    t[b'>' as usize] = 3;
    if attr {
        t[b'"' as usize] = 5;
        t[b'\'' as usize] = 5;
    }
    t
}

static TEXT_EXTRA: [u8; 256] = extra_table(false);
static ATTR_EXTRA: [u8; 256] = extra_table(true);

/// Length of `s` once escaped by `extra`.
fn escaped_len(s: &str, extra: &[u8; 256]) -> usize {
    s.len() + s.bytes().map(|b| usize::from(extra[usize::from(b)])).sum::<usize>()
}

/// Appends `s` to `out` escaped by `extra`: clean runs whole, each
/// escapable byte as its entity.
fn escape_into(s: &str, out: &mut String, extra: &[u8; 256]) {
    if escaped_len(s, extra) == s.len() {
        return out.push_str(s);
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if extra[usize::from(b)] == 0 {
            continue;
        }
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escapes the predefined XML entities text content needs.
pub(crate) fn escape_text(s: &str, out: &mut String) {
    escape_into(s, out, &TEXT_EXTRA);
}

/// Escapes for a double-quoted attribute value: all five predefined
/// entities.
pub(crate) fn escape_attr(s: &str, out: &mut String) {
    escape_into(s, out, &ATTR_EXTRA);
}

/// Length of `s` once escaped as text content ([`escape_text`]).
pub(crate) fn escaped_text_len(s: &str) -> usize {
    escaped_len(s, &TEXT_EXTRA)
}

/// Length of `s` once escaped as an attribute value ([`escape_attr`]).
pub(crate) fn escaped_attr_len(s: &str) -> usize {
    escaped_len(s, &ATTR_EXTRA)
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

    fn text(s: &str) -> String {
        let mut out = String::new();
        escape_text(s, &mut out);
        out
    }

    fn attr(s: &str) -> String {
        let mut out = String::new();
        escape_attr(s, &mut out);
        out
    }

    #[test]
    fn escaped_lengths_match_the_escapers() {
        for s in ["", "plain", "a<b&c>d", r#"say "hi" & 'bye'"#, "déjà <vü>"] {
            assert_eq!(escaped_text_len(s), text(s).len(), "{s}");
            assert_eq!(escaped_attr_len(s), attr(s).len(), "{s}");
        }
    }

    #[test]
    fn clean_strings_pass_through() {
        assert_eq!(text("plain text"), "plain text");
        assert_eq!(attr("plain attr"), "plain attr");
        // Attribute escaping is stricter than text escaping.
        assert_eq!(text(r#"has "quotes""#), r#"has "quotes""#);
        assert_eq!(attr(r#"has "quotes""#), "has &quot;quotes&quot;");
        // UTF-8 passes the byte scan untouched, around an entity too.
        assert_eq!(text("déjà vü"), "déjà vü");
        assert_eq!(text("é<ü"), "é&lt;ü");
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
