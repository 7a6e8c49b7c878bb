//! Shared text and attribute values.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable text or attribute value: a byte range of a shared
/// `Arc<str>`. It dereferences to `&str`, and compares, hashes, orders
/// and prints exactly as that `str` does.
///
/// A value materialized out of an [`crate::ArenaDoc`] is a range of the
/// document's value buffer, so handing it out, or cloning an
/// [`crate::Element`] that holds it, bumps a reference count and copies
/// no bytes. The value keeps the whole buffer alive for as long as it
/// lives. A value built from a `&str` or a `String` copies the bytes
/// into a buffer of its own; the empty value holds no buffer at all.
#[derive(Clone, Default)]
pub struct Value {
    buf: Option<Arc<str>>,
    start: u32,
    end: u32,
}

/// `n` as a buffer offset. Values are addressed with `u32` offsets,
/// which keeps a [`Value`] the size of a `String`.
pub(crate) fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("XML values are under 4 GiB")
}

impl Value {
    /// The value as a string slice.
    pub(crate) fn as_str(&self) -> &str {
        match &self.buf {
            Some(b) => &b[self.start as usize..self.end as usize],
            None => "",
        }
    }

    /// The bytes `start..end` of this value, sharing its buffer. The
    /// empty range holds no buffer.
    pub(crate) fn slice(&self, start: u32, end: u32) -> Value {
        match &self.buf {
            Some(b) if start < end => {
                Value { buf: Some(Arc::clone(b)), start: self.start + start, end: self.start + end }
            }
            _ => Value::default(),
        }
    }
}

impl Deref for Value {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        if s.is_empty() {
            return Value::default();
        }
        Value { buf: Some(Arc::from(s)), start: 0, end: offset(s.len()) }
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::from(s.as_str())
    }
}

impl From<Cow<'_, str>> for Value {
    fn from(s: Cow<'_, str>) -> Value {
        Value::from(&*s)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn behaves_as_its_str() {
        let whole = Value::from("say \"hé\"\n");
        let part = whole.slice(4, 9);
        assert_eq!(&*part, "\"hé\"");
        assert_eq!(part, Value::from("\"hé\""));
        assert_eq!(format!("{part:?}"), format!("{:?}", "\"hé\""));
        assert_eq!(format!("[{part:>8}]"), format!("[{:>8}]", "\"hé\""));
        assert_eq!(hash(&part), hash("\"hé\""));
        assert_eq!(hash(&part), hash(&String::from("\"hé\"")));
        assert_eq!(part.cmp(&Value::from("\"a")), "\"hé\"".cmp("\"a"));
    }

    #[test]
    fn slices_share_and_empties_hold_nothing() {
        let whole = Value::from(String::from("abcdef"));
        let (ab, cd) = (whole.slice(0, 2), whole.slice(2, 4));
        let b = whole.buf.as_ref().unwrap();
        assert!(Arc::ptr_eq(b, ab.buf.as_ref().unwrap()));
        assert!(Arc::ptr_eq(b, cd.slice(1, 2).buf.as_ref().unwrap()));
        assert_eq!(&*cd.slice(1, 2), "d");
        assert_eq!(Arc::strong_count(b), 3);
        assert!(whole.slice(3, 3).buf.is_none());
        assert!(Value::from("").buf.is_none());
        assert_eq!(Value::from(""), Value::default());
    }
}
