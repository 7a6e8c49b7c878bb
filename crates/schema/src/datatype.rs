//! Leaf data types with validation and comparison normalization.
//!
//! The paper's LDAP-vs-XML comparison (§6) calls out typing as something
//! LDAP got right: "if a field is a phone number type, then 908-582-4393
//! and (908) 582-4393 should compare as equal despite their different
//! representation". GUPster keeps that property in the XML world by
//! attaching data types to schema leaves; [`DataType::normalize`] yields
//! the comparison form.

use std::fmt;

/// The leaf value types of the GUP schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Free-form text.
    Text,
    /// Decimal integer.
    Integer,
    /// `true` / `false` / `1` / `0`.
    Boolean,
    /// Telephone number; punctuation-insensitive comparison.
    PhoneNumber,
    /// RFC-822-ish electronic mail address; case-insensitive domain.
    Email,
    /// `YYYY-MM-DD[Thh:mm[:ss]]` timestamp.
    DateTime,
    /// URI (scheme:rest) — SIP addresses, web bookmarks.
    Uri,
}

impl DataType {
    /// Validates a raw string against this type.
    pub(crate) fn is_valid(self, raw: &str) -> bool {
        let v = raw.trim();
        match self {
            DataType::Text => true,
            DataType::Integer => {
                !v.is_empty()
                    && v.strip_prefix('-').unwrap_or(v).chars().all(|c| c.is_ascii_digit())
                    && !v.strip_prefix('-').unwrap_or(v).is_empty()
            }
            DataType::Boolean => matches!(v, "true" | "false" | "1" | "0"),
            DataType::PhoneNumber => {
                let digits = v.chars().filter(char::is_ascii_digit).count();
                digits >= 3
                    && v.chars().all(|c| {
                        c.is_ascii_digit()
                            || matches!(c, '+' | '-' | '.' | ' ' | '(' | ')')
                    })
            }
            DataType::Email => {
                let Some((local, domain)) = v.split_once('@') else { return false };
                !local.is_empty() && domain.contains('.') && !domain.ends_with('.')
            }
            DataType::DateTime => parse_datetime(v).is_some(),
            DataType::Uri => {
                let Some((scheme, rest)) = v.split_once(':') else { return false };
                !scheme.is_empty()
                    && scheme.chars().all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-')
                    && !rest.is_empty()
            }
        }
    }

    /// The canonical comparison form of a value of this type. Two raw
    /// values denote the same typed value iff their normal forms are
    /// byte-equal.
    pub fn normalize(self, raw: &str) -> String {
        let v = raw.trim();
        match self {
            DataType::Text => v.to_string(),
            DataType::Integer => {
                let neg = v.starts_with('-');
                let digits: String =
                    v.chars().filter(char::is_ascii_digit).skip_while(|_| false).collect();
                let trimmed = digits.trim_start_matches('0');
                let body = if trimmed.is_empty() { "0" } else { trimmed };
                if neg && body != "0" {
                    format!("-{body}")
                } else {
                    body.to_string()
                }
            }
            DataType::Boolean => match v {
                "true" | "1" => "true".into(),
                _ => "false".into(),
            },
            DataType::PhoneNumber => {
                // Keep a leading + (international form), drop punctuation.
                let plus = v.starts_with('+');
                let digits: String = v.chars().filter(char::is_ascii_digit).collect();
                if plus {
                    format!("+{digits}")
                } else {
                    digits
                }
            }
            DataType::Email => match v.split_once('@') {
                Some((local, domain)) => format!("{local}@{}", domain.to_ascii_lowercase()),
                None => v.to_string(),
            },
            DataType::DateTime => {
                parse_datetime(v).map(|dt| dt.canonical()).unwrap_or_else(|| v.to_string())
            }
            DataType::Uri => v.to_string(),
        }
    }

    /// Typed equality: normalize both sides and compare.
    pub fn values_equal(self, a: &str, b: &str) -> bool {
        self.normalize(a) == self.normalize(b)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Text => "text",
            DataType::Integer => "integer",
            DataType::Boolean => "boolean",
            DataType::PhoneNumber => "phone-number",
            DataType::Email => "email",
            DataType::DateTime => "date-time",
            DataType::Uri => "uri",
        };
        f.write_str(s)
    }
}

#[derive(Debug, PartialEq)]
struct DateTime {
    year: u32,
    month: u32,
    day: u32,
    hour: u32,
    minute: u32,
    second: u32,
}

impl DateTime {
    fn canonical(&self) -> String {
        format!(
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )
    }
}

fn parse_datetime(v: &str) -> Option<DateTime> {
    let (date, time) = match v.split_once('T') {
        Some((d, t)) => (d, Some(t)),
        None => (v, None),
    };
    let mut dp = date.split('-');
    let year: u32 = dp.next()?.parse().ok()?;
    let month: u32 = dp.next()?.parse().ok()?;
    let day: u32 = dp.next()?.parse().ok()?;
    if dp.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    let (mut hour, mut minute, mut second) = (0, 0, 0);
    if let Some(t) = time {
        let mut tp = t.trim_end_matches('Z').split(':');
        hour = tp.next()?.parse().ok()?;
        minute = tp.next()?.parse().ok()?;
        second = match tp.next() {
            Some(s) => s.parse().ok()?,
            None => 0,
        };
        if tp.next().is_some() || hour > 23 || minute > 59 || second > 59 {
            return None;
        }
    }
    Some(DateTime { year, month, day, hour, minute, second })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_phone_example() {
        // The exact example from §6.
        assert!(DataType::PhoneNumber.values_equal("908-582-4393", "(908) 582-4393"));
        assert!(!DataType::PhoneNumber.values_equal("908-582-4393", "908-582-4394"));
        assert!(DataType::PhoneNumber.is_valid("+1 (908) 582-4393"));
        assert!(!DataType::PhoneNumber.is_valid("call me"));
        assert_eq!(DataType::PhoneNumber.normalize("+1 908.582.4393"), "+19085824393");
    }

    #[test]
    fn integers() {
        assert!(DataType::Integer.is_valid("42"));
        assert!(DataType::Integer.is_valid("-7"));
        assert!(!DataType::Integer.is_valid(""));
        assert!(!DataType::Integer.is_valid("-"));
        assert!(!DataType::Integer.is_valid("4x"));
        assert!(DataType::Integer.values_equal("007", "7"));
        assert_eq!(DataType::Integer.normalize("-000"), "0");
    }

    #[test]
    fn booleans() {
        assert!(DataType::Boolean.is_valid("true"));
        assert!(DataType::Boolean.is_valid("0"));
        assert!(!DataType::Boolean.is_valid("yes"));
        assert!(DataType::Boolean.values_equal("1", "true"));
    }

    #[test]
    fn emails() {
        assert!(DataType::Email.is_valid("sahuguet@lucent.com"));
        assert!(!DataType::Email.is_valid("lucent.com"));
        assert!(!DataType::Email.is_valid("@lucent.com"));
        assert!(!DataType::Email.is_valid("a@b"));
        assert!(DataType::Email.values_equal("a@Lucent.COM", "a@lucent.com"));
        assert!(!DataType::Email.values_equal("A@lucent.com", "a@lucent.com"));
    }

    #[test]
    fn datetimes() {
        assert!(DataType::DateTime.is_valid("2003-01-05"));
        assert!(DataType::DateTime.is_valid("2003-01-05T09:30"));
        assert!(DataType::DateTime.is_valid("2003-01-05T09:30:15Z"));
        assert!(!DataType::DateTime.is_valid("2003-13-05"));
        assert!(!DataType::DateTime.is_valid("2003-01-05T25:00"));
        assert!(!DataType::DateTime.is_valid("yesterday"));
        assert!(DataType::DateTime.values_equal("2003-1-5", "2003-01-05T00:00:00"));
    }

    #[test]
    fn uris() {
        assert!(DataType::Uri.is_valid("sip:alice@example.com"));
        assert!(DataType::Uri.is_valid("http://gup.yahoo.com"));
        assert!(!DataType::Uri.is_valid("not a uri"));
        assert!(!DataType::Uri.is_valid(":missing"));
    }

    #[test]
    fn display_names() {
        assert_eq!(DataType::PhoneNumber.to_string(), "phone-number");
        assert_eq!(DataType::Text.to_string(), "text");
    }
}
