//! Distinguished names.

use std::fmt;

use crate::error::DirectoryError;

/// A distinguished name: a chain of `attr=value` RDNs, leaf first,
/// e.g. `cn=alice,ou=people,o=lucent`.
///
/// Comparison is case-insensitive on attribute names and trims
/// whitespace, per LDAP convention. Multi-valued RDNs are not supported
/// (they are rare and add nothing to the reproduction).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dn {
    /// RDNs, leaf (most specific) first. Attribute names lowercased.
    pub rdns: Vec<(String, String)>,
}

impl Dn {
    /// The empty (root) DN.
    pub fn root() -> Self {
        Dn { rdns: Vec::new() }
    }

    /// Parses `cn=alice,ou=people,o=lucent`. An empty string is the root.
    pub fn parse(s: &str) -> Result<Dn, DirectoryError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Dn::root());
        }
        let mut rdns = Vec::new();
        for part in s.split(',') {
            let (a, v) = part
                .split_once('=')
                .ok_or_else(|| DirectoryError::Malformed(format!("RDN without '=': {part}")))?;
            let a = a.trim().to_ascii_lowercase();
            let v = v.trim().to_string();
            if a.is_empty() || v.is_empty() {
                return Err(DirectoryError::Malformed(format!("empty RDN component: {part}")));
            }
            rdns.push((a, v));
        }
        Ok(Dn { rdns })
    }

    /// Builds a child DN: `attr=value,self`.
    pub fn child(&self, attr: &str, value: &str) -> Dn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push((attr.to_ascii_lowercase(), value.to_string()));
        rdns.extend(self.rdns.iter().cloned());
        Dn { rdns }
    }

    /// The parent DN (None for the root).
    pub fn parent(&self) -> Option<Dn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(Dn { rdns: self.rdns[1..].to_vec() })
        }
    }

    /// Depth (number of RDNs).
    pub(crate) fn depth(&self) -> usize {
        self.rdns.len()
    }

    /// True if `self` equals `base` or lies beneath it.
    pub fn is_under(&self, base: &Dn) -> bool {
        let (n, m) = (self.rdns.len(), base.rdns.len());
        n >= m && self.rdns[n - m..] == base.rdns[..]
    }

    /// True if `self` is a direct child of `base`.
    pub fn is_child_of(&self, base: &Dn) -> bool {
        self.rdns.len() == base.rdns.len() + 1 && self.is_under(base)
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rdns.is_empty() {
            return f.write_str("<root>");
        }
        let parts: Vec<String> = self.rdns.iter().map(|(a, v)| format!("{a}={v}")).collect();
        f.write_str(&parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let dn = Dn::parse("CN=Alice , ou=people, o=lucent").unwrap();
        assert_eq!(dn.to_string(), "cn=Alice,ou=people,o=lucent");
        assert_eq!(dn.depth(), 3);
    }

    #[test]
    fn root_parse() {
        assert_eq!(Dn::parse("").unwrap(), Dn::root());
        assert_eq!(Dn::root().to_string(), "<root>");
        assert!(Dn::root().parent().is_none());
    }

    #[test]
    fn malformed_rejected() {
        assert!(Dn::parse("no-equals").is_err());
        assert!(Dn::parse("cn=,o=x").is_err());
        assert!(Dn::parse("=v,o=x").is_err());
    }

    #[test]
    fn hierarchy_relations() {
        let base = Dn::parse("ou=people,o=lucent").unwrap();
        let alice = base.child("cn", "alice");
        let deep = alice.child("deviceid", "d1");
        assert!(alice.is_under(&base));
        assert!(alice.is_child_of(&base));
        assert!(deep.is_under(&base));
        assert!(!deep.is_child_of(&base));
        assert!(base.is_under(&base));
        assert!(!base.is_under(&alice));
        assert_eq!(alice.parent().unwrap(), base);
        let other = Dn::parse("ou=people,o=yahoo").unwrap();
        assert!(!alice.is_under(&other));
    }

    #[test]
    fn everything_under_root() {
        let dn = Dn::parse("cn=x,o=y").unwrap();
        assert!(dn.is_under(&Dn::root()));
    }
}
