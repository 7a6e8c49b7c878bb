//! LDAP search filters (RFC 2254 string form, the useful subset).

use crate::entry::Entry;
use crate::error::DirectoryError;
use crate::objectclass::ObjectClassRegistry;

/// A search filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// `(attr=value)` — syntax-aware equality.
    Eq(String, String),
    /// `(attr=*)` — presence.
    Present(String),
    /// `(attr=pre*mid*suf)` — substring.
    Substring {
        /// Attribute name.
        attr: String,
        /// Leading literal (may be empty).
        prefix: String,
        /// Inner literals in order.
        parts: Vec<String>,
        /// Trailing literal (may be empty).
        suffix: String,
    },
    /// `(attr>=value)`.
    Ge(String, String),
    /// `(attr<=value)`.
    Le(String, String),
    /// `(&(f1)(f2)…)`.
    And(Vec<Filter>),
    /// `(|(f1)(f2)…)`.
    Or(Vec<Filter>),
    /// `(!(f))`.
    Not(Box<Filter>),
}

impl Filter {
    /// Parses the RFC 2254 string form, e.g.
    /// `(&(objectClass=person)(cn=Ali*))`.
    pub fn parse(s: &str) -> Result<Filter, DirectoryError> {
        let mut p = FParser { s: s.trim().as_bytes(), pos: 0, src: s };
        let f = p.parse_filter()?;
        if p.pos != p.s.len() {
            return Err(DirectoryError::Malformed(format!("trailing input in filter: {s}")));
        }
        Ok(f)
    }

    /// Evaluates the filter against an entry, using the registry's
    /// attribute syntaxes for comparisons.
    pub(crate) fn eval(&self, entry: &Entry, registry: &ObjectClassRegistry) -> bool {
        match self {
            Filter::Eq(attr, value) => {
                let syn = registry.syntax(attr);
                entry.get(attr).iter().any(|v| syn.eq(v, value))
            }
            Filter::Present(attr) => !entry.get(attr).is_empty(),
            Filter::Substring { attr, prefix, parts, suffix } => {
                let syn = registry.syntax(attr);
                entry
                    .get(attr)
                    .iter()
                    .any(|v| syn.matches_substring(v, prefix, suffix, parts))
            }
            Filter::Ge(attr, value) => {
                let syn = registry.syntax(attr);
                entry.get(attr).iter().any(|v| syn.cmp(v, value) != std::cmp::Ordering::Less)
            }
            Filter::Le(attr, value) => {
                let syn = registry.syntax(attr);
                entry.get(attr).iter().any(|v| syn.cmp(v, value) != std::cmp::Ordering::Greater)
            }
            Filter::And(fs) => fs.iter().all(|f| f.eval(entry, registry)),
            Filter::Or(fs) => fs.iter().any(|f| f.eval(entry, registry)),
            Filter::Not(f) => !f.eval(entry, registry),
        }
    }
}

struct FParser<'a> {
    s: &'a [u8],
    pos: usize,
    src: &'a str,
}

impl<'a> FParser<'a> {
    fn err(&self, msg: &str) -> DirectoryError {
        DirectoryError::Malformed(format!("{msg} at {} in '{}'", self.pos, self.src))
    }

    fn expect(&mut self, b: u8) -> Result<(), DirectoryError> {
        if self.s.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_filter(&mut self) -> Result<Filter, DirectoryError> {
        self.expect(b'(')?;
        let f = match self.s.get(self.pos) {
            Some(b'&') => {
                self.pos += 1;
                Filter::And(self.parse_list()?)
            }
            Some(b'|') => {
                self.pos += 1;
                Filter::Or(self.parse_list()?)
            }
            Some(b'!') => {
                self.pos += 1;
                Filter::Not(Box::new(self.parse_filter()?))
            }
            Some(_) => self.parse_simple()?,
            None => return Err(self.err("unexpected end of filter")),
        };
        self.expect(b')')?;
        Ok(f)
    }

    fn parse_list(&mut self) -> Result<Vec<Filter>, DirectoryError> {
        let mut fs = Vec::new();
        while self.s.get(self.pos) == Some(&b'(') {
            fs.push(self.parse_filter()?);
        }
        if fs.is_empty() {
            return Err(self.err("empty filter list"));
        }
        Ok(fs)
    }

    fn parse_simple(&mut self) -> Result<Filter, DirectoryError> {
        let start = self.pos;
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| !matches!(b, b'=' | b'>' | b'<' | b'(' | b')'))
        {
            self.pos += 1;
        }
        let attr = self.src[start..self.pos].trim().to_string();
        if attr.is_empty() {
            return Err(self.err("empty attribute in filter"));
        }
        let op = match self.s.get(self.pos) {
            Some(b'>') => {
                self.pos += 1;
                self.expect(b'=')?;
                b'>'
            }
            Some(b'<') => {
                self.pos += 1;
                self.expect(b'=')?;
                b'<'
            }
            Some(b'=') => {
                self.pos += 1;
                b'='
            }
            _ => return Err(self.err("expected comparison operator")),
        };
        let vstart = self.pos;
        while self.s.get(self.pos).is_some_and(|b| *b != b')') {
            self.pos += 1;
        }
        let value = self.src[vstart..self.pos].to_string();
        match op {
            b'>' => Ok(Filter::Ge(attr, value)),
            b'<' => Ok(Filter::Le(attr, value)),
            _ => {
                if value == "*" {
                    Ok(Filter::Present(attr))
                } else if value.contains('*') {
                    let segs: Vec<&str> = value.split('*').collect();
                    let prefix = segs[0].to_string();
                    let suffix = segs[segs.len() - 1].to_string();
                    let parts =
                        segs[1..segs.len() - 1].iter().map(|s| s.to_string()).collect();
                    Ok(Filter::Substring { attr, prefix, parts, suffix })
                } else {
                    Ok(Filter::Eq(attr, value))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Dn;
    use crate::objectclass::standard_classes;

    fn alice() -> Entry {
        Entry::new(Dn::parse("cn=alice,o=lucent").unwrap(), &["inetOrgPerson"])
            .with("cn", "Alice")
            .with("sn", "Smith")
            .with("telephoneNumber", "908-582-4393")
            .with("uid", "asmith")
    }

    fn holds(f: &str) -> bool {
        Filter::parse(f).unwrap().eval(&alice(), &standard_classes())
    }

    #[test]
    fn equality_with_syntax() {
        assert!(holds("(cn=alice)")); // case-ignore
        assert!(holds("(cn=Alice)"));
    }

    #[test]
    fn equality_phone_spaced() {
        assert!(holds("(telephoneNumber=908 582 4393)"));
        assert!(!holds("(telephoneNumber=908 582 4394)"));
        assert!(!holds("(uid=ASMITH)")); // case-exact
    }

    #[test]
    fn boolean_combinators() {
        assert!(holds("(&(cn=alice)(sn=smith))"));
        assert!(!holds("(&(cn=alice)(sn=jones))"));
        assert!(holds("(|(sn=jones)(sn=smith))"));
        assert!(holds("(!(sn=jones))"));
        assert!(holds("(&(objectClass=inetOrgPerson)(|(cn=ali*)(cn=bob*)))"));
    }

    #[test]
    fn presence_and_substring() {
        assert!(!holds("(mail=*)"));
        assert!(holds("(cn=*)"));
        assert!(holds("(cn=Ali*)"));
        assert!(holds("(cn=*ice)"));
        assert!(holds("(cn=A*c*)"));
        assert!(!holds("(cn=Bob*)"));
    }

    #[test]
    fn ordering_filters() {
        let e = Entry::new(Dn::parse("cn=s,o=x").unwrap(), &["top"]).with("serialNumber", "42");
        let mut r = standard_classes();
        r.set_syntax("serialNumber", crate::syntax::AttributeSyntax::Integer);
        assert!(Filter::parse("(serialNumber>=40)").unwrap().eval(&e, &r));
        assert!(Filter::parse("(serialNumber<=42)").unwrap().eval(&e, &r));
        assert!(!Filter::parse("(serialNumber>=43)").unwrap().eval(&e, &r));
    }

    #[test]
    fn malformed_rejected() {
        for bad in ["", "(cn=alice", "cn=alice", "(&)", "(=x)", "((cn=a))", "(cn=a)x"] {
            assert!(Filter::parse(bad).is_err(), "{bad}");
        }
    }
}
