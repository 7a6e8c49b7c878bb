//! Attribute syntaxes with comparison normalizers.
//!
//! LDAP's typing "is not used so much for sanity checking input as for
//! deciding which comparison function to use" (§6) — this module keeps
//! that behaviour.

/// How an attribute's values are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttributeSyntax {
    /// Case-insensitive, whitespace-squeezing string match (LDAP
    /// `caseIgnoreMatch`, the default for most attributes).
    #[default]
    CaseIgnore,
    /// Byte-exact match.
    CaseExact,
    /// Telephone numbers: punctuation-insensitive.
    Telephone,
    /// Decimal integers: numeric comparison.
    Integer,
    /// Opaque binary/blob values: byte-exact, not searchable by
    /// substring. Netscape roaming profiles use this.
    Binary,
}

impl AttributeSyntax {
    /// Canonical comparison form.
    pub fn normalize(self, raw: &str) -> String {
        match self {
            AttributeSyntax::CaseIgnore => {
                let mut out = String::with_capacity(raw.len());
                let mut last_space = true;
                for c in raw.trim().chars() {
                    if c.is_whitespace() {
                        if !last_space {
                            out.push(' ');
                            last_space = true;
                        }
                    } else {
                        out.extend(c.to_lowercase());
                        last_space = false;
                    }
                }
                if out.ends_with(' ') {
                    out.pop();
                }
                out
            }
            AttributeSyntax::CaseExact | AttributeSyntax::Binary => raw.to_string(),
            AttributeSyntax::Telephone => {
                let plus = raw.trim_start().starts_with('+');
                let digits: String = raw.chars().filter(char::is_ascii_digit).collect();
                if plus {
                    format!("+{digits}")
                } else {
                    digits
                }
            }
            AttributeSyntax::Integer => {
                let v = raw.trim();
                let neg = v.starts_with('-');
                let digits: String = v.chars().filter(char::is_ascii_digit).collect();
                let trimmed = digits.trim_start_matches('0');
                let body = if trimmed.is_empty() { "0" } else { trimmed };
                if neg && body != "0" {
                    format!("-{body}")
                } else {
                    body.to_string()
                }
            }
        }
    }

    /// Equality under this syntax.
    pub fn eq(self, a: &str, b: &str) -> bool {
        self.normalize(a) == self.normalize(b)
    }

    /// Ordering comparison (used by `>=` / `<=` filters). Integers
    /// compare numerically; other syntaxes compare normalized strings.
    pub(crate) fn cmp(self, a: &str, b: &str) -> std::cmp::Ordering {
        if self == AttributeSyntax::Integer {
            let pa: i64 = self.normalize(a).parse().unwrap_or(0);
            let pb: i64 = self.normalize(b).parse().unwrap_or(0);
            pa.cmp(&pb)
        } else {
            self.normalize(a).cmp(&self.normalize(b))
        }
    }

    /// Substring match (`cn=Ali*`); binary syntax never matches.
    pub(crate) fn matches_substring(self, value: &str, prefix: &str, suffix: &str, parts: &[String]) -> bool {
        if self == AttributeSyntax::Binary {
            return false;
        }
        let v = self.normalize(value);
        let p = self.normalize(prefix);
        let s = self.normalize(suffix);
        if !v.starts_with(&p) || !v[p.len()..].ends_with(&s) {
            return false;
        }
        let mut rest = &v[p.len()..v.len() - s.len()];
        for part in parts {
            let np = self.normalize(part);
            match rest.find(&np) {
                Some(i) => rest = &rest[i + np.len()..],
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_ignore_squeezes() {
        let s = AttributeSyntax::CaseIgnore;
        assert!(s.eq("Alice  Smith", "alice smith"));
        assert!(s.eq("  Bob ", "bob"));
        assert!(!s.eq("alice", "alicia"));
    }

    #[test]
    fn telephone_punct_insensitive() {
        let s = AttributeSyntax::Telephone;
        assert!(s.eq("908-582-4393", "(908) 582-4393"));
        assert!(s.eq("+1 908 582 4393", "+1-908-582-4393"));
        assert!(!s.eq("+19085824393", "19085824393")); // + significant
    }

    #[test]
    fn integer_numeric() {
        let s = AttributeSyntax::Integer;
        assert!(s.eq("007", "7"));
        assert_eq!(s.cmp("9", "10"), std::cmp::Ordering::Less);
        assert_eq!(s.cmp("-2", "1"), std::cmp::Ordering::Less);
    }

    #[test]
    fn substring_matching() {
        let s = AttributeSyntax::CaseIgnore;
        // cn=Ali* → prefix "Ali"
        assert!(s.matches_substring("Alice", "ali", "", &[]));
        // cn=*ice → suffix
        assert!(s.matches_substring("Alice", "", "ice", &[]));
        // cn=A*c*e → prefix + inner + suffix
        assert!(s.matches_substring("Alice", "a", "e", &["c".into()]));
        assert!(!s.matches_substring("Alice", "b", "", &[]));
        assert!(!s.matches_substring("Alice", "", "", &["z".into()]));
        assert!(!AttributeSyntax::Binary.matches_substring("blob", "b", "", &[]));
    }

    #[test]
    fn exact_vs_ignore() {
        assert!(!AttributeSyntax::CaseExact.eq("Alice", "alice"));
        assert!(AttributeSyntax::CaseExact.eq("Alice", "Alice"));
    }
}
