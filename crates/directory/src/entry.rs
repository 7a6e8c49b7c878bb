//! Directory entries: flat bags of multi-valued attributes.
//!
//! "LDAP objects are very simple (and flat): each entry in the LDAP tree
//! is a set of name/value pairs. Each of the values can be set valued,
//! but only for atomic types." (§6)

use std::collections::BTreeMap;

use crate::dn::Dn;
use crate::error::DirectoryError;
use crate::objectclass::ObjectClassRegistry;

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The entry's distinguished name.
    pub dn: Dn,
    /// Attributes (names lowercased) to value sets.
    pub attrs: BTreeMap<String, Vec<String>>,
}

impl Entry {
    /// Creates an entry with the given DN and object classes.
    pub fn new(dn: Dn, object_classes: &[&str]) -> Self {
        let mut attrs = BTreeMap::new();
        attrs.insert(
            "objectclass".to_string(),
            object_classes.iter().map(|s| s.to_string()).collect(),
        );
        Entry { dn, attrs }
    }

    /// Builder: adds a value to an attribute.
    pub fn with(mut self, attr: &str, value: impl Into<String>) -> Self {
        self.add(attr, value);
        self
    }

    /// Adds a value to an attribute (duplicates under byte equality are
    /// ignored, per LDAP set semantics).
    pub(crate) fn add(&mut self, attr: &str, value: impl Into<String>) {
        let value = value.into();
        let vs = self.attrs.entry(attr.to_ascii_lowercase()).or_default();
        if !vs.contains(&value) {
            vs.push(value);
        }
    }

    /// Replaces all values of an attribute.
    pub fn replace(&mut self, attr: &str, values: Vec<String>) {
        self.attrs.insert(attr.to_ascii_lowercase(), values);
    }

    /// All values of an attribute.
    pub fn get(&self, attr: &str) -> &[String] {
        self.attrs
            .get(&attr.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// First value of an attribute.
    pub fn first(&self, attr: &str) -> Option<&str> {
        self.get(attr).first().map(String::as_str)
    }

    /// The entry's object classes.
    pub(crate) fn object_classes(&self) -> &[String] {
        self.get("objectClass")
    }

    /// Validates required attributes for every object class the entry
    /// carries.
    pub(crate) fn validate(&self, registry: &ObjectClassRegistry) -> Result<(), DirectoryError> {
        for class in self.object_classes() {
            if registry.class(class).is_none() {
                return Err(DirectoryError::SchemaViolation {
                    dn: self.dn.clone(),
                    detail: format!("unknown objectClass '{class}'"),
                });
            }
            for req in registry.required_attrs(class) {
                if self.get(&req).is_empty() {
                    return Err(DirectoryError::SchemaViolation {
                        dn: self.dn.clone(),
                        detail: format!("missing required attribute '{req}' for class '{class}'"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectclass::standard_classes;

    fn alice() -> Entry {
        Entry::new(Dn::parse("cn=alice,ou=people,o=lucent").unwrap(), &["inetOrgPerson"])
            .with("cn", "alice")
            .with("sn", "Smith")
            .with("telephoneNumber", "908-582-4393")
            .with("mail", "alice@lucent.com")
    }

    #[test]
    fn multivalued_set_semantics() {
        let mut e = alice();
        e.add("telephoneNumber", "908-582-4393"); // duplicate
        e.add("telephoneNumber", "908-555-0000");
        assert_eq!(e.get("telephoneNumber").len(), 2);
        assert_eq!(e.first("cn"), Some("alice"));
        assert!(e.get("nonexistent").is_empty());
    }

    #[test]
    fn case_insensitive_attr_names() {
        let e = alice();
        assert_eq!(e.get("TelephoneNumber").len(), 1);
    }

    #[test]
    fn validation_ok() {
        assert!(alice().validate(&standard_classes()).is_ok());
    }

    #[test]
    fn validation_missing_required() {
        let e = Entry::new(Dn::parse("cn=x,o=y").unwrap(), &["person"]).with("cn", "x");
        let err = e.validate(&standard_classes()).unwrap_err();
        assert!(matches!(err, DirectoryError::SchemaViolation { .. }));
    }

    #[test]
    fn validation_unknown_class() {
        let e = Entry::new(Dn::parse("cn=x,o=y").unwrap(), &["martian"]);
        assert!(e.validate(&standard_classes()).is_err());
    }

    #[test]
    fn replace_sets_every_value() {
        let mut e = alice();
        e.replace("mail", vec!["new@lucent.com".into()]);
        assert_eq!(e.first("mail"), Some("new@lucent.com"));
    }
}
