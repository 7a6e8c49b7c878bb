//! Object classes: LDAP's "aspect"-style extensibility (§6: "objects are
//! modeled with aspects and can always implement a new objectclass").

use std::collections::BTreeMap;

use crate::syntax::AttributeSyntax;

/// An object class: a named set of required and optional attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ObjectClass {
    /// Class name, e.g. `inetOrgPerson`.
    pub name: String,
    /// Superclass name (`top` has none).
    pub superior: Option<String>,
    /// Attributes that must be present.
    pub required: Vec<String>,
    /// Attributes that may be present.
    pub optional: Vec<String>,
}

impl ObjectClass {
    /// Creates an object class.
    pub(crate) fn new(
        name: &str,
        superior: Option<&str>,
        required: &[&str],
        optional: &[&str],
    ) -> Self {
        ObjectClass {
            name: name.to_string(),
            superior: superior.map(str::to_string),
            required: required.iter().map(|s| s.to_string()).collect(),
            optional: optional.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A registry of object classes plus per-attribute syntaxes.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectClassRegistry {
    classes: BTreeMap<String, ObjectClass>,
    syntaxes: BTreeMap<String, AttributeSyntax>,
}

impl ObjectClassRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a class.
    pub(crate) fn add_class(&mut self, class: ObjectClass) {
        self.classes.insert(class.name.clone(), class);
    }

    /// Declares the syntax of an attribute (default: case-ignore).
    pub(crate) fn set_syntax(&mut self, attr: &str, syntax: AttributeSyntax) {
        self.syntaxes.insert(attr.to_ascii_lowercase(), syntax);
    }

    /// The syntax of an attribute.
    pub(crate) fn syntax(&self, attr: &str) -> AttributeSyntax {
        self.syntaxes.get(&attr.to_ascii_lowercase()).copied().unwrap_or_default()
    }

    /// Looks up a class by name.
    pub(crate) fn class(&self, name: &str) -> Option<&ObjectClass> {
        self.classes.get(name)
    }

    /// All attributes required by a class, including inherited ones.
    /// Unknown classes contribute nothing.
    pub(crate) fn required_attrs(&self, class: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = Some(class.to_string());
        while let Some(name) = cur {
            match self.classes.get(&name) {
                Some(c) => {
                    out.extend(c.required.iter().cloned());
                    cur = c.superior.clone();
                }
                None => break,
            }
        }
        out
    }
}

/// The standard class registry used by the reproduction: classic LDAP
/// person/org classes, a DEN-flavoured device class, and Netscape's
/// roaming-profile container class with its opaque blob attributes.
pub(crate) fn standard_classes() -> ObjectClassRegistry {
    let mut r = ObjectClassRegistry::new();
    r.add_class(ObjectClass::new("top", None, &["objectClass"], &[]));
    r.add_class(ObjectClass::new("organization", Some("top"), &["o"], &["description"]));
    r.add_class(ObjectClass::new(
        "organizationalUnit",
        Some("top"),
        &["ou"],
        &["description"],
    ));
    r.add_class(ObjectClass::new(
        "person",
        Some("top"),
        &["cn", "sn"],
        &["telephoneNumber", "description", "seeAlso"],
    ));
    r.add_class(ObjectClass::new(
        "organizationalPerson",
        Some("person"),
        &[],
        &["title", "ou", "l", "postalAddress"],
    ));
    r.add_class(ObjectClass::new(
        "inetOrgPerson",
        Some("organizationalPerson"),
        &[],
        &["mail", "mobile", "uid", "homePhone", "labeledURI"],
    ));
    // DEN-style network device (§6 references the DEN schemas).
    r.add_class(ObjectClass::new(
        "denDevice",
        Some("top"),
        &["cn", "deviceKind"],
        &["serialNumber", "owner", "telephoneNumber"],
    ));
    // Netscape roaming profile container: nested data as opaque blobs.
    r.add_class(ObjectClass::new(
        "nsRoamingProfile",
        Some("top"),
        &["uid"],
        &["nsAddressBookBlob", "nsBookmarksBlob", "nsPrefsBlob", "nsMp3PlaylistBlob"],
    ));

    r.set_syntax("telephoneNumber", AttributeSyntax::Telephone);
    r.set_syntax("homePhone", AttributeSyntax::Telephone);
    r.set_syntax("mobile", AttributeSyntax::Telephone);
    r.set_syntax("uid", AttributeSyntax::CaseExact);
    r.set_syntax("serialNumber", AttributeSyntax::CaseExact);
    r.set_syntax("nsAddressBookBlob", AttributeSyntax::Binary);
    r.set_syntax("nsBookmarksBlob", AttributeSyntax::Binary);
    r.set_syntax("nsPrefsBlob", AttributeSyntax::Binary);
    r.set_syntax("nsMp3PlaylistBlob", AttributeSyntax::Binary);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inheritance_chains() {
        let r = standard_classes();
        let req = r.required_attrs("inetOrgPerson");
        assert!(req.contains(&"cn".to_string()));
        assert!(req.contains(&"sn".to_string()));
        assert!(req.contains(&"objectClass".to_string()));
    }

    #[test]
    fn unknown_class_empty() {
        let r = standard_classes();
        assert!(r.required_attrs("nope").is_empty());
        assert!(r.class("nope").is_none());
    }

    #[test]
    fn syntaxes_registered() {
        let r = standard_classes();
        assert_eq!(r.syntax("telephoneNumber"), AttributeSyntax::Telephone);
        assert_eq!(r.syntax("TELEPHONENUMBER"), AttributeSyntax::Telephone);
        assert_eq!(r.syntax("cn"), AttributeSyntax::CaseIgnore);
        assert_eq!(r.syntax("nsAddressBookBlob"), AttributeSyntax::Binary);
    }
}
