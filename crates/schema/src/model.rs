//! The GUP information model (Fig. 6 of the paper).
//!
//! "The information model considers a user profile as a collection of
//! profile components. A component is used as a unit of storage and
//! access control. Components are linked together by the identity they
//! refer to."

use std::fmt;

use gupster_xpath::Path;

/// Identifier of a profile component type, e.g. `address-book`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub String);

impl ComponentId {
    /// Creates a component id.
    pub(crate) fn new(s: impl Into<String>) -> Self {
        ComponentId(s.into())
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A profile component type: the unit of storage and access control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileComponent {
    /// Stable identifier.
    pub id: ComponentId,
    /// The sub-tree of the GUP schema this component corresponds to,
    /// as a path *template* with the user-identity predicate omitted
    /// (e.g. `/MyProfile/MyContacts/address-book`).
    pub path: Path,
    /// Human description.
    pub description: String,
}

impl ProfileComponent {
    /// Creates a component with the given id and schema path.
    pub(crate) fn new(id: impl Into<String>, path: Path, description: impl Into<String>) -> Self {
        ProfileComponent { id: ComponentId::new(id), path, description: description.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_display() {
        assert_eq!(ComponentId::new("wallet").to_string(), "wallet");
    }
}
