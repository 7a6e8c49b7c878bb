//! Error type for directory operations.

use std::fmt;

use crate::dn::Dn;

/// Errors raised by directory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryError {
    /// The target entry does not exist.
    NoSuchEntry(Dn),
    /// An entry already exists at the DN.
    EntryExists(Dn),
    /// The parent of the DN does not exist (LDAP requires tree growth
    /// one level at a time).
    NoSuchParent(Dn),
    /// The entry has children and cannot be deleted.
    NotLeaf(Dn),
    /// Object-class validation failed.
    SchemaViolation {
        /// The offending DN.
        dn: Dn,
        /// Why.
        detail: String,
    },
    /// A malformed DN or filter string.
    Malformed(String),
}

impl fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectoryError::NoSuchEntry(dn) => write!(f, "no such entry: {dn}"),
            DirectoryError::EntryExists(dn) => write!(f, "entry already exists: {dn}"),
            DirectoryError::NoSuchParent(dn) => write!(f, "no such parent for: {dn}"),
            DirectoryError::NotLeaf(dn) => write!(f, "entry has children: {dn}"),
            DirectoryError::SchemaViolation { dn, detail } => {
                write!(f, "schema violation at {dn}: {detail}")
            }
            DirectoryError::Malformed(s) => write!(f, "malformed input: {s}"),
        }
    }
}

impl std::error::Error for DirectoryError {}
