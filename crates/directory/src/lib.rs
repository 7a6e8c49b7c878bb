//! # gupster-directory
//!
//! An LDAP-like directory substrate, built as the comparison baseline the
//! paper discusses in §6 ("LDAP-based approaches"):
//!
//! * a Directory Information Tree ([`Directory`]) keyed by distinguished
//!   names ([`Dn`]), with base/one-level/subtree search and LDAP-style
//!   filters ([`Filter`]),
//! * attribute **syntaxes** with comparison normalizers — including the
//!   telephone-number syntax the paper credits LDAP for ("908-582-4393
//!   and (908) 582-4393 should compare as equal"),
//! * standard object classes (person, inetOrgPerson, device, …) with
//!   required/optional attribute validation,
//! * the **Netscape roaming profile** pattern ([`RoamingStore`]): nested
//!   data (address book, bookmarks) stored as an opaque blob in one
//!   attribute — whole-blob get/put only, which is exactly the drawback
//!   experiment E8 measures against GUPster's XML model.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dit;
mod dn;
mod entry;
mod error;
mod filter;
mod objectclass;
mod roaming;
mod syntax;

pub use dit::{Directory, Scope};
pub use dn::Dn;
pub use entry::Entry;
pub use error::DirectoryError;
pub use filter::Filter;
pub use roaming::{BlobKind, RoamingStore};
pub use syntax::AttributeSyntax;
