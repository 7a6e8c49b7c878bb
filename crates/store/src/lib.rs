//! # gupster-store
//!
//! GUP-enabled data stores (§4.2 of the paper): "an adapter is put on top
//! of the data store to offer a GUP-compliant interface (protocol and
//! data model)". This crate provides:
//!
//! * the [`DataStore`] trait — the GUP-compliant interface: XPath query,
//!   XPath-targeted update, change subscription, capability discovery;
//! * [`XmlStore`] — a native XML profile store (what a portal like
//!   Yahoo! would run);
//! * a miniature relational substrate ([`relational::RelationalDb`]) and
//!   [`RelationalAdapter`] publishing it as GUP XML — the HLR-style
//!   "main memory relational database" of §3.1.2, wrapped;
//! * [`LdapAdapter`] — GUP-enabling an LDAP directory ("tools to wrap
//!   LDAP sites", §6).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod ldap_adapter;
pub mod relational;
mod store_trait;
mod xmlstore;

pub use error::StoreError;
pub use ldap_adapter::LdapAdapter;
pub use relational::RelationalAdapter;
pub use store_trait::{Capabilities, ChangeEvent, DataStore, Fragment, StoreId, UpdateOp};
pub use xmlstore::XmlStore;

#[cfg(test)]
#[path = "../tests/support/adapter_views.rs"]
mod adapter_views;
