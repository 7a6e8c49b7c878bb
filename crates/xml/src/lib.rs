//! # gupster-xml
//!
//! A from-scratch XML value model for GUPster, the user-profile meta-data
//! manager of *"Enter Once, Share Everywhere"* (CIDR 2003).
//!
//! The paper mandates XML as the common data model for profile components
//! (§4.4, §6): profile data is deeply nested, must be partially accessed
//! and updated, and components fetched from different data stores must be
//! **merged** on the way back to the client (Figs. 8 & 9). This crate
//! provides:
//!
//! * an owned tree value model ([`Element`], [`Node`]) whose text and
//!   attribute values are shared byte ranges ([`Value`]),
//! * an XML 1.0 subset parser ([`parse`]) with bounded nesting and input
//!   size ([`ParseErrorKind`]),
//! * a serializer with compact and pretty modes ([`Element::to_xml`],
//!   [`Element::to_pretty_xml`]),
//! * the **zero-copy hot path** (DESIGN.md §10): arena documents with
//!   interned names and value slices over the retained input
//!   ([`ArenaDoc`]), edited in place, and the **deep-union merge** in
//!   the style of Buneman et al.'s deterministic model for
//!   semistructured data, which grafts unchanged subtrees instead of
//!   cloning them ([`merge_arena`], [`MergeOut`]),
//! * the edit operations the synchronization subsystem logs, ships and
//!   applies to its arena replicas ([`EditOp`], [`EditOp::apply_to`]),
//!   addressed by [`NodePath`]s that resolve on an arena
//!   ([`NodePath::resolve_arena`]).
//!
//! Every store and sync replica holds its documents as arenas. The owned
//! tree is an input type (builders, the parser, edit payloads) and what
//! an arena materializes for inspection; its merge, diff and edit
//! application live in the dev-only `gupster-oracle`, against which the
//! differential suites hold the arena path byte-identical.
//!
//! No external XML crate is used: the data model *is* part of the system
//! being reproduced.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod arena_merge;
mod edit;
mod error;
mod escape;
mod intern;
mod keys;
mod node;
mod parser;
mod path;
mod scan;
mod value;
mod writer;

pub use arena::{ArenaDoc, NodeId};
pub use arena_merge::{merge_arena, merge_arena_all, Identity, MergeOut, MergeStats};
pub use error::{ParseError, ParseErrorKind, XmlError};
pub use edit::EditOp;
pub use intern::{NameId, NameInterner};
pub use keys::MergeKeys;
pub use node::{Element, Name, Node};
pub use parser::parse;
pub use path::{NodePath, Step};
pub use value::Value;
