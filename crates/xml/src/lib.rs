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
//! * **deep-union merge** in the style of Buneman et al.'s deterministic
//!   model for semistructured data ([`merge`]),
//! * a structural diff used by the synchronization subsystem ([`diff`]),
//! * the **zero-copy hot path** (DESIGN.md §10): arena documents with
//!   interned names and value slices over the retained input
//!   ([`ArenaDoc`]), and structural-sharing merge that grafts unchanged
//!   subtrees instead of cloning them ([`merge_arena`], [`MergeOut`]).
//!   The owned tree is retained as the differential oracle — the arena
//!   path must stay byte-identical through parse/merge/serialize.
//!
//! No external XML crate is used: the data model *is* part of the system
//! being reproduced.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod arena_merge;
mod error;
mod escape;
mod intern;
mod merge;
mod node;
mod parser;
mod path;
mod scan;
mod tree_diff;
mod value;
mod writer;

pub use arena::{ArenaDoc, NodeId};
pub use arena_merge::{merge_arena, merge_arena_all, Identity, MergeOut, MergeStats};
pub use error::{ParseError, ParseErrorKind, XmlError};
pub use intern::{NameId, NameInterner};
pub use merge::{merge, MergeKeys};
pub use node::{Element, Name, Node};
pub use parser::parse;
pub use path::{NodePath, Step};
pub use tree_diff::{diff, EditOp};
pub use value::Value;
