//! # gupster-xpath
//!
//! The XPath fragment GUPster uses as its *coverage language* (§4.5 of
//! the paper): child and attribute axes plus limited predicates, extended
//! with `//` (descendant-or-self) and `*` wildcards which the privacy
//! shield needs for policy scopes.
//!
//! The crate provides:
//!
//! * an AST ([`Path`], [`LocStep`], [`Predicate`]),
//! * a parser ([`Path::parse`]),
//! * an evaluator over [`gupster_xml::ArenaDoc`] documents
//!   ([`Path::select_arena`]) that selects node ids into the caller's
//!   buffer instead of cloning subtrees — the one every store read runs,
//!   adapters included (an adapter converts its view to an arena first);
//! * **containment** ([`contains`]) and **overlap** ([`may_overlap`])
//!   decision procedures in the homomorphism style of Deutsch–Tannen /
//!   Miklau–Suciu, which the registry uses to match request paths against
//!   registered coverage (§6 "containment of XPath expressions").
//!
//! Containment is *sound* (never claims `p ⊑ q` falsely) and complete on
//! the fragment without a `//`–`*` interaction; overlap is conservative
//! (may report `true` for paths that never co-select, which only costs a
//! spurious referral — exactly the Napster trade-off the paper accepts).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod arena_eval;
mod ast;
mod containment;
mod intern;
mod lexer;
mod lru;
mod parser;

pub use ast::{Axis, LocStep, NameTest, Path, Predicate};
pub use containment::{contains, covers, covers_view, may_overlap, may_overlap_view, PathView};
pub use intern::{InternedPath, InternedStep};
pub use lru::{KeyDigest, OwnedKey, OwnerLru};
pub use parser::XPathError;
