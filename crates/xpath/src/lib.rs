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
//! * an evaluator over [`gupster_xml::Element`] trees ([`Path::select`],
//!   [`Path::select_strings`]) and a zero-copy twin over
//!   [`gupster_xml::ArenaDoc`] ([`Path::select_arena`]) that returns node
//!   ids instead of cloned subtrees,
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
mod eval;
mod intern;
mod lexer;
mod locate;
mod lru;
mod parser;

pub use ast::{Axis, LocStep, NameTest, Path, Predicate};
pub use containment::{contains, covers, may_overlap};
pub use intern::{InternedPath, InternedStep, PathCache, PathInterner, Sym};
pub use lru::{KeyDigest, OwnedKey, OwnerLru};
pub use parser::XPathError;
