//! # gupster-schema
//!
//! The 3GPP GUP side of GUPster: the *information model* of Fig. 6 (a
//! user profile is a collection of **components**, each a unit of storage
//! and access control, linked by the identity they refer to), the
//! standardized `<MyProfile>` schema sketched in §4.4 of the paper, and
//! a small XML-Schema-like validation language.
//!
//! The registry uses [`Schema::admits_path`] to filter "spurious queries
//! which do not fit with the GUP schema" before any rewriting happens
//! (§5.3 Scalability), and provisioning interfaces use [`Schema::validate`]
//! to give the constraint-checking guarantees of Requirement 11.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod datatype;
mod gup;
mod model;
mod schema;
mod validate;

pub use datatype::DataType;
pub use gup::{gup_schema, sample_profile, standard_components, ProfileBuilder};
pub use model::{ComponentId, ProfileComponent};
pub use schema::{AttrDecl, ChildDecl, ContentModel, ElementDecl, Occurs, Schema};
pub use validate::{ValidationError, ValidationErrorKind};
