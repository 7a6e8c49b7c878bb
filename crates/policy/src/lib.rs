//! # gupster-policy
//!
//! The **privacy shield** (§4.6 of the paper): "users are willing to
//! grant access to their profile information … provided they remain in
//! control of who can access this information and when."
//!
//! A request has two facets: a *path* (what profile components are asked
//! for) and a *context* (who asks, why, when) — [`RequestContext`]. The
//! paper found XACML's request context "too limited (restricted to
//! principals)", so this crate implements the richer context the paper
//! calls for: requester identity, relationship, purpose, time-of-week
//! and free-form attributes, with a small condition language
//! ([`Condition`]) over it.
//!
//! The policy infrastructure follows Figure 10's role split:
//!
//! * [`PolicyRepository`] — stores per-user rule sets,
//! * [`Pap`] — the administration point: provision and validate rules,
//! * [`Pdp`] — the decision point: pure decision, no side effects,
//! * [`pep::Pep`] — the enforcement point: asks the PDP (through a
//!   [`DecisionMemo`]) and rewrites or refuses the request according to
//!   the decision (GUPster plays this role for lookups and pushes alike;
//!   data stores are execution points).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod condition;
mod context;
mod memo;
mod pap;
mod pdp;
pub mod pep;
mod repository;
mod rule;

pub use condition::Condition;
pub use context::{Purpose, RequestContext, WeekTime};
pub use memo::{DecisionMemo, MemoKey};
pub use pap::{Pap, RuleError};
pub use pdp::{Decision, DecisionCost, Pdp};
pub use repository::PolicyRepository;
pub use rule::{Effect, Rule};
