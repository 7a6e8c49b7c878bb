//! Error type for GUPster server operations.

use std::fmt;

use gupster_netsim::{NetError, SimTime};

/// Errors surfaced by the GUPster server and client helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GupsterError {
    /// The request path does not fit the GUP schema — a "spurious
    /// query" filtered before any work happens (§5.3).
    SpuriousQuery(String),
    /// The privacy shield refused the request.
    AccessDenied {
        /// The profile owner.
        owner: String,
        /// The requester.
        requester: String,
    },
    /// No data store has registered anything overlapping the request.
    NoCoverage(String),
    /// The user is unknown to this meta-data manager.
    UnknownUser(String),
    /// An owner id holds a NUL, which a token's NUL-terminated signed
    /// payload cannot carry.
    NulInId(String),
    /// A data-store fetch failed.
    Store(String),
    /// Token verification failed at a store.
    Token(String),
    /// A simulated network link was down when a request leg crossed it.
    LinkDown {
        /// Sending node label.
        from: String,
        /// Receiving node label.
        to: String,
    },
    /// A data store (or the node hosting it) was offline.
    StoreUnavailable(String),
    /// Several stores cover the request but none can take the role the
    /// pattern requires (e.g. no recruiting-capable executor) — the
    /// match is ambiguous and picking one silently would be wrong.
    AmbiguousCoverage {
        /// The request path.
        path: String,
        /// The candidate stores, in referral order.
        candidates: Vec<String>,
    },
    /// The request's deadline budget ran out before any rung of the
    /// fallback ladder (or the stale rung) could answer.
    DeadlineExceeded {
        /// Simulated time consumed when the request was abandoned.
        elapsed: SimTime,
        /// The budget that was exceeded.
        budget: SimTime,
    },
}

impl fmt::Display for GupsterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GupsterError::SpuriousQuery(p) => write!(f, "query does not fit the GUP schema: {p}"),
            GupsterError::AccessDenied { owner, requester } => {
                write!(f, "access denied: {requester} → {owner}")
            }
            GupsterError::NoCoverage(p) => write!(f, "no registered coverage for {p}"),
            GupsterError::UnknownUser(u) => write!(f, "unknown user: {u}"),
            GupsterError::NulInId(u) => write!(f, "id holds a NUL: {u:?}"),
            GupsterError::Store(e) => write!(f, "data store error: {e}"),
            GupsterError::Token(e) => write!(f, "token error: {e}"),
            GupsterError::LinkDown { from, to } => write!(f, "link down: {from} ↮ {to}"),
            GupsterError::StoreUnavailable(s) => write!(f, "store unavailable: {s}"),
            GupsterError::AmbiguousCoverage { path, candidates } => write!(
                f,
                "ambiguous coverage for {path}: no capable executor among [{}]",
                candidates.join(", ")
            ),
            GupsterError::DeadlineExceeded { elapsed, budget } => {
                write!(f, "deadline exceeded: {elapsed} spent of a {budget} budget")
            }
        }
    }
}

impl std::error::Error for GupsterError {}

impl From<NetError> for GupsterError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::LinkDown { from, to } => GupsterError::LinkDown { from, to },
            // A dark node is indistinguishable from a dead store to the
            // requester — surface it as the store-level failure the
            // resilience ladder reacts to.
            NetError::NodeOffline { node } => GupsterError::StoreUnavailable(node),
        }
    }
}
