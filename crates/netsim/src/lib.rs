//! # gupster-netsim
//!
//! A simulated converged network — the substrate the paper's profile
//! data actually lives in (§3.1, Figures 1–5). The paper's evaluation
//! needs PSTN switches, wireless HLR/VLR/MSC chains, SIP registrars and
//! web portals; none of that hardware is available, so this crate
//! provides a latency-faithful message-cost simulation of it (see
//! DESIGN.md §2 for the substitution argument).
//!
//! The model: every network element is a [`Node`] in a [`Network`];
//! crossing a link costs base latency + jitter + a per-KB transfer
//! charge ([`LatencyModel`]). Synchronous interactions compose with
//! [`Journey`] (sequential steps, parallel fan-outs — the selective
//! reach-me aggregation of §2.2 is a parallel fan-out). Every call is
//! metered in [`Metrics`]. A [`FaultSchedule`] adds deterministic
//! clock-driven fault injection: link flaps, partitions, latency spikes
//! and node outages, observed by the fallible `try_*` send paths as
//! [`NetError`]s.
//!
//! On top of the transport model sit the domain elements:
//!
//! * [`wireless`] — HLR (subscriber profiles + location, backed by the
//!   main-memory relational substrate of `gupster-store`), VLR caches,
//!   MSC call delivery, the location-update protocol of §3.1.2;
//! * [`pstn`] — a Class-5 switch holding call-forwarding/barring/caller-id
//!   subscriber records (§3.1.1);
//! * [`voip`] — SIP registrar and proxy (§3.1.3);
//! * [`Portal`], [`Enterprise`] and [`PresenceServer`] — the web-side
//!   nodes (§3.1.4);
//! * [`topology`] — [`topology::ConvergedNetwork`], the full Figure-1
//!   world with profile fragments placed exactly where Figure 5 says
//!   they live.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
pub(crate) mod faults;
mod journey;
mod link;
mod metrics;
mod network;
pub mod pstn;
pub mod topology;
pub mod voip;
mod web;
pub mod wireless;

pub use clock::SimTime;
pub use faults::{FaultKind, FaultRates, FaultSchedule, FaultWindow};
pub use journey::Journey;
pub use link::{Domain, LatencyModel};
pub use metrics::{Hop, Metrics};
pub use network::{NetError, Network, Node, NodeId};
pub use web::{Enterprise, Portal, PresenceServer};
