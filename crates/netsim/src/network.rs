//! The network: nodes, links and metered message passing.

use std::collections::HashMap;
use std::fmt;

use std::sync::Mutex;

use gupster_rng::{SeedableRng, StdRng};

use crate::clock::SimTime;
use crate::faults::{FaultKind, FaultSchedule};
use crate::link::{Domain, LatencyModel};
use crate::metrics::Metrics;

/// Why a message could not be delivered (see [`crate::FaultSchedule`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The link between the two nodes was down (flap or partition).
    LinkDown {
        /// Sending node label.
        from: String,
        /// Receiving node label.
        to: String,
    },
    /// The destination (or source) node was dark.
    NodeOffline {
        /// The dark node's label.
        node: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::LinkDown { from, to } => write!(f, "link down: {from} ↮ {to}"),
            NetError::NodeOffline { node } => write!(f, "node offline: {node}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Identifier of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A registered network element.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    /// Human-readable label, e.g. `hlr.sprintpcs.com`.
    pub label: String,
    /// The domain the node lives in (drives default link models).
    pub domain: Domain,
}

/// The message-passing fabric. Thread-safe: metrics and the RNG sit
/// behind a mutex so benchmark harnesses can share a network.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    /// Explicit per-pair overrides (unordered pair).
    overrides: HashMap<(NodeId, NodeId), LatencyModel>,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    rng: StdRng,
    metrics: Metrics,
    /// When set, sends are attributed to this request id so telemetry
    /// can reconstruct per-request hop lists.
    current_request: Option<u64>,
    /// The global simulation clock fault windows are evaluated against.
    now: SimTime,
    /// The installed fault schedule (empty ⇒ nothing ever fails).
    faults: FaultSchedule,
}

impl Network {
    /// A fresh network with a seeded RNG (experiments are reproducible).
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            overrides: HashMap::new(),
            inner: Mutex::new(Inner {
                rng: StdRng::seed_from_u64(seed),
                metrics: Metrics::default(),
                current_request: None,
                now: SimTime::ZERO,
                faults: FaultSchedule::new(),
            }),
        }
    }

    /// Registers a node and returns its id.
    pub fn add_node(&mut self, label: impl Into<String>, domain: Domain) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, label: label.into(), domain });
        id
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Overrides the latency model between two nodes (both directions).
    pub fn set_link(&mut self, a: NodeId, b: NodeId, model: LatencyModel) {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.overrides.insert(key, model);
    }

    fn model(&self, a: NodeId, b: NodeId) -> LatencyModel {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.overrides.get(&key).copied().unwrap_or_else(|| {
            LatencyModel::between(self.node(a).domain, self.node(b).domain)
        })
    }

    /// Sends one message of `bytes` payload from `from` to `to`,
    /// returning its simulated latency and recording metrics.
    ///
    /// This path is **fault-oblivious**: link flaps and node outages
    /// never drop the message (active latency spikes still apply).
    /// Fault-aware callers use [`crate::Journey`]'s `try_*` methods instead.
    pub fn send(&self, from: NodeId, to: NodeId, bytes: usize) -> SimTime {
        match self.transmit(from, to, bytes, None) {
            Ok(t) => t,
            Err(_) => unreachable!("fault-oblivious send cannot fail"),
        }
    }

    /// Fault-aware send evaluated at absolute instant `at`: the delivery
    /// latency, or the fault that dropped the message. Journeys pass
    /// `now() + elapsed` so a fault window opening mid-request is
    /// observed by the legs it covers and not the earlier ones.
    pub(crate) fn try_send_at(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        at: SimTime,
    ) -> Result<SimTime, NetError> {
        self.transmit(from, to, bytes, Some(at))
    }

    /// The shared send body. `fault_check` carries the instant to
    /// evaluate the fault schedule at; `None` means fault-oblivious
    /// (latency spikes still apply, keyed to the current clock).
    fn transmit(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        fault_check: Option<SimTime>,
    ) -> Result<SimTime, NetError> {
        if from == to {
            return Ok(SimTime::ZERO); // local call
        }
        let model = self.model(from, to);
        let mut inner = self.lock();
        let at = fault_check.unwrap_or(inner.now);
        if let Some(check_at) = fault_check {
            if let Some(kind) = inner.faults.blocked(check_at, from, to) {
                let err = match kind {
                    FaultKind::NodeOffline(n) => {
                        NetError::NodeOffline { node: self.node(*n).label.clone() }
                    }
                    _ => NetError::LinkDown {
                        from: self.node(from).label.clone(),
                        to: self.node(to).label.clone(),
                    },
                };
                inner.metrics.dropped += 1;
                return Err(err);
            }
        }
        let factor = inner.faults.latency_factor(at);
        let t = model.sample(bytes, &mut inner.rng) * factor;
        let (fl, tl) = (self.node(from).label.clone(), self.node(to).label.clone());
        let req = inner.current_request;
        inner.metrics.record_for_request(&fl, &tl, bytes, t, req);
        Ok(t)
    }

    /// Installs a fault schedule (replacing any previous one).
    pub fn install_faults(&self, schedule: FaultSchedule) {
        self.lock().faults = schedule;
    }

    /// The global simulation clock (the instant fault windows are
    /// evaluated against).
    pub(crate) fn now(&self) -> SimTime {
        self.lock().now
    }

    /// Advances the simulation clock by `dt`.
    pub fn advance(&self, dt: SimTime) {
        self.lock().now += dt;
    }

    /// Attributes subsequent sends to `request` until
    /// [`Network::end_request`] — the propagation hook the telemetry
    /// layer uses to turn per-edge counts into per-request hop lists.
    pub fn begin_request(&self, request: u64) {
        self.lock().current_request = Some(request);
    }

    /// Stops attributing sends to a request.
    pub fn end_request(&self) {
        self.lock().current_request = None;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("network mutex poisoned")
    }

    /// A request/response round trip: request of `req_bytes` out,
    /// response of `resp_bytes` back.
    pub fn rpc(&self, from: NodeId, to: NodeId, req_bytes: usize, resp_bytes: usize) -> SimTime {
        self.send(from, to, req_bytes) + self.send(to, from, resp_bytes)
    }

    /// Runs a closure over the metrics.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&Metrics) -> R) -> R {
        f(&self.lock().metrics)
    }

    /// Snapshot of the metrics.
    pub fn metrics(&self) -> Metrics {
        self.lock().metrics.clone()
    }

    /// Resets metrics (not the RNG).
    pub fn reset_metrics(&self) {
        self.lock().metrics.reset();
    }

    /// Accounts a coalesced batch RPC: `fragments` fragments travelled
    /// to one destination as a single message pair instead of one pair
    /// each (see [`crate::Journey::try_batch_rpcs`]).
    pub(crate) fn note_batch(&self, fragments: u64) {
        let mut inner = self.lock();
        inner.metrics.batched_rpcs += 1;
        inner.metrics.coalesced_fragments += fragments;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (Network, NodeId, NodeId, NodeId) {
        let mut n = Network::new(7);
        let hlr = n.add_node("hlr.spcs.com", Domain::Wireless);
        let msc = n.add_node("msc1.spcs.com", Domain::Wireless);
        let portal = n.add_node("gup.yahoo.com", Domain::Internet);
        (n, hlr, msc, portal)
    }

    /// Fault-aware send at the network's current clock.
    fn try_send(n: &Network, from: NodeId, to: NodeId, bytes: usize) -> Result<SimTime, NetError> {
        n.try_send_at(from, to, bytes, n.now())
    }

    #[test]
    fn send_records_metrics() {
        let (n, hlr, msc, _) = net();
        let t = n.send(hlr, msc, 256);
        assert!(t >= SimTime::millis(3));
        let m = n.metrics();
        assert_eq!(m.messages, 1);
        assert_eq!(m.bytes, 256);
        assert_eq!(m.per_edge[&("hlr.spcs.com".into(), "msc1.spcs.com".into())], 1);
    }

    #[test]
    fn local_call_is_free() {
        let (n, hlr, _, _) = net();
        assert_eq!(n.send(hlr, hlr, 10_000), SimTime::ZERO);
        assert_eq!(n.metrics().messages, 0);
    }

    #[test]
    fn rpc_is_two_messages() {
        let (n, hlr, _, portal) = net();
        let t = n.rpc(hlr, portal, 100, 5_000);
        assert!(t > SimTime::millis(60), "{t}"); // two internet hops
        assert_eq!(n.metrics().messages, 2);
        assert_eq!(n.metrics().bytes, 5_100);
    }

    #[test]
    fn link_override_applies_both_ways() {
        let (mut n, hlr, msc, _) = net();
        n.set_link(hlr, msc, LatencyModel::fixed(SimTime::millis(99)));
        assert_eq!(n.send(hlr, msc, 0), SimTime::millis(99));
        assert_eq!(n.send(msc, hlr, 0), SimTime::millis(99));
    }

    #[test]
    fn node_metadata() {
        let (n, hlr, _, _) = net();
        assert_eq!(n.node(hlr).label, "hlr.spcs.com");
        assert_eq!(n.node(hlr).domain, Domain::Wireless);
    }

    #[test]
    fn try_send_observes_link_faults() {
        let (n, hlr, msc, portal) = net();
        n.install_faults(
            crate::faults::FaultSchedule::new()
                .link_down(hlr, msc, SimTime::millis(100), SimTime::millis(200)),
        );
        // Before the window: delivered.
        n.advance(SimTime::millis(50));
        assert!(try_send(&n, hlr, msc, 10).is_ok());
        // Inside the window: dropped, metered as a drop.
        n.advance(SimTime::millis(100));
        let err = try_send(&n, hlr, msc, 10).unwrap_err();
        assert!(matches!(err, NetError::LinkDown { .. }), "{err:?}");
        assert_eq!(n.metrics().dropped, 1);
        // Other links unaffected; fault-oblivious send unaffected.
        assert!(try_send(&n, hlr, portal, 10).is_ok());
        let _ = n.send(hlr, msc, 10);
        // After the window: delivered again.
        n.advance(SimTime::millis(100));
        assert!(try_send(&n, hlr, msc, 10).is_ok());
    }

    #[test]
    fn try_send_observes_node_outage() {
        let (n, hlr, msc, portal) = net();
        n.install_faults(
            crate::faults::FaultSchedule::new().node_offline(portal, SimTime::ZERO, SimTime::secs(1)),
        );
        let err = try_send(&n, hlr, portal, 10).unwrap_err();
        assert_eq!(err, NetError::NodeOffline { node: "gup.yahoo.com".into() });
        assert!(try_send(&n, hlr, msc, 10).is_ok());
    }

    #[test]
    fn try_send_at_evaluates_mid_request_instants() {
        let (n, hlr, _, portal) = net();
        n.install_faults(
            crate::faults::FaultSchedule::new()
                .link_down(hlr, portal, SimTime::millis(100), SimTime::millis(200)),
        );
        assert!(n.try_send_at(hlr, portal, 10, SimTime::millis(90)).is_ok());
        assert!(n.try_send_at(hlr, portal, 10, SimTime::millis(110)).is_err());
    }

    #[test]
    fn latency_spike_multiplies_both_paths() {
        let (mut n, hlr, msc, _) = net();
        n.set_link(hlr, msc, LatencyModel::fixed(SimTime::millis(10)));
        n.install_faults(
            crate::faults::FaultSchedule::new().latency_spike(5, SimTime::ZERO, SimTime::secs(1)),
        );
        assert_eq!(n.send(hlr, msc, 0), SimTime::millis(50));
        assert_eq!(try_send(&n, hlr, msc, 0), Ok(SimTime::millis(50)));
        n.advance(SimTime::secs(2));
        assert_eq!(n.send(hlr, msc, 0), SimTime::millis(10));
    }

    #[test]
    fn clock_moves() {
        let (n, _, _, _) = net();
        assert_eq!(n.now(), SimTime::ZERO);
        n.advance(SimTime::millis(5));
        n.advance(SimTime::millis(3));
        assert_eq!(n.now(), SimTime::millis(8));
    }

    #[test]
    fn reproducible_with_same_seed() {
        let build = || {
            let mut n = Network::new(123);
            let a = n.add_node("a", Domain::Internet);
            let b = n.add_node("b", Domain::Client);
            (0..10).map(|_| n.send(a, b, 100).0).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
