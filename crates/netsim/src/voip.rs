//! SIP-based VoIP: registrar, proxy and endpoints (§3.1.3, Figure 4).
//!
//! "SIP registrars simply store a mapping between a SIP address (a VoIP
//! phone number) and the corresponding IP address of the endpoint. SIP
//! proxies are used for message routing" — and, the paper adds, much of
//! the profile intelligence lives at the endpoints themselves.

use std::collections::HashMap;

use crate::clock::SimTime;
use crate::network::{Network, NodeId};

/// A registrar binding: SIP address-of-record → endpoint contact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Binding {
    /// The endpoint's contact address (an IP in real life; a node here).
    pub contact: NodeId,
    /// Expiry in simulated time units from registration (informational).
    pub expires: SimTime,
}

/// A SIP registrar.
#[derive(Debug)]
pub struct SipRegistrar {
    /// The registrar's network node.
    pub node: NodeId,
    bindings: HashMap<String, Binding>,
}

impl SipRegistrar {
    /// Creates a registrar.
    pub(crate) fn new(node: NodeId) -> Self {
        SipRegistrar { node, bindings: HashMap::new() }
    }

    /// REGISTER: binds an address-of-record to an endpoint.
    pub(crate) fn register(&mut self, aor: &str, contact: NodeId, expires: SimTime) {
        self.bindings.insert(aor.to_string(), Binding { contact, expires });
    }

    /// Lookup.
    pub(crate) fn lookup(&self, aor: &str) -> Option<&Binding> {
        self.bindings.get(aor)
    }

    /// Number of bindings.
    pub(crate) fn len(&self) -> usize {
        self.bindings.len()
    }
}

/// Outcome of routing an INVITE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InviteOutcome {
    /// Routed to the endpoint.
    Ringing(NodeId),
    /// The AOR has no current binding.
    NotRegistered,
}

/// A SIP proxy that consults a registrar.
#[derive(Debug)]
pub struct SipProxy {
    /// The proxy's network node.
    pub node: NodeId,
}

impl SipProxy {
    /// Creates a proxy.
    pub(crate) fn new(node: NodeId) -> Self {
        SipProxy { node }
    }

    /// Routes an INVITE from `caller_node` to the AOR: caller → proxy,
    /// proxy → registrar lookup, proxy → endpoint.
    pub fn route_invite(
        &self,
        net: &Network,
        registrar: &SipRegistrar,
        caller_node: NodeId,
        aor: &str,
    ) -> (SimTime, InviteOutcome) {
        let mut t = SimTime::ZERO;
        t += net.send(caller_node, self.node, 512); // INVITE
        t += net.rpc(self.node, registrar.node, 128, 128); // location query
        match registrar.lookup(aor) {
            Some(b) => {
                t += net.send(self.node, b.contact, 512); // forwarded INVITE
                (t, InviteOutcome::Ringing(b.contact))
            }
            None => {
                t += net.send(self.node, caller_node, 128); // 404
                (t, InviteOutcome::NotRegistered)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Domain;

    fn setup() -> (Network, SipRegistrar, SipProxy, NodeId, NodeId) {
        let mut net = Network::new(5);
        let reg_node = net.add_node("registrar.voip.net", Domain::Voip);
        let proxy_node = net.add_node("proxy.voip.net", Domain::Voip);
        let alice_pc = net.add_node("alice-softphone", Domain::Client);
        let bob_pc = net.add_node("bob-softphone", Domain::Client);
        (net, SipRegistrar::new(reg_node), SipProxy::new(proxy_node), alice_pc, bob_pc)
    }

    #[test]
    fn register_and_route() {
        let (net, mut reg, proxy, alice, bob) = setup();
        reg.register("sip:alice@voip.net", alice, SimTime::secs(3600));
        let (t, out) = proxy.route_invite(&net, &reg, bob, "sip:alice@voip.net");
        assert_eq!(out, InviteOutcome::Ringing(alice));
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn unregistered_aor_404s() {
        let (net, reg, proxy, _, bob) = setup();
        let (_, out) = proxy.route_invite(&net, &reg, bob, "sip:ghost@voip.net");
        assert_eq!(out, InviteOutcome::NotRegistered);
    }

    #[test]
    fn rebinding_replaces_contact() {
        let (_, mut reg, _, alice, bob) = setup();
        reg.register("sip:alice@voip.net", alice, SimTime::secs(60));
        reg.register("sip:alice@voip.net", bob, SimTime::secs(60));
        assert_eq!(reg.lookup("sip:alice@voip.net").unwrap().contact, bob);
        assert_eq!(reg.len(), 1);
    }
}
