//! The PSTN: Class-5 switches holding subscriber service records
//! (§3.1.1, Figure 2).
//!
//! "User profile information is stored inside the switch itself, which
//! makes it hard to access and extend": forwarding numbers, barring
//! lists, caller-id flags. Provisioning historically required a network
//! operator; limited self-provisioning goes through the keypad.

use std::collections::HashMap;

use crate::clock::SimTime;
use crate::network::{Network, NodeId};

/// Per-line service data held inside the switch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineRecord {
    /// Unconditional call-forwarding target.
    pub forward_to: Option<String>,
    /// Numbers this line refuses calls from (call screening, §2.2).
    pub barred: Vec<String>,
    /// Whether caller id is presented.
    pub caller_id: bool,
    /// Whether the line is currently in a call (dynamic state the
    /// selective reach-me service reads).
    pub busy: bool,
}

/// Outcome of a call setup attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallOutcome {
    /// Connected to the dialed (or forwarded-to) number.
    Connected {
        /// The number that actually rang.
        terminated_at: String,
        /// Forwarding hops taken.
        hops: u32,
    },
    /// The callee barred this caller.
    Barred,
    /// The callee is busy.
    Busy,
    /// No such line.
    NoSuchNumber,
    /// Forwarding loop detected.
    ForwardingLoop,
}

/// A Class-5 switch.
#[derive(Debug)]
pub struct Class5Switch {
    /// The switch's network node.
    pub node: NodeId,
    lines: HashMap<String, LineRecord>,
    /// Operator-performed provisioning operations (the cumbersome path).
    pub operator_provisions: u64,
}

impl Class5Switch {
    /// Creates a switch.
    pub(crate) fn new(node: NodeId) -> Self {
        Class5Switch { node, lines: HashMap::new(), operator_provisions: 0 }
    }

    /// Operator provisioning: creates or replaces a whole line record.
    pub(crate) fn provision_line(&mut self, number: &str, record: LineRecord) {
        self.operator_provisions += 1;
        self.lines.insert(number.to_string(), record);
    }

    /// Reads a line record (the GUP adapter for the PSTN uses this).
    pub fn line(&self, number: &str) -> Option<&LineRecord> {
        self.lines.get(number)
    }

    /// Sets the busy state (call status feed for reach-me).
    pub fn set_busy(&mut self, number: &str, busy: bool) -> bool {
        match self.lines.get_mut(number) {
            Some(l) => {
                l.busy = busy;
                true
            }
            None => false,
        }
    }

    /// Number of provisioned lines.
    pub(crate) fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Sets up a call from `caller` to `callee`, following forwarding
    /// chains and applying barring. Each hop costs one signaling RPC
    /// from the originating switch node to itself (intra-switch) — we
    /// charge a fixed per-hop cost through `net` against `from_node`.
    pub fn call_setup(
        &self,
        net: &Network,
        from_node: NodeId,
        caller: &str,
        callee: &str,
    ) -> (SimTime, CallOutcome) {
        let mut t = SimTime::ZERO;
        let mut current = callee.to_string();
        let mut hops = 0u32;
        loop {
            t += net.rpc(from_node, self.node, 96, 96);
            let Some(line) = self.lines.get(&current) else {
                return (t, CallOutcome::NoSuchNumber);
            };
            if line.barred.iter().any(|b| b == caller) {
                return (t, CallOutcome::Barred);
            }
            if let Some(fw) = &line.forward_to {
                hops += 1;
                if hops > 5 || fw == callee {
                    return (t, CallOutcome::ForwardingLoop);
                }
                current = fw.clone();
                continue;
            }
            if line.busy {
                return (t, CallOutcome::Busy);
            }
            return (t, CallOutcome::Connected { terminated_at: current, hops });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Domain;

    fn setup() -> (Network, Class5Switch, NodeId) {
        let mut net = Network::new(3);
        let sw = net.add_node("5ess.nj.pstn", Domain::Pstn);
        let origin = net.add_node("5ess.ny.pstn", Domain::Pstn);
        let mut switch = Class5Switch::new(sw);
        switch.provision_line("908-555-1000", LineRecord::default());
        switch.provision_line(
            "908-555-2000",
            LineRecord { forward_to: Some("908-555-1000".into()), ..Default::default() },
        );
        switch.provision_line(
            "908-555-3000",
            LineRecord { barred: vec!["201-555-9999".into()], ..Default::default() },
        );
        (net, switch, origin)
    }

    #[test]
    fn direct_call_connects() {
        let (net, sw, origin) = setup();
        let (t, out) = sw.call_setup(&net, origin, "201-555-0001", "908-555-1000");
        assert_eq!(out, CallOutcome::Connected { terminated_at: "908-555-1000".into(), hops: 0 });
        assert!(t > SimTime::ZERO && t < SimTime::millis(100));
    }

    #[test]
    fn forwarding_follows_chain() {
        let (net, sw, origin) = setup();
        let (_, out) = sw.call_setup(&net, origin, "201-555-0001", "908-555-2000");
        assert_eq!(out, CallOutcome::Connected { terminated_at: "908-555-1000".into(), hops: 1 });
    }

    #[test]
    fn barring_applies() {
        let (net, sw, origin) = setup();
        let (_, out) = sw.call_setup(&net, origin, "201-555-9999", "908-555-3000");
        assert_eq!(out, CallOutcome::Barred);
        let (_, out) = sw.call_setup(&net, origin, "201-555-0001", "908-555-3000");
        assert!(matches!(out, CallOutcome::Connected { .. }));
    }

    #[test]
    fn busy_and_unknown() {
        let (net, mut sw, origin) = setup();
        sw.set_busy("908-555-1000", true);
        let (_, out) = sw.call_setup(&net, origin, "x", "908-555-1000");
        assert_eq!(out, CallOutcome::Busy);
        let (_, out) = sw.call_setup(&net, origin, "x", "000");
        assert_eq!(out, CallOutcome::NoSuchNumber);
    }

    #[test]
    fn forwarding_loop_detected() {
        let (net, mut sw, origin) = setup();
        sw.provision_line(
            "908-555-4000",
            LineRecord { forward_to: Some("908-555-5000".into()), ..Default::default() },
        );
        sw.provision_line(
            "908-555-5000",
            LineRecord { forward_to: Some("908-555-4000".into()), ..Default::default() },
        );
        let (_, out) = sw.call_setup(&net, origin, "x", "908-555-4000");
        assert_eq!(out, CallOutcome::ForwardingLoop);
    }

    #[test]
    fn operator_provisioning_is_counted() {
        let (_, sw, _) = setup();
        assert_eq!(sw.operator_provisions, 3);
    }
}
