//! Composing synchronous interactions: sequential chains and parallel
//! fan-outs.
//!
//! The selective reach-me service (§2.2) "needs to aggregate information
//! for all the networks Alice is in contact with" and must decide "in
//! just a few seconds" — whether sources are consulted one after another
//! or concurrently decides whether that budget holds. [`Journey`] models
//! both compositions over a [`Network`].

use crate::clock::SimTime;
use crate::network::{NetError, Network, NodeId};

/// Wall-clock accumulator for a synchronous interaction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Journey {
    elapsed: SimTime,
}

impl Journey {
    /// Starts at time zero.
    pub fn start() -> Self {
        Journey::default()
    }

    /// Elapsed wall-clock so far.
    pub fn elapsed(&self) -> SimTime {
        self.elapsed
    }

    /// Adds local processing time.
    pub fn compute(&mut self, t: SimTime) -> &mut Self {
        self.elapsed += t;
        self
    }

    /// Performs a sequential RPC.
    pub fn rpc(
        &mut self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> &mut Self {
        self.elapsed += net.rpc(from, to, req_bytes, resp_bytes);
        self
    }

    /// Performs several RPCs in parallel: wall-clock advances by the
    /// slowest branch (all messages are still metered).
    pub fn parallel_rpcs(
        &mut self,
        net: &Network,
        from: NodeId,
        calls: &[(NodeId, usize, usize)],
    ) -> &mut Self {
        let slowest = calls
            .iter()
            .map(|(to, req, resp)| net.rpc(from, *to, *req, *resp))
            .max()
            .unwrap_or(SimTime::ZERO);
        self.elapsed += slowest;
        self
    }

    /// The absolute instant this journey has reached: the network's
    /// clock plus the journey's elapsed time. Fault windows opening
    /// mid-request are evaluated against this.
    fn at(&self, net: &Network) -> SimTime {
        net.now() + self.elapsed
    }

    /// Fault-aware one-way send: the journey observes an active fault
    /// as a [`NetError`] instead of silently succeeding.
    pub fn try_send(
        &mut self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        bytes: usize,
    ) -> Result<&mut Self, NetError> {
        let t = net.try_send_at(from, to, bytes, self.at(net))?;
        self.elapsed += t;
        Ok(self)
    }

    /// Fault-aware RPC. The response leg is evaluated at the instant
    /// the request arrived, so a link dying mid-round-trip fails the
    /// round trip.
    pub fn try_rpc(
        &mut self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Result<&mut Self, NetError> {
        let out = net.try_send_at(from, to, req_bytes, self.at(net))?;
        let back = net.try_send_at(to, from, resp_bytes, self.at(net) + out)?;
        self.elapsed += out + back;
        Ok(self)
    }

    /// Fault-aware parallel fan-out: every call must be deliverable;
    /// the first faulted branch fails the fan-out (calls already
    /// attempted stay metered). Wall-clock advances by the slowest
    /// successful branch only on success.
    pub fn try_parallel_rpcs(
        &mut self,
        net: &Network,
        from: NodeId,
        calls: &[(NodeId, usize, usize)],
    ) -> Result<&mut Self, NetError> {
        let at = self.at(net);
        let mut slowest = SimTime::ZERO;
        for (to, req, resp) in calls {
            let out = net.try_send_at(from, *to, *req, at)?;
            let back = net.try_send_at(*to, from, *resp, at + out)?;
            slowest = slowest.max(out + back);
        }
        self.elapsed += slowest;
        Ok(self)
    }

    /// Fault-aware parallel fan-out of **coalesced batch RPCs**: each
    /// call is one request/response pair carrying every fragment bound
    /// for that destination (`fragments` per call, for accounting).
    /// Same fault and wall-clock semantics as
    /// [`Journey::try_parallel_rpcs`]; the network's batch counters
    /// record how many per-fragment messages were saved.
    pub fn try_batch_rpcs(
        &mut self,
        net: &Network,
        from: NodeId,
        calls: &[(NodeId, usize, usize, u64)],
    ) -> Result<&mut Self, NetError> {
        let plain: Vec<(NodeId, usize, usize)> =
            calls.iter().map(|(to, req, resp, _)| (*to, *req, *resp)).collect();
        self.try_parallel_rpcs(net, from, &plain)?;
        for (_, _, _, fragments) in calls {
            net.note_batch(*fragments);
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Domain, LatencyModel};

    fn fixed_net() -> (Network, NodeId, NodeId, NodeId) {
        let mut n = Network::new(1);
        let c = n.add_node("client", Domain::Client);
        let a = n.add_node("a", Domain::Internet);
        let b = n.add_node("b", Domain::Internet);
        n.set_link(c, a, LatencyModel::fixed(SimTime::millis(10)));
        n.set_link(c, b, LatencyModel::fixed(SimTime::millis(30)));
        n.set_link(a, b, LatencyModel::fixed(SimTime::millis(5)));
        (n, c, a, b)
    }

    #[test]
    fn sequential_adds() {
        let (n, c, a, b) = fixed_net();
        let mut j = Journey::start();
        j.rpc(&n, c, a, 0, 0).rpc(&n, c, b, 0, 0).compute(SimTime::millis(1));
        // 2*10 + 2*30 + 1 = 81ms
        assert_eq!(j.elapsed(), SimTime::millis(81));
    }

    #[test]
    fn parallel_takes_max() {
        let (n, c, a, b) = fixed_net();
        let mut j = Journey::start();
        j.parallel_rpcs(&n, c, &[(a, 0, 0), (b, 0, 0)]);
        // max(20, 60) = 60ms
        assert_eq!(j.elapsed(), SimTime::millis(60));
        // Both calls were metered.
        assert_eq!(n.metrics().messages, 4);
    }

    #[test]
    fn parallel_beats_sequential() {
        let (n, c, a, b) = fixed_net();
        let mut seq = Journey::start();
        seq.rpc(&n, c, a, 0, 0).rpc(&n, c, b, 0, 0);
        let mut par = Journey::start();
        par.parallel_rpcs(&n, c, &[(a, 0, 0), (b, 0, 0)]);
        assert!(par.elapsed() < seq.elapsed());
    }

    #[test]
    fn try_paths_match_infallible_without_faults() {
        let (n, c, a, b) = fixed_net();
        let mut j = Journey::start();
        j.try_rpc(&n, c, a, 0, 0).unwrap().try_send(&n, c, b, 0).unwrap();
        j.try_parallel_rpcs(&n, c, &[(a, 0, 0), (b, 0, 0)]).unwrap();
        // 20 + 30 + max(20, 60) = 110ms
        assert_eq!(j.elapsed(), SimTime::millis(110));
    }

    #[test]
    fn journey_observes_fault_windows_mid_request() {
        let (n, c, a, b) = fixed_net();
        // The c↔b link dies 25ms in: the first leg (c→a, done by 20ms)
        // succeeds, the fan-out touching b at 20ms starts fine but its
        // 30ms response leg lands inside the window — dropped.
        n.install_faults(
            crate::faults::FaultSchedule::new()
                .link_down(c, b, SimTime::millis(25), SimTime::secs(1)),
        );
        let mut j = Journey::start();
        j.try_rpc(&n, c, a, 0, 0).unwrap();
        let err = j.try_parallel_rpcs(&n, c, &[(a, 0, 0), (b, 0, 0)]).unwrap_err();
        assert!(matches!(err, crate::NetError::LinkDown { .. }), "{err:?}");
        // Failed fan-out did not advance the journey.
        assert_eq!(j.elapsed(), SimTime::millis(20));
        assert_eq!(n.metrics().dropped, 1);
    }

    #[test]
    fn batch_rpcs_meter_like_parallel_but_count_coalescing() {
        let (n, c, a, b) = fixed_net();
        let mut batched = Journey::start();
        batched.try_batch_rpcs(&n, c, &[(a, 100, 900, 3), (b, 100, 300, 2)]).unwrap();
        // Wall clock is identical to the equivalent parallel fan-out.
        let mut plain = Journey::start();
        plain.try_parallel_rpcs(&n, c, &[(a, 100, 900), (b, 100, 300)]).unwrap();
        assert_eq!(batched.elapsed(), plain.elapsed());
        let m = n.metrics();
        assert_eq!(m.batched_rpcs, 2);
        assert_eq!(m.coalesced_fragments, 5);
        // Two message pairs per journey: 8 total.
        assert_eq!(m.messages, 8);
    }

    #[test]
    fn empty_parallel_is_zero() {
        let (n, c, _, _) = fixed_net();
        let mut j = Journey::start();
        j.parallel_rpcs(&n, c, &[]);
        assert_eq!(j.elapsed(), SimTime::ZERO);
    }
}
