//! Message and latency accounting.

use std::collections::BTreeMap;

use crate::clock::SimTime;

/// One metered message, attributed to a request (per-request hop lists
/// let experiments reconstruct the exact path a request took through
/// the converged network).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Sending node label.
    pub from: String,
    /// Receiving node label.
    pub to: String,
    /// Payload bytes.
    pub bytes: u64,
    /// Simulated one-way latency.
    pub latency: SimTime,
}

/// Counters recorded by the network. Experiments read these to report
/// message counts, bytes moved and transfer time.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Total one-way messages sent.
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Messages dropped by an active fault (see [`crate::FaultSchedule`]).
    pub dropped: u64,
    /// Coalesced per-destination batch RPCs issued (each one message
    /// pair instead of one pair per fragment).
    pub batched_rpcs: u64,
    /// Fragments that travelled inside a batch RPC rather than as their
    /// own message.
    pub coalesced_fragments: u64,
    /// Total simulated transfer time accumulated across messages.
    pub total_latency: SimTime,
    /// Per (from-label, to-label) message counts.
    pub per_edge: BTreeMap<(String, String), u64>,
    /// Per-request hop lists — populated only for messages sent while a
    /// request id was active on the network (see
    /// [`crate::Network::begin_request`]).
    pub per_request: BTreeMap<u64, Vec<Hop>>,
}

impl Metrics {
    /// Records one message, attributing it to `request` when present.
    pub(crate) fn record_for_request(
        &mut self,
        from: &str,
        to: &str,
        bytes: usize,
        latency: SimTime,
        request: Option<u64>,
    ) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.total_latency += latency;
        *self.per_edge.entry((from.to_string(), to.to_string())).or_default() += 1;
        if let Some(req) = request {
            self.per_request.entry(req).or_default().push(Hop {
                from: from.to_string(),
                to: to.to_string(),
                bytes: bytes as u64,
                latency,
            });
        }
    }

    /// Resets all counters.
    pub(crate) fn reset(&mut self) {
        *self = Metrics::default();
    }

    /// The hop list of one request (empty when the request sent no
    /// tagged messages).
    pub fn hops_of(&self, request: u64) -> &[Hop] {
        self.per_request.get(&request).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_for_request("a", "b", 100, SimTime::millis(5), None);
        m.record_for_request("a", "b", 200, SimTime::millis(15), None);
        m.record_for_request("b", "c", 50, SimTime::millis(10), None);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes, 350);
        assert_eq!(m.total_latency, SimTime::millis(30));
        assert_eq!(m.per_edge[&("a".to_string(), "b".to_string())], 2);
    }

    #[test]
    fn reset_clears() {
        let mut m = Metrics::default();
        m.record_for_request("a", "b", 1, SimTime::millis(1), None);
        m.reset();
        assert_eq!(m.messages, 0);
        assert_eq!(m.bytes, 0);
        assert!(m.per_request.is_empty());
    }

    #[test]
    fn per_request_hops_recorded() {
        let mut m = Metrics::default();
        m.record_for_request("a", "b", 10, SimTime::millis(1), Some(7));
        m.record_for_request("b", "c", 20, SimTime::millis(2), Some(7));
        m.record_for_request("a", "c", 5, SimTime::millis(3), None);
        assert_eq!(m.hops_of(7).len(), 2);
        assert_eq!(m.hops_of(7)[0].from, "a");
        assert_eq!(m.hops_of(7)[1].to, "c");
        assert_eq!(m.hops_of(8), &[]);
        assert_eq!(m.messages, 3, "untagged messages still metered");
    }
}
