//! Deterministic fault injection: clock-driven link flaps, partitions,
//! latency spikes and node outages.
//!
//! Req. 12 ("reliability: profile data must survive store and network
//! failures") is only testable if the simulated converged network can
//! *cause* failures on a schedule. A [`FaultSchedule`] is a set of
//! timed [`FaultWindow`]s, either composed explicitly (integration
//! tests pin exact windows) or generated from a seed and a set of
//! [`FaultRates`] (chaos suites sweep seeds). Faults are evaluated
//! against the network's global simulation clock
//! ([`crate::Network::now`]): the same seed and the same clock
//! movements observe byte-identical fault sequences.
//!
//! The schedule is pure data — it never mutates while the simulation
//! runs, so replaying a run replays its faults exactly.

use gupster_rng::{Rng, SeedableRng, StdRng};

use crate::clock::SimTime;
use crate::network::NodeId;

/// What a fault does while its window is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The (unordered) link between two nodes drops every message.
    LinkDown(NodeId, NodeId),
    /// A node is dark: every link touching it drops every message.
    NodeOffline(NodeId),
    /// Every sampled latency is multiplied by the factor.
    LatencySpike(u64),
    /// The network splits into segments; messages crossing segment
    /// boundaries are dropped. Nodes absent from every segment are
    /// unaffected.
    Partition(Vec<Vec<NodeId>>),
}

/// One scheduled fault: `kind` is active for `start <= t < end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub start: SimTime,
    /// First instant after the fault (exclusive).
    pub end: SimTime,
    /// The fault itself.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers instant `t`.
    pub(crate) fn active_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Rates for [`FaultSchedule::generate`]. All probabilities are
/// per-entity per-[`tick`](FaultRates::tick); every started fault lasts
/// between 0.5× and 1.5× [`mean_repair`](FaultRates::mean_repair).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRates {
    /// Chance per link per tick that the link goes down.
    pub link_fault: f64,
    /// Chance per node per tick that the node goes dark.
    pub node_outage: f64,
    /// Chance per tick that a network-wide latency spike starts.
    pub latency_spike: f64,
    /// Multiplier applied during a latency spike.
    pub spike_factor: u64,
    /// Chance per tick that the network partitions into two segments.
    pub partition: f64,
    /// Schedule resolution: how often fault starts are drawn.
    pub tick: SimTime,
    /// Mean fault duration (uniform on 0.5×..=1.5×).
    pub mean_repair: SimTime,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            link_fault: 0.0,
            node_outage: 0.0,
            latency_spike: 0.0,
            spike_factor: 8,
            partition: 0.0,
            tick: SimTime::millis(100),
            mean_repair: SimTime::millis(400),
        }
    }
}

impl FaultRates {
    /// Rates where each link flaps with probability `p` per tick.
    pub fn links(p: f64) -> Self {
        FaultRates { link_fault: p, ..Default::default() }
    }

    /// Adds a per-node outage rate.
    pub fn with_node_outages(mut self, p: f64) -> Self {
        self.node_outage = p;
        self
    }

    /// Adds a latency-spike rate.
    pub fn with_latency_spikes(mut self, p: f64) -> Self {
        self.latency_spike = p;
        self
    }

    /// Adds a partition rate.
    pub fn with_partitions(mut self, p: f64) -> Self {
        self.partition = p;
        self
    }
}

/// A deterministic, clock-driven set of fault windows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// An empty schedule (nothing ever fails).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Builder: the link between `a` and `b` is down on `[start, end)`.
    pub fn link_down(mut self, a: NodeId, b: NodeId, start: SimTime, end: SimTime) -> Self {
        self.windows.push(FaultWindow { start, end, kind: FaultKind::LinkDown(a, b) });
        self
    }

    /// Builder: `node` is dark on `[start, end)`.
    pub fn node_offline(mut self, node: NodeId, start: SimTime, end: SimTime) -> Self {
        self.windows.push(FaultWindow { start, end, kind: FaultKind::NodeOffline(node) });
        self
    }

    /// Builder: latencies are multiplied by `factor` on `[start, end)`.
    pub(crate) fn latency_spike(mut self, factor: u64, start: SimTime, end: SimTime) -> Self {
        self.windows.push(FaultWindow { start, end, kind: FaultKind::LatencySpike(factor) });
        self
    }

    /// Builder: the network partitions into `segments` on `[start, end)`.
    pub(crate) fn partition(mut self, segments: Vec<Vec<NodeId>>, start: SimTime, end: SimTime) -> Self {
        self.windows.push(FaultWindow { start, end, kind: FaultKind::Partition(segments) });
        self
    }

    /// Generates a schedule over `[0, horizon)` from a seed: link flaps,
    /// node outages, latency spikes and partitions drawn per tick at the
    /// given rates. Same seed, same rates, same nodes ⇒ same schedule.
    pub fn generate(seed: u64, rates: &FaultRates, nodes: &[NodeId], horizon: SimTime) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_5EED);
        let mut schedule = FaultSchedule::new();
        let tick = rates.tick.0.max(1);
        let duration = |rng: &mut StdRng| {
            let mean = rates.mean_repair.0.max(2);
            SimTime(rng.gen_range(mean / 2..=mean + mean / 2))
        };
        let mut t = SimTime::ZERO;
        while t < horizon {
            for (i, &a) in nodes.iter().enumerate() {
                for &b in &nodes[i + 1..] {
                    if rates.link_fault > 0.0 && rng.gen_bool(rates.link_fault) {
                        let d = duration(&mut rng);
                        schedule = schedule.link_down(a, b, t, t + d);
                    }
                }
                if rates.node_outage > 0.0 && rng.gen_bool(rates.node_outage) {
                    let d = duration(&mut rng);
                    schedule = schedule.node_offline(a, t, t + d);
                }
            }
            if rates.latency_spike > 0.0 && rng.gen_bool(rates.latency_spike) {
                let d = duration(&mut rng);
                schedule = schedule.latency_spike(rates.spike_factor.max(2), t, t + d);
            }
            if rates.partition > 0.0 && nodes.len() >= 2 && rng.gen_bool(rates.partition) {
                // A random bisection with both sides non-empty.
                let pivot = rng.gen_range(1..nodes.len());
                let (left, right) = nodes.split_at(pivot);
                let d = duration(&mut rng);
                schedule = schedule.partition(vec![left.to_vec(), right.to_vec()], t, t + d);
            }
            t += SimTime(tick);
        }
        schedule
    }

    /// The first active fault that blocks a message between `a` and `b`
    /// at instant `t`, or `None` when the message can be delivered.
    pub(crate) fn blocked(&self, t: SimTime, a: NodeId, b: NodeId) -> Option<&FaultKind> {
        self.windows.iter().find(|w| w.active_at(t) && kind_blocks(&w.kind, a, b)).map(|w| &w.kind)
    }

    /// The latency multiplier at instant `t` (the largest active spike;
    /// 1 when none is active).
    pub(crate) fn latency_factor(&self, t: SimTime) -> u64 {
        self.windows
            .iter()
            .filter(|w| w.active_at(t))
            .filter_map(|w| match w.kind {
                FaultKind::LatencySpike(f) => Some(f),
                _ => None,
            })
            .max()
            .unwrap_or(1)
    }
}

fn kind_blocks(kind: &FaultKind, a: NodeId, b: NodeId) -> bool {
    match kind {
        FaultKind::LinkDown(x, y) => (a, b) == (*x, *y) || (a, b) == (*y, *x),
        FaultKind::NodeOffline(n) => *n == a || *n == b,
        FaultKind::LatencySpike(_) => false,
        FaultKind::Partition(segments) => {
            let segment_of = |n: NodeId| segments.iter().position(|s| s.contains(&n));
            match (segment_of(a), segment_of(b)) {
                (Some(sa), Some(sb)) => sa != sb,
                _ => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn windows_are_half_open() {
        let s = FaultSchedule::new().link_down(n(0), n(1), SimTime::millis(10), SimTime::millis(20));
        assert!(s.blocked(SimTime::millis(9), n(0), n(1)).is_none());
        assert!(s.blocked(SimTime::millis(10), n(0), n(1)).is_some());
        assert!(s.blocked(SimTime::millis(19), n(1), n(0)).is_some(), "both directions");
        assert!(s.blocked(SimTime::millis(20), n(0), n(1)).is_none(), "end is exclusive");
        assert!(s.blocked(SimTime::millis(15), n(0), n(2)).is_none(), "other links unaffected");
    }

    #[test]
    fn node_outage_blocks_every_touching_link() {
        let s = FaultSchedule::new().node_offline(n(2), SimTime::ZERO, SimTime::secs(1));
        assert!(s.blocked(SimTime::millis(5), n(0), n(2)).is_some());
        assert!(s.blocked(SimTime::millis(5), n(2), n(1)).is_some());
        assert!(s.blocked(SimTime::millis(5), n(0), n(1)).is_none());
        assert!(s.blocked(SimTime::secs(2), n(0), n(2)).is_none(), "the outage ends");
    }

    #[test]
    fn partition_blocks_cross_segment_only() {
        let s = FaultSchedule::new().partition(
            vec![vec![n(0), n(1)], vec![n(2), n(3)]],
            SimTime::ZERO,
            SimTime::secs(1),
        );
        assert!(s.blocked(SimTime::millis(1), n(0), n(2)).is_some());
        assert!(s.blocked(SimTime::millis(1), n(3), n(1)).is_some());
        assert!(s.blocked(SimTime::millis(1), n(0), n(1)).is_none(), "same segment");
        assert!(s.blocked(SimTime::millis(1), n(0), n(9)).is_none(), "unlisted node");
    }

    #[test]
    fn latency_factor_takes_largest_active_spike() {
        let s = FaultSchedule::new()
            .latency_spike(4, SimTime::ZERO, SimTime::secs(2))
            .latency_spike(10, SimTime::secs(1), SimTime::secs(3));
        assert_eq!(s.latency_factor(SimTime::millis(500)), 4);
        assert_eq!(s.latency_factor(SimTime::millis(1_500)), 10);
        assert_eq!(s.latency_factor(SimTime::millis(2_500)), 10);
        assert_eq!(s.latency_factor(SimTime::secs(5)), 1);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let nodes = [n(0), n(1), n(2), n(3)];
        let rates = FaultRates::links(0.1).with_node_outages(0.05).with_latency_spikes(0.02);
        let a = FaultSchedule::generate(7, &rates, &nodes, SimTime::secs(10));
        let b = FaultSchedule::generate(7, &rates, &nodes, SimTime::secs(10));
        assert_eq!(a, b);
        assert!(!a.windows.is_empty());
        let c = FaultSchedule::generate(8, &rates, &nodes, SimTime::secs(10));
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn generated_windows_stay_in_horizon_order_of_magnitude() {
        let nodes = [n(0), n(1), n(2)];
        let rates = FaultRates::links(0.2).with_partitions(0.05);
        let horizon = SimTime::secs(5);
        let s = FaultSchedule::generate(3, &rates, &nodes, horizon);
        for w in &s.windows {
            assert!(w.start < horizon);
            assert!(w.end > w.start);
        }
    }
}
