//! Link latency models per network domain.

use gupster_rng::Rng;

use crate::clock::SimTime;

/// The network domain a node lives in (Figure 1's world).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Circuit-switched telephone network (SS7 signaling: fast,
    /// deterministic).
    Pstn,
    /// Wireless carrier core network (HLR/VLR/MSC).
    Wireless,
    /// Voice-over-IP infrastructure.
    Voip,
    /// The public Internet — "the weakest link(s) will be part of the
    /// non-managed networks" (Req. 13): higher latency, higher jitter.
    Internet,
    /// A corporate intranet behind a firewall.
    Intranet,
    /// The end-user's device / client application.
    Client,
}

/// One-way message cost model for a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed propagation + processing latency.
    pub base: SimTime,
    /// Maximum uniform jitter added on top.
    pub jitter: SimTime,
    /// Transfer charge per kilobyte of payload.
    pub per_kb: SimTime,
}

impl LatencyModel {
    /// A constant-latency model (no jitter, no size charge) — useful in
    /// tests that need determinism.
    pub const fn fixed(base: SimTime) -> Self {
        LatencyModel { base, jitter: SimTime::ZERO, per_kb: SimTime::ZERO }
    }

    /// Default model for a message between two domains. Values are
    /// 2003-era order-of-magnitude figures: SS7 hops in single-digit
    /// milliseconds, managed IP tens of milliseconds, public Internet
    /// tens-to-hundred milliseconds with heavy jitter.
    pub(crate) fn between(a: Domain, b: Domain) -> Self {
        use Domain::*;
        let (base_ms, jitter_ms, per_kb_us) = match (a, b) {
            // Intra-domain.
            (Pstn, Pstn) | (Wireless, Wireless) => (3, 1, 100),
            (Voip, Voip) => (10, 5, 200),
            (Intranet, Intranet) => (2, 1, 100),
            (Internet, Internet) => (30, 20, 400),
            // Telephony interconnect (SS7 gateways).
            (Pstn, Wireless) | (Wireless, Pstn) => (8, 2, 150),
            // Anything touching the public Internet pays its price.
            (Internet, _) | (_, Internet) => (40, 25, 400),
            // VoIP to telephony passes a media gateway.
            (Voip, Pstn) | (Pstn, Voip) | (Voip, Wireless) | (Wireless, Voip) => (15, 5, 300),
            // Intranet to managed networks: firewalled but decent.
            (Intranet, _) | (_, Intranet) => (12, 4, 200),
            // Clients reach everything over access networks.
            (Client, _) | (_, Client) => (20, 10, 300),
        };
        LatencyModel {
            base: SimTime::millis(base_ms),
            jitter: SimTime::millis(jitter_ms),
            per_kb: SimTime::micros(per_kb_us),
        }
    }

    /// Samples the one-way cost of carrying `bytes` across this link.
    pub(crate) fn sample(&self, bytes: usize, rng: &mut impl Rng) -> SimTime {
        let jitter = if self.jitter.0 == 0 { 0 } else { rng.gen_range(0..=self.jitter.0) };
        let kb = bytes.div_ceil(1024) as u64;
        SimTime(self.base.0 + jitter + self.per_kb.0 * kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_rng::{SeedableRng, StdRng};

    #[test]
    fn fixed_is_deterministic() {
        let m = LatencyModel::fixed(SimTime::millis(5));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(0, &mut rng), SimTime::millis(5));
        assert_eq!(m.sample(100, &mut rng), SimTime::millis(5));
    }

    #[test]
    fn size_charge_applies_per_kb() {
        let m = LatencyModel {
            base: SimTime::millis(1),
            jitter: SimTime::ZERO,
            per_kb: SimTime::micros(100),
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(0, &mut rng), SimTime::millis(1));
        assert_eq!(m.sample(1, &mut rng), SimTime::micros(1_100));
        assert_eq!(m.sample(1024, &mut rng), SimTime::micros(1_100));
        assert_eq!(m.sample(1025, &mut rng), SimTime::micros(1_200));
    }

    #[test]
    fn jitter_within_bounds() {
        let m = LatencyModel {
            base: SimTime::millis(10),
            jitter: SimTime::millis(5),
            per_kb: SimTime::ZERO,
        };
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let t = m.sample(0, &mut rng);
            assert!(t >= SimTime::millis(10) && t <= SimTime::millis(15), "{t}");
        }
    }

    #[test]
    fn internet_slower_than_ss7() {
        let ss7 = LatencyModel::between(Domain::Wireless, Domain::Wireless);
        let inet = LatencyModel::between(Domain::Internet, Domain::Client);
        assert!(inet.base > ss7.base);
        assert!(inet.jitter > ss7.jitter);
    }

    #[test]
    fn between_is_symmetric() {
        use Domain::*;
        for a in [Pstn, Wireless, Voip, Internet, Intranet, Client] {
            for b in [Pstn, Wireless, Voip, Internet, Intranet, Client] {
                assert_eq!(LatencyModel::between(a, b), LatencyModel::between(b, a));
            }
        }
    }
}
