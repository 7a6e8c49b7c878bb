//! E6 — §5.1.2: meta-data-manager topologies. Lookup hops & latency and
//! the per-organization meta-data exposure (the Hailstorm argument).
//!
//! The topology model is E6's own: centralized, user-level distributed
//! (with a white-pages directory, listed or unlisted), and hierarchical
//! delegation. It answers how many hops meta-data discovery takes, what
//! that costs in latency, and how much of a user's meta-data any single
//! organization gets to see (the Hailstorm lesson — "consumers are
//! unwilling to have all of their meta-data stored in a universally
//! available store managed by single corporation"). It is a model of
//! the paper's analysis of its architectural variations, not a request
//! route: no lookup resolves through it.

use std::collections::HashMap;

use gupster_netsim::{Domain, Journey, Network, NodeId, SimTime};
use gupster_xpath::{covers, Path};

use crate::table::{f2, print_table};

/// How a user's meta-data is laid out across managers.
#[derive(Debug, Clone)]
pub enum MdmTopology {
    /// One UDDI-like mirrored registry holds everyone's meta-data (§4).
    Centralized {
        /// The central registry's node.
        node: NodeId,
    },
    /// Each user picks an organization to host their meta-data; a
    /// universal white pages maps user → manager, with an "unlisted"
    /// option.
    UserDistributed {
        /// The white-pages node.
        white_pages: NodeId,
        /// user → their meta-data manager.
        manager_of: HashMap<String, NodeId>,
        /// Users whose white-pages entry is unlisted — discoverable only
        /// by clients that were told out of band.
        unlisted: Vec<String>,
    },
    /// Like user-distributed, but a user's primary manager delegates
    /// sub-trees (e.g. `/user/wallet` to the bank).
    Hierarchical {
        /// The white-pages node.
        white_pages: NodeId,
        /// user → primary manager.
        primary_of: HashMap<String, NodeId>,
        /// user → (delegated scope, sub-manager).
        delegations: HashMap<String, Vec<(Path, NodeId)>>,
    },
}

/// The result of resolving where a user's meta-data for `path` lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// The manager that can answer the lookup.
    pub manager: NodeId,
    /// Network round trips taken to find it.
    pub hops: u32,
    /// Wall-clock latency of the discovery.
    pub latency: SimTime,
}

/// Resolution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The user has no manager anywhere.
    UnknownUser(String),
    /// The user is unlisted and the client had no out-of-band hint.
    Unlisted(String),
}

impl MdmTopology {
    /// Resolves the manager responsible for `user`'s meta-data at
    /// `path`, charging the network. `hint` carries an out-of-band
    /// manager address (how unlisted users are reached).
    pub fn resolve(
        &self,
        net: &Network,
        client: NodeId,
        user: &str,
        path: &Path,
        hint: Option<NodeId>,
    ) -> Result<Resolution, ResolveError> {
        let mut j = Journey::start();
        match self {
            MdmTopology::Centralized { node } => {
                j.rpc(net, client, *node, 96, 96);
                Ok(Resolution { manager: *node, hops: 1, latency: j.elapsed() })
            }
            MdmTopology::UserDistributed { white_pages, manager_of, unlisted } => {
                let manager = if unlisted.iter().any(|u| u == user) {
                    match hint {
                        Some(m) => m,
                        None => return Err(ResolveError::Unlisted(user.to_string())),
                    }
                } else {
                    // White-pages lookup costs a hop.
                    j.rpc(net, client, *white_pages, 64, 64);
                    match manager_of.get(user) {
                        Some(m) => *m,
                        None => return Err(ResolveError::UnknownUser(user.to_string())),
                    }
                };
                j.rpc(net, client, manager, 96, 96);
                let hops = if unlisted.iter().any(|u| u == user) { 1 } else { 2 };
                Ok(Resolution { manager, hops, latency: j.elapsed() })
            }
            MdmTopology::Hierarchical { white_pages, primary_of, delegations } => {
                j.rpc(net, client, *white_pages, 64, 64);
                let primary = match primary_of.get(user) {
                    Some(m) => *m,
                    None => return Err(ResolveError::UnknownUser(user.to_string())),
                };
                // Ask the primary; it may refer us down a delegation.
                j.rpc(net, client, primary, 96, 96);
                let delegated = delegations
                    .get(user)
                    .and_then(|ds| ds.iter().find(|(scope, _)| covers(scope, path)));
                match delegated {
                    Some((_, sub)) => {
                        j.rpc(net, client, *sub, 96, 96);
                        Ok(Resolution { manager: *sub, hops: 3, latency: j.elapsed() })
                    }
                    None => Ok(Resolution { manager: primary, hops: 2, latency: j.elapsed() }),
                }
            }
        }
    }

    /// The meta-data **exposure** of each organization for one user: the
    /// fraction of that user's components whose existence-and-location
    /// the organization learns. The Hailstorm argument is about keeping
    /// these numbers below 1.0 for any single org.
    pub fn exposure(&self, user: &str, components: &[Path]) -> HashMap<NodeId, f64> {
        let total = components.len().max(1) as f64;
        let mut out = HashMap::new();
        match self {
            MdmTopology::Centralized { node } => {
                out.insert(*node, 1.0);
            }
            MdmTopology::UserDistributed { manager_of, .. } => {
                if let Some(m) = manager_of.get(user) {
                    out.insert(*m, 1.0);
                }
            }
            MdmTopology::Hierarchical { primary_of, delegations, .. } => {
                let Some(primary) = primary_of.get(user) else { return out };
                let ds = delegations.get(user).cloned().unwrap_or_default();
                let mut primary_known = 0usize;
                for c in components {
                    match ds.iter().find(|(scope, _)| covers(scope, c)) {
                        Some((_, sub)) => {
                            // The sub-manager knows this component fully;
                            // the primary only knows it exists (which we
                            // count as half-exposure of that component).
                            *out.entry(*sub).or_insert(0.0) += 1.0 / total;
                        }
                        None => primary_known += 1,
                    }
                }
                let delegated = components.len() - primary_known;
                out.insert(
                    *primary,
                    (primary_known as f64 + 0.5 * delegated as f64) / total,
                );
            }
        }
        out
    }
}


/// Runs the experiment.
pub fn run() {
    let mut net = Network::new(6);
    let client = net.add_node("client", Domain::Client);
    let central = net.add_node("gupster.net", Domain::Internet);
    let wp = net.add_node("whitepages.net", Domain::Internet);
    let carrier = net.add_node("mdm.carrier.com", Domain::Wireless);
    let bank = net.add_node("mdm.bank.com", Domain::Internet);
    let portal = net.add_node("mdm.portal.com", Domain::Internet);

    let p = |s: &str| Path::parse(s).expect("static");
    let components = vec![
        p("/user/identity"),
        p("/user/address-book"),
        p("/user/presence"),
        p("/user/calendar"),
        p("/user/wallet"),
        p("/user/applications"),
    ];

    let topologies: Vec<(&str, MdmTopology)> = vec![
        ("centralized", MdmTopology::Centralized { node: central }),
        (
            "user-distributed (listed)",
            MdmTopology::UserDistributed {
                white_pages: wp,
                manager_of: [("alice".to_string(), carrier)].into(),
                unlisted: vec![],
            },
        ),
        (
            "user-distributed (unlisted+hint)",
            MdmTopology::UserDistributed {
                white_pages: wp,
                manager_of: [("alice".to_string(), carrier)].into(),
                unlisted: vec!["alice".to_string()],
            },
        ),
        (
            "hierarchical (wallet→bank, apps→portal)",
            MdmTopology::Hierarchical {
                white_pages: wp,
                primary_of: [("alice".to_string(), carrier)].into(),
                delegations: [(
                    "alice".to_string(),
                    vec![(p("/user/wallet"), bank), (p("/user/applications"), portal)],
                )]
                .into(),
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, topo) in &topologies {
        const TRIALS: usize = 50;
        let mut hops = 0u32;
        let mut total = SimTime::ZERO;
        for _ in 0..TRIALS {
            let hint = if name.contains("unlisted") { Some(carrier) } else { None };
            let r = topo
                .resolve(&net, client, "alice", &p("/user/wallet/banking-information"), hint)
                .expect("resolvable");
            hops = r.hops;
            total += r.latency;
        }
        let mean = SimTime(total.0 / 50);
        let exposure = topo.exposure("alice", &components);
        let max_exposure = exposure.values().cloned().fold(0.0_f64, f64::max);
        let orgs = exposure.len();
        rows.push(vec![
            name.to_string(),
            hops.to_string(),
            mean.to_string(),
            orgs.to_string(),
            f2(max_exposure),
        ]);
    }
    print_table(
        "E6 / §5.1.2 — MDM topologies: wallet-metadata lookup + exposure",
        &["topology", "hops", "mean latency", "orgs holding metadata", "max org exposure"],
        &rows,
    );
    println!("  paper check: hierarchical keeps every org's exposure < 1.0 at the cost of extra hops.");
}

#[cfg(test)]
mod tests {
    use super::*;

    struct World {
        net: Network,
        client: NodeId,
        central: NodeId,
        wp: NodeId,
        carrier: NodeId,
        bank: NodeId,
    }

    fn world() -> World {
        let mut net = Network::new(3);
        let client = net.add_node("client", Domain::Client);
        let central = net.add_node("gupster.net", Domain::Internet);
        let wp = net.add_node("whitepages.net", Domain::Internet);
        let carrier = net.add_node("mdm.sprintpcs.com", Domain::Wireless);
        let bank = net.add_node("mdm.bank.com", Domain::Internet);
        World { net, client, central, wp, carrier, bank }
    }

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn centralized_single_hop() {
        let w = world();
        let t = MdmTopology::Centralized { node: w.central };
        let r = t.resolve(&w.net, w.client, "alice", &p("/user/presence"), None).unwrap();
        assert_eq!(r.hops, 1);
        assert_eq!(r.manager, w.central);
        assert!(r.latency > SimTime::ZERO);
    }

    #[test]
    fn user_distributed_two_hops_via_white_pages() {
        let w = world();
        let t = MdmTopology::UserDistributed {
            white_pages: w.wp,
            manager_of: [("alice".to_string(), w.carrier)].into(),
            unlisted: vec![],
        };
        let r = t.resolve(&w.net, w.client, "alice", &p("/user/presence"), None).unwrap();
        assert_eq!(r.hops, 2);
        assert_eq!(r.manager, w.carrier);
        assert!(matches!(
            t.resolve(&w.net, w.client, "ghost", &p("/user/presence"), None),
            Err(ResolveError::UnknownUser(_))
        ));
    }

    #[test]
    fn unlisted_requires_hint() {
        let w = world();
        let t = MdmTopology::UserDistributed {
            white_pages: w.wp,
            manager_of: [("alice".to_string(), w.carrier)].into(),
            unlisted: vec!["alice".to_string()],
        };
        assert!(matches!(
            t.resolve(&w.net, w.client, "alice", &p("/user/presence"), None),
            Err(ResolveError::Unlisted(_))
        ));
        let r = t
            .resolve(&w.net, w.client, "alice", &p("/user/presence"), Some(w.carrier))
            .unwrap();
        assert_eq!(r.hops, 1); // no white-pages hop; the hint replaced it
        assert_eq!(r.manager, w.carrier);
    }

    #[test]
    fn hierarchical_delegation_routes_wallet_to_bank() {
        let w = world();
        let t = MdmTopology::Hierarchical {
            white_pages: w.wp,
            primary_of: [("alice".to_string(), w.carrier)].into(),
            delegations: [(
                "alice".to_string(),
                vec![(p("/user/wallet"), w.bank)],
            )]
            .into(),
        };
        let r = t.resolve(&w.net, w.client, "alice", &p("/user/wallet/banking-information"), None).unwrap();
        assert_eq!(r.hops, 3);
        assert_eq!(r.manager, w.bank);
        let r = t.resolve(&w.net, w.client, "alice", &p("/user/presence"), None).unwrap();
        assert_eq!(r.hops, 2);
        assert_eq!(r.manager, w.carrier);
    }

    #[test]
    fn exposure_decreases_with_distribution() {
        let w = world();
        let components =
            vec![p("/user/presence"), p("/user/address-book"), p("/user/wallet"), p("/user/calendar")];
        let central = MdmTopology::Centralized { node: w.central };
        assert_eq!(central.exposure("alice", &components)[&w.central], 1.0);

        let hier = MdmTopology::Hierarchical {
            white_pages: w.wp,
            primary_of: [("alice".to_string(), w.carrier)].into(),
            delegations: [("alice".to_string(), vec![(p("/user/wallet"), w.bank)])].into(),
        };
        let e = hier.exposure("alice", &components);
        // The carrier sees 3 components fully + knows the wallet exists:
        // (3 + 0.5) / 4 = 0.875 < 1.0; the bank sees 1/4.
        assert!((e[&w.carrier] - 0.875).abs() < 1e-9, "{e:?}");
        assert!((e[&w.bank] - 0.25).abs() < 1e-9);
        assert!(e.values().all(|&v| v < 1.0));
    }

    #[test]
    fn exposure_tradeoff_holds() {
        let mut net = Network::new(1);
        let _client = net.add_node("c", Domain::Client);
        let central = net.add_node("central", Domain::Internet);
        let wp = net.add_node("wp", Domain::Internet);
        let carrier = net.add_node("carrier", Domain::Wireless);
        let bank = net.add_node("bank", Domain::Internet);
        let p = |s: &str| Path::parse(s).unwrap();
        let comps = vec![p("/user/presence"), p("/user/wallet")];
        let c = MdmTopology::Centralized { node: central };
        let h = MdmTopology::Hierarchical {
            white_pages: wp,
            primary_of: [("a".to_string(), carrier)].into(),
            delegations: [("a".to_string(), vec![(p("/user/wallet"), bank)])].into(),
        };
        let ce: HashMap<_, _> = c.exposure("a", &comps);
        let he: HashMap<_, _> = h.exposure("a", &comps);
        assert_eq!(ce[&central], 1.0);
        assert!(he.values().all(|&v| v < 1.0));
    }

    #[test]
    fn runs() {
        super::run();
    }
}
