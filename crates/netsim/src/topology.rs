//! The full Figure-1 world: a converged network with profile data
//! placed exactly where Figure 5 says it lives.

use gupster_schema::ProfileBuilder;
use gupster_store::DataStore;

use crate::clock::SimTime;
use crate::link::Domain;
use crate::network::{Network, NodeId};
use crate::pstn::{Class5Switch, LineRecord};
use crate::voip::{SipProxy, SipRegistrar};
use crate::web::{Enterprise, Portal, PresenceServer};
use crate::wireless::Carrier;

/// A populated converged network: two wireless carriers, a PSTN switch,
/// a SIP island, an internet portal, an enterprise intranet, an
/// IM-presence source, plus client and GUPster nodes.
#[derive(Debug)]
pub struct ConvergedNetwork {
    /// The message fabric.
    pub net: Network,
    /// The home wireless carrier (SprintPCS in Example 1).
    pub sprintpcs: Carrier,
    /// The roaming carrier (Vodafone in Example 1).
    pub vodafone: Carrier,
    /// The local PSTN switch (office + home lines).
    pub pstn: Class5Switch,
    /// SIP registrar.
    pub registrar: SipRegistrar,
    /// SIP proxy.
    pub proxy: SipProxy,
    /// The internet portal (Yahoo!).
    pub portal: Portal,
    /// The enterprise intranet directory (Lucent).
    pub enterprise: Enterprise,
    /// IM presence source.
    pub presence: PresenceServer,
    /// The end-user's client (cell phone / laptop).
    pub client: NodeId,
    /// The GUPster server's node (hosted in a well-connected data
    /// center on the managed side of the Internet).
    pub gupster: NodeId,
}

/// A row of the Figure-5 placement table, generated from live state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementRow {
    /// Network name (`PSTN`, `Wireless`, `VoIP`, `Web`).
    pub network: &'static str,
    /// The element holding the data (switch, HLR, registrar, …).
    pub element: String,
    /// What profile data it holds.
    pub data: String,
    /// How many records.
    pub records: usize,
}

impl ConvergedNetwork {
    /// Builds the world (deterministic for a given seed).
    pub fn build(seed: u64) -> Self {
        let mut net = Network::new(seed);
        let sprintpcs = Carrier::build(&mut net, "sprintpcs", 3);
        let vodafone = Carrier::build(&mut net, "vodafone", 2);
        let pstn_node = net.add_node("5ess.nj.pstn", Domain::Pstn);
        let reg_node = net.add_node("registrar.voip.net", Domain::Voip);
        let proxy_node = net.add_node("proxy.voip.net", Domain::Voip);
        let portal_node = net.add_node("gup.yahoo.com", Domain::Internet);
        let ent_node = net.add_node("gup.lucent.com", Domain::Intranet);
        let im_node = net.add_node("im.yahoo.com", Domain::Internet);
        let client = net.add_node("alice-client", Domain::Client);
        let gupster = net.add_node("gupster.net", Domain::Internet);
        ConvergedNetwork {
            sprintpcs,
            vodafone,
            pstn: Class5Switch::new(pstn_node),
            registrar: SipRegistrar::new(reg_node),
            proxy: SipProxy::new(proxy_node),
            portal: Portal::new(portal_node, "gup.yahoo.com"),
            enterprise: Enterprise::new(ent_node, "gup.lucent.com", "lucent"),
            presence: PresenceServer::new(im_node),
            client,
            gupster,
            net,
        }
    }

    /// Populates Alice's profile fragments across the networks, per the
    /// Example-1 scenario (§2.1):
    ///
    /// * SprintPCS hosts her US cell subscription (HLR),
    /// * Vodafone hosts her European SIM subscription,
    /// * the PSTN switch holds her office and home lines,
    /// * the SIP registrar binds her softphone,
    /// * Yahoo! hosts her personal address book and calendar,
    /// * Lucent hosts her corporate address book,
    /// * the IM server tracks her presence.
    pub fn populate_alice(&mut self) {
        self.sprintpcs.provision(&self.net, "908-555-0199", "Alice", false);
        self.vodafone.provision(&self.net, "+44-7700-900123", "Alice", true);
        self.pstn.provision_line("908-582-3000", LineRecord { caller_id: true, ..Default::default() });
        self.pstn.provision_line("973-555-8000", LineRecord::default());
        self.registrar.register("sip:alice@voip.net", self.client, SimTime::secs(3600));
        let personal = ProfileBuilder::new("alice")
            .identity("Alice", "alice@yahoo.com")
            .contact("personal", "Mom", "908-555-0101")
            .contact("personal", "Bob", "908-555-0102")
            .device("d1", "phone", "SprintPCS cell", Some("908-555-0199"))
            .device("d2", "softphone", "MSN Messenger", None)
            .event("Dentist", "2003-01-10T14:00", &[])
            .build();
        self.portal.store.put_profile(personal).unwrap();
        self.portal.store.drain_events();
        self.enterprise.adapter.add_user("alice", "Alice Smith", "Smith").unwrap();
        self.enterprise
            .adapter
            .add_contact("alice", "corporate", "Rick Hull", "908-582-4393")
            .unwrap();
        self.enterprise
            .adapter
            .add_contact("alice", "corporate", "Arnaud Sahuguet", "908-582-4394")
            .unwrap();
        self.presence.set_status("alice", "available");
    }

    /// Generates the Figure-5 placement table from the live state.
    pub fn placement_table(&self) -> Vec<PlacementRow> {
        let mut rows = Vec::new();
        rows.push(PlacementRow {
            network: "PSTN",
            element: self.net.node(self.pstn.node).label.clone(),
            data: "line records: forwarding, barring, caller-id".into(),
            records: self.pstn.line_count(),
        });
        for (carrier, label) in [(&self.sprintpcs, "Wireless"), (&self.vodafone, "Wireless")] {
            rows.push(PlacementRow {
                network: label,
                element: self.net.node(carrier.hlr.node).label.clone(),
                data: "subscriber profile, location, forwarding".into(),
                records: carrier.hlr.subscriber_count(),
            });
            for (vlr, _) in &carrier.areas {
                if !vlr.is_empty() {
                    rows.push(PlacementRow {
                        network: label,
                        element: vlr.label.clone(),
                        data: "visiting-subscriber snapshots".into(),
                        records: vlr.len(),
                    });
                }
            }
        }
        rows.push(PlacementRow {
            network: "VoIP",
            element: self.net.node(self.registrar.node).label.clone(),
            data: "SIP address → endpoint bindings".into(),
            records: self.registrar.len(),
        });
        rows.push(PlacementRow {
            network: "Web",
            element: self.net.node(self.portal.node).label.clone(),
            data: "address book, calendar, identity (XML)".into(),
            records: self.portal.store.len(),
        });
        rows.push(PlacementRow {
            network: "Web",
            element: self.net.node(self.enterprise.node).label.clone(),
            data: "corporate directory (LDAP, GUP-wrapped)".into(),
            records: self.enterprise.adapter.users().len(),
        });
        rows.push(PlacementRow {
            network: "Web",
            element: self.net.node(self.presence.node).label.clone(),
            data: "IM presence".into(),
            records: self.presence.len(),
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_xpath::Path;

    fn world() -> ConvergedNetwork {
        let mut w = ConvergedNetwork::build(42);
        w.populate_alice();
        w
    }

    #[test]
    fn placement_matches_figure_5() {
        let w = world();
        let rows = w.placement_table();
        // Every network of Fig. 5 is represented.
        for n in ["PSTN", "Wireless", "VoIP", "Web"] {
            assert!(rows.iter().any(|r| r.network == n), "missing {n}");
        }
        // Every populated element holds at least one record.
        assert!(rows.iter().all(|r| r.records > 0), "{rows:#?}");
    }

    #[test]
    fn alice_data_is_spread_across_networks() {
        let w = world();
        assert!(w.sprintpcs.hlr.subscriber_count() == 1);
        assert!(w.vodafone.hlr.subscriber_count() == 1);
        assert_eq!(w.pstn.line_count(), 2);
        assert!(w.registrar.lookup("sip:alice@voip.net").is_some());
        assert_eq!(w.presence.status("alice"), "available");
        let personal = w
            .portal
            .store
            .query(&Path::parse("/user[@id='alice']/address-book/item").unwrap())
            .unwrap();
        assert_eq!(personal.len(), 2);
        let corporate = w
            .enterprise
            .adapter
            .query(&Path::parse("/user[@id='alice']/address-book/item").unwrap())
            .unwrap();
        assert_eq!(corporate.len(), 2);
    }

    #[test]
    fn cross_network_latency_ordering() {
        let w = world();
        // Intra-wireless signaling must be much faster than crossing the
        // public Internet (Req. 13's "weakest link").
        let ss7 = w.net.rpc(w.sprintpcs.hlr.node, w.sprintpcs.areas[0].1, 128, 128);
        let internet = w.net.rpc(w.client, w.portal.node, 128, 128);
        assert!(ss7 < internet, "ss7={ss7} internet={internet}");
    }

    #[test]
    fn deterministic_build() {
        // The next node id is the number of nodes a build registered.
        let count = |seed| ConvergedNetwork::build(seed).net.add_node("probe", Domain::Client).0;
        let a = count(1);
        assert_eq!(a, count(1));
        assert!(a >= 13);
    }
}
