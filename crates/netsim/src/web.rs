//! Web-side profile holders: portal, enterprise intranet, ISP (§3.1.4).

use std::collections::HashMap;

use gupster_store::{LdapAdapter, XmlStore};

use crate::network::NodeId;

/// An internet portal (the Yahoo! of the examples): a GUP-native XML
/// store reachable over the public Internet.
#[derive(Debug)]
pub struct Portal {
    /// The portal's network node.
    pub node: NodeId,
    /// Its GUP-enabled data store.
    pub store: XmlStore,
}

impl Portal {
    /// Creates a portal whose store id matches the node label.
    pub(crate) fn new(node: NodeId, store_id: &str) -> Self {
        Portal { node, store: XmlStore::new(store_id) }
    }
}

/// An enterprise (the Lucent of the examples): an LDAP directory behind
/// a firewall, GUP-enabled by an adapter.
#[derive(Debug)]
pub struct Enterprise {
    /// The enterprise's network node.
    pub node: NodeId,
    /// The wrapped corporate directory.
    pub adapter: LdapAdapter,
}

impl Enterprise {
    /// Creates an enterprise directory.
    pub(crate) fn new(node: NodeId, store_id: &str, org: &str) -> Self {
        Enterprise { node, adapter: LdapAdapter::new(store_id, org) }
    }
}

/// An ISP / instant-messaging presence source: "presence information
/// (e.g. instant messaging client, connection to DHCP servers)".
#[derive(Debug)]
pub struct PresenceServer {
    /// The server's network node.
    pub node: NodeId,
    online: HashMap<String, String>,
}

impl PresenceServer {
    /// Creates a presence server.
    pub(crate) fn new(node: NodeId) -> Self {
        PresenceServer { node, online: HashMap::new() }
    }

    /// Sets a user's presence status (e.g. `available`, `away`,
    /// `offline`).
    pub fn set_status(&mut self, user: &str, status: &str) {
        self.online.insert(user.to_string(), status.to_string());
    }

    /// Reads a user's presence (`offline` if unknown).
    pub fn status(&self, user: &str) -> &str {
        self.online.get(user).map(String::as_str).unwrap_or("offline")
    }

    /// Number of users with explicit status.
    pub(crate) fn len(&self) -> usize {
        self.online.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Domain;
    use crate::network::Network;
    use gupster_store::DataStore;
    use gupster_xml::parse;
    use gupster_xpath::Path;

    #[test]
    fn portal_hosts_profiles() {
        let mut net = Network::new(1);
        let node = net.add_node("gup.yahoo.com", Domain::Internet);
        let mut portal = Portal::new(node, "gup.yahoo.com");
        portal
            .store
            .put_profile(parse(r#"<user id="alice"><presence>online</presence></user>"#).unwrap())
            .unwrap();
        let r = portal
            .store
            .query(&Path::parse("/user[@id='alice']/presence").unwrap())
            .unwrap();
        assert_eq!(r[0].text(), "online");
    }

    #[test]
    fn enterprise_wraps_ldap() {
        let mut net = Network::new(1);
        let node = net.add_node("gup.lucent.com", Domain::Intranet);
        let mut ent = Enterprise::new(node, "gup.lucent.com", "lucent");
        ent.adapter.add_user("alice", "Alice Smith", "Smith").unwrap();
        ent.adapter.add_contact("alice", "corporate", "Rick", "908-582-4393").unwrap();
        let r = ent
            .adapter
            .query(&Path::parse("/user[@id='alice']/address-book/item/phone").unwrap())
            .unwrap();
        assert_eq!(r[0].text(), "908-582-4393");
    }

    #[test]
    fn presence_defaults_offline() {
        let mut net = Network::new(1);
        let node = net.add_node("im.yahoo.com", Domain::Internet);
        let mut p = PresenceServer::new(node);
        assert_eq!(p.status("alice"), "offline");
        p.set_status("alice", "available");
        assert_eq!(p.status("alice"), "available");
        assert_eq!(p.len(), 1);
    }
}
