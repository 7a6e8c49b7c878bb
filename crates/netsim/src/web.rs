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
    pub fn new(node: NodeId, store_id: &str) -> Self {
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
    pub fn new(node: NodeId, store_id: &str, org: &str) -> Self {
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
    pub fn new(node: NodeId) -> Self {
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
    pub fn len(&self) -> usize {
        self.online.len()
    }

    /// True when nobody has explicit status.
    pub fn is_empty(&self) -> bool {
        self.online.is_empty()
    }
}

/// GUP adapter over a [`PresenceServer`] — a **read-only** dynamic
/// source (presence is produced by the network, not provisioned), which
/// exercises the capability-discovery side of the DataStore interface.
#[derive(Debug)]
pub struct PresenceAdapter {
    id: gupster_store::StoreId,
    /// The wrapped presence source.
    pub server: PresenceServer,
}

impl PresenceAdapter {
    /// Wraps a presence server.
    pub fn new(id: impl Into<String>, server: PresenceServer) -> Self {
        PresenceAdapter { id: gupster_store::StoreId::new(id), server }
    }

    fn view(&self, user: &str) -> gupster_xml::Element {
        gupster_xml::Element::new("user").with_attr("id", user).with_child(
            gupster_xml::Element::new("presence").with_text(self.server.status(user)),
        )
    }
}

impl gupster_store::DataStore for PresenceAdapter {
    fn id(&self) -> &gupster_store::StoreId {
        &self.id
    }

    fn fragments(
        &self,
        path: &gupster_xpath::Path,
    ) -> Result<Vec<gupster_store::Fragment<'_>>, gupster_store::StoreError> {
        use gupster_xpath::Predicate;
        let user = path.steps.first().and_then(|s| {
            s.predicates.iter().find_map(|p| match p {
                Predicate::AttrEq(a, v) if a == "id" => Some(v.clone()),
                _ => None,
            })
        });
        let users = match user {
            Some(u) => vec![u],
            None => self.users(),
        };
        let mut out = Vec::new();
        for u in users {
            let view = self.view(&u);
            out.extend(gupster_store::Fragment::select_built(path, &view));
        }
        Ok(out)
    }

    fn update(
        &mut self,
        _user: &str,
        op: &gupster_store::UpdateOp,
    ) -> Result<(), gupster_store::StoreError> {
        // Presence is set by the network (IM client connections), not by
        // GUP provisioning.
        Err(gupster_store::StoreError::Unsupported(format!(
            "presence is read-only through GUP: {op:?}"
        )))
    }

    fn users(&self) -> Vec<String> {
        Vec::new() // the server tracks status, not a user directory
    }

    fn generation(&self) -> u64 {
        self.server.len() as u64
    }

    fn capabilities(&self) -> gupster_store::Capabilities {
        gupster_store::Capabilities::READ_ONLY
    }

    fn drain_events(&mut self) -> Vec<gupster_store::ChangeEvent> {
        Vec::new()
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
    fn presence_adapter_serves_reads_and_refuses_writes() {
        let mut net = Network::new(1);
        let node = net.add_node("im.yahoo.com", Domain::Internet);
        let mut server = PresenceServer::new(node);
        server.set_status("alice", "available");
        let mut a = PresenceAdapter::new("gup.im.yahoo.com", server);
        let r = a.query(&Path::parse("/user[@id='alice']/presence").unwrap()).unwrap();
        assert_eq!(r[0].text(), "available");
        // Unknown users read as offline — presence is total.
        let r = a.query(&Path::parse("/user[@id='ghost']/presence").unwrap()).unwrap();
        assert_eq!(r[0].text(), "offline");
        assert!(!a.capabilities().can_update);
        let err = a.update(
            "alice",
            &gupster_store::UpdateOp::SetText(
                Path::parse("/user/presence").unwrap(),
                "invisible".into(),
            ),
        );
        assert!(matches!(err, Err(gupster_store::StoreError::Unsupported(_))));
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
