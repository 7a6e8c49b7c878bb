//! The wireless carrier core: HLR, VLR, MSC and their protocols
//! (§3.1.2, Figure 3).
//!
//! The HLR is "a main memory relational database" serving "simple lookup
//! queries" — we back it with the relational substrate from
//! `gupster-store`. The VLR keeps "temporary subscriber information
//! (snapshot of the master copy stored in the HLR)"; the location-update
//! protocol moves that snapshot and cancels the old VLR, exactly as the
//! paper describes.

use std::collections::HashMap;

use gupster_store::relational::{RelationalDb, Value};

use crate::clock::SimTime;
use crate::link::Domain;
use crate::network::{Network, NodeId};

/// A subscriber record as the VLR caches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VlrRecord {
    /// The subscriber's number.
    pub msisdn: String,
    /// Display name.
    pub name: String,
    /// Call-forwarding target, if provisioned.
    pub forward_to: Option<String>,
}

/// The Home Location Register.
#[derive(Debug)]
pub struct Hlr {
    /// The HLR's network node.
    pub node: NodeId,
    db: RelationalDb,
    /// Count of lookup (read) operations served.
    pub lookups: u64,
    /// Count of update operations served.
    pub updates: u64,
}

impl Hlr {
    /// Creates an HLR at the given node.
    pub(crate) fn new(node: NodeId) -> Self {
        let mut db = RelationalDb::new();
        db.create_table("subscriber", &["msisdn", "name", "forward_to", "prepaid"]);
        db.create_table("location", &["msisdn", "vlr", "msc"]);
        Hlr { node, db, lookups: 0, updates: 0 }
    }

    /// Provisions a subscriber (a provisioning-center operation).
    pub fn provision(&mut self, msisdn: &str, name: &str, prepaid: bool) {
        self.db
            .table_mut("subscriber")
            .expect("schema")
            .upsert(vec![
                Value::text(msisdn),
                Value::text(name),
                Value::Null,
                Value::Int(prepaid as i64),
            ])
            .expect("arity");
        self.updates += 1;
    }

    /// Records a location update; returns the previous serving VLR label
    /// (to be cancelled).
    pub fn location_update(&mut self, msisdn: &str, vlr: &str, msc: &str) -> Option<String> {
        self.updates += 1;
        let old = self
            .db
            .table("location")
            .expect("schema")
            .get(&Value::text(msisdn))
            .map(|r| r[1].render());
        self.db
            .table_mut("location")
            .expect("schema")
            .upsert(vec![Value::text(msisdn), Value::text(vlr), Value::text(msc)])
            .expect("arity");
        old.filter(|o| o != vlr)
    }

    /// HLR interrogation: the routing lookup every call setup performs.
    pub fn lookup_routing(&mut self, msisdn: &str) -> Option<(String, String)> {
        self.lookups += 1;
        self.db
            .table("location")
            .expect("schema")
            .get(&Value::text(msisdn))
            .map(|r| (r[1].render(), r[2].render()))
    }

    /// Full subscriber read (used to refresh VLR snapshots).
    pub(crate) fn subscriber(&mut self, msisdn: &str) -> Option<VlrRecord> {
        self.lookups += 1;
        self.db.table("subscriber").expect("schema").get(&Value::text(msisdn)).map(|r| {
            VlrRecord {
                msisdn: r[0].render(),
                name: r[1].render(),
                forward_to: match &r[2] {
                    Value::Null => None,
                    v => Some(v.render()),
                },
            }
        })
    }

    /// Number of provisioned subscribers.
    pub(crate) fn subscriber_count(&self) -> usize {
        self.db.table("subscriber").map(|t| t.len()).unwrap_or(0)
    }
}

/// A Visitor Location Register: a cache of HLR snapshots for roamers in
/// its service area.
#[derive(Debug)]
pub struct Vlr {
    /// The VLR's network node.
    pub node: NodeId,
    /// The VLR's label (used as its identity in HLR records).
    pub label: String,
    cache: HashMap<String, VlrRecord>,
    /// LRU order: front = coldest.
    lru: Vec<String>,
    /// Maximum cached visitors (`None` = unbounded). Real VLRs size
    /// their visitor databases for the service area, not the carrier's
    /// whole subscriber base.
    pub capacity: Option<usize>,
    /// Cache hits served locally.
    pub hits: u64,
    /// Misses that required an HLR round trip.
    pub misses: u64,
}

impl Vlr {
    /// Creates an unbounded VLR.
    pub(crate) fn new(node: NodeId, label: impl Into<String>) -> Self {
        Vlr {
            node,
            label: label.into(),
            cache: HashMap::new(),
            lru: Vec::new(),
            capacity: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Installs a snapshot (location update or HLR refresh), evicting
    /// the least-recently-used visitor when over capacity.
    pub(crate) fn install(&mut self, record: VlrRecord) {
        let key = record.msisdn.clone();
        self.lru.retain(|k| k != &key);
        self.lru.push(key.clone());
        self.cache.insert(key, record);
        if let Some(cap) = self.capacity {
            while self.cache.len() > cap {
                let coldest = self.lru.remove(0);
                self.cache.remove(&coldest);
            }
        }
    }

    /// Cancels a subscriber's record (HLR-initiated after a move).
    pub(crate) fn cancel(&mut self, msisdn: &str) -> bool {
        self.lru.retain(|k| k != msisdn);
        self.cache.remove(msisdn).is_some()
    }

    /// Looks up a visiting subscriber, counting hit/miss.
    pub fn lookup(&mut self, msisdn: &str) -> Option<VlrRecord> {
        match self.cache.get(msisdn) {
            Some(r) => {
                self.hits += 1;
                let r = r.clone();
                self.lru.retain(|k| k != msisdn);
                self.lru.push(msisdn.to_string());
                Some(r)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Number of cached visitors.
    pub(crate) fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when no visitors are cached.
    pub(crate) fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// A wireless carrier: one HLR, several VLR/MSC pairs, and the
/// protocols between them, with every message metered on the network.
#[derive(Debug)]
pub struct Carrier {
    /// Carrier name, e.g. `sprintpcs`.
    pub name: String,
    /// The home location register.
    pub hlr: Hlr,
    /// VLR per service area, paired with its MSC node.
    pub areas: Vec<(Vlr, NodeId)>,
    /// Where each subscriber's device currently attaches (area index).
    pub attachment: HashMap<String, usize>,
}

impl Carrier {
    /// Builds a carrier with `n_areas` VLR/MSC pairs.
    pub fn build(net: &mut Network, name: &str, n_areas: usize) -> Self {
        let hlr_node = net.add_node(format!("hlr.{name}.com"), Domain::Wireless);
        let mut areas = Vec::new();
        for i in 0..n_areas {
            let vlr_node = net.add_node(format!("vlr{i}.{name}.com"), Domain::Wireless);
            let msc_node = net.add_node(format!("msc{i}.{name}.com"), Domain::Wireless);
            areas.push((Vlr::new(vlr_node, format!("vlr{i}.{name}.com")), msc_node));
        }
        Carrier { name: name.to_string(), hlr: Hlr::new(hlr_node), areas, attachment: HashMap::new() }
    }

    /// Provisions a subscriber and attaches them to area 0.
    pub fn provision(&mut self, net: &Network, msisdn: &str, name: &str, prepaid: bool) -> SimTime {
        self.hlr.provision(msisdn, name, prepaid);
        self.location_update(net, msisdn, 0)
    }

    /// The location-update protocol of §3.1.2: device → new VLR → HLR
    /// (update) → old VLR (cancel), plus the snapshot download to the
    /// new VLR.
    pub fn location_update(&mut self, net: &Network, msisdn: &str, to_area: usize) -> SimTime {
        let vlr_label = self.areas[to_area].0.label.clone();
        let vlr_node = self.areas[to_area].0.node;
        let msc_label = net.node(self.areas[to_area].1).label.clone();
        let mut t = SimTime::ZERO;
        // VLR → HLR: location update request; response carries snapshot.
        t += net.rpc(vlr_node, self.hlr.node, 128, 512);
        let old = self.hlr.location_update(msisdn, &vlr_label, &msc_label);
        let snapshot = self.hlr.subscriber(msisdn);
        if let Some(rec) = snapshot {
            self.areas[to_area].0.install(rec);
        }
        // HLR → old VLR: cancel location.
        if let Some(old_label) = old {
            if let Some((old_vlr, _)) =
                self.areas.iter_mut().find(|(v, _)| v.label == old_label)
            {
                t += net.send(self.hlr.node, old_vlr.node, 96);
                old_vlr.cancel(msisdn);
            }
        }
        self.attachment.insert(msisdn.to_string(), to_area);
        t
    }

    /// Call delivery (§3.1.2): the originating MSC interrogates the HLR
    /// for routing, then signals the serving MSC; the serving MSC checks
    /// its VLR for the subscriber snapshot (hit = local, miss = an extra
    /// HLR restore). Returns the setup latency and the serving MSC node.
    pub fn call_delivery(
        &mut self,
        net: &Network,
        originating_msc: NodeId,
        msisdn: &str,
    ) -> Option<(SimTime, NodeId)> {
        let mut t = SimTime::ZERO;
        // Originating MSC → HLR interrogation.
        t += net.rpc(originating_msc, self.hlr.node, 128, 128);
        let (vlr_label, _msc_label) = self.hlr.lookup_routing(msisdn)?;
        let area_idx = self.areas.iter().position(|(v, _)| v.label == vlr_label)?;
        let serving_msc = self.areas[area_idx].1;
        let vlr_node = self.areas[area_idx].0.node;
        // Originating MSC → serving MSC signaling.
        t += net.send(originating_msc, serving_msc, 128);
        // Serving MSC → its VLR for the subscriber record.
        t += net.rpc(serving_msc, vlr_node, 64, 256);
        if self.areas[area_idx].0.lookup(msisdn).is_none() {
            // Miss: restore the snapshot from the HLR.
            t += net.rpc(vlr_node, self.hlr.node, 96, 512);
            if let Some(rec) = self.hlr.subscriber(msisdn) {
                self.areas[area_idx].0.install(rec);
            }
        }
        Some((t, serving_msc))
    }

    /// Bounds every VLR's visitor database.
    pub fn set_vlr_capacity(&mut self, capacity: usize) {
        for (vlr, _) in &mut self.areas {
            vlr.capacity = Some(capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Network, Carrier) {
        let mut net = Network::new(11);
        let carrier = Carrier::build(&mut net, "sprintpcs", 3);
        (net, carrier)
    }

    #[test]
    fn provision_attaches_to_area_zero() {
        let (net, mut c) = setup();
        c.provision(&net, "908-555-0199", "Alice", false);
        assert_eq!(c.attachment.get("908-555-0199"), Some(&0));
        assert_eq!(c.hlr.subscriber_count(), 1);
        assert_eq!(c.areas[0].0.len(), 1);
    }

    #[test]
    fn location_update_moves_snapshot_and_cancels() {
        let (net, mut c) = setup();
        c.provision(&net, "908-555-0199", "Alice", false);
        let t = c.location_update(&net, "908-555-0199", 2);
        assert!(t > SimTime::ZERO);
        assert_eq!(c.attachment.get("908-555-0199"), Some(&2));
        assert!(c.areas[0].0.is_empty(), "old VLR must be cancelled");
        assert_eq!(c.areas[2].0.len(), 1);
        // HLR now routes to area 2.
        let (vlr, msc) = c.hlr.lookup_routing("908-555-0199").unwrap();
        assert_eq!(vlr, "vlr2.sprintpcs.com");
        assert_eq!(msc, "msc2.sprintpcs.com");
    }

    #[test]
    fn call_delivery_routes_to_serving_msc() {
        let (net, mut c) = setup();
        c.provision(&net, "908-555-0199", "Alice", false);
        c.location_update(&net, "908-555-0199", 1);
        let originating = c.areas[0].1;
        let (t, serving) = c.call_delivery(&net, originating, "908-555-0199").unwrap();
        assert_eq!(serving, c.areas[1].1);
        // Call setup should be within "hundreds of milliseconds" (Req. 13)
        // — in fact SS7-fast.
        assert!(t < SimTime::millis(100), "{t}");
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn call_to_unknown_number_fails() {
        let (net, mut c) = setup();
        let originating = c.areas[0].1;
        assert!(c.call_delivery(&net, originating, "000").is_none());
    }

    #[test]
    fn vlr_hit_avoids_hlr_restore() {
        let (net, mut c) = setup();
        c.provision(&net, "908-555-0199", "Alice", false);
        let originating = c.areas[1].1;
        // First call: snapshot installed at provision time → hit.
        c.call_delivery(&net, originating, "908-555-0199").unwrap();
        assert_eq!(c.areas[0].0.hits, 1);
        let lookups_before = c.hlr.lookups;
        c.call_delivery(&net, originating, "908-555-0199").unwrap();
        // Only the routing interrogation, no snapshot restore.
        assert_eq!(c.hlr.lookups, lookups_before + 1);
    }

    #[test]
    fn vlr_miss_restores_from_hlr() {
        let (net, mut c) = setup();
        c.provision(&net, "908-555-0199", "Alice", false);
        // Drop the snapshot to force a miss.
        c.areas[0].0.cancel("908-555-0199");
        let originating = c.areas[1].1;
        c.call_delivery(&net, originating, "908-555-0199").unwrap();
        assert_eq!(c.areas[0].0.misses, 1);
        assert_eq!(c.areas[0].0.len(), 1, "snapshot restored");
    }
}
