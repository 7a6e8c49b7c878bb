//! Fleet construction: stores, registry shards, policies, and — for
//! workloads that write — replica stars and push subscriptions.
//!
//! Everything here goes through the public API a deployment would use
//! (`put_profile`, `register_component`, `set_relationship`,
//! `pap.provision`, `SyncPlane::add_user`, `ShardedFanout::subscribe`).
//! The time this takes is the benchmark's `setup_s`.

use std::sync::Arc;

use gupster_core::{ShardedFanout, ShardedRegistry, StorePool, SyncPlane};
use gupster_policy::{Effect, WeekTime};
use gupster_schema::gup_schema;
use gupster_store::{StoreId, XmlStore};
use gupster_sync::ReconcilePolicy;
use gupster_telemetry::TelemetryHub;
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::gen::{friend_of, stranger_of, user_id, FRIENDS};
use crate::spec::{Spec, WriteSpec};

/// The shield context time of every request: Tuesday 10:00, inside the
/// `family-hours` rule's window so that rule's condition is evaluated
/// on its relationship, not short-circuited on the clock.
pub fn request_time() -> WeekTime {
    WeekTime::at(1, 10, 0)
}

const KEY: &[u8] = b"gupster-benchmark";

/// Disclosure-audit records each registry shard retains (the default
/// is 100 000). Once the ring is full every permitted lookup also drops
/// its oldest record, and on the sharded path that costs far more than
/// the push did — throughput of `hot_repeat` falls by some 40% at that
/// point. A resident server lives in that state, so the benchmark must
/// measure it; at the default size reaching it takes ~240k requests of
/// warm-up per run, at this size ~20k.
pub const AUDIT_RETENTION: usize = 8192;

/// The four shield rules every owner provisions. Two land in the
/// presence bucket and two in the address-book bucket of the PDP's rule
/// index. `watchers` lets anyone *subscribe* to the book while only
/// friends may *query* it — which is what makes a stranger's
/// subscription pass the subscribe-time check and then be suppressed at
/// every delivery.
const RULES: [(&str, &str, &str); 4] = [
    ("friends-presence", "/user/presence", "relationship='friend'"),
    ("family-hours", "/user/presence", "relationship='family' and time in Mon-Fri 09:00-18:00"),
    ("friends-book", "/user/address-book", "relationship='friend'"),
    ("watchers", "/user/address-book", "purpose='subscribe'"),
];

pub struct WriteSide {
    pub spec: WriteSpec,
    pub plane: SyncPlane,
    pub fanout: ShardedFanout,
    /// The sync plane's own hub (sessions trace into it).
    pub hub: Arc<TelemetryHub>,
}

pub struct Fleet {
    pub spec: Spec,
    pub reg: ShardedRegistry,
    pub pool: StorePool,
    pub keys: MergeKeys,
    pub write: Option<WriteSide>,
}

impl Fleet {
    /// True once every shard's audit ring is full (steady state: one
    /// record dropped per record kept).
    pub fn audit_rings_full(&self) -> bool {
        self.reg.shards().iter().all(|g| g.provenance.len() >= AUDIT_RETENTION)
    }
}

pub fn store_id(j: usize) -> StoreId {
    StoreId::new(format!("store{j}.net"))
}

/// Where user `i`'s three components live: presence, the personal book
/// slice (or the whole book), the corporate book slice.
pub fn store_of(i: usize, component: usize, stores: usize) -> usize {
    (i + component) % stores
}

fn item(id: String, kind: &str, name: String) -> Element {
    Element::new("item")
        .with_attr("id", id)
        .with_attr("type", kind)
        .with_child(Element::new("name").with_text(name))
}

/// The personal slice of user `i`'s address book — also the baseline
/// document of their replica star.
pub fn personal_book(spec: &Spec, i: usize) -> Element {
    let mut book = Element::new("address-book");
    for k in 0..spec.personal {
        book.push_child(item(format!("p{k:03}"), "personal", format!("Friend {k} of {i}")));
    }
    book
}

fn corporate_book(spec: &Spec, i: usize) -> Element {
    let mut book = Element::new("address-book");
    for k in 0..spec.corporate {
        book.push_child(item(format!("c{k:03}"), "corporate", format!("Desk {k} of {i}")));
    }
    book
}

fn path(s: &str) -> Path {
    Path::parse(s).unwrap_or_else(|e| panic!("fleet path {s:?} must parse: {e:?}"))
}

/// Builds the whole fleet at `shards` registry shards, with replica
/// stars and subscriptions for the first `write.writers` users.
pub fn build(spec: &Spec, shards: usize, write: Option<WriteSpec>) -> Fleet {
    let n = spec.users;
    assert!(spec.stores >= 2, "a split book needs two stores");
    let keys = MergeKeys::new().with_key("item", "id");

    // Stores: one document per (store, user) holding the components
    // assigned there.
    let mut stores: Vec<XmlStore> = (0..spec.stores).map(|j| XmlStore::new(store_id(j).0)).collect();
    for i in 0..n {
        let id = user_id(i);
        let mut docs: Vec<Option<Element>> = vec![None; spec.stores];
        let mut place = |component: usize, child: Element| {
            docs[store_of(i, component, spec.stores)]
                .get_or_insert_with(|| Element::new("user").with_attr("id", id.clone()))
                .push_child(child);
        };
        place(0, Element::new("presence").with_text(format!("online-{i}")));
        place(1, personal_book(spec, i));
        if spec.corporate > 0 {
            // Never the personal slice's store (`stores ≥ 2`), so the
            // two slices are always separate documents.
            place(2, corporate_book(spec, i));
        }
        for (s, doc) in docs.into_iter().enumerate() {
            if let Some(doc) = doc {
                stores[s].put_profile(doc).expect("profile root carries the user id");
            }
        }
    }
    let mut pool = StorePool::new();
    for mut s in stores {
        use gupster_store::DataStore;
        s.drain_events();
        pool.add(Box::new(s));
    }

    // Registry: three component registrations, four rules and the
    // friend ring per owner.
    let mut reg = ShardedRegistry::new(gup_schema(), KEY, shards);
    // A resident fleet cannot retain a span per request; histograms and
    // counters still see everything.
    reg.set_span_limit(0);
    if let Some(window) = spec.token_cache {
        reg.enable_token_cache();
        reg.set_token_freshness(window);
    }
    for i in 0..n {
        let id = user_id(i);
        let at = |c: usize| store_id(store_of(i, c, spec.stores));
        reg.register_component(&id, path(&format!("/user[@id='{id}']/presence")), at(0))
            .expect("schema admits presence");
        if spec.corporate > 0 {
            reg.register_component(
                &id,
                path(&format!("/user[@id='{id}']/address-book/item[@type='personal']")),
                at(1),
            )
            .expect("schema admits book items");
            reg.register_component(
                &id,
                path(&format!("/user[@id='{id}']/address-book/item[@type='corporate']")),
                at(2),
            )
            .expect("schema admits book items");
        } else {
            reg.register_component(&id, path(&format!("/user[@id='{id}']/address-book")), at(1))
                .expect("schema admits the book");
        }
        let shard = reg.shard_mut(&id);
        shard.provenance.retention = AUDIT_RETENTION;
        for k in 0..FRIENDS {
            shard.set_relationship(&id, &user_id(friend_of(i, k, n)), "friend");
        }
        for (rule, scope, condition) in RULES {
            shard
                .pap
                .provision(&id, rule, Effect::Permit, scope, condition, 0)
                .expect("benchmark rules are valid");
        }
    }

    let write = write.map(|w| {
        let hub = Arc::new(TelemetryHub::new());
        hub.set_span_limit(0);
        let mut plane = SyncPlane::new(shards, ReconcilePolicy::LastWriterWins);
        let mut fanout = ShardedFanout::new(shards);
        let scope = path("/user/address-book");
        for i in 0..w.writers {
            let id = user_id(i);
            plane.add_user(&id, personal_book(spec, i), keys.clone(), w.devices);
            let watchers = (0..FRIENDS).map(|k| friend_of(i, k, n)).chain(std::iter::once(stranger_of(i, n)));
            for watcher in watchers {
                fanout
                    .subscribe(reg.shard_mut(&id), &id, &scope, &user_id(watcher), request_time(), 0)
                    .expect("the watchers rule admits every subscriber");
            }
        }
        WriteSide { spec: w, plane, fanout, hub }
    });

    Fleet { spec: spec.clone(), reg, pool, keys, write }
}
