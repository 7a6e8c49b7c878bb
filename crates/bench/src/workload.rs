//! Workload generation: federations of users, stores and coverage, plus
//! access-skew samplers.

use gupster_rng::{Rng, SeedableRng, StdRng};

use gupster_core::{Gupster, StorePool};
use gupster_schema::{gup_schema, ProfileBuilder};
use gupster_store::{DataStore, StoreId, XmlStore};
use gupster_xml::Element;
use gupster_xpath::Path;

/// A ready-to-query federation: a GUPster server, live stores and the
/// user population.
pub struct Federation {
    /// The meta-data server.
    pub gupster: Gupster,
    /// The data stores.
    pub pool: StorePool,
    /// All user ids.
    pub users: Vec<String>,
    /// The portal store ids.
    pub portals: Vec<StoreId>,
    /// The carrier store id.
    pub carrier: StoreId,
}

/// User id for index `i`.
pub fn user_id(i: usize) -> String {
    format!("user{i:07}")
}

/// Builds a profile document for a user with `contacts` address-book
/// entries.
pub fn profile_with_contacts(user: &str, contacts: usize) -> Element {
    let mut b = ProfileBuilder::new(user)
        .identity(&format!("User {user}"), &format!("{user}@example.com"))
        .presence("online")
        .device("d1", "phone", "cell", Some("908-555-0100"));
    for c in 0..contacts {
        let kind = if c % 3 == 0 { "corporate" } else { "personal" };
        b = b.contact(kind, &format!("Contact {c}"), &format!("908-555-{c:04}"));
    }
    b.build()
}

/// Builds a federation of `n_users` users spread over `n_portals`
/// portal stores plus one wireless-carrier store. Every user's
/// address-book/identity/calendar live at their portal; presence and
/// devices live at the carrier. Coverage is registered accordingly.
pub fn build_federation(n_users: usize, n_portals: usize, contacts_per_user: usize) -> Federation {
    let mut gupster = Gupster::new(gup_schema(), b"bench-key");
    let mut portals: Vec<XmlStore> = (0..n_portals.max(1))
        .map(|i| XmlStore::new(format!("gup.portal{i}.com")))
        .collect();
    let mut carrier = XmlStore::new("gup.carrier.com");
    let mut users = Vec::with_capacity(n_users);

    for i in 0..n_users {
        let user = user_id(i);
        let portal_idx = i % portals.len();
        let doc = profile_with_contacts(&user, contacts_per_user);

        // Split the document: book+identity at the portal, presence+
        // devices at the carrier.
        let mut portal_doc = Element::new("user").with_attr("id", user.clone());
        let mut carrier_doc = Element::new("user").with_attr("id", user.clone());
        for child in doc.child_elements() {
            match &*child.name {
                "presence" | "devices" => carrier_doc.push_child(child.clone()),
                _ => portal_doc.push_child(child.clone()),
            }
        }
        portals[portal_idx].put_profile(portal_doc).expect("has id");
        carrier.put_profile(carrier_doc).expect("has id");

        let pid = StoreId::new(format!("gup.portal{portal_idx}.com"));
        let cid = StoreId::new("gup.carrier.com");
        for (path, store) in [
            (format!("/user[@id='{user}']/address-book"), pid.clone()),
            (format!("/user[@id='{user}']/identity"), pid.clone()),
            (format!("/user[@id='{user}']/presence"), cid.clone()),
            (format!("/user[@id='{user}']/devices"), cid),
        ] {
            gupster
                .register_component(&user, Path::parse(&path).expect("static"), store)
                .expect("schema-valid");
        }
        users.push(user);
    }

    for p in &mut portals {
        p.drain_events();
    }
    carrier.drain_events();

    let portal_ids: Vec<StoreId> =
        (0..portals.len()).map(|i| StoreId::new(format!("gup.portal{i}.com"))).collect();
    let mut pool = StorePool::new();
    for p in portals {
        pool.add(Box::new(p));
    }
    let carrier_id = StoreId::new("gup.carrier.com");
    pool.add(Box::new(carrier));

    Federation { gupster, pool, users, portals: portal_ids, carrier: carrier_id }
}

/// A Zipf-distributed sampler over `0..n` with skew `theta`
/// (theta → 0 is uniform; 0.99 is the YCSB default hot-spot skew).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0);
        let mut weights: Vec<f64> = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    /// Samples an index in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// A seeded RNG for reproducible experiments.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a social-graph-shaped watcher assignment: `n_subs`
/// subscriptions land on `n_owners` owners with Zipf-skewed popularity
/// (`theta` ≈ 1 gives hub users watched by a large share of the
/// population, per the social-overlay stress shape motivating E21).
/// Returns the owner index of each subscription.
pub fn social_watchers(n_owners: usize, n_subs: usize, theta: f64, r: &mut StdRng) -> Vec<usize> {
    let zipf = Zipf::new(n_owners, theta);
    (0..n_subs).map(|_| zipf.sample(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupster_policy::{Purpose, WeekTime};

    #[test]
    fn federation_answers_lookups() {
        let mut f = build_federation(10, 2, 5);
        assert_eq!(f.users.len(), 10);
        let u = f.users[3].clone();
        let req = Path::parse(&format!("/user[@id='{u}']/address-book")).unwrap();
        let out = f
            .gupster
            .lookup(&u, &req, &u, Purpose::Query, WeekTime::at(0, 12, 0), 0)
            .unwrap();
        assert_eq!(out.referral.entries.len(), 1);
        let store = f.pool.get(&out.referral.entries[0].store).unwrap();
        let frags = store.query(&out.referral.entries[0].path).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].children_named("item").count(), 5);
    }

    #[test]
    fn presence_lives_at_carrier() {
        let mut f = build_federation(4, 2, 1);
        let u = f.users[0].clone();
        let req = Path::parse(&format!("/user[@id='{u}']/presence")).unwrap();
        let out = f
            .gupster
            .lookup(&u, &req, &u, Purpose::Query, WeekTime::at(0, 12, 0), 0)
            .unwrap();
        assert_eq!(*out.referral.entries[0].store, f.carrier);
    }

    #[test]
    fn zipf_skews_toward_head() {
        let z = Zipf::new(1000, 0.99);
        let mut r = rng(7);
        let mut head = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if z.sample(&mut r) < 100 {
                head += 1;
            }
        }
        // With theta=0.99 the top 10% draws well over half the accesses.
        assert!(head > N / 2, "{head}");
        // Uniform-ish check.
        let z0 = Zipf::new(1000, 0.0);
        let mut head0 = 0;
        for _ in 0..N {
            if z0.sample(&mut r) < 100 {
                head0 += 1;
            }
        }
        assert!(head0 < N / 5, "{head0}");
    }
}
