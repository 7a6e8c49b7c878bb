//! Randomized invariant tests local to the store crate: adapter
//! view/query consistency, relational index coherence, and update/event
//! laws. Deterministic — see `gupster_rng::check`.

use gupster_oracle::select;
use gupster_rng::check::{self, cases};
use gupster_rng::{Rng, StdRng};
use gupster_store::relational::{Table, Value};
use gupster_store::{DataStore, LdapAdapter, RelationalAdapter, StoreId, UpdateOp, XmlStore};
use gupster_xml::Element;
use gupster_xpath::Path;
use support::adapter_views::{check_answers, Answered};

mod support {
    pub mod adapter_views;
}

fn name(rng: &mut StdRng) -> String {
    let letters: Vec<char> = ('A'..='Z').chain('a'..='z').collect();
    check::string_of(rng, &letters, 1, 8)
}

fn phone(rng: &mut StdRng) -> String {
    let digits: Vec<char> = ('0'..='9').collect();
    format!("{}-{}", check::string_of(rng, &digits, 3, 3), check::string_of(rng, &digits, 4, 4))
}

fn contacts(rng: &mut StdRng) -> Vec<(String, String)> {
    check::vec_of(rng, 0, 7, |r| (name(r), phone(r)))
}

/// Querying through the relational adapter equals selecting over its
/// own virtual view — the adapter adds no phantom data.
#[test]
fn relational_adapter_query_matches_view() {
    cases(128, 0x57_01, |rng| {
        let cs = contacts(rng);
        let mut a = RelationalAdapter::new("gup.spcs.com");
        a.add_subscriber("alice", "Alice", "908-555-0199");
        for (name, phone) in &cs {
            a.add_contact("alice", "personal", name, phone);
        }
        let view = a.gup_view("alice").unwrap();
        for expr in [
            "/user[@id='alice']/address-book/item",
            "/user[@id='alice']/presence",
            "/user[@id='alice']/devices/device/number",
        ] {
            let path = Path::parse(expr).unwrap();
            let through: Vec<String> =
                a.query(&path).unwrap().iter().map(Element::to_xml).collect();
            let direct: Vec<String> = select(&path, &view).iter().map(|e| e.to_xml()).collect();
            assert_eq!(through, direct, "{expr}");
        }
        assert_eq!(
            a.query(&Path::parse("/user[@id='alice']/address-book/item").unwrap())
                .unwrap()
                .len(),
            cs.len()
        );
    });
}

/// The relational adapter answers every query byte for byte as the
/// oracle's selection over its views does.
#[test]
fn relational_adapter_answers_match_the_oracle_over_its_views() {
    let mut answered = Answered::default();
    cases(128, 0x57_05, |rng| {
        let mut a = RelationalAdapter::new("gup.spcs.com");
        a.add_subscriber("alice", "Alice", "908-555-0199");
        a.add_subscriber("bob", "Bob", "908-555-0200");
        let mut names = vec!["Alice".to_string()];
        for (name, phone) in contacts(rng) {
            let owner = *rng.pick(&["alice", "bob"]);
            let kind = *rng.pick(&["personal", "corporate"]);
            a.add_contact(owner, kind, &name, &phone);
            names.push(name);
        }
        let query = |p: &Path| a.query(p).unwrap();
        check_answers(rng, &names, &a.users(), |u| a.gup_view(u), query, &mut answered);
    });
    let [unnamed, named, attribute] = answered;
    assert!(unnamed > 100 && named > 100 && attribute > 25, "{answered:?}");
}

/// The LDAP adapter round-trips contacts added through the GUP
/// update interface.
#[test]
fn ldap_adapter_insert_then_query() {
    cases(128, 0x57_02, |rng| {
        let cs = contacts(rng);
        let mut a = LdapAdapter::new("gup.lucent.com", "lucent");
        a.add_user("alice", "Alice", "Smith").unwrap();
        for (name, phone) in &cs {
            let item = Element::new("item")
                .with_attr("type", "corporate")
                .with_child(Element::new("name").with_text(name.clone()))
                .with_child(Element::new("phone").with_text(phone.clone()));
            a.update(
                "alice",
                &UpdateOp::InsertChild(Path::parse("/user/address-book").unwrap(), item),
            )
            .unwrap();
        }
        let items =
            a.query(&Path::parse("/user[@id='alice']/address-book/item").unwrap()).unwrap();
        assert_eq!(items.len(), cs.len());
        for (name, phone) in &cs {
            let q = Path::parse(&format!("/user/address-book/item[name='{name}']/phone"))
                .unwrap();
            let phones = a.query(&q).unwrap();
            assert!(
                phones.iter().any(|p| p.text() == *phone),
                "contact {name} lost its phone"
            );
        }
    });
}

/// Secondary-index lookups agree with full scans after arbitrary
/// upsert/delete interleavings.
#[test]
fn relational_index_coherent() {
    cases(256, 0x57_03, |rng| {
        let ops = check::vec_of(rng, 0, 29, |r| {
            (r.gen_range(0i64..20), check::lowercase(r, 1, 1), r.gen_bool(0.5))
        });
        let mut indexed = Table::new(&["id", "city"]);
        indexed.index_on("city");
        let mut plain = Table::new(&["id", "city"]);
        for (id, city, del) in &ops {
            // Clamp the city alphabet to a-c so lookups below hit.
            let city = match city.as_str() {
                s if s <= "i" => "a",
                s if s <= "r" => "b",
                _ => "c",
            };
            if *del {
                indexed.delete(&Value::Int(*id));
                plain.delete(&Value::Int(*id));
            } else {
                indexed.upsert(vec![Value::Int(*id), Value::text(city)]).unwrap();
                plain.upsert(vec![Value::Int(*id), Value::text(city)]).unwrap();
            }
        }
        for city in ["a", "b", "c"] {
            let via_index: Vec<_> = indexed.lookup("city", &Value::text(city));
            let via_scan: Vec<_> = plain.lookup("city", &Value::text(city));
            let mut ix: Vec<String> = via_index.iter().map(|r| r[0].render()).collect();
            let mut sc: Vec<String> = via_scan.iter().map(|r| r[0].render()).collect();
            ix.sort();
            sc.sort();
            assert_eq!(ix, sc, "city={city}");
        }
    });
}

/// Every successful XmlStore update emits exactly one event carrying
/// the op's path, and failed updates emit none.
#[test]
fn xmlstore_event_per_update() {
    cases(256, 0x57_04, |rng| {
        let texts = check::vec_of(rng, 1, 5, |r| check::lowercase(r, 1, 6));
        let mut s = XmlStore::new("t");
        s.put_profile(
            Element::new("user")
                .with_attr("id", "u")
                .with_child(Element::new("presence").with_text("init")),
        )
        .unwrap();
        s.drain_events();
        let path = Path::parse("/user/presence").unwrap();
        for t in &texts {
            s.update("u", &UpdateOp::SetText(path.clone(), t.clone())).unwrap();
        }
        let bad =
            s.update("u", &UpdateOp::SetText(Path::parse("/user/ghost").unwrap(), "x".into()));
        assert!(bad.is_err());
        let events = s.drain_events();
        assert_eq!(events.len(), texts.len());
        assert!(events.iter().all(|e| e.path == path && e.user == "u"));
        // Generations strictly increase.
        for w in events.windows(2) {
            assert!(w[0].generation < w[1].generation);
        }
        assert_eq!(s.id(), &StoreId::new("t"));
    });
}
