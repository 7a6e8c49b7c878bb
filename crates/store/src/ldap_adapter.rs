//! GUP-enabling an LDAP directory (§6: "we plan to leverage the
//! LDAP/DEN schemas … and to provide tools to wrap LDAP sites").
//!
//! The adapter maps `inetOrgPerson` entries under
//! `ou=contacts,uid=<user>,ou=profiles,o=<org>` to GUP `address-book`
//! items, and the user's own entry to the `identity` component. Reads
//! are virtual views; writes translate to directory modifications.

use gupster_directory::{Directory, Dn, Entry, Filter, Scope};
use gupster_xml::Element;
use gupster_xpath::{Path, Predicate};

use crate::error::StoreError;
use crate::store_trait::{Capabilities, ChangeEvent, DataStore, Fragment, StoreId, UpdateOp};

/// A GUP adapter over an LDAP [`Directory`].
#[derive(Debug, Clone)]
pub struct LdapAdapter {
    id: StoreId,
    dir: Directory,
    base: Dn,
    generation: u64,
    events: Vec<ChangeEvent>,
    next_item: u32,
}

impl LdapAdapter {
    /// Creates an adapter with base `ou=profiles,o=<org>`.
    pub fn new(id: impl Into<String>, org: &str) -> Self {
        let mut dir = Directory::new();
        let o = Dn::parse(&format!("o={org}")).expect("static");
        dir.add(Entry::new(o.clone(), &["organization"]).with("o", org)).expect("fresh");
        let base = o.child("ou", "profiles");
        dir.add(Entry::new(base.clone(), &["organizationalUnit"]).with("ou", "profiles"))
            .expect("fresh");
        LdapAdapter {
            id: StoreId::new(id),
            dir,
            base,
            generation: 0,
            events: Vec::new(),
            next_item: 1,
        }
    }

    fn user_dn(&self, user: &str) -> Dn {
        self.base.child("uid", user)
    }

    fn contacts_dn(&self, user: &str) -> Dn {
        self.user_dn(user).child("ou", "contacts")
    }

    /// Provisions a user entry (with identity data) and their contacts
    /// container.
    pub fn add_user(&mut self, user: &str, cn: &str, sn: &str) -> Result<(), StoreError> {
        self.dir
            .add(
                Entry::new(self.user_dn(user), &["inetOrgPerson"])
                    .with("uid", user)
                    .with("cn", cn)
                    .with("sn", sn),
            )
            .map_err(|e| StoreError::Backend(e.to_string()))?;
        self.dir
            .add(Entry::new(self.contacts_dn(user), &["organizationalUnit"]).with("ou", "contacts"))
            .map_err(|e| StoreError::Backend(e.to_string()))?;
        self.generation += 1;
        Ok(())
    }

    /// Adds a contact entry for a user.
    pub fn add_contact(
        &mut self,
        user: &str,
        kind: &str,
        name: &str,
        phone: &str,
    ) -> Result<String, StoreError> {
        let id = format!("c{}", self.next_item);
        self.next_item += 1;
        let dn = self.contacts_dn(user).child("cn", &id);
        self.dir
            .add(
                Entry::new(dn, &["inetOrgPerson"])
                    .with("cn", id.clone())
                    .with("sn", name)
                    .with("telephoneNumber", phone)
                    .with("description", kind),
            )
            .map_err(|e| StoreError::Backend(e.to_string()))?;
        self.generation += 1;
        Ok(id)
    }

    /// Builds the virtual GUP view of one user.
    pub(crate) fn gup_view(&self, user: &str) -> Option<Element> {
        let entry = self.dir.get(&self.user_dn(user)).ok()?;
        let mut doc = Element::new("user").with_attr("id", user);
        let mut identity = Element::new("identity");
        if let Some(cn) = entry.first("cn") {
            identity.push_child(Element::new("name").with_text(cn));
        }
        for mail in entry.get("mail") {
            identity.push_child(Element::new("email").with_text(mail.clone()));
        }
        doc.push_child(identity);
        let mut book = Element::new("address-book");
        let hits = self.dir.search(
            &self.contacts_dn(user),
            Scope::OneLevel,
            &Filter::Present("cn".into()),
        );
        for e in &hits {
            book.push_child(
                Element::new("item")
                    .with_attr("id", e.first("cn").unwrap_or_default_str())
                    .with_attr("type", e.first("description").unwrap_or("personal"))
                    .with_child(
                        Element::new("name").with_text(e.first("sn").unwrap_or_default_str()),
                    )
                    .with_child(
                        Element::new("phone")
                            .with_text(e.first("telephoneNumber").unwrap_or_default_str()),
                    ),
            );
        }
        doc.push_child(book);
        Some(doc)
    }

    fn path_user(path: &Path) -> Option<String> {
        path.steps.first().and_then(|s| {
            s.predicates.iter().find_map(|p| match p {
                Predicate::AttrEq(a, v) if a == "id" => Some(v.clone()),
                _ => None,
            })
        })
    }
}

trait OrDefaultStr<'a> {
    fn unwrap_or_default_str(self) -> &'a str;
}

impl<'a> OrDefaultStr<'a> for Option<&'a str> {
    fn unwrap_or_default_str(self) -> &'a str {
        self.unwrap_or("")
    }
}

impl DataStore for LdapAdapter {
    fn id(&self) -> &StoreId {
        &self.id
    }

    fn fragments<'a>(&'a self, path: &Path, out: &mut Vec<Fragment<'a>>) -> Result<(), StoreError> {
        let users = match Self::path_user(path) {
            Some(u) => vec![u],
            None => self.users(),
        };
        for u in users {
            if let Some(view) = self.gup_view(&u) {
                Fragment::select_built(path, &view, out);
            }
        }
        Ok(())
    }

    fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError> {
        let names: Vec<&str> = op
            .path()
            .steps
            .iter()
            .filter_map(|s| match &s.test {
                gupster_xpath::NameTest::Name(n) => Some(n.as_ref()),
                gupster_xpath::NameTest::Any => None,
            })
            .collect();
        match (op, names.as_slice()) {
            (UpdateOp::InsertChild(_, item), ["user", "address-book"]) => {
                let kind = item.attr("type").unwrap_or("personal").to_string();
                let name = item.child("name").map(|n| n.text()).unwrap_or_default();
                let phone = item.child("phone").map(|n| n.text()).unwrap_or_default();
                self.add_contact(user, &kind, &name, &phone)?;
            }
            (UpdateOp::Delete(p), ["user", "address-book", "item"]) => {
                let id = p
                    .steps
                    .last()
                    .and_then(|s| {
                        s.predicates.iter().find_map(|pr| match pr {
                            Predicate::AttrEq(a, v) if a == "id" => Some(v.clone()),
                            _ => None,
                        })
                    })
                    .ok_or_else(|| {
                        StoreError::Untranslatable("delete needs an item id".into())
                    })?;
                let dn = self.contacts_dn(user).child("cn", &id);
                self.dir.delete(&dn).map_err(|e| StoreError::Backend(e.to_string()))?;
            }
            (UpdateOp::SetText(p, text), ["user", "address-book", "item", "phone"]) => {
                // Update a contact's phone number.
                let id = p.steps[2]
                    .predicates
                    .iter()
                    .find_map(|pr| match pr {
                        Predicate::AttrEq(a, v) if a == "id" => Some(v.clone()),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        StoreError::Untranslatable("phone update needs an item id".into())
                    })?;
                let dn = self.contacts_dn(user).child("cn", &id);
                self.dir
                    .modify(&dn, |e| e.replace("telephoneNumber", vec![text.clone()]))
                    .map_err(|e| StoreError::Backend(e.to_string()))?;
            }
            _ => {
                return Err(StoreError::Untranslatable(format!(
                    "no LDAP translation for {op:?}"
                )))
            }
        }
        self.generation += 1;
        self.events.push(ChangeEvent {
            user: user.to_string(),
            path: op.path().clone(),
            generation: self.generation,
        });
        Ok(())
    }

    fn users(&self) -> Vec<String> {
        self.dir
            .search(&self.base, Scope::OneLevel, &Filter::Present("uid".into()))
            .iter()
            .filter_map(|e| e.first("uid").map(str::to_string))
            .collect()
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { can_update: true, can_subscribe: true, can_chain: false }
    }

    fn drain_events(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn adapter() -> LdapAdapter {
        let mut a = LdapAdapter::new("gup.lucent.com", "lucent");
        a.add_user("arnaud", "Arnaud Sahuguet", "Sahuguet").unwrap();
        a.add_contact("arnaud", "corporate", "Rick Hull", "908-582-4393").unwrap();
        a.add_contact("arnaud", "corporate", "Dan Lieuwen", "908-582-5555").unwrap();
        a
    }

    #[test]
    fn gup_view_from_ldap_entries() {
        let a = adapter();
        let v = a.gup_view("arnaud").unwrap();
        assert_eq!(v.child("identity").unwrap().child("name").unwrap().text(), "Arnaud Sahuguet");
        assert_eq!(v.child("address-book").unwrap().children_named("item").count(), 2);
    }

    #[test]
    fn query_selects_in_view() {
        let a = adapter();
        let r = a.query(&p("/user[@id='arnaud']/address-book/item[name='Rick Hull']/phone"))
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].text(), "908-582-4393");
    }

    #[test]
    fn insert_contact_via_gup_update() {
        let mut a = adapter();
        let item = Element::new("item")
            .with_attr("type", "corporate")
            .with_child(Element::new("name").with_text("Ming Xiong"))
            .with_child(Element::new("phone").with_text("908-582-7777"));
        a.update("arnaud", &UpdateOp::InsertChild(p("/user/address-book"), item)).unwrap();
        assert_eq!(
            a.query(&p("/user[@id='arnaud']/address-book/item")).unwrap().len(),
            3
        );
    }

    #[test]
    fn delete_contact_via_gup_update() {
        let mut a = adapter();
        a.update("arnaud", &UpdateOp::Delete(p("/user/address-book/item[@id='c1']"))).unwrap();
        assert_eq!(
            a.query(&p("/user[@id='arnaud']/address-book/item")).unwrap().len(),
            1
        );
    }

    #[test]
    fn phone_update_via_gup_path() {
        let mut a = adapter();
        a.update(
            "arnaud",
            &UpdateOp::SetText(
                p("/user/address-book/item[@id='c1']/phone"),
                "908-582-0000".into(),
            ),
        )
        .unwrap();
        let r = a.query(&p("/user[@id='arnaud']/address-book/item[@id='c1']/phone")).unwrap();
        assert_eq!(r[0].text(), "908-582-0000");
    }

    #[test]
    fn untranslatable_update_rejected() {
        let mut a = adapter();
        let err = a.update("arnaud", &UpdateOp::SetText(p("/user/presence"), "x".into()));
        assert!(matches!(err, Err(StoreError::Untranslatable(_))));
    }

    #[test]
    fn users_listed() {
        let a = adapter();
        assert_eq!(a.users(), vec!["arnaud"]);
    }
}
