//! The standardized GUP profile schema (§4.4) and helpers to build
//! conforming profile documents.
//!
//! The paper sketches a `<MyProfile>` tree with groups `MySelf`,
//! `MyDevices`, `MyContacts`, `MyLocations`, `MyEvents`, `MyWallet` and
//! `MyApplications`, while its coverage examples (§4.3, Fig. 9) address
//! components directly under `/user[@id=…]` (`address-book`, `presence`).
//! We follow the *usage*: the root element is `user` with a required `id`
//! attribute, and each §4.4 group maps to one top-level component:
//!
//! | §4.4 group       | component element      |
//! |------------------|------------------------|
//! | `MySelf`         | `identity`             |
//! | `MyDevices`      | `devices`              |
//! | `MyContacts`     | `address-book`         |
//! | `MyLocations`    | `locations`            |
//! | `MyEvents`       | `calendar`             |
//! | `MyWallet`       | `wallet`               |
//! | `MyApplications` | `applications`         |
//!
//! plus `presence`, the dynamic component the selective reach-me service
//! of §2.2 aggregates.

use gupster_xml::Element;
use gupster_xpath::Path;

use crate::datatype::DataType;
use crate::model::ProfileComponent;
use crate::schema::{ContentModel, ElementDecl, Occurs, Schema};

/// Builds the standard GUP schema, version `gup-1.0`.
pub fn gup_schema() -> Schema {
    use ContentModel::Text as T;
    use DataType as D;
    Schema::new("user", "gup-1.0")
        .with(
            ElementDecl::new("user")
                .attr("id", D::Text, true)
                .child("identity", Occurs::OPTIONAL)
                .child("devices", Occurs::OPTIONAL)
                .child("address-book", Occurs::OPTIONAL)
                .child("presence", Occurs::OPTIONAL)
                .child("locations", Occurs::OPTIONAL)
                .child("calendar", Occurs::OPTIONAL)
                .child("wallet", Occurs::OPTIONAL)
                .child("applications", Occurs::OPTIONAL),
        )
        // MySelf.
        .with(
            ElementDecl::new("identity")
                .child("name", Occurs::ONE)
                .child("address", Occurs::MANY)
                .child("email", Occurs::MANY)
                .child("title", Occurs::OPTIONAL)
                .open(),
        )
        .with(ElementDecl::new("name").content(T(D::Text)))
        .with(ElementDecl::new("title").content(T(D::Text)))
        .with(
            ElementDecl::new("address")
                .attr("type", D::Text, false)
                .child("street", Occurs::OPTIONAL)
                .child("city", Occurs::OPTIONAL)
                .child("state", Occurs::OPTIONAL)
                .child("zip", Occurs::OPTIONAL)
                .child("country", Occurs::OPTIONAL),
        )
        .with(ElementDecl::new("street").content(T(D::Text)))
        .with(ElementDecl::new("city").content(T(D::Text)))
        .with(ElementDecl::new("state").content(T(D::Text)))
        .with(ElementDecl::new("zip").content(T(D::Text)))
        .with(ElementDecl::new("country").content(T(D::Text)))
        .with(ElementDecl::new("email").attr("type", D::Text, false).content(T(D::Email)))
        // MyDevices.
        .with(ElementDecl::new("devices").child("device", Occurs::MANY))
        .with(
            ElementDecl::new("device")
                .attr("id", D::Text, true)
                .attr("kind", D::Text, false)
                .child("name", Occurs::OPTIONAL)
                .child("number", Occurs::OPTIONAL)
                .child("forwarding", Occurs::OPTIONAL)
                .child("barred", Occurs::MANY)
                .child("caller-id", Occurs::OPTIONAL)
                .child("capabilities", Occurs::OPTIONAL),
        )
        .with(ElementDecl::new("number").content(T(D::PhoneNumber)))
        // PSTN line-service settings (§3.1.1: forwarding, barring,
        // caller-id live inside the switch; the PSTN adapter publishes
        // them here).
        .with(ElementDecl::new("forwarding").content(T(D::PhoneNumber)))
        .with(ElementDecl::new("barred").content(T(D::PhoneNumber)))
        .with(ElementDecl::new("caller-id").content(T(D::Boolean)))
        .with(ElementDecl::new("capabilities").child("capability", Occurs::MANY))
        .with(ElementDecl::new("capability").content(T(D::Text)))
        // MyContacts.
        .with(ElementDecl::new("address-book").child("item", Occurs::MANY))
        .with(
            ElementDecl::new("item")
                .attr("id", D::Text, true)
                .attr("type", D::Text, false)
                .child("name", Occurs::ONE)
                .child("phone", Occurs::MANY)
                .child("email", Occurs::MANY)
                .child("address", Occurs::OPTIONAL),
        )
        .with(ElementDecl::new("phone").attr("type", D::Text, false).content(T(D::PhoneNumber)))
        // Presence (dynamic).
        .with(ElementDecl::new("presence").attr("since", D::DateTime, false).content(T(D::Text)))
        // MyLocations.
        .with(ElementDecl::new("locations").child("location", Occurs::MANY))
        .with(
            ElementDecl::new("location")
                .attr("id", D::Text, true)
                .child("name", Occurs::ONE)
                .child("medium", Occurs::MANY),
        )
        .with(ElementDecl::new("medium").attr("kind", D::Text, false).content(T(D::Text)))
        // MyEvents.
        .with(ElementDecl::new("calendar").child("event", Occurs::MANY))
        .with(
            ElementDecl::new("event")
                .attr("id", D::Text, true)
                .child("subject", Occurs::ONE)
                .child("start", Occurs::ONE)
                .child("end", Occurs::OPTIONAL)
                .child("where", Occurs::OPTIONAL)
                .child("attendee", Occurs::MANY),
        )
        .with(ElementDecl::new("subject").content(T(D::Text)))
        .with(ElementDecl::new("start").content(T(D::DateTime)))
        .with(ElementDecl::new("end").content(T(D::DateTime)))
        .with(ElementDecl::new("where").content(T(D::Text)))
        .with(ElementDecl::new("attendee").content(T(D::Text)))
        // MyWallet.
        .with(
            ElementDecl::new("wallet")
                .child("banking-information", Occurs::OPTIONAL)
                .child("payment-card", Occurs::MANY),
        )
        .with(
            ElementDecl::new("banking-information")
                .child("bank", Occurs::OPTIONAL)
                .child("account", Occurs::OPTIONAL),
        )
        .with(ElementDecl::new("bank").content(T(D::Text)))
        .with(ElementDecl::new("account").content(T(D::Text)))
        .with(
            ElementDecl::new("payment-card")
                .attr("id", D::Text, true)
                .child("issuer", Occurs::OPTIONAL)
                .child("number", Occurs::OPTIONAL)
                .child("expires", Occurs::OPTIONAL),
        )
        .with(ElementDecl::new("issuer").content(T(D::Text)))
        .with(ElementDecl::new("expires").content(T(D::DateTime)))
        // MyApplications.
        .with(
            ElementDecl::new("applications")
                .child("Gaming", Occurs::OPTIONAL)
                .child("bookmarks", Occurs::OPTIONAL)
                .open(),
        )
        .with(ElementDecl::new("Gaming").child("game-score", Occurs::MANY))
        .with(
            ElementDecl::new("game-score")
                .attr("game", D::Text, true)
                .content(T(D::Integer)),
        )
        .with(ElementDecl::new("bookmarks").child("bookmark", Occurs::MANY))
        .with(
            ElementDecl::new("bookmark")
                .attr("id", D::Text, true)
                .child("name", Occurs::OPTIONAL)
                .child("url", Occurs::ONE),
        )
        .with(ElementDecl::new("url").content(T(D::Uri)))
}

/// The standard catalog of profile components (Fig. 6's "collection of
/// components"), with their schema paths.
pub fn standard_components() -> Vec<ProfileComponent> {
    let c = |id: &str, path: &str, desc: &str| {
        ProfileComponent::new(id, Path::parse(path).expect("static path"), desc)
    };
    vec![
        c("identity", "/user/identity", "name, addresses, email (MySelf)"),
        c("devices", "/user/devices", "owned devices and capabilities (MyDevices)"),
        c("address-book", "/user/address-book", "contact entries (MyContacts)"),
        c("presence", "/user/presence", "dynamic presence/availability"),
        c("locations", "/user/locations", "places where the user may be reached (MyLocations)"),
        c("calendar", "/user/calendar", "appointments (MyEvents)"),
        c("wallet", "/user/wallet", "banking information and payment cards (MyWallet)"),
        c("applications", "/user/applications", "application data (MyApplications)"),
        c("game-scores", "/user/applications/Gaming", "game scores (the Rick example of §4.3)"),
        c("bookmarks", "/user/applications/bookmarks", "web bookmarks (roaming-profile data)"),
    ]
}

/// Fluent builder for GUP profile documents that validate against
/// [`gup_schema`].
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    doc: Element,
    next_item: u32,
    next_event: u32,
}

impl ProfileBuilder {
    /// Starts a profile for the given user id.
    pub fn new(user_id: &str) -> Self {
        ProfileBuilder {
            doc: Element::new("user").with_attr("id", user_id),
            next_item: 1,
            next_event: 1,
        }
    }

    /// Sets the identity block.
    pub fn identity(mut self, name: &str, email: &str) -> Self {
        let id = self.doc.get_or_create_path(&["identity"]);
        id.push_child(Element::new("name").with_text(name));
        id.push_child(Element::new("email").with_text(email));
        self
    }

    /// Adds an address-book entry; `kind` is `personal` or `corporate`.
    pub fn contact(mut self, kind: &str, name: &str, phone: &str) -> Self {
        let id = self.next_item;
        self.next_item += 1;
        let book = self.doc.get_or_create_path(&["address-book"]);
        book.push_child(
            Element::new("item")
                .with_attr("id", id.to_string())
                .with_attr("type", kind)
                .with_child(Element::new("name").with_text(name))
                .with_child(Element::new("phone").with_text(phone)),
        );
        self
    }

    /// Sets the presence component.
    pub fn presence(mut self, status: &str) -> Self {
        self.doc.get_or_create_path(&["presence"]).set_text(status);
        self
    }

    /// Adds a device.
    pub fn device(mut self, id: &str, kind: &str, name: &str, number: Option<&str>) -> Self {
        let devs = self.doc.get_or_create_path(&["devices"]);
        let mut d = Element::new("device")
            .with_attr("id", id)
            .with_attr("kind", kind)
            .with_child(Element::new("name").with_text(name));
        if let Some(n) = number {
            d.push_child(Element::new("number").with_text(n));
        }
        devs.push_child(d);
        self
    }

    /// Adds a calendar event.
    pub fn event(mut self, subject: &str, start: &str, attendees: &[&str]) -> Self {
        let id = self.next_event;
        self.next_event += 1;
        let cal = self.doc.get_or_create_path(&["calendar"]);
        let mut ev = Element::new("event")
            .with_attr("id", format!("e{id}"))
            .with_child(Element::new("subject").with_text(subject))
            .with_child(Element::new("start").with_text(start));
        for a in attendees {
            ev.push_child(Element::new("attendee").with_text(*a));
        }
        cal.push_child(ev);
        self
    }

    /// Adds a game score (the `Gaming` application of §4.3).
    pub(crate) fn game_score(mut self, game: &str, score: i64) -> Self {
        let gaming = self.doc.get_or_create_path(&["applications", "Gaming"]);
        gaming.push_child(
            Element::new("game-score").with_attr("game", game).with_text(score.to_string()),
        );
        self
    }

    /// Finishes and returns the document.
    pub fn build(self) -> Element {
        self.doc
    }
}

/// A deterministic, schema-valid sample profile used across tests,
/// examples and benchmarks.
pub fn sample_profile(user_id: &str) -> Element {
    ProfileBuilder::new(user_id)
        .identity(&format!("User {user_id}"), &format!("{user_id}@example.com"))
        .contact("personal", "Mom", "908-555-0101")
        .contact("personal", "Bob", "908-555-0102")
        .contact("corporate", "Rick", "908-582-4393")
        .presence("online")
        .device("d1", "phone", "SprintPCS", Some("908-555-0199"))
        .device("d2", "pda", "Palm Pilot", None)
        .event("Standup", "2003-01-06T09:30", &["rick@lucent.com"])
        .game_score("chess", 1450)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_profile_validates() {
        let schema = gup_schema();
        let doc = sample_profile("arnaud");
        let errs = schema.validate(&doc);
        assert_eq!(errs, vec![], "{:#?}", errs);
    }

    #[test]
    fn standard_component_paths_admitted() {
        let schema = gup_schema();
        for c in standard_components() {
            assert!(schema.admits_path(&c.path), "{}", c.path);
        }
    }

    #[test]
    fn paper_coverage_paths_admitted() {
        let schema = gup_schema();
        for s in [
            "/user[@id='arnaud']/address-book",
            "/user[@id='arnaud']/presence",
            "/user[@id='arnaud']/address-book/item[@type='personal']",
            "/user/applications/Gaming/game-score[@game='chess']",
        ] {
            assert!(schema.admits_path(&Path::parse(s).unwrap()), "{s}");
        }
        assert!(!schema.admits_path(&Path::parse("/user/mp3-collection").unwrap()));
    }

    #[test]
    fn builder_components_queryable() {
        let doc = sample_profile("arnaud");
        let q = |s: &str| Path::parse(s).unwrap().select_strings(&doc);
        assert_eq!(q("/user/presence"), vec!["online"]);
        assert_eq!(q("/user/address-book/item[@type='corporate']/name"), vec!["Rick"]);
        assert_eq!(q("/user/devices/device[@kind='phone']/number"), vec!["908-555-0199"]);
        assert_eq!(q("/user/applications/Gaming/game-score[@game='chess']"), vec!["1450"]);
    }

    #[test]
    fn invalid_profile_detected() {
        // A device without the required id attribute.
        let mut doc = sample_profile("x");
        let dev = doc.get_or_create_path(&["devices"]);
        dev.push_child(Element::new("device"));
        assert!(!gup_schema().validate(&doc).is_empty());
    }
}
