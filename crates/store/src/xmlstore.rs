//! A native XML profile store.
//!
//! This is what a GUP-native host (an internet portal, a presence
//! server) runs: per-user profile documents, XPath query/update, change
//! events for subscriptions.
//!
//! Each profile is held as one [`ArenaDoc`] — converted once, when the
//! document is handed over — and that is the only form the store keeps:
//! reads lend subtrees of it ([`Fragment::lent`]), updates edit it in
//! place. In-place edits leave superseded rows and values behind; a
//! document is compacted whenever its dead rows outnumber its live ones
//! or its dead value bytes outnumber its live ones, so it never grows
//! past about twice what it holds.
//!
//! Documents are found by hashing the owner id: a read names its owner
//! (`/user[@id='…']`), and a fleet's store holds thousands. A read that
//! names no owner, and [`DataStore::users`], go in user order.

use std::cell::RefCell;
use std::collections::HashMap;

use gupster_xml::{ArenaDoc, Element, NodeId, XmlError};
use gupster_xpath::Path;

use crate::error::StoreError;
use crate::store_trait::{
    owner_of, Capabilities, ChangeEvent, DataStore, Fragment, StoreId, UpdateOp,
};

/// In-memory XML data store holding one profile document per user.
#[derive(Debug, Clone)]
pub struct XmlStore {
    id: StoreId,
    docs: HashMap<String, ArenaDoc>,
    generation: u64,
    events: Vec<ChangeEvent>,
}

thread_local! {
    /// The node ids a read selects, kept from one read to the next on
    /// this thread so that a warm read allocates no id buffer.
    static SELECTED: RefCell<Vec<NodeId>> = const { RefCell::new(Vec::new()) };
}

impl XmlStore {
    /// Creates an empty store.
    pub fn new(id: impl Into<String>) -> Self {
        XmlStore { id: StoreId::new(id), docs: HashMap::new(), generation: 0, events: Vec::new() }
    }

    /// Inserts or replaces a user's whole profile document. The document
    /// root must carry the user id (`<user id="…">`).
    pub fn put_profile(&mut self, doc: Element) -> Result<(), StoreError> {
        let user = doc
            .attr("id")
            .ok_or_else(|| StoreError::Backend("profile root lacks an id attribute".into()))?
            .to_string();
        self.docs.insert(user.clone(), ArenaDoc::from_element(&doc));
        self.generation += 1;
        self.events.push(ChangeEvent {
            user,
            path: Path::from_names(&["user"]),
            generation: self.generation,
        });
        Ok(())
    }

    /// Number of profiles held.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True if the store holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// Applies `op` at the nodes its path selects in `doc`, in place, with
/// the results of editing the owned tree at the same nodes.
fn apply(doc: &mut ArenaDoc, op: &UpdateOp) -> Result<(), StoreError> {
    let mut targets = Vec::new();
    op.path().select_arena(doc, &mut targets);
    if targets.is_empty() {
        return Err(StoreError::NoSuchTarget(op.path().to_string()));
    }
    match op {
        UpdateOp::SetText(_, text) => {
            for &t in &targets {
                doc.set_text(t, text);
            }
        }
        UpdateOp::SetAttr(_, name, value) => {
            for &t in &targets {
                doc.set_attr(t, name, value);
            }
        }
        UpdateOp::InsertChild(_, child) => {
            for &t in &targets {
                let fresh = doc.graft_element(child);
                doc.push_child(t, fresh);
            }
        }
        UpdateOp::Delete(_) => {
            let parents = doc.parents();
            // Reverse document order: a selected descendant goes before
            // its selected ancestor, and the root — which cannot go —
            // is refused only after everything else went.
            for &t in targets.iter().rev() {
                match parents[t.0 as usize] {
                    Some(parent) => {
                        doc.remove_child(parent, t);
                    }
                    None => {
                        let why = XmlError::PathNotFound("cannot remove the root".into());
                        return Err(StoreError::Backend(why.to_string()));
                    }
                }
            }
        }
        UpdateOp::Replace(_, new) => {
            let parents = doc.parents();
            let mut replaced = Vec::new();
            for &t in &targets {
                let Some(parent) = parents[t.0 as usize] else {
                    // The root: the replacement is the whole document,
                    // and every other target went with the old one.
                    *doc = ArenaDoc::from_element(new);
                    break;
                };
                // Document order puts an outer target first; one inside
                // a subtree already replaced is gone with it.
                let ancestors = std::iter::successors(Some(parent), |a| parents[a.0 as usize]);
                if ancestors.into_iter().any(|a| replaced.contains(&a)) {
                    continue;
                }
                let fresh = doc.graft_element(new);
                doc.replace_child(parent, t, fresh);
                replaced.push(t);
            }
        }
    }
    Ok(())
}

impl DataStore for XmlStore {
    fn id(&self) -> &StoreId {
        &self.id
    }

    fn fragments<'a>(&'a self, path: &Path, out: &mut Vec<Fragment<'a>>) -> Result<(), StoreError> {
        SELECTED.with_borrow_mut(|ids| {
            let mut lend = |doc: &'a ArenaDoc| {
                path.select_arena(doc, ids);
                out.extend(ids.iter().map(|&n| Fragment::lent(doc, n)));
            };
            match owner_of(path) {
                // Straight to the owner's document: the usual, id-keyed read.
                Some(owner) => self.docs.get(owner).into_iter().for_each(lend),
                None => {
                    let mut docs: Vec<_> = self.docs.iter().collect();
                    docs.sort_unstable_by(|a, b| a.0.cmp(b.0));
                    docs.into_iter().for_each(|(_, doc)| lend(doc));
                }
            }
        });
        Ok(())
    }

    fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError> {
        let doc = self
            .docs
            .get_mut(user)
            .ok_or_else(|| StoreError::UnknownUser(user.to_string()))?;
        let applied = apply(doc, op);
        // Also after a refusal: a refused root delete has removed
        // everything else by then.
        if doc.dead_rows() > doc.live_rows() || doc.dead_value_bytes() > doc.live_value_bytes() {
            doc.compact();
        }
        applied?;
        self.generation += 1;
        self.events.push(ChangeEvent {
            user: user.to_string(),
            path: op.path().clone(),
            generation: self.generation,
        });
        Ok(())
    }

    fn users(&self) -> Vec<String> {
        let mut users: Vec<String> = self.docs.keys().cloned().collect();
        users.sort_unstable();
        users
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::FULL
    }

    fn drain_events(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use gupster_oracle::{select, select_node_paths};
    use gupster_xml::parse;

    impl XmlStore {
        /// A copy of a user's profile document.
        fn profile(&self, user: &str) -> Option<Element> {
            self.docs.get(user).map(ArenaDoc::root_element)
        }
    }

    fn store() -> XmlStore {
        let mut s = XmlStore::new("gup.yahoo.com");
        s.put_profile(
            parse(
                r#"<user id="arnaud"><address-book><item id="1" type="personal"><name>Mom</name></item></address-book><presence>online</presence></user>"#,
            )
            .unwrap(),
        )
        .unwrap();
        s.put_profile(parse(r#"<user id="rick"><presence>away</presence></user>"#).unwrap())
            .unwrap();
        s.drain_events();
        s
    }

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    /// Removes a user's profile (a subscriber churning away, the §2.1
    /// carrier-switch scenario) and returns it.
    fn remove_profile(s: &mut XmlStore, user: &str) -> Option<Element> {
        let doc = s.docs.remove(user)?;
        s.generation += 1;
        s.events.push(ChangeEvent {
            user: user.to_string(),
            path: Path::from_names(&["user"]),
            generation: s.generation,
        });
        Some(doc.root_element())
    }

    #[test]
    fn query_single_user() {
        let s = store();
        let r = s.query(&p("/user[@id='arnaud']/presence")).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].text(), "online");
    }

    #[test]
    fn query_across_users_without_id_predicate() {
        let s = store();
        let r = s.query(&p("/user/presence")).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn query_unknown_user_is_empty() {
        let s = store();
        assert!(s.query(&p("/user[@id='ghost']/presence")).unwrap().is_empty());
    }

    #[test]
    fn set_text_update() {
        let mut s = store();
        s.update("arnaud", &UpdateOp::SetText(p("/user/presence"), "busy".into())).unwrap();
        assert_eq!(s.query(&p("/user[@id='arnaud']/presence")).unwrap()[0].text(), "busy");
        // Only arnaud changed.
        assert_eq!(s.query(&p("/user[@id='rick']/presence")).unwrap()[0].text(), "away");
    }

    #[test]
    fn insert_and_delete_children() {
        let mut s = store();
        let item = parse(r#"<item id="2" type="corporate"><name>Rick</name></item>"#).unwrap();
        s.update("arnaud", &UpdateOp::InsertChild(p("/user/address-book"), item)).unwrap();
        assert_eq!(s.query(&p("/user[@id='arnaud']/address-book/item")).unwrap().len(), 2);
        s.update("arnaud", &UpdateOp::Delete(p("/user/address-book/item[@id='1']"))).unwrap();
        let left = s.query(&p("/user[@id='arnaud']/address-book/item")).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].attr("id"), Some("2"));
    }

    #[test]
    fn delete_multiple_targets_handles_index_shift() {
        let mut s = XmlStore::new("t");
        s.put_profile(
            parse(r#"<user id="u"><l><v>1</v><v>2</v><v>3</v></l></user>"#).unwrap(),
        )
        .unwrap();
        s.update("u", &UpdateOp::Delete(p("/user/l/v"))).unwrap();
        assert!(s.query(&p("/user/l/v")).unwrap().is_empty());
    }

    #[test]
    fn update_missing_target_errors() {
        let mut s = store();
        let err = s.update("arnaud", &UpdateOp::SetText(p("/user/calendar"), "x".into()));
        assert!(matches!(err, Err(StoreError::NoSuchTarget(_))));
        let err = s.update("ghost", &UpdateOp::SetText(p("/user/presence"), "x".into()));
        assert!(matches!(err, Err(StoreError::UnknownUser(_))));
    }

    #[test]
    fn events_emitted_on_writes() {
        let mut s = store();
        s.update("arnaud", &UpdateOp::SetText(p("/user/presence"), "busy".into())).unwrap();
        let ev = s.drain_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].user, "arnaud");
        assert_eq!(ev[0].path.to_string(), "/user/presence");
        assert!(s.drain_events().is_empty());
    }

    #[test]
    fn profile_without_id_rejected() {
        let mut s = XmlStore::new("t");
        assert!(s.put_profile(parse("<user/>").unwrap()).is_err());
    }

    #[test]
    fn remove_profile_for_churn() {
        let mut s = store();
        assert!(remove_profile(&mut s, "rick").is_some());
        assert!(remove_profile(&mut s, "rick").is_none());
        assert_eq!(s.users(), vec!["arnaud"]);
    }

    #[test]
    fn result_bytes_counts_serialized_size() {
        let s = store();
        let n = s.result_bytes(&p("/user[@id='arnaud']/address-book"));
        assert!(n > 20, "{n}");
        assert_eq!(s.result_bytes(&p("/user[@id='arnaud']/calendar")), 0);
    }

    #[test]
    fn profile_and_remove_profile_hand_back_the_document() {
        let mut s = store();
        let rick = parse(r#"<user id="rick"><presence>away</presence></user>"#).unwrap();
        assert_eq!(s.profile("rick"), Some(rick.clone()));
        assert_eq!(s.profile("ghost"), None);
        assert_eq!(remove_profile(&mut s, "rick"), Some(rick));
        assert_eq!(s.profile("rick"), None);
    }

    #[test]
    fn reads_lend_out_of_the_resident_document() {
        let s = store();
        let mut got = Vec::new();
        s.fragments(&p("/user[@id='arnaud']/address-book/item"), &mut got).unwrap();
        assert_eq!(got.len(), 1);
        assert!(std::ptr::eq(got[0].doc(), &s.docs["arnaud"]), "lent, not copied");
        assert_eq!(got[0].to_element().attr("id"), Some("1"));
        assert_eq!(got[0].byte_size(), got[0].to_element().to_xml().len());
    }

    /// Two shapes the owned-tree store got wrong — it re-resolved each
    /// target by tag and position *after* the earlier replacements, so a
    /// replacement under another tag shifted the later addresses (the
    /// wrong node replaced, then a panic on the address that no longer
    /// resolved), and a target inside a replaced target was looked up
    /// in the replacement. Targets are nodes here.
    #[test]
    fn replace_puts_one_copy_where_each_selected_node_stood() {
        let mut s = XmlStore::new("t");
        s.put_profile(
            parse(r#"<user id="u"><l><v>1</v><w/><v>2</v><v>3</v></l></user>"#).unwrap(),
        )
        .unwrap();
        s.update("u", &UpdateOp::Replace(p("/user/l/v"), parse("<x/>").unwrap())).unwrap();
        assert_eq!(s.profile("u").unwrap().to_xml(), r#"<user id="u"><l><x/><w/><x/><x/></l></user>"#);

        s.put_profile(parse(r#"<user id="u"><v><v>in</v><k/></v></user>"#).unwrap()).unwrap();
        s.update("u", &UpdateOp::Replace(p("//v"), parse("<v><v>new</v></v>").unwrap())).unwrap();
        assert_eq!(s.profile("u").unwrap().to_xml(), r#"<user id="u"><v><v>new</v></v></user>"#);

        // The root is the whole document; nothing else is left to replace.
        s.update("u", &UpdateOp::Replace(p("//*"), parse(r#"<user id="u"><n/></user>"#).unwrap()))
            .unwrap();
        assert_eq!(s.profile("u").unwrap().to_xml(), r#"<user id="u"><n/></user>"#);
    }

    #[test]
    fn deleting_the_root_is_refused_after_everything_else_went() {
        let mut s = store();
        let err = s.update("arnaud", &UpdateOp::Delete(p("//*")));
        assert_eq!(err, Err(StoreError::Backend("node path not found: cannot remove the root".into())));
        assert_eq!(s.profile("arnaud").unwrap().to_xml(), r#"<user id="arnaud"/>"#);
        assert!(s.drain_events().is_empty(), "a refused update publishes nothing");
    }

    /// 1 000 whole-book replacements (what a sync write-back does) leave
    /// the document at most about twice what it holds.
    #[test]
    fn garbage_stays_bounded_under_repeated_replacement() {
        let book = |round: usize| {
            let mut b = Element::new("address-book");
            for k in 0..40 {
                b.push_child(
                    Element::new("item")
                        .with_attr("id", format!("p{k:03}"))
                        .with_attr("type", "personal")
                        .with_child(Element::new("name").with_text(format!("Friend {k} r{round}"))),
                );
            }
            b
        };
        let mut s = XmlStore::new("t");
        s.put_profile(Element::new("user").with_attr("id", "u").with_child(book(0))).unwrap();
        let live = s.docs["u"].node_count();
        let mut compactions = 0;
        for round in 1..=1000 {
            let before = s.docs["u"].node_count();
            s.update("u", &UpdateOp::Replace(p("/user/address-book"), book(round))).unwrap();
            let doc = &s.docs["u"];
            assert_eq!(doc.subtree_size(doc.root()), live);
            assert!(doc.node_count() <= 2 * live + 8, "round {round}: {}", doc.node_count());
            assert!(doc.dead_rows() <= doc.live_rows(), "round {round}");
            compactions += usize::from(doc.node_count() < before);
        }
        assert!((400..=600).contains(&compactions), "every other round: {compactions}");
        assert_eq!(s.query(&p("/user/address-book")).unwrap(), vec![book(1000)]);
    }

    /// 1 000 rewrites of a 64 KiB value on a 200-item profile: every
    /// superseded copy used to stay resident until the dead *rows*
    /// outnumbered the live ones. Now the document never holds more than
    /// twice its compacted size plus one value.
    #[test]
    fn dead_value_bytes_stay_bounded_under_repeated_set_text() {
        let mut book = Element::new("address-book");
        for k in 0..200 {
            book.push_child(
                Element::new("item")
                    .with_attr("id", format!("p{k:03}"))
                    .with_child(Element::new("name").with_text(format!("Friend {k}"))),
            );
        }
        let profile = Element::new("user")
            .with_attr("id", "u")
            .with_child(Element::new("note").with_text("short"))
            .with_child(book);
        let mut s = XmlStore::new("t");
        s.put_profile(profile).unwrap();
        let value = "x".repeat(64 * 1024);
        let op = UpdateOp::SetText(p("/user/note"), value.clone());
        let mut compactions = 0;
        for round in 1..=1000 {
            let before = s.docs["u"].dead_value_bytes();
            s.update("u", &op).unwrap();
            let doc = &s.docs["u"];
            let mut packed = doc.clone();
            packed.compact();
            let bound = 2 * packed.resident_bytes() + value.len();
            assert!(doc.resident_bytes() <= bound, "round {round}: {} > {bound}", doc.resident_bytes());
            compactions += usize::from(doc.dead_value_bytes() < before);
        }
        assert!(compactions >= 400, "{compactions}");
        assert_eq!(s.query(&p("/user/note")).unwrap()[0].text(), value);
    }

    // ------------------------------------------- model: the owned tree —

    /// The store as it was before it held arenas: one owned tree per
    /// user, updates applied through `NodePath` addresses. Kept as the
    /// model the arena store is checked against.
    #[derive(Default)]
    struct OwnedStore {
        docs: BTreeMap<String, Element>,
        generation: u64,
        events: Vec<ChangeEvent>,
    }

    impl OwnedStore {
        fn note(&mut self, user: &str, path: Path) {
            self.generation += 1;
            self.events.push(ChangeEvent { user: user.to_string(), path, generation: self.generation });
        }

        fn put_profile(&mut self, doc: Element) -> Result<(), StoreError> {
            let user = doc
                .attr("id")
                .ok_or_else(|| StoreError::Backend("profile root lacks an id attribute".into()))?
                .to_string();
            self.docs.insert(user.clone(), doc);
            self.note(&user, Path::from_names(&["user"]));
            Ok(())
        }

        fn remove_profile(&mut self, user: &str) -> Option<Element> {
            let doc = self.docs.remove(user)?;
            self.note(user, Path::from_names(&["user"]));
            Some(doc)
        }

        fn query(&self, path: &Path) -> Vec<Element> {
            let docs: Vec<&Element> = match owner_of(path) {
                Some(uid) => self.docs.get(uid).into_iter().collect(),
                None => self.docs.values().collect(),
            };
            docs.into_iter().flat_map(|d| select(path, d).into_iter().cloned()).collect()
        }

        fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError> {
            let doc = self
                .docs
                .get_mut(user)
                .ok_or_else(|| StoreError::UnknownUser(user.to_string()))?;
            let addrs = select_node_paths(op.path(), doc);
            if addrs.is_empty() {
                return Err(StoreError::NoSuchTarget(op.path().to_string()));
            }
            match op {
                UpdateOp::SetText(_, text) => {
                    for a in &addrs {
                        a.resolve_mut(doc).expect("addressed").set_text(text.clone());
                    }
                }
                UpdateOp::SetAttr(_, name, value) => {
                    for a in &addrs {
                        a.resolve_mut(doc).expect("addressed").set_attr(name.clone(), value.clone());
                    }
                }
                UpdateOp::InsertChild(_, child) => {
                    for a in &addrs {
                        a.resolve_mut(doc).expect("addressed").push_child(child.clone());
                    }
                }
                UpdateOp::Delete(_) => {
                    // Reverse document order, so earlier removals don't
                    // shift the occurrence indices of later addresses.
                    let mut sorted = addrs.clone();
                    sorted.sort_by(|a, b| {
                        let ka: Vec<usize> = a.steps.iter().map(|s| s.index).collect();
                        let kb: Vec<usize> = b.steps.iter().map(|s| s.index).collect();
                        kb.cmp(&ka)
                    });
                    for a in &sorted {
                        a.remove(doc).map_err(|e| StoreError::Backend(e.to_string()))?;
                    }
                }
                UpdateOp::Replace(_, new) => {
                    for a in &addrs {
                        *a.resolve_mut(doc).expect("addressed") = new.clone();
                    }
                }
            }
            self.note(user, op.path().clone());
            Ok(())
        }
    }

    use gupster_rng::check::{self, cases};
    use gupster_rng::{Rng, StdRng};

    const USERS: [&str; 3] = ["u0", "u1", "u2"];

    fn random_item(rng: &mut StdRng) -> Element {
        let mut item = Element::new("item")
            .with_attr("id", format!("i{}", rng.gen_range(0..6u32)))
            .with_attr("type", *rng.pick(&["personal", "corporate"]))
            .with_child(Element::new("name").with_text(check::printable(rng, 0, 8)));
        if rng.gen_bool(0.4) {
            item.push_child(Element::new("phone").with_text(check::printable(rng, 1, 8)));
        }
        item
    }

    fn random_profile(rng: &mut StdRng, user: &str) -> Element {
        let mut book = Element::new("address-book");
        for _ in 0..rng.gen_range(0..5usize) {
            book.push_child(random_item(rng));
        }
        let mut l = Element::new("l");
        for _ in 0..rng.gen_range(0..4usize) {
            l.push_child(Element::new("v").with_text(check::printable(rng, 0, 4)));
        }
        Element::new("user")
            .with_attr("id", user)
            .with_child(book)
            .with_child(Element::new("presence").with_text(check::printable(rng, 0, 6)))
            .with_child(l)
    }

    /// Child-axis paths ending in a name: the targets of one path are
    /// never nested and all carry that name, which is what keeps the
    /// model's address-based `Replace` well-defined when it is given a
    /// replacement under the same name.
    const NAMED: [(&str, &str); 9] = [
        ("/user", "user"),
        ("/user/presence", "presence"),
        ("/user/address-book", "address-book"),
        ("/user/address-book/item", "item"),
        ("/user/address-book/item[@type='personal']", "item"),
        ("/user/address-book/item[@id='i1']", "item"),
        ("/user/address-book/item/name", "name"),
        ("/user/l/v", "v"),
        ("/user/l/v[2]", "v"),
    ];

    /// Everything else: descendant axes (nested targets once items are
    /// inserted into items), wildcards, attribute steps, paths that
    /// select nothing, the root by three more routes.
    const OTHER: [&str; 9] = [
        "//name",
        "//item",
        "//item/phone",
        "/user/*",
        "/*",
        "//*",
        "/user/@id",
        "/user/address-book/item/@type",
        "/user/calendar",
    ];

    fn random_op(rng: &mut StdRng) -> UpdateOp {
        let any_path = |rng: &mut StdRng| {
            let other: &&str = rng.pick(&OTHER);
            let named = rng.pick(&NAMED).0;
            p(if rng.gen_bool(0.5) { named } else { other })
        };
        match rng.gen_range(0..5u32) {
            0 => UpdateOp::SetText(any_path(rng), check::printable(rng, 0, 8)),
            1 => UpdateOp::SetAttr(
                any_path(rng),
                (*rng.pick(&["id", "type", "mark"])).to_string(),
                check::printable(rng, 0, 6),
            ),
            2 => {
                let child = match rng.gen_range(0..3u32) {
                    0 => random_item(rng),
                    1 => Element::new("v").with_text(check::printable(rng, 0, 4)),
                    _ => Element::new("name").with_child(random_item(rng)),
                };
                UpdateOp::InsertChild(any_path(rng), child)
            }
            3 => UpdateOp::Delete(any_path(rng)),
            _ => {
                let (path, tag) = *rng.pick(&NAMED);
                let new = match tag {
                    "user" => {
                        let user = *rng.pick(&USERS);
                        random_profile(rng, user)
                    }
                    "item" => random_item(rng),
                    _ => Element::new(tag)
                        .with_attr("mark", check::printable(rng, 0, 4))
                        .with_text(check::printable(rng, 0, 6)),
                };
                UpdateOp::Replace(p(path), new)
            }
        }
    }

    #[test]
    fn random_operations_match_the_owned_tree_model() {
        let probes: Vec<Path> = ["/user", "/user[@id='u1']/address-book", "//name", "/user/l/v", "/user/@id"]
            .iter()
            .map(|s| p(s))
            .collect();
        let mut errors = std::collections::HashSet::new();
        cases(150, 0x13_5701, |rng| {
            let mut store = XmlStore::new("model");
            let mut model = OwnedStore::default();
            for step in 0..60 {
                let user = if rng.gen_bool(0.1) { "ghost" } else { *rng.pick(&USERS) };
                let what = match rng.gen_range(0..10u32) {
                    0 => {
                        let doc = if rng.gen_bool(0.9) {
                            random_profile(rng, user)
                        } else {
                            Element::new("user") // no id: refused
                        };
                        assert_eq!(store.put_profile(doc.clone()), model.put_profile(doc));
                        format!("put {user}")
                    }
                    1 => {
                        assert_eq!(remove_profile(&mut store, user), model.remove_profile(user));
                        format!("remove {user}")
                    }
                    _ => {
                        let op = random_op(rng);
                        let (got, want) = (store.update(user, &op), model.update(user, &op));
                        assert_eq!(got, want, "step {step}: {op:?} for {user}");
                        if let Err(e) = &got {
                            errors.insert(std::mem::discriminant(e));
                        }
                        format!("{op:?} for {user}")
                    }
                };
                assert_eq!(store.generation(), model.generation, "after step {step}: {what}");
                assert_eq!(store.drain_events(), std::mem::take(&mut model.events), "after step {step}: {what}");
                assert_eq!(store.users(), model.docs.keys().cloned().collect::<Vec<_>>());
                for probe in &probes {
                    let got: Vec<String> =
                        store.query(probe).unwrap().iter().map(Element::to_xml).collect();
                    let want: Vec<String> = model.query(probe).iter().map(Element::to_xml).collect();
                    assert_eq!(got, want, "{probe} after step {step}: {what}");
                }
                for doc in store.docs.values() {
                    assert!(doc.dead_rows() <= doc.live_rows(), "after step {step}: {what}");
                    assert!(doc.dead_value_bytes() <= doc.live_value_bytes(), "after step {step}: {what}");
                }
            }
        });
        // The run met every way an update is refused.
        assert_eq!(errors.len(), 3, "UnknownUser, NoSuchTarget and the root Backend refusal");
    }
}
