//! Client-side fetch-and-merge: using a referral to get the data
//! directly from the stores (§4.3: "The client application will then use
//! the referral (one of them, or both) to get the data directly from the
//! GUP data stores").
//!
//! There is one fetch shape: a merge referral's fragments are fetched
//! per destination store, one round per store whatever the number of
//! fragments it holds, in referral-entry order. [`fetch_merge`] is the
//! untraced entry and [`fetch_merge_traced`] the traced one; both run
//! the same body.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gupster_store::{DataStore, Fragment, StoreError, StoreId, UpdateOp};
use gupster_telemetry::{stage, Tracer};
use gupster_xml::{Element, Identity, MergeKeys, MergeOut, NameId};
use gupster_xpath::Path;

use crate::error::GupsterError;
use crate::referral::{Referral, ReferralEntry};
use crate::token::Signer;

/// A merged answer, materialized once and shared by everything that
/// keeps or hands it on: the shard's window table, the result and stale
/// caches, batch results and request outcomes. A clone is a reference
/// count, never a copy of the answer's lists.
pub type SharedAnswer = Arc<[Element]>;

/// The set of live data stores, keyed by store id. In deployment these
/// are remote machines; here they are trait objects the harness owns.
#[derive(Default)]
pub struct StorePool {
    stores: BTreeMap<StoreId, Box<dyn DataStore>>,
}

impl std::fmt::Debug for StorePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorePool").field("stores", &self.stores.keys().collect::<Vec<_>>()).finish()
    }
}

impl StorePool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a store.
    pub fn add(&mut self, store: Box<dyn DataStore>) {
        self.stores.insert(store.id().clone(), store);
    }

    /// Immutable access.
    pub fn get(&self, id: &StoreId) -> Option<&dyn DataStore> {
        self.stores.get(id).map(|b| b.as_ref())
    }

    /// Applies an update to one store.
    pub fn update(
        &mut self,
        id: &StoreId,
        user: &str,
        op: &UpdateOp,
    ) -> Result<(), StoreError> {
        match self.stores.get_mut(id) {
            Some(s) => s.update(user, op),
            None => Err(StoreError::Backend(format!("no such store: {id}"))),
        }
    }

    /// Drains change events from every store, lazily: events are pulled
    /// store by store as the iterator advances, borrowing the id rather
    /// than reallocating a `(StoreId, event)` vector per pump.
    #[must_use = "the iterator is lazy — unconsumed stores keep their events"]
    pub fn drain_all_events(
        &mut self,
    ) -> impl Iterator<Item = (&StoreId, gupster_store::ChangeEvent)> + '_ {
        self.stores
            .iter_mut()
            .flat_map(|(id, s)| s.drain_events().into_iter().map(move |e| (&*id, e)))
    }
}

/// Executes a referral against the pool: verifies the signed query the
/// way each data store would, fetches, and merges fragments that denote
/// the same logical component.
///
/// For a choice referral (`||`) the alternatives are tried in order
/// until one answers; for a merge referral every fragment source is
/// fetched, one round per destination store, and same-identity
/// fragments are deep-unioned (Fig. 9's "way to merge the two XML
/// fragments").
pub fn fetch_merge(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
) -> Result<Vec<Element>, GupsterError> {
    fetch_merge_inner(pool, referral, store_signer, now, keys, None)
}

/// [`fetch_merge`] nested under a caller-owned trace: records a
/// `fetch.merge` span with `token.verify` / `store.fetch` /
/// `xml.merge` children, and bumps the signature-verification counter
/// (and, for a merge referral, the batched-fetch counter once per
/// destination store). The answer is materialized straight into the
/// caller's container `C`, a `Vec<Element>` or a [`SharedAnswer`]: one
/// allocation either way.
pub fn fetch_merge_traced<C>(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
    tracer: &mut Tracer,
) -> Result<C, GupsterError>
where
    C: FromIterator<Element> + Deref<Target = [Element]>,
{
    tracer.enter(stage::FETCH_MERGE);
    let out = fetch_merge_inner(pool, referral, store_signer, now, keys, Some(tracer));
    tracer.exit();
    out
}

/// The body of [`fetch_merge`] and [`fetch_merge_traced`]; the shard's
/// window table (`ShardedRegistry::answer_batch`) calls it too, under
/// the tracer's `shard.request` span.
pub(crate) fn fetch_merge_inner<C>(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
    mut tracer: Option<&mut Tracer>,
) -> Result<C, GupsterError>
where
    C: FromIterator<Element> + Deref<Target = [Element]>,
{
    // Every store checks the token before answering (§5.3).
    if let Some(t) = tracer.as_deref_mut() {
        t.hub().counters().signature_verifications.fetch_add(1, Ordering::Relaxed);
        t.mark(stage::TOKEN_VERIFY);
    }
    store_signer
        .verify(&referral.token, now)
        .map_err(|e| GupsterError::Token(e.to_string()))?;
    // The signature covers the token's paths, not the entries beside
    // it: a store asks only for what was signed.
    signed_entries(referral)?;

    // What the stores answered, in referral-entry order, in one buffer:
    // subtrees lent out of their resident documents (or documents an
    // adapter built), never copies.
    let mut fragments: Vec<Fragment<'_>> = Vec::new();
    let mut fetch = |entry: &ReferralEntry| {
        let store = pool
            .get(&entry.store)
            .ok_or_else(|| GupsterError::Store(format!("store {} unreachable", entry.store)))?;
        let from = fragments.len();
        store.fragments(&entry.path, &mut fragments).map_err(|e| {
            // A failed store leaves nothing behind for the next choice.
            fragments.truncate(from);
            GupsterError::Store(e.to_string())
        })
    };
    if referral.merge_required {
        // Every fragment source must answer (there is no alternative
        // holding the same fragment unless it was listed as a choice).
        // Fragments bound for the same store share one fetch round:
        // queries run in entry order, so fragment order and error
        // precedence follow the referral.
        for entry in &referral.entries {
            fetch(entry)?;
        }
        if let Some(t) = tracer.as_deref_mut() {
            let entries = &referral.entries;
            for (i, entry) in entries.iter().enumerate() {
                if !entries[..i].iter().any(|e| e.store == entry.store) {
                    t.hub().counters().batched_fetches.fetch_add(1, Ordering::Relaxed);
                    t.mark(stage::STORE_FETCH);
                }
            }
        }
    } else {
        // Choice referral (`||`): the alternatives are interchangeable —
        // fail over down the list (Req. 12 reliability: any replica
        // answers). The error is the last choice's, built only when no
        // choice answers.
        let mut last_err = None;
        let mut served = false;
        for entry in referral.choices() {
            match fetch(entry) {
                Ok(()) => {
                    if let Some(t) = tracer.as_deref_mut() {
                        t.mark(stage::STORE_FETCH);
                    }
                    served = true;
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        if !served {
            let no_choices = || GupsterError::Store("referral had no choices".into());
            return Err(last_err.unwrap_or_else(no_choices));
        }
    }

    // Merge fragments denoting the same logical node, straight over the
    // lent subtrees: accumulators graft unchanged subtrees by
    // id-reference so only the changed spine is ever allocated. The
    // result is byte-identical to the owned deep-union (the arena merge
    // mirrors its grammar, key precedence and conflict rules exactly).
    // The one materialization of the answer goes straight into the
    // caller's container (one allocation: the iterator knows its
    // length). It copies no value bytes: the answer's values share, and
    // keep alive, the stores' buffers.
    let result: C = match fragments.as_slice() {
        // The usual answer: one fragment, which is its own answer,
        // materialized straight from its document.
        [f] => std::iter::once(f.doc().to_element(f.node())).collect(),
        _ => fold(&fragments, keys).iter().map(MergeOut::to_element).collect(),
    };
    if let Some(t) = tracer {
        t.mark(stage::XML_PARSE);
        t.mark(stage::XML_MERGE);
        t.mark(stage::XML_SERIALIZE);
    }
    Ok(result)
}

/// Refuses a referral whose entries are not the token's signed paths,
/// entry by entry: each entry's path must render as the signed path at
/// its position. Compares the rendering as it is written, copying
/// nothing.
fn signed_entries(referral: &Referral) -> Result<(), GupsterError> {
    let mut signed = referral.token.paths.iter();
    for (i, entry) in referral.entries.iter().enumerate() {
        if !signed.next().is_some_and(|s| renders_as(&entry.path, s)) {
            let path = &entry.path;
            return Err(GupsterError::Token(format!("referral entry {i} asks for {path}, which is not signed")));
        }
    }
    Ok(())
}

/// Whether `path`'s display form is exactly `text`.
fn renders_as(path: &Path, text: &str) -> bool {
    use std::fmt::Write;
    /// What is left of the expected text; a write that does not match
    /// its front fails.
    struct Rest<'a>(&'a [u8]);
    impl Write for Rest<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            match self.0.strip_prefix(s.as_bytes()) {
                Some(rest) => {
                    self.0 = rest;
                    Ok(())
                }
                None => Err(std::fmt::Error),
            }
        }
    }
    let mut rest = Rest(text.as_bytes());
    write!(rest, "{path}").is_ok() && rest.0.is_empty()
}

/// Folds fragments, in order, into answers: each fragment merges into
/// the first earlier answer with the same root tag and root identity
/// that accepts it, and otherwise stands alone. Answers are indexed by
/// that pair, so a fragment meets only its candidates rather than every
/// answer so far; the pair never needs re-keying, because merging two
/// roots of equal identity keeps that identity.
fn fold<'a>(fragments: &'a [Fragment<'_>], keys: &MergeKeys) -> Vec<MergeOut<'a>> {
    let mut out: Vec<MergeOut<'a>> = Vec::new();
    let mut by_root: HashMap<(NameId, Option<Identity<'a>>), Vec<usize>> = HashMap::new();
    for f in fragments {
        let frag = MergeOut::from_node(f.doc(), f.node());
        let candidates = by_root.entry((frag.root_name(), frag.root_identity(keys))).or_default();
        let merged = candidates.iter().any(|&at| {
            match out[at].merge_with_node(f.doc(), f.node(), keys) {
                Ok(m) => {
                    out[at] = m;
                    true
                }
                // Conflicting copies from different stores: keep both;
                // reconciliation (Req. 6) is a separate concern handled
                // by gupster-sync.
                Err(_) => false,
            }
        });
        if !merged {
            candidates.push(out.len());
            out.push(frag);
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::registry::Gupster;
    use gupster_policy::{Purpose, WeekTime};
    use gupster_schema::gup_schema;
    use gupster_store::XmlStore;
    use gupster_xml::{parse, ArenaDoc};
    use gupster_xpath::Path;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    /// Builds the full Fig. 8/9 scenario: split address book, end to end
    /// through registry → referral → fetch → merge.
    fn split_world() -> (Gupster, StorePool) {
        let mut g = Gupster::new(gup_schema(), b"k");
        let mut yahoo = XmlStore::new("gup.yahoo.com");
        yahoo
            .put_profile(
                parse(
                    r#"<user id="arnaud"><address-book><item id="1" type="personal"><name>Mom</name></item><item id="2" type="personal"><name>Bob</name></item></address-book></user>"#,
                )
                .unwrap(),
            )
            .unwrap();
        let mut lucent = XmlStore::new("gup.lucent.com");
        lucent
            .put_profile(
                parse(
                    r#"<user id="arnaud"><address-book><item id="3" type="corporate"><name>Rick</name></item></address-book></user>"#,
                )
                .unwrap(),
            )
            .unwrap();
        g.register_component(
            "arnaud",
            p("/user[@id='arnaud']/address-book/item[@type='personal']"),
            StoreId::new("gup.yahoo.com"),
        )
        .unwrap();
        g.register_component(
            "arnaud",
            p("/user[@id='arnaud']/address-book/item[@type='corporate']"),
            StoreId::new("gup.lucent.com"),
        )
        .unwrap();
        yahoo.drain_events();
        lucent.drain_events();
        let mut pool = StorePool::new();
        pool.add(Box::new(yahoo));
        pool.add(Box::new(lucent));
        (g, pool)
    }

    #[test]
    fn end_to_end_split_book_merge() {
        let (mut g, pool) = split_world();
        let out = g
            .lookup(
                "arnaud",
                &p("/user[@id='arnaud']/address-book"),
                "arnaud",
                Purpose::Query,
                WeekTime::at(0, 12, 0),
                100,
            )
            .unwrap();
        assert!(out.referral.merge_required);
        let signer = g.signer();
        let merged = fetch_merge(&pool, &out.referral, &signer, 110, &keys()).unwrap();
        // One merged address-book containing all three items.
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].name, "address-book");
        assert_eq!(merged[0].children_named("item").count(), 3);
    }

    #[test]
    fn expired_token_refused_by_stores() {
        let (mut g, pool) = split_world();
        let out = g
            .lookup(
                "arnaud",
                &p("/user[@id='arnaud']/address-book"),
                "arnaud",
                Purpose::Query,
                WeekTime::at(0, 12, 0),
                100,
            )
            .unwrap();
        let signer = g.signer();
        let err = fetch_merge(&pool, &out.referral, &signer, 100 + 31, &keys());
        assert!(matches!(err, Err(GupsterError::Token(_))));
    }

    #[test]
    fn tampered_referral_refused() {
        let (mut g, pool) = split_world();
        let mut out = g
            .lookup(
                "arnaud",
                &p("/user[@id='arnaud']/address-book"),
                "arnaud",
                Purpose::Query,
                WeekTime::at(0, 12, 0),
                100,
            )
            .unwrap();
        out.referral.token.user = "victim".into();
        let signer = g.signer();
        assert!(matches!(
            fetch_merge(&pool, &out.referral, &signer, 100, &keys()),
            Err(GupsterError::Token(_))
        ));
    }

    /// The token signs paths, and the entries beside it are the
    /// client's to edit: a store must ask only for what was signed.
    /// Before fetches checked the entries, this read returned alice's
    /// book to rick.
    #[test]
    fn an_entry_asking_for_what_was_not_signed_is_refused() {
        use gupster_policy::Effect;
        let mut g = Gupster::new(gup_schema(), b"k");
        let mut s = XmlStore::new("s1");
        let profile = r#"<user id="alice"><presence>online</presence><address-book><item id="1"><name>Mom</name></item></address-book></user>"#;
        s.put_profile(parse(profile).unwrap()).unwrap();
        let (presence, book) = (p("/user[@id='alice']/presence"), p("/user[@id='alice']/address-book"));
        g.register_component("alice", presence.clone(), StoreId::new("s1")).unwrap();
        g.register_component("alice", book.clone(), StoreId::new("s1")).unwrap();
        g.set_relationship("alice", "rick", "co-worker");
        g.pap.provision("alice", "cw", Effect::Permit, "/user/presence", "relationship='co-worker'", 0).unwrap();
        let mut pool = StorePool::new();
        pool.add(Box::new(s));
        let (noon, now, signer) = (WeekTime::at(0, 12, 0), 100, g.signer());

        let refused = g.lookup("alice", &book, "rick", Purpose::Query, noon, now);
        assert!(matches!(refused, Err(GupsterError::AccessDenied { .. })), "{refused:?}");
        let out = g.lookup("alice", &presence, "rick", Purpose::Query, noon, now).unwrap();
        let answer = fetch_merge(&pool, &out.referral, &signer, now, &keys()).unwrap();
        assert_eq!(answer[0].to_xml(), "<presence>online</presence>");

        // The presence token, with its entry edited to ask for the book.
        let mut edited = out.referral.clone();
        edited.entries[0].path = Arc::new(book.clone());
        let got = fetch_merge(&pool, &edited, &signer, now, &keys());
        assert!(matches!(got, Err(GupsterError::Token(_))), "{got:?}");
        // Or with the book asked for beside the signed presence.
        let mut extended = out.referral.clone();
        let store = Arc::clone(&extended.entries[0].store);
        extended.entries.push(ReferralEntry { store, path: Arc::new(book), complete: false });
        extended.merge_required = true;
        let got = fetch_merge(&pool, &extended, &signer, now, &keys());
        assert!(matches!(got, Err(GupsterError::Token(_))), "{got:?}");
    }

    /// A store shared by several owners routes a query by the owner its
    /// first step names. A path starting on `//` names none, so the
    /// registry must pin it to the owner before signing: otherwise
    /// alice's `//item[@id='1']` would read bob's item 1 as well, and
    /// a `/user[@id='bob']` path asked as alice's would read bob's.
    #[test]
    fn a_path_naming_no_owner_reads_only_the_owners_profile() {
        let mut g = Gupster::new(gup_schema(), b"k");
        let mut s = XmlStore::new("s1");
        for (user, name) in [("alice", "Mom"), ("bob", "Boss")] {
            let profile = format!(
                r#"<user id="{user}"><presence>{user}-online</presence><address-book><item id="1"><name>{name}</name></item></address-book></user>"#
            );
            s.put_profile(parse(&profile).unwrap()).unwrap();
            let book = p(&format!("/user[@id='{user}']/address-book"));
            g.register_component(user, book, StoreId::new("s1")).unwrap();
            let presence = p(&format!("/user[@id='{user}']/presence"));
            g.register_component(user, presence, StoreId::new("s1")).unwrap();
        }
        let mut pool = StorePool::new();
        pool.add(Box::new(s));
        let (noon, now, signer) = (WeekTime::at(0, 12, 0), 100, g.signer());
        let read = |g: &mut Gupster, path: &str| -> Vec<String> {
            let out = g.lookup("alice", &p(path), "alice", Purpose::Query, noon, now).unwrap();
            let answer = fetch_merge(&pool, &out.referral, &signer, now, &keys()).unwrap();
            answer.iter().map(Element::to_xml).collect()
        };

        assert_eq!(read(&mut g, "//item[@id='1']"), [r#"<item id="1"><name>Mom</name></item>"#]);
        assert_eq!(read(&mut g, "//presence"), ["<presence>alice-online</presence>"]);
        assert!(read(&mut g, "/user[@id='bob']/presence").is_empty());
    }

    #[test]
    fn choice_referral_uses_one_store() {
        let mut g = Gupster::new(gup_schema(), b"k");
        let mut s1 = XmlStore::new("s1");
        s1.put_profile(parse(r#"<user id="a"><presence>online</presence></user>"#).unwrap())
            .unwrap();
        let mut s2 = XmlStore::new("s2");
        s2.put_profile(parse(r#"<user id="a"><presence>online</presence></user>"#).unwrap())
            .unwrap();
        g.register_component("a", p("/user[@id='a']/presence"), StoreId::new("s1")).unwrap();
        g.register_component("a", p("/user[@id='a']/presence"), StoreId::new("s2")).unwrap();
        let mut pool = StorePool::new();
        pool.add(Box::new(s1));
        pool.add(Box::new(s2));
        let out = g
            .lookup("a", &p("/user[@id='a']/presence"), "a", Purpose::Query, WeekTime::at(0, 0, 0), 0)
            .unwrap();
        let signer = g.signer();
        let r = fetch_merge(&pool, &out.referral, &signer, 0, &keys()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].text(), "online");
    }

    #[test]
    fn choice_referral_fails_over_to_surviving_replica() {
        let mut g = Gupster::new(gup_schema(), b"k");
        let mut s2 = XmlStore::new("s2");
        s2.put_profile(parse(r#"<user id="a"><presence>online</presence></user>"#).unwrap())
            .unwrap();
        // s1 is registered but never added to the pool — it is "down".
        g.register_component("a", p("/user[@id='a']/presence"), StoreId::new("s1")).unwrap();
        g.register_component("a", p("/user[@id='a']/presence"), StoreId::new("s2")).unwrap();
        let mut pool = StorePool::new();
        pool.add(Box::new(s2));
        let out = g
            .lookup("a", &p("/user[@id='a']/presence"), "a", Purpose::Query, WeekTime::at(0, 0, 0), 0)
            .unwrap();
        assert_eq!(out.referral.choices().count(), 2);
        let signer = g.signer();
        let r = fetch_merge(&pool, &out.referral, &signer, 0, &keys()).unwrap();
        assert_eq!(r[0].text(), "online");
    }

    #[test]
    fn missing_store_is_an_error() {
        let (mut g, _) = split_world();
        let out = g
            .lookup(
                "arnaud",
                &p("/user[@id='arnaud']/address-book"),
                "arnaud",
                Purpose::Query,
                WeekTime::at(0, 12, 0),
                0,
            )
            .unwrap();
        let empty = StorePool::new();
        let signer = g.signer();
        assert!(matches!(
            fetch_merge(&empty, &out.referral, &signer, 0, &keys()),
            Err(GupsterError::Store(_))
        ));
    }

    /// A store that cannot lend: every fragment is a document built for
    /// the answer, the way an LDAP or relational adapter answers.
    struct BuildingStore(XmlStore);

    impl DataStore for BuildingStore {
        fn id(&self) -> &StoreId {
            self.0.id()
        }
        fn fragments<'a>(&'a self, path: &Path, out: &mut Vec<Fragment<'a>>) -> Result<(), StoreError> {
            let built = self.0.query(path)?;
            out.extend(built.iter().map(|e| Fragment::built(ArenaDoc::from_element(e))));
            Ok(())
        }
        fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError> {
            self.0.update(user, op)
        }
        fn users(&self) -> Vec<String> {
            self.0.users()
        }
        fn generation(&self) -> u64 {
            self.0.generation()
        }
        fn capabilities(&self) -> gupster_store::Capabilities {
            self.0.capabilities()
        }
        fn drain_events(&mut self) -> Vec<gupster_store::ChangeEvent> {
            self.0.drain_events()
        }
    }

    #[test]
    fn lent_and_built_fragments_give_the_same_answers() {
        let profile = |store: &str, items: &str| {
            let mut s = XmlStore::new(store);
            s.put_profile(
                parse(&format!(
                    r#"<user id="a"><address-book>{items}</address-book><presence>on &amp; off</presence></user>"#
                ))
                .unwrap(),
            )
            .unwrap();
            s
        };
        let stores = [
            profile("s1", r#"<item id="1" type="personal"><name>Mom</name></item><item id="2"><name>Bob</name></item>"#),
            profile("s2", r#"<item id="3" type="corporate"><name>Rick</name></item><item id="2"><phone>555</phone></item>"#),
            // Disagrees with s1 about item 1: a conflicting copy.
            profile("s3", r#"<item id="1" type="personal"><name>Mother</name></item>"#),
        ];
        let (mut lent, mut built) = (StorePool::new(), StorePool::new());
        for s in stores {
            built.add(Box::new(BuildingStore(s.clone())));
            lent.add(Box::new(s));
        }

        let signer = Signer::new(b"k", 30);
        let referral = |entries: &[(&str, &str)], merge_required: bool| {
            let paths: Vec<String> = entries.iter().map(|(_, path)| path.to_string()).collect();
            Referral {
                entries: entries
                    .iter()
                    .map(|(store, path)| ReferralEntry {
                        store: Arc::new(StoreId::new(*store)),
                        path: Arc::new(p(path)),
                        complete: !merge_required,
                    })
                    .collect(),
                merge_required,
                token: signer.sign("a", "a", paths, 100),
                token_cached: false,
            }
        };
        let book = "/user[@id='a']/address-book";
        let cases = [
            ("merge", referral(&[("s1", book), ("s2", book)], true), 110),
            ("merge of items", referral(&[("s1", "/user[@id='a']/address-book/item"), ("s2", "//item")], true), 110),
            ("conflicting copies", referral(&[("s1", book), ("s3", book), ("s2", book)], true), 110),
            ("choice", referral(&[("s2", book), ("s1", book)], false), 110),
            ("choice fails over", referral(&[("down", book), ("s3", "/user[@id='a']/presence")], false), 110),
            ("nothing selected", referral(&[("s1", "/user[@id='ghost']/presence")], true), 110),
            ("merge source down", referral(&[("s1", book), ("down", book)], true), 110),
            ("every choice down", referral(&[("down", book)], false), 110),
            ("no choices", referral(&[], false), 110),
            ("expired token", referral(&[("s1", book)], true), 100 + 31),
        ];
        let render = |r: Result<Vec<Element>, GupsterError>| match r {
            Ok(es) => Ok(es.iter().map(Element::to_xml).collect::<Vec<_>>()),
            Err(e) => Err(e.to_string()),
        };
        for (what, referral, now) in &cases {
            let lent_answer = render(fetch_merge(&lent, referral, &signer, *now, &keys()));
            assert_eq!(lent_answer, render(fetch_merge(&built, referral, &signer, *now, &keys())), "{what}");
        }
        // The cases are what their names say.
        let answer = |i: usize| render(fetch_merge(&lent, &cases[i].1, &signer, cases[i].2, &keys()));
        assert_eq!(answer(0).unwrap().len(), 1, "one merged book");
        assert_eq!(answer(2).unwrap().len(), 2, "the conflicting copy is kept beside the merge");
        assert_eq!(answer(4).unwrap(), vec!["<presence>on &amp; off</presence>".to_string()]);
        assert_eq!(answer(5).unwrap(), Vec::<String>::new());
        for (i, (what, ..)) in cases.iter().enumerate().skip(6) {
            assert!(answer(i).is_err(), "{what}");
        }
    }

    /// The fold before answers were indexed: every fragment meets every
    /// answer built so far. The model [`fold`] must agree with.
    fn nested_loop_fold<'a>(fragments: &'a [Fragment<'_>], keys: &MergeKeys) -> Vec<MergeOut<'a>> {
        let mut out: Vec<MergeOut<'a>> = Vec::new();
        'next: for f in fragments {
            let frag = MergeOut::from_node(f.doc(), f.node());
            for existing in &mut out {
                if existing.root_name() == frag.root_name()
                    && existing.root_identity(keys) == frag.root_identity(keys)
                {
                    if let Ok(m) = existing.merge_with_node(f.doc(), f.node(), keys) {
                        *existing = m;
                        continue 'next;
                    }
                }
            }
            out.push(frag);
        }
        out
    }

    #[test]
    fn indexed_fold_matches_the_nested_loop() {
        use gupster_rng::check::{self, cases};
        use gupster_rng::Rng;
        cases(300, 0x19_f0, |rng| {
            // Three stores whose items share ids (copies that merge or
            // conflict, by their names), some items with no key at all
            // (identity-less roots), answered item by item.
            let stores: Vec<XmlStore> = (0..3)
                .map(|s| {
                    let mut book = Element::new("address-book");
                    for _ in 0..rng.gen_range(0..8usize) {
                        let mut item = Element::new("item");
                        if rng.gen_bool(0.8) {
                            item.set_attr("id", rng.gen_range(0..4u32).to_string());
                        }
                        if rng.gen_bool(0.3) {
                            item.set_attr("type", "personal");
                        }
                        if rng.gen_bool(0.6) {
                            item.push_child(Element::new("name").with_text(check::lowercase(rng, 1, 1)));
                        }
                        if rng.gen_bool(0.3) {
                            item.push_child(Element::new("phone").with_text("555"));
                        }
                        book.push_child(item);
                    }
                    let mut store = XmlStore::new(format!("s{s}"));
                    store.put_profile(Element::new("user").with_attr("id", "a").with_child(book)).unwrap();
                    store
                })
                .collect();
            let path = p(if rng.gen_bool(0.8) { "/user[@id='a']/address-book/item" } else { "/user[@id='a']/address-book" });
            let mut fragments: Vec<Fragment<'_>> = Vec::new();
            for s in &stores {
                s.fragments(&path, &mut fragments).unwrap();
            }
            let keys = if rng.gen_bool(0.5) { keys() } else { MergeKeys::new() };
            let render = |out: Vec<MergeOut<'_>>| {
                out.iter().map(|m| (m.to_xml(), m.stats())).collect::<Vec<_>>()
            };
            assert_eq!(
                render(fold(&fragments, &keys)),
                render(nested_loop_fold(&fragments, &keys)),
                "{path}"
            );
        });
    }

    #[test]
    fn pool_update_and_events() {
        let (_, mut pool) = split_world();
        pool.update(
            &StoreId::new("gup.yahoo.com"),
            "arnaud",
            &UpdateOp::SetText(p("/user/address-book/item[@id='1']/name"), "Mother".into()),
        )
        .unwrap();
        let events: Vec<_> = pool.drain_all_events().map(|(id, e)| (id.clone(), e)).collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, StoreId::new("gup.yahoo.com"));
        assert_eq!(pool.stores.len(), 2);
        assert!(pool
            .update(&StoreId::new("ghost"), "arnaud", &UpdateOp::Delete(p("/user/presence")))
            .is_err());
    }
}
