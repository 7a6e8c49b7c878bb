//! Client-side fetch-and-merge: using a referral to get the data
//! directly from the stores (§4.3: "The client application will then use
//! the referral (one of them, or both) to get the data directly from the
//! GUP data stores").

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::sync::atomic::Ordering;

use gupster_netsim::SimTime;
use gupster_store::{DataStore, Fragment, StoreError, StoreId, UpdateOp};
use gupster_telemetry::{stage, Tracer};
use gupster_xml::{Element, Identity, MergeKeys, MergeOut, MergeStats, NameId};

use crate::error::GupsterError;
use crate::referral::{Referral, ReferralEntry};
use crate::token::Signer;

/// Synthetic per-fragment fetch cost: ~50µs of store work plus ~10µs
/// per KB of fragment serialized (matches the merge throughput model in
/// [`crate::patterns`]).
fn fetch_cost(bytes: usize) -> SimTime {
    SimTime::micros(50 + (bytes as u64).div_ceil(1024) * 10)
}

/// Synthetic zero-copy parse cost: the arena parser slices names and
/// character data straight out of the retained buffer instead of
/// building an owned tree — ~2µs of setup plus 1µs per 4 KB.
fn parse_compute_cost(bytes: usize) -> SimTime {
    SimTime::micros(2 + (bytes as u64).div_ceil(4096))
}

/// Synthetic structural-sharing merge cost: work is proportional to the
/// changed spine (fresh node allocations plus graft bookkeeping), never
/// to the size of shared subtrees. Sits well under the pre-arena deep-
/// union model (10µs per KB of fragment bytes) for every fragment mix.
fn merge_spine_cost(stats: &MergeStats) -> SimTime {
    SimTime::micros(2 + stats.fresh_nodes.div_ceil(8) + stats.shared_subtrees.div_ceil(8))
}

/// Synthetic serializer cost: one escape-scanning pass over the merged
/// result, 1µs per 2 KB.
fn serialize_compute_cost(bytes: usize) -> SimTime {
    SimTime::micros(1 + (bytes as u64).div_ceil(2048))
}

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

    /// Mutable access.
    pub fn get_mut(&mut self, id: &StoreId) -> Option<&mut (dyn DataStore + '_)> {
        match self.stores.get_mut(id) {
            Some(b) => Some(b.as_mut()),
            None => None,
        }
    }

    /// All store ids, in key order. Borrows instead of cloning — the
    /// pool may hold thousands of ids and callers usually just iterate.
    pub fn ids(&self) -> impl Iterator<Item = &StoreId> + '_ {
        self.stores.keys()
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
/// For a choice referral (`||`) only the first alternative is consulted;
/// for a merge referral every fragment source is fetched and same-
/// identity fragments are deep-unioned (Fig. 9's "way to merge the two
/// XML fragments").
pub fn fetch_merge(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
) -> Result<Vec<Element>, GupsterError> {
    fetch_merge_inner(pool, referral, store_signer, now, keys, None, false)
}

/// [`fetch_merge`] nested under a caller-owned trace: records a
/// `fetch.merge` span with `token.verify` / per-fragment `store.fetch` /
/// `xml.merge` children, and bumps the signature-verification counter.
pub fn fetch_merge_traced(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
    tracer: &mut Tracer,
) -> Result<Vec<Element>, GupsterError> {
    tracer.enter(stage::FETCH_MERGE);
    let out = fetch_merge_inner(pool, referral, store_signer, now, keys, Some(tracer), false);
    tracer.exit();
    out
}

/// [`fetch_merge`] with per-store batching: a merge referral's
/// fragments are grouped by destination store and each store is charged
/// **one** fetch round (one ~50µs header) for its whole group instead
/// of one per fragment. Queries still run in referral-entry order, so
/// the merged result — and the error observed when a store is down —
/// are byte-identical to the unbatched path.
pub fn fetch_merge_batched(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
) -> Result<Vec<Element>, GupsterError> {
    fetch_merge_inner(pool, referral, store_signer, now, keys, None, true)
}

/// [`fetch_merge_batched`] nested under a caller-owned trace; records
/// one `store.fetch` span per destination store and bumps the
/// batched-fetch counter per coalesced round.
pub fn fetch_merge_batched_traced(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
    tracer: &mut Tracer,
) -> Result<Vec<Element>, GupsterError> {
    tracer.enter(stage::FETCH_MERGE);
    let out = fetch_merge_inner(pool, referral, store_signer, now, keys, Some(tracer), true);
    tracer.exit();
    out
}

fn fetch_merge_inner(
    pool: &StorePool,
    referral: &Referral,
    store_signer: &Signer,
    now: u64,
    keys: &MergeKeys,
    mut tracer: Option<&mut Tracer>,
    batch: bool,
) -> Result<Vec<Element>, GupsterError> {
    // Every store checks the token before answering (§5.3). A token
    // reused from the registry's referral-token cache carries a
    // signature the store has verified before, so its check is a memo
    // hit (~1µs) instead of an HMAC pass (~15µs).
    if let Some(t) = tracer.as_deref_mut() {
        t.hub().counters().signature_verifications.fetch_add(1, Ordering::Relaxed);
        let verify_cost = if referral.token_cached { 1 } else { 15 };
        t.span(stage::TOKEN_VERIFY, SimTime::micros(verify_cost));
    }
    store_signer
        .verify(&referral.token, now)
        .map_err(|e| GupsterError::Token(e.to_string()))?;

    // What the stores answered, in referral-entry order: subtrees lent
    // out of their resident documents (or documents an adapter built),
    // never copies. A fragment's serialized size only feeds the
    // simulated charges, so it is counted once, and only when tracing.
    let mut fragments: Vec<Fragment<'_>> = Vec::new();
    let mut fragment_bytes = 0usize;
    let traced = tracer.is_some();
    let mut fetch = |entry: &ReferralEntry| {
        let store = pool
            .get(&entry.store)
            .ok_or_else(|| GupsterError::Store(format!("store {} unreachable", entry.store)))?;
        let got = store.fragments(&entry.path).map_err(|e| GupsterError::Store(e.to_string()))?;
        let bytes: usize = if traced { got.iter().map(Fragment::byte_size).sum() } else { 0 };
        fragment_bytes += bytes;
        fragments.extend(got);
        Ok::<usize, GupsterError>(bytes)
    };
    if referral.merge_required && batch {
        // Batched: fragments bound for the same store share one fetch
        // round. Queries run in entry order (identical fragment order
        // and error precedence to the unbatched arm below); only the
        // cost accounting coalesces — one header charge per store over
        // the group's total bytes.
        let mut groups: Vec<(&StoreId, usize)> = Vec::new();
        for entry in &referral.entries {
            let bytes = fetch(entry)?;
            match groups.iter_mut().find(|(store, _)| *store == &entry.store) {
                Some((_, total)) => *total += bytes,
                None => groups.push((&entry.store, bytes)),
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            for (_, bytes) in &groups {
                t.hub().counters().batched_fetches.fetch_add(1, Ordering::Relaxed);
                t.span(stage::STORE_FETCH, fetch_cost(*bytes));
            }
        }
    } else if referral.merge_required {
        // Every fragment source must answer (there is no alternative
        // holding the same fragment unless it was listed as a choice).
        for entry in &referral.entries {
            let bytes = fetch(entry)?;
            if let Some(t) = tracer.as_deref_mut() {
                t.span(stage::STORE_FETCH, fetch_cost(bytes));
            }
        }
    } else {
        // Choice referral (`||`): the alternatives are interchangeable —
        // fail over down the list (Req. 12 reliability: any replica
        // answers).
        let mut last_err = GupsterError::Store("referral had no choices".into());
        let mut served = false;
        for entry in referral.choices() {
            match fetch(entry) {
                Ok(bytes) => {
                    if let Some(t) = tracer.as_deref_mut() {
                        t.span(stage::STORE_FETCH, fetch_cost(bytes));
                    }
                    served = true;
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        if !served {
            return Err(last_err);
        }
    }

    // Merge fragments denoting the same logical node, straight over the
    // lent subtrees: accumulators graft unchanged subtrees by
    // id-reference so only the changed spine is ever allocated. The
    // result is byte-identical to the owned deep-union (the arena merge
    // mirrors its grammar, key precedence and conflict rules exactly).
    if let Some(t) = tracer.as_deref_mut() {
        t.span(stage::XML_PARSE, parse_compute_cost(fragment_bytes));
    }
    let out = fold(&fragments, keys);
    // The one materialization of the answer, at the `Vec<Element>`
    // boundary the callers fix.
    let result: Vec<Element> = out.iter().map(MergeOut::to_element).collect();
    if let Some(t) = tracer {
        let mut spine = MergeStats::default();
        for m in &out {
            let s = m.stats();
            spine.fresh_nodes += s.fresh_nodes;
            spine.shared_subtrees += s.shared_subtrees;
            spine.shared_nodes += s.shared_nodes;
        }
        t.span(stage::XML_MERGE, merge_spine_cost(&spine));
        let bytes: usize = result.iter().map(Element::byte_size).sum();
        t.span(stage::XML_SERIALIZE, serialize_compute_cost(bytes));
    }
    Ok(result)
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

/// A singleflight table: dedups identical in-flight
/// `(owner, requester, referral)` fetches within one scatter window, so
/// a burst of identical requests hits each store **once**.
///
/// Answers are held, not handed out: [`Singleflight::fetch_merge`]
/// returns a [`FlightTicket`] and the window's worker redeems its
/// tickets with [`Singleflight::collect`] once the window's fetches are
/// done. The last ticket on an answer takes the original, so an answer
/// nobody duplicated is never copied; only actual duplicates clone.
///
/// The table is window-scoped by construction: callers create one per
/// scatter-gather batch (stores are quiescent within a window) and drop
/// it afterwards — there is no TTL and no invalidation, which is what
/// keeps a hit byte-identical to a recompute. Cross-window caching is
/// [`crate::cache::CachedClient`]'s job.
#[derive(Debug, Default)]
pub struct Singleflight {
    /// Coalescing key → position in `answers`.
    table: HashMap<String, usize>,
    /// Each fetched answer with the number of tickets still out on it.
    answers: Vec<(Vec<Element>, usize)>,
    /// Fetches answered from the table.
    pub hits: u64,
    /// Fetches that went to the stores.
    pub misses: u64,
}

/// A claim on one answer held by a [`Singleflight`] window.
#[derive(Debug)]
pub struct FlightTicket(usize);

impl Singleflight {
    /// An empty table for one scatter window.
    pub fn new() -> Self {
        Singleflight::default()
    }

    /// The coalescing key: owner, requester and the full referral shape
    /// (every `store=path` entry plus the merge/choice marker). Two
    /// requests coalesce only when the registry resolved them to the
    /// same fragments for the same principal.
    pub fn key(referral: &Referral, requester: &str) -> String {
        let mut k = String::with_capacity(64);
        k.push_str(&referral.token.user);
        k.push('\u{0}');
        k.push_str(requester);
        k.push('\u{0}');
        k.push(if referral.merge_required { '+' } else { '|' });
        for e in &referral.entries {
            k.push('\u{0}');
            k.push_str(&e.store.0);
            k.push('=');
            write!(k, "{}", e.path).expect("writing to a String cannot fail");
        }
        k
    }

    /// [`fetch_merge`] through the table: a duplicate of an in-window
    /// fetch gets a ticket on the first answer without touching the
    /// pool. `batch` selects the batched cost model on a miss; errors
    /// are never cached (the next duplicate retries the stores).
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_merge(
        &mut self,
        pool: &StorePool,
        referral: &Referral,
        requester: &str,
        store_signer: &Signer,
        now: u64,
        keys: &MergeKeys,
        batch: bool,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<FlightTicket, GupsterError> {
        let key = Self::key(referral, requester);
        if let Some(&slot) = self.table.get(&key) {
            self.hits += 1;
            if let Some(t) = tracer.as_deref_mut() {
                t.hub().counters().singleflight_hits.fetch_add(1, Ordering::Relaxed);
                t.span(stage::SINGLEFLIGHT_HIT, SimTime::micros(1));
            }
            self.answers[slot].1 += 1;
            return Ok(FlightTicket(slot));
        }
        let out = fetch_merge_inner(pool, referral, store_signer, now, keys, tracer, batch)?;
        self.misses += 1;
        self.table.insert(key, self.answers.len());
        self.answers.push((out, 1));
        Ok(FlightTicket(self.answers.len() - 1))
    }

    /// Redeems a ticket: a clone of the answer while other tickets are
    /// still out on it, the answer itself for the last one.
    pub fn collect(&mut self, ticket: FlightTicket) -> Vec<Element> {
        let (answer, outstanding) = &mut self.answers[ticket.0];
        *outstanding -= 1;
        if *outstanding == 0 {
            std::mem::take(answer)
        } else {
            answer.clone()
        }
    }
}

#[cfg(test)]
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

    #[test]
    fn batched_fetch_identical_to_unbatched() {
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
        let plain = fetch_merge(&pool, &out.referral, &signer, 110, &keys()).unwrap();
        let batched = fetch_merge_batched(&pool, &out.referral, &signer, 110, &keys()).unwrap();
        assert_eq!(plain, batched);
    }

    /// A store that cannot lend: every fragment is a document built for
    /// the answer, the way an LDAP or relational adapter answers.
    struct BuildingStore(XmlStore);

    impl DataStore for BuildingStore {
        fn id(&self) -> &StoreId {
            self.0.id()
        }
        fn fragments(&self, path: &Path) -> Result<Vec<Fragment<'_>>, StoreError> {
            let built = self.0.query(path)?;
            Ok(built.iter().map(|e| Fragment::built(ArenaDoc::from_element(e))).collect())
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
        let referral = |entries: &[(&str, &str)], merge_required: bool| Referral {
            entries: entries
                .iter()
                .map(|(store, path)| ReferralEntry {
                    store: StoreId::new(*store),
                    path: p(path),
                    complete: !merge_required,
                })
                .collect(),
            merge_required,
            token: signer.sign("a", "a", entries.iter().map(|(_, path)| path.to_string()).collect(), 100),
            token_cached: false,
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
            let plain = render(fetch_merge(&lent, referral, &signer, *now, &keys()));
            assert_eq!(plain, render(fetch_merge(&built, referral, &signer, *now, &keys())), "{what}");
            let batched = render(fetch_merge_batched(&lent, referral, &signer, *now, &keys()));
            assert_eq!(batched, render(fetch_merge_batched(&built, referral, &signer, *now, &keys())), "{what} (batched)");
            assert_eq!(plain, batched, "{what}: batching changes charges, not answers");
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
            let fragments: Vec<Fragment<'_>> =
                stores.iter().flat_map(|s| s.fragments(&path).unwrap()).collect();
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
    fn singleflight_serves_duplicates_from_first_answer() {
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
        let mut sf = Singleflight::new();
        let first = sf
            .fetch_merge(&pool, &out.referral, "arnaud", &signer, 110, &keys(), false, None)
            .unwrap();
        let second = sf
            .fetch_merge(&pool, &out.referral, "arnaud", &signer, 110, &keys(), false, None)
            .unwrap();
        assert_eq!((sf.hits, sf.misses), (1, 1));
        let first = sf.collect(first);
        let second = sf.collect(second);
        assert_eq!(first, second);
        assert_eq!(first, fetch_merge(&pool, &out.referral, &signer, 110, &keys()).unwrap());
        // A different requester never coalesces onto another principal's
        // answer.
        assert_ne!(Singleflight::key(&out.referral, "arnaud"), Singleflight::key(&out.referral, "mallory"));
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
        assert_eq!(pool.ids().count(), 2);
        assert!(pool
            .update(&StoreId::new("ghost"), "arnaud", &UpdateOp::Delete(p("/user/presence")))
            .is_err());
    }
}
