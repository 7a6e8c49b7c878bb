//! The GUP-compliant data-store interface.

use std::fmt;
use std::sync::Arc;

use gupster_xml::{ArenaDoc, Element, NodeId};
use gupster_xpath::{Axis, Path, Predicate};

use crate::error::StoreError;

/// Identifier of a data store, e.g. `gup.yahoo.com` — the referral
/// targets the paper returns from the GUPster server (§4.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreId(pub String);

impl StoreId {
    /// Creates a store id.
    pub fn new(s: impl Into<String>) -> Self {
        StoreId(s.into())
    }
}

impl fmt::Display for StoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// What a store can do; the registry consults this when choosing query
/// patterns (§5.2: thin clients cannot merge, some stores cannot chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Supports XPath-targeted updates.
    pub can_update: bool,
    /// Supports change subscriptions.
    pub can_subscribe: bool,
    /// Can execute a forwarded (chained) query against *other* stores.
    pub can_chain: bool,
}

impl Capabilities {
    /// Full capabilities.
    pub(crate) const FULL: Capabilities =
        Capabilities { can_update: true, can_subscribe: true, can_chain: true };
}

/// An update operation, targeted by an XPath expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Replace the text content of every node the path selects.
    SetText(Path, String),
    /// Set an attribute on every node the path selects.
    SetAttr(Path, String, String),
    /// Append `element` as a child of every node the path selects.
    InsertChild(Path, Element),
    /// Delete every node the path selects.
    Delete(Path),
    /// Replace every node the path selects with the whole of `doc` — a
    /// replica's document, say, written back. A store that keeps arena
    /// documents takes its rows as they are, sharing its value bytes.
    Replace(Path, ArenaDoc),
}

impl UpdateOp {
    /// The target path of the operation.
    pub(crate) fn path(&self) -> &Path {
        match self {
            UpdateOp::SetText(p, _)
            | UpdateOp::SetAttr(p, _, _)
            | UpdateOp::InsertChild(p, _)
            | UpdateOp::Delete(p)
            | UpdateOp::Replace(p, _) => p,
        }
    }
}

/// The owner a query path names with an `[@id='…']` predicate on its
/// first step, if that step is a child step (the profile root): only
/// that owner's profile can match. On `//item[@id='1']` the predicate
/// names an item, not an owner.
pub(crate) fn owner_of(path: &Path) -> Option<&str> {
    let first = path.steps.first().filter(|s| s.axis == Axis::Child)?;
    first.predicates.iter().find_map(|p| match p {
        Predicate::AttrEq(a, v) if a == "id" => Some(v.as_str()),
        _ => None,
    })
}

/// A change notification emitted by a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeEvent {
    /// The user whose profile changed.
    pub user: String,
    /// The path that was written.
    pub path: Path,
    /// The store's generation after the write.
    pub generation: u64,
}

/// One fragment of a store's answer: a subtree of an arena document,
/// either **lent** out of a document the store keeps resident (nothing
/// is copied; the borrow keeps the store read-only while the answer is
/// in use) or **built** for this answer by a store whose backend is not
/// XML (an adapter's translated view, shared by every fragment selected
/// from it).
///
/// Readers do not care which: [`Fragment::doc`] and [`Fragment::node`]
/// are what the arena merge and serializer take.
#[derive(Debug)]
pub struct Fragment<'a> {
    doc: Source<'a>,
    node: NodeId,
}

/// Where a fragment's document lives. A built one is reference
/// counted, so that a fragment stays three words either way (every
/// fetch collects its fragments by value, into one buffer) and the
/// fragments selected from one view share it.
#[derive(Debug)]
enum Source<'a> {
    Lent(&'a ArenaDoc),
    Built(Arc<ArenaDoc>),
}

impl<'a> Fragment<'a> {
    /// The subtree of the resident `doc` at `node`.
    pub(crate) fn lent(doc: &'a ArenaDoc, node: NodeId) -> Self {
        Fragment { doc: Source::Lent(doc), node }
    }

    /// A document built for this answer; the fragment is all of it.
    pub fn built(doc: ArenaDoc) -> Self {
        let node = doc.root();
        Fragment { doc: Source::Built(Arc::new(doc)), node }
    }

    /// Appends what `path` selects in `view` to `out`, one built
    /// fragment per selected node — how an adapter answers from the GUP
    /// view it translated its backend into. The view becomes one arena
    /// document, which its fragments share.
    pub(crate) fn select_built(path: &Path, view: &Element, out: &mut Vec<Self>) {
        let doc = Arc::new(ArenaDoc::from_element(view));
        let mut ids = Vec::new();
        path.select_arena(&doc, &mut ids);
        out.extend(ids.into_iter().map(|node| Fragment { doc: Source::Built(Arc::clone(&doc)), node }));
    }

    /// The document the fragment lives in.
    pub fn doc(&self) -> &ArenaDoc {
        match &self.doc {
            Source::Lent(doc) => doc,
            Source::Built(doc) => doc,
        }
    }

    /// The fragment's root within [`Fragment::doc`].
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fragment as an owned tree, sharing the document's value
    /// bytes (see [`ArenaDoc::to_element`]).
    pub(crate) fn to_element(&self) -> Element {
        self.doc().to_element(self.node)
    }

    /// Serialized size of the fragment, counted without serializing.
    pub(crate) fn byte_size(&self) -> usize {
        self.doc().byte_size(self.node)
    }
}

/// The GUP-compliant interface every participating store exposes
/// (natively or through an adapter).
///
/// `Send + Sync` is a supertrait: stores are plain owned data (no
/// interior mutability anywhere in the workspace), and the sharded
/// front end fans scoped workers out over a shared `&StorePool`, which
/// requires the trait objects inside to be shareable.
pub trait DataStore: Send + Sync {
    /// The store's identity (referral target).
    fn id(&self) -> &StoreId;

    /// Evaluates a query path and appends the selected fragments to
    /// `out` — the store's one read. A request like
    /// `/user[@id='arnaud']/address-book` appends the address-book
    /// subtree(s), lent or built (see [`Fragment`]). The caller's
    /// buffer collects a whole fetch, whatever the number of stores it
    /// asks. On an error, what was appended before it stays.
    fn fragments<'a>(&'a self, path: &Path, out: &mut Vec<Fragment<'a>>) -> Result<(), StoreError>;

    /// [`DataStore::fragments`] as owned trees. They copy no value
    /// bytes: each shares its document's buffer, and keeps it alive.
    fn query(&self, path: &Path) -> Result<Vec<Element>, StoreError> {
        let mut got = Vec::new();
        self.fragments(path, &mut got)?;
        Ok(got.iter().map(Fragment::to_element).collect())
    }

    /// Applies an update for the given user.
    fn update(&mut self, user: &str, op: &UpdateOp) -> Result<(), StoreError>;

    /// Users this store holds data for.
    fn users(&self) -> Vec<String>;

    /// Monotone modification counter.
    fn generation(&self) -> u64;

    /// Capability discovery.
    fn capabilities(&self) -> Capabilities;

    /// Drains pending change events (empty if subscriptions are
    /// unsupported). GUPster's subscription manager polls or forwards
    /// these (§5.2).
    fn drain_events(&mut self) -> Vec<ChangeEvent>;

    /// Serialized size of the result a query would return — used by the
    /// network simulator to charge transfer time without materializing
    /// the answer.
    fn result_bytes(&self, path: &Path) -> usize {
        let mut got = Vec::new();
        match self.fragments(path, &mut got) {
            Ok(()) => got.iter().map(Fragment::byte_size).sum(),
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_id_display() {
        assert_eq!(StoreId::new("gup.yahoo.com").to_string(), "gup.yahoo.com");
    }

    #[test]
    fn update_op_paths() {
        let p = Path::parse("/user/presence").unwrap();
        let op = UpdateOp::SetText(p.clone(), "busy".into());
        assert_eq!(op.path(), &p);
        let op = UpdateOp::Delete(p.clone());
        assert_eq!(op.path(), &p);
    }

    #[test]
    fn full_capabilities() {
        let c = Capabilities::FULL;
        assert!(c.can_update && c.can_subscribe && c.can_chain);
    }
}
