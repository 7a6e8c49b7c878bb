//! Arena XML documents: the zero-copy hot-path representation.
//!
//! The owned [`Element`] tree allocates a `Vec` for every child and
//! attribute list, and a parsed or built one a buffer for every
//! attribute value and text run — at millions of fetches that is the
//! dominant cost of the read path once lookups are indexed (DESIGN.md
//! §10). An [`ArenaDoc`] stores the same document as flat `Vec`s
//! addressed by [`NodeId`]:
//!
//! * element and attribute **names** are interned through
//!   [`NameInterner`] and stored as 4-byte [`NameId`]s;
//! * **text and attribute values** are byte ranges over one shared
//!   value buffer. A parse keeps a copy of its input as that buffer and
//!   holds character data on its own only when the source bytes are not
//!   literal (entity references, CDATA, or a text run interrupted by a
//!   comment); [`ArenaDoc::from_element`] and [`ArenaDoc::compact`] pack
//!   every value into a buffer sized exactly for it;
//! * **child lists and attribute lists** are contiguous ranges in two
//!   shared vectors, so a built document is five exactly-sized blocks —
//!   four tables and the buffer — regardless of node count. (Building
//!   one allocates a sixth: the `String` the values are packed into
//!   before they move into the shared buffer.)
//!
//! A tree materialized from an arena ([`ArenaDoc::to_element`]) copies
//! neither: its names are the interned `&'static str`s ([`crate::Name`])
//! and its values are [`Value`]s over the arena's buffer, so the tree
//! costs only its child and attribute lists. It keeps the buffer alive,
//! which is what lets an answer outlive the edits and compactions that
//! follow it unchanged.
//!
//! Edits append rows and hold the values they write on their own until
//! the next [`ArenaDoc::compact`], which packs them into a fresh buffer;
//! see the edit methods.
//!
//! [`ArenaDoc::parse`] and the owned [`crate::parse`] are two builders
//! over one scanner (`scan.rs`), so they accept and reject exactly the
//! same inputs by construction. The owned tree remains the differential
//! oracle for the rest: [`ArenaDoc::to_element`] must equal the owned
//! parse, and [`ArenaDoc::to_xml`] must be byte-identical to the owned
//! serializer. `tests/xml_differential.rs` enforces this over seeded
//! random documents, and `crates/xml/tests/arena_model.rs` holds the
//! edit methods to the owned tree edited alike.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::error::ParseError;
use crate::escape::{escape_attr, escape_text, escaped_attr_len, escaped_text_len};
use crate::intern::{NameId, NameInterner};
use crate::node::{Element, Node};
use crate::scan::{scan, Chars, Sink};
use crate::value::{offset, Value};
use crate::writer::tag_len;

/// Index of an element node inside an [`ArenaDoc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A text or attribute value: either a byte range over the value
/// buffer or an index into the held values (a parse's entity, CDATA and
/// comment-interrupted runs, and values written by edits).
#[derive(Debug, Clone, Copy)]
enum AVal {
    Slice(u32, u32),
    Held(u32),
}

/// One element: interned name plus contiguous ranges into the shared
/// attribute and child vectors.
#[derive(Debug, Clone, Copy)]
struct AElem {
    name: NameId,
    attr_start: u32,
    attr_end: u32,
    kid_start: u32,
    kid_end: u32,
}

/// One slot in the flat child vector.
#[derive(Debug, Clone, Copy)]
enum AKid {
    Elem(NodeId),
    Text(u32),
}

/// A child of an arena element, as seen through `ArenaDoc::children`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArenaChild<'d> {
    /// A nested element, addressed by id.
    Elem(NodeId),
    /// A run of character data (entities already resolved).
    Text(&'d str),
}

/// A parsed XML document in arena form. See the module docs for the
/// representation; the public surface mirrors the read-only half of
/// [`Element`] (names, attributes, children, text) plus lossless
/// conversions to and from the owned tree.
#[derive(Debug, Clone)]
pub struct ArenaDoc {
    /// The value buffer slices point into: the retained input of a
    /// parsed document, or the packed values of a built or compacted
    /// one. Every value materialized from the document shares it.
    buf: Value,
    elems: Vec<AElem>,
    attrs: Vec<(NameId, AVal)>,
    kids: Vec<AKid>,
    texts: Vec<AVal>,
    /// Values held outside the buffer, live or dead, addressed by
    /// [`AVal::Held`].
    held: Vec<Value>,
    root: NodeId,
    /// Rows of the four tables no longer reachable from `root`: what
    /// the in-place edits below orphaned. See [`ArenaDoc::compact`].
    /// The counters are `u32` like every offset here, which keeps the
    /// struct small: built fragments travel by value.
    dead: u32,
    /// Value bytes of every attribute and text row, live or dead.
    value_bytes: u32,
    /// The part of `value_bytes` held by superseded values.
    dead_bytes: u32,
}

/// Exact table and buffer sizes of a document, from one counting walk.
#[derive(Default)]
struct Room {
    elems: usize,
    attrs: usize,
    kids: usize,
    texts: usize,
    bytes: usize,
}

impl Room {
    fn rows(&self) -> usize {
        self.elems + self.attrs + self.kids + self.texts
    }

    fn of_element(e: &Element) -> Room {
        fn tally(e: &Element, r: &mut Room) {
            r.elems += 1;
            r.attrs += e.attrs.len();
            r.kids += e.children.len();
            r.bytes += e.attrs.iter().map(|(_, v)| v.len()).sum::<usize>();
            for ch in &e.children {
                match ch {
                    Node::Element(c) => tally(c, r),
                    Node::Text(t) => {
                        r.texts += 1;
                        r.bytes += t.len();
                    }
                }
            }
        }
        let mut r = Room::default();
        tally(e, &mut r);
        r
    }
}

impl ArenaDoc {
    /// Parses a complete XML document into arena form, retaining a copy
    /// of the input as the value buffer. Accepts and rejects exactly
    /// the inputs the owned [`crate::parse`] does, with the same errors,
    /// and applies the same whitespace normalization: both read the
    /// input through one scanner.
    pub fn parse(input: &str) -> Result<ArenaDoc, ParseError> {
        let mut rows = Rows { doc: ArenaDoc::empty(), scratch: Vec::new(), open: Vec::new() };
        scan(input, &mut rows)?;
        let mut doc = rows.doc;
        doc.buf = Value::from(input);
        let values = doc.texts.iter().chain(doc.attrs.iter().map(|(_, v)| v));
        doc.value_bytes = offset(values.map(|&v| doc.val(v).len()).sum());
        Ok(doc)
    }

    fn empty() -> ArenaDoc {
        ArenaDoc {
            buf: Value::default(),
            elems: Vec::new(),
            attrs: Vec::new(),
            kids: Vec::new(),
            texts: Vec::new(),
            held: Vec::new(),
            root: NodeId(0),
            dead: 0,
            value_bytes: 0,
            dead_bytes: 0,
        }
    }

    /// Converts an owned tree into arena form, losslessly (no
    /// whitespace normalization — the tree is taken as-is). Names are
    /// interned; values are packed into one buffer. The four tables and
    /// the buffer are sized exactly by one counting walk first: none is
    /// regrown, and no slack is kept resident.
    pub fn from_element(e: &Element) -> ArenaDoc {
        let room = Room::of_element(e);
        let mut doc = ArenaDoc::with_room(&room);
        let mut cv = Convert::new(Some(String::with_capacity(room.bytes)));
        doc.root = doc.add_element(e, &mut cv);
        doc.buf = Value::from(cv.packed.unwrap_or_default());
        doc
    }

    /// An empty document whose tables have exactly `room`.
    fn with_room(room: &Room) -> ArenaDoc {
        ArenaDoc {
            elems: Vec::with_capacity(room.elems),
            attrs: Vec::with_capacity(room.attrs),
            kids: Vec::with_capacity(room.kids),
            texts: Vec::with_capacity(room.texts),
            ..ArenaDoc::empty()
        }
    }

    /// A value appended to `packed`, the buffer-to-be of a build or a
    /// compaction — how those store values.
    fn pack(&mut self, packed: &mut String, v: &str) -> AVal {
        let start = offset(packed.len());
        packed.push_str(v);
        self.value_bytes += v.len() as u32;
        AVal::Slice(start, offset(packed.len()))
    }

    /// A value held on its own, its bytes shared rather than copied —
    /// how edits store values until the next [`ArenaDoc::compact`], so
    /// a write never copies the buffer.
    fn hold(&mut self, v: Value) -> AVal {
        self.value_bytes += v.len() as u32;
        hold(&mut self.held, v)
    }

    /// Starts an element whose attribute rows (from `attr_start` on) are
    /// already in place; its children collect in `scratch` above the
    /// returned mark until [`ArenaDoc::close`].
    fn open(&mut self, name: NameId, attr_start: usize, scratch: &[AKid]) -> (NodeId, usize) {
        let id = NodeId(self.elems.len() as u32);
        self.elems.push(AElem {
            name,
            attr_start: attr_start as u32,
            attr_end: self.attrs.len() as u32,
            kid_start: 0,
            kid_end: 0,
        });
        (id, scratch.len())
    }

    /// Moves the children collected since `mark` into one contiguous
    /// range of the child table.
    fn close(&mut self, id: NodeId, mark: usize, scratch: &mut Vec<AKid>) -> NodeId {
        let kid_start = self.kids.len() as u32;
        self.kids.extend(scratch.drain(mark..));
        let slot = &mut self.elems[id.0 as usize];
        slot.kid_start = kid_start;
        slot.kid_end = self.kids.len() as u32;
        id
    }

    fn add_text(&mut self, v: AVal, scratch: &mut Vec<AKid>) {
        scratch.push(AKid::Text(self.texts.len() as u32));
        self.texts.push(v);
    }

    /// Appends the rows of `e`.
    fn add_element(&mut self, e: &Element, cv: &mut Convert) -> NodeId {
        let attr_start = self.attrs.len();
        for (n, v) in &e.attrs {
            let v = cv.store(self, v);
            self.attrs.push((cv.intern(n), v));
        }
        let (id, mark) = self.open(cv.intern(&e.name), attr_start, &cv.scratch);
        for ch in &e.children {
            match ch {
                Node::Element(c) => {
                    let cid = self.add_element(c, cv);
                    cv.scratch.push(AKid::Elem(cid));
                }
                Node::Text(t) => {
                    let v = cv.store(self, t);
                    self.add_text(v, &mut cv.scratch);
                }
            }
        }
        self.close(id, mark, &mut cv.scratch)
    }

    /// The document element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The interned name of `id`.
    pub(crate) fn name_id(&self, id: NodeId) -> NameId {
        self.elems[id.0 as usize].name
    }

    /// The tag name of `id`.
    pub fn name(&self, id: NodeId) -> &'static str {
        NameInterner::resolve(self.name_id(id))
    }

    fn val(&self, v: AVal) -> &str {
        match v {
            AVal::Slice(s, e) => &self.buf[s as usize..e as usize],
            AVal::Held(i) => &self.held[i as usize],
        }
    }

    /// `v` as a [`Value`] that shares its bytes: a range of the buffer
    /// or a held value, nothing copied.
    fn value(&self, v: AVal) -> Value {
        match v {
            AVal::Slice(s, e) => self.buf.slice(s, e),
            AVal::Held(i) => self.held[i as usize].clone(),
        }
    }

    /// The attribute rows of `id` in document order, with their interned
    /// names — what the merge reads, with no resolve-then-intern round
    /// trip.
    pub(crate) fn attr_rows(&self, id: NodeId) -> impl Iterator<Item = (NameId, &str)> {
        let e = &self.elems[id.0 as usize];
        self.attrs[e.attr_start as usize..e.attr_end as usize]
            .iter()
            .map(|&(n, v)| (n, self.val(v)))
    }

    /// The value of the named attribute of `id`, if present.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        // A name that was never interned cannot be on any node.
        let nid = NameInterner::lookup(name)?;
        self.attr_by_id(id, nid)
    }

    /// [`ArenaDoc::attr`] with a pre-interned name — integer probes
    /// only, for the merge hot path.
    pub(crate) fn attr_by_id(&self, id: NodeId, name: NameId) -> Option<&str> {
        self.attr_rows(id).find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Number of attributes on `id`.
    pub fn attr_count(&self, id: NodeId) -> usize {
        let e = &self.elems[id.0 as usize];
        (e.attr_end - e.attr_start) as usize
    }

    /// The children of `id` in document order.
    pub(crate) fn children(&self, id: NodeId) -> impl Iterator<Item = ArenaChild<'_>> {
        let e = &self.elems[id.0 as usize];
        self.kids[e.kid_start as usize..e.kid_end as usize].iter().map(|k| match k {
            AKid::Elem(c) => ArenaChild::Elem(*c),
            AKid::Text(t) => ArenaChild::Text(self.val(self.texts[*t as usize])),
        })
    }

    /// The element children of `id`, skipping text.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter_map(|k| match k {
            ArenaChild::Elem(c) => Some(c),
            ArenaChild::Text(_) => None,
        })
    }

    /// The concatenation of the direct text children of `id`. Borrows
    /// straight from the arena when there is at most one text child
    /// (the overwhelmingly common case for profile leaves).
    pub fn text(&self, id: NodeId) -> Cow<'_, str> {
        let mut texts = self.children(id).filter_map(|k| match k {
            ArenaChild::Text(t) => Some(t),
            ArenaChild::Elem(_) => None,
        });
        let Some(first) = texts.next() else { return Cow::Borrowed("") };
        match texts.next() {
            None => Cow::Borrowed(first),
            Some(second) => {
                let mut out = String::with_capacity(first.len() + second.len());
                out.push_str(first);
                out.push_str(second);
                for t in texts {
                    out.push_str(t);
                }
                Cow::Owned(out)
            }
        }
    }

    /// Total number of element nodes in the document.
    pub fn node_count(&self) -> usize {
        self.elems.len()
    }

    /// Number of element nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        1 + self.child_elements(id).map(|c| self.subtree_size(c)).sum::<usize>()
    }

    /// Bytes of character data held outside the buffer, live or dead:
    /// entity, CDATA and comment-interrupted runs of a parse, and values
    /// written by edits since the last [`ArenaDoc::compact`]. Zero for a
    /// clean parse — the zero-copy claim, measurable — and for a built
    /// or compacted document.
    pub fn owned_value_bytes(&self) -> usize {
        self.held.iter().map(|v| v.len()).sum()
    }

    /// Heap bytes the document holds, by capacity: the four tables, the
    /// buffer, and every held value with its table.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.buf.len()
            + self.elems.capacity() * size_of::<AElem>()
            + self.attrs.capacity() * size_of::<(NameId, AVal)>()
            + self.kids.capacity() * size_of::<AKid>()
            + self.texts.capacity() * size_of::<AVal>()
            + self.held.capacity() * size_of::<Value>()
            + self.owned_value_bytes()
    }

    /// Converts the subtree at `id` back into an owned [`Element`]. Its
    /// names borrow the interned `&'static str`s and its values share
    /// the document's bytes ([`Value`]): the only allocations are the
    /// non-empty child and attribute lists.
    pub fn to_element(&self, id: NodeId) -> Element {
        let e = &self.elems[id.0 as usize];
        Element {
            name: Cow::Borrowed(self.name(id)),
            attrs: self.attrs[e.attr_start as usize..e.attr_end as usize]
                .iter()
                .map(|&(n, v)| (Cow::Borrowed(NameInterner::resolve(n)), self.value(v)))
                .collect(),
            children: self.kids[e.kid_start as usize..e.kid_end as usize]
                .iter()
                .map(|k| match k {
                    AKid::Elem(c) => Node::Element(self.to_element(*c)),
                    AKid::Text(t) => Node::Text(self.value(self.texts[*t as usize])),
                })
                .collect(),
        }
    }

    /// The whole document as an owned [`Element`].
    pub fn root_element(&self) -> Element {
        self.to_element(self.root)
    }

    /// Serializes the subtree at `id` in compact form, byte-identical
    /// to [`Element::to_xml`] of the same tree. Values are stored
    /// unescaped, so escaping happens on the way out.
    pub(crate) fn serialize_node(&self, id: NodeId, out: &mut String) {
        let e = &self.elems[id.0 as usize];
        out.push('<');
        out.push_str(self.name(id));
        for &(n, v) in &self.attrs[e.attr_start as usize..e.attr_end as usize] {
            out.push(' ');
            out.push_str(NameInterner::resolve(n));
            out.push_str("=\"");
            escape_attr(self.val(v), out);
            out.push('"');
        }
        if e.kid_start == e.kid_end {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for k in &self.kids[e.kid_start as usize..e.kid_end as usize] {
            match k {
                AKid::Elem(c) => self.serialize_node(*c, out),
                AKid::Text(t) => escape_text(self.val(self.texts[*t as usize]), out),
            }
        }
        out.push_str("</");
        out.push_str(self.name(id));
        out.push('>');
    }

    /// Compact serialization of the whole document.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.buf.len());
        self.serialize_node(self.root, &mut out);
        out
    }

    /// Length of `ArenaDoc::serialize_node`'s output for `id`, counted
    /// without building it — the arena twin of [`Element::byte_size`].
    pub fn byte_size(&self, id: NodeId) -> usize {
        let e = &self.elems[id.0 as usize];
        let attrs: usize = self.attrs[e.attr_start as usize..e.attr_end as usize]
            .iter()
            .map(|&(n, v)| {
                tag_len::attr(NameInterner::resolve(n).len(), escaped_attr_len(self.val(v)))
            })
            .sum();
        let kids: usize = self.kids[e.kid_start as usize..e.kid_end as usize]
            .iter()
            .map(|k| match k {
                AKid::Elem(c) => self.byte_size(*c),
                AKid::Text(t) => escaped_text_len(self.val(self.texts[*t as usize])),
            })
            .sum();
        tag_len::element(self.name(id).len(), attrs, e.kid_start == e.kid_end, kids)
    }
}

/// One conversion of an owned tree into arena rows.
struct Convert {
    /// Where values go: packed into this buffer-to-be (a build), or
    /// held as they are, their bytes shared (a graft).
    packed: Option<String>,
    /// Children of the open elements, as in [`ArenaDoc::open`].
    scratch: Vec<AKid>,
    /// The last few names interned. A profile repeats a handful of tag
    /// and attribute names, and comparing against these is cheaper
    /// than the interner's hashed lookup.
    names: [(&'static str, NameId); 8],
    next: usize,
}

impl Convert {
    fn new(packed: Option<String>) -> Convert {
        Convert { packed, scratch: Vec::new(), names: [("", NameId(u32::MAX)); 8], next: 0 }
    }

    fn store(&mut self, doc: &mut ArenaDoc, v: &Value) -> AVal {
        match &mut self.packed {
            Some(packed) => doc.pack(packed, v),
            None => doc.hold(v.clone()),
        }
    }

    fn intern(&mut self, name: &str) -> NameId {
        let seen = self.names.iter().take(self.next).find(|(n, _)| *n == name);
        if let Some(&(_, id)) = seen {
            return id;
        }
        let id = NameInterner::intern(name);
        self.names[self.next % 8] = (NameInterner::resolve(id), id);
        self.next += 1;
        id
    }
}

/// In-place edits: a native store applies its updates here.
///
/// Edits are **append-range**: a mutated element gets a fresh attribute
/// or child range appended to the flat tables and its header repointed,
/// while every untouched node keeps its rows — the same structural-
/// sharing discipline as [`crate::MergeOut`]. A value an edit writes is
/// held on its own, outside the buffer, until the next compaction; a
/// grafted tree's values are held as they are, sharing their bytes with
/// the tree (and whatever buffer it was materialized from). Superseded
/// rows and values become arena garbage, which the document counts
/// ([`ArenaDoc::dead_rows`], [`ArenaDoc::dead_value_bytes`]); whoever
/// keeps a document under editing bounds it by calling
/// [`ArenaDoc::compact`] once either dead count passes its live one.
impl ArenaDoc {
    /// Converts `e` into arena rows, returning the fresh subtree's root
    /// id. The subtree is unattached until a [`ArenaDoc::push_child`]
    /// or [`ArenaDoc::replace_child`].
    pub fn graft_element(&mut self, e: &Element) -> NodeId {
        self.add_element(e, &mut Convert::new(None))
    }

    fn rewrite_kids(&mut self, id: NodeId, new: Vec<AKid>) {
        let start = self.kids.len() as u32;
        self.kids.extend(new);
        let end = self.kids.len() as u32;
        let e = &mut self.elems[id.0 as usize];
        self.dead += e.kid_end - e.kid_start;
        e.kid_start = start;
        e.kid_end = end;
    }

    /// Table rows and value bytes the subtree at `id` occupies.
    fn tally(&self, id: NodeId, r: &mut Room) {
        let e = &self.elems[id.0 as usize];
        let attrs = &self.attrs[e.attr_start as usize..e.attr_end as usize];
        let kids = &self.kids[e.kid_start as usize..e.kid_end as usize];
        r.elems += 1;
        r.attrs += attrs.len();
        r.kids += kids.len();
        r.bytes += attrs.iter().map(|&(_, v)| self.val(v).len()).sum::<usize>();
        for k in kids {
            match k {
                AKid::Elem(c) => self.tally(*c, r),
                AKid::Text(t) => {
                    r.texts += 1;
                    r.bytes += self.val(self.texts[*t as usize]).len();
                }
            }
        }
    }

    /// Counts `rows` table rows and `bytes` value bytes as garbage.
    fn retire(&mut self, rows: usize, bytes: usize) {
        self.dead += rows as u32;
        self.dead_bytes += bytes as u32;
    }

    /// Counts the subtree at `id` as garbage.
    fn orphan(&mut self, id: NodeId) {
        let mut r = Room::default();
        self.tally(id, &mut r);
        self.retire(r.rows(), r.bytes);
    }

    /// Replaces all text children of `id` with a single text node at
    /// the end of the child list — exactly [`Element::set_text`].
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        let e = self.elems[id.0 as usize];
        let mut kids = Vec::with_capacity((e.kid_end - e.kid_start) as usize + 1);
        let (mut rows, mut bytes) = (0, 0);
        for &k in &self.kids[e.kid_start as usize..e.kid_end as usize] {
            match k {
                AKid::Elem(_) => kids.push(k),
                AKid::Text(t) => {
                    rows += 1;
                    bytes += self.val(self.texts[t as usize]).len();
                }
            }
        }
        self.retire(rows, bytes);
        let v = self.hold(Value::from(text));
        kids.push(AKid::Text(self.texts.len() as u32));
        self.texts.push(v);
        self.rewrite_kids(id, kids);
    }

    /// Sets an attribute on `id`, replacing any existing value for the
    /// same name (in place, keeping its position) or appending —
    /// exactly [`Element::set_attr`].
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let nid = NameInterner::intern(name);
        let e = self.elems[id.0 as usize];
        let old = e.attr_start as usize..e.attr_end as usize;
        let v = self.hold(Value::from(value));
        if let Some(slot) = old.clone().find(|&slot| self.attrs[slot].0 == nid) {
            let superseded = std::mem::replace(&mut self.attrs[slot].1, v);
            self.retire(0, self.val(superseded).len());
            return;
        }
        // The old rows die; their values move to the new range.
        let start = self.attrs.len() as u32;
        self.retire(old.len(), 0);
        self.attrs.reserve(old.len() + 1);
        self.attrs.extend_from_within(old);
        self.attrs.push((nid, v));
        let slot = &mut self.elems[id.0 as usize];
        slot.attr_start = start;
        slot.attr_end = self.attrs.len() as u32;
    }

    /// Removes the attribute `name` from `id`, keeping the order of the
    /// rest — exactly [`Element::remove_attr`]. Returns whether it was
    /// there. The attribute range shrinks where it lies; its last row
    /// and the removed value become garbage.
    pub fn remove_attr(&mut self, id: NodeId, name: &str) -> bool {
        let Some(nid) = NameInterner::lookup(name) else { return false };
        let e = self.elems[id.0 as usize];
        let range = e.attr_start as usize..e.attr_end as usize;
        let Some(slot) = range.clone().find(|&slot| self.attrs[slot].0 == nid) else {
            return false;
        };
        self.retire(1, self.val(self.attrs[slot].1).len());
        self.attrs[slot..range.end].rotate_left(1);
        self.elems[id.0 as usize].attr_end -= 1;
        true
    }

    /// Appends `child` (a node of this document, typically fresh from
    /// [`ArenaDoc::graft_element`]) to `parent`'s child list.
    pub fn push_child(&mut self, parent: NodeId, child: NodeId) {
        let e = self.elems[parent.0 as usize];
        let mut kids: Vec<AKid> =
            self.kids[e.kid_start as usize..e.kid_end as usize].to_vec();
        kids.push(AKid::Elem(child));
        self.rewrite_kids(parent, kids);
    }

    fn kid_slot(&self, parent: NodeId, child: NodeId) -> Option<usize> {
        let e = &self.elems[parent.0 as usize];
        (e.kid_start as usize..e.kid_end as usize)
            .find(|&slot| matches!(self.kids[slot], AKid::Elem(c) if c == child))
    }

    /// Removes element `child` from `parent`'s child list, preserving
    /// the order of the rest. Returns whether it was present. The
    /// removed subtree's rows become arena garbage.
    pub fn remove_child(&mut self, parent: NodeId, child: NodeId) -> bool {
        if self.kid_slot(parent, child).is_none() {
            return false;
        }
        self.orphan(child);
        let e = self.elems[parent.0 as usize];
        let kids: Vec<AKid> = self.kids[e.kid_start as usize..e.kid_end as usize]
            .iter()
            .filter(|k| !matches!(k, AKid::Elem(c) if *c == child))
            .copied()
            .collect();
        self.rewrite_kids(parent, kids);
        true
    }

    /// Puts `new` (a node of this document, typically fresh from
    /// [`ArenaDoc::graft_element`]) where `old` stands in `parent`'s
    /// child list. Returns whether `old` was there. The child row is
    /// overwritten where it is; only `old`'s subtree becomes garbage.
    pub fn replace_child(&mut self, parent: NodeId, old: NodeId, new: NodeId) -> bool {
        let Some(slot) = self.kid_slot(parent, old) else { return false };
        self.orphan(old);
        self.kids[slot] = AKid::Elem(new);
        true
    }

    /// The parent of every element reachable from the root, indexed by
    /// [`NodeId`] (`None` for the root and for garbage rows). One walk
    /// of the live tree — for edits that start from selected ids and
    /// need the list each one hangs in.
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut out = vec![None; self.elems.len()];
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            for c in self.child_elements(p) {
                out[c.0 as usize] = Some(p);
                stack.push(c);
            }
        }
        out
    }

    /// Table rows orphaned by edits since the document was built or
    /// last compacted.
    pub fn dead_rows(&self) -> usize {
        self.dead as usize
    }

    /// Table rows reachable from the root.
    pub fn live_rows(&self) -> usize {
        self.elems.len() + self.attrs.len() + self.kids.len() + self.texts.len() - self.dead_rows()
    }

    /// Value bytes superseded by edits since the document was built or
    /// last compacted: orphaned values, and overwritten ones.
    pub fn dead_value_bytes(&self) -> usize {
        self.dead_bytes as usize
    }

    /// Value bytes reachable from the root.
    pub fn live_value_bytes(&self) -> usize {
        (self.value_bytes - self.dead_bytes) as usize
    }

    /// [`ArenaDoc::compact`]s the document once its dead rows outnumber
    /// its live ones or its dead value bytes its live ones — the rule
    /// every holder of an edited document follows, so none grows past
    /// about twice what it holds. Says whether it compacted.
    pub fn compact_if_mostly_dead(&mut self) -> bool {
        let wasteful = self.dead_rows() > self.live_rows()
            || self.dead_value_bytes() > self.live_value_bytes();
        if wasteful {
            self.compact();
        }
        wasteful
    }

    /// Rebuilds the document from its live tree: the four tables sized
    /// exactly by one counting walk, every live value packed into a
    /// fresh, exactly-sized buffer, nothing dead left. Every [`NodeId`]
    /// handed out before is invalid afterwards. Values materialized
    /// before keep the old buffer, and with it the bytes they were read
    /// with.
    pub fn compact(&mut self) {
        let mut room = Room::default();
        self.tally(self.root, &mut room);
        let old = std::mem::replace(self, ArenaDoc::with_room(&room));
        let mut packed = Some(String::with_capacity(room.bytes));
        self.root = self.copy_subtree(&old, old.root, &mut packed, &mut Vec::new());
        self.buf = Value::from(packed.unwrap_or_default());
    }

    /// Copies the subtree at `id` of `src` into fresh rows of this
    /// document, returning their root, unattached like
    /// [`ArenaDoc::graft_element`]'s. Names are copied as ids, and
    /// values are held as they are: slices of `src`'s buffer and its
    /// held values, sharing their bytes, so no value byte is copied.
    /// This is how a store takes a replica's document.
    pub fn graft_subtree(&mut self, src: &ArenaDoc, id: NodeId) -> NodeId {
        self.copy_subtree(src, id, &mut None, &mut Vec::new())
    }

    /// Appends the rows of `old`'s subtree at `id`, its values packed
    /// into `packed` (a compaction) or held, sharing `old`'s bytes (a
    /// graft).
    fn copy_subtree(
        &mut self,
        old: &ArenaDoc,
        id: NodeId,
        packed: &mut Option<String>,
        scratch: &mut Vec<AKid>,
    ) -> NodeId {
        let e = old.elems[id.0 as usize];
        let attr_start = self.attrs.len();
        for &(n, v) in &old.attrs[e.attr_start as usize..e.attr_end as usize] {
            let v = self.copy_value(old, v, packed);
            self.attrs.push((n, v));
        }
        let (new_id, mark) = self.open(e.name, attr_start, scratch);
        for k in &old.kids[e.kid_start as usize..e.kid_end as usize] {
            match *k {
                AKid::Elem(c) => {
                    let cid = self.copy_subtree(old, c, packed, scratch);
                    scratch.push(AKid::Elem(cid));
                }
                AKid::Text(t) => {
                    let v = self.copy_value(old, old.texts[t as usize], packed);
                    self.add_text(v, scratch);
                }
            }
        }
        self.close(new_id, mark, scratch)
    }

    fn copy_value(&mut self, old: &ArenaDoc, v: AVal, packed: &mut Option<String>) -> AVal {
        match packed {
            Some(packed) => self.pack(packed, old.val(v)),
            None => self.hold(old.value(v)),
        }
    }

    /// Stable-sorts every child list of the live tree whose children
    /// are all elements by `cmp`, and says whether anything moved. Each
    /// child range is permuted where it lies: nothing is allocated and
    /// no row dies. An insertion sort, so a list already in order costs
    /// one comparison per child, and a child appended to a sorted list
    /// moves into place in one pass.
    pub fn sort_children_by(
        &mut self,
        mut cmp: impl FnMut(&ArenaDoc, NodeId, NodeId) -> Ordering,
    ) -> bool {
        self.sort_subtree(self.root, &mut cmp)
    }

    fn sort_subtree(
        &mut self,
        id: NodeId,
        cmp: &mut impl FnMut(&ArenaDoc, NodeId, NodeId) -> Ordering,
    ) -> bool {
        let e = self.elems[id.0 as usize];
        let range = e.kid_start as usize..e.kid_end as usize;
        let mut moved = false;
        if !self.kids[range.clone()].iter().any(|k| matches!(k, AKid::Text(_))) {
            for i in range.start + 1..range.end {
                let mut j = i;
                while j > range.start {
                    let (AKid::Elem(x), AKid::Elem(y)) = (self.kids[j - 1], self.kids[j]) else {
                        break;
                    };
                    if cmp(self, x, y).is_le() {
                        break;
                    }
                    self.kids.swap(j - 1, j);
                    moved = true;
                    j -= 1;
                }
            }
        }
        for slot in range {
            if let AKid::Elem(c) = self.kids[slot] {
                moved |= self.sort_subtree(c, cmp);
            }
        }
        moved
    }

    /// True when the subtree at `a` equals the subtree of `other` at
    /// `b` as owned trees compare ([`Element`]'s `==`): same names,
    /// the same attribute *set*, and equal children in the same order.
    pub(crate) fn subtree_eq(&self, a: NodeId, other: &ArenaDoc, b: NodeId) -> bool {
        let (x, y) = (self.elems[a.0 as usize], other.elems[b.0 as usize]);
        let xk = &self.kids[x.kid_start as usize..x.kid_end as usize];
        let yk = &other.kids[y.kid_start as usize..y.kid_end as usize];
        x.name == y.name
            && x.attr_end - x.attr_start == y.attr_end - y.attr_start
            && xk.len() == yk.len()
            && self.attr_rows(a).all(|(n, v)| other.attr_by_id(b, n) == Some(v))
            && xk.iter().zip(yk).all(|(k, l)| match (*k, *l) {
                (AKid::Elem(c), AKid::Elem(d)) => self.subtree_eq(c, other, d),
                (AKid::Text(t), AKid::Text(u)) => {
                    self.val(self.texts[t as usize]) == other.val(other.texts[u as usize])
                }
                _ => false,
            })
    }
}

/// [`ArenaDoc::from_element`], for callers that hand a tree over.
impl From<Element> for ArenaDoc {
    fn from(e: Element) -> ArenaDoc {
        ArenaDoc::from_element(&e)
    }
}

/// Structural equality of the two live trees, with [`Element`]'s
/// semantics: attribute order does not count, child order does. How
/// the rows lie, dead rows, and where values are held do not count
/// either.
impl PartialEq for ArenaDoc {
    fn eq(&self, other: &ArenaDoc) -> bool {
        self.subtree_eq(self.root, other, other.root)
    }
}

impl Eq for ArenaDoc {}

/// `v` appended to `held`, as the row that addresses it.
fn hold(held: &mut Vec<Value>, v: Value) -> AVal {
    held.push(v);
    AVal::Held(offset(held.len() - 1))
}

/// The arena builder: rows for the scanner's events.
struct Rows {
    doc: ArenaDoc,
    /// Children of the open elements, as in [`ArenaDoc::open`].
    scratch: Vec<AKid>,
    /// The open elements, innermost last, with their marks in `scratch`.
    open: Vec<(NodeId, usize)>,
}

impl Rows {
    /// A literal value is a range of the input, which becomes the
    /// buffer; a decoded one is held.
    fn store(&mut self, v: Chars<'_>) -> AVal {
        match v {
            Chars::Source(r) => AVal::Slice(offset(r.start), offset(r.end)),
            Chars::Decoded(s) => hold(&mut self.doc.held, Value::from(s)),
        }
    }
}

impl<'a> Sink<'a> for Rows {
    fn open(&mut self, name: &'a str) {
        let attr_start = self.doc.attrs.len();
        let open = self.doc.open(NameInterner::intern(name), attr_start, &self.scratch);
        self.open.push(open);
    }

    fn attr(&mut self, name: &'a str, value: Chars<'_>) {
        let v = self.store(value);
        self.doc.attrs.push((NameInterner::intern(name), v));
        // `open` left the element's attribute range empty; it grows here.
        if let Some(&(id, _)) = self.open.last() {
            self.doc.elems[id.0 as usize].attr_end += 1;
        }
    }

    fn text(&mut self, text: Chars<'_>) {
        let v = self.store(text);
        self.doc.add_text(v, &mut self.scratch);
    }

    fn close(&mut self) {
        let Some((id, mark)) = self.open.pop() else { return };
        let id = self.doc.close(id, mark, &mut self.scratch);
        if self.open.is_empty() {
            self.doc.root = id;
        } else {
            self.scratch.push(AKid::Elem(id));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parse;

    fn agree(src: &str) -> ArenaDoc {
        let owned = parse(src).expect("owned parse");
        let arena = ArenaDoc::parse(src).expect("arena parse");
        assert_eq!(arena.root_element(), owned, "tree mismatch for {src}");
        assert_eq!(arena.to_xml(), owned.to_xml(), "serialization mismatch for {src}");
        arena
    }

    #[test]
    fn clean_parse_is_zero_copy() {
        let d = agree(r#"<user id="arnaud"><presence>online</presence><n note="x"/></user>"#);
        assert_eq!(d.owned_value_bytes(), 0);
        assert_eq!(d.node_count(), 3);
    }

    #[test]
    fn entities_and_cdata_fall_back_to_owned() {
        let d = agree(r#"<a k="&lt;x">A&amp;B<![CDATA[<raw>]]></a>"#);
        assert!(d.owned_value_bytes() > 0);
        assert_eq!(d.text(d.root()), "A&B<raw>");
        assert_eq!(d.attr(d.root(), "k"), Some("<x"));
    }

    #[test]
    fn comment_splits_text_without_breaking_value() {
        // The owned parser yields ONE text node "ab" here.
        let d = agree("<a>a<!-- c -->b</a>");
        assert_eq!(d.text(d.root()), "ab");
        let d2 = agree("<a><!-- c -->b</a>");
        // Text entirely after the comment is still a single raw slice.
        assert_eq!(d2.owned_value_bytes(), 0);
    }

    #[test]
    fn whitespace_normalization_matches() {
        agree("<a>\n  <b>x</b>\n  <c/>\n</a>");
        agree("<a>   </a>");
        agree("<p>hello <b>world</b>!</p>");
    }

    #[test]
    fn prolog_misc_and_utf8 () {
        agree("<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><b/></a>\n<!-- post -->");
        agree("<café note=\"déjà\">vü</café>");
    }

    #[test]
    fn rejects_what_owned_rejects() {
        for bad in [
            "",
            "<a",
            "<a><b>",
            "<a></b>",
            "<a/><b/>",
            "<a/>junk",
            "<!DOCTYPE html><a/>",
            r#"<a x="1" x="2"/>"#,
            "<a k=<></a>",
            "<a>&bogus;</a>",
            "<a><![CDATA[x</a>",
        ] {
            assert_eq!(
                parse(bad).is_err(),
                ArenaDoc::parse(bad).is_err(),
                "accept/reject disagreement on {bad:?}"
            );
            assert!(ArenaDoc::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn from_element_is_lossless() {
        let e = Element::new("a")
            .with_attr("id", "1")
            .with_text("  ")
            .with_child(Element::new("b").with_text("x"))
            .with_text("tail");
        // Note: `e` is NOT in normalized form; from_element must keep it.
        let d = ArenaDoc::from_element(&e);
        assert_eq!(d.root_element(), e);
        assert_eq!(d.to_xml(), e.to_xml());
    }

    #[test]
    fn from_element_packs_values_into_one_exactly_sized_buffer() {
        let e = Element::new("a")
            .with_attr("id", "1 & 2")
            .with_text("  ")
            .with_child(Element::new("b").with_attr("k", "\"q\"").with_text("x < y"))
            .with_text("tail");
        let d = ArenaDoc::from_element(&e);
        assert_eq!(d.root_element(), e);
        assert_eq!(d.to_xml(), e.to_xml());
        assert_eq!(d.owned_value_bytes(), 0);
        let bytes = "1 & 2".len() + "  ".len() + "\"q\"".len() + "x < y".len() + "tail".len();
        assert_eq!(d.buf.len(), bytes);
        assert_eq!(d.live_value_bytes(), bytes);
        // No table with slack; the shared buffer has none by construction.
        assert_eq!(d.elems.capacity(), d.elems.len());
        assert_eq!(d.attrs.capacity(), d.attrs.len());
        assert_eq!(d.kids.capacity(), d.kids.len());
        assert_eq!(d.texts.capacity(), d.texts.len());
    }

    #[test]
    fn byte_size_counts_what_the_serializer_writes() {
        for src in [
            "<a/>",
            r#"<a k="v"/>"#,
            r#"<a k="&lt;&amp;&quot;&apos;&gt;">A&amp;B&lt;c&gt;<![CDATA[<raw>]]></a>"#,
            r#"<user id="u"><book><item id="1" type="p"><name>Mom &amp; Dad</name></item><item id="2"/></book>tail</user>"#,
            "<café note=\"déjà\">vü</café>",
        ] {
            let d = ArenaDoc::parse(src).unwrap();
            let mut ids = vec![d.root()];
            while let Some(id) = ids.pop() {
                let mut out = String::new();
                d.serialize_node(id, &mut out);
                assert_eq!(d.byte_size(id), out.len(), "{src} at {id:?}");
                assert_eq!(d.to_element(id).byte_size(), out.len(), "{src} at {id:?}");
                ids.extend(d.child_elements(id));
            }
        }
    }

    fn book(items: usize) -> Element {
        let mut b = Element::new("book");
        for i in 0..items {
            b.push_child(
                Element::new("item")
                    .with_attr("id", i.to_string())
                    .with_child(Element::new("name").with_text(format!("N{i}"))),
            );
        }
        b
    }

    /// The first child element of `e` named `name`.
    fn child_mut<'a>(e: &'a mut Element, name: &str) -> &'a mut Element {
        e.child_elements_mut().find(|c| c.name == name).unwrap()
    }

    #[test]
    fn edits_count_the_rows_they_orphan_and_compact_drops_them() {
        let owned = Element::new("user").with_attr("id", "u").with_child(book(3));
        let mut d = ArenaDoc::from_element(&owned);
        let rows = d.live_rows();
        assert_eq!(d.dead_rows(), 0);
        let b = d.child_elements(d.root()).next().unwrap();
        let first = d.child_elements(b).next().unwrap();

        // Same tree after every edit as the owned tree edited alike.
        let mut model = owned.clone();
        let fresh = d.graft_element(&book(1).children[0].as_element().unwrap().clone());
        assert!(d.replace_child(b, first, fresh));
        assert!(!d.replace_child(b, first, fresh), "the old child is gone");
        let mb = child_mut(&mut model, "book");
        mb.children[0] = book(1).children[0].clone();
        assert_eq!(d.root_element(), model);
        // <item id><name>text</name></item>: 2 elements, 1 attribute,
        // 2 child rows, 1 text row — and the child row was overwritten.
        assert_eq!(d.dead_rows(), 6);
        assert_eq!(d.live_rows(), rows);

        let second = d.child_elements(b).nth(1).unwrap();
        assert!(d.remove_child(b, second));
        child_mut(&mut model, "book").children.remove(1);
        assert_eq!(d.root_element(), model);
        assert_eq!(d.dead_rows(), 6 + 6 + 3, "subtree plus the rewritten 3-row child list");

        d.set_text(fresh, "t");
        d.set_text(fresh, "u");
        d.set_attr(fresh, "mark", "1");
        d.set_attr(fresh, "mark", "2");
        let item = child_mut(child_mut(&mut model, "book"), "item");
        item.set_text("u");
        item.set_attr("mark", "2");
        assert_eq!(d.root_element(), model);

        let (before, xml) = (d.live_rows(), d.to_xml());
        assert!(d.dead_rows() > 0);
        d.compact();
        assert_eq!(d.dead_rows(), 0);
        assert_eq!(d.live_rows(), before, "compaction keeps exactly the live rows");
        assert_eq!(d.to_xml(), xml);
        assert_eq!(d.root_element(), model);
        assert_eq!(d.node_count(), model.subtree_size());
    }

    #[test]
    fn compact_packs_live_values_into_one_buffer() {
        let src = r#"<u id="x"><a>one</a><b k="v &lt; w">two &amp; three</b><c>drop</c></u>"#;
        let mut d = ArenaDoc::parse(src).unwrap();
        let root = d.root();
        let kids: Vec<NodeId> = d.child_elements(root).collect();
        assert!(d.remove_child(root, kids[0]));
        d.set_text(kids[2], "kept é");
        d.set_attr(kids[2], "n", "\"q\"");
        assert!(d.owned_value_bytes() > 0);
        let (xml, tree, live) = (d.to_xml(), d.root_element(), d.live_value_bytes());
        assert_eq!(
            xml,
            r#"<u id="x"><b k="v &lt; w">two &amp; three</b><c n="&quot;q&quot;">kept é</c></u>"#
        );
        d.compact();
        assert_eq!(d.owned_value_bytes(), 0, "no value is held outside the buffer");
        assert_eq!(d.buf.len(), live, "the buffer holds the live values and nothing else");
        assert_eq!((d.dead_rows(), d.dead_value_bytes(), d.live_value_bytes()), (0, 0, live));
        assert_eq!(d.to_xml(), xml);
        assert_eq!(d.root_element(), tree);
        let b = d.child_elements(d.root()).next().unwrap();
        assert_eq!(d.text(b), "two & three", "entity-decoded text survives packing");
        assert_eq!(d.attr(b, "k"), Some("v < w"));
    }

    #[test]
    fn parents_cover_the_live_tree_only() {
        let mut d = ArenaDoc::parse("<r><a><b/></a><c/></r>").unwrap();
        let kids: Vec<NodeId> = d.child_elements(d.root()).collect();
        let b = d.child_elements(kids[0]).next().unwrap();
        let p = d.parents();
        assert_eq!(p[d.root().0 as usize], None);
        assert_eq!(p[kids[0].0 as usize], Some(d.root()));
        assert_eq!(p[b.0 as usize], Some(kids[0]));
        let root = d.root();
        d.remove_child(root, kids[0]);
        let p = d.parents();
        assert_eq!(p[kids[0].0 as usize], None);
        assert_eq!(p[b.0 as usize], None);
        assert_eq!(p[kids[1].0 as usize], Some(root));
    }

    #[test]
    fn accessors() {
        let d = ArenaDoc::parse(r#"<u a="1" b="2"><x/>t<y/></u>"#).unwrap();
        let r = d.root();
        assert_eq!(d.name(r), "u");
        assert_eq!(d.attr_count(r), 2);
        assert_eq!(d.attr(r, "b"), Some("2"));
        assert_eq!(d.attr(r, "zz-never-interned"), None);
        assert_eq!(d.attr_rows(r).count(), 2);
        assert_eq!(d.child_elements(r).count(), 2);
        assert_eq!(d.children(r).count(), 3);
        assert_eq!(d.subtree_size(r), 3);
        assert_eq!(d.text(r), "t");
    }

    #[test]
    fn root_elements_compare_attribute_sets() {
        let a = ArenaDoc::parse(r#"<e x="1" y="2"><c>t</c></e>"#).unwrap();
        let b = ArenaDoc::parse(r#"<e y="2" x="1"><c>t</c></e>"#).unwrap();
        let c = ArenaDoc::parse(r#"<e x="1" y="3"><c>t</c></e>"#).unwrap();
        assert_eq!(a.root_element(), b.root_element());
        assert_ne!(a.root_element(), c.root_element());
    }
}
