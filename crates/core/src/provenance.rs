//! Data provenance (§7, third core challenge): "the tracking of where
//! data (and meta-data) have come from, and where they have been used…
//! this illustrates just one example of the many kinds of tracking
//! mechanisms that will be needed around access to profile data and
//! meta-data."
//!
//! The [`ProvenanceLog`] records every disclosure GUPster authorizes:
//! who was referred to which components of whose profile, when, for what
//! purpose, and which stores were named. Owners audit their own log
//! ([`ProvenanceLog::disclosures_of`]), and the credit-card-style
//! question — *who ever got access to this component?* — is
//! [`ProvenanceLog::accessors_of`].
//!
//! The log holds its records packed back to back in one byte ring, not
//! as [`Disclosure`]s. A `Disclosure` is some 25 small heap blocks (its
//! strings, its paths' steps and predicates); a log of them kept
//! hundreds of thousands alive among the lookup path's short-lived
//! allocations, and sharded lookup throughput fell by about a third
//! while the log filled. Packed, recording allocates nothing once the
//! ring has grown to its retention, and the audit queries decode what
//! they return.

use std::collections::{vec_deque, VecDeque};

use gupster_policy::Purpose;
use gupster_store::StoreId;
use gupster_xpath::{may_overlap, Axis, LocStep, NameTest, Path, Predicate};

use crate::referral::ReferralEntry;

/// One authorized disclosure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disclosure {
    /// When (the registry's `now`).
    pub when: u64,
    /// The profile owner.
    pub owner: String,
    /// Who received the referral.
    pub requester: String,
    /// The purpose the shield evaluated.
    pub purpose: Purpose,
    /// The (rewritten) paths disclosed.
    pub paths: Vec<Path>,
    /// The stores named in the referral.
    pub stores: Vec<StoreId>,
    /// Whether the shield narrowed the request.
    pub narrowed: bool,
}

/// An append-only, capacity-bounded disclosure log. Retention trimming
/// is O(1) per record (ring buffer) — the log sits on the registry's
/// lookup hot path.
#[derive(Debug, Default)]
pub struct ProvenanceLog {
    /// Per retained record, oldest first: its fixed-size fields and the
    /// length of its packed part.
    heads: VecDeque<Head>,
    /// The retained records' packed parts, back to back in `heads`'
    /// order.
    bytes: VecDeque<u8>,
    /// Maximum retained records (0 = unbounded). Oldest records are
    /// dropped first.
    pub retention: usize,
    /// Total records ever appended (survives trimming).
    pub total_recorded: u64,
    /// Packed bytes ever trimmed off the front: turns a [`RecordRef`]'s
    /// offset into a place in `bytes`.
    trimmed: u64,
}

/// A handle on one appended record: its place in append order and the
/// offset of its packed part among all bytes ever appended. It stays
/// valid while the record is retained.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef {
    seq: u64,
    at: u64,
}

#[derive(Debug)]
struct Head {
    when: u64,
    purpose: Purpose,
    narrowed: bool,
    len: usize,
}

impl ProvenanceLog {
    /// A log retaining at most `retention` records.
    pub(crate) fn with_retention(retention: usize) -> Self {
        ProvenanceLog { retention, ..Default::default() }
    }

    /// Appends the disclosure of a referral: `owner`'s data at the
    /// entries' paths, named to `requester` at `when`. Packs straight
    /// from the borrowed fields.
    pub(crate) fn record(
        &mut self,
        when: u64,
        owner: &str,
        requester: &str,
        purpose: Purpose,
        entries: &[ReferralEntry],
        narrowed: bool,
    ) {
        self.total_recorded += 1;
        let start = self.bytes.len();
        let w = &mut self.bytes;
        put_str(w, owner);
        put_str(w, requester);
        put_num(w, entries.len());
        for e in entries {
            put_path(w, &e.path);
            put_str(w, &e.store.0);
        }
        let len = self.bytes.len() - start;
        self.heads.push_back(Head { when, purpose, narrowed, len });
        self.trim();
    }

    /// Drops the oldest records past the retention.
    fn trim(&mut self) {
        while self.retention > 0 && self.heads.len() > self.retention {
            if let Some(oldest) = self.heads.pop_front() {
                self.bytes.drain(..oldest.len);
                self.trimmed += oldest.len as u64;
            }
        }
    }

    /// The newest record, if any is retained.
    pub(crate) fn newest(&self) -> Option<RecordRef> {
        let head = self.heads.back()?;
        let at = self.trimmed + (self.bytes.len() - head.len) as u64;
        Some(RecordRef { seq: self.total_recorded - 1, at })
    }

    /// True while retention keeps `record`, so that
    /// [`ProvenanceLog::record_again`] can copy it.
    pub(crate) fn holds(&self, record: RecordRef) -> bool {
        self.head(record).is_some()
    }

    /// The purpose `record` was disclosed under, while retention keeps
    /// it.
    pub(crate) fn purpose(&self, record: RecordRef) -> Option<Purpose> {
        self.head(record).map(|head| head.purpose)
    }

    /// `record`'s fixed-size fields, while retention keeps it.
    fn head(&self, record: RecordRef) -> Option<&Head> {
        let back = self.total_recorded.checked_sub(record.seq)?;
        self.heads.get(self.heads.len().checked_sub(back as usize)?)
    }

    /// Appends a copy of `record`, stamped `when` and `purpose` instead
    /// of its own: the same paths disclosed again, under the purpose
    /// they were asked for this time. Copies the packed bytes where they
    /// lie. False, appending nothing, once retention has dropped
    /// `record`.
    pub(crate) fn record_again(&mut self, record: RecordRef, purpose: Purpose, when: u64) -> bool {
        let Some(&Head { narrowed, len, .. }) = self.head(record) else { return false };
        self.total_recorded += 1;
        let start = (record.at - self.trimmed) as usize;
        self.bytes.reserve(len);
        for k in start..start + len {
            let b = self.bytes[k];
            self.bytes.push_back(b);
        }
        self.heads.push_back(Head { when, purpose, narrowed, len });
        self.trim();
        true
    }

    /// Every disclosure of one owner's data, oldest first.
    pub fn disclosures_of(&self, owner: &str) -> Vec<Disclosure> {
        self.records().filter(|(_, r)| r.clone().str_is(owner)).map(unpack).collect()
    }

    /// Requesters who ever received a referral overlapping `component`
    /// of `owner`'s profile (deduplicated, first-seen order).
    pub fn accessors_of(&self, owner: &str, component: &Path) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for d in self.disclosures_of(owner) {
            if !out.contains(&d.requester) && d.paths.iter().any(|p| may_overlap(p, component)) {
                out.push(d.requester);
            }
        }
        out
    }

    /// Currently retained records.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Each retained record with a reader over its packed part, oldest
    /// first.
    fn records(&self) -> impl Iterator<Item = (&Head, Reader<'_>)> {
        let mut end = 0;
        self.heads.iter().map(move |h| {
            end += h.len;
            (h, Reader(self.bytes.range(end - h.len..end)))
        })
    }
}

fn unpack((h, mut r): (&Head, Reader<'_>)) -> Disclosure {
    let owner = r.string();
    let requester = r.string();
    let (paths, stores) = (0..r.num()).map(|_| (r.path(), StoreId::new(r.string()))).unzip();
    let (when, purpose, narrowed) = (h.when, h.purpose, h.narrowed);
    Disclosure { when, owner, requester, purpose, paths, stores, narrowed }
}

// The packed part of a record: owner, requester, then each entry's path
// and store.
// Every string and count is length-prefixed, so any content decodes
// back exactly — no path syntax, quoting or separator is involved.

/// LEB128: seven bits a byte, low bits first.
fn put_num(w: &mut VecDeque<u8>, n: usize) {
    let mut n = n as u64;
    while n >= 0x80 {
        w.push_back(n as u8 | 0x80);
        n >>= 7;
    }
    w.push_back(n as u8);
}

fn put_str(w: &mut VecDeque<u8>, s: &str) {
    put_num(w, s.len());
    w.extend(s.as_bytes());
}

fn put_path(w: &mut VecDeque<u8>, p: &Path) {
    put_num(w, p.steps.len());
    for step in &p.steps {
        w.push_back(match step.axis {
            Axis::Child => 0,
            Axis::Descendant => 1,
            Axis::Attribute => 2,
        });
        match &step.test {
            NameTest::Any => w.push_back(0),
            NameTest::Name(n) => {
                w.push_back(1);
                put_str(w, n);
            }
        }
        put_num(w, step.predicates.len());
        for pred in &step.predicates {
            match pred {
                Predicate::AttrEq(a, v) => {
                    w.push_back(0);
                    put_str(w, a);
                    put_str(w, v);
                }
                Predicate::AttrExists(a) => {
                    w.push_back(1);
                    put_str(w, a);
                }
                Predicate::ChildEq(c, v) => {
                    w.push_back(2);
                    put_str(w, c);
                    put_str(w, v);
                }
                Predicate::ChildExists(c) => {
                    w.push_back(3);
                    put_str(w, c);
                }
                Predicate::Position(n) => {
                    w.push_back(4);
                    put_num(w, *n);
                }
            }
        }
    }
}

/// Reads back what the `put_*` functions wrote. Only the log writes the
/// bytes it reads, so a short or malformed record is a bug, not input.
#[derive(Clone)]
struct Reader<'a>(vec_deque::Iter<'a, u8>);

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        *self.0.next().expect("packed record ends early")
    }

    fn num(&mut self) -> usize {
        let (mut n, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            n |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return n as usize;
            }
            shift += 7;
        }
    }

    fn string(&mut self) -> String {
        let len = self.num();
        String::from_utf8(self.0.by_ref().take(len).copied().collect()).expect("packed from a str")
    }

    /// True if the next string is `s` (reading stops at the first
    /// difference).
    fn str_is(&mut self, s: &str) -> bool {
        self.num() == s.len() && self.0.by_ref().take(s.len()).copied().eq(s.bytes())
    }

    fn path(&mut self) -> Path {
        let steps = (0..self.num())
            .map(|_| {
                let axis = match self.byte() {
                    0 => Axis::Child,
                    1 => Axis::Descendant,
                    _ => Axis::Attribute,
                };
                let test = match self.byte() {
                    0 => NameTest::Any,
                    _ => NameTest::Name(self.string().into()),
                };
                let predicates = (0..self.num())
                    .map(|_| match self.byte() {
                        0 => Predicate::AttrEq(self.string().into(), self.string()),
                        1 => Predicate::AttrExists(self.string().into()),
                        2 => Predicate::ChildEq(self.string().into(), self.string()),
                        3 => Predicate::ChildExists(self.string().into()),
                        _ => Predicate::Position(self.num()),
                    })
                    .collect();
                LocStep { axis, test, predicates }
            })
            .collect();
        Path { steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn disclosure(when: u64, owner: &str, requester: &str, path: &str) -> Disclosure {
        Disclosure {
            when,
            owner: owner.into(),
            requester: requester.into(),
            purpose: Purpose::Query,
            paths: vec![p(path)],
            stores: vec![StoreId::new("s1")],
            narrowed: false,
        }
    }

    /// Records `d` as the referral it describes: one entry per
    /// (path, store) pair.
    fn record(log: &mut ProvenanceLog, d: &Disclosure) {
        assert_eq!(d.paths.len(), d.stores.len(), "a referral names one store per path");
        let entries: Vec<ReferralEntry> = d
            .paths
            .iter()
            .zip(&d.stores)
            .map(|(path, store)| ReferralEntry { store: std::sync::Arc::new(store.clone()), path: std::sync::Arc::new(path.clone()), complete: true })
            .collect();
        log.record(d.when, &d.owner, &d.requester, d.purpose, &entries, d.narrowed);
    }

    #[test]
    fn owner_audit_trail() {
        let mut log = ProvenanceLog::default();
        record(&mut log, &disclosure(1, "alice", "rick", "/user/presence"));
        record(&mut log, &disclosure(2, "alice", "mom", "/user/address-book"));
        record(&mut log, &disclosure(3, "bob", "rick", "/user/presence"));
        let alice = log.disclosures_of("alice");
        assert_eq!(alice.len(), 2);
        assert_eq!(alice[0].requester, "rick");
    }

    #[test]
    fn accessors_use_overlap_semantics() {
        let mut log = ProvenanceLog::default();
        record(&mut log, &disclosure(1, "alice", "mom", "/user/address-book/item[@type='personal']"));
        record(&mut log, &disclosure(2, "alice", "rick", "/user/presence"));
        record(&mut log, &disclosure(3, "alice", "mom", "/user/address-book"));
        // Who ever saw (part of) the address book?
        let accessors = log.accessors_of("alice", &p("/user/address-book"));
        assert_eq!(accessors, vec!["mom"]);
        // Who saw the personal split? The whole-book referral counts too.
        let accessors =
            log.accessors_of("alice", &p("/user/address-book/item[@type='personal']"));
        assert_eq!(accessors, vec!["mom"]);
        assert!(log.accessors_of("alice", &p("/user/wallet")).is_empty());
    }

    #[test]
    fn retention_trims_oldest() {
        let mut log = ProvenanceLog::with_retention(2);
        for t in 0..5 {
            record(&mut log, &disclosure(t, "alice", "rick", "/user/presence"));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_recorded, 5);
        assert_eq!(log.disclosures_of("alice")[0].when, 3);
    }

    /// Whatever goes in, or is copied in again, comes back out field for
    /// field, across trimming — including strings no path syntax could
    /// quote, an owner or requester that is a prefix of another, and
    /// positions past `u32`.
    #[test]
    fn packed_records_decode_exactly() {
        use gupster_rng::check::{self, cases};
        use gupster_rng::{Rng, StdRng};
        fn text(rng: &mut StdRng) -> String {
            let mut s = check::printable(rng, 0, 6);
            if rng.gen_bool(0.3) {
                s.push_str(["'\"", "é\u{0}", "/[]@"][rng.gen_range(0..3usize)]);
            }
            s
        }
        fn step(rng: &mut StdRng) -> LocStep {
            let axis = [Axis::Child, Axis::Descendant, Axis::Attribute][rng.gen_range(0..3usize)];
            let test =
                if rng.gen_bool(0.8) { NameTest::Name(text(rng).into()) } else { NameTest::Any };
            let predicates = check::vec_of(rng, 0, 3, |rng| match rng.gen_range(0..5u32) {
                0 => Predicate::AttrEq(text(rng).into(), text(rng)),
                1 => Predicate::AttrExists(text(rng).into()),
                2 => Predicate::ChildEq(text(rng).into(), text(rng)),
                3 => Predicate::ChildExists(text(rng).into()),
                _ => Predicate::Position([1, 300, usize::MAX][rng.gen_range(0..3usize)]),
            });
            LocStep { axis, test, predicates }
        }
        cases(300, 0xd15c, |rng| {
            let retention = rng.gen_range(0..6usize);
            let mut log = ProvenanceLog::with_retention(retention);
            let purposes = [Purpose::Query, Purpose::Cache, Purpose::Subscribe, Purpose::Provision];
            // Fresh records, and copies of earlier ones stamped anew:
            // a copy lands only while its original is retained.
            let mut written: Vec<Disclosure> = Vec::new();
            let mut handles = Vec::new();
            for _ in 0..rng.gen_range(1..10usize) {
                let when = rng.gen_range(0..u64::MAX);
                if !handles.is_empty() && rng.gen_bool(0.4) {
                    let j = rng.gen_range(0..handles.len());
                    let retained = retention == 0 || j + retention >= written.len();
                    let purpose = purposes[rng.gen_range(0..4usize)];
                    let again = log.record_again(handles[j], purpose, when);
                    assert_eq!(again, retained, "copy of record {j}");
                    if retained {
                        written.push(Disclosure { when, purpose, ..written[j].clone() });
                        handles.push(log.newest().unwrap());
                    }
                    continue;
                }
                let (paths, stores) = check::vec_of(rng, 0, 3, |r| {
                    (Path { steps: check::vec_of(r, 0, 4, step) }, StoreId::new(text(r)))
                })
                .into_iter()
                .unzip();
                let d = Disclosure {
                    when,
                    owner: ["o", "o2", "p"][rng.gen_range(0..3usize)].to_string(),
                    requester: ["r", "r2", "s"][rng.gen_range(0..3usize)].to_string(),
                    purpose: purposes[rng.gen_range(0..4usize)],
                    paths,
                    stores,
                    narrowed: rng.gen_bool(0.5),
                };
                record(&mut log, &d);
                written.push(d);
                handles.push(log.newest().unwrap());
            }
            let kept = match retention {
                0 => &written[..],
                n => &written[written.len().saturating_sub(n)..],
            };
            assert_eq!(log.len(), kept.len());
            for who in ["o", "o2", "p", "r", "r2", "s", ""] {
                let of: Vec<Disclosure> = kept.iter().filter(|d| d.owner == who).cloned().collect();
                assert_eq!(log.disclosures_of(who), of, "owner {who:?}");
            }
        });
    }
}
