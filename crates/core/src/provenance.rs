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
}

#[derive(Debug)]
struct Head {
    when: u64,
    purpose: Purpose,
    narrowed: bool,
    len: usize,
}

impl ProvenanceLog {
    /// An unbounded log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log retaining at most `retention` records.
    pub fn with_retention(retention: usize) -> Self {
        ProvenanceLog { retention, ..Default::default() }
    }

    /// Appends a disclosure.
    pub fn record(&mut self, d: Disclosure) {
        self.total_recorded += 1;
        let start = self.bytes.len();
        let w = &mut self.bytes;
        put_str(w, &d.owner);
        put_str(w, &d.requester);
        put_num(w, d.paths.len());
        for p in &d.paths {
            put_path(w, p);
        }
        put_num(w, d.stores.len());
        for s in &d.stores {
            put_str(w, &s.0);
        }
        let len = self.bytes.len() - start;
        self.heads.push_back(Head { when: d.when, purpose: d.purpose, narrowed: d.narrowed, len });
        while self.retention > 0 && self.heads.len() > self.retention {
            if let Some(oldest) = self.heads.pop_front() {
                self.bytes.drain(..oldest.len);
            }
        }
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

    /// Disclosures to a given requester across all owners (the reverse
    /// audit: "what has this application been told?").
    pub fn received_by(&self, requester: &str) -> Vec<Disclosure> {
        self.records()
            .filter(|(_, r)| {
                let mut r = r.clone();
                r.skip_str();
                r.str_is(requester)
            })
            .map(unpack)
            .collect()
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
    let paths = (0..r.num()).map(|_| r.path()).collect();
    let stores = (0..r.num()).map(|_| StoreId::new(r.string())).collect();
    let (when, purpose, narrowed) = (h.when, h.purpose, h.narrowed);
    Disclosure { when, owner, requester, purpose, paths, stores, narrowed }
}

// The packed part of a record: owner, requester, the paths, the stores.
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

    fn skip_str(&mut self) {
        let len = self.num();
        self.0.by_ref().take(len).for_each(drop);
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
                    _ => NameTest::Name(self.string()),
                };
                let predicates = (0..self.num())
                    .map(|_| match self.byte() {
                        0 => Predicate::AttrEq(self.string(), self.string()),
                        1 => Predicate::AttrExists(self.string()),
                        2 => Predicate::ChildEq(self.string(), self.string()),
                        3 => Predicate::ChildExists(self.string()),
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

    #[test]
    fn owner_audit_trail() {
        let mut log = ProvenanceLog::new();
        log.record(disclosure(1, "alice", "rick", "/user/presence"));
        log.record(disclosure(2, "alice", "mom", "/user/address-book"));
        log.record(disclosure(3, "bob", "rick", "/user/presence"));
        let alice = log.disclosures_of("alice");
        assert_eq!(alice.len(), 2);
        assert_eq!(alice[0].requester, "rick");
        assert_eq!(log.received_by("rick").len(), 2);
    }

    #[test]
    fn accessors_use_overlap_semantics() {
        let mut log = ProvenanceLog::new();
        log.record(disclosure(1, "alice", "mom", "/user/address-book/item[@type='personal']"));
        log.record(disclosure(2, "alice", "rick", "/user/presence"));
        log.record(disclosure(3, "alice", "mom", "/user/address-book"));
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
            log.record(disclosure(t, "alice", "rick", "/user/presence"));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_recorded, 5);
        assert_eq!(log.disclosures_of("alice")[0].when, 3);
    }

    /// Whatever goes in comes back out field for field, across trimming
    /// — including strings no path syntax could quote, a requester that
    /// is a prefix of another, and positions past `u32`.
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
            let test = if rng.gen_bool(0.8) { NameTest::Name(text(rng)) } else { NameTest::Any };
            let predicates = check::vec_of(rng, 0, 3, |rng| match rng.gen_range(0..5u32) {
                0 => Predicate::AttrEq(text(rng), text(rng)),
                1 => Predicate::AttrExists(text(rng)),
                2 => Predicate::ChildEq(text(rng), text(rng)),
                3 => Predicate::ChildExists(text(rng)),
                _ => Predicate::Position([1, 300, usize::MAX][rng.gen_range(0..3usize)]),
            });
            LocStep { axis, test, predicates }
        }
        cases(300, 0xd15c, |rng| {
            let retention = rng.gen_range(0..6usize);
            let mut log = ProvenanceLog::with_retention(retention);
            let purposes = [Purpose::Query, Purpose::Cache, Purpose::Subscribe, Purpose::Provision];
            let written: Vec<Disclosure> = (0..rng.gen_range(1..10usize))
                .map(|_| Disclosure {
                    when: rng.gen_range(0..u64::MAX),
                    owner: ["o", "o2", "p"][rng.gen_range(0..3usize)].to_string(),
                    requester: ["r", "r2", "s"][rng.gen_range(0..3usize)].to_string(),
                    purpose: purposes[rng.gen_range(0..4usize)],
                    paths: check::vec_of(rng, 0, 3, |r| Path { steps: check::vec_of(r, 0, 4, step) }),
                    stores: check::vec_of(rng, 0, 3, |rng| StoreId::new(text(rng))),
                    narrowed: rng.gen_bool(0.5),
                })
                .collect();
            for d in &written {
                log.record(d.clone());
            }
            let kept = match retention {
                0 => &written[..],
                n => &written[written.len().saturating_sub(n)..],
            };
            assert_eq!(log.len(), kept.len());
            for who in ["o", "o2", "p", "r", "r2", "s", ""] {
                let of = |f: fn(&Disclosure) -> &str| -> Vec<Disclosure> {
                    kept.iter().filter(|d| f(d) == who).cloned().collect()
                };
                assert_eq!(log.disclosures_of(who), of(|d| &d.owner), "owner {who:?}");
                assert_eq!(log.received_by(who), of(|d| &d.requester), "requester {who:?}");
            }
        });
    }
}
