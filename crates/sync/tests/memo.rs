//! The session memo against the unmemoized session.
//!
//! A delta session between replicas whose documents were last found
//! equal, with neither changed since, skips canonicalizing and
//! comparing them; a side no op could have reordered skips
//! canonicalizing. Over random interleavings of edits (all five op
//! kinds, including attribute writes on the merge key), sessions between
//! random replica pairs under every policy, forced slow syncs and
//! replica clones, every memoized session must leave the replicas and
//! report an unmemoized run of the same session does.

use gupster_rng::check::cases;
use gupster_rng::{Rng, StdRng};
use gupster_sync::{delta_two_way_sync, two_way_sync, ReconcilePolicy, Replica, SyncReport};
use gupster_xml::{EditOp, Element, MergeKeys, Node, NodePath};

const POLICIES: [ReconcilePolicy; 4] = [
    ReconcilePolicy::PreferFirst,
    ReconcilePolicy::PreferSecond,
    ReconcilePolicy::LastWriterWins,
    ReconcilePolicy::Manual,
];

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

fn base() -> Element {
    let mut book = Element::new("address-book");
    for i in 0..4 {
        book.push_child(
            Element::new("item")
                .with_attr("id", format!("c{i}"))
                .with_child(Element::new("name").with_text(format!("Contact {i}"))),
        );
    }
    book
}

fn item(id: &str) -> NodePath {
    NodePath::root().keyed("item", "id", id)
}

fn set_name(id: &str, text: &str) -> EditOp {
    EditOp::SetText { path: item(id).child("name", 0), text: text.into() }
}

/// A random op of any kind. Attribute writes hit the key attribute `id`
/// (moving the item in canonical order) as often as a plain one; inserts
/// go under the book or under an item, and may reuse a live id. Ops may
/// miss; callers ignore the error.
fn rand_op(r: &mut StdRng, serial: usize) -> EditOp {
    let id = format!("c{}", r.gen_range(0..4u32));
    let attr = if r.gen_bool(0.5) { "id" } else { "note" };
    match r.gen_range(0..7u32) {
        0 => {
            let new_id = if r.gen_bool(0.2) { id.clone() } else { format!("n{serial}") };
            EditOp::Insert {
                parent: NodePath::root(),
                element: Element::new("item")
                    .with_attr("id", new_id)
                    .with_child(Element::new("name").with_text(format!("New {serial}"))),
            }
        }
        1 => EditOp::Insert {
            parent: item(&id),
            element: Element::new(*r.pick(&["alias", "zone", "name"])).with_text(format!("x{serial}")),
        },
        2 => EditOp::Delete { path: item(&id) },
        3 => EditOp::SetAttr { path: item(&id), name: attr.into(), value: format!("k{}", serial % 7) },
        4 => EditOp::RemoveAttr { path: item(&id), name: attr.into() },
        _ => set_name(&id, &format!("t{serial}")),
    }
}

/// The canonical-order model: every element-only child list is sorted by
/// tag, then by the key's `attr=value` bytes (empty when keyless).
fn is_canonical(e: &Element, keys: &MergeKeys) -> bool {
    let sort_key = |el: &Element| {
        let key = keys.identity(el).map(|(a, v)| format!("{a}={v}")).unwrap_or_default();
        (el.name.to_string(), key)
    };
    let element_only = e.children.iter().all(|c| matches!(c, Node::Element(_)));
    (!element_only || e.child_elements().map(sort_key).is_sorted())
        && e.child_elements().all(|c| is_canonical(c, keys))
}

/// `r` with its document re-entered under a fresh stamp: no memo can
/// match it, and no side is known to be in order.
fn unmemoized(r: &Replica) -> Replica {
    let mut r = r.clone();
    r.replace_doc(r.doc.root_element());
    r
}

/// Everything a session can change on a replica.
fn assert_same_replica(memo: &Replica, plain: &Replica, peer: &str, what: &str) {
    assert_eq!(memo.doc, plain.doc, "{what}: document");
    assert_eq!(format!("{:?}", memo.log), format!("{:?}", plain.log), "{what}: log");
    assert_eq!(memo.clock, plain.clock, "{what}: clock");
    assert_eq!(memo.seen, plain.seen, "{what}: seen");
    assert_eq!(memo.anchors.last_seen(peer), plain.anchors.last_seen(peer), "{what}: anchor");
}

#[test]
fn memoized_sessions_match_unmemoized_ones_under_random_interleavings() {
    cases(40, 0x3E30, |r| {
        let mut pool: Vec<Replica> =
            (0..4).map(|i| Replica::new(&format!("r{i}"), base(), keys())).collect();
        let (mut skipped, mut slow) = (0, 0);
        let mut last = (0, 1);
        for step in 0..120 {
            match r.gen_range(0..10u32) {
                0..=2 => {
                    let k = r.gen_range(0..pool.len());
                    let _ = pool[k].edit(rand_op(r, step));
                }
                4 => {
                    // A clone takes another replica's place; both keep
                    // the original's id, so peers' memos name either one.
                    let (from, to) = (r.gen_range(0..pool.len()), r.gen_range(0..pool.len()));
                    pool[to] = pool[from].clone();
                }
                5 => {
                    // Forced divergence: a document changed behind the
                    // log, which the next session must find and slow-sync.
                    let k = r.gen_range(0..pool.len());
                    let mut doc = pool[k].doc.root_element();
                    doc.push_child(Element::new("item").with_attr("id", format!("b{step}")));
                    pool[k].replace_doc(doc);
                }
                _ => {
                    // Half the sessions repeat the last pair, which is
                    // when a memo can match.
                    if r.gen_bool(0.5) {
                        let i = r.gen_range(0..pool.len());
                        last = (i, (i + r.gen_range(1..pool.len())) % pool.len());
                    }
                    let (i, j) = last;
                    let policy = *r.pick(&POLICIES);
                    let (mut pa, mut pb) = (unmemoized(&pool[i]), unmemoized(&pool[j]));
                    let plain = delta_two_way_sync(&mut pa, &mut pb, policy).unwrap();
                    let (a, b) = pair_mut(&mut pool, i, j);
                    let memo_hit = a.known_equal(b);
                    let report = delta_two_way_sync(a, b, policy).unwrap();
                    let what = format!("step {step}: r{i}/r{j} {policy:?}");
                    assert_eq!(report, plain, "{what}");
                    assert_same_replica(a, &pa, &b.id, &format!("{what}, first"));
                    assert_same_replica(b, &pb, &a.id, &format!("{what}, second"));
                    assert_eq!(report.converged, a.doc == b.doc, "{what}");
                    // A converged session leaves the match known to the
                    // side the next session of this pair consults. (The
                    // second side's entry may name a clone of the first.)
                    assert_eq!(report.converged, a.known_equal(b), "{what}");
                    skipped += (memo_hit && report.shipped_to_first + report.shipped_to_second == 0) as usize;
                    slow += report.slow_sync as usize;
                }
            }
            for (k, x) in pool.iter().enumerate() {
                if x.doc.is_ordered() {
                    assert!(is_canonical(&x.doc.root_element(), &x.keys), "step {step}: r{k} is flagged ordered");
                }
                for (l, y) in pool.iter().enumerate() {
                    if x.doc.stamp() == y.doc.stamp() {
                        assert_eq!(x.doc, y.doc, "step {step}: r{k} and r{l} share a stamp");
                    }
                }
            }
        }
        assert!(skipped > 0 && slow > 0, "skipped {skipped}, slow {slow}");
    });
}

/// Both replicas of a pair, mutably.
fn pair_mut(pool: &mut [Replica], i: usize, j: usize) -> (&mut Replica, &mut Replica) {
    assert_ne!(i, j);
    if i < j {
        let (lo, hi) = pool.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = pool.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Sessions `a`↔`b` on the delta path and on the oracle, from the same
/// start.
fn both(a: &Replica, b: &Replica, policy: ReconcilePolicy, n: usize) -> Vec<(SyncReport, SyncReport)> {
    let (mut da, mut db, mut oa, mut ob) = (a.clone(), b.clone(), a.clone(), b.clone());
    (0..n)
        .map(|_| {
            let delta = delta_two_way_sync(&mut da, &mut db, policy).unwrap();
            let oracle = two_way_sync(&mut oa, &mut ob, policy).unwrap();
            assert_eq!((&da.doc, &db.doc), (&oa.doc, &ob.doc));
            assert_eq!(delta.converged, da.doc == db.doc);
            (delta, oracle)
        })
        .collect()
}

/// Under `Manual`, conflicting edits are queued and the documents left
/// different. The queue is no match: each empty session after it
/// compares the documents, as the oracle does, and the first one finds
/// them different and slow-syncs (the first side's state wins).
#[test]
fn a_queued_manual_divergence_is_compared_not_skipped() {
    let mut a = Replica::new("hub", base(), keys());
    let mut b = Replica::new("phone", base(), keys());
    a.edit(set_name("c1", "A")).unwrap();
    b.edit(set_name("c1", "B")).unwrap();
    let runs = both(&a, &b, ReconcilePolicy::Manual, 4);
    for (i, (delta, oracle)) in runs.iter().enumerate() {
        assert_eq!(delta.converged, oracle.converged, "session {i}");
        assert_eq!(delta.slow_sync, oracle.slow_sync, "session {i}");
        assert_eq!(delta.queued, oracle.queued, "session {i}");
    }
    let (queued, _) = &runs[0];
    assert_eq!((queued.queued.len(), queued.converged), (1, false));
    let (after, _) = &runs[1];
    assert!(after.slow_sync && after.converged, "{after:?}");
    assert!(runs[2..].iter().all(|(d, _)| d.converged && d.fast_path), "{runs:?}");

    // The unconverged session remembers no match.
    delta_two_way_sync(&mut a, &mut b, ReconcilePolicy::Manual).unwrap();
    assert!(!a.known_equal(&b) && !b.known_equal(&a));
}

/// A document replaced wholesale takes a fresh stamp: the memo no
/// longer matches, so the next session compares — and here slow-syncs
/// the replaced content to both sides instead of reporting a stale
/// convergence.
#[test]
fn replace_doc_defeats_the_memo() {
    let mut a = Replica::new("hub", base(), keys());
    let mut b = Replica::new("phone", base(), keys());
    a.edit(set_name("c0", "Mum")).unwrap();
    assert!(delta_two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap().converged);
    assert!(a.known_equal(&b) && b.known_equal(&a));

    // The same content re-entered: not known equal, found equal.
    b.replace_doc(b.doc.root_element());
    assert!(!a.known_equal(&b) && !b.known_equal(&a));
    let r = delta_two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
    assert!(r.converged && !r.slow_sync, "{r:?}");
    assert!(a.known_equal(&b));

    // Different content: the session finds the difference.
    let mut restored = b.doc.root_element();
    restored.push_child(Element::new("item").with_attr("id", "restored"));
    b.replace_doc(restored);
    let r = delta_two_way_sync(&mut a, &mut b, ReconcilePolicy::LastWriterWins).unwrap();
    assert!(r.slow_sync && r.converged, "{r:?}");
    assert_eq!(a.doc, b.doc);
    assert!(a.doc.root_element().child_elements().any(|e| e.attr("id") == Some("restored")));
}

/// Remote edits change a document as surely as local ones. Here the
/// first replica takes one edit only it holds and one the second holds
/// too, through a clone sharing its id; the second's anchor for that id
/// has already passed the first's new entries, so the session has
/// nothing to ship. It must still compare, find the difference and
/// slow-sync, as an unmemoized run does.
#[test]
fn remote_edits_reached_through_a_clone_defeat_the_memo() {
    let policy = ReconcilePolicy::LastWriterWins;
    let mut a = Replica::new("a", base(), keys());
    let mut b = Replica::new("b", base(), keys());
    assert!(delta_two_way_sync(&mut a, &mut b, policy).unwrap().converged);
    let mut twin = a.clone();
    twin.edit(set_name("c0", "x")).unwrap();
    delta_two_way_sync(&mut twin, &mut b, policy).unwrap();
    let mut c = Replica::new("c", base(), keys());
    c.edit(set_name("c1", "y")).unwrap();
    delta_two_way_sync(&mut c, &mut a, policy).unwrap();
    delta_two_way_sync(&mut twin, &mut a, policy).unwrap();
    assert_ne!(a.doc, b.doc, "only the first replica holds c's edit");

    let (mut pa, mut pb) = (unmemoized(&a), unmemoized(&b));
    let plain = delta_two_way_sync(&mut pa, &mut pb, policy).unwrap();
    let report = delta_two_way_sync(&mut a, &mut b, policy).unwrap();
    assert_eq!(report, plain);
    assert!(report.slow_sync && report.converged, "{report:?}");
    assert_eq!(a.doc, b.doc);
}
