//! The operations the benchmark times, each driven through GUPster's
//! public functions exactly as a client would: a window of reads
//! through the sharded front end, one read on the sequential path, and
//! one round of the write path. Every timed section starts from the
//! client's strings and ends with the answer's bytes.

use std::time::Instant;

use gupster_core::{
    fetch_merge_batched, write_through, GupsterError, PlaneReport, ShardRequest, ShardedRegistry, StorePool,
    UserOutcome,
};
use gupster_policy::Purpose;
use gupster_store::{ChangeEvent, UpdateOp};
use gupster_xml::{EditOp, Element, MergeKeys, NodePath};
use gupster_xpath::Path;

use crate::alloc;
use crate::fleet::{request_time, store_id, store_of, Fleet};
use crate::gen::{stranger_of, user_id, EditGen, EditKind, Expect, RawEdit, RawRequest, RequestGen};
use crate::spec::WINDOW;
use crate::stats::Fnv;

/// The correctness gate: every operation whose outcome was checked, the
/// ones that differed from what the generator expected, and every
/// whole-run invariant that broke.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Gate {
    /// Counts one checked operation.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// Checks an invariant that is not an operation.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            // An invariant breach must fail the run even if every
            // single operation looked fine.
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The outcome of one read as the client sees it: the answer's bytes,
/// or the refusal.
pub type Answer = Result<String, GupsterError>;

fn parse_request(raw: &RawRequest) -> ShardRequest {
    ShardRequest {
        owner: raw.owner.clone(),
        path: Path::parse(&raw.path).expect("generated paths parse"),
        requester: raw.requester.clone(),
        purpose: Purpose::Query,
        time: request_time(),
        now: raw.now,
    }
}

pub fn serialize(elems: &[Element]) -> String {
    elems.iter().map(Element::to_xml).collect()
}

fn outcome_matches(expect: Expect, answer: &Answer) -> bool {
    match (expect, answer) {
        (Expect::Answer, Ok(bytes)) => !bytes.is_empty(),
        (Expect::Denied, Err(GupsterError::AccessDenied { .. })) => true,
        _ => false,
    }
}

fn check_outcomes(raws: &[RawRequest], answers: &[Answer], gate: &mut Gate) {
    for (raw, answer) in raws.iter().zip(answers) {
        gate.op(outcome_matches(raw.expect, answer), || {
            format!("{} expected {:?}, got {:?}", raw.wire(), raw.expect, answer.as_ref().map(String::len))
        });
    }
}

/// Folds one answer into the workload checksum.
pub fn checksum(sum: &mut Fnv, answer: &Answer) {
    match answer {
        Ok(bytes) => sum.update(bytes.as_bytes()),
        Err(e) => sum.update(format!("!{e}").as_bytes()),
    }
}

/// One scatter window through `ShardedRegistry::answer_batch`: parse,
/// answer on the shard workers, serialize. Returns the timed
/// nanoseconds and the answers (outcome classes already gated).
pub fn answer_window(fleet: &mut Fleet, raws: &[RawRequest], gate: &mut Gate) -> (u64, Vec<Answer>) {
    answer_window_on(&mut fleet.reg, &fleet.pool, &fleet.keys, raws, gate)
}

/// [`answer_window`] on any registry over the fleet's stores (the
/// traced run compares shard counts this way).
pub fn answer_window_on(
    reg: &mut ShardedRegistry,
    pool: &StorePool,
    keys: &MergeKeys,
    raws: &[RawRequest],
    gate: &mut Gate,
) -> (u64, Vec<Answer>) {
    let t0 = Instant::now();
    let requests: Vec<ShardRequest> = raws.iter().map(parse_request).collect();
    let (results, _report) = reg.answer_batch(pool, &requests, keys, true);
    let answers: Vec<Answer> = results.into_iter().map(|r| r.map(|e| serialize(&e))).collect();
    let ns = t0.elapsed().as_nanos() as u64;
    check_outcomes(raws, &answers, gate);
    (ns, answers)
}

/// One read on the sequential path (`Gupster::lookup` on the owner's
/// shard, then `fetch_merge_batched`), one client, no scatter.
pub fn answer_one(fleet: &mut Fleet, raw: &RawRequest, gate: &mut Gate) -> (u64, Answer) {
    let t0 = Instant::now();
    let path = Path::parse(&raw.path).expect("generated paths parse");
    let shard = fleet.reg.shard_mut(&raw.owner);
    let answer = shard
        .lookup(&raw.owner, &path, &raw.requester, Purpose::Query, request_time(), raw.now)
        .and_then(|out| {
            fetch_merge_batched(&fleet.pool, &out.referral, &shard.signer(), raw.now, &fleet.keys)
        })
        .map(|elems| serialize(&elems));
    let ns = t0.elapsed().as_nanos() as u64;
    gate.op(outcome_matches(raw.expect, &answer), || {
        format!("sequential {} expected {:?}", raw.wire(), raw.expect)
    });
    (ns, answer)
}

/// What one write round did and where its time went.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub edits: u64,
    pub reads: u64,
    /// Edit → delivery: everything up to the batches leaving
    /// `flush_window`.
    pub propagate_ns: u64,
    pub reconcile_ns: u64,
    pub write_through_ns: u64,
    pub stage_ns: u64,
    pub flush_ns: u64,
    pub reads_ns: u64,
    pub compared: u64,
    pub wire_bytes: u64,
    pub conflicts: u64,
    pub changed_users: u64,
    pub events: u64,
    pub staged: u64,
    pub suppressed: u64,
    pub batches: u64,
    pub notifications: u64,
    /// Allocations made inside the timed sections.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Round {
    pub fn ops(&self) -> u64 {
        self.edits + self.reads
    }

    pub fn total_ns(&self) -> u64 {
        self.propagate_ns + self.reads_ns
    }

    pub fn absorb(&mut self, o: &Round) {
        self.edits += o.edits;
        self.reads += o.reads;
        self.propagate_ns += o.propagate_ns;
        self.reconcile_ns += o.reconcile_ns;
        self.write_through_ns += o.write_through_ns;
        self.stage_ns += o.stage_ns;
        self.flush_ns += o.flush_ns;
        self.reads_ns += o.reads_ns;
        self.compared += o.compared;
        self.wire_bytes += o.wire_bytes;
        self.conflicts += o.conflicts;
        self.changed_users += o.changed_users;
        self.events += o.events;
        self.staged += o.staged;
        self.suppressed += o.suppressed;
        self.batches += o.batches;
        self.notifications += o.notifications;
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
    }
}

fn user_index(id: &str) -> usize {
    id[1..].parse().expect("benchmark user ids are u<index>")
}

fn edit_op(e: &RawEdit) -> EditOp {
    match &e.kind {
        EditKind::SetName { item, text } => EditOp::SetText {
            path: NodePath::root().keyed("item", "id", format!("p{item:03}")).child("name", 0),
            text: text.clone(),
        },
        EditKind::Insert { id } => EditOp::Insert {
            parent: NodePath::root(),
            element: Element::new("item")
                .with_attr("id", id.clone())
                .with_attr("type", "personal")
                .with_child(Element::new("name").with_text(format!("New {id}"))),
        },
    }
}

/// One round of the write path, "enter once, share everywhere":
/// device edits → `reconcile` → `write_through` on each owning shard →
/// the hub copy written back to the owner's store → `stage_events` →
/// `flush_window` → friends read the just-written books.
///
/// With `verify` (the fixed verify rounds) deliveries and answers are
/// folded into the checksum and — too intrusive for a measured round —
/// every changed owner is looked up twice: the first lookup after a
/// write must sign a fresh token, the second may reuse it.
pub fn write_round(
    fleet: &mut Fleet,
    edits: &mut EditGen,
    reads: &mut RequestGen,
    n_edits: usize,
    n_reads: usize,
    gate: &mut Gate,
    mut verify: Option<&mut Fnv>,
) -> Round {
    let users = fleet.spec.users;
    let stores = fleet.spec.stores;
    let Fleet { reg, pool, keys, write, .. } = fleet;
    let w = write.as_mut().expect("write rounds need a write side");
    let raw_edits: Vec<RawEdit> = (0..n_edits).map(|_| edits.next_edit()).collect();
    let mut round = Round { edits: n_edits as u64, ..Round::default() };

    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    for e in &raw_edits {
        let applied = w.plane.edit_device(&user_id(e.writer), e.device, edit_op(e));
        gate.op(applied.is_ok(), || format!("edit {e:?} failed: {applied:?}"));
    }
    let t1 = Instant::now();
    let report = w.plane.reconcile(&w.hub);
    let t2 = Instant::now();

    round.compared = report.compared as u64;
    round.wire_bytes = report.bytes_exchanged as u64;
    round.conflicts = report.conflicts as u64;
    gate.invariant(report.converged_users == w.plane.user_count(), || {
        format!("{} of {} stars converged", report.converged_users, w.plane.user_count())
    });

    // Write-through runs on the shard that owns each changed user.
    let mut per_shard: Vec<Vec<UserOutcome>> = vec![Vec::new(); reg.shard_count()];
    for u in report.users {
        if !u.changed.is_empty() {
            per_shard[reg.shard_of(&u.owner)].push(u);
        }
    }
    let mut changed: Vec<String> = Vec::new();
    let mut events: Vec<(String, Vec<ChangeEvent>)> = Vec::new();
    for users_of_shard in per_shard {
        let Some(first) = users_of_shard.first().map(|u| u.owner.clone()) else {
            continue;
        };
        changed.extend(users_of_shard.iter().map(|u| u.owner.clone()));
        let sub = PlaneReport { users: users_of_shard, ..PlaneReport::default() };
        events.push((first.clone(), write_through(reg.shard_mut(&first), &sub)));
    }
    changed.sort();
    let t3 = Instant::now();

    // The hub is the primary copy: its document replaces the store's.
    for owner in &changed {
        let book = Path::parse(&format!("/user[@id='{owner}']/address-book")).expect("generated paths parse");
        let store = store_id(store_of(user_index(owner), 1, stores));
        let op = UpdateOp::Replace(book, w.plane.hub_doc(owner).clone());
        let updated = pool.update(&store, owner, &op);
        gate.invariant(updated.is_ok(), || format!("write-back of {owner} failed: {updated:?}"));
    }
    // The write path publishes through `write_through`, not the stores'
    // own event queues; drain those so they do not grow.
    pool.drain_all_events().for_each(drop);
    let t4 = Instant::now();

    let mut suppressed = Vec::new();
    for (first, evs) in &events {
        let outcome = w.fanout.stage_events(reg.shard(first), evs, request_time());
        round.events += evs.len() as u64;
        round.staged += outcome.staged as u64;
        suppressed.extend(outcome.suppressed);
    }
    let t5 = Instant::now();
    let batches = match events.first() {
        Some((first, _)) => w.fanout.flush_window(reg.shard(first)),
        None => Vec::new(),
    };
    let t6 = Instant::now();
    let a6 = alloc::snapshot();
    round.allocs = a6.0 - a0.0;
    round.alloc_bytes = a6.1 - a0.1;

    round.changed_users = changed.len() as u64;
    round.suppressed = suppressed.len() as u64;
    round.batches = batches.len() as u64;
    round.notifications = batches.iter().map(|b| b.notifications.len() as u64).sum();
    // Each event matches the owner's five subscriptions: four friends
    // staged, the stranger suppressed — and never delivered.
    gate.invariant(round.staged == 4 * round.events && round.suppressed == round.events, || {
        format!("{} events staged {} suppressed {}", round.events, round.staged, round.suppressed)
    });
    gate.invariant(
        suppressed.iter().all(|n| user_index(&n.subscriber) == stranger_of(user_index(&n.owner), users)),
        || "a non-stranger subscriber was suppressed".to_string(),
    );
    gate.invariant(
        batches
            .iter()
            .flat_map(|b| &b.notifications)
            .all(|n| user_index(&n.subscriber) != stranger_of(user_index(&n.owner), users)),
        || "a stranger was delivered a notification".to_string(),
    );

    if let Some(sum) = verify.as_mut() {
        for b in &batches {
            sum.update(b.subscriber.as_bytes());
            for n in &b.notifications {
                sum.update(format!("{}{}", n.owner, n.path).as_bytes());
            }
        }
        for owner in &changed {
            let raw = reads.friend_book_read(user_index(owner));
            let path = Path::parse(&raw.path).expect("generated paths parse");
            let mut lookup = |now: u64| {
                reg.shard_mut(owner)
                    .lookup(owner, &path, &raw.requester, Purpose::Query, request_time(), now)
                    .map(|out| out.referral.token_cached)
            };
            let first = lookup(raw.now);
            let second = lookup(raw.now);
            gate.op(first == Ok(false) && second == Ok(true), || {
                format!("post-write token reuse for {owner}: first {first:?}, second {second:?}")
            });
        }
    }

    // Friends read the books that were just written.
    let n_reads = if changed.is_empty() { 0 } else { n_reads };
    let raws: Vec<RawRequest> = (0..n_reads)
        .map(|k| {
            // Spread over the changed owners rather than the first few.
            let pick = if changed.len() >= n_reads { k * changed.len() / n_reads } else { k % changed.len() };
            reads.friend_book_read(user_index(&changed[pick]))
        })
        .collect();
    round.reads = raws.len() as u64;
    for window in raws.chunks(WINDOW) {
        let a = alloc::snapshot();
        let (ns, answers) = answer_window_on(reg, pool, keys, window, gate);
        let b = alloc::snapshot();
        round.reads_ns += ns;
        round.allocs += b.0 - a.0;
        round.alloc_bytes += b.1 - a.1;
        if let Some(sum) = verify.as_mut() {
            answers.iter().for_each(|a| checksum(sum, a));
        }
    }

    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    round.reconcile_ns = ns(t1, t2);
    round.write_through_ns = ns(t2, t3);
    round.stage_ns = ns(t4, t5);
    round.flush_ns = ns(t5, t6);
    round.propagate_ns = ns(t0, t6);
    round
}
