//! Admission control for open-loop load: bounded ingress queues,
//! priority classes and typed load-shedding (DESIGN.md §11).
//!
//! Closed-loop harnesses (E16/E17) can never drive the registry past
//! saturation — each in-flight request gates the next arrival. Real
//! converged-network traffic is an *open* arrival process: calls keep
//! arriving whether or not the MDM is keeping up. This module supplies
//! the server-side machinery that makes that survivable:
//!
//! * **Virtual ingress queues.** Arrivals are routed by owner hash to a
//!   fixed number of [`IngressQueue`]s set by [`AdmissionConfig::queues`]
//!   — a property of the *service*, deliberately independent of the
//!   physical shard count, so shed decisions (and therefore answers)
//!   stay byte-identical when a deployment rescales from 1 to 8 shards.
//! * **Bounded waiting rooms.** Each queue holds at most
//!   [`AdmissionConfig::capacity`] waiting requests. A full queue sheds
//!   deterministically instead of growing an unbounded backlog.
//! * **Two priority classes.** [`Priority::CallDelivery`] models the
//!   paper's "hundreds of milliseconds" call-setup path; it preempts
//!   [`Priority::ProfileEdit`] (bulk reads/edits) at the server
//!   (preemptive-resume) and evicts the newest waiting bulk request
//!   when it needs a seat in a full queue. Structurally, a call is only
//!   ever shed when the waiting room holds nothing but calls — so the
//!   call-class shed rate can never exceed the bulk-class shed rate.
//! * **Typed outcomes.** Every offered request resolves to exactly one
//!   [`RequestOutcome`]: a fresh answer, a stale-cache serve, or a
//!   typed [`RequestOutcome::Overloaded`] rejection. No silent drops.
//!
//! The queue simulation runs in simulated time ([`SimTime`]) and is
//! fully deterministic: same arrivals, same costs, same sheds.

use std::collections::VecDeque;

use gupster_netsim::SimTime;

use crate::client::SharedAnswer;
use crate::error::GupsterError;

/// The priority class of a request, per the paper's traffic split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Call-setup path (presence, routing): latency-critical, preempts
    /// bulk work and is shed last.
    CallDelivery,
    /// Bulk profile traffic (edits, address-book reads): absorbs the
    /// shed under overload.
    ProfileEdit,
}

/// Sizing of the admission plane.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Number of virtual ingress queues. Fixed per service — NOT per
    /// physical shard — so shed decisions are rescale-invariant.
    pub queues: usize,
    /// Waiting-room bound per queue (requests waiting, excluding the
    /// one in service). Depth `capacity` sheds the next arrival.
    pub capacity: usize,
    /// Call-class trunk count per queue (telephony fast-busy): a call
    /// arriving when `call_slots` calls are already in the system
    /// (in service + waiting) is shed immediately rather than queued
    /// past its deadline. Because calls run non-preemptible once
    /// started and never wait behind bulk work, an admitted call's
    /// sojourn is bounded by `call_slots × max call service time` —
    /// a deterministic latency guarantee, not a statistical one.
    /// `usize::MAX` disables the guard.
    pub call_slots: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { queues: 8, capacity: 32, call_slots: usize::MAX }
    }
}

/// Why a request was refused: the queue it routed to and the state the
/// shed decision observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedCause {
    /// Class of the shed request.
    pub class: Priority,
    /// The virtual ingress queue that refused it.
    pub queue: usize,
    /// Waiting-room depth at the decision.
    pub depth: usize,
    /// The queue's configured capacity.
    pub capacity: usize,
    /// `true` when the request had already been admitted and was
    /// evicted to seat a higher-priority arrival.
    pub evicted: bool,
}

/// The resolution of one open-loop request. Exactly one of these per
/// arrival — the no-silent-drop guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request was admitted and executed; this is the pipeline's
    /// own result (which may itself be a typed error).
    Answer(Result<SharedAnswer, GupsterError>),
    /// The request was shed (or failed transiently) but a previously
    /// completed answer for the same (owner, requester, path) covered
    /// it; `age` is profile-clock ticks since that answer was fresh.
    Stale {
        /// The cached merged result, shared with the stale rung.
        result: SharedAnswer,
        /// Staleness in profile-clock ticks.
        age: u64,
    },
    /// Admission control refused the request and no stale answer
    /// covered it.
    Overloaded(ShedCause),
}

/// One completed service: the job index given to [`IngressQueue::offer`]
/// plus its arrival and finish instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller-supplied job index.
    pub idx: usize,
    /// Class the job ran as.
    pub class: Priority,
    /// When the job arrived at the queue.
    pub arrived: SimTime,
    /// When its service completed (sojourn = `finished - arrived`).
    pub finished: SimTime,
}

/// One shed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Caller-supplied job index.
    pub idx: usize,
    /// What the shed decision observed.
    pub cause: ShedCause,
}

/// What one [`IngressQueue::offer`] call did besides completing jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferOutcome {
    /// A job shed by this offer: the arrival itself, or a waiting bulk
    /// job evicted to seat it.
    pub shed: Option<Shed>,
    /// `true` when the arrival preempted a bulk job in service.
    pub preempted: bool,
}

/// Service cost oracle: maps (job index, service-start instant) to the
/// job's service time. Called exactly once per admitted job — a
/// preempted job resumes with its remaining time, it is not re-costed.
pub(crate) type CostFn<'a> = &'a mut dyn FnMut(usize, SimTime) -> SimTime;

#[derive(Debug, Clone, Copy)]
struct Waiting {
    idx: usize,
    arrived: SimTime,
    /// `Some` for a preempted job carrying its unfinished service time.
    remaining: Option<SimTime>,
}

#[derive(Debug, Clone, Copy)]
struct Running {
    idx: usize,
    class: Priority,
    arrived: SimTime,
    finish: SimTime,
}

/// A single-server priority queue with a bounded waiting room,
/// preemptive-resume for [`Priority::CallDelivery`] and deterministic
/// eviction under pressure. Time never flows backwards: callers must
/// offer arrivals in non-decreasing time order.
#[derive(Debug)]
pub struct IngressQueue {
    id: usize,
    capacity: usize,
    call_slots: usize,
    calls: VecDeque<Waiting>,
    edits: VecDeque<Waiting>,
    current: Option<Running>,
    /// Instant the server last went idle (or [`SimTime::ZERO`]).
    idle_from: SimTime,
    preemptions: u64,
    max_depth: usize,
}

impl IngressQueue {
    /// An empty queue with the given id, waiting-room bound and
    /// call-class trunk count ([`AdmissionConfig::call_slots`]).
    pub fn new(id: usize, capacity: usize, call_slots: usize) -> Self {
        IngressQueue {
            id,
            capacity,
            call_slots,
            calls: VecDeque::new(),
            edits: VecDeque::new(),
            current: None,
            idle_from: SimTime::ZERO,
            preemptions: 0,
            max_depth: 0,
        }
    }

    /// Jobs in the waiting room (excludes the one in service).
    pub(crate) fn depth(&self) -> usize {
        self.calls.len() + self.edits.len()
    }

    /// High-water waiting-room depth observed so far.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Bulk services preempted by call arrivals so far.
    pub(crate) fn preemptions(&self) -> u64 {
        self.preemptions
    }

    fn note_depth(&mut self) {
        self.max_depth = self.max_depth.max(self.depth());
    }

    /// Advances the queue's private clock to `now`: completes every
    /// service finishing at or before `now` (pushed onto `done`) and
    /// starts waiting jobs — calls strictly before bulk, FIFO within a
    /// class, a preempted job resuming with its remaining time.
    pub(crate) fn run_until(&mut self, now: SimTime, cost: CostFn<'_>, done: &mut Vec<Completion>) {
        loop {
            if let Some(run) = self.current {
                if run.finish > now {
                    return;
                }
                done.push(Completion {
                    idx: run.idx,
                    class: run.class,
                    arrived: run.arrived,
                    finished: run.finish,
                });
                self.idle_from = run.finish;
                self.current = None;
            }
            let (class, w) = if let Some(w) = self.calls.pop_front() {
                (Priority::CallDelivery, w)
            } else if let Some(w) = self.edits.pop_front() {
                (Priority::ProfileEdit, w)
            } else {
                return;
            };
            let start = self.idle_from.max(w.arrived);
            let service = match w.remaining {
                Some(rem) => rem,
                None => cost(w.idx, start),
            };
            self.current = Some(Running { idx: w.idx, class, arrived: w.arrived, finish: start + service });
        }
    }

    /// Offers job `idx` of class `class` arriving at `now`. Runs the
    /// queue up to `now` first (completions land in `done`), then
    /// serves, enqueues, preempts or sheds per the class rules.
    pub fn offer(
        &mut self,
        idx: usize,
        class: Priority,
        now: SimTime,
        cost: CostFn<'_>,
        done: &mut Vec<Completion>,
    ) -> OfferOutcome {
        self.run_until(now, cost, done);
        let mut outcome = OfferOutcome { shed: None, preempted: false };
        // Fast busy: a call joining `call_slots` calls already in the
        // system would miss its deadline — refuse it now (possibly to a
        // stale presence serve) instead of answering late. Calls behind
        // a bulk service never trip this: they preempt with zero wait.
        if class == Priority::CallDelivery {
            let ahead = self.calls.len()
                + usize::from(
                    matches!(self.current, Some(run) if run.class == Priority::CallDelivery),
                );
            if ahead >= self.call_slots {
                return OfferOutcome {
                    shed: Some(Shed {
                        idx,
                        cause: ShedCause {
                            class,
                            queue: self.id,
                            depth: ahead,
                            capacity: self.call_slots,
                            evicted: false,
                        },
                    }),
                    preempted: false,
                };
            }
        }
        match self.current {
            // A call arriving while a bulk job is in service takes the
            // server immediately (preemptive-resume).
            Some(run) if class == Priority::CallDelivery && run.class == Priority::ProfileEdit => {
                let remaining = run.finish - now; // > 0: run_until drained finishes <= now
                self.preemptions += 1;
                outcome.preempted = true;
                self.current = None;
                if self.capacity == 0 {
                    // Nowhere to park the preempted job: it is the shed.
                    outcome.shed = Some(Shed {
                        idx: run.idx,
                        cause: ShedCause {
                            class: Priority::ProfileEdit,
                            queue: self.id,
                            depth: 0,
                            capacity: 0,
                            evicted: true,
                        },
                    });
                } else {
                    if self.depth() >= self.capacity {
                        // While a bulk job is in service the calls deque
                        // is empty (calls preempt on arrival), so a full
                        // waiting room holds only bulk jobs.
                        let victim = self.edits.pop_back().expect("full waiting room under bulk service holds edits");
                        outcome.shed = Some(Shed {
                            idx: victim.idx,
                            cause: ShedCause {
                                class: Priority::ProfileEdit,
                                queue: self.id,
                                depth: self.depth(),
                                capacity: self.capacity,
                                evicted: true,
                            },
                        });
                    }
                    self.edits.push_front(Waiting {
                        idx: run.idx,
                        arrived: run.arrived,
                        remaining: Some(remaining),
                    });
                }
                let service = cost(idx, now);
                self.current = Some(Running { idx, class, arrived: now, finish: now + service });
                self.note_depth();
            }
            // Server busy with equal-or-higher class: wait or shed.
            Some(_) => {
                if self.depth() < self.capacity {
                    let q = match class {
                        Priority::CallDelivery => &mut self.calls,
                        Priority::ProfileEdit => &mut self.edits,
                    };
                    q.push_back(Waiting { idx, arrived: now, remaining: None });
                    self.note_depth();
                } else if class == Priority::CallDelivery {
                    // A call fights for a seat: evict the newest waiting
                    // bulk job; only an all-call waiting room sheds the
                    // call itself.
                    match self.edits.pop_back() {
                        Some(victim) => {
                            self.calls.push_back(Waiting { idx, arrived: now, remaining: None });
                            self.note_depth();
                            outcome.shed = Some(Shed {
                                idx: victim.idx,
                                cause: ShedCause {
                                    class: Priority::ProfileEdit,
                                    queue: self.id,
                                    depth: self.depth(),
                                    capacity: self.capacity,
                                    evicted: true,
                                },
                            });
                        }
                        None => {
                            outcome.shed = Some(Shed {
                                idx,
                                cause: ShedCause {
                                    class,
                                    queue: self.id,
                                    depth: self.depth(),
                                    capacity: self.capacity,
                                    evicted: false,
                                },
                            });
                        }
                    }
                } else {
                    outcome.shed = Some(Shed {
                        idx,
                        cause: ShedCause {
                            class,
                            queue: self.id,
                            depth: self.depth(),
                            capacity: self.capacity,
                            evicted: false,
                        },
                    });
                }
            }
            // Idle server: straight into service.
            None => {
                let service = cost(idx, now);
                self.current = Some(Running { idx, class, arrived: now, finish: now + service });
            }
        }
        outcome
    }

    /// Runs the queue to quiescence, completing every admitted job.
    pub fn drain(&mut self, cost: CostFn<'_>, done: &mut Vec<Completion>) {
        self.run_until(SimTime(u64::MAX), cost, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(cost_us: u64) -> impl FnMut(usize, SimTime) -> SimTime {
        move |_, _| SimTime::micros(cost_us)
    }

    #[test]
    fn fifo_within_class_and_priority_across() {
        let mut q = IngressQueue::new(0, 8, usize::MAX);
        let mut done = Vec::new();
        let mut cost = fixed(100);
        // Edit at t=0 occupies the server; two edits and two calls queue.
        for (i, (class, t)) in [
            (Priority::ProfileEdit, 0),
            (Priority::ProfileEdit, 10),
            (Priority::CallDelivery, 20),
            (Priority::ProfileEdit, 30),
            (Priority::CallDelivery, 40),
        ]
        .iter()
        .enumerate()
        {
            let out = q.offer(i, *class, SimTime::micros(*t), &mut cost, &mut done);
            assert!(out.shed.is_none());
        }
        q.drain(&mut cost, &mut done);
        // Call at t=20 preempts edit 0; edit 0 resumes before edits 1/3;
        // call 4 arrives during call 2's service so it waits (no
        // call-on-call preemption) and still beats every edit.
        let order: Vec<usize> = done.iter().map(|c| c.idx).collect();
        assert_eq!(order, vec![2, 4, 0, 1, 3]);
        assert_eq!(q.preemptions(), 1);
    }

    #[test]
    fn preemptive_resume_preserves_total_service() {
        let mut q = IngressQueue::new(0, 4, usize::MAX);
        let mut done = Vec::new();
        let mut costed = Vec::new();
        let mut cost = |idx: usize, _start: SimTime| {
            costed.push(idx);
            SimTime::micros(if idx == 0 { 100 } else { 40 })
        };
        q.offer(0, Priority::ProfileEdit, SimTime::ZERO, &mut cost, &mut done);
        q.offer(1, Priority::CallDelivery, SimTime::micros(30), &mut cost, &mut done);
        q.drain(&mut cost, &mut done);
        // Each job costed exactly once even though job 0 was preempted.
        assert_eq!(costed, vec![0, 1]);
        // Call runs 30..70; edit resumes at 70 with 70µs left -> 140.
        assert_eq!(done[0], Completion { idx: 1, class: Priority::CallDelivery, arrived: SimTime::micros(30), finished: SimTime::micros(70) });
        assert_eq!(done[1].idx, 0);
        assert_eq!(done[1].finished, SimTime::micros(140));
    }

    #[test]
    fn full_queue_sheds_edits_but_seats_calls_by_eviction() {
        let mut q = IngressQueue::new(3, 1, usize::MAX);
        let mut done = Vec::new();
        let mut cost = fixed(1000);
        q.offer(0, Priority::ProfileEdit, SimTime::ZERO, &mut cost, &mut done);
        // Seat 1 of 1 taken by edit 1.
        assert!(q.offer(1, Priority::ProfileEdit, SimTime::micros(1), &mut cost, &mut done).shed.is_none());
        // Edit 2 finds the room full: shed, not evicted.
        let shed = q.offer(2, Priority::ProfileEdit, SimTime::micros(2), &mut cost, &mut done).shed.unwrap();
        assert_eq!(shed.idx, 2);
        assert!(!shed.cause.evicted);
        assert_eq!(shed.cause.queue, 3);
        // A call preempts edit 0; parking it evicts waiting edit 1.
        let out = q.offer(3, Priority::CallDelivery, SimTime::micros(3), &mut cost, &mut done);
        assert!(out.preempted);
        let shed = out.shed.unwrap();
        assert_eq!(shed.idx, 1);
        assert!(shed.cause.evicted);
        assert_eq!(shed.cause.class, Priority::ProfileEdit);
        assert!(q.depth() <= 1);
        q.drain(&mut cost, &mut done);
        let served: Vec<usize> = done.iter().map(|c| c.idx).collect();
        assert_eq!(served, vec![3, 0]);
    }

    #[test]
    fn zero_capacity_sheds_the_preempted_edit() {
        let mut q = IngressQueue::new(0, 0, usize::MAX);
        let mut done = Vec::new();
        let mut cost = fixed(100);
        q.offer(0, Priority::ProfileEdit, SimTime::ZERO, &mut cost, &mut done);
        let out = q.offer(1, Priority::CallDelivery, SimTime::micros(10), &mut cost, &mut done);
        assert!(out.preempted);
        assert_eq!(out.shed.unwrap().idx, 0);
        q.drain(&mut cost, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].idx, 1);
    }

    #[test]
    fn idle_gaps_serve_immediately() {
        let mut q = IngressQueue::new(0, 4, usize::MAX);
        let mut done = Vec::new();
        let mut cost = fixed(50);
        q.offer(0, Priority::ProfileEdit, SimTime::micros(100), &mut cost, &mut done);
        q.offer(1, Priority::ProfileEdit, SimTime::micros(1000), &mut cost, &mut done);
        q.drain(&mut cost, &mut done);
        assert_eq!(done[0].finished, SimTime::micros(150));
        assert_eq!(done[1].finished, SimTime::micros(1050));
        assert_eq!(q.max_depth(), 0);
    }

    #[test]
    fn fast_busy_caps_calls_in_system_and_bounds_sojourn() {
        // Two trunks: with a call in service and one waiting, a third
        // simultaneous call gets fast-busy even though the waiting room
        // has plenty of capacity for edits.
        let mut q = IngressQueue::new(0, 32, 2);
        let mut done = Vec::new();
        let mut cost = fixed(100);
        for i in 0..2 {
            let out = q.offer(i, Priority::CallDelivery, SimTime::ZERO, &mut cost, &mut done);
            assert!(out.shed.is_none());
        }
        let out = q.offer(2, Priority::CallDelivery, SimTime::ZERO, &mut cost, &mut done);
        let shed = out.shed.expect("third call must hit fast-busy");
        assert_eq!(shed.idx, 2);
        assert_eq!(shed.cause.capacity, 2);
        assert!(!shed.cause.evicted);
        // Edits are untouched by the trunk cap: the same instant still
        // admits a bulk job into the waiting room.
        assert!(q.offer(3, Priority::ProfileEdit, SimTime::ZERO, &mut cost, &mut done).shed.is_none());
        q.drain(&mut cost, &mut done);
        // Every admitted call's sojourn obeys the deterministic trunk
        // bound: slots x max call service time.
        let bound = SimTime::micros(2 * 100);
        for c in done.iter().filter(|c| c.class == Priority::CallDelivery) {
            assert!(c.finished - c.arrived <= bound, "call {} sojourn {} over trunk bound {bound}", c.idx, c.finished - c.arrived);
        }
        // Once a trunk frees up, new calls are admitted again.
        let out = q.offer(4, Priority::CallDelivery, SimTime::micros(10_000), &mut cost, &mut done);
        assert!(out.shed.is_none());
        q.drain(&mut cost, &mut done);
        assert_eq!(done.iter().filter(|c| c.class == Priority::CallDelivery).count(), 3);
    }
}
