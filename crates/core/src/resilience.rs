//! Per-request resilience: deadline budgets, bounded retry with
//! deterministic backoff + jitter, and a graceful degradation ladder.
//!
//! Req. 12 asks for "24×7 availability" from a federation of stores
//! that individually are *not* always up. The [`ResilientExecutor`]
//! wraps the §5.2 query patterns with the standard availability
//! machinery — but deterministic: backoff jitter is drawn from a
//! [`StdRng`] seeded by `seed ^ request-id` and all waiting is
//! simulated time, so the same seed reproduces the same retry schedule
//! byte for byte.
//!
//! The degradation ladder runs **referral → chaining → recruiting →
//! stale-cache serve**: each rung moves the merge work somewhere else
//! in the topology (a different set of links must be alive), and the
//! last rung trades freshness for availability. Every answer carries
//! [`ServedVia`] provenance and an explicit staleness flag, so callers
//! can never mistake a degraded answer for a fresh one.
//!
//! The stale rung belongs to the shard registry (`Gupster`) and is
//! shared with the open-loop admission plane. A committed
//! write reaches it through `write_through` alone, and a stale answer
//! is served only while the registry's shield still permits exactly
//! what it permitted when the answer was fresh — a revoked grant is
//! refused, a narrowed one degrades to the error a cold cache gives.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gupster_netsim::SimTime;
use gupster_policy::{Purpose, WeekTime};
use gupster_rng::{Rng, SeedableRng, StdRng};
use gupster_telemetry::{stage, RequestId};
use gupster_xml::MergeKeys;
use gupster_xpath::Path;

use crate::client::{SharedAnswer, StorePool};
use crate::error::GupsterError;
use crate::patterns::{PatternExecutor, QueryPattern};
use crate::registry::Gupster;

/// Bounded retry with exponential backoff and full jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetryPolicy {
    /// Attempts per ladder rung (1 = no retries).
    max_attempts: u32,
    /// Backoff scale: the first retry waits up to this long.
    base_backoff: SimTime,
    /// Ceiling on a single backoff wait.
    max_backoff: SimTime,
}

/// The retry policy of every ladder rung: 3 attempts, 50 ms base
/// backoff, 1 s ceiling.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    base_backoff: SimTime::millis(50),
    max_backoff: SimTime::secs(1),
};

/// The degradation ladder, tried in order before the stale rung.
const LADDER: [QueryPattern; 3] =
    [QueryPattern::Referral, QueryPattern::Chaining, QueryPattern::Recruiting];

impl RetryPolicy {
    /// The wait before retry number `retry` (1-based): full jitter,
    /// uniform in `[0, min(max_backoff, base_backoff · 2^(retry-1))]`.
    /// Deterministic for a given RNG state.
    fn backoff(&self, retry: u32, rng: &mut StdRng) -> SimTime {
        let ceiling = self
            .base_backoff
            .0
            .saturating_mul(1u64 << (retry - 1).min(32))
            .min(self.max_backoff.0);
        SimTime(rng.gen_range(0..=ceiling))
    }
}

/// How a resilient request was ultimately answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// A query pattern ran end to end.
    Pattern(QueryPattern),
    /// Every rung failed; a previously-fetched result was served from
    /// the registry's stale rung.
    StaleCache,
}

/// The outcome of one resilient request, with fallback provenance.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// The merged result (shared with the stale rung).
    pub result: SharedAnswer,
    /// Which rung of the ladder answered.
    pub served: ServedVia,
    /// True when the answer came from the stale rung (then
    /// [`ResilientRun::stale_age`] says how old it is).
    pub stale: bool,
    /// Age of a stale answer in profile-clock seconds.
    pub stale_age: Option<u64>,
    /// How many rungs were fallen through before the answer.
    pub fallbacks: u32,
    /// How many retries (backoff waits) were spent in total.
    pub retries: u32,
    /// End-to-end simulated wall clock, backoffs included.
    pub wall: SimTime,
    /// The traced request id (one rooted span tree covers every
    /// attempt, retry and fallback of this request).
    pub request: RequestId,
    /// The transient errors survived along the way, in order.
    pub errors: Vec<GupsterError>,
}

/// Runs query patterns with deadlines, retries and graceful
/// degradation.
#[derive(Debug)]
pub struct ResilientExecutor<'a> {
    /// The underlying pattern executor (network + topology).
    pub exec: PatternExecutor<'a>,
    /// Deadline budget per request, in simulated time: netsim legs and
    /// backoffs, since CPU stages take none. Attempts only
    /// *start* while the budget holds; an answer that lands past it is
    /// discarded as [`GupsterError::DeadlineExceeded`] (the client has
    /// given up) unless the stale rung can still serve.
    pub budget: SimTime,
    seed: u64,
}

impl<'a> ResilientExecutor<'a> {
    /// Wraps `exec` with 3 attempts per rung, 50 ms base backoff, a 5 s
    /// deadline and the full ladder.
    pub fn new(exec: PatternExecutor<'a>, seed: u64) -> Self {
        ResilientExecutor { exec, budget: SimTime::secs(5), seed }
    }

    /// Replaces the per-request deadline budget.
    pub fn with_budget(mut self, budget: SimTime) -> Self {
        self.budget = budget;
        self
    }

    /// Runs one request through the ladder.
    ///
    /// Transient faults ([`GupsterError::LinkDown`],
    /// [`GupsterError::StoreUnavailable`]) are retried with backoff,
    /// then the next rung is tried; non-transient errors (policy
    /// refusals, spurious queries, ambiguous coverage…) abort
    /// immediately — retrying cannot fix them, and the stale rung must
    /// not paper over a refusal.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch(
        &mut self,
        gupster: &mut Gupster,
        pool: &StorePool,
        owner: &str,
        request: &Path,
        requester: &str,
        time: WeekTime,
        now: u64,
        keys: &MergeKeys,
    ) -> Result<ResilientRun, GupsterError> {
        let hub = gupster.telemetry();
        let mut tracer = hub.tracer(stage::RESILIENCE_REQUEST);
        self.exec.net.begin_request(tracer.request().0);
        let out = self.run(
            gupster, pool, owner, request, requester, time, now, keys, &mut tracer,
        );
        self.exec.net.end_request();
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        gupster: &mut Gupster,
        pool: &StorePool,
        owner: &str,
        request: &Path,
        requester: &str,
        time: WeekTime,
        now: u64,
        keys: &MergeKeys,
        tracer: &mut gupster_telemetry::Tracer,
    ) -> Result<ResilientRun, GupsterError> {
        // Jitter is deterministic per (executor seed, request id): the
        // same seed replays the same backoff schedule.
        let mut rng = StdRng::seed_from_u64(self.seed ^ tracer.request().0);
        let mut errors: Vec<GupsterError> = Vec::new();
        let mut retries = 0u32;
        let mut fallbacks = 0u32;
        let mut over_deadline = false;

        let (result, served, stale_age) = 'answered: {
            'ladder: for (rung, &pattern) in LADDER.iter().enumerate() {
                if rung > 0 {
                    tracer.mark(stage::FALLBACK);
                    tracer.hub().counters().fallbacks.fetch_add(1, Ordering::Relaxed);
                    fallbacks += 1;
                    // A rung transition is a natural flush point: a long
                    // degrading request publishes its closed spans to the
                    // hub's histograms now, so an observability snapshot
                    // taken mid-ladder sees the work already done instead
                    // of an empty buffer.
                    tracer.flush_stages();
                }
                for attempt in 0..RETRY.max_attempts {
                    if tracer.now() >= self.budget {
                        over_deadline = true;
                        break 'ladder;
                    }
                    if attempt > 0 {
                        let wait = RETRY.backoff(attempt, &mut rng);
                        tracer.span(stage::RETRY_BACKOFF, wait);
                        // Waiting advances the network clock too, so a
                        // retry really can outlive a fault window instead
                        // of replaying the same blocked instant.
                        self.exec.net.advance(wait);
                        tracer.hub().counters().retries.fetch_add(1, Ordering::Relaxed);
                        retries += 1;
                        if tracer.now() >= self.budget {
                            over_deadline = true;
                            break 'ladder;
                        }
                    }
                    match self.exec.execute_traced(
                        pattern, gupster, pool, owner, request, requester, time, now, keys, tracer,
                    ) {
                        Ok(run) if tracer.now() <= self.budget => {
                            // Refresh the stale rung so the next outage can
                            // degrade to this answer. Patterns look up with
                            // `Purpose::Query`.
                            let fresh = Arc::clone(&run.result);
                            gupster.remember_answer(
                                owner, request, requester, Purpose::Query, time, fresh, now, None,
                            );
                            break 'answered (run.result, ServedVia::Pattern(pattern), None);
                        }
                        Ok(_) => {
                            // Answered, but past the deadline: the client
                            // has given up — fall through to the stale
                            // rung / deadline error.
                            over_deadline = true;
                            break 'ladder;
                        }
                        Err(e) if is_transient(&e) => errors.push(e),
                        Err(e) => return Err(e),
                    }
                }
            }

            // Ladder exhausted (or deadline hit): the last rung is the
            // registry's stale answer, behind the shield — a revoked
            // grant is refused here, not served.
            match gupster.stale_answer(owner, request, requester, Purpose::Query, time, now)? {
                Some((result, age)) => {
                    tracer.mark(stage::STALE_SERVE);
                    tracer.hub().counters().stale_serves.fetch_add(1, Ordering::Relaxed);
                    (result, ServedVia::StaleCache, Some(age))
                }
                None if over_deadline => {
                    tracer.mark(stage::DEADLINE_EXCEEDED);
                    tracer.hub().counters().deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    return Err(GupsterError::DeadlineExceeded {
                        elapsed: tracer.now(),
                        budget: self.budget,
                    });
                }
                None => {
                    return Err(errors
                        .pop()
                        .unwrap_or_else(|| GupsterError::Store("no ladder rung ran".into())))
                }
            }
        };
        Ok(ResilientRun {
            result,
            served,
            stale: stale_age.is_some(),
            stale_age,
            fallbacks,
            retries,
            wall: tracer.now(),
            request: tracer.request(),
            errors,
        })
    }
}

/// True for errors a retry or fallback can plausibly fix: a fault
/// window closes, a different rung crosses different links.
pub(crate) fn is_transient(e: &GupsterError) -> bool {
    matches!(
        e,
        GupsterError::LinkDown { .. } | GupsterError::StoreUnavailable(_) | GupsterError::Store(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let policy = RETRY;
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for retry in 1..=6 {
            let wa = policy.backoff(retry, &mut a);
            let wb = policy.backoff(retry, &mut b);
            assert_eq!(wa, wb);
            let ceiling = policy
                .base_backoff
                .0
                .saturating_mul(1 << (retry - 1))
                .min(policy.max_backoff.0);
            assert!(wa.0 <= ceiling, "retry {retry}: {wa} > {}", SimTime(ceiling));
        }
    }

    #[test]
    fn backoff_ceiling_saturates() {
        let policy = RetryPolicy {
            max_attempts: 64,
            base_backoff: SimTime::secs(1),
            max_backoff: SimTime::secs(2),
        };
        let mut rng = StdRng::seed_from_u64(1);
        // Far past where 2^(retry-1) would overflow u64.
        let w = policy.backoff(50, &mut rng);
        assert!(w <= policy.max_backoff);
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(&GupsterError::LinkDown { from: "a".into(), to: "b".into() }));
        assert!(is_transient(&GupsterError::StoreUnavailable("s".into())));
        assert!(!is_transient(&GupsterError::AccessDenied {
            owner: "a".into(),
            requester: "m".into()
        }));
        assert!(!is_transient(&GupsterError::AmbiguousCoverage {
            path: "/user".into(),
            candidates: vec![]
        }));
    }
}
