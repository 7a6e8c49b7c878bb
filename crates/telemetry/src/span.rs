//! Spans and the per-request [`Tracer`].

use std::fmt;
use std::sync::Arc;

use gupster_netsim::SimTime;
use gupster_xml::{NameId, NameInterner};

use crate::hub::{Exemplar, TelemetryHub};

/// Identifier of one end-to-end request, assigned monotonically by the
/// [`TelemetryHub`] that owns the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// One finished span: a labelled stage of a request, with simulated
/// start/end instants relative to the request's own time zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub request: RequestId,
    /// Span id, unique within the request (0 is the root).
    pub id: u64,
    /// Parent span id; `None` exactly for the root span.
    pub parent: Option<u64>,
    /// Stage label (see [`crate::stage`]).
    pub stage: String,
    /// Start instant (request-relative simulated time).
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

impl Span {
    /// The span's duration.
    pub(crate) fn duration(&self) -> SimTime {
        SimTime(self.end.0.saturating_sub(self.start.0))
    }
}

/// True when `spans` (all of one request) form a single rooted tree:
/// unique ids, exactly one root, and every parent link resolving to a
/// span in the set. This is the shape the trace exporter guarantees.
pub fn single_rooted_tree(spans: &[Span]) -> bool {
    if spans.is_empty() {
        return false;
    }
    let req = spans[0].request;
    let mut ids = std::collections::BTreeSet::new();
    for s in spans {
        if s.request != req || !ids.insert(s.id) {
            return false;
        }
    }
    let mut roots = 0;
    for s in spans {
        match s.parent {
            None => roots += 1,
            Some(p) => {
                if !ids.contains(&p) || p == s.id {
                    return false;
                }
            }
        }
    }
    roots == 1
}

/// A span in the tracer's hot-path representation: the stage is an
/// interned [`NameId`], so opening and closing a span allocates
/// nothing, and `end` is set when the span closes. The owned-label
/// [`Span`] is materialized only when a trace is retained or captured
/// as an exemplar.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    parent: Option<u64>,
    stage: NameId,
    start: SimTime,
    end: SimTime,
}

/// Builds the span tree of one request.
///
/// The tracer keeps a **cursor** in request-relative simulated time.
/// [`Tracer::enter`] opens a child span at the cursor,
/// [`Tracer::charge`] advances the cursor (attributing the elapsed time
/// to every open span), and [`Tracer::exit`] closes the innermost span
/// and feeds its duration into the hub's per-stage histogram. Dropping
/// the tracer finishes the trace: open spans are closed and the whole
/// tree is handed to the [`TelemetryHub`]. [`Tracer::restart`] does the
/// same and goes on with the next request.
#[derive(Debug)]
pub struct Tracer {
    hub: Arc<TelemetryHub>,
    request: RequestId,
    /// Exemplar identity (see [`Tracer::set_key`]); defaults to the
    /// hub-local request id.
    key: u64,
    cursor: SimTime,
    /// Every span opened so far, in id order: a span's id is its index.
    spans: Vec<RawSpan>,
    /// Ids of the open spans, innermost last.
    open: Vec<usize>,
    /// Stage timings buffered locally and flushed to the hub's
    /// histograms in one batch when the request finishes, so closing a
    /// span never takes the hub's stage lock (shard workers close
    /// thousands per second).
    stage_buf: Vec<(NameId, SimTime)>,
}

/// Spans a tracer has room for before its buffers grow: a sharded
/// answer (lookup, verify, fetch, merge) closes about a dozen.
const SPANS: usize = 16;

/// Nesting depth a tracer has room for before its stack grows.
const OPEN_SPANS: usize = 8;

impl Tracer {
    pub(crate) fn new(hub: Arc<TelemetryHub>, request: RequestId, root_stage: &str) -> Self {
        let mut t = Tracer {
            hub,
            request,
            key: request.0,
            cursor: SimTime::ZERO,
            spans: Vec::with_capacity(SPANS),
            open: Vec::with_capacity(OPEN_SPANS),
            stage_buf: Vec::with_capacity(SPANS),
        };
        t.enter(root_stage);
        t
    }

    /// The request this tracer traces.
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// Overrides the trace's exemplar key. Hub-local [`RequestId`]s
    /// depend on how requests were partitioned across hubs, so sharded
    /// harnesses set the request's *global* submission index here —
    /// that makes exemplar selection byte-identical at any shard count.
    pub fn set_key(&mut self, key: u64) {
        self.key = key;
    }

    /// Finishes the current request exactly as dropping the tracer
    /// would, then starts the next one — a fresh [`RequestId`] (and
    /// exemplar key) with its root span `root_stage` — on the same
    /// buffers. A shard worker traces its whole bucket with one tracer
    /// this way: after the first request, tracing allocates nothing
    /// unless a trace is retained or captured as an exemplar.
    pub fn restart(&mut self, root_stage: &str) {
        self.finish();
        self.request = self.hub.next_request();
        self.key = self.request.0;
        self.cursor = SimTime::ZERO;
        self.spans.clear();
        self.enter(root_stage);
    }

    /// The hub this tracer reports to (for bumping counters mid-trace).
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// The cursor: request-relative simulated time charged so far.
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// Opens a child span under the innermost open span.
    pub fn enter(&mut self, stage: &str) {
        let parent = self.open.last().map(|&p| p as u64);
        self.open.push(self.spans.len());
        self.spans.push(RawSpan {
            parent,
            stage: NameInterner::intern(stage),
            start: self.cursor,
            end: self.cursor,
        });
    }

    /// Advances the cursor by `dt`, attributing the time to every open
    /// span (the innermost is the one whose *exclusive* time grows).
    pub fn charge(&mut self, dt: SimTime) {
        self.cursor += dt;
    }

    /// Closes the innermost open span. The root span can only be closed
    /// by finishing the tracer (dropping it), so unbalanced `exit`s are
    /// caught early instead of corrupting the tree.
    ///
    /// # Panics
    /// When only the root span is open.
    pub fn exit(&mut self) {
        assert!(self.open.len() > 1, "Tracer::exit would close the root span");
        self.close_innermost();
    }

    /// Convenience: a leaf span of the given stage and duration.
    pub fn span(&mut self, stage: &str, cost: SimTime) {
        self.enter(stage);
        self.charge(cost);
        self.exit();
    }

    /// A zero-duration marker span (e.g. [`crate::stage::CACHE_HIT`]).
    pub fn mark(&mut self, stage: &str) {
        self.span(stage, SimTime::ZERO);
    }

    /// Flushes the buffered stage timings to the hub's histograms
    /// mid-trace, under one lock. Long-running requests (the resilience
    /// ladder between rungs, shard workers between windows) call this
    /// so an observability snapshot taken while the request is still
    /// open sees its closed spans instead of an empty histogram — the
    /// flush-on-drop buffering no longer implies read-side blindness.
    pub fn flush_stages(&mut self) {
        self.hub.record_stage_ids(&self.stage_buf);
        self.stage_buf.clear();
    }

    /// The owned-label [`Span`] of span `id`.
    fn materialize(&self, id: usize) -> Span {
        let raw = &self.spans[id];
        Span {
            request: self.request,
            id: id as u64,
            parent: raw.parent,
            stage: raw.stage.to_string(),
            start: raw.start,
            end: raw.end,
        }
    }

    fn close_innermost(&mut self) {
        let id = self.open.pop().expect("close_innermost on empty stack");
        let span = &mut self.spans[id];
        span.end = self.cursor;
        self.stage_buf.push((span.stage, SimTime(span.end.0.saturating_sub(span.start.0))));
    }

    /// Finishes the request: open spans are closed, the buffered stage
    /// timings reach the hub under one lock, and the span tree is
    /// offered as an exemplar and retained, as the hub's policies ask.
    fn finish(&mut self) {
        while !self.open.is_empty() {
            self.close_innermost();
        }
        self.flush_stages();
        // Labels materialize only when someone will actually hold the
        // spans: the retention store, the exemplar store, or both.
        let exemplify = self.hub.wants_exemplar(self.cursor);
        let retain = self.hub.span_room() > 0;
        if !(exemplify || retain) {
            return;
        }
        // Id order is root-first order: a parent opens before its
        // children.
        let spans: Vec<Span> = (0..self.spans.len()).map(|id| self.materialize(id)).collect();
        if exemplify {
            let exemplar =
                Exemplar { key: self.key, duration: self.cursor, spans: spans.clone() };
            self.hub.offer_exemplar(exemplar);
        }
        if retain {
            self.hub.absorb(spans);
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::TelemetryHub;

    fn hub() -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub::new())
    }

    #[test]
    fn request_ids_are_monotonic() {
        let h = hub();
        let a = h.tracer("root").request();
        let b = h.tracer("root").request();
        let c = h.tracer("root").request();
        assert!(a.0 < b.0 && b.0 < c.0);
    }

    #[test]
    fn nesting_and_ordering() {
        let h = hub();
        {
            let mut t = h.tracer("registry.lookup");
            t.span("policy.decide", SimTime::micros(5));
            t.enter("coverage.match");
            t.charge(SimTime::micros(3));
            t.span("query.rewrite", SimTime::micros(2));
            t.exit();
            t.span("token.sign", SimTime::micros(20));
        }
        let spans = h.spans();
        assert_eq!(spans.len(), 5);
        assert!(single_rooted_tree(&spans));
        // Root first, ids in creation order.
        assert_eq!(spans[0].stage, "registry.lookup");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].duration(), SimTime::micros(30));
        // query.rewrite nests under coverage.match.
        let rewrite = spans.iter().find(|s| s.stage == "query.rewrite").unwrap();
        let coverage = spans.iter().find(|s| s.stage == "coverage.match").unwrap();
        assert_eq!(rewrite.parent, Some(coverage.id));
        assert_eq!(coverage.duration(), SimTime::micros(5));
        assert_eq!(rewrite.start, SimTime::micros(8));
        // token.sign starts after coverage.match ends.
        let sign = spans.iter().find(|s| s.stage == "token.sign").unwrap();
        assert_eq!(sign.start, SimTime::micros(10));
        assert_eq!(sign.end, SimTime::micros(30));
    }

    #[test]
    fn marker_spans_have_zero_duration() {
        let h = hub();
        {
            let mut t = h.tracer("cache.fetch");
            t.mark("cache.hit");
        }
        let spans = h.spans();
        let hit = spans.iter().find(|s| s.stage == "cache.hit").unwrap();
        assert_eq!(hit.duration(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "root span")]
    fn exiting_root_panics() {
        let h = hub();
        let mut t = h.tracer("root");
        t.exit();
    }

    /// Request `i` of the restart scenario: a nested trace whose length
    /// and shape depend on `i`, keyed like a shard worker keys it.
    fn trace_request(t: &mut Tracer, i: u64) {
        t.set_key(100 + i);
        t.span("policy.decide", SimTime::micros(1 + i % 3));
        t.enter("coverage.match");
        t.charge(SimTime::micros(2 * i));
        if i.is_multiple_of(2) {
            // Left open: finishing the request closes it.
            t.enter("query.rewrite");
            t.charge(SimTime::micros(1));
        }
    }

    /// A hub keeping the three slowest requests of at least 5µs and
    /// room for 20 spans, so retention runs out part way through.
    fn policed_hub() -> Arc<TelemetryHub> {
        let h = hub();
        h.set_exemplar_policy(SimTime::micros(5), 3);
        h.set_span_limit(20);
        h
    }

    #[test]
    fn a_restarted_tracer_reports_like_one_tracer_per_request() {
        const N: u64 = 9;
        let (fresh, reused) = (policed_hub(), policed_hub());
        let mut fresh_ids = Vec::new();
        for i in 0..N {
            let mut t = fresh.tracer("shard.request");
            fresh_ids.push(t.request());
            trace_request(&mut t, i);
        }
        let mut reused_ids = Vec::new();
        let mut t = reused.tracer("shard.request");
        for i in 0..N {
            if i > 0 {
                t.restart("shard.request");
            }
            reused_ids.push(t.request());
            trace_request(&mut t, i);
        }
        drop(t);
        assert_eq!(reused_ids, fresh_ids);
        assert_eq!(reused.spans(), fresh.spans());
        assert_eq!(reused.spans().len(), 20);
        assert_eq!(reused.exemplars(), fresh.exemplars());
        assert_eq!(reused.exemplars().len(), 3);
        assert_eq!(
            format!("{:?}", reused.stage_histograms()),
            format!("{:?}", fresh.stage_histograms())
        );
        assert_eq!(reused.tracer("next").request(), fresh.tracer("next").request());
    }

    #[test]
    fn tree_checker_rejects_malformed() {
        let s = |id, parent| Span {
            request: RequestId(1),
            id,
            parent,
            stage: "s".into(),
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        };
        assert!(single_rooted_tree(&[s(0, None), s(1, Some(0))]));
        assert!(!single_rooted_tree(&[]));
        assert!(!single_rooted_tree(&[s(0, None), s(1, None)]), "two roots");
        assert!(!single_rooted_tree(&[s(0, None), s(2, Some(1))]), "dangling parent");
        assert!(!single_rooted_tree(&[s(0, None), s(0, Some(0))]), "duplicate id");
    }
}
