//! The four workloads, as parameter sets over one fleet shape.
//!
//! Every workload is the same program under a different traffic mix;
//! what differs is which layer does the work. `why` is printed with the
//! results and repeated in `BENCHMARK.json`.

/// Worker threads / registry shards: `nproc` of the reference box. The
/// sharded planes spawn one scoped worker per shard per window, so this
/// is also the thread count.
pub const SHARDS: usize = 2;

/// Requests per scatter window (one `answer_batch` call, one
/// singleflight window).
pub const WINDOW: usize = 512;

/// The write side of a workload: replica stars and push subscriptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteSpec {
    /// Users (the first this many) that own a replica star and five
    /// push subscriptions.
    pub writers: usize,
    /// Device replicas per star (plus the hub).
    pub devices: usize,
    /// Zipf exponent of the editing owners.
    pub theta: f64,
    /// Device edits per round.
    pub edits_per_round: usize,
    /// Post-write friend reads per round.
    pub reads_per_round: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub users: usize,
    /// Multi-tenant `XmlStore`s the profiles spread over.
    pub stores: usize,
    /// Address-book items of type `personal` / `corporate`. With both
    /// non-zero the book is split across two stores and every book
    /// request is a merge referral; with `corporate == 0` one store
    /// holds the whole book.
    pub personal: usize,
    pub corporate: usize,
    /// Requests in every 20 that ask for the address book (the rest ask
    /// for presence). The mix is dealt round-robin, not drawn, so every
    /// window of every seed has exactly the same composition.
    pub book_per_20: u64,
    /// Zipf exponent of the owners.
    pub theta: f64,
    /// Requesters in every 20 that are the owner / a friend; the rest
    /// are strangers, who must be denied.
    pub self_per_20: u64,
    pub friend_per_20: u64,
    /// Referral-token cache on, with this freshness window (seconds).
    pub token_cache: Option<u64>,
    /// Requests of the fixed verify + warm-up phase.
    pub warmup_ops: usize,
    /// Windows (write workloads: rounds) between warm-up and the
    /// measured part whose allocations are counted: a fixed amount of
    /// work at a fixed point of the request stream, so the count is the
    /// same on every run with the same seed however fast the machine
    /// is. As many as the workload's speed affords.
    pub alloc_units: usize,
    /// Further warm-up requests allowed while the registry's audit
    /// rings fill (see `fleet::AUDIT_RETENTION`). Zero where a request
    /// costs so much that the ring's upkeep cannot be seen.
    pub fill_cap_ops: usize,
    /// `Some` when writes are part of the measured run.
    pub write: Option<WriteSpec>,
}

/// The write probe of the traced run on read-only workloads: the
/// workload's own profile shape pushed through the write path.
pub const PROBE_WRITE: WriteSpec =
    WriteSpec { writers: 500, devices: 3, theta: 0.6, edits_per_round: 250, reads_per_round: 50 };

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "call_path",
            why: "20k users, 90% presence, working set far beyond the 4096-entry decision memo: registry work (schema, PDP, memo eviction, trie, HMAC, window spawn) is the cost, XML is not",
            users: 20_000,
            stores: 6,
            personal: 3,
            corporate: 2,
            book_per_20: 2,
            theta: 0.2,
            self_per_20: 9,
            friend_per_20: 9,
            token_cache: None,
            warmup_ops: 40 * WINDOW,
            alloc_units: 16,
            fill_cap_ops: 80 * WINDOW,
            write: None,
        },
        Spec {
            name: "book_merge",
            why: "2k users, 90% split 200-item address books merged from two stores: XML adopt/merge/materialize/serialize is the cost, the registry is not; bypass for registry changes",
            users: 2_000,
            stores: 2,
            personal: 120,
            corporate: 80,
            book_per_20: 18,
            theta: 0.2,
            self_per_20: 20,
            friend_per_20: 0,
            token_cache: None,
            warmup_ops: 4 * WINDOW,
            alloc_units: 4,
            fill_cap_ops: 0,
            write: None,
        },
        Spec {
            name: "hot_repeat",
            why: "2k users at Zipf 0.99 with the token cache on: memo hits, token reuse and in-window singleflight serve most requests; shows cache and per-window overhead, bypass for registry and XML speed-ups",
            users: 2_000,
            stores: 6,
            personal: 20,
            corporate: 10,
            book_per_20: 14,
            theta: 0.99,
            self_per_20: 20,
            friend_per_20: 0,
            token_cache: Some(1 << 16),
            warmup_ops: 40 * WINDOW,
            alloc_units: 16,
            fill_cap_ops: 80 * WINDOW,
            write: None,
        },
        Spec {
            name: "edit_storm",
            write: Some(WriteSpec {
                writers: 500,
                devices: 3,
                theta: 0.6,
                edits_per_round: 250,
                reads_per_round: 50,
            }),
            why: "500 replica stars edited, reconciled, written through, pushed to 5 subscribers each and read back: the only workload where invalidation, sync and push delivery cost shows",
            users: 2_000,
            stores: 2,
            personal: 40,
            corporate: 0,
            book_per_20: 20,
            theta: 0.6,
            self_per_20: 0,
            friend_per_20: 20,
            token_cache: Some(1 << 16),
            warmup_ops: 2 * 300,
            alloc_units: 4,
            fill_cap_ops: 0,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric as `BENCHMARK.json` declares it: `bound` is the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The same seven metrics on every workload. (`fail_rate` is reported
/// through the result line's `failed` / `attempted`; its seed value is
/// 0, which a bounded metric may never be.)
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "throughput_ops", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "p99_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "allocs_per_op", unit: "count", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "alloc_bytes_per_op", unit: "B", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this program is what
    /// it runs. They must name the same workloads and metrics.
    #[test]
    fn benchmark_json_agrees_with_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json sits beside benchmark/")
            .split_whitespace()
            .collect();
        let squeezed = |s: String| -> String { s.split_whitespace().collect() };
        for w in all() {
            let entry = squeezed(format!("{{\"name\":\"{}\",\"why\":\"{}\"}}", w.name, w.why));
            assert!(json.contains(&entry), "workload {} differs from BENCHMARK.json", w.name);
        }
        for m in END_TO_END {
            let better = if m.better == Better::Higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "end-to-end metric {} differs from BENCHMARK.json", m.name);
        }
        // Every per-layer metric the file promises is one the traced
        // run emits (the driver checks the other direction).
        let (_, per_layer) = json.split_once("\"per_layer\":").expect("per_layer section");
        let trace_source = include_str!("trace.rs");
        let names: Vec<&str> =
            per_layer.split("{\"name\":\"").skip(1).filter_map(|s| s.split('"').next()).collect();
        assert!(names.len() >= 40, "per_layer lists {} metrics", names.len());
        for name in names {
            assert!(
                trace_source.contains(&format!("\"{name}\",")),
                "{name} is not emitted by the traced run"
            );
        }
        assert!(json.contains(&format!("\"run_seconds\":{}", crate::DEFAULT_SECONDS)));
    }

    #[test]
    fn mixes_are_whole_twentieths() {
        for w in all() {
            assert!(w.book_per_20 <= 20 && w.self_per_20 + w.friend_per_20 <= 20, "{}", w.name);
        }
    }
}
