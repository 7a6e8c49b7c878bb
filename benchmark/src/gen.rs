//! The benchmark's own input generator: splitmix64, a Zipf sampler and
//! the request/edit streams built from them.
//!
//! Deliberately independent of `gupster-rng` and `gupster-bench`: a
//! later change to the repository's generators must not be able to move
//! the benchmark's inputs.

use crate::spec::Spec;

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, and every seed — 0 included — is a good seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n`: `P(rank k) ∝ 1 / (k + 1)^theta`, sampled by
/// binary search over the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn head_mass(&self, k: usize) -> f64 {
        self.cdf[k.min(self.cdf.len()) - 1]
    }
}

/// What the generator expects the program to do with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A non-empty answer.
    Answer,
    /// `AccessDenied` — a stranger asked; being refused is the correct
    /// outcome, not a failure.
    Denied,
}

/// One request as a client would send it: strings and a clock reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRequest {
    pub owner: String,
    pub path: String,
    pub requester: String,
    pub now: u64,
    pub expect: Expect,
}

impl RawRequest {
    /// The request's wire bytes (determinism tests hash these).
    pub fn wire(&self) -> String {
        format!("{}|{}|{}|{}", self.owner, self.path, self.requester, self.now)
    }
}

/// The fixed-width id of user `i`.
pub fn user_id(i: usize) -> String {
    format!("u{i:06}")
}

/// The `k`-th friend of user `i` in a population of `n` (owners
/// provision `FRIENDS` of them with `relationship='friend'`).
pub fn friend_of(i: usize, k: usize, n: usize) -> usize {
    (i + 1 + k) % n
}

/// A user nobody provisioned as `i`'s friend.
pub fn stranger_of(i: usize, n: usize) -> usize {
    (i + n / 2) % n
}

/// Friends provisioned per owner. `stranger_of` stays outside the
/// friend ring for every population above `2 * FRIENDS + 2`.
pub const FRIENDS: usize = 4;

/// The read-request stream of one workload. The seed draws the owners
/// (Zipf ranks) and which friend asks; everything that decides how much
/// a request *costs* is dealt round-robin over a cycle of 20 — which
/// component, which class of requester — and the rank → user
/// permutation is fixed, so that two seeds give different requests of
/// the same difficulty and their results can be compared. A profile
/// clock advances one second every `OPS_PER_CLOCK_SECOND` requests.
#[derive(Debug, Clone)]
pub struct RequestGen {
    rng: SplitMix64,
    zipf: Zipf,
    by_rank: Vec<u32>,
    book_per_20: u64,
    self_per_20: u64,
    friend_per_20: u64,
    issued: u64,
}

/// A fixed permutation of `0..n` (Fisher–Yates under a constant seed):
/// which users are popular is part of the workload, not of the seed —
/// at Zipf 0.99 the most popular user alone draws an eighth of the
/// traffic, and which shard they hash to would otherwise move the
/// result by several per cent from seed to seed.
fn popularity_order(n: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(0x0F1E_2D3C_4B5A_6978);
    let mut by_rank: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        by_rank.swap(i, rng.below(i + 1));
    }
    by_rank
}

/// Requests per simulated profile-clock second: slow enough that a
/// token signed in a window verifies in the same window under the
/// default 30 s freshness, fast enough that the clock visibly moves.
const OPS_PER_CLOCK_SECOND: u64 = 1000;

impl RequestGen {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        RequestGen {
            rng: SplitMix64::new(seed ^ 0x5EED_0F6E_11AA),
            zipf: Zipf::new(spec.users, spec.theta),
            by_rank: popularity_order(spec.users),
            book_per_20: spec.book_per_20,
            self_per_20: spec.self_per_20,
            friend_per_20: spec.friend_per_20,
            issued: 0,
        }
    }

    fn owner_index(&mut self) -> usize {
        self.by_rank[self.zipf.sample(&mut self.rng)] as usize
    }

    pub fn next_request(&mut self) -> RawRequest {
        let n = self.by_rank.len();
        let i = self.owner_index();
        // 7 and 3 are units modulo 20, so each deal visits every slot of
        // the cycle once, in an order that spreads the rare kinds out.
        let component = if self.issued * 7 % 20 < self.book_per_20 { "address-book" } else { "presence" };
        let who = self.issued * 3 % 20;
        let (requester, expect) = if who < self.self_per_20 {
            (i, Expect::Answer)
        } else if who < self.self_per_20 + self.friend_per_20 {
            (friend_of(i, self.rng.below(FRIENDS), n), Expect::Answer)
        } else {
            (stranger_of(i, n), Expect::Denied)
        };
        self.issued += 1;
        let owner = user_id(i);
        RawRequest {
            path: format!("/user[@id='{owner}']/{component}"),
            owner,
            requester: user_id(requester),
            now: self.issued / OPS_PER_CLOCK_SECOND,
            expect,
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<RawRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }

    /// A friend's read of `owner`'s address book (the post-write reads
    /// of the write rounds).
    pub fn friend_book_read(&mut self, owner: usize) -> RawRequest {
        let n = self.by_rank.len();
        self.issued += 1;
        let id = user_id(owner);
        RawRequest {
            path: format!("/user[@id='{id}']/address-book"),
            owner: id,
            requester: user_id(friend_of(owner, self.rng.below(FRIENDS), n)),
            now: self.issued / OPS_PER_CLOCK_SECOND,
            expect: Expect::Answer,
        }
    }
}

/// One device edit, in generator terms (the driver turns it into an
/// `EditOp`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEdit {
    /// Index of the owner among the users that have replica stars.
    pub writer: usize,
    pub device: usize,
    pub kind: EditKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditKind {
    /// Rename the contact at `item` to `text`.
    SetName { item: usize, text: String },
    /// Append a fresh contact with this id.
    Insert { id: String },
}

/// The device-edit stream: Zipf owners over the users with stars,
/// uniform devices, mostly renames with one insert in `INSERT_EVERY`.
#[derive(Debug, Clone)]
pub struct EditGen {
    rng: SplitMix64,
    zipf: Zipf,
    by_rank: Vec<u32>,
    devices: usize,
    items: usize,
    issued: u64,
}

const INSERT_EVERY: u64 = 50;

impl EditGen {
    pub fn new(writers: usize, theta: f64, devices: usize, items: usize, seed: u64) -> Self {
        EditGen {
            rng: SplitMix64::new(seed ^ 0xED17_570A_11BB),
            zipf: Zipf::new(writers, theta),
            by_rank: popularity_order(writers),
            devices,
            items,
            issued: 0,
        }
    }

    pub fn next_edit(&mut self) -> RawEdit {
        let writer = self.by_rank[self.zipf.sample(&mut self.rng)] as usize;
        let device = self.rng.below(self.devices);
        self.issued += 1;
        let kind = if self.issued.is_multiple_of(INSERT_EVERY) {
            EditKind::Insert { id: format!("n{:07}", self.issued) }
        } else {
            EditKind::SetName {
                item: self.rng.below(self.items),
                text: format!("Renamed {}", self.rng.below(9973)),
            }
        };
        RawEdit { writer, device, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn same_seed_same_request_bytes_other_seed_differs() {
        let spec = spec::by_name("call_path").unwrap();
        let wire = |seed: u64| -> Vec<String> {
            RequestGen::new(&spec, seed).take(2000).iter().map(RawRequest::wire).collect()
        };
        assert_eq!(wire(11), wire(11));
        assert_ne!(wire(11), wire(12));
        let edits = |seed: u64| -> Vec<RawEdit> {
            let mut g = EditGen::new(500, 0.6, 3, 40, seed);
            (0..500).map(|_| g.next_edit()).collect()
        };
        assert_eq!(edits(11), edits(11));
        assert_ne!(edits(11), edits(12));
    }

    #[test]
    fn requester_mix_matches_the_spec() {
        let spec = spec::by_name("call_path").unwrap();
        let reqs = RequestGen::new(&spec, 3).take(40_000);
        let denied = reqs.iter().filter(|r| r.expect == Expect::Denied).count() as f64;
        let own = reqs.iter().filter(|r| r.owner == r.requester).count() as f64;
        let book = reqs.iter().filter(|r| r.path.ends_with("address-book")).count() as f64;
        let n = reqs.len() as f64;
        // Dealt, not drawn: the shares are exact over whole cycles.
        assert_eq!((denied / n, own / n, book / n), (0.10, 0.45, 0.10));
        // … and already over any one scatter window, to within a cycle.
        let window_books = reqs[512..1024].iter().filter(|r| r.path.ends_with("address-book")).count();
        assert!((50..=52).contains(&window_books), "{window_books}");
    }

    #[test]
    fn strangers_are_never_friends() {
        for n in [2000usize, 50_000] {
            for i in [0, 1, n / 2, n - 1] {
                let s = stranger_of(i, n);
                assert_ne!(s, i);
                assert!((0..FRIENDS).all(|k| friend_of(i, k, n) != s));
            }
        }
    }

    #[test]
    fn zipf_head_mass() {
        // θ = 0.99 over 2000 ranks: H(20)/H(2000) ≈ 0.44 analytically;
        // θ = 0.2 is close to uniform.
        let hot = Zipf::new(2000, 0.99);
        assert!((hot.head_mass(20) - 0.44).abs() < 0.02, "{}", hot.head_mass(20));
        let flat = Zipf::new(2000, 0.2);
        assert!(flat.head_mass(20) < 0.03, "{}", flat.head_mass(20));
        // The sampler reproduces the table.
        let mut rng = SplitMix64::new(9);
        let n = 100_000;
        let head = (0..n).filter(|_| hot.sample(&mut rng) < 20).count() as f64 / n as f64;
        assert!((head - hot.head_mass(20)).abs() < 0.01, "{head}");
        assert!((hot.head_mass(2000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }
}
