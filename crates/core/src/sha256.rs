//! SHA-256 and HMAC-SHA256, implemented from scratch, on the CPU's SHA
//! extensions where present.
//!
//! The signed-query protocol of §5.3 needs a MAC; no cryptography crate
//! is in the sanctioned dependency set, and FIPS 180-4 SHA-256 is ~150
//! lines. Test vectors come from FIPS 180-4 examples and RFC 4231.
//!
//! [`Sha256`] streams: it compresses straight from the slices it is fed
//! and keeps only a partial block between calls, so a message built
//! field by field is never assembled in memory. [`HmacKey`] hashes the
//! key's ipad and opad blocks once and keeps the two midstates: a MAC
//! then costs the message's own blocks plus one outer block.
//!
//! The block function has two implementations of the same FIPS 180-4
//! arithmetic. On x86-64 CPUs with the SHA extensions, [`compress`]
//! runs [`shani::compress`] (`sha256rnds2`/`msg1`/`msg2`); everywhere
//! else it runs the portable [`compress_soft`]. The CPU decides at run
//! time; there is no option. The hardware call is the crate's only
//! `unsafe`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

const BLOCK: usize = 64;

/// Folds one 64-byte block into the state.
#[allow(unsafe_code)]
fn compress(h: &mut [u32; 8], block: &[u8; BLOCK]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `shani::compress` is safe but for its target features
        // (`sha`, `ssse3`, `sse4.1`), and `available` has just found all
        // three on this CPU.
        return unsafe { shani::compress(h, block) };
    }
    compress_soft(h, block);
}

/// FIPS 180-4's block function in portable code: the path on CPUs
/// without the SHA extensions.
fn compress_soft(h: &mut [u32; 8], block: &[u8; BLOCK]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(v);
    }
}

/// The block function on the x86-64 SHA extensions. The vectors are
/// built and read lane by lane (`_mm_setr_epi32`, `_mm_extract_epi32`),
/// so nothing here touches memory through a pointer.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_setr_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether this CPU runs [`compress`]. The standard library caches
    /// the CPUID answer, so a call costs one load.
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
    }

    /// The next four schedule words W[t..t+4] from the previous sixteen.
    #[target_feature(enable = "sha,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Folds one block into `h`. The state lives in two registers as
    /// Intel orders it: ABEF (lanes F, E, B, A) and CDGH (H, G, D, C).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(h: &mut [u32; 8], block: &[u8; BLOCK]) {
        let lanes = |[a, b, c, d]: [u32; 4]| {
            _mm_setr_epi32(a as i32, b as i32, c as i32, d as i32)
        };
        let (words, _) = block.as_chunks::<4>();
        let (quads, _) = words.as_chunks::<4>();
        let (rounds, _) = K.as_chunks::<4>();
        let mut msg = [lanes([0; 4]); 4];
        for (v, q) in msg.iter_mut().zip(quads) {
            *v = lanes(q.map(u32::from_be_bytes));
        }
        let [mut w0, mut w1, mut w2, mut w3] = msg;
        let [a, b, c, d, e, f, g, hh] = *h;
        let (mut abef, mut cdgh) = (lanes([f, e, b, a]), lanes([hh, g, d, c]));
        let (abef_in, cdgh_in) = (abef, cdgh);
        for (i, k) in rounds.iter().enumerate() {
            let wk = _mm_add_epi32(w0, lanes(*k));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            let next = if i < 12 { schedule(w0, w1, w2, w3) } else { w0 };
            (w0, w1, w2, w3) = (w1, w2, w3, next);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *h = [
            _mm_extract_epi32(abef, 3) as u32,
            _mm_extract_epi32(abef, 2) as u32,
            _mm_extract_epi32(cdgh, 3) as u32,
            _mm_extract_epi32(cdgh, 2) as u32,
            _mm_extract_epi32(abef, 1) as u32,
            _mm_extract_epi32(abef, 0) as u32,
            _mm_extract_epi32(cdgh, 1) as u32,
            _mm_extract_epi32(cdgh, 0) as u32,
        ];
    }
}

/// A streaming SHA-256 hasher.
pub(crate) struct Sha256 {
    state: [u32; 8],
    /// The partial block not yet compressed (`buf[..buffered]`).
    buf: [u8; BLOCK],
    buffered: usize,
    /// Bytes fed so far, the partial block included.
    len: u64,
}

impl Sha256 {
    pub(crate) fn new() -> Self {
        Sha256::resume(H0, 0)
    }

    /// A hasher that has already compressed `len` bytes (a whole number
    /// of blocks) into `state`.
    fn resume(state: [u32; 8], len: u64) -> Self {
        Sha256 { state, buf: [0; BLOCK], buffered: 0, len }
    }

    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<BLOCK>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pads (0x80, zeros, the 8-byte big-endian bit length) and returns
    /// the digest.
    pub(crate) fn finish(mut self) -> [u8; 32] {
        let bitlen = self.len.wrapping_mul(8);
        self.buf[self.buffered] = 0x80;
        self.buf[self.buffered + 1..].fill(0);
        if self.buffered >= BLOCK - 8 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK - 8..].copy_from_slice(&bitlen.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// An HMAC-SHA256 key (RFC 2104), held as the SHA-256 states after the
/// key's ipad block and after its opad block. The raw key is not kept.
#[derive(Clone)]
pub(crate) struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            let mut h = Sha256::new();
            h.update(key);
            k[..32].copy_from_slice(&h.finish());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = H0;
            compress(&mut state, &k.map(|b| b ^ pad));
            state
        };
        HmacKey { inner: midstate(0x36), outer: midstate(0x5c) }
    }

    /// The MAC of whatever `feed` writes into the inner hasher.
    pub(crate) fn mac(&self, feed: impl FnOnce(&mut Sha256)) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, BLOCK as u64);
        feed(&mut inner);
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(&inner.finish());
        outer.finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gupster_rng::check::cases;
    use gupster_rng::Rng;

    /// The one-shot SHA-256 the streaming hasher replaced, compression
    /// loop included: copies and pads the whole message into a fresh
    /// buffer. The oracle the streaming hasher must agree with.
    pub(crate) fn oracle_sha256(data: &[u8]) -> [u8; 32] {
        let mut h = H0;
        let bitlen = (data.len() as u64).wrapping_mul(8);

        // Padded message: data || 0x80 || zeros || 8-byte big-endian length.
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bitlen.to_be_bytes());

        let mut w = [0u32; 64];
        for block in msg.chunks_exact(64) {
            for (i, word) in w.iter_mut().take(16).enumerate() {
                *word = u32::from_be_bytes([
                    block[4 * i],
                    block[4 * i + 1],
                    block[4 * i + 2],
                    block[4 * i + 3],
                ]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }

        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The one-shot HMAC the midstate key replaced: rebuilds and hashes
    /// both pad blocks on every call.
    pub(crate) fn oracle_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&oracle_sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Vec::with_capacity(BLOCK + message.len());
        let mut outer = Vec::with_capacity(BLOCK + 32);
        for b in &k {
            inner.push(b ^ 0x36);
        }
        inner.extend_from_slice(message);
        let inner_hash = oracle_sha256(&inner);
        for b in &k {
            outer.push(b ^ 0x5c);
        }
        outer.extend_from_slice(&inner_hash);
        oracle_sha256(&outer)
    }

    fn sha256(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }

    fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
        HmacKey::new(key).mac(|h| h.update(message))
    }

    fn hex(bytes: &[u8]) -> String {
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / well-known vectors, through both implementations.
        for (data, digest) in [
            (&b""[..], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(hex(&sha256(data)), digest);
            assert_eq!(hex(&oracle_sha256(data)), digest);
        }
    }

    #[test]
    fn portable_compress_equals_the_one_shot() {
        // The hasher dispatches to the SHA extensions where the CPU has
        // them; this keeps the portable loop tested on such a CPU too.
        for n in [0usize, 3, 55, 56, 64, 119, 200] {
            let data = vec![0x61; n];
            let mut padded = data.clone();
            padded.push(0x80);
            while padded.len() % BLOCK != BLOCK - 8 {
                padded.push(0);
            }
            padded.extend_from_slice(&(n as u64 * 8).to_be_bytes());
            let mut state = H0;
            for block in padded.as_chunks::<BLOCK>().0 {
                compress_soft(&mut state, block);
            }
            let digest: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(digest, oracle_sha256(&data), "n={n}");
        }
    }

    #[test]
    fn hardware_compress_equals_the_portable_one() {
        cases(2000, 0x5a_4e1, |rng| {
            let mut state = [0u32; 8];
            state.fill_with(|| rng.gen_range(0..=u32::MAX));
            let mut block = [0u8; BLOCK];
            block.fill_with(|| rng.gen_range(0..=255u8));
            let mut soft = state;
            compress_soft(&mut soft, &block);
            compress(&mut state, &block);
            assert_eq!(state, soft);
        });
        #[cfg(target_arch = "x86_64")]
        let hardware = shani::available();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        if hardware {
            println!("2000 cases ran on the CPU's SHA extensions");
        } else {
            println!("this CPU lacks the SHA extensions: only the portable path ran");
        }
    }

    #[test]
    fn million_a() {
        let m = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&m)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn multi_block_boundaries() {
        // 55, 56, 63, 64, 65 bytes cross padding boundaries.
        for n in [55usize, 56, 63, 64, 65, 119, 120] {
            let d = sha256(&vec![0x61; n]);
            assert_eq!(d, oracle_sha256(&vec![0x61; n]), "n={n}");
            // Digest must differ from neighbor lengths.
            assert_ne!(d, sha256(&vec![0x61; n + 1]), "n={n}");
        }
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Case 6: 131-byte key (hashed down first).
        let key = [0xaau8; 131];
        let message = b"Test Using Larger Than Block-Size Key - Hash Key First";
        let expect = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
        assert_eq!(hex(&hmac_sha256(&key, message)), expect);
        assert_eq!(hex(&oracle_hmac(&key, message)), expect);
    }

    #[test]
    fn hmac_key_sensitivity() {
        let a = hmac_sha256(b"key-a", b"msg");
        let b = hmac_sha256(b"key-b", b"msg");
        assert_ne!(a, b);
        let c = hmac_sha256(b"key-a", b"msg2");
        assert_ne!(a, c);
    }

    /// `0..=max` random bytes.
    fn bytes(rng: &mut impl Rng, max: usize) -> Vec<u8> {
        let len = rng.gen_range(0..=max);
        (0..len).map(|_| rng.gen_range(0..=255u8)).collect()
    }

    /// `data` fed in pieces cut at random points, empty pieces included.
    fn fed_in_pieces(rng: &mut impl Rng, h: &mut Sha256, data: &[u8]) {
        let mut rest = data;
        while !rest.is_empty() {
            let cut = rng.gen_range(0..=rest.len());
            h.update(&rest[..cut]);
            rest = &rest[cut..];
        }
    }

    #[test]
    fn streaming_digest_equals_the_one_shot() {
        cases(500, 0x5a_256, |rng| {
            let data = bytes(rng, 300);
            let mut h = Sha256::new();
            fed_in_pieces(rng, &mut h, &data);
            assert_eq!(h.finish(), oracle_sha256(&data), "{} bytes", data.len());
        });
    }

    #[test]
    fn midstate_hmac_equals_the_one_shot() {
        // Keys up to 200 bytes cross the hash-the-long-key branch at 64.
        cases(500, 0x4d_ac, |rng| {
            let key = bytes(rng, 200);
            let message = bytes(rng, 300);
            let mac = HmacKey::new(&key).mac(|h| fed_in_pieces(rng, h, &message));
            assert_eq!(mac, oracle_hmac(&key, &message), "key {} bytes, message {}", key.len(), message.len());
        });
    }
}
