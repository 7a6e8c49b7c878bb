//! Signed, time-stamped rewritten queries.
//!
//! §5.3 Security: "When an application sends a request to GUPster for a
//! given component, GUPster checks whether or not access is granted. It
//! rewrites the query accordingly … and signs it, including a timestamp.
//! The application can send the rewritten and signed query to the
//! corresponding data store(s). The store will check the time-stamp and
//! the signature and eventually return the data. We assume that data
//! store will only accept queries which have been signed by GUPster."

use std::fmt;
use std::sync::Arc;

use gupster_xpath::Path;

use crate::sha256::HmacKey;

/// Why a token was rejected by a data store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// The HMAC does not match (tampered or foreign token).
    BadSignature,
    /// The timestamp is outside the acceptance window.
    Expired {
        /// Token issue time.
        issued_at: u64,
        /// Store-local time at verification.
        now: u64,
    },
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenError::BadSignature => f.write_str("query signature invalid"),
            TokenError::Expired { issued_at, now } => {
                write!(f, "query token expired (issued {issued_at}, now {now})")
            }
        }
    }
}

impl std::error::Error for TokenError {}

/// A token's rewritten path set, written once as its part of the
/// canonical payload: each path's display form followed by a NUL, back
/// to back in one buffer. It hashes as it lies; nothing is rebuilt to
/// sign or verify it.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct TokenPaths {
    payload: String,
    count: usize,
}

impl TokenPaths {
    /// Renders `paths` into one buffer, sized once.
    pub(crate) fn render<'a>(paths: impl Iterator<Item = &'a Path> + Clone) -> TokenPaths {
        use std::fmt::Write;
        let size = paths.clone().map(|p| p.display_len() + 1).sum();
        let mut set = TokenPaths { payload: String::with_capacity(size), count: 0 };
        for p in paths {
            // Writing to a `String` never fails.
            let _ = write!(set.payload, "{p}\0");
            set.count += 1;
        }
        set
    }

    /// The paths, in order (a path holding a NUL reads as two).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.payload.split_terminator('\0')
    }

    /// The paths' bytes, NULs left out.
    fn text_len(&self) -> usize {
        self.payload.len() - self.count
    }
}

impl From<Vec<String>> for TokenPaths {
    fn from(paths: Vec<String>) -> Self {
        let mut set = TokenPaths::default();
        for p in &paths {
            set.payload.push_str(p);
            set.payload.push('\0');
        }
        set.count = paths.len();
        set
    }
}

/// Shown as the list of paths it holds.
impl fmt::Debug for TokenPaths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A rewritten query, signed by GUPster, presentable to data stores.
/// The ids are shared with the registry's tables, not copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedQuery {
    /// The profile owner the query concerns.
    pub user: Arc<str>,
    /// The requester identity (so stores can log provenance).
    pub requester: Arc<str>,
    /// The (rewritten) query paths, serialized.
    pub paths: TokenPaths,
    /// Issue timestamp (seconds, simulated wall clock).
    pub issued_at: u64,
    /// HMAC-SHA256 over the canonical payload.
    pub signature: [u8; 32],
}

impl SignedQuery {
    /// Serialized size (for network charging).
    pub fn byte_size(&self) -> usize {
        self.user.len() + self.requester.len() + self.paths.text_len() + 8 + 32
    }
}

/// The signer role. GUPster holds the key; in the paper's trust model
/// each data store shares it (or, in a real deployment, holds GUPster's
/// public key — symmetric HMAC stands in for signatures here).
#[derive(Clone)]
pub struct Signer {
    /// The shared key's HMAC midstates: enough to forge tokens, so
    /// `Debug` leaves them out.
    key: HmacKey,
    /// Acceptance window in seconds ("the store will check the
    /// time-stamp").
    pub freshness_window: u64,
}

impl fmt::Debug for Signer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signer").field("freshness_window", &self.freshness_window).finish_non_exhaustive()
    }
}

impl Signer {
    /// Creates a signer with the shared key and a freshness window.
    pub fn new(key: &[u8], freshness_window: u64) -> Self {
        Signer { key: HmacKey::new(key), freshness_window }
    }

    /// The MAC of the canonical payload — user, requester and each path,
    /// each followed by a NUL, then the big-endian issue time — streamed
    /// into the hasher field by field (the path set is already laid out
    /// that way).
    fn mac(&self, user: &str, requester: &str, paths: &TokenPaths, issued_at: u64) -> [u8; 32] {
        self.key.mac(|h| {
            for field in [user, requester] {
                h.update(field.as_bytes());
                h.update(&[0]);
            }
            h.update(paths.payload.as_bytes());
            h.update(&issued_at.to_be_bytes());
        })
    }

    /// Signs a rewritten query at time `now`.
    pub fn sign(
        &self,
        user: &str,
        requester: &str,
        paths: impl Into<TokenPaths>,
        now: u64,
    ) -> SignedQuery {
        self.sign_shared(Arc::from(user), Arc::from(requester), paths.into(), now)
    }

    /// [`Signer::sign`] over ids the caller already shares: the token
    /// holds them as given.
    pub(crate) fn sign_shared(
        &self,
        user: Arc<str>,
        requester: Arc<str>,
        paths: TokenPaths,
        now: u64,
    ) -> SignedQuery {
        let signature = self.mac(&user, &requester, &paths, now);
        SignedQuery { user, requester, paths, issued_at: now, signature }
    }

    /// Store-side verification: signature plus freshness. A token from
    /// the "future" (clock skew beyond the window) is also rejected.
    pub fn verify(&self, q: &SignedQuery, now: u64) -> Result<(), TokenError> {
        let expect = self.mac(&q.user, &q.requester, &q.paths, q.issued_at);
        // Constant-time-ish comparison (accumulate differences).
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(q.signature.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(TokenError::BadSignature);
        }
        let fresh = now.saturating_sub(q.issued_at) <= self.freshness_window
            && q.issued_at.saturating_sub(now) <= self.freshness_window;
        if !fresh {
            return Err(TokenError::Expired { issued_at: q.issued_at, now });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer() -> Signer {
        Signer::new(b"gupster-shared-key", 30)
    }

    /// A path set signs as its paths' renderings, each NUL-terminated,
    /// so one path rendering as NUL-separated text would sign as a
    /// set of several. The request below would have signed as the
    /// three-path set holding alice's wallet; its NULs no longer parse,
    /// and without them its quote renders as the quote that holds it,
    /// so it stays one path.
    #[test]
    fn no_request_signs_as_another_path_set() {
        let s = signer();
        let smuggled = "/user[@id='alice']/presence[@x=\"a'][@y='\0/user[@id='alice']/wallet\0\"]";
        let three = vec![
            "/user[@id='alice']/presence[@x='a'][@y='".to_string(),
            "/user[@id='alice']/wallet".to_string(),
            "']".to_string(),
        ];
        // The collision itself: the old rendering of the one path.
        let old_rendering = smuggled.replace('"', "'");
        assert_eq!(s.sign("alice", "eve", vec![old_rendering], 7).signature, s.sign("alice", "eve", three, 7).signature);

        let err = Path::parse(smuggled).unwrap_err();
        assert_eq!((err.position, err.message.as_str()), (smuggled.find('\0').unwrap(), "NUL in string literal"));
        let quoted = Path::parse("/user[@id='alice']/presence[@x=\"a'][@y='\"]").unwrap();
        let set = TokenPaths::render(std::iter::once(&quoted));
        assert_eq!(set.iter().collect::<Vec<_>>(), ["/user[@id='alice']/presence[@x=\"a'][@y='\"]"]);
        assert_eq!(set.iter().map(Path::parse).collect::<Vec<_>>(), [Ok(quoted)]);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let s = signer();
        let q = s.sign("alice", "rick", vec!["/user/presence".into()], 1000);
        assert!(s.verify(&q, 1000).is_ok());
        assert!(s.verify(&q, 1029).is_ok());
    }

    #[test]
    fn expired_rejected() {
        let s = signer();
        let q = s.sign("alice", "rick", vec!["/user/presence".into()], 1000);
        assert_eq!(s.verify(&q, 1031), Err(TokenError::Expired { issued_at: 1000, now: 1031 }));
        // Far-future tokens rejected too.
        assert!(matches!(s.verify(&q, 900), Err(TokenError::Expired { .. })));
    }

    #[test]
    fn tamper_detected() {
        let s = signer();
        let mut q = s.sign("alice", "rick", vec!["/user/presence".into()], 1000);
        q.paths = vec!["/user/wallet".to_string()].into(); // privilege escalation attempt
        assert_eq!(s.verify(&q, 1000), Err(TokenError::BadSignature));

        let mut q2 = s.sign("alice", "rick", vec!["/user/presence".into()], 1000);
        q2.user = "bob".into();
        assert_eq!(s.verify(&q2, 1000), Err(TokenError::BadSignature));

        let mut q3 = s.sign("alice", "rick", vec!["/user/presence".into()], 1000);
        q3.issued_at = 2000; // replay with refreshed timestamp
        assert_eq!(s.verify(&q3, 2000), Err(TokenError::BadSignature));
    }

    #[test]
    fn foreign_key_rejected() {
        let s = signer();
        let other = Signer::new(b"rogue-key", 30);
        let q = other.sign("alice", "rick", vec!["/user/presence".into()], 1000);
        assert_eq!(s.verify(&q, 1000), Err(TokenError::BadSignature));
    }

    #[test]
    fn payload_field_separation() {
        // "ali" + "ce" must not collide with "alice" + "".
        let s = signer();
        let a = s.sign("ali", "ce", vec![], 1);
        let b = s.sign("alice", "", vec![], 1);
        assert_ne!(a.signature, b.signature);
    }

    /// The payload layout signatures were computed over before the MAC
    /// streamed it: the fields, NUL-terminated, then the issue time.
    fn oracle_payload(user: &str, requester: &str, paths: &[String], issued_at: u64) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(user.as_bytes());
        p.push(0);
        p.extend_from_slice(requester.as_bytes());
        p.push(0);
        for path in paths {
            p.extend_from_slice(path.as_bytes());
            p.push(0);
        }
        p.extend_from_slice(&issued_at.to_be_bytes());
        p
    }

    /// No token byte changed: on payloads that end just before, on and
    /// just after the one- and two-block padding boundaries, the
    /// streamed signature equals the one-shot HMAC over the old layout.
    #[test]
    fn signatures_match_the_one_shot_hmac_at_block_boundaries() {
        use crate::sha256::tests::oracle_hmac;
        use gupster_rng::check::{alnum, cases};
        use gupster_rng::Rng;
        cases(300, 0x70_4e, |rng| {
            let key = alnum(rng, 0, 80);
            let target = [55usize, 56, 63, 64, 119, 120][rng.gen_range(0..6usize)];
            let n_paths = rng.gen_range(0..4usize);
            // Text bytes left once the NULs and the timestamp are counted.
            let mut text = target - 8 - (2 + n_paths);
            let mut lengths: Vec<usize> = (0..1 + n_paths).map(|_| rng.gen_range(0..=text)).collect();
            lengths.sort_unstable();
            let mut fields: Vec<String> = Vec::new();
            let mut taken = 0;
            for cut in lengths {
                fields.push(alnum(rng, cut - taken, cut - taken));
                taken = cut;
            }
            text -= taken;
            fields.push(alnum(rng, text, text));
            let (user, requester) = (fields[0].clone(), fields[1].clone());
            let paths = fields[2..].to_vec();
            let now = rng.gen_range(0..u64::MAX);
            let payload = oracle_payload(&user, &requester, &paths, now);
            assert_eq!(payload.len(), target);
            let q = Signer::new(key.as_bytes(), 30).sign(&user, &requester, paths, now);
            assert_eq!(q.signature, oracle_hmac(key.as_bytes(), &payload), "{target}-byte payload");
        });
    }

    /// A token signed from shared ids over a rendered path set is the
    /// token `sign` makes from borrowed ids and a list of path strings:
    /// every field and the signature agree, the signature is the
    /// one-shot HMAC over the NUL-separated payload, and the buffer
    /// round-trips — it lists the paths it was rendered from, verifies,
    /// and signs the same token again.
    #[test]
    fn shared_ids_and_a_rendered_path_set_sign_the_same_token() {
        use crate::sha256::tests::oracle_hmac;
        use gupster_rng::check::{alnum, cases, lowercase};
        use gupster_rng::Rng;
        cases(300, 0x70_4f, |rng| {
            let key = alnum(rng, 1, 40);
            let (user, requester) = (alnum(rng, 0, 12), alnum(rng, 0, 12));
            let paths: Vec<Path> = (0..rng.gen_range(0..5usize))
                .map(|_| {
                    let below = lowercase(rng, 1, 12);
                    Path::parse(&format!("/user[@id='{user}']/{below}")).unwrap()
                })
                .collect();
            let strings: Vec<String> = paths.iter().map(Path::to_string).collect();
            let now = rng.gen_range(0..u64::MAX / 2);
            let signer = Signer::new(key.as_bytes(), 30);

            let shared = signer.sign_shared(
                Arc::from(user.as_str()),
                Arc::from(requester.as_str()),
                TokenPaths::render(paths.iter()),
                now,
            );
            let plain = signer.sign(&user, &requester, strings.clone(), now);
            assert_eq!(shared, plain);
            let payload = oracle_payload(&user, &requester, &strings, now);
            assert_eq!(shared.signature, oracle_hmac(key.as_bytes(), &payload));
            assert_eq!(shared.paths.iter().collect::<Vec<_>>(), strings);
            let text: usize = strings.iter().map(String::len).sum();
            assert_eq!(shared.byte_size(), user.len() + requester.len() + text + 40);
            assert_eq!(signer.verify(&shared, now), Ok(()));
            let again = signer.sign(&shared.user, &shared.requester, shared.paths.clone(), now);
            assert_eq!(again, shared);
        });
    }

    #[test]
    fn debug_lists_the_paths() {
        let q = signer().sign("alice", "rick", vec!["/a".to_string(), "/b".to_string()], 1);
        assert!(format!("{q:?}").contains(r#"paths: ["/a", "/b"]"#), "{q:?}");
    }

    #[test]
    fn debug_shows_no_key_material() {
        let s = Signer::new(b"secret-key", 30);
        assert_eq!(format!("{s:?}"), "Signer { freshness_window: 30, .. }");
    }

    #[test]
    fn byte_size_counts_fields() {
        let s = signer();
        let q = s.sign("alice", "rick", vec!["/user/presence".into()], 1);
        assert!(q.byte_size() > 40);
    }
}
