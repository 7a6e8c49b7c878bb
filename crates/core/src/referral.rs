//! Referrals — what GUPster returns instead of data (§4.3).

use std::fmt;

use gupster_store::StoreId;
use gupster_xpath::Path;

use crate::token::SignedQuery;

/// One fetch the client should perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferralEntry {
    /// The data store to ask.
    pub store: StoreId,
    /// The (possibly narrowed) path to ask it for.
    pub path: Path,
    /// Whether this entry alone answers the whole request.
    pub complete: bool,
}

/// The referral returned to a client application:
///
/// ```text
/// gup.yahoo.com/user[@id='arnaud']/address-book ||
/// gup.spcs.com/user[@id='arnaud']/address-book
/// ```
///
/// "where || has to be understood as a choice" — entries marked
/// `complete` are alternatives; incomplete entries are fragments that
/// must all be fetched and merged ("as well as a way to merge the two
/// XML fragments", Fig. 9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Referral {
    /// The entries.
    pub entries: Vec<ReferralEntry>,
    /// True when the client must merge fragments (some entries are
    /// incomplete).
    pub merge_required: bool,
    /// The signed, time-stamped rewritten query the stores will demand.
    pub token: SignedQuery,
    /// `true` when `token` was reused from the registry's referral-token
    /// cache rather than freshly signed. Stores have verified this exact
    /// signature before, so their check memoizes (cheaper simulated
    /// `token.verify`); the bytes on the wire are identical either way.
    pub token_cached: bool,
}

impl Referral {
    /// The complete (choice) alternatives.
    pub fn choices(&self) -> impl Iterator<Item = &ReferralEntry> {
        self.entries.iter().filter(|e| e.complete)
    }

    /// Approximate serialized size in bytes (for network charging).
    pub fn byte_size(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.store.0.len() + e.path.display_len() + 2)
            .sum::<usize>()
            + self.token.byte_size()
    }
}

impl fmt::Display for Referral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("{}{}", e.store, e.path))
            .collect();
        let sep = if self.merge_required { " ++ " } else { " || " };
        f.write_str(&parts.join(sep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Signer;

    fn referral(complete: &[bool]) -> Referral {
        let signer = Signer::new(b"k", 30);
        let entries: Vec<ReferralEntry> = complete
            .iter()
            .enumerate()
            .map(|(i, c)| ReferralEntry {
                store: StoreId::new(format!("store{i}")),
                path: Path::parse("/user/address-book").unwrap(),
                complete: *c,
            })
            .collect();
        let merge_required = entries.iter().any(|e| !e.complete);
        Referral {
            entries,
            merge_required,
            token: signer.sign("arnaud", "app", vec!["/user/address-book".into()], 0),
            token_cached: false,
        }
    }

    #[test]
    fn choice_vs_fragments() {
        let r = referral(&[true, true]);
        assert_eq!(r.choices().count(), 2);
        assert!(r.entries.iter().all(|e| e.complete));
        assert!(!r.merge_required);
        assert!(r.to_string().contains(" || "));

        let r = referral(&[false, false]);
        assert!(r.entries.iter().all(|e| !e.complete));
        assert!(r.merge_required);
        assert!(r.to_string().contains(" ++ "));
    }

    #[test]
    fn byte_size_positive() {
        assert!(referral(&[true]).byte_size() > 50);
    }
}
