//! Randomized invariant tests local to the directory crate: DN algebra,
//! filter parser robustness, search-scope monotonicity, syntax
//! normalizers. Deterministic — see `gupster_rng::check`.

use gupster_directory::{AttributeSyntax, Directory, Dn, Entry, Filter, Scope};
use gupster_rng::check::{self, cases};
use gupster_rng::{Rng, StdRng};

fn arb_dn(rng: &mut StdRng) -> Dn {
    // Attribute names get lowercased by the parser, so generate
    // lowercase attrs and alphanumeric values.
    let rdns = check::vec_of(rng, 1, 4, |r| (check::lowercase(r, 1, 4), check::alnum(r, 1, 6)));
    Dn { rdns }
}

/// DN display → parse is the identity.
#[test]
fn dn_display_parse_roundtrip() {
    cases(256, 0xd1_01, |rng| {
        let dn = arb_dn(rng);
        let back = Dn::parse(&dn.to_string()).unwrap();
        assert_eq!(back, dn);
    });
}

/// parent/child are inverse; is_under is a partial order on chains.
#[test]
fn dn_hierarchy_laws() {
    cases(256, 0xd1_02, |rng| {
        let dn = arb_dn(rng);
        let attr = check::lowercase(rng, 1, 4);
        let value = check::alnum(rng, 1, 5);
        let child = dn.child(&attr, &value);
        assert_eq!(child.parent().unwrap(), dn.clone());
        assert!(child.is_under(&dn));
        assert!(child.is_child_of(&dn));
        assert!(!dn.is_under(&child));
        assert!(dn.is_under(&dn));
        assert!(child.is_under(&Dn::root()));
    });
}

/// The filter parser never panics on arbitrary input.
#[test]
fn filter_parser_never_panics() {
    cases(512, 0xd1_03, |rng| {
        let input = check::printable(rng, 0, 60);
        let _ = Filter::parse(&input);
    });
}

/// Base hits ⊆ one-level ∪ base ⊆ subtree hits, for any filter that
/// parses.
#[test]
fn scope_monotonicity() {
    cases(128, 0xd1_04, |rng| {
        let values = check::vec_of(rng, 1, 5, |r| check::lowercase(r, 1, 6));
        let mut dir = Directory::new();
        dir.add(Entry::new(Dn::parse("o=x").unwrap(), &["organization"]).with("o", "x")).unwrap();
        for (i, v) in values.iter().enumerate() {
            dir.add(
                Entry::new(Dn::parse(&format!("cn=c{i},o=x")).unwrap(), &["person"])
                    .with("cn", format!("c{i}"))
                    .with("sn", v.clone()),
            )
            .unwrap();
        }
        let base = Dn::parse("o=x").unwrap();
        let f = Filter::parse("(objectClass=*)").unwrap();
        let b = dir.search(&base, Scope::Base, &f).len();
        let one = dir.search(&base, Scope::OneLevel, &f).len();
        let sub = dir.search(&base, Scope::Subtree, &f).len();
        assert_eq!(b, 1);
        assert_eq!(one, values.len());
        assert_eq!(sub, values.len() + 1);
    });
}

/// Telephone normalization is idempotent and punctuation-blind.
#[test]
fn telephone_syntax_laws() {
    cases(256, 0xd1_05, |rng| {
        let digits = check::vec_of(rng, 3, 11, |r| r.gen_range(0u8..10));
        let syn = AttributeSyntax::Telephone;
        let plain: String = digits.iter().map(|d| d.to_string()).collect();
        let spaced: String = digits.iter().map(|d| format!("{d} ")).collect();
        let parens = format!("({plain})");
        assert!(syn.eq(&plain, &spaced));
        assert!(syn.eq(&plain, &parens));
        let n = syn.normalize(&spaced);
        assert_eq!(syn.normalize(&n), n);
    });
}

/// Case-ignore equality is an equivalence on printable strings:
/// reflexive, symmetric; normalization idempotent.
#[test]
fn case_ignore_laws() {
    cases(256, 0xd1_06, |rng| {
        let a = check::printable(rng, 0, 20);
        let b = check::printable(rng, 0, 20);
        let syn = AttributeSyntax::CaseIgnore;
        assert!(syn.eq(&a, &a));
        assert_eq!(syn.eq(&a, &b), syn.eq(&b, &a));
        let n = syn.normalize(&a);
        assert_eq!(syn.normalize(&n), n);
    });
}

/// Every added leaf entry can be deleted, and delete is idempotent
/// in its failure mode.
#[test]
fn add_delete_roundtrip() {
    cases(256, 0xd1_07, |rng| {
        let cn = check::lowercase(rng, 1, 8);
        let mut dir = Directory::new();
        dir.add(Entry::new(Dn::parse("o=x").unwrap(), &["organization"]).with("o", "x")).unwrap();
        let dn = Dn::parse(&format!("cn={cn},o=x")).unwrap();
        dir.add(Entry::new(dn.clone(), &["person"]).with("cn", cn).with("sn", "s")).unwrap();
        assert!(dir.get(&dn).is_ok());
        assert!(dir.delete(&dn).is_ok());
        assert!(dir.get(&dn).is_err());
        assert!(dir.delete(&dn).is_err());
    });
}
