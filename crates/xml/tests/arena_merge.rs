//! The arena fold checked against the owned fold of `gupster-oracle`:
//! one referral's fragments, merged either way, give the same tree and
//! the same bytes.

use gupster_oracle::merge_all;
use gupster_xml::{merge_arena_all, parse, ArenaDoc, Element, MergeKeys};

fn keys() -> MergeKeys {
    MergeKeys::new().with_key("item", "id")
}

#[test]
fn merge_all_matches_owned_fold() {
    let srcs: Vec<String> = (1..=4)
        .map(|i| format!(r#"<b><item id="{i}"><n>N{i}</n></item></b>"#))
        .collect();
    let owned: Vec<Element> = srcs.iter().map(|s| parse(s).unwrap()).collect();
    let arena: Vec<ArenaDoc> = srcs.iter().map(|s| ArenaDoc::parse(s).unwrap()).collect();
    let refs: Vec<&ArenaDoc> = arena.iter().collect();
    let o = merge_all(&owned, &keys()).unwrap();
    let m = merge_arena_all(&refs, &keys()).unwrap();
    assert_eq!(m.to_element(), o);
    assert_eq!(m.to_xml(), o.to_xml());
    assert!(merge_arena_all(&[], &keys()).is_err());
}
