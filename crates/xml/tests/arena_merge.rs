//! The arena merge checked against the owned merge of `gupster-oracle`:
//! two fragments, or one referral's fragments, merged either way, give
//! the same tree and the same bytes, or the same conflict.

use gupster_oracle::{merge, merge_all};
use gupster_xml::{
    merge_arena, merge_arena_all, parse, ArenaDoc, Element, MergeKeys, MergeOut, NameInterner,
};

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

/// Oracle check: the arena merge must agree with the owned merge
/// byte-for-byte, including on whether it errors at all.
fn agree(a_src: &str, b_src: &str, keys: &MergeKeys) {
    let (ea, eb) = (parse(a_src).unwrap(), parse(b_src).unwrap());
    let (da, db) = (ArenaDoc::parse(a_src).unwrap(), ArenaDoc::parse(b_src).unwrap());
    let owned = merge(&ea, &eb, keys);
    let arena = merge_arena(&da, &db, keys);
    match (owned, arena) {
        (Ok(o), Ok(m)) => {
            assert_eq!(m.to_element(), o, "tree mismatch: {a_src} + {b_src}");
            assert_eq!(m.to_xml(), o.to_xml(), "bytes mismatch: {a_src} + {b_src}");
        }
        (Err(oe), Err(me)) => assert_eq!(oe, me, "error mismatch: {a_src} + {b_src}"),
        (o, m) => panic!("divergence on {a_src} + {b_src}: owned {o:?} vs arena {m:?}"),
    }
}

#[test]
fn mirrors_owned_merge() {
    let k = keys();
    agree(
        r#"<b><item id="1" type="personal"><name>Mom</name></item></b>"#,
        r#"<b><item id="2" type="corporate"><name>Rick</name></item></b>"#,
        &k,
    );
    agree(
        r#"<b><item id="1"><name>Bob</name></item></b>"#,
        r#"<b><item id="1"><phone>555</phone></item></b>"#,
        &k,
    );
    agree(
        r#"<b><item id="1"><name>Bob</name></item></b>"#,
        r#"<b><item id="1"><name>Robert</name></item></b>"#,
        &k,
    );
    agree(r#"<e x="1"/>"#, r#"<e y="2"/>"#, &k);
    agree(r#"<e x="1"/>"#, r#"<e x="9"/>"#, &k);
    agree("<a/>", "<b/>", &k);
    agree("<n>Bob</n>", "<n>Bob</n>", &k);
    let plain = MergeKeys::new();
    agree("<l><v>1</v><v>2</v></l>", "<l><v>2</v><v>3</v></l>", &plain);
    agree(
        r#"<l><entry id="x"><a>1</a></entry></l>"#,
        r#"<l><entry id="x"><b>2</b></entry></l>"#,
        &plain,
    );
    let items = |a: &str, b: &str, keys: &MergeKeys, tag: &str| {
        let (da, db) = (ArenaDoc::parse(a).unwrap(), ArenaDoc::parse(b).unwrap());
        let m = merge_arena(&da, &db, keys).unwrap();
        m.to_element().children_named(tag).count()
    };
    // Same value under different key attributes: two identities.
    let (a, b) = (r#"<l><e id="x"><a>1</a></e></l>"#, r#"<l><e name="x"><b>2</b></e></l>"#);
    agree(a, b, &plain);
    assert_eq!(items(a, b, &plain, "e"), 2);
    // An explicit key the element lacks leaves it without identity:
    // no fall back to `id`, so item 1 is not merged across sides.
    let sku = MergeKeys::new().with_key("item", "sku");
    let (a, b) = (
        r#"<b><item id="1"><n>A</n></item><item id="2"><n>B</n></item></b>"#,
        r#"<b><item id="1"><m>C</m></item></b>"#,
    );
    agree(a, b, &sku);
    assert_eq!(items(a, b, &sku, "item"), 3);
}

/// Key specifications the interned identity must read exactly as the
/// owned merge reads them.
#[test]
fn interned_keys_match_owned_identity() {
    let (a, b) = (
        r#"<b><item id="1" sku="x"><n>A</n></item><item id="2" sku="y"><n>B</n></item><v name="k">1</v></b>"#,
        r#"<b><item id="1" sku="z"><m>C</m></item><item sku="y"><p>D</p></item><v name="k">1</v></b>"#,
    );
    // Re-keying a tag: the later key replaces the earlier one, so
    // items match on `sku` (y with y), not on `id` (which conflicts).
    let rekeyed = MergeKeys::new().with_key("item", "id").with_key("item", "sku");
    agree(a, b, &rekeyed);
    let (da, db) = (ArenaDoc::parse(a).unwrap(), ArenaDoc::parse(b).unwrap());
    let rk = merge_arena(&da, &db, &rekeyed).unwrap();
    assert_eq!(rk.to_element().children_named("item").count(), 3);
    assert!(merge_arena(&da, &db, &MergeKeys::new().with_key("item", "id")).is_err());
    // A key attribute no document carries: items lose their identity.
    let absent = MergeKeys::new().with_key("item", "interned-key-on-no-node");
    agree(a, b, &absent);
    // No fallback keys at all: only explicit keys identify, so no
    // item matches another and all four are kept.
    agree(a, b, &MergeKeys::default());
    let plain = merge_arena(&da, &db, &MergeKeys::default()).unwrap();
    assert_eq!(plain.to_element().children_named("item").count(), 4);
    agree(a, b, &MergeKeys::default().with_key("v", "name"));
    let mut defaults_on = MergeKeys::default();
    defaults_on.use_default_keys = true;
    agree(a, b, &defaults_on);
    let ea = parse(a).unwrap();
    for keys in [&rekeyed, &absent, &MergeKeys::default(), &defaults_on] {
        for (e, n) in ea.child_elements().zip(da.child_elements(da.root())) {
            let owned = keys.identity(e);
            let arena = MergeOut::from_node(&da, n).root_identity(keys);
            let arena = arena.map(|(_, attr, v)| (NameInterner::resolve(attr), v));
            assert_eq!(arena, owned, "{e:?} under {keys:?}");
        }
    }
}
