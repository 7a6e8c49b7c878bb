//! The arena evaluator ([`Path::select_arena`]) checked against the
//! owned-tree evaluator of `gupster-oracle` on fixed paths over a
//! profile document: the same nodes, in the same order.

use gupster_oracle::select;
use gupster_xml::{ArenaDoc, Element, NodeId};
use gupster_xpath::Path;

const DOC: &str = r#"<user id="arnaud">
                 <address-book>
                   <item id="1" type="personal"><name>Mom</name><phone>111</phone></item>
                   <item id="2" type="corporate"><name>Rick</name><phone>222</phone></item>
                   <item id="3" type="personal"><name>Bob</name></item>
                 </address-book>
                 <presence>online</presence>
                 <devices>
                   <device kind="phone"><name>SprintPCS</name></device>
                   <device kind="pda"><name>Palm</name></device>
                 </devices>
               </user>"#;

/// Asserts the arena evaluator agrees with the owned one on `path`
/// over `src`, node for node (compared through serialization),
/// selecting into `ids` whatever it held before.
fn agree(src: &str, path: &str, ids: &mut Vec<NodeId>) {
    let owned: Element = gupster_xml::parse(src).unwrap();
    let doc = ArenaDoc::parse(src).unwrap();
    let p = Path::parse(path).unwrap();
    let a: Vec<String> = select(&p, &owned).iter().map(|e| e.to_xml()).collect();
    p.select_arena(&doc, ids);
    let b: Vec<String> = ids.iter().map(|&n| doc.to_element(n).to_xml()).collect();
    assert_eq!(a, b, "select disagreement on {path}");
}

#[test]
fn mirrors_owned_eval() {
    // One buffer for every path: each selection replaces the last.
    let mut ids = Vec::new();
    for path in [
        "/user",
        "/nope",
        "/user[@id='arnaud']",
        "/user[@id='rick']",
        "/user[@id='arnaud']/presence",
        "/user/address-book/item[@type='personal']",
        "/user/address-book/item[@type='corporate']",
        "/user/@id",
        "/user/devices/device/@kind",
        "/user/@missing",
        "//item",
        "//name",
        "//user",
        "/user//name",
        "/user/address-book//name",
        "/user/*",
        "/*",
        "/user/address-book/item[2]/name",
        "/user/address-book/item[9]",
        "/user/address-book/item[@type='personal'][2]/name",
        "/user/address-book/item[name='Rick']",
        "/user/address-book/item[phone]",
        "/user/address-book/item[name='Nobody']",
        "/user/devices/device/@*",
        "/",
    ] {
        agree(DOC, path, &mut ids);
    }
}

#[test]
fn no_duplicate_results_from_descendant() {
    let mut ids = Vec::new();
    agree("<a><b><b><c/></b></b></a>", "//b//c", &mut ids);
    assert_eq!(ids.len(), 1);
}
