//! Microbench for E11: sync sessions and the arena deep-union merge.

use gupster_bench::microbench::{bench, suite};
use gupster_sync::{two_way_sync, ReconcilePolicy, Replica};
use gupster_xml::{merge_arena, ArenaDoc, EditOp, Element, MergeKeys, NodePath};

fn book(n: usize) -> Element {
    let mut b = Element::new("address-book");
    for i in 0..n {
        b.push_child(
            Element::new("item")
                .with_attr("id", i.to_string())
                .with_child(Element::new("name").with_text(format!("Contact {i}")))
                .with_child(Element::new("phone").with_text(format!("908-555-{i:04}"))),
        );
    }
    b
}

fn main() {
    suite("sync");
    let keys = MergeKeys::new().with_key("item", "id");
    for n in [50usize, 500] {
        let base = book(n);
        let mut phone = Replica::new("phone", base.clone(), keys.clone());
        let mut portal = Replica::new("portal", base, keys.clone());
        two_way_sync(&mut phone, &mut portal, ReconcilePolicy::LastWriterWins).unwrap();
        let mut i = 0u32;
        bench(&format!("sync_one_edit/{n}"), || {
            i += 1;
            phone
                .edit(EditOp::SetText {
                    path: NodePath::root().keyed("item", "id", "1").child("name", 0),
                    text: format!("v{i}"),
                })
                .unwrap();
            two_way_sync(&mut phone, &mut portal, ReconcilePolicy::LastWriterWins).unwrap()
        });
    }

    let half1 = ArenaDoc::from_element(&book(100));
    let mut half2 = Element::new("address-book");
    for i in 100..200 {
        half2.push_child(Element::new("item").with_attr("id", i.to_string()));
    }
    let half2 = ArenaDoc::from_element(&half2);
    bench("xml_deep_union_200_items", || merge_arena(&half1, &half2, &keys).unwrap().to_xml());
}
