//! Microbench for E13: XPath parse, eval, containment and overlap.

use gupster_bench::microbench::{bench, suite};
use gupster_schema::sample_profile;
use gupster_xml::ArenaDoc;
use gupster_xpath::{contains, may_overlap, Path};

fn chain(depth: usize, preds: usize) -> Path {
    let mut s = String::new();
    for d in 0..depth {
        s.push('/');
        s.push_str(&format!("n{d}"));
        for p in 0..preds {
            s.push_str(&format!("[@a{p}='v{p}']"));
        }
    }
    Path::parse(&s).unwrap()
}

fn main() {
    suite("xpath");
    bench("xpath_parse_paper_expr", || {
        Path::parse("/user[@id='arnaud']/address-book/item[@type='personal']").unwrap()
    });

    let doc = sample_profile("arnaud");
    let paths = [
        ("presence", Path::parse("/user/presence").unwrap()),
        ("pred", Path::parse("/user/address-book/item[@type='corporate']/name").unwrap()),
        ("descendant", Path::parse("//phone").unwrap()),
    ];
    // The evaluator every store read runs: arena selection into an id
    // buffer kept from one run to the next.
    let arena = ArenaDoc::from_element(&doc);
    let mut ids = Vec::new();
    for (name, p) in &paths {
        bench(&format!("xpath_eval/{name}"), || {
            p.select_arena(&arena, &mut ids);
            ids.len()
        });
    }

    for depth in [4usize, 8, 16, 32] {
        let p = chain(depth, 2);
        let q = chain(depth, 0);
        bench(&format!("xpath_containment/{depth}"), || {
            assert!(contains(&p, &q));
        });
    }

    let a = Path::parse("/user[@id='a']/address-book/item[@type='personal']").unwrap();
    let b = Path::parse("/user[@id='a']/address-book").unwrap();
    bench("xpath_overlap_fig9", || {
        assert!(may_overlap(&a, &b));
    });
}
