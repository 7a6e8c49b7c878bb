//! Microbench for E14: result-cache operations under skew.

use std::sync::Arc;

use gupster_bench::microbench::{bench, suite};
use gupster_bench::workload::{rng, user_id, Zipf};
use gupster_core::cache::ResultCache;
use gupster_xml::Element;
use gupster_xpath::Path;

fn main() {
    suite("cache");
    let path = Path::parse("/user/presence").unwrap();
    let mut cache = ResultCache::new(1_000);
    let zipf = Zipf::new(10_000, 0.99);
    let mut r = rng(1);
    bench("cache_zipf_get_put", || {
        let u = user_id(zipf.sample(&mut r));
        if cache.get(&u, &u, &path).is_none() {
            cache.put(&u, &u, &path, Arc::new([Element::new("presence").with_text("x")]), 0);
        }
    });

    let book = Path::parse("/user/address-book").unwrap();
    let item = Path::parse("/user/address-book/item[@id='5']").unwrap();
    let mut cache = ResultCache::new(1_000);
    for i in 0..500 {
        let u = user_id(i);
        cache.put(&u, &u, &book, Arc::new([Element::new("address-book")]), 0);
    }
    bench("cache_invalidate_overlap", || cache.invalidate(&user_id(250), &item));
}
