//! Parsing never grows the process name table: a name the table lacks
//! is copied into the parsed path, never interned.
//!
//! Its own test binary with a single test, so that no other test can
//! intern a name while this one watches the table's length.

use gupster_xml::NameInterner;
use gupster_xpath::Path;

#[test]
fn parsing_fresh_names_leaves_the_name_table_as_it_was() {
    let before = NameInterner::interned();
    for i in 0..100_000 {
        let text = format!("/fresh-{i}[@fresh-attr-{i}='v'][fresh-child-{i}]/@fresh-{i}");
        let path = Path::parse(&text).expect("parses");
        assert_eq!(path.len(), 2);
    }
    assert_eq!(NameInterner::interned(), before, "a parse grew the name table");
    assert_eq!(NameInterner::lookup("fresh-99999"), None);
}
