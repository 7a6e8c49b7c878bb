//! Random queries over an adapter's GUP views, checked against the
//! oracle's selection over those views. Shared by the LDAP adapter's
//! unit tests (its views are crate-private) and the store's
//! integration tests (the relational adapter's are public).

use gupster_oracle::select;
use gupster_rng::{Rng, StdRng};
use gupster_xml::Element;
use gupster_xpath::{Axis, Path};

/// The owners a query may name: the adapter under test holds `alice`
/// and `bob`, and no `carol`.
const OWNERS: [&str; 3] = ["alice", "bob", "carol"];

/// A random query over a GUP view, and the owner its first step names
/// with `[@id='…']`, if any. The steps run over the views' tags and
/// `*` on the child and descendant axes, with `[n]`, `[@type='…']`,
/// `[name='…']` (one of `names`) and `[phone]` predicates, and a
/// quarter end on an attribute step.
fn view_path(rng: &mut StdRng, names: &[String]) -> (Path, Option<&'static str>) {
    const TAGS: [&str; 10] = [
        "identity", "name", "email", "presence", "devices", "device", "number", "address-book",
        "item", "phone",
    ];
    const ENDS: [&str; 4] = ["/@id", "/@type", "/@kind", "/@*"];
    let owner = rng.gen_bool(0.5).then(|| *rng.pick(&OWNERS));
    let mut s = match owner {
        Some(o) => format!("/user[@id='{o}']"),
        None => (*rng.pick(&["/user", "/*", "//item", "//name", "//*"])).to_string(),
    };
    for _ in 0..rng.gen_range(0..4usize) {
        s.push_str(if rng.gen_bool(0.25) { "//" } else { "/" });
        s.push_str(if rng.gen_bool(0.15) { "*" } else { TAGS[rng.gen_range(0..TAGS.len())] });
        match rng.gen_range(0..6u32) {
            0 => s.push_str(&format!("[{}]", rng.gen_range(1..4u32))),
            1 => s.push_str(&format!("[@type='{}']", rng.pick(&["personal", "corporate"]))),
            2 => s.push_str(&format!("[name='{}']", rng.pick(names))),
            3 => s.push_str("[phone]"),
            _ => {}
        }
    }
    if rng.gen_bool(0.25) {
        s.push_str(ENDS[rng.gen_range(0..ENDS.len())]);
    }
    (Path::parse(&s).unwrap(), owner)
}

/// Non-empty answers seen, for paths naming no owner, naming one, and
/// ending on an attribute: a run whose counts stay low compared
/// nothing but empty answers.
pub type Answered = [usize; 3];

/// Asks an adapter holding `alice` and `bob` sixteen random paths
/// through `query` and asserts that each answer equals, byte for byte,
/// the oracle's selection over the views the adapter routes the path
/// to: the named owner's view if the path names one, each of `users`'
/// views in turn otherwise.
pub fn check_answers(
    rng: &mut StdRng,
    names: &[String],
    users: &[String],
    view: impl Fn(&str) -> Option<Element>,
    query: impl Fn(&Path) -> Vec<Element>,
    answered: &mut Answered,
) {
    for _ in 0..16 {
        let (path, owner) = view_path(rng, names);
        let asked = owner.map_or_else(|| users.to_vec(), |o| vec![o.to_string()]);
        let want: Vec<String> = asked
            .iter()
            .filter_map(|u| view(u))
            .flat_map(|v| select(&path, &v).iter().map(|e| e.to_xml()).collect::<Vec<_>>())
            .collect();
        let got: Vec<String> = query(&path).iter().map(Element::to_xml).collect();
        assert_eq!(got, want, "{path}");
        if !got.is_empty() {
            answered[owner.is_some() as usize] += 1;
            if path.steps.last().is_some_and(|s| s.axis == Axis::Attribute) {
                answered[2] += 1;
            }
        }
    }
}
