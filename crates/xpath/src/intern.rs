//! The compiled path representation the indexed lookup fast path keys
//! on.
//!
//! The registry's hot path compares path-step names millions of times
//! per second (coverage matching, rule bucketing). [`InternedPath`] is
//! the compiled form of a core-fragment [`Path`]: each step carries its
//! name as a [`NameId`] from `gupster-xml`'s process-wide
//! [`NameInterner`] — the same table arena documents use — its axis
//! kind and its first `[@attr='value']` predicate (the coverage trie's
//! discriminating edge key). Name comparison is `u32` equality, and
//! the indexes key on `NameId`s instead of hashing or comparing
//! strings on every probe. The predicate *value* stays a borrowed
//! string: values are user data (`[@id='u4711']`), unbounded at fleet
//! scale, and the trie that keys on one owns its copy, which goes when
//! the trie drops the edge. Paths outside the core fragment (`//`,
//! `*`) do not compile — the indexes place them in always-scanned
//! wildcard buckets instead.

use gupster_xml::{NameId, NameInterner};

use crate::ast::{Axis, NameTest, Path, Predicate};

/// One compiled location step: the interned name, whether it rides the
/// attribute axis, and the first `[@attr='value']` predicate (the
/// discriminating edge key of the coverage trie).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InternedStep<'a> {
    /// Interned step name.
    pub name: NameId,
    /// True for `@name` (attribute axis) steps.
    pub attribute: bool,
    /// The first `[@attr='value']` predicate as `(attr, value)`, if the
    /// step has one: the attribute name interned, the value borrowed
    /// from the source path. Other predicate kinds do not discriminate
    /// trie edges and stay on the retained [`Path`] for exact checks.
    pub pred_key: Option<(NameId, &'a str)>,
}

/// A compiled core-fragment path: every step carries its interned name,
/// so spine walks compare integers, never strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternedPath<'a> {
    /// The compiled steps, outermost first.
    pub steps: Vec<InternedStep<'a>>,
}

impl<'a> InternedPath<'a> {
    /// Compiles a path, interning every step and predicate-attribute
    /// name. Returns `None` when the path leaves the core fragment
    /// (`//` or `*` anywhere) — such paths belong in the indexes'
    /// wildcard buckets.
    pub fn compile(path: &'a Path) -> Option<InternedPath<'a>> {
        Self::compile_by(path, |name| Some(NameInterner::intern(name)))
    }

    /// [`InternedPath::compile`] against the names already interned:
    /// never grows the table. Also `None` when the path names a name
    /// that was never interned, which no compiled path holds.
    pub fn lookup(path: &'a Path) -> Option<InternedPath<'a>> {
        Self::compile_by(path, NameInterner::lookup)
    }

    fn compile_by(
        path: &'a Path,
        id: impl Fn(&str) -> Option<NameId>,
    ) -> Option<InternedPath<'a>> {
        if !path.is_core_fragment() {
            return None;
        }
        let mut steps = Vec::with_capacity(path.steps.len());
        for step in &path.steps {
            let NameTest::Name(name) = &step.test else { return None };
            let first_eq = step.predicates.iter().find_map(|p| match p {
                Predicate::AttrEq(a, v) => Some((a, v)),
                _ => None,
            });
            let pred_key = match first_eq {
                Some((a, v)) => Some((id(a)?, v.as_str())),
                None => None,
            };
            let attribute = step.axis == Axis::Attribute;
            steps.push(InternedStep { name: id(name)?, attribute, pred_key });
        }
        Some(InternedPath { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_core_fragment() {
        let p = Path::parse("/user[@id='a']/address-book/item[@type='x'][@id='1']/@ref")
            .unwrap();
        let ip = InternedPath::compile(&p).unwrap();
        assert_eq!(ip.steps.len(), 4);
        assert_eq!(ip.steps[0].name, NameInterner::intern("user"));
        assert_eq!(ip.steps[0].pred_key, Some((NameInterner::intern("id"), "a")));
        assert!(ip.steps[1].pred_key.is_none());
        // Only the FIRST AttrEq keys the edge.
        assert_eq!(ip.steps[2].pred_key, Some((NameInterner::intern("type"), "x")));
        assert!(ip.steps[3].attribute);
        assert!(!ip.steps[2].attribute);
    }

    #[test]
    fn lookup_compiles_only_known_names() {
        let known = Path::parse("/user[@id='a']/address-book").unwrap();
        NameInterner::intern("user");
        NameInterner::intern("id");
        NameInterner::intern("address-book");
        assert_eq!(InternedPath::lookup(&known), InternedPath::compile(&known));
        for s in ["/user/never-interned-lookup-step", "/user[@never-interned-lookup-attr='v']"] {
            assert!(InternedPath::lookup(&Path::parse(s).unwrap()).is_none(), "{s}");
        }
        assert_eq!(NameInterner::lookup("never-interned-lookup-step"), None);
        assert_eq!(NameInterner::lookup("never-interned-lookup-attr"), None);
    }

    #[test]
    fn wildcards_do_not_compile() {
        for s in ["//item", "/user/*", "/user//presence"] {
            assert!(InternedPath::compile(&Path::parse(s).unwrap()).is_none(), "{s}");
        }
    }
}
