//! Abstract syntax for the GUPster XPath fragment.
//!
//! Every tag and attribute name in a path is a [`Name`], the type
//! `gupster-xml`'s owned trees name their nodes with: it borrows the
//! process name table's `&'static` copy when the table holds the name
//! and owns one otherwise. Neither parsing nor the builders intern, so
//! arbitrary input leaves the table as it was. Predicate values stay
//! owned `String`s: they are user data. Equality, hashing and display
//! see only the characters, never whether a name borrows.

use std::fmt;

use gupster_xml::{Name, NameInterner};

/// Navigation axis of a location step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::` — the default axis, written `/name`.
    Child,
    /// `descendant-or-self::node()/child::` — written `//name`.
    Descendant,
    /// `attribute::` — written `/@name`; only valid as the final step.
    Attribute,
}

/// Node test of a location step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NameTest {
    /// `*` — any element (or any attribute on the attribute axis).
    Any,
    /// A literal tag or attribute name.
    Name(Name),
}

impl NameTest {
    /// True if this test accepts the given name.
    pub(crate) fn accepts(&self, name: &str) -> bool {
        match self {
            NameTest::Any => true,
            NameTest::Name(n) => n == name,
        }
    }

    /// True if every name accepted by `other` is accepted by `self`.
    pub(crate) fn subsumes(&self, other: &NameTest) -> bool {
        match (self, other) {
            (NameTest::Any, _) => true,
            (NameTest::Name(a), NameTest::Name(b)) => a == b,
            (NameTest::Name(_), NameTest::Any) => false,
        }
    }

    /// True if some name is accepted by both tests.
    pub(crate) fn compatible(&self, other: &NameTest) -> bool {
        match (self, other) {
            (NameTest::Name(a), NameTest::Name(b)) => a == b,
            _ => true,
        }
    }
}

/// A predicate qualifying a location step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `[@attr='value']`
    AttrEq(Name, String),
    /// `[@attr]`
    AttrExists(Name),
    /// `[child='value']` — compares the child element's trimmed text.
    ChildEq(Name, String),
    /// `[child]`
    ChildExists(Name),
    /// `[n]` — 1-based position among the nodes matched so far.
    Position(usize),
}

impl Predicate {
    /// True if `self` is implied by `other` (everything satisfying
    /// `other` satisfies `self`).
    pub(crate) fn implied_by(&self, other: &Predicate) -> bool {
        if self == other {
            return true;
        }
        match (self, other) {
            (Predicate::AttrExists(a), Predicate::AttrEq(b, _)) => a == b,
            (Predicate::ChildExists(a), Predicate::ChildEq(b, _)) => a == b,
            _ => false,
        }
    }

    /// True if `self` and `other` can hold of the same node. Conservative
    /// (only detects syntactic contradictions).
    pub(crate) fn compatible(&self, other: &Predicate) -> bool {
        match (self, other) {
            (Predicate::AttrEq(a, v), Predicate::AttrEq(b, w)) => a != b || v == w,
            (Predicate::ChildEq(a, v), Predicate::ChildEq(b, w)) => {
                // A node may have several children with the same tag, so
                // differing values are only a contradiction if we assumed
                // singleton fields; stay conservative.
                let _ = (a, b, v, w);
                true
            }
            (Predicate::Position(a), Predicate::Position(b)) => a == b,
            _ => true,
        }
    }
}

/// One location step: axis, name test and predicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LocStep {
    /// Navigation axis.
    pub axis: Axis,
    /// Node test.
    pub test: NameTest,
    /// Conjunction of predicates.
    pub predicates: Vec<Predicate>,
}

impl LocStep {
    /// A child-axis step with no predicates. A `&'static str` or a
    /// `String` becomes the name as is; a caller holding a shorter-lived
    /// `&str` passes [`NameInterner::name`] of it.
    pub fn child(name: impl Into<Name>) -> Self {
        LocStep { axis: Axis::Child, test: NameTest::Name(name.into()), predicates: Vec::new() }
    }

    /// Builder: adds an `[@attr='value']` predicate.
    pub fn with_attr_eq(mut self, attr: impl Into<Name>, value: impl Into<String>) -> Self {
        self.predicates.push(Predicate::AttrEq(attr.into(), value.into()));
        self
    }
}

/// A parsed path expression.
///
/// All GUPster paths are absolute (they address into a profile document
/// whose root is the user's `<MyProfile>`/`<user>` element); the first
/// step matches the root element itself when its test accepts the root's
/// name, mirroring how the paper writes `/user[@id='arnaud']/...`.
///
/// A path selects over arena documents only ([`Path::select_arena`]);
/// there is no evaluator over owned trees to drift from it:
///
/// ```compile_fail,E0599
/// let doc = gupster_xml::parse("<user/>").unwrap();
/// gupster_xpath::Path::parse("/user").unwrap().select(&doc);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// The location steps, outermost first.
    pub steps: Vec<LocStep>,
}

impl Path {
    /// Builds a simple child-axis path from tag names.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Self {
        let step = |n: &S| LocStep::child(NameInterner::name(n.as_ref()));
        Path { steps: names.iter().map(step).collect() }
    }

    /// The number of location steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the degenerate empty path (selects the root).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// True if the path uses only child/attribute axes and no wildcards —
    /// the strict fragment of §4.5 for which containment is complete.
    pub fn is_core_fragment(&self) -> bool {
        is_core_fragment(&self.steps)
    }

    /// True if the final step is on the attribute axis.
    pub fn targets_attribute(&self) -> bool {
        targets_attribute(&self.steps)
    }

    /// Returns a new path with `suffix`'s steps appended.
    pub fn join(&self, suffix: &Path) -> Path {
        let mut steps = self.steps.clone();
        steps.extend(suffix.steps.iter().cloned());
        Path { steps }
    }

    /// The length in bytes of the path's [`Display`](fmt::Display) form,
    /// counted without building it: a caller that renders the path can
    /// size its buffer once.
    pub fn display_len(&self) -> usize {
        struct Count(usize);
        impl fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut n = Count(0);
        // Neither `Count` nor `Path`'s `Display` ever fails.
        let _ = fmt::write(&mut n, format_args!("{self}"));
        n.0
    }
}

/// [`Path::is_core_fragment`] on a borrowed run of steps.
pub(crate) fn is_core_fragment(steps: &[LocStep]) -> bool {
    steps.iter().all(|s| !matches!(s.axis, Axis::Descendant) && !matches!(s.test, NameTest::Any))
}

/// [`Path::targets_attribute`] on a borrowed run of steps.
pub(crate) fn targets_attribute(steps: &[LocStep]) -> bool {
    matches!(steps.last(), Some(s) if s.axis == Axis::Attribute)
}

impl fmt::Display for NameTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTest::Any => f.write_str("*"),
            NameTest::Name(n) => f.write_str(n),
        }
    }
}

/// A literal in the quotes that can hold it: single quotes, or double
/// quotes for a value containing `'`, so that a parsed path renders as
/// text that parses back to it.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = if self.0.contains('\'') { '"' } else { '\'' };
        write!(f, "{q}{}{q}", self.0)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::AttrEq(a, v) => write!(f, "[@{a}={}]", Quoted(v)),
            Predicate::AttrExists(a) => write!(f, "[@{a}]"),
            Predicate::ChildEq(c, v) => write!(f, "[{c}={}]", Quoted(v)),
            Predicate::ChildExists(c) => write!(f, "[{c}]"),
            Predicate::Position(n) => write!(f, "[{n}]"),
        }
    }
}

impl fmt::Display for LocStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.axis == Axis::Attribute {
            write!(f, "@{}", self.test)?;
        } else {
            write!(f, "{}", self.test)?;
        }
        for p in &self.predicates {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return f.write_str("/");
        }
        for step in &self.steps {
            f.write_str(if step.axis == Axis::Descendant { "//" } else { "/" })?;
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip_shape() {
        let p = Path {
            steps: vec![
                LocStep::child("user").with_attr_eq("id", "arnaud"),
                LocStep::child("address-book"),
                LocStep {
                    axis: Axis::Descendant,
                    test: NameTest::Any,
                    predicates: vec![Predicate::Position(2)],
                },
                LocStep {
                    axis: Axis::Attribute,
                    test: NameTest::Name("type".into()),
                    predicates: vec![],
                },
            ],
        };
        assert_eq!(p.to_string(), "/user[@id='arnaud']/address-book//*[2]/@type");
        assert_eq!(p.display_len(), p.to_string().len());
        assert_eq!(Path { steps: vec![] }.display_len(), 1);
        assert!(p.targets_attribute());
        assert!(!p.is_core_fragment());
    }

    #[test]
    fn nametest_lattice() {
        let any = NameTest::Any;
        let a = NameTest::Name("a".into());
        let b = NameTest::Name("b".into());
        assert!(any.subsumes(&a));
        assert!(!a.subsumes(&any));
        assert!(a.subsumes(&a));
        assert!(!a.subsumes(&b));
        assert!(a.compatible(&any));
        assert!(!a.compatible(&b));
    }

    #[test]
    fn predicate_implication() {
        let eq = Predicate::AttrEq("id".into(), "x".into());
        let ex = Predicate::AttrExists("id".into());
        assert!(ex.implied_by(&eq));
        assert!(!eq.implied_by(&ex));
        assert!(eq.implied_by(&eq));
        let other = Predicate::AttrEq("id".into(), "y".into());
        assert!(!eq.compatible(&other));
        assert!(eq.compatible(&ex));
    }

    #[test]
    fn join_paths() {
        let a = Path::from_names(&["user", "book"]);
        let b = Path::from_names(&["item"]);
        assert_eq!(a.join(&b).to_string(), "/user/book/item");
    }
}
