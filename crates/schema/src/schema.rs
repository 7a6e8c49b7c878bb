//! A small XML-Schema-like language for the GUP common data model.
//!
//! The paper assumes "a standardized schema for (most) user profile
//! information will emerge" (§1) and that the schema "can be made more
//! tolerant (or not) to evolutions (e.g., using optional elements or
//! attributes)" (§4.4). This module gives GUPster a concrete, checkable
//! schema representation: per-tag element declarations with attribute
//! declarations, child occurrence constraints and typed text content.

use std::collections::BTreeMap;

use gupster_xpath::{Axis, NameTest, Path};

use crate::datatype::DataType;

/// Occurrence bounds for a child element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurs {
    /// Minimum number of occurrences.
    pub min: u32,
    /// Maximum number of occurrences (`u32::MAX` = unbounded).
    pub max: u32,
}

impl Occurs {
    /// Exactly one.
    pub(crate) const ONE: Occurs = Occurs { min: 1, max: 1 };
    /// Zero or one — the paper's evolution-tolerant "optional element".
    pub(crate) const OPTIONAL: Occurs = Occurs { min: 0, max: 1 };
    /// Zero or more.
    pub(crate) const MANY: Occurs = Occurs { min: 0, max: u32::MAX };

    /// True if `n` occurrences satisfy the bounds.
    pub(crate) fn admits(self, n: u32) -> bool {
        n >= self.min && n <= self.max
    }
}

/// Declaration of an attribute on an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// Attribute name.
    pub name: String,
    /// Value type.
    pub datatype: DataType,
    /// Whether the attribute must be present.
    pub required: bool,
}

/// Declaration of a child element slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildDecl {
    /// Child tag name (must have its own [`ElementDecl`] in the schema).
    pub name: String,
    /// Occurrence bounds.
    pub occurs: Occurs,
}

/// What an element may contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentModel {
    /// No children, no text.
    Empty,
    /// Typed text only.
    Text(DataType),
    /// Declared child elements only (no significant text).
    Elements,
    /// Both text and declared children.
    Mixed(DataType),
}

/// Declaration of one element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    /// Tag name.
    pub name: String,
    /// Declared attributes.
    pub attrs: Vec<AttrDecl>,
    /// Declared children (order-insensitive; GUP components are records,
    /// not documents).
    pub children: Vec<ChildDecl>,
    /// Content model.
    pub content: ContentModel,
    /// Whether undeclared child elements are tolerated (extension points
    /// for the local-extension mechanism of §7).
    pub open: bool,
}

impl ElementDecl {
    /// A closed element with element content and no attributes.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        ElementDecl {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
            content: ContentModel::Elements,
            open: false,
        }
    }

    /// Builder: declare an attribute.
    pub(crate) fn attr(mut self, name: impl Into<String>, datatype: DataType, required: bool) -> Self {
        self.attrs.push(AttrDecl { name: name.into(), datatype, required });
        self
    }

    /// Builder: declare a child slot.
    pub(crate) fn child(mut self, name: impl Into<String>, occurs: Occurs) -> Self {
        self.children.push(ChildDecl { name: name.into(), occurs });
        self
    }

    /// Builder: set the content model.
    pub(crate) fn content(mut self, content: ContentModel) -> Self {
        self.content = content;
        self
    }

    /// Builder: tolerate undeclared children.
    pub(crate) fn open(mut self) -> Self {
        self.open = true;
        self
    }

    /// Returns the declaration of the named attribute.
    pub(crate) fn attr_decl(&self, name: &str) -> Option<&AttrDecl> {
        self.attrs.iter().find(|a| a.name == name)
    }

    /// Returns the declaration of the named child slot.
    pub(crate) fn child_decl(&self, name: &str) -> Option<&ChildDecl> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// A complete schema: a root element name plus element declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Tag name of the document element.
    pub root: String,
    /// Declarations by tag name.
    pub elements: BTreeMap<String, ElementDecl>,
    /// Version string, e.g. `"gup-1.0"`.
    pub version: String,
}

impl Schema {
    /// Creates an empty schema with the given root and version.
    pub(crate) fn new(root: impl Into<String>, version: impl Into<String>) -> Self {
        Schema { root: root.into(), elements: BTreeMap::new(), version: version.into() }
    }

    /// Adds (or replaces) an element declaration.
    pub(crate) fn declare(&mut self, decl: ElementDecl) {
        self.elements.insert(decl.name.clone(), decl);
    }

    /// Builder form of [`Schema::declare`].
    pub(crate) fn with(mut self, decl: ElementDecl) -> Self {
        self.declare(decl);
        self
    }

    /// Returns the declaration for a tag name.
    pub(crate) fn decl(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.get(name)
    }

    /// Checks that a path expression can select anything in a document
    /// valid under this schema — the "spurious query" filter of §5.3.
    ///
    /// Sound for the core fragment: returns `false` only when no valid
    /// document has a node selected by the path. Paths using `//` or `*`
    /// are admitted conservatively after checking that any named tests
    /// refer to declared elements.
    pub fn admits_path(&self, path: &Path) -> bool {
        // Every named element test must at least exist in the schema.
        for step in &path.steps {
            if step.axis == Axis::Attribute {
                continue;
            }
            if let NameTest::Name(n) = &step.test {
                if !self.elements.contains_key(n.as_ref()) {
                    return false;
                }
            }
        }
        if !path.is_core_fragment() {
            return true; // conservative
        }
        // Walk the child structure.
        let mut steps = path.steps.iter().peekable();
        let Some(first) = steps.next() else { return true };
        if first.axis == Axis::Attribute {
            return false; // attribute of the document node: meaningless
        }
        let NameTest::Name(root_name) = &first.test else { return true };
        if *root_name != self.root {
            return false;
        }
        // Check first step's attribute predicates against the root decl.
        let mut cur = match self.decl(root_name) {
            Some(d) => d,
            None => return false,
        };
        if !self.step_predicates_admissible(first, cur) {
            return false;
        }
        for step in steps {
            if step.axis == Axis::Attribute {
                return match &step.test {
                    NameTest::Any => !cur.attrs.is_empty() || cur.open,
                    NameTest::Name(n) => cur.attr_decl(n).is_some() || cur.open,
                };
            }
            let NameTest::Name(n) = &step.test else { return true };
            if cur.child_decl(n).is_none() && !cur.open {
                return false;
            }
            match self.decl(n) {
                Some(d) => {
                    if !self.step_predicates_admissible(step, d) {
                        return false;
                    }
                    cur = d;
                }
                None => return false,
            }
        }
        true
    }

    fn step_predicates_admissible(
        &self,
        step: &gupster_xpath::LocStep,
        decl: &ElementDecl,
    ) -> bool {
        use gupster_xpath::Predicate;
        for p in &step.predicates {
            match p {
                Predicate::AttrEq(a, v) => match decl.attr_decl(a) {
                    Some(ad) if !ad.datatype.is_valid(v) => return false,
                    Some(_) => {}
                    None if !decl.open => return false,
                    None => {}
                },
                Predicate::AttrExists(a) => {
                    if decl.attr_decl(a).is_none() && !decl.open {
                        return false;
                    }
                }
                Predicate::ChildEq(c, _) | Predicate::ChildExists(c) => {
                    if decl.child_decl(c).is_none() && !decl.open {
                        return false;
                    }
                }
                Predicate::Position(_) => {}
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Schema {
        Schema::new("user", "t-1")
            .with(
                ElementDecl::new("user")
                    .attr("id", DataType::Text, true)
                    .child("book", Occurs::OPTIONAL)
                    .child("presence", Occurs::OPTIONAL),
            )
            .with(ElementDecl::new("book").child("item", Occurs::MANY))
            .with(
                ElementDecl::new("item")
                    .attr("id", DataType::Text, true)
                    .attr("type", DataType::Text, false)
                    .child("name", Occurs::ONE)
                    .child("phone", Occurs::MANY),
            )
            .with(ElementDecl::new("name").content(ContentModel::Text(DataType::Text)))
            .with(ElementDecl::new("phone").content(ContentModel::Text(DataType::PhoneNumber)))
            .with(ElementDecl::new("presence").content(ContentModel::Text(DataType::Text)))
    }

    fn path(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn occurs_bounds() {
        assert!(Occurs::OPTIONAL.admits(0));
        assert!(!Occurs::ONE.admits(0));
        assert!(Occurs::MANY.admits(1000));
    }

    #[test]
    fn admits_declared_paths() {
        let s = tiny();
        for ok in [
            "/user",
            "/user[@id='a']/book/item[@type='personal']",
            "/user/book/item/phone",
            "/user/@id",
            "/user/book/item[name='Bob']",
            "//item",
        ] {
            assert!(s.admits_path(&path(ok)), "{ok}");
        }
    }

    #[test]
    fn rejects_spurious_paths() {
        let s = tiny();
        for bad in [
            "/nope",
            "/book", // not the root
            "/user/calendar",
            "/user/book/entry",
            "/user/@missing",
            "/user/book/item[@bogus='1']",
            "/user/book/item[address]",
            "//wrong-element",
        ] {
            assert!(!s.admits_path(&path(bad)), "{bad}");
        }
    }

    #[test]
    fn open_elements_tolerate_extensions() {
        let mut s = tiny();
        let mut d = s.decl("item").unwrap().clone();
        d.open = true;
        s.declare(d);
        assert!(s.admits_path(&path("/user/book/item[@bogus='1']")));
        // Undeclared child names still need a declaration to recurse into,
        // but existence predicates pass.
        assert!(s.admits_path(&path("/user/book/item[extension]")));
    }

    #[test]
    fn typed_predicate_values_checked() {
        let mut s = tiny();
        let d = ElementDecl::new("item")
            .attr("id", DataType::Integer, true)
            .child("name", Occurs::ONE);
        s.declare(d);
        assert!(s.admits_path(&path("/user/book/item[@id='42']")));
        assert!(!s.admits_path(&path("/user/book/item[@id='forty-two']")));
    }
}
