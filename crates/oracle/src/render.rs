//! Path text by nested `write!`s: the renderer `Path`'s flat `Display`
//! replaced, rebuilt from the path's public fields.

use std::fmt;

use gupster_xpath::{Axis, LocStep, NameTest, Path, Predicate};

/// `path` as the text a query carries: `/` between child steps, `//`
/// before a descendant step, `@` on an attribute step, and each
/// predicate value in the quotes that can hold it.
pub fn render_path(path: &Path) -> String {
    Rendered(path).to_string()
}

struct Rendered<'a>(&'a Path);
struct Step<'a>(&'a LocStep);
struct Test<'a>(&'a NameTest);
struct Pred<'a>(&'a Predicate);
struct Quoted<'a>(&'a str);

impl fmt::Display for Test<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            NameTest::Any => f.write_str("*"),
            NameTest::Name(n) => f.write_str(n),
        }
    }
}

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = if self.0.contains('\'') { '"' } else { '\'' };
        write!(f, "{q}{}{q}", self.0)
    }
}

impl fmt::Display for Pred<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Predicate::AttrEq(a, v) => write!(f, "[@{a}={}]", Quoted(v)),
            Predicate::AttrExists(a) => write!(f, "[@{a}]"),
            Predicate::ChildEq(c, v) => write!(f, "[{c}={}]", Quoted(v)),
            Predicate::ChildExists(c) => write!(f, "[{c}]"),
            Predicate::Position(n) => write!(f, "[{n}]"),
        }
    }
}

impl fmt::Display for Step<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.axis == Axis::Attribute {
            write!(f, "@{}", Test(&self.0.test))?;
        } else {
            write!(f, "{}", Test(&self.0.test))?;
        }
        for p in &self.0.predicates {
            write!(f, "{}", Pred(p))?;
        }
        Ok(())
    }
}

impl fmt::Display for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.steps.is_empty() {
            return f.write_str("/");
        }
        for step in &self.0.steps {
            f.write_str(if step.axis == Axis::Descendant { "//" } else { "/" })?;
            write!(f, "{}", Step(step))?;
        }
        Ok(())
    }
}
