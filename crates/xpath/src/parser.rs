//! Parser for the XPath fragment: recursive descent over the lexer's
//! tokens, pulled one at a time. Once a thread's scratch lists are
//! warm, the only allocations are the step and predicate lists of the
//! returned [`Path`], each at its exact length, its predicate values,
//! and a copy of each name the process name table does not hold (a
//! held name is borrowed from the table; the table never grows here).

use std::cell::RefCell;
use std::fmt;

use gupster_xml::NameInterner;

use crate::ast::{Axis, LocStep, NameTest, Path, Predicate};
use crate::lexer::{Lexer, Token};

/// A syntax error in a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset into the input of the offending token, or the
    /// input's length when the input ends where a token was expected.
    /// Never past the end of the input. When the input has several
    /// errors, this is the first one reading left to right.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl XPathError {
    pub(crate) fn new(position: usize, message: impl Into<String>) -> Self {
        XPathError { position, message: message.into() }
    }
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for XPathError {}

impl Path {
    /// Parses an absolute path expression such as
    /// `/user[@id='arnaud']/address-book/item[@type='personal']`.
    ///
    /// ```
    /// use gupster_xpath::Path;
    ///
    /// let p = Path::parse("/user[@id='arnaud']/address-book").unwrap();
    /// assert_eq!(p.len(), 2);
    /// assert_eq!(p.to_string(), "/user[@id='arnaud']/address-book");
    /// let err = Path::parse("/user/@id/book").unwrap_err();
    /// assert_eq!(err.position, 9, "the byte offset of the offending '/'");
    /// ```
    pub fn parse(input: &str) -> Result<Path, XPathError> {
        SCRATCH.with_borrow_mut(|(steps, predicates)| {
            let parsed = P { lexer: Lexer::new(input), peeked: None }.parse_path(steps, predicates);
            steps.clear();
            predicates.clear();
            parsed
        })
    }
}

thread_local! {
    /// The lists a parse fills before it knows their lengths: the steps
    /// so far, and the current step's predicates. The returned path
    /// copies each out at its exact length, so a path kept for the life
    /// of a registration holds no spare capacity.
    static SCRATCH: RefCell<(Vec<LocStep>, Vec<Predicate>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Moves `scratch`'s elements into a list of exactly their length,
/// leaving `scratch` empty with its capacity.
fn exact<T>(scratch: &mut Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(scratch.len());
    out.append(scratch);
    out
}

/// A token with the byte offset it starts at; `None` and the input's
/// length at the end of the input.
type Spanned<'a> = (usize, Option<Token<'a>>);

/// The parser state: the lexer and at most one token of lookahead.
struct P<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Spanned<'a>>,
}

impl<'a> P<'a> {
    /// The next token, without consuming it.
    fn peek(&mut self) -> Result<Spanned<'a>, XPathError> {
        let next = match self.peeked {
            Some(next) => next,
            None => self.pull()?,
        };
        self.peeked = Some(next);
        Ok(next)
    }

    /// Consumes the next token.
    fn next(&mut self) -> Result<Spanned<'a>, XPathError> {
        match self.peeked.take() {
            Some(next) => Ok(next),
            None => self.pull(),
        }
    }

    fn pull(&mut self) -> Result<Spanned<'a>, XPathError> {
        Ok(match self.lexer.next_token()? {
            Some((at, t)) => (at, Some(t)),
            None => (self.lexer.end(), None),
        })
    }

    /// Parses the whole input: returns only at its end. `steps` and
    /// `predicates` are empty scratch lists.
    fn parse_path(
        &mut self,
        steps: &mut Vec<LocStep>,
        predicates: &mut Vec<Predicate>,
    ) -> Result<Path, XPathError> {
        loop {
            let axis = match self.next()? {
                (_, Some(Token::Slash)) => Axis::Child,
                (_, Some(Token::DoubleSlash)) => Axis::Descendant,
                (at, _) => return Err(XPathError::new(at, "expected '/' or '//'")),
            };
            // "/" alone is the root path.
            if steps.is_empty() && axis == Axis::Child && self.peek()?.1.is_none() {
                break;
            }
            let step = self.parse_step(axis, predicates)?;
            let is_attr = step.axis == Axis::Attribute;
            steps.push(step);
            match self.peek()? {
                (_, None) => break,
                (at, Some(_)) if is_attr => {
                    return Err(XPathError::new(at, "attribute step must be final"))
                }
                _ => {}
            }
        }
        Ok(Path { steps: exact(steps) })
    }

    /// Parses one step, filling its predicates in the empty scratch
    /// list `predicates`.
    fn parse_step(
        &mut self,
        axis: Axis,
        predicates: &mut Vec<Predicate>,
    ) -> Result<LocStep, XPathError> {
        let (at, t) = self.next()?;
        let (axis, test) = match t {
            Some(Token::At) => {
                if axis == Axis::Descendant {
                    return Err(XPathError::new(at, "'//@attr' is not in the fragment"));
                }
                let test = match self.next()? {
                    (_, Some(Token::Name(n))) => NameTest::Name(NameInterner::name(n)),
                    (_, Some(Token::Star)) => NameTest::Any,
                    (at, _) => {
                        return Err(XPathError::new(at, "expected attribute name after '@'"))
                    }
                };
                (Axis::Attribute, test)
            }
            Some(Token::Name(n)) => (axis, NameTest::Name(NameInterner::name(n))),
            Some(Token::Star) => (axis, NameTest::Any),
            _ => return Err(XPathError::new(at, "expected a name test")),
        };
        while let (at, Some(Token::LBracket)) = self.peek()? {
            if axis == Axis::Attribute {
                return Err(XPathError::new(at, "predicates not allowed on attribute steps"));
            }
            self.peeked = None;
            predicates.push(self.parse_predicate()?);
            match self.next()? {
                (_, Some(Token::RBracket)) => {}
                (at, _) => return Err(XPathError::new(at, "expected ']'")),
            }
        }
        Ok(LocStep { axis, test, predicates: exact(predicates) })
    }

    fn parse_predicate(&mut self) -> Result<Predicate, XPathError> {
        match self.next()? {
            (at, Some(Token::Integer(n))) => {
                if n == 0 {
                    return Err(XPathError::new(at, "positions are 1-based"));
                }
                Ok(Predicate::Position(n))
            }
            (_, Some(Token::At)) => {
                let name = match self.next()? {
                    (_, Some(Token::Name(n))) => n,
                    (at, _) => {
                        return Err(XPathError::new(at, "expected attribute name after '@'"))
                    }
                };
                Ok(match self.eq_literal()? {
                    Some(v) => Predicate::AttrEq(NameInterner::name(name), v.to_owned()),
                    None => Predicate::AttrExists(NameInterner::name(name)),
                })
            }
            (_, Some(Token::Name(name))) => Ok(match self.eq_literal()? {
                Some(v) => Predicate::ChildEq(NameInterner::name(name), v.to_owned()),
                None => Predicate::ChildExists(NameInterner::name(name)),
            }),
            (at, _) => Err(XPathError::new(at, "expected a predicate")),
        }
    }

    /// An optional `= 'literal'` after a predicate's name.
    fn eq_literal(&mut self) -> Result<Option<&'a str>, XPathError> {
        if self.peek()?.1 != Some(Token::Eq) {
            return Ok(None);
        }
        self.peeked = None;
        match self.next()? {
            (_, Some(Token::Literal(v))) => Ok(Some(v)),
            (at, _) => Err(XPathError::new(at, "expected string literal after '='")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap_or_else(|e| panic!("parse {s}: {e}"))
    }

    #[test]
    fn paper_examples_parse() {
        // Exactly the expressions from §4.3 / Fig. 9.
        for s in [
            "/user[@id='arnaud']/address-book",
            "/user[@id='arnaud']/presence",
            "/user[@id='arnaud']/address-book/item[@type='personal']",
            "/user[@id='arnaud']/address-book/item[@type='corporate']",
        ] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn root_path() {
        assert!(p("/").is_empty());
    }

    #[test]
    fn descendant_and_wildcard() {
        let path = p("//item[@id='3']/*");
        assert_eq!(path.steps[0].axis, Axis::Descendant);
        assert_eq!(path.steps[1].test, NameTest::Any);
        assert_eq!(path.to_string(), "//item[@id='3']/*");
    }

    #[test]
    fn attribute_final_step() {
        let path = p("/user/@id");
        assert!(path.targets_attribute());
        assert_eq!(path.to_string(), "/user/@id");
    }

    #[test]
    fn attribute_must_be_final() {
        assert!(Path::parse("/user/@id/book").is_err());
    }

    #[test]
    fn predicates_variants() {
        let path = p("/a[b='1'][@c][d][2]");
        assert_eq!(
            path.steps[0].predicates,
            vec![
                Predicate::ChildEq("b".into(), "1".into()),
                Predicate::AttrExists("c".into()),
                Predicate::ChildExists("d".into()),
                Predicate::Position(2),
            ]
        );
    }

    #[test]
    fn relative_path_rejected() {
        assert!(Path::parse("user/book").is_err());
    }

    #[test]
    fn malformed_rejected() {
        for bad in ["/a[", "/a[@]", "/a[=1]", "/a]", "/a[0]", "", "/a[@x=y]", "//@id"] {
            assert!(Path::parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn error_positions_are_byte_offsets_of_the_offending_token() {
        for (bad, at) in [
            ("", 0),               // nothing where '/' belongs
            ("/a]", 2),            // the stray ']'
            ("/a[", 3),            // input ends inside the predicate
            ("/a[@]", 4),          // ']' where the attribute name belongs
            ("/a[=1]", 3),         // '=' opens no predicate
            ("/a[0]", 3),          // the zero position
            ("/a[@x=y]", 6),       // a name where the literal belongs
            ("/a[@x='1'", 9),      // input ends before ']'
            ("//@id", 2),          // the '@' after '//'
            ("/user/@id/book", 9), // the '/' after the attribute step
            ("/user/@id[1]", 9),   // the '[' on an attribute step
            ("/a|b", 2),           // a character outside the fragment
            ("/a['x", 3),          // the unterminated literal's quote
            ("/é/ü[", 7),          // offsets count bytes, not chars
        ] {
            let err = Path::parse(bad).expect_err(bad);
            assert_eq!(err.position, at, "{bad}: {err}");
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["/a/b/c", "//x", "/a[@k='v']//b[c='2'][3]/@attr", "/*", "/"] {
            assert_eq!(p(s).to_string(), s);
        }
    }
}
