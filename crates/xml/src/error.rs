//! Error types for the XML subsystem.

use std::fmt;

/// A parse error with byte offset and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Why the input was refused.
    pub kind: ParseErrorKind,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// 1-based line number of the error.
    pub line: usize,
    /// 1-based column (in bytes) of the error.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(
        offset: usize,
        input: &str,
        kind: ParseErrorKind,
        message: impl Into<String>,
    ) -> Self {
        let mut line = 1usize;
        let mut col = 1usize;
        for b in input.as_bytes()[..offset.min(input.len())].iter() {
            if *b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError { kind, offset, line, column: col, message: message.into() }
    }
}

/// Why a [`ParseError`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is not a document of the XML subset GUPster reads.
    Syntax,
    /// Elements nest more than 256 levels deep.
    TooDeep,
    /// The input is 4 GiB or longer, past what a `u32` offset addresses.
    TooLong,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors raised by non-parsing XML operations (merge, diff application).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Two elements could not be merged because their keyed identities
    /// collide with incompatible content.
    MergeConflict {
        /// Tag name of the conflicting element.
        tag: String,
        /// Description of the conflict.
        detail: String,
    },
    /// A [`crate::NodePath`] did not resolve in the target tree.
    PathNotFound(String),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::MergeConflict { tag, detail } => {
                write!(f, "merge conflict on <{tag}>: {detail}")
            }
            XmlError::PathNotFound(p) => write!(f, "node path not found: {p}"),
        }
    }
}

impl std::error::Error for XmlError {}
