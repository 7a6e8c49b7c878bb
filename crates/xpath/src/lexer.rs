//! Tokenizer for the XPath fragment: a pull lexer whose names and
//! literals borrow from the input, so lexing allocates nothing.

use crate::parser::XPathError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token<'a> {
    Slash,
    DoubleSlash,
    At,
    Star,
    LBracket,
    RBracket,
    Eq,
    Name(&'a str),
    Literal(&'a str),
    Integer(usize),
}

/// Hands out the tokens of `input` one at a time, each with the byte
/// offset it starts at.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// The input's length: where an error past the last token points.
    pub(crate) fn end(&self) -> usize {
        self.input.len()
    }

    /// The next token and its byte offset, or `None` at the end of the
    /// input.
    pub(crate) fn next_token(&mut self) -> Result<Option<(usize, Token<'a>)>, XPathError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n') {
            i += 1;
        }
        let start = i;
        let Some(&first) = bytes.get(i) else {
            self.pos = i;
            return Ok(None);
        };
        i += 1;
        let token = match first {
            b'/' if bytes.get(i) == Some(&b'/') => {
                i += 1;
                Token::DoubleSlash
            }
            b'/' => Token::Slash,
            b'@' => Token::At,
            b'*' => Token::Star,
            b'[' => Token::LBracket,
            b']' => Token::RBracket,
            b'=' => Token::Eq,
            q @ (b'\'' | b'"') => {
                let Some(len) = bytes[i..].iter().position(|&b| b == q || b == 0) else {
                    return Err(XPathError::new(start, "unterminated string literal"));
                };
                // A referral token separates its paths with NUL, so no
                // path may carry one.
                if bytes[i + len] == 0 {
                    return Err(XPathError::new(i + len, "NUL in string literal"));
                }
                let literal = &input[i..i + len];
                i += len + 1;
                Token::Literal(literal)
            }
            b'0'..=b'9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: usize = input[start..i]
                    .parse()
                    .map_err(|_| XPathError::new(start, "integer overflow in position"))?;
                Token::Integer(n)
            }
            b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
                while i < bytes.len() {
                    let c = bytes[i];
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c >= 0x80
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                Token::Name(&input[start..i])
            }
            other => {
                return Err(XPathError::new(
                    start,
                    format!("unexpected character '{}'", other as char),
                ))
            }
        };
        self.pos = i;
        Ok(Some((start, token)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize(input: &str) -> Result<Vec<Token<'_>>, XPathError> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        while let Some((_, t)) = lexer.next_token()? {
            out.push(t);
        }
        Ok(out)
    }

    #[test]
    fn basic_tokens() {
        let toks = tokenize("/user[@id='arnaud']//item[2]/@type").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Slash,
                Token::Name("user"),
                Token::LBracket,
                Token::At,
                Token::Name("id"),
                Token::Eq,
                Token::Literal("arnaud"),
                Token::RBracket,
                Token::DoubleSlash,
                Token::Name("item"),
                Token::LBracket,
                Token::Integer(2),
                Token::RBracket,
                Token::Slash,
                Token::At,
                Token::Name("type"),
            ]
        );
    }

    #[test]
    fn double_quoted_literal() {
        assert_eq!(tokenize(r#""x y""#).unwrap(), vec![Token::Literal("x y")]);
    }

    #[test]
    fn unterminated_literal_rejected() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn nul_in_literal_rejected_where_it_stands() {
        for input in ["/a[@x='b\0c']", "/a[@x=\"b\0c\"]", "/a[@x='b\0"] {
            let err = tokenize(input).unwrap_err();
            assert_eq!((err.position, err.message.as_str()), (8, "NUL in string literal"), "{input:?}");
        }
    }

    #[test]
    fn bad_char_rejected() {
        assert!(tokenize("/a|b").is_err());
    }

    #[test]
    fn tokens_carry_their_byte_offsets() {
        let mut lexer = Lexer::new(" /a[ 'é' ]//b");
        let mut offsets = Vec::new();
        while let Some((at, _)) = lexer.next_token().unwrap() {
            offsets.push(at);
        }
        assert_eq!(offsets, [1, 2, 3, 5, 10, 11, 13]);
        assert_eq!(Lexer::new("/a 'x").next_token().unwrap(), Some((0, Token::Slash)));
        let mut lexer = Lexer::new("/a 'x");
        lexer.next_token().unwrap();
        lexer.next_token().unwrap();
        assert_eq!(lexer.next_token().unwrap_err().position, 3);
    }

    #[test]
    fn whitespace_skipped() {
        assert_eq!(tokenize(" / a ").unwrap().len(), 2);
    }
}
