//! Tokenizer for OpenQASM 2.0.
//!
//! The lexer scans the source as bytes. Identifiers and string literals
//! borrow their text from the source, so tokens are `Copy` and lexing
//! allocates nothing but the token vector. No name is ever copied into
//! an owned `String`: a gate body is kept as a copy of its run of tokens,
//! still borrowing from the source. QASM is ASCII, so a
//! non-ASCII byte takes the `char` path: Unicode whitespace is skipped
//! like any other whitespace, and any other character is reported whole.

use std::fmt;

/// A lexical token with its source line (1-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: usize,
}

/// Token kinds. Names and string contents borrow from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'a> {
    Ident(&'a str),
    Real(f64),
    Int(u64),
    Str(&'a str),
    // punctuation
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semicolon,
    Comma,
    Arrow,
    Equals2,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Real(v) => write!(f, "{v}"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Arrow => write!(f, "->"),
            TokenKind::Equals2 => write!(f, "=="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Caret => write!(f, "^"),
        }
    }
}

/// Lexing failure with line information.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    pub line: usize,
    pub message: String,
}

/// Tokenizes `source`; `//` comments run to end of line.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::with_capacity(bytes.len() / 4);
    let mut line = 1usize;
    let mut i = 0usize;
    let error = |line, message| Err(LexError { line, message });
    while let Some(&b) = bytes.get(i) {
        let start = i;
        i += 1;
        let kind = match b {
            b'\n' => {
                line += 1;
                continue;
            }
            // The ASCII members of `char::is_whitespace`.
            b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => continue,
            b'/' if bytes.get(i) == Some(&b'/') => {
                match bytes[i..].iter().position(|&b| b == b'\n') {
                    Some(n) => {
                        i += n + 1;
                        line += 1;
                    }
                    None => i = bytes.len(),
                }
                continue;
            }
            b'-' if bytes.get(i) == Some(&b'>') => {
                i += 1;
                TokenKind::Arrow
            }
            b'=' if bytes.get(i) == Some(&b'=') => {
                i += 1;
                TokenKind::Equals2
            }
            b'=' => return error(line, "single `=` is not a QASM token".into()),
            b'"' => match bytes[i..].iter().position(|&b| b == b'"' || b == b'\n') {
                Some(n) if bytes[i + n] == b'"' => {
                    let text = &source[i..i + n];
                    i += n + 1;
                    TokenKind::Str(text)
                }
                _ => return error(line, "unterminated string literal".into()),
            },
            b'0'..=b'9' | b'.' => {
                let mut is_real = b == b'.';
                while let Some(&b) = bytes.get(i) {
                    match b {
                        b'0'..=b'9' => i += 1,
                        b'.' => {
                            is_real = true;
                            i += 1;
                        }
                        b'e' | b'E' => {
                            is_real = true;
                            i += 1;
                            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &source[start..i];
                if is_real {
                    match text.parse() {
                        Ok(v) => TokenKind::Real(v),
                        Err(_) => return error(line, format!("bad real literal `{text}`")),
                    }
                } else {
                    match text.parse() {
                        Ok(v) => TokenKind::Int(v),
                        Err(_) => return error(line, format!("bad integer literal `{text}`")),
                    }
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while bytes
                    .get(i)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    i += 1;
                }
                TokenKind::Ident(&source[start..i])
            }
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semicolon,
            b',' => TokenKind::Comma,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'^' => TokenKind::Caret,
            _ => {
                // `start` is a char boundary: every branch above steps
                // over whole ASCII bytes or stops at one.
                let c = source[start..].chars().next().expect("a char starts here");
                if c.is_whitespace() {
                    i = start + c.len_utf8();
                    continue;
                }
                return error(line, format!("unexpected character `{c}`"));
            }
        };
        tokens.push(Token { kind, line });
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn lex_error(src: &str) -> (usize, String) {
        let e = tokenize(src).unwrap_err();
        (e.line, e.message)
    }

    #[test]
    fn basic_statement() {
        assert_eq!(
            kinds("qreg q[5];"),
            vec![
                TokenKind::Ident("qreg"),
                TokenKind::Ident("q"),
                TokenKind::LBracket,
                TokenKind::Int(5),
                TokenKind::RBracket,
                TokenKind::Semicolon,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(kinds("// hello\nh q; // tail"), kinds("h q;"));
        // A comment running into end of input needs no newline, and a
        // lone `/` is still division.
        assert_eq!(kinds("a / b // é\u{a0}"), kinds("a / b"));
        let toks = tokenize("a;\n// end").unwrap();
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn reals_and_ints() {
        assert_eq!(
            kinds("1 2.5 3e-2 .5 1e+5 2. 7E2"),
            vec![
                TokenKind::Int(1),
                TokenKind::Real(2.5),
                TokenKind::Real(0.03),
                TokenKind::Real(0.5),
                TokenKind::Real(100000.0),
                TokenKind::Real(2.0),
                TokenKind::Real(700.0),
            ]
        );
        assert_eq!(lex_error("rz(1.2.3)").1, "bad real literal `1.2.3`");
        assert_eq!(lex_error("\n2e").1, "bad real literal `2e`");
        assert_eq!(
            lex_error("qreg q[99999999999999999999];"),
            (1, "bad integer literal `99999999999999999999`".to_string())
        );
    }

    #[test]
    fn arrow_and_minus() {
        assert_eq!(
            kinds("a -> b - c"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Arrow,
                TokenKind::Ident("b"),
                TokenKind::Minus,
                TokenKind::Ident("c"),
            ]
        );
        assert_eq!(
            kinds("a->b-->c-1"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Arrow,
                TokenKind::Ident("b"),
                TokenKind::Minus,
                TokenKind::Arrow,
                TokenKind::Ident("c"),
                TokenKind::Minus,
                TokenKind::Int(1),
            ]
        );
        // An arrow split by whitespace is a minus and a stray `>`.
        assert_eq!(lex_error("a - > b").1, "unexpected character `>`");
    }

    #[test]
    fn strings() {
        assert_eq!(
            kinds("include \"qelib1.inc\";"),
            vec![
                TokenKind::Ident("include"),
                TokenKind::Str("qelib1.inc"),
                TokenKind::Semicolon,
            ]
        );
        assert_eq!(
            kinds("\"ünïcødé λ\" \"\""),
            vec![TokenKind::Str("ünïcødé λ"), TokenKind::Str("")]
        );
        assert_eq!(
            lex_error("a;\n\"open\nb;"),
            (2, "unterminated string literal".to_string())
        );
    }

    #[test]
    fn line_tracking() {
        let toks = tokenize("a;\nb;\n\nc;").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[2].line, 2);
        assert_eq!(toks[4].line, 4);
        // CRLF counts one line per `\r\n`.
        let toks = tokenize("a;\r\nb;\r\n\r\nc;\r\n").unwrap();
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 1, 2, 2, 4, 4]);
        assert_eq!(kinds("a;\r\nb;"), kinds("a;\nb;"));
    }

    #[test]
    fn unicode_whitespace_and_characters() {
        // U+00A0 (no-break space) and U+2003 (em space) separate tokens
        // like a space, and a Unicode line separator does not count as
        // a new line.
        assert_eq!(kinds("h\u{a0}q\u{2003};"), kinds("h q;"));
        let toks = tokenize("a\u{2028}b;\nc").unwrap();
        assert_eq!(
            toks.iter().map(|t| t.line).collect::<Vec<_>>(),
            [1, 1, 1, 2]
        );
        // A multi-byte character is reported whole, on its own line.
        assert_eq!(
            lex_error("qreg q[1];\nh q[0]; λ"),
            (2, "unexpected character `λ`".to_string())
        );
        assert_eq!(
            lex_error("h q[0];\u{1F600}").1,
            "unexpected character `\u{1F600}`"
        );
        // Non-ASCII letters are not identifier characters.
        assert_eq!(lex_error("qé").1, "unexpected character `é`");
    }

    #[test]
    fn errors() {
        assert!(tokenize("@").is_err());
        assert!(tokenize("\"open").is_err());
        assert_eq!(
            lex_error("a = b"),
            (1, "single `=` is not a QASM token".to_string())
        );
        assert_eq!(lex_error("a\n\n\t#").0, 3);
        assert_eq!(lex_error("a =").1, "single `=` is not a QASM token");
    }
}
