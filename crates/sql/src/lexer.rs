//! SQL lexer: the front end's only scanner.
//!
//! Hand-rolled, byte-oriented, with case-insensitive keywords.
//! [`Lexer::next_token`] yields one borrowed, `Copy` [`Token`] at a time —
//! identifiers and string literals are slices of the source, so lexing
//! allocates nothing. The parser collects them ([`lex`]) and allocates a
//! name or string once, when it stores it in the AST; the plan cache's
//! [`token_digest`](crate::fingerprint::token_digest) folds over them
//! without building anything.

use std::borrow::Cow;
use taurus_common::error::{Error, Result};

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// Keyword, uppercased.
    Kw(&'static str),
    /// Identifier (non-keyword word, or backtick-quoted, without the
    /// backticks).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal, raw: the text between the quotes with
    /// `''` still doubled ([`unquote`] gives the value).
    Str(&'a str),
    /// Punctuation / operator (`!=` is spelled `<>`).
    Sym(&'static str),
    /// End of input.
    Eof,
}

/// A token and its byte span `offset..end` in the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    pub offset: usize,
    pub end: usize,
}

/// A string literal's value: its raw text with each `''` un-doubled.
/// Borrows unless there is an escape to undo (a raw literal holds quotes
/// only in doubled pairs).
pub fn unquote(raw: &str) -> Cow<'_, str> {
    if raw.contains('\'') {
        Cow::Owned(raw.replace("''", "'"))
    } else {
        Cow::Borrowed(raw)
    }
}

/// Every keyword the parser recognizes. Sorted for the binary search.
const KEYWORDS: &[&str] = &[
    "ALL",
    "AND",
    "AS",
    "ASC",
    "BETWEEN",
    "BY",
    "CASE",
    "CAST",
    "CROSS",
    "DATE",
    "DAY",
    "DESC",
    "DISTINCT",
    "ELSE",
    "END",
    "EXCEPT",
    "EXISTS",
    "EXTRACT",
    "FALSE",
    "FROM",
    "GROUP",
    "HAVING",
    "IN",
    "INNER",
    "INSERT",
    "INTERSECT",
    "INTERVAL",
    "INTO",
    "IS",
    "JOIN",
    "LEFT",
    "LIKE",
    "LIMIT",
    "MONTH",
    "NOT",
    "NULL",
    "ON",
    "OR",
    "ORDER",
    "OUTER",
    "RECURSIVE",
    "SELECT",
    "THEN",
    "TRUE",
    "UNION",
    "VALUES",
    "WHEN",
    "WHERE",
    "WITH",
    "YEAR",
];

pub(crate) fn keyword(word: &str) -> Option<&'static str> {
    let upper = word.bytes().map(|b| b.to_ascii_uppercase());
    KEYWORDS.binary_search_by(|k| k.bytes().cmp(upper.clone())).ok().map(|i| KEYWORDS[i])
}

/// Tokenize `input` fully, ending with [`Tok::Eof`].
pub fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(input);
    let mut out = Vec::new();
    loop {
        let t = lexer.next_token()?;
        out.push(t);
        if matches!(t.tok, Tok::Eof) {
            return Ok(out);
        }
    }
}

/// The token stream over one source text.
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    fn error(&mut self, message: String, offset: usize) -> Result<Token<'a>> {
        self.pos = self.input.len();
        Err(Error::Parse { message, offset })
    }

    /// The next token: [`Tok::Eof`] at the end of the input, and after
    /// the first lexical error (which is returned once).
    // On the plan-cache hit path: inlined into the digest's fold, this runs
    // within a few percent of a scanner fused with the hash; called, about
    // a third slower. The loops index bytes directly so that unoptimized
    // builds (which run the plan-cache gate in the test suite) keep pace
    // too.
    #[inline]
    pub fn next_token(&mut self) -> Result<Token<'a>> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        let n = bytes.len();
        let mut i = self.pos;
        // Whitespace and `--` line comments.
        while i < n {
            if bytes[i].is_ascii_whitespace() {
                i += 1;
            } else if bytes[i] == b'-' && i + 1 < n && bytes[i + 1] == b'-' {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            } else {
                break;
            }
        }
        if i == n {
            self.pos = n;
            return Ok(Token { tok: Tok::Eof, offset: n, end: n });
        }
        let start = i;
        let (c, next) = (bytes[i], if i + 1 < n { bytes[i + 1] } else { 0 });
        let digits = |mut i: usize| {
            while i < n && bytes[i].is_ascii_digit() {
                i += 1;
            }
            i
        };
        let tok = if c.is_ascii_alphabetic() || c == b'_' {
            // Identifiers and keywords.
            while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &input[start..i];
            keyword(word).map_or(Tok::Ident(word), Tok::Kw)
        } else if c == b'`' {
            // Backtick-quoted identifiers.
            let Some(len) = input[i + 1..].find('`') else {
                return self.error("unterminated quoted identifier".into(), start);
            };
            i += len + 2;
            Tok::Ident(&input[start + 1..i - 1])
        } else if c.is_ascii_digit() || (c == b'.' && next.is_ascii_digit()) {
            // Numbers; an integer past i64 falls back to a float.
            i = digits(i);
            if i < n && bytes[i] == b'.' {
                i = digits(i + 1);
            }
            if i < n && matches!(bytes[i], b'e' | b'E') {
                i += 1;
                if i < n && matches!(bytes[i], b'+' | b'-') {
                    i += 1;
                }
                i = digits(i);
            }
            let text = &input[start..i];
            let Ok(tok) = text.parse().map(Tok::Int).or_else(|_| text.parse().map(Tok::Float))
            else {
                return self.error(format!("bad numeric literal '{text}'"), start);
            };
            tok
        } else if c == b'\'' {
            // String literals: a doubled `''` is an escaped quote.
            loop {
                let Some(q) = input[i + 1..].find('\'') else {
                    return self.error("unterminated string literal".into(), start);
                };
                i += q + 2;
                if i == n || bytes[i] != b'\'' {
                    break;
                }
            }
            Tok::Str(&input[start + 1..i - 1])
        } else {
            // Operators, compared as bytes: a multi-byte character here is
            // an error, never a slice through its middle.
            let sym = match (c, next) {
                (b'<', b'=') => "<=",
                (b'>', b'=') => ">=",
                (b'<', b'>') | (b'!', b'=') => "<>",
                (b'(', _) => "(",
                (b')', _) => ")",
                (b',', _) => ",",
                (b'.', _) => ".",
                (b'+', _) => "+",
                (b'-', _) => "-",
                (b'*', _) => "*",
                (b'/', _) => "/",
                (b'%', _) => "%",
                (b'=', _) => "=",
                (b'<', _) => "<",
                (b'>', _) => ">",
                (b';', _) => ";",
                _ => {
                    // Every token ends on an ASCII byte, so `start` is a
                    // character boundary.
                    let ch = input[start..].chars().next().unwrap_or_default();
                    return self.error(format!("unexpected character '{ch}'"), start);
                }
            };
            i += sym.len();
            Tok::Sym(sym)
        };
        self.pos = i;
        Ok(Token { tok, offset: start, end: i })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            toks("select FROM Where"),
            vec![Tok::Kw("SELECT"), Tok::Kw("FROM"), Tok::Kw("WHERE"), Tok::Eof]
        );
    }

    #[test]
    fn keywords_list_is_sorted() {
        let mut sorted = KEYWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KEYWORDS, "KEYWORDS must stay sorted for binary_search");
    }

    #[test]
    fn identifiers_and_dots() {
        assert_eq!(
            toks("orders.o_orderkey"),
            vec![Tok::Ident("orders"), Tok::Sym("."), Tok::Ident("o_orderkey"), Tok::Eof]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("3.5"), vec![Tok::Float(3.5), Tok::Eof]);
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0), Tok::Eof]);
        // i64 overflow falls back to float.
        assert!(matches!(toks("99999999999999999999")[0], Tok::Float(_)));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it''s"), Tok::Eof]);
        assert_eq!(unquote("it''s"), "it's");
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a <= b != c"),
            vec![
                Tok::Ident("a"),
                Tok::Sym("<="),
                Tok::Ident("b"),
                Tok::Sym("<>"),
                Tok::Ident("c"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(toks("1 -- comment\n2"), vec![Tok::Int(1), Tok::Int(2), Tok::Eof]);
    }

    #[test]
    fn backtick_identifiers() {
        assert_eq!(toks("`select`"), vec![Tok::Ident("select"), Tok::Eof]);
        assert!(lex("`oops").is_err());
    }

    #[test]
    fn bad_character_reports_offset() {
        match lex("a ? b") {
            Err(Error::Parse { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // A multi-byte character is named whole, at its first byte.
        match lex("a =€") {
            Err(Error::Parse { message, offset }) => {
                assert_eq!((message.as_str(), offset), ("unexpected character '€'", 3))
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
