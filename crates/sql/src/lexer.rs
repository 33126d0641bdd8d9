//! SQL lexer.
//!
//! Hand-rolled, byte-oriented, with case-insensitive keywords. Tokens carry
//! their byte offset so parse errors can point at the source.

use taurus_common::error::{Error, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keyword, uppercased.
    Kw(&'static str),
    /// Identifier (non-keyword word, or backtick-quoted).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (with `''` unescaped).
    Str(String),
    /// Punctuation / operator.
    Sym(&'static str),
    /// End of input.
    Eof,
}

/// A token plus its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub offset: usize,
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

/// Tokenize `input` fully.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments: `--` to end of line.
        if c == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        // Identifiers and keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &input[start..i];
            let tok = match keyword(word) {
                Some(kw) => Tok::Kw(kw),
                None => Tok::Ident(word.to_string()),
            };
            out.push(Token { tok, offset: start });
            continue;
        }
        // Backtick-quoted identifiers.
        if c == b'`' {
            i += 1;
            let s = i;
            while i < bytes.len() && bytes[i] != b'`' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(Error::Parse {
                    message: "unterminated quoted identifier".into(),
                    offset: start,
                });
            }
            out.push(Token { tok: Tok::Ident(input[s..i].to_string()), offset: start });
            i += 1;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() || (c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) {
            let mut is_float = false;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'.' {
                is_float = true;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                is_float = true;
                i += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let text = &input[start..i];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| Error::Parse {
                    message: format!("bad float literal '{text}'"),
                    offset: start,
                })?)
            } else {
                match text.parse::<i64>() {
                    Ok(n) => Tok::Int(n),
                    Err(_) => Tok::Float(text.parse().map_err(|_| Error::Parse {
                        message: format!("bad numeric literal '{text}'"),
                        offset: start,
                    })?),
                }
            };
            out.push(Token { tok, offset: start });
            continue;
        }
        // String literals with '' escaping.
        if c == b'\'' {
            i += 1;
            let mut s = String::new();
            loop {
                if i >= bytes.len() {
                    return Err(Error::Parse {
                        message: "unterminated string literal".into(),
                        offset: start,
                    });
                }
                if bytes[i] == b'\'' {
                    if bytes.get(i + 1) == Some(&b'\'') {
                        s.push('\'');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                // Multi-byte UTF-8 passes through untouched.
                let ch_len = utf8_len(bytes[i]);
                s.push_str(&input[i..i + ch_len]);
                i += ch_len;
            }
            out.push(Token { tok: Tok::Str(s), offset: start });
            continue;
        }
        // Multi-char operators first.
        let two = if i + 1 < bytes.len() { &input[i..i + 2] } else { "" };
        let sym2 = match two {
            "<=" => Some("<="),
            ">=" => Some(">="),
            "<>" => Some("<>"),
            "!=" => Some("<>"),
            _ => None,
        };
        if let Some(s) = sym2 {
            out.push(Token { tok: Tok::Sym(s), offset: start });
            i += 2;
            continue;
        }
        let sym1 = match c {
            b'(' => "(",
            b')' => ")",
            b',' => ",",
            b'.' => ".",
            b'+' => "+",
            b'-' => "-",
            b'*' => "*",
            b'/' => "/",
            b'%' => "%",
            b'=' => "=",
            b'<' => "<",
            b'>' => ">",
            b';' => ";",
            _ => {
                return Err(Error::Parse {
                    message: format!("unexpected character '{}'", c as char),
                    offset: start,
                })
            }
        };
        out.push(Token { tok: Tok::Sym(sym1), offset: start });
        i += 1;
    }
    out.push(Token { tok: Tok::Eof, offset: input.len() });
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok> {
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
            vec![
                Tok::Ident("orders".into()),
                Tok::Sym("."),
                Tok::Ident("o_orderkey".into()),
                Tok::Eof
            ]
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
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into()), Tok::Eof]);
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a <= b != c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Sym("<="),
                Tok::Ident("b".into()),
                Tok::Sym("<>"),
                Tok::Ident("c".into()),
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
        assert_eq!(toks("`select`"), vec![Tok::Ident("select".into()), Tok::Eof]);
        assert!(lex("`oops").is_err());
    }

    #[test]
    fn bad_character_reports_offset() {
        match lex("a ? b") {
            Err(Error::Parse { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
