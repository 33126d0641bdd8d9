//! Statement fingerprinting for the compile-once, serve-many plan cache.
//!
//! A fingerprint is a 64-bit hash of a statement's *shape*: its token
//! stream ([`token_digest`]) with every value-like literal (int, double,
//! string, date) masked to a typed bind position. Two texts of the same
//! statement that differ only in those literal values — the
//! repeated-statement pattern of an OLTP workload ("heavy traffic from
//! millions of users", ROADMAP) — hash identically, while any structural
//! difference (an extra predicate, a different column order, a renamed
//! table alias) changes the hash.
//!
//! Parameterization is *bind peeking*: each [`AstExpr::Param`] keeps the
//! literal value it replaced, so the first compilation plans with real
//! constants (histograms, index-range bounds) exactly as if the literals
//! were still inline. Later executions of the same shape re-bind the cached
//! plan's parameters to their new values without re-optimizing.
//!
//! `TRUE`/`FALSE`/`NULL` literals stay structural: they steer
//! simplification (`WHERE FALSE` prunes) and almost never vary per
//! execution, so folding them into the hash keeps shapes honest.

use crate::ast::*;
use crate::lexer::keyword;
use taurus_common::Value;

/// A statement with its literals parameterized out.
#[derive(Debug, Clone)]
pub struct ParameterizedStatement {
    /// The statement with [`AstExpr::Param`] nodes in place of value
    /// literals (each carrying its peeked value).
    pub stmt: SelectStmt,
    /// The extracted literal values, indexed by parameter number.
    pub binds: Vec<Value>,
}

/// Parameterize a parsed statement. Its cache key is [`token_digest`]'s
/// fingerprint of the text it was parsed from.
pub fn parameterize(stmt: &SelectStmt) -> ParameterizedStatement {
    let mut binds: Vec<Value> = Vec::new();
    let stmt = map_stmt(stmt, &mut |e| match e {
        AstExpr::Lit(v) if is_bindable(v) => {
            let index = binds.len();
            binds.push(v.clone());
            Some(AstExpr::Param { index, value: v.clone() })
        }
        _ => None,
    });
    ParameterizedStatement { stmt, binds }
}

/// A statement fingerprint computed straight off the token stream — no
/// AST. This is the plan cache's serve path: one pass over the source
/// bytes hashes the normalized token shape (keywords canonicalized,
/// value literals masked to type tags) and extracts the literal values
/// in textual order, which for this grammar is exactly the pre-order
/// walk [`parameterize`] uses to number its parameters. The engine
/// verifies that agreement once per shape at insert time and refuses to
/// cache a statement whose orders diverge, so a digest hit can re-bind a
/// cached plan without ever building a parse tree.
#[derive(Debug, Clone)]
pub struct TokenDigest {
    /// FNV-1a hash of the normalized token stream.
    pub fingerprint: u64,
    /// Literal values in token order.
    pub binds: Vec<Value>,
}

/// Digest a statement's token stream, or `None` if it doesn't lex (the
/// caller falls through to the parser for a real error message).
///
/// Context rules mirror the parser's literal handling: a string after
/// `DATE` binds as a date, numbers/strings after `LIMIT` or `INTERVAL`
/// stay structural (the parser stores them inline, never as binds), and
/// `TRUE`/`FALSE`/`NULL` are keywords, hence structural.
pub fn token_digest(input: &str) -> Option<TokenDigest> {
    let bytes = input.as_bytes();
    let mut h = Shape::new();
    let mut binds: Vec<Value> = Vec::new();
    let mut i = 0usize;
    // Keyword of the immediately preceding token ("" otherwise).
    let mut prev_kw: &str = "";
    while i < bytes.len() {
        let c = bytes[i];
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
        // Words: keywords hash canonicalized (case-insensitive), plain
        // identifiers hash as written (the parser keeps their case).
        if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &input[start..i];
            match keyword(word) {
                Some(kw) => {
                    h.byte(b'K');
                    h.text(kw);
                    prev_kw = kw;
                }
                None => {
                    h.byte(b'I');
                    h.text(word);
                    prev_kw = "";
                }
            }
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
                return None;
            }
            h.byte(b'I');
            h.text(&input[s..i]);
            i += 1;
            prev_kw = "";
            continue;
        }
        // Numbers (same shape recognition as the lexer).
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
            if prev_kw == "LIMIT" || prev_kw == "INTERVAL" {
                h.byte(b'N');
                h.text(text);
            } else if is_float {
                binds.push(Value::Double(text.parse().ok()?));
                h.param(1);
            } else {
                match text.parse::<i64>() {
                    Ok(n) => {
                        binds.push(Value::Int(n));
                        h.param(0);
                    }
                    Err(_) => {
                        binds.push(Value::Double(text.parse().ok()?));
                        h.param(1);
                    }
                }
            }
            prev_kw = "";
            continue;
        }
        // String literals with '' escaping.
        if c == b'\'' {
            i += 1;
            let s = i;
            let mut escaped = false;
            loop {
                if i >= bytes.len() {
                    return None;
                }
                if bytes[i] == b'\'' {
                    if bytes.get(i + 1) == Some(&b'\'') {
                        escaped = true;
                        i += 2;
                        continue;
                    }
                    break;
                }
                i += 1;
            }
            let raw = &input[s..i];
            i += 1; // closing quote
            match prev_kw {
                // INTERVAL '3' MONTH: the quantity is structural.
                "INTERVAL" => {
                    h.byte(b'V');
                    h.text(raw);
                }
                "DATE" => {
                    let content = if escaped { raw.replace("''", "'") } else { raw.to_string() };
                    binds.push(Value::date(&content).ok()?);
                    h.param(3);
                }
                _ => {
                    let content = if escaped { raw.replace("''", "'") } else { raw.to_string() };
                    binds.push(Value::str(&content));
                    h.param(2);
                }
            }
            prev_kw = "";
            continue;
        }
        // Operators (canonicalizing `!=` to `<>`, like the lexer).
        let two = if i + 1 < bytes.len() { &input[i..i + 2] } else { "" };
        if let Some(sym) = match two {
            "<=" => Some("<="),
            ">=" => Some(">="),
            "<>" | "!=" => Some("<>"),
            _ => None,
        } {
            h.byte(b'S');
            h.text(sym);
            i += 2;
            prev_kw = "";
            continue;
        }
        if !matches!(
            c,
            b'(' | b')'
                | b','
                | b'.'
                | b'+'
                | b'-'
                | b'*'
                | b'/'
                | b'%'
                | b'='
                | b'<'
                | b'>'
                | b';'
        ) {
            return None;
        }
        h.byte(b'S');
        h.byte(c);
        i += 1;
        prev_kw = "";
    }
    Some(TokenDigest { fingerprint: h.0, binds })
}

/// FNV-1a 64-bit: deterministic, dependency-free, good avalanche for short
/// keys — the standard in-process choice when SipHash's random keying would
/// make fingerprints unstable across sessions.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Which literal values become bind parameters. Booleans and NULL remain
/// structural (see module docs).
fn is_bindable(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Double(_) | Value::Str(_) | Value::Date(_))
}

/// The digest's streaming hash: an incremental FNV-1a state fed one tag
/// byte per token plus the token's text, length-prefixed so adjacent tokens
/// can't alias. A bindable literal feeds `P` + its type tag only — its
/// payload is invisible to the fingerprint.
struct Shape(u64);

impl Shape {
    fn new() -> Shape {
        Shape(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A bind-parameter position: `P` plus the value's type tag (0 int,
    /// 1 double, 2 string, 3 date).
    fn param(&mut self, type_tag: u8) {
        self.byte(b'P');
        self.byte(type_tag);
    }
}

// ---------------------------------------------------------------------
// Generic AST rebuild with a pre-order expression hook. The hook returns
// `Some(replacement)` to substitute a node (children not visited) or `None`
// to recurse.
// ---------------------------------------------------------------------

fn map_stmt(stmt: &SelectStmt, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> SelectStmt {
    SelectStmt {
        ctes: stmt
            .ctes
            .iter()
            .map(|c| Cte {
                name: c.name.clone(),
                columns: c.columns.clone(),
                query: Box::new(map_stmt(&c.query, f)),
                recursive: c.recursive,
            })
            .collect(),
        body: map_query_expr(&stmt.body, f),
    }
}

fn map_query_expr(qe: &QueryExpr, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> QueryExpr {
    match qe {
        QueryExpr::Block(b) => QueryExpr::Block(Box::new(map_block(b, f))),
        QueryExpr::SetOp { op, all, left, right } => QueryExpr::SetOp {
            op: *op,
            all: *all,
            left: Box::new(map_query_expr(left, f)),
            right: Box::new(map_query_expr(right, f)),
        },
    }
}

fn map_block(b: &QueryBlock, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> QueryBlock {
    QueryBlock {
        distinct: b.distinct,
        select: b
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::Expr { expr, alias } => {
                    SelectItem::Expr { expr: map_expr(expr, f), alias: alias.clone() }
                }
            })
            .collect(),
        from: b.from.iter().map(|t| map_table_ref(t, f)).collect(),
        where_clause: b.where_clause.as_ref().map(|e| map_expr(e, f)),
        group_by: b.group_by.iter().map(|e| map_expr(e, f)).collect(),
        having: b.having.as_ref().map(|e| map_expr(e, f)),
        order_by: b
            .order_by
            .iter()
            .map(|o| OrderItem { expr: map_expr(&o.expr, f), desc: o.desc })
            .collect(),
        limit: b.limit,
    }
}

fn map_table_ref(t: &TableRef, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> TableRef {
    match t {
        TableRef::Base { name, alias } => {
            TableRef::Base { name: name.clone(), alias: alias.clone() }
        }
        TableRef::Derived { query, alias } => {
            TableRef::Derived { query: Box::new(map_stmt(query, f)), alias: alias.clone() }
        }
        TableRef::Join { left, right, kind, on } => TableRef::Join {
            left: Box::new(map_table_ref(left, f)),
            right: Box::new(map_table_ref(right, f)),
            kind: *kind,
            on: on.as_ref().map(|e| map_expr(e, f)),
        },
    }
}

fn map_expr(e: &AstExpr, f: &mut impl FnMut(&AstExpr) -> Option<AstExpr>) -> AstExpr {
    if let Some(replacement) = f(e) {
        return replacement;
    }
    match e {
        AstExpr::Name(_) | AstExpr::Lit(_) | AstExpr::Param { .. } | AstExpr::Interval { .. } => {
            e.clone()
        }
        AstExpr::Binary { op, left, right } => AstExpr::Binary {
            op: *op,
            left: Box::new(map_expr(left, f)),
            right: Box::new(map_expr(right, f)),
        },
        AstExpr::Not(x) => AstExpr::Not(Box::new(map_expr(x, f))),
        AstExpr::Neg(x) => AstExpr::Neg(Box::new(map_expr(x, f))),
        AstExpr::IsNull { expr, negated } => {
            AstExpr::IsNull { expr: Box::new(map_expr(expr, f)), negated: *negated }
        }
        AstExpr::Func { name, args, distinct, star } => AstExpr::Func {
            name: name.clone(),
            args: args.iter().map(|a| map_expr(a, f)).collect(),
            distinct: *distinct,
            star: *star,
        },
        AstExpr::Case { operand, branches, else_expr } => AstExpr::Case {
            operand: operand.as_ref().map(|o| Box::new(map_expr(o, f))),
            branches: branches.iter().map(|(w, t)| (map_expr(w, f), map_expr(t, f))).collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(map_expr(x, f))),
        },
        AstExpr::InList { expr, list, negated } => AstExpr::InList {
            expr: Box::new(map_expr(expr, f)),
            list: list.iter().map(|i| map_expr(i, f)).collect(),
            negated: *negated,
        },
        AstExpr::InSubquery { expr, query, negated } => AstExpr::InSubquery {
            expr: Box::new(map_expr(expr, f)),
            query: Box::new(map_stmt(query, f)),
            negated: *negated,
        },
        AstExpr::Exists { query, negated } => {
            AstExpr::Exists { query: Box::new(map_stmt(query, f)), negated: *negated }
        }
        AstExpr::ScalarSubquery(q) => AstExpr::ScalarSubquery(Box::new(map_stmt(q, f))),
        AstExpr::Like { expr, pattern, negated } => AstExpr::Like {
            expr: Box::new(map_expr(expr, f)),
            pattern: Box::new(map_expr(pattern, f)),
            negated: *negated,
        },
        AstExpr::Between { expr, low, high, negated } => AstExpr::Between {
            expr: Box::new(map_expr(expr, f)),
            low: Box::new(map_expr(low, f)),
            high: Box::new(map_expr(high, f)),
            negated: *negated,
        },
        AstExpr::Cast { expr, type_name } => {
            AstExpr::Cast { expr: Box::new(map_expr(expr, f)), type_name: type_name.clone() }
        }
        AstExpr::Extract { field, expr } => {
            AstExpr::Extract { field: field.clone(), expr: Box::new(map_expr(expr, f)) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn fp(sql: &str) -> ParameterizedStatement {
        parameterize(&parse_select(sql).unwrap())
    }

    #[test]
    fn literals_are_extracted_in_order() {
        let p = fp("SELECT a FROM t WHERE b = 5 AND c BETWEEN 10 AND 20 AND d LIKE 'x%'");
        assert_eq!(p.binds, vec![Value::Int(5), Value::Int(10), Value::Int(20), Value::str("x%")]);
    }

    fn digest(sql: &str) -> u64 {
        token_digest(sql).expect(sql).fingerprint
    }

    #[test]
    fn structural_changes_change_fingerprint() {
        let base = digest("SELECT a, b FROM t WHERE a = 1");
        // Different column order.
        assert_ne!(base, digest("SELECT b, a FROM t WHERE a = 1"));
        // Added predicate.
        assert_ne!(base, digest("SELECT a, b FROM t WHERE a = 1 AND b = 2"));
        // Table alias.
        assert_ne!(base, digest("SELECT a, b FROM t x WHERE a = 1"));
        // Bool literals stay structural.
        assert_ne!(digest("SELECT a FROM t WHERE TRUE"), digest("SELECT a FROM t WHERE FALSE"));
    }

    #[test]
    fn subquery_literals_participate() {
        let a = "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a AND u.y = 3)";
        let b = "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a AND u.y = 9)";
        assert_eq!(digest(a), digest(b));
        // SELECT 1 and the comparison literal.
        assert_eq!(token_digest(a).unwrap().binds, vec![Value::Int(1), Value::Int(3)]);
        let c = "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)";
        assert_ne!(digest(a), digest(c));
    }

    #[test]
    fn token_digest_binds_agree_with_parameterize() {
        // The digest's textual bind order must equal the AST walk's
        // parameter order — the contract that makes digest-keyed rebinding
        // sound. (The engine also re-verifies this per shape at insert.)
        for sql in [
            "SELECT a FROM t WHERE b = 5 AND c BETWEEN 10 AND 20 AND d LIKE 'x%'",
            "SELECT SUM(x) FROM t WHERE d >= DATE '1995-03-01' + INTERVAL '3' MONTH LIMIT 5",
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a AND u.y = 3)",
            "SELECT a FROM t WHERE b IN (1, 2.5, 'it''s') AND c = -7",
            "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t WHERE a IS NOT NULL",
        ] {
            let d = token_digest(sql).expect(sql);
            let p = fp(sql);
            assert_eq!(d.binds, p.binds, "bind disagreement for: {sql}");
        }
    }

    #[test]
    fn token_digest_same_shape_same_fingerprint() {
        let a = token_digest("SELECT a FROM t WHERE b = 5 AND d = DATE '1994-01-01'").unwrap();
        let b = token_digest("SELECT a FROM t WHERE b = 99 AND d = DATE '1997-06-30'").unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.binds, b.binds);
        // Keyword case is canonicalized.
        let c = token_digest("select a from t where b = 5 and d = date '1994-01-01'").unwrap();
        assert_eq!(a.fingerprint, c.fingerprint);
        // Literal type changes and structural changes alter the hash.
        let ty = token_digest("SELECT a FROM t WHERE b = 'x' AND d = DATE '1994-01-01'").unwrap();
        assert_ne!(a.fingerprint, ty.fingerprint);
        let cols =
            token_digest("SELECT a, b FROM t WHERE b = 5 AND d = DATE '1994-01-01'").unwrap();
        assert_ne!(a.fingerprint, cols.fingerprint);
    }

    #[test]
    fn token_digest_limit_and_interval_stay_structural() {
        let a = token_digest("SELECT a FROM t ORDER BY a LIMIT 5").unwrap();
        let b = token_digest("SELECT a FROM t ORDER BY a LIMIT 10").unwrap();
        assert_ne!(a.fingerprint, b.fingerprint, "LIMIT is not a bind position");
        assert!(a.binds.is_empty());
        let c = token_digest("SELECT d + INTERVAL '3' MONTH FROM t").unwrap();
        let d = token_digest("SELECT d + INTERVAL '4' MONTH FROM t").unwrap();
        assert_ne!(c.fingerprint, d.fingerprint, "INTERVAL quantity is structural");
        assert!(c.binds.is_empty());
    }

    #[test]
    fn token_digest_rejects_unlexable_input() {
        assert!(token_digest("SELECT 'unterminated").is_none());
        assert!(token_digest("a ? b").is_none());
    }

    #[test]
    fn fnv1a_is_stable() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
