//! Statement fingerprinting for the compile-once, serve-many plan cache.
//!
//! A fingerprint is a 64-bit hash of a statement's *shape*: a fold over the
//! lexer's token stream ([`token_digest`]) with every value-like literal
//! (int, double, string, date) masked to a typed bind position. Two texts
//! of the same statement that differ only in those literal values — the
//! repeated-statement pattern of an OLTP workload ("heavy traffic from
//! millions of users", ROADMAP) — hash identically, while any structural
//! difference (an extra predicate, a different column order, a renamed
//! table alias) changes the hash.
//!
//! Parameterization is *bind peeking*: [`parameterize`] swaps each bindable
//! literal of a parsed statement, in place, for an [`AstExpr::Param`] that
//! keeps the value it replaced, so the first compilation plans with real
//! constants (histograms, index-range bounds) exactly as if the literals
//! were still inline. Later executions of the same shape re-bind the cached
//! plan's parameters to their new values without re-optimizing.
//!
//! `TRUE`/`FALSE`/`NULL` literals stay structural: they steer
//! simplification (`WHERE FALSE` prunes) and almost never vary per
//! execution, so folding them into the hash keeps shapes honest.

use crate::ast::*;
use crate::lexer::{unquote, Lexer, Tok};
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

/// Parameterize a parsed statement: a copy of it whose bindable literals
/// are numbered in textual order. Its cache key is [`token_digest`]'s
/// fingerprint of the text it was parsed from.
pub fn parameterize(stmt: &SelectStmt) -> ParameterizedStatement {
    let mut p = ParameterizedStatement { stmt: stmt.clone(), binds: Vec::new() };
    bind_stmt(&mut p.stmt, &mut p.binds);
    p
}

/// A statement fingerprint computed straight off the token stream — no
/// AST. This is the plan cache's serve path: one fold over the lexer's
/// tokens hashes the normalized token shape (keywords canonicalized,
/// value literals masked to type tags) and extracts the literal values
/// in textual order, which is exactly the order [`parameterize`] numbers
/// its parameters in. The engine verifies that agreement once per shape
/// at insert time and refuses to cache a statement whose orders diverge,
/// so a digest hit can re-bind a cached plan without ever building a
/// parse tree.
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
    let mut h = Shape::new();
    let mut binds: Vec<Value> = Vec::new();
    // Keyword of the immediately preceding token ("" otherwise).
    let mut prev_kw: &str = "";
    let mut lexer = Lexer::new(input);
    loop {
        let Ok(token) = lexer.next_token() else { return None };
        let after = prev_kw;
        prev_kw = "";
        match token.tok {
            // Keywords hash canonicalized (case-insensitive), identifiers
            // as written (the parser keeps their case).
            Tok::Kw(kw) => {
                h.byte(b'K');
                h.text(kw);
                prev_kw = kw;
            }
            Tok::Ident(name) => {
                h.byte(b'I');
                h.text(name);
            }
            Tok::Int(_) | Tok::Float(_) if matches!(after, "LIMIT" | "INTERVAL") => {
                h.byte(b'N');
                h.text(&input[token.offset..token.end]);
            }
            Tok::Int(n) => {
                binds.push(Value::Int(n));
                h.param(0);
            }
            Tok::Float(f) => {
                binds.push(Value::Double(f));
                h.param(1);
            }
            // INTERVAL '3' MONTH: the quantity is structural.
            Tok::Str(raw) if after == "INTERVAL" => {
                h.byte(b'V');
                h.text(raw);
            }
            Tok::Str(raw) if after == "DATE" => {
                binds.push(Value::date(&unquote(raw)).ok()?);
                h.param(3);
            }
            Tok::Str(raw) => {
                binds.push(Value::str(unquote(raw)));
                h.param(2);
            }
            // Two-byte operators hash length-prefixed, one-byte ones bare.
            Tok::Sym(sym) if sym.len() == 2 => {
                h.byte(b'S');
                h.text(sym);
            }
            Tok::Sym(sym) => {
                h.byte(b'S');
                h.bytes(sym.as_bytes());
            }
            Tok::Eof => break,
        }
    }
    Some(TokenDigest { fingerprint: h.0, binds })
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

    fn text(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
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
// The in-place literal walk: every expression of a statement in textual
// order (CTEs, then each block's SELECT, FROM, WHERE, GROUP BY, HAVING,
// ORDER BY), each bindable literal swapped for the next `Param`.
// ---------------------------------------------------------------------

fn bind_stmt(stmt: &mut SelectStmt, binds: &mut Vec<Value>) {
    for cte in &mut stmt.ctes {
        bind_stmt(&mut cte.query, binds);
    }
    bind_query_expr(&mut stmt.body, binds);
}

fn bind_query_expr(qe: &mut QueryExpr, binds: &mut Vec<Value>) {
    let b = match qe {
        QueryExpr::SetOp { left, right, .. } => {
            bind_query_expr(left, binds);
            return bind_query_expr(right, binds);
        }
        QueryExpr::Block(b) => &mut **b,
    };
    for item in &mut b.select {
        if let SelectItem::Expr { expr, .. } = item {
            bind_expr(expr, binds);
        }
    }
    for t in &mut b.from {
        bind_table_ref(t, binds);
    }
    let clauses = b.where_clause.iter_mut().chain(&mut b.group_by).chain(&mut b.having);
    for e in clauses.chain(b.order_by.iter_mut().map(|o| &mut o.expr)) {
        bind_expr(e, binds);
    }
}

fn bind_table_ref(t: &mut TableRef, binds: &mut Vec<Value>) {
    match t {
        TableRef::Base { .. } => {}
        TableRef::Derived { query, .. } => bind_stmt(query, binds),
        TableRef::Join { left, right, on, .. } => {
            bind_table_ref(left, binds);
            bind_table_ref(right, binds);
            on.iter_mut().for_each(|e| bind_expr(e, binds));
        }
    }
}

fn bind_expr(e: &mut AstExpr, binds: &mut Vec<Value>) {
    match e {
        AstExpr::Lit(v) if is_bindable(v) => {
            let value = v.clone();
            *e = AstExpr::Param { index: binds.len(), value: value.clone() };
            binds.push(value);
        }
        AstExpr::Name(_) | AstExpr::Lit(_) | AstExpr::Param { .. } | AstExpr::Interval { .. } => {}
        AstExpr::Not(x)
        | AstExpr::Neg(x)
        | AstExpr::IsNull { expr: x, .. }
        | AstExpr::Cast { expr: x, .. }
        | AstExpr::Extract { expr: x, .. } => bind_expr(x, binds),
        AstExpr::Binary { left: a, right: b, .. } | AstExpr::Like { expr: a, pattern: b, .. } => {
            bind_expr(a, binds);
            bind_expr(b, binds);
        }
        AstExpr::Between { expr, low, high, .. } => {
            for x in [expr, low, high] {
                bind_expr(x, binds);
            }
        }
        AstExpr::Func { args, .. } => args.iter_mut().for_each(|a| bind_expr(a, binds)),
        AstExpr::Case { operand, branches, else_expr } => {
            operand.iter_mut().for_each(|o| bind_expr(o, binds));
            for (when, then) in branches {
                bind_expr(when, binds);
                bind_expr(then, binds);
            }
            else_expr.iter_mut().for_each(|x| bind_expr(x, binds));
        }
        AstExpr::InList { expr, list, .. } => {
            bind_expr(expr, binds);
            list.iter_mut().for_each(|x| bind_expr(x, binds));
        }
        AstExpr::InSubquery { expr, query, .. } => {
            bind_expr(expr, binds);
            bind_stmt(query, binds);
        }
        AstExpr::Exists { query, .. } | AstExpr::ScalarSubquery(query) => bind_stmt(query, binds),
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
    fn shape_is_fnv1a() {
        // Known FNV-1a test vectors.
        assert_eq!(Shape::new().0, 0xcbf2_9ce4_8422_2325);
        let mut h = Shape::new();
        h.byte(b'a');
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
