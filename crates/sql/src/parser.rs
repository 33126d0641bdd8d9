//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{lex, unquote, Tok, Token};
use taurus_common::error::{Error, Result};
use taurus_common::{BinOp, Value};

/// Parse one statement (a trailing `;` is allowed).
pub fn parse(input: &str) -> Result<Statement> {
    let mut p = Parser { tokens: lex(input)?, pos: 0 };
    let stmt = p.statement()?;
    p.eat_sym(";");
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a statement that must be a `SELECT`.
pub fn parse_select(input: &str) -> Result<SelectStmt> {
    match parse(input)? {
        Statement::Select(s) => Ok(s),
        other => Err(Error::semantic(format!("expected SELECT statement, got {other:?}"))),
    }
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    // ---------------------------------------------------------------- utils

    fn peek(&self) -> Tok<'a> {
        self.tokens[self.pos].tok
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.tokens[self.pos].tok;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse { message: msg.into(), offset: self.offset() }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Kw(k) if k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(x) if x == s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}', found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.peek())))
        }
    }

    // ----------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Tok::Kw("INSERT") => self.insert_stmt(),
            _ => Ok(Statement::Select(self.select_stmt()?)),
        }
    }

    fn insert_stmt(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let mut ctes = Vec::new();
        if self.eat_kw("WITH") {
            let recursive = self.eat_kw("RECURSIVE");
            loop {
                let name = self.ident()?;
                let mut columns = Vec::new();
                if self.eat_sym("(") {
                    loop {
                        columns.push(self.ident()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                    self.expect_sym(")")?;
                }
                self.expect_kw("AS")?;
                self.expect_sym("(")?;
                let query = self.select_stmt()?;
                self.expect_sym(")")?;
                ctes.push(Cte { name, columns, query: Box::new(query), recursive });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let body = self.query_expr()?;
        Ok(SelectStmt { ctes, body })
    }

    fn query_expr(&mut self) -> Result<QueryExpr> {
        let mut left = self.query_term()?;
        loop {
            let op = match self.peek() {
                Tok::Kw("UNION") => SetOp::Union,
                Tok::Kw("INTERSECT") => SetOp::Intersect,
                Tok::Kw("EXCEPT") => SetOp::Except,
                _ => break,
            };
            self.bump();
            let all = self.eat_kw("ALL");
            if !all {
                self.eat_kw("DISTINCT");
            }
            let right = self.query_term()?;
            left = QueryExpr::SetOp { op, all, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn query_term(&mut self) -> Result<QueryExpr> {
        if self.eat_sym("(") {
            let q = self.query_expr()?;
            self.expect_sym(")")?;
            return Ok(q);
        }
        Ok(QueryExpr::Block(Box::new(self.query_block()?)))
    }

    fn query_block(&mut self) -> Result<QueryBlock> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut select = Vec::new();
        loop {
            if self.eat_sym("*") {
                select.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else if let Tok::Ident(_) = self.peek() {
                    // Bare alias: `SELECT a b FROM ...`
                    Some(self.ident()?)
                } else {
                    None
                };
                select.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        let mut block = QueryBlock { distinct, select, ..QueryBlock::default() };
        if self.eat_kw("FROM") {
            loop {
                block.from.push(self.table_ref()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("WHERE") {
            block.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                block.group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            block.having = Some(self.expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                block.order_by.push(OrderItem { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            match self.bump() {
                Tok::Int(n) if n >= 0 => block.limit = Some(n as u64),
                other => return Err(self.err(format!("expected LIMIT count, found {other:?}"))),
            }
        }
        Ok(block)
    }

    // ------------------------------------------------------------ FROM refs

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let kind = if self.eat_kw("CROSS") {
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.eat_kw("JOIN") {
                JoinKind::Inner
            } else {
                break;
            };
            let right = self.table_primary()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("ON")?;
                Some(self.expr()?)
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat_sym("(") {
            // Derived table.
            let query = self.select_stmt()?;
            self.expect_sym(")")?;
            self.eat_kw("AS");
            let alias = self.ident()?;
            return Ok(TableRef::Derived { query: Box::new(query), alias });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Tok::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Base { name, alias })
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = AstExpr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = AstExpr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_kw("NOT") {
            // `NOT EXISTS (...)` folds into the Exists node directly.
            if matches!(self.peek(), Tok::Kw("EXISTS")) {
                let e = self.not_expr()?;
                if let AstExpr::Exists { query, negated } = e {
                    return Ok(AstExpr::Exists { query, negated: !negated });
                }
                unreachable!("EXISTS keyword must parse to Exists");
            }
            return Ok(AstExpr::Not(Box::new(self.not_expr()?)));
        }
        self.predicate()
    }

    /// Comparison / IS NULL / IN / LIKE / BETWEEN level.
    fn predicate(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        // Comparison operators.
        let cmp = match self.peek() {
            Tok::Sym("=") => Some(BinOp::Eq),
            Tok::Sym("<>") => Some(BinOp::Ne),
            Tok::Sym("<") => Some(BinOp::Lt),
            Tok::Sym("<=") => Some(BinOp::Le),
            Tok::Sym(">") => Some(BinOp::Gt),
            Tok::Sym(">=") => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = cmp {
            self.bump();
            let right = self.additive()?;
            return Ok(AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) });
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(AstExpr::IsNull { expr: Box::new(left), negated });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            if matches!(self.peek(), Tok::Kw("SELECT") | Tok::Kw("WITH")) {
                let query = self.select_stmt()?;
                self.expect_sym(")")?;
                return Ok(AstExpr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(AstExpr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(AstExpr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected IN, LIKE or BETWEEN after NOT"));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("+") => BinOp::Add,
                Tok::Sym("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Sym("*") => BinOp::Mul,
                Tok::Sym("/") => BinOp::Div,
                Tok::Sym("%") => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = AstExpr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.eat_sym("-") {
            return Ok(AstExpr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_sym("+") {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek() {
            Tok::Int(n) => {
                self.bump();
                Ok(AstExpr::Lit(Value::Int(n)))
            }
            Tok::Float(f) => {
                self.bump();
                Ok(AstExpr::Lit(Value::Double(f)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(AstExpr::Lit(Value::str(unquote(s))))
            }
            Tok::Kw("NULL") => {
                self.bump();
                Ok(AstExpr::Lit(Value::Null))
            }
            Tok::Kw("TRUE") => {
                self.bump();
                Ok(AstExpr::Lit(Value::Bool(true)))
            }
            Tok::Kw("FALSE") => {
                self.bump();
                Ok(AstExpr::Lit(Value::Bool(false)))
            }
            Tok::Kw("DATE") => {
                self.bump();
                match self.bump() {
                    Tok::Str(s) => Ok(AstExpr::Lit(Value::date(&unquote(s))?)),
                    other => Err(self.err(format!("expected date string, found {other:?}"))),
                }
            }
            Tok::Kw("INTERVAL") => {
                self.bump();
                let n = match self.bump() {
                    Tok::Int(n) => n,
                    Tok::Str(s) => s
                        .trim()
                        .parse::<i64>()
                        .map_err(|_| self.err(format!("bad INTERVAL quantity '{s}'")))?,
                    other => {
                        return Err(self.err(format!("expected INTERVAL count, found {other:?}")))
                    }
                };
                let unit = if self.eat_kw("DAY") {
                    IntervalUnit::Day
                } else if self.eat_kw("MONTH") {
                    IntervalUnit::Month
                } else if self.eat_kw("YEAR") {
                    IntervalUnit::Year
                } else {
                    return Err(self.err("expected DAY, MONTH or YEAR"));
                };
                Ok(AstExpr::Interval { n, unit })
            }
            Tok::Kw("CASE") => {
                self.bump();
                let operand = if matches!(self.peek(), Tok::Kw("WHEN")) {
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                let mut branches = Vec::new();
                while self.eat_kw("WHEN") {
                    let when = self.expr()?;
                    self.expect_kw("THEN")?;
                    let then = self.expr()?;
                    branches.push((when, then));
                }
                if branches.is_empty() {
                    return Err(self.err("CASE requires at least one WHEN"));
                }
                let else_expr =
                    if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
                self.expect_kw("END")?;
                Ok(AstExpr::Case { operand, branches, else_expr })
            }
            Tok::Kw("CAST") => {
                self.bump();
                self.expect_sym("(")?;
                let expr = self.expr()?;
                self.expect_kw("AS")?;
                let type_name = match self.bump() {
                    Tok::Ident(s) => s.to_ascii_uppercase(),
                    Tok::Kw(k) => k.to_string(), // DATE etc.
                    other => return Err(self.err(format!("expected type name, got {other:?}"))),
                };
                self.expect_sym(")")?;
                Ok(AstExpr::Cast { expr: Box::new(expr), type_name })
            }
            Tok::Kw("EXTRACT") => {
                self.bump();
                self.expect_sym("(")?;
                let field = match self.bump() {
                    Tok::Kw(k) => k.to_string(),
                    Tok::Ident(s) => s.to_ascii_uppercase(),
                    other => return Err(self.err(format!("expected field name, got {other:?}"))),
                };
                self.expect_kw("FROM")?;
                let expr = self.expr()?;
                self.expect_sym(")")?;
                Ok(AstExpr::Extract { field, expr: Box::new(expr) })
            }
            // YEAR/MONTH/DAY are keywords (INTERVAL units) but also scalar
            // functions: `YEAR(d)`.
            Tok::Kw(k @ ("YEAR" | "MONTH" | "DAY")) => {
                self.bump();
                self.expect_sym("(")?;
                let arg = self.expr()?;
                self.expect_sym(")")?;
                Ok(AstExpr::Func {
                    name: k.to_string(),
                    args: vec![arg],
                    distinct: false,
                    star: false,
                })
            }
            Tok::Kw("EXISTS") => {
                self.bump();
                self.expect_sym("(")?;
                let query = self.select_stmt()?;
                self.expect_sym(")")?;
                Ok(AstExpr::Exists { query: Box::new(query), negated: false })
            }
            Tok::Sym("(") => {
                self.bump();
                if matches!(self.peek(), Tok::Kw("SELECT") | Tok::Kw("WITH")) {
                    let query = self.select_stmt()?;
                    self.expect_sym(")")?;
                    return Ok(AstExpr::ScalarSubquery(Box::new(query)));
                }
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Ident(first) => {
                self.bump();
                // Function call?
                if self.eat_sym("(") {
                    let name = first.to_ascii_uppercase();
                    let distinct = self.eat_kw("DISTINCT");
                    if self.eat_sym("*") {
                        self.expect_sym(")")?;
                        return Ok(AstExpr::Func { name, args: vec![], distinct, star: true });
                    }
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                        self.expect_sym(")")?;
                    }
                    return Ok(AstExpr::Func { name, args, distinct, star: false });
                }
                // Qualified name: a.b or a.b.c.
                let mut segs = vec![first.to_string()];
                while self.eat_sym(".") {
                    segs.push(self.ident()?);
                }
                Ok(AstExpr::Name(segs))
            }
            other => Err(self.err(format!("unexpected token in expression: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(sql: &str) -> QueryBlock {
        match parse(sql).unwrap() {
            Statement::Select(SelectStmt { body: QueryExpr::Block(b), .. }) => *b,
            other => panic!("expected plain block, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let b = block("SELECT a FROM t");
        assert_eq!(b.select.len(), 1);
        assert_eq!(b.from, vec![TableRef::Base { name: "t".into(), alias: None }]);
    }

    #[test]
    fn aliases_and_qualified_names() {
        let b = block("SELECT t.a AS x, b y FROM orders AS t, lineitem l");
        match &b.select[0] {
            SelectItem::Expr { expr, alias } => {
                assert_eq!(expr, &AstExpr::qname("t", "a"));
                assert_eq!(alias.as_deref(), Some("x"));
            }
            other => panic!("{other:?}"),
        }
        match &b.select[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("y")),
            other => panic!("{other:?}"),
        }
        assert_eq!(b.from.len(), 2);
    }

    #[test]
    fn join_tree_left_associative() {
        let b = block("SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y");
        match &b.from[0] {
            TableRef::Join { left, kind: JoinKind::Left, .. } => match left.as_ref() {
                TableRef::Join { kind: JoinKind::Inner, .. } => {}
                other => panic!("inner join expected on the left: {other:?}"),
            },
            other => panic!("left join expected at root: {other:?}"),
        }
    }

    #[test]
    fn cross_join_has_no_on() {
        let b = block("SELECT * FROM a CROSS JOIN b");
        match &b.from[0] {
            TableRef::Join { kind: JoinKind::Cross, on: None, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_group_having_order_limit() {
        let b = block(
            "SELECT a, COUNT(*) c FROM t WHERE a > 3 GROUP BY a HAVING COUNT(*) > 1 \
             ORDER BY c DESC, a LIMIT 100",
        );
        assert!(b.where_clause.is_some());
        assert_eq!(b.group_by.len(), 1);
        assert!(b.having.is_some());
        assert_eq!(b.order_by.len(), 2);
        assert!(b.order_by[0].desc && !b.order_by[1].desc);
        assert_eq!(b.limit, Some(100));
    }

    #[test]
    fn operator_precedence() {
        // a = 1 OR b = 2 AND c = 3  =>  a=1 OR (b=2 AND c=3)
        let b = block("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match b.where_clause.unwrap() {
            AstExpr::Binary { op: BinOp::Or, right, .. } => match *right {
                AstExpr::Binary { op: BinOp::And, .. } => {}
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // 1 + 2 * 3 => 1 + (2*3)
        let b = block("SELECT 1 + 2 * 3 FROM t");
        match &b.select[0] {
            SelectItem::Expr { expr: AstExpr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(right.as_ref(), AstExpr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn date_and_interval_literals() {
        let b = block(
            "SELECT * FROM t WHERE d >= DATE '1995-01-01' AND d < DATE '1995-01-01' + INTERVAL '3' MONTH",
        );
        let w = b.where_clause.unwrap();
        let mut found_interval = false;
        fn walk(e: &AstExpr, found: &mut bool) {
            if let AstExpr::Interval { n: 3, unit: IntervalUnit::Month } = e {
                *found = true;
            }
            if let AstExpr::Binary { left, right, .. } = e {
                walk(left, found);
                walk(right, found);
            }
        }
        walk(&w, &mut found_interval);
        assert!(found_interval);
    }

    #[test]
    fn subqueries() {
        let b = block(
            "SELECT * FROM orders WHERE EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey)",
        );
        assert!(matches!(b.where_clause.unwrap(), AstExpr::Exists { negated: false, .. }));

        let b = block("SELECT * FROM t WHERE x NOT IN (SELECT y FROM u)");
        assert!(matches!(b.where_clause.unwrap(), AstExpr::InSubquery { negated: true, .. }));

        let b = block("SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u)");
        assert!(matches!(b.where_clause.unwrap(), AstExpr::Exists { negated: true, .. }));

        let b = block("SELECT * FROM t WHERE q < (SELECT AVG(q) FROM u)");
        match b.where_clause.unwrap() {
            AstExpr::Binary { right, .. } => {
                assert!(matches!(*right, AstExpr::ScalarSubquery(_)))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn derived_tables_and_ctes() {
        let b = block("SELECT * FROM (SELECT a FROM t) AS d");
        assert!(matches!(&b.from[0], TableRef::Derived { alias, .. } if alias == "d"));

        let stmt = match parse("WITH c AS (SELECT 1 x FROM t) SELECT * FROM c").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(stmt.ctes.len(), 1);
        assert_eq!(stmt.ctes[0].name, "c");
        assert!(!stmt.ctes[0].recursive);

        let rec = match parse("WITH RECURSIVE r AS (SELECT 1 x FROM t) SELECT * FROM r").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert!(rec.ctes[0].recursive);
    }

    #[test]
    fn set_operations() {
        let s = match parse("SELECT a FROM t INTERSECT SELECT a FROM u").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert!(matches!(s.body, QueryExpr::SetOp { op: SetOp::Intersect, all: false, .. }));
        let s = match parse("SELECT a FROM t EXCEPT ALL SELECT a FROM u").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        assert!(matches!(s.body, QueryExpr::SetOp { op: SetOp::Except, all: true, .. }));
    }

    #[test]
    fn aggregates_and_case() {
        let b =
            block("SELECT SUM(CASE WHEN p IS NULL THEN 1 ELSE 0 END), COUNT(DISTINCT s) FROM t");
        match &b.select[0] {
            SelectItem::Expr { expr: AstExpr::Func { name, args, .. }, .. } => {
                assert_eq!(name, "SUM");
                assert!(matches!(args[0], AstExpr::Case { .. }));
            }
            other => panic!("{other:?}"),
        }
        match &b.select[1] {
            SelectItem::Expr { expr: AstExpr::Func { name, distinct, .. }, .. } => {
                assert_eq!(name, "COUNT");
                assert!(distinct);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cast_and_extract() {
        let b = block("SELECT CAST(d AS DATE), EXTRACT(YEAR FROM d) FROM t");
        assert!(matches!(
            &b.select[0],
            SelectItem::Expr { expr: AstExpr::Cast { type_name, .. }, .. } if type_name == "DATE"
        ));
        assert!(matches!(
            &b.select[1],
            SelectItem::Expr { expr: AstExpr::Extract { field, .. }, .. } if field == "YEAR"
        ));
    }

    #[test]
    fn insert_statement() {
        match parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap() {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE a NOT 5").is_err());
        assert!(parse("SELECT * FROM t LIMIT x").is_err());
        assert!(parse("SELECT * FROM t extra garbage ,").is_err());
        assert!(parse("SELECT CASE END FROM t").is_err());
    }

    #[test]
    fn between_and_like() {
        let b = block("SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND s NOT LIKE 'x%'");
        let conj = b.where_clause.unwrap();
        match conj {
            AstExpr::Binary { op: BinOp::And, left, right } => {
                assert!(matches!(*left, AstExpr::Between { negated: false, .. }));
                assert!(matches!(*right, AstExpr::Like { negated: true, .. }));
            }
            other => panic!("{other:?}"),
        }
    }
}
