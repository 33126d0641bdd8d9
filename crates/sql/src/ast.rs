//! Raw (unresolved) SQL abstract syntax tree.

use taurus_common::Value;

/// A parsed statement. Only `SELECT` is routed to Orca (paper §4.1); other
/// statement kinds exist so the router has something to *decline* to route.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `INSERT INTO t VALUES (...), (...)` — executed by mylite directly.
    Insert {
        table: String,
        rows: Vec<Vec<AstExpr>>,
    },
}

/// A full `SELECT` statement: optional CTEs plus a query expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub ctes: Vec<Cte>,
    pub body: QueryExpr,
}

impl SelectStmt {
    /// A statement with no CTEs wrapping one query block.
    pub fn simple(block: QueryBlock) -> SelectStmt {
        SelectStmt { ctes: Vec::new(), body: QueryExpr::Block(Box::new(block)) }
    }
}

/// A common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    /// Optional explicit column names.
    pub columns: Vec<String>,
    pub query: Box<SelectStmt>,
    /// `WITH RECURSIVE` — parsed but rejected by the Orca route (§4.1).
    pub recursive: bool,
}

/// A query expression: a block or a set operation over two of them.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    Block(Box<QueryBlock>),
    SetOp { op: SetOp, all: bool, left: Box<QueryExpr>, right: Box<QueryExpr> },
}

/// Set operators. MySQL supports only `UNION` (paper §6.2, lesson §7
/// item 2); `INTERSECT`/`EXCEPT` must be rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

/// One `SELECT ... FROM ... WHERE ...` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryBlock {
    pub distinct: bool,
    pub select: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<AstExpr>,
    pub group_by: Vec<AstExpr>,
    pub having: Option<AstExpr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

/// A projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `SELECT *`.
    Wildcard,
    Expr {
        expr: AstExpr,
        alias: Option<String>,
    },
}

/// An ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: AstExpr,
    pub desc: bool,
}

/// A FROM-clause table reference.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table or CTE reference, with optional alias.
    Base { name: String, alias: Option<String> },
    /// Derived table: `(SELECT ...) AS alias`.
    Derived { query: Box<SelectStmt>, alias: String },
    /// Explicit join.
    Join { left: Box<TableRef>, right: Box<TableRef>, kind: JoinKind, on: Option<AstExpr> },
}

/// Join kinds the dialect supports. (Semi/anti joins are produced by the
/// prepare phase's subquery rewrites, never written directly.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// Interval units for date arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalUnit {
    Day,
    Month,
    Year,
}

/// Binary operators at the AST level (same set as the bound ones).
pub use taurus_common::BinOp as AstBinOp;

/// An unresolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `col` or `tbl.col` (or `schema.tbl.col`, kept as segments).
    Name(Vec<String>),
    Lit(Value),
    /// A bind parameter: [`crate::fingerprint::parameterize`] swaps it in
    /// place for the statement's `index`th bindable literal (counted in
    /// textual order) and keeps the peeked `value` it replaced. Never
    /// produced by the parser.
    Param {
        index: usize,
        value: Value,
    },
    /// `INTERVAL 'n' UNIT` — valid only as an operand of `+`/`-`.
    Interval {
        n: i64,
        unit: IntervalUnit,
    },
    Binary {
        op: AstBinOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Not(Box<AstExpr>),
    Neg(Box<AstExpr>),
    IsNull {
        expr: Box<AstExpr>,
        negated: bool,
    },
    /// Function call; `name` is uppercased by the parser. `COUNT(*)` is
    /// `Func { name: "COUNT", star: true, .. }`.
    Func {
        name: String,
        args: Vec<AstExpr>,
        distinct: bool,
        star: bool,
    },
    Case {
        operand: Option<Box<AstExpr>>,
        branches: Vec<(AstExpr, AstExpr)>,
        else_expr: Option<Box<AstExpr>>,
    },
    InList {
        expr: Box<AstExpr>,
        list: Vec<AstExpr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<AstExpr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    Exists {
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// `(SELECT single_value ...)` used as a scalar.
    ScalarSubquery(Box<SelectStmt>),
    Like {
        expr: Box<AstExpr>,
        pattern: Box<AstExpr>,
        negated: bool,
    },
    Between {
        expr: Box<AstExpr>,
        low: Box<AstExpr>,
        high: Box<AstExpr>,
        negated: bool,
    },
    /// `CAST(e AS type_name)`.
    Cast {
        expr: Box<AstExpr>,
        type_name: String,
    },
    /// `EXTRACT(field FROM e)`.
    Extract {
        field: String,
        expr: Box<AstExpr>,
    },
}

impl AstExpr {
    /// Convenience: name expression from one segment.
    pub fn name(s: &str) -> AstExpr {
        AstExpr::Name(vec![s.to_string()])
    }

    /// Convenience: `tbl.col`.
    pub fn qname(t: &str, c: &str) -> AstExpr {
        AstExpr::Name(vec![t.to_string(), c.to_string()])
    }
}
