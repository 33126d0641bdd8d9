//! Bound scalar expressions.
//!
//! These are the *post-resolution* expressions shared by both optimizers and
//! the executor. Column references are `(table, col)` pairs where `table` is
//! the table's index in the query's flat table list (the stand-in for
//! MySQL's `TABLE_LIST` ordering, §4.1) — evaluation resolves them through a
//! [`Layout`] so the same tree works under any join order, including the
//! bushy orders Orca produces.
//!
//! Subqueries never appear here: the prepare phase rewrites them to
//! semi-joins or derived tables before binding, exactly as the paper's
//! MySQL frontend does.

use crate::datetime;
use crate::error::{Error, Result};
use crate::row::Layout;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// A bound column reference: `(query-table index, column ordinal)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    pub table: usize,
    pub col: usize,
}

/// Binary operators. The five arithmetic and six comparison operators are
/// exactly the axes of the paper's expression cubes (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// The 5 arithmetic operators (§5.2's first cube axis).
    pub const ARITH: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
    /// The 6 comparison operators (§5.2's second cube axis).
    pub const CMP: [BinOp; 6] = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];

    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }

    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
    }

    /// Commuted operator: `a op b` ≡ `b op' a` (§5.3). `None` when the
    /// operator does not commute (`-`, `/`, `%`).
    pub fn commutator(self) -> Option<BinOp> {
        match self {
            BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => Some(self),
            BinOp::Lt => Some(BinOp::Gt),
            BinOp::Le => Some(BinOp::Ge),
            BinOp::Gt => Some(BinOp::Lt),
            BinOp::Ge => Some(BinOp::Le),
            BinOp::Sub | BinOp::Div | BinOp::Mod => None,
        }
    }

    /// Logical inverse for comparisons: `NOT (a op b)` ≡ `a op' b` (§5.3).
    pub fn inverse(self) -> Option<BinOp> {
        match self {
            BinOp::Eq => Some(BinOp::Ne),
            BinOp::Ne => Some(BinOp::Eq),
            BinOp::Lt => Some(BinOp::Ge),
            BinOp::Le => Some(BinOp::Gt),
            BinOp::Gt => Some(BinOp::Le),
            BinOp::Ge => Some(BinOp::Lt),
            _ => None,
        }
    }

    /// Three-valued `l self r` for a comparison operator: UNKNOWN when either
    /// side is NULL or the two are incomparable.
    #[inline]
    pub fn compare(self, l: &Value, r: &Value) -> Option<bool> {
        l.sql_cmp(r).map(|ord| match self {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::Ne => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::Le => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            _ => ord != Ordering::Less,
        })
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
}

/// Scalar (the paper's "regular", §5.4) functions the executor evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    Abs,
    Round,
    Upper,
    Lower,
    Substr,
    Concat,
    Coalesce,
    /// `EXTRACT(YEAR FROM d)`.
    Year,
    Month,
    Day,
    /// `d + INTERVAL n DAY` (n is the second argument).
    DateAddDays,
    /// `d + INTERVAL n MONTH`.
    DateAddMonths,
    /// `d + INTERVAL n YEAR`.
    DateAddYears,
    /// `CAST(x AS DATE)` — identity on dates, parses strings.
    CastDate,
    /// `CAST(x AS CHAR)`.
    CastStr,
    /// `CAST(x AS SIGNED)`.
    CastInt,
    /// `CAST(x AS DOUBLE)`.
    CastDouble,
}

impl ScalarFunc {
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Round => "ROUND",
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Substr => "SUBSTR",
            ScalarFunc::Concat => "CONCAT",
            ScalarFunc::Coalesce => "COALESCE",
            ScalarFunc::Year => "YEAR",
            ScalarFunc::Month => "MONTH",
            ScalarFunc::Day => "DAY",
            ScalarFunc::DateAddDays => "DATE_ADD_DAYS",
            ScalarFunc::DateAddMonths => "DATE_ADD_MONTHS",
            ScalarFunc::DateAddYears => "DATE_ADD_YEARS",
            ScalarFunc::CastDate => "CAST_DATE",
            ScalarFunc::CastStr => "CAST_CHAR",
            ScalarFunc::CastInt => "CAST_SIGNED",
            ScalarFunc::CastDouble => "CAST_DOUBLE",
        }
    }
}

/// The six standard SQL aggregates of §5.2 (`COUNT` split into its two
/// flavours, star and expression).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
    StdDev,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::StdDev => "STDDEV",
        }
    }
}

/// A bound scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a query-table column, resolved through the row layout.
    Column(ColRef),
    /// Direct slot in the *current operator's* row — used only above
    /// aggregation/projection boundaries where the layout no longer applies.
    Slot(usize),
    /// Constant.
    Literal(Value),
    /// A bind parameter produced by statement fingerprinting: `index` is the
    /// slot in the statement's bind vector and `value` the currently bound
    /// constant. Planning peeks at the first-seen value, so estimation and
    /// access-path selection treat the node exactly like a literal; on a
    /// plan-cache hit [`Expr::rebind_params`] overwrites `value` in place.
    Param {
        index: usize,
        value: Value,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        input: Box<Expr>,
    },
    Func {
        func: ScalarFunc,
        args: Vec<Expr>,
    },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_: Option<Box<Expr>>,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// An aggregate call. Valid only below an aggregation operator; the
    /// refinement phase replaces it with a [`Expr::Slot`] above one.
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
}

/// Evaluation context: a *view* of the current concatenated row plus its
/// layout. The row is up to three borrowed segments laid end to end — an
/// outer binding's prefix, a left row and a right row — so a join can test
/// `(left, right)` under a correlated binding without first building the
/// concatenation. A slot is an offset into the concatenation, exactly as if
/// the segments had been copied into one row.
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    segs: [&'a [Value]; 3],
    pub layout: &'a Layout,
}

impl<'a> EvalCtx<'a> {
    /// The one-segment case: a contiguous row.
    pub fn new(row: &'a [Value], layout: &'a Layout) -> Self {
        EvalCtx { segs: [row, &[], &[]], layout }
    }

    /// A view of `prefix ++ left ++ right`; any segment may be empty.
    pub fn split(
        prefix: &'a [Value],
        left: &'a [Value],
        right: &'a [Value],
        layout: &'a Layout,
    ) -> Self {
        EvalCtx { segs: [prefix, left, right], layout }
    }

    /// The value at `slot` of the concatenated row. Panics when the slot is
    /// past the end, as indexing the concatenation would.
    #[inline]
    pub fn value(&self, slot: usize) -> &'a Value {
        let [a, b, c] = self.segs;
        if slot < a.len() {
            return &a[slot];
        }
        let slot = slot - a.len();
        if slot < b.len() {
            &b[slot]
        } else {
            &c[slot - b.len()]
        }
    }

    #[inline]
    fn column(&self, c: ColRef) -> Result<&'a Value> {
        match self.layout.slot(c.table, c.col) {
            Some(slot) => Ok(self.value(slot)),
            None => Err(Error::internal(format!(
                "column t{}.c{} not covered by layout (width {})",
                c.table,
                c.col,
                self.layout.width()
            ))),
        }
    }
}

impl Expr {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    pub fn col(table: usize, col: usize) -> Expr {
        Expr::Column(ColRef { table, col })
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    pub fn param(index: usize, value: Value) -> Expr {
        Expr::Param { index, value }
    }

    pub fn int(i: i64) -> Expr {
        Expr::Literal(Value::Int(i))
    }

    pub fn string(s: &str) -> Expr {
        Expr::Literal(Value::str(s))
    }

    pub fn binary(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(l), right: Box::new(r) }
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::binary(BinOp::Eq, l, r)
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::binary(BinOp::And, l, r)
    }

    pub fn or(l: Expr, r: Expr) -> Expr {
        Expr::binary(BinOp::Or, l, r)
    }

    /// Logical negation constructor (named for SQL's NOT, intentionally
    /// shadowing-adjacent to `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Unary { op: UnOp::Not, input: Box::new(e) }
    }

    /// Conjunction of all expressions; `TRUE` literal for an empty list.
    pub fn and_all(mut exprs: Vec<Expr>) -> Expr {
        match exprs.len() {
            0 => Expr::Literal(Value::Bool(true)),
            1 => exprs.pop().expect("len checked"),
            _ => {
                let mut it = exprs.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, Expr::and)
            }
        }
    }

    // ------------------------------------------------------------------
    // Analysis
    // ------------------------------------------------------------------

    /// Collect the query-table indexes this expression references.
    pub fn referenced_tables(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.insert(c.table);
            }
        });
        out
    }

    /// Collect all column references.
    pub fn referenced_columns(&self) -> BTreeSet<ColRef> {
        let mut out = BTreeSet::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.insert(*c);
            }
        });
        out
    }

    /// Whether any aggregate call appears in the tree.
    pub fn contains_agg(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Agg { .. }) {
                found = true;
            }
        });
        found
    }

    /// Whether the expression is a constant (no columns, slots, aggregates).
    /// Bind parameters count as constants: they carry a peeked value.
    pub fn is_const(&self) -> bool {
        let mut konst = true;
        self.walk(&mut |e| {
            if matches!(e, Expr::Column(_) | Expr::Slot(_) | Expr::Agg { .. }) {
                konst = false;
            }
        });
        konst
    }

    /// Constant, and not the NULL literal — safe to use as an index bound.
    pub fn is_non_null_const(&self) -> bool {
        self.is_const() && !matches!(self, Expr::Literal(v) if v.is_null())
    }

    /// Whether any bind parameter appears in the tree.
    pub fn contains_param(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Param { .. }) {
                found = true;
            }
        });
        found
    }

    /// Overwrite every bind parameter's value from the bind vector (the
    /// plan-cache hit path). Errors if a parameter's slot is out of range
    /// or a bind's type class differs from the peeked value the plan was
    /// compiled with — the fingerprint and the binds must come from the
    /// same parameterization pass, and fingerprints hash literal type
    /// tags, so either mismatch means the plan and the binds belong to
    /// different shapes. The caller treats the error as a cache
    /// invalidation and recompiles rather than serving a stale plan.
    pub fn rebind_params(&mut self, binds: &[Value]) -> Result<()> {
        match self {
            Expr::Param { index, value } => {
                let v = binds.get(*index).ok_or_else(|| {
                    Error::internal(format!(
                        "bind slot ${index} out of range ({} binds)",
                        binds.len()
                    ))
                })?;
                if std::mem::discriminant(v) != std::mem::discriminant(value) {
                    return Err(Error::internal(format!(
                        "bind slot ${index} type mismatch: plan compiled for {value:?}, \
                         bind is {v:?}"
                    )));
                }
                *value = v.clone();
                Ok(())
            }
            Expr::Column(_) | Expr::Slot(_) | Expr::Literal(_) => Ok(()),
            Expr::Binary { left, right, .. } => {
                left.rebind_params(binds)?;
                right.rebind_params(binds)
            }
            Expr::Unary { input, .. } => input.rebind_params(binds),
            Expr::Func { args, .. } => args.iter_mut().try_for_each(|a| a.rebind_params(binds)),
            Expr::Case { operand, branches, else_ } => {
                if let Some(o) = operand {
                    o.rebind_params(binds)?;
                }
                for (w, t) in branches {
                    w.rebind_params(binds)?;
                    t.rebind_params(binds)?;
                }
                if let Some(e) = else_ {
                    e.rebind_params(binds)?;
                }
                Ok(())
            }
            Expr::InList { expr, list, .. } => {
                expr.rebind_params(binds)?;
                list.iter_mut().try_for_each(|e| e.rebind_params(binds))
            }
            Expr::Like { expr, pattern, .. } => {
                expr.rebind_params(binds)?;
                pattern.rebind_params(binds)
            }
            Expr::Between { expr, low, high, .. } => {
                expr.rebind_params(binds)?;
                low.rebind_params(binds)?;
                high.rebind_params(binds)
            }
            Expr::Agg { arg, .. } => arg.as_deref_mut().map_or(Ok(()), |a| a.rebind_params(binds)),
        }
    }

    /// Split a conjunction into its top-level conjuncts.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary { op: BinOp::And, left, right } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            Expr::Literal(Value::Bool(true)) => vec![],
            other => vec![other],
        }
    }

    /// Split a disjunction into its top-level disjuncts.
    pub fn disjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary { op: BinOp::Or, left, right } => {
                let mut v = left.disjuncts();
                v.extend(right.disjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// For an OR, the expression every arm opens with — the leftmost leaf of
    /// each arm's AND spine, the first thing [`Expr::truth`] evaluates in it —
    /// when the arms' leads are all [identical](Expr::identical). Where that
    /// lead is FALSE, so is every arm, and so the OR.
    pub fn or_lead(&self) -> Option<&Expr> {
        // An OR below an OR holds more arms; an arm's lead is found down the
        // left edge of its ANDs only.
        fn arm_lead(arm: &Expr) -> Option<&Expr> {
            if let Expr::Binary { op: BinOp::Or, .. } = arm {
                return arm.or_lead();
            }
            let mut lead = arm;
            while let Expr::Binary { op: BinOp::And, left, .. } = lead {
                lead = left;
            }
            Some(lead)
        }
        let Expr::Binary { op: BinOp::Or, left, right } = self else { return None };
        let lead = arm_lead(left)?;
        arm_lead(right)?.identical(lead).then_some(lead)
    }

    /// Whether the two trees are the same expression: `==` with constants
    /// compared by type and bits. (`==` compares `Value`s numerically, so it
    /// calls `1`, `1.0` and `TRUE` equal, and `-0.0` equal to `0.0` — which
    /// `CAST`, `ABS` or `CONCAT` tell apart.)
    pub fn identical(&self, other: &Expr) -> bool {
        // `==` fixes the tree shape, so the two pre-order runs of constants
        // pair up one to one.
        fn constants(e: &Expr) -> Vec<&Value> {
            let mut out = Vec::new();
            e.walk(&mut |e| {
                if let Expr::Literal(v) | Expr::Param { value: v, .. } = e {
                    out.push(v);
                }
            });
            out
        }
        self == other
            && constants(self).into_iter().zip(constants(other)).all(|(a, b)| a.identical(b))
    }

    /// Pre-order immutable walk.
    pub fn walk<'e>(&'e self, f: &mut impl FnMut(&'e Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Slot(_) | Expr::Literal(_) | Expr::Param { .. } => {}
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { input, .. } => input.walk(f),
            Expr::Func { args, .. } => args.iter().for_each(|a| a.walk(f)),
            Expr::Case { operand, branches, else_ } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                list.iter().for_each(|e| e.walk(f));
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
        }
    }

    /// Bottom-up rewrite: children first, then the node itself.
    pub fn rewrite(self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let node = match self {
            Expr::Binary { op, left, right } => Expr::Binary {
                op,
                left: Box::new(left.rewrite(f)),
                right: Box::new(right.rewrite(f)),
            },
            Expr::Unary { op, input } => Expr::Unary { op, input: Box::new(input.rewrite(f)) },
            Expr::Func { func, args } => {
                Expr::Func { func, args: args.into_iter().map(|a| a.rewrite(f)).collect() }
            }
            Expr::Case { operand, branches, else_ } => Expr::Case {
                operand: operand.map(|o| Box::new(o.rewrite(f))),
                branches: branches.into_iter().map(|(w, t)| (w.rewrite(f), t.rewrite(f))).collect(),
                else_: else_.map(|e| Box::new(e.rewrite(f))),
            },
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: Box::new(expr.rewrite(f)),
                list: list.into_iter().map(|e| e.rewrite(f)).collect(),
                negated,
            },
            Expr::Like { expr, pattern, negated } => Expr::Like {
                expr: Box::new(expr.rewrite(f)),
                pattern: Box::new(pattern.rewrite(f)),
                negated,
            },
            Expr::Between { expr, low, high, negated } => Expr::Between {
                expr: Box::new(expr.rewrite(f)),
                low: Box::new(low.rewrite(f)),
                high: Box::new(high.rewrite(f)),
                negated,
            },
            Expr::Agg { func, arg, distinct } => {
                Expr::Agg { func, arg: arg.map(|a| Box::new(a.rewrite(f))), distinct }
            }
            leaf => leaf,
        };
        f(node)
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluate against a row. `Expr::Agg` is an error here — aggregation is
    /// an operator concern, not a scalar one. Every node kind that yields a
    /// truth value is answered by [`Expr::truth`]; the three-valued rules
    /// live there and nowhere else.
    pub fn eval(&self, ctx: EvalCtx<'_>) -> Result<Value> {
        match self {
            Expr::Column(_) | Expr::Slot(_) | Expr::Literal(_) | Expr::Param { .. } => {
                Ok(self.operand(ctx)?.into_owned())
            }
            Expr::Binary { op, left, right } if op.is_arithmetic() => {
                let l = left.operand(ctx)?;
                let r = right.operand(ctx)?;
                match op {
                    BinOp::Add => l.add(&r),
                    BinOp::Sub => l.sub(&r),
                    BinOp::Mul => l.mul(&r),
                    BinOp::Div => l.div(&r),
                    _ => l.rem(&r),
                }
            }
            Expr::Unary { op: UnOp::Neg, input } => input.operand(ctx)?.neg(),
            Expr::Func { func, args } => eval_func(*func, args, ctx),
            Expr::Case { operand, branches, else_ } => {
                let op_val = operand.as_ref().map(|o| o.operand(ctx)).transpose()?;
                for (when, then) in branches {
                    let hit = match &op_val {
                        Some(v) => v.sql_cmp(&*when.operand(ctx)?) == Some(Ordering::Equal),
                        None => when.truth(ctx)? == Some(true),
                    };
                    if hit {
                        return then.eval(ctx);
                    }
                }
                match else_ {
                    Some(e) => e.eval(ctx),
                    None => Ok(Value::Null),
                }
            }
            Expr::Binary { .. }
            | Expr::Unary { .. }
            | Expr::InList { .. }
            | Expr::Like { .. }
            | Expr::Between { .. } => Ok(match self.truth(ctx)? {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            }),
            Expr::Agg { func, .. } => Err(Error::internal(format!(
                "aggregate {} evaluated as a scalar; refinement should have replaced it",
                func.name()
            ))),
        }
    }

    /// Three-valued truth of the expression against a row — `Some(true)`,
    /// `Some(false)`, or `None` for UNKNOWN — equal to `eval(ctx)?.truth()`
    /// but without materialising a [`Value`]: AND / OR / NOT / comparisons /
    /// BETWEEN / IN / LIKE / IS NULL are decided here, over operands read by
    /// reference. This is what every predicate site calls.
    pub fn truth(&self, ctx: EvalCtx<'_>) -> Result<Option<bool>> {
        match self {
            Expr::Binary { op: BinOp::And, left, right } => {
                let l = left.truth(ctx)?;
                if l == Some(false) {
                    return Ok(Some(false));
                }
                Ok(and3(l, right.truth(ctx)?))
            }
            Expr::Binary { op: BinOp::Or, left, right } => {
                let l = left.truth(ctx)?;
                if l == Some(true) {
                    return Ok(Some(true));
                }
                Ok(or3(l, right.truth(ctx)?))
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                if let (Some(l), Some(r)) = (left.leaf(ctx), right.leaf(ctx)) {
                    return Ok(op.compare(l, r));
                }
                let l = left.operand(ctx)?;
                let r = right.operand(ctx)?;
                Ok(op.compare(&l, &r))
            }
            Expr::Unary { op: UnOp::Not, input } => Ok(not3(input.truth(ctx)?)),
            Expr::Unary { op: UnOp::IsNull, input } => Ok(Some(input.operand(ctx)?.is_null())),
            Expr::Unary { op: UnOp::IsNotNull, input } => Ok(Some(!input.operand(ctx)?.is_null())),
            Expr::InList { expr, list, negated } => {
                let v = expr.operand(ctx)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_cmp(&*item.operand(ctx)?) {
                        Some(Ordering::Equal) => return Ok(Some(!negated)),
                        None => saw_null = true,
                        Some(_) => {}
                    }
                }
                Ok(if saw_null { None } else { Some(*negated) })
            }
            Expr::Like { expr, pattern, negated } => {
                let v = expr.operand(ctx)?;
                let p = pattern.operand(ctx)?;
                Ok(match (v.as_str(), p.as_str()) {
                    (Some(s), Some(pat)) => {
                        Some(like_match(s.as_bytes(), pat.as_bytes()) != *negated)
                    }
                    _ => None,
                })
            }
            // `x BETWEEN lo AND hi` is `x >= lo AND x <= hi`: one decided
            // FALSE side decides the whole, whatever the other bound is.
            Expr::Between { expr, low, high, negated } => {
                let v = expr.operand(ctx)?;
                let lo = low.operand(ctx)?;
                let hi = high.operand(ctx)?;
                let ge = v.sql_cmp(&lo).map(|o| o != Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != Ordering::Greater);
                let within = and3(ge, le);
                Ok(if *negated { not3(within) } else { within })
            }
            // Everything else yields a value; its truth is the value's.
            _ => Ok(self.operand(ctx)?.truth()),
        }
    }

    /// A leaf's value by reference: a `Column` the layout covers, a `Slot`,
    /// a `Literal` or a `Param`. `None` for anything else (and for an
    /// uncovered column, whose error [`Expr::operand`] reports).
    #[inline]
    fn leaf<'a>(&'a self, ctx: EvalCtx<'a>) -> Option<&'a Value> {
        match self {
            Expr::Column(c) => ctx.layout.slot(c.table, c.col).map(|s| ctx.value(s)),
            Expr::Slot(i) => Some(ctx.value(*i)),
            Expr::Literal(v) | Expr::Param { value: v, .. } => Some(v),
            _ => None,
        }
    }

    /// The expression's value, borrowed when the node is a `Column` / `Slot`
    /// / `Literal` / `Param` leaf and computed otherwise.
    #[inline]
    fn operand<'a>(&'a self, ctx: EvalCtx<'a>) -> Result<Cow<'a, Value>> {
        match self {
            Expr::Column(c) => ctx.column(*c).map(Cow::Borrowed),
            Expr::Slot(i) => Ok(Cow::Borrowed(ctx.value(*i))),
            Expr::Literal(v) | Expr::Param { value: v, .. } => Ok(Cow::Borrowed(v)),
            other => other.eval(ctx).map(Cow::Owned),
        }
    }

    /// Pretty-print with a caller-provided column namer (used by EXPLAIN).
    pub fn display_with(&self, namer: &dyn Fn(ColRef) -> String) -> String {
        let mut s = String::new();
        self.fmt_with(&mut s, namer);
        s
    }

    fn fmt_with(&self, out: &mut String, namer: &dyn Fn(ColRef) -> String) {
        use std::fmt::Write;
        match self {
            Expr::Column(c) => out.push_str(&namer(*c)),
            Expr::Slot(i) => {
                let _ = write!(out, "#{i}");
            }
            Expr::Literal(Value::Str(s)) => {
                let _ = write!(out, "'{s}'");
            }
            Expr::Literal(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Param { index, .. } => {
                let _ = write!(out, "${index}");
            }
            Expr::Binary { op, left, right } => {
                out.push('(');
                left.fmt_with(out, namer);
                let _ = write!(out, " {} ", op.symbol());
                right.fmt_with(out, namer);
                out.push(')');
            }
            Expr::Unary { op, input } => match op {
                UnOp::Not => {
                    out.push_str("NOT ");
                    input.fmt_with(out, namer);
                }
                UnOp::Neg => {
                    out.push('-');
                    input.fmt_with(out, namer);
                }
                UnOp::IsNull => {
                    input.fmt_with(out, namer);
                    out.push_str(" IS NULL");
                }
                UnOp::IsNotNull => {
                    input.fmt_with(out, namer);
                    out.push_str(" IS NOT NULL");
                }
            },
            Expr::Func { func, args } => {
                out.push_str(func.name());
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.fmt_with(out, namer);
                }
                out.push(')');
            }
            Expr::Case { operand, branches, else_ } => {
                out.push_str("CASE");
                if let Some(o) = operand {
                    out.push(' ');
                    o.fmt_with(out, namer);
                }
                for (w, t) in branches {
                    out.push_str(" WHEN ");
                    w.fmt_with(out, namer);
                    out.push_str(" THEN ");
                    t.fmt_with(out, namer);
                }
                if let Some(e) = else_ {
                    out.push_str(" ELSE ");
                    e.fmt_with(out, namer);
                }
                out.push_str(" END");
            }
            Expr::InList { expr, list, negated } => {
                expr.fmt_with(out, namer);
                out.push_str(if *negated { " NOT IN (" } else { " IN (" });
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    e.fmt_with(out, namer);
                }
                out.push(')');
            }
            Expr::Like { expr, pattern, negated } => {
                expr.fmt_with(out, namer);
                out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
                pattern.fmt_with(out, namer);
            }
            Expr::Between { expr, low, high, negated } => {
                expr.fmt_with(out, namer);
                out.push_str(if *negated { " NOT BETWEEN " } else { " BETWEEN " });
                low.fmt_with(out, namer);
                out.push_str(" AND ");
                high.fmt_with(out, namer);
            }
            Expr::Agg { func, arg, distinct } => {
                if *func == AggFunc::CountStar {
                    out.push_str("COUNT(*)");
                } else {
                    out.push_str(func.name());
                    out.push('(');
                    if *distinct {
                        out.push_str("DISTINCT ");
                    }
                    if let Some(a) = arg {
                        a.fmt_with(out, namer);
                    }
                    out.push(')');
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_with(&|c| format!("t{}.c{}", c.table, c.col)))
    }
}

/// Three-valued AND: FALSE dominates, then UNKNOWN.
#[inline]
fn and3(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued OR: TRUE dominates, then UNKNOWN.
#[inline]
fn or3(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Three-valued NOT: UNKNOWN stays UNKNOWN.
#[inline]
fn not3(v: Option<bool>) -> Option<bool> {
    v.map(|b| !b)
}

fn eval_func(func: ScalarFunc, args: &[Expr], ctx: EvalCtx<'_>) -> Result<Value> {
    let need = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::semantic(format!("{} expects {n} args, got {}", func.name(), args.len())))
        }
    };
    match func {
        ScalarFunc::Coalesce => {
            for a in args {
                let v = a.eval(ctx)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::Concat => {
            let mut s = String::new();
            for a in args {
                let v = a.eval(ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                s.push_str(&v.to_string());
            }
            Ok(Value::str(s))
        }
        _ => {
            // Remaining functions have fixed arity with NULL-in → NULL-out.
            let arity = match func {
                ScalarFunc::Substr => 3,
                ScalarFunc::Round
                | ScalarFunc::DateAddDays
                | ScalarFunc::DateAddMonths
                | ScalarFunc::DateAddYears => 2,
                _ => 1,
            };
            need(arity)?;
            let mut vals = Vec::with_capacity(arity);
            for a in args {
                let v = a.eval(ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                vals.push(v);
            }
            eval_strict_func(func, &vals)
        }
    }
}

/// Functions whose arguments are all non-NULL by the time we get here.
fn eval_strict_func(func: ScalarFunc, vals: &[Value]) -> Result<Value> {
    let bad = || Error::semantic(format!("invalid argument types for {}", func.name()));
    match func {
        ScalarFunc::Abs => match &vals[0] {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Double(d) => Ok(Value::Double(d.abs())),
            _ => Err(bad()),
        },
        ScalarFunc::Round => {
            let x = vals[0].as_f64().ok_or_else(bad)?;
            let places = vals[1].as_i64().ok_or_else(bad)?;
            let m = 10f64.powi(places as i32);
            Ok(Value::Double((x * m).round() / m))
        }
        ScalarFunc::Upper => Ok(Value::str(vals[0].as_str().ok_or_else(bad)?.to_uppercase())),
        ScalarFunc::Lower => Ok(Value::str(vals[0].as_str().ok_or_else(bad)?.to_lowercase())),
        ScalarFunc::Substr => {
            let s = vals[0].as_str().ok_or_else(bad)?;
            // SQL SUBSTR is 1-based.
            let start = (vals[1].as_i64().ok_or_else(bad)?.max(1) - 1) as usize;
            let len = vals[2].as_i64().ok_or_else(bad)?.max(0) as usize;
            let sub: String = s.chars().skip(start).take(len).collect();
            Ok(Value::str(sub))
        }
        ScalarFunc::Year => match &vals[0] {
            Value::Date(d) => Ok(Value::Int(datetime::year_of(*d) as i64)),
            _ => Err(bad()),
        },
        ScalarFunc::Month => match &vals[0] {
            Value::Date(d) => Ok(Value::Int(datetime::month_of(*d) as i64)),
            _ => Err(bad()),
        },
        ScalarFunc::Day => match &vals[0] {
            Value::Date(d) => Ok(Value::Int(datetime::day_of(*d) as i64)),
            _ => Err(bad()),
        },
        ScalarFunc::DateAddDays => match (&vals[0], vals[1].as_i64()) {
            (Value::Date(d), Some(n)) => Ok(Value::Date(d + n as i32)),
            _ => Err(bad()),
        },
        ScalarFunc::DateAddMonths => match (&vals[0], vals[1].as_i64()) {
            (Value::Date(d), Some(n)) => Ok(Value::Date(datetime::add_months(*d, n as i32))),
            _ => Err(bad()),
        },
        ScalarFunc::DateAddYears => match (&vals[0], vals[1].as_i64()) {
            (Value::Date(d), Some(n)) => Ok(Value::Date(datetime::add_years(*d, n as i32))),
            _ => Err(bad()),
        },
        ScalarFunc::CastDate => match &vals[0] {
            Value::Date(d) => Ok(Value::Date(*d)),
            Value::Str(s) => Value::date(s),
            _ => Err(bad()),
        },
        ScalarFunc::CastStr => Ok(Value::str(vals[0].to_string())),
        ScalarFunc::CastInt => vals[0].as_i64().map(Value::Int).ok_or_else(bad),
        ScalarFunc::CastDouble => vals[0].as_f64().map(Value::Double).ok_or_else(bad),
        ScalarFunc::Coalesce | ScalarFunc::Concat => {
            unreachable!("variadic functions handled by caller")
        }
    }
}

/// Split join conditions into hash keys `(left expr, right expr)` — the
/// equalities with one side on each input, tables in `outer` not counting —
/// and the residual predicates.
pub fn split_hash_keys(
    on: &[Expr],
    left: &BTreeSet<usize>,
    right: &BTreeSet<usize>,
    outer: &BTreeSet<usize>,
) -> (Vec<(Expr, Expr)>, Vec<Expr>) {
    // true = left input, false = right input; None = mixed or neither.
    let side = |e: &Expr| -> Option<bool> {
        let local: Vec<usize> =
            e.referenced_tables().into_iter().filter(|t| !outer.contains(t)).collect();
        if local.is_empty() {
            return None;
        }
        if local.iter().all(|t| left.contains(t)) {
            Some(true)
        } else if local.iter().all(|t| right.contains(t)) {
            Some(false)
        } else {
            None
        }
    };
    let (mut keys, mut residual) = (Vec::new(), Vec::new());
    for c in on {
        if let Expr::Binary { op: BinOp::Eq, left: l, right: r } = c {
            match (side(l), side(r)) {
                (Some(true), Some(false)) => {
                    keys.push((l.as_ref().clone(), r.as_ref().clone()));
                    continue;
                }
                (Some(false), Some(true)) => {
                    keys.push((r.as_ref().clone(), l.as_ref().clone()));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c.clone());
    }
    (keys, residual)
}

/// The bounds an index range over column `col` of table `qt` takes from a
/// conjunct list, each `(value, inclusive)`, and the conjuncts it enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRange {
    pub lo: Option<(Expr, bool)>,
    pub hi: Option<(Expr, bool)>,
    pub consumed: Vec<Expr>,
}

/// The range `conjuncts` give column `col` of table `qt` — from `=`, `<`,
/// `<=`, `>`, `>=` against a constant and `BETWEEN` two constants — or
/// `None` when none bounds it. The first bound per side wins, and a conjunct
/// is consumed only when every bound it offers is used, so the others stay
/// filters. No two constants are ever compared, which keeps the rule sound
/// for the bind parameters of a cached plan. A NULL constant is refused: as
/// a bound it would sort before everything, where the comparison is UNKNOWN.
pub fn column_range(conjuncts: &[Expr], qt: usize, col: usize) -> Option<ColumnRange> {
    let is_col = |e: &Expr| matches!(e, Expr::Column(c) if c.table == qt && c.col == col);
    let mut range = ColumnRange { lo: None, hi: None, consumed: Vec::new() };
    for p in conjuncts {
        let (lo, hi) = match p {
            Expr::Binary { op, left, right } => {
                let (op, k) = if is_col(left) && right.is_non_null_const() {
                    (Some(*op), right.as_ref())
                } else if is_col(right) && left.is_non_null_const() {
                    (op.commutator(), left.as_ref())
                } else {
                    continue;
                };
                let k = |inclusive| Some((k.clone(), inclusive));
                match op {
                    Some(BinOp::Eq) => (k(true), k(true)),
                    Some(BinOp::Gt) => (k(false), None),
                    Some(BinOp::Ge) => (k(true), None),
                    Some(BinOp::Lt) => (None, k(false)),
                    Some(BinOp::Le) => (None, k(true)),
                    _ => continue,
                }
            }
            Expr::Between { expr, low, high, negated: false }
                if is_col(expr) && low.is_non_null_const() && high.is_non_null_const() =>
            {
                (Some((low.as_ref().clone(), true)), Some((high.as_ref().clone(), true)))
            }
            _ => continue,
        };
        let mut all_used = true;
        for (bound, side) in [(lo, &mut range.lo), (hi, &mut range.hi)] {
            match (bound, side.is_none()) {
                (Some(b), true) => *side = Some(b),
                (Some(_), false) => all_used = false,
                (None, _) => {}
            }
        }
        if all_used {
            range.consumed.push(p.clone());
        }
    }
    (range.lo.is_some() || range.hi.is_some()).then_some(range)
}

/// `this = other` in either orientation with `this` over table `qt` alone and
/// `other` free of it → `(this, other)`: a conjunct that can key `qt`.
pub fn eq_sides(p: &Expr, qt: usize) -> Option<(&Expr, &Expr)> {
    let Expr::Binary { op: BinOp::Eq, left, right } = p else { return None };
    // Whether an expression references `qt`, and whether any other table.
    let mentions = |e: &Expr| {
        let (mut this, mut other) = (false, false);
        e.walk(&mut |n| {
            if let Expr::Column(c) = n {
                *if c.table == qt { &mut this } else { &mut other } = true;
            }
        });
        (this, other)
    };
    [(left, right), (right, left)]
        .into_iter()
        .find(|(a, b)| mentions(a) == (true, false) && !mentions(b).0)
        .map(|(a, b)| (a.as_ref(), b.as_ref()))
}

/// `col(qt, c) = key` in either orientation, `key` free of `qt` → `(c, key)`:
/// a conjunct that can key an index column of `qt`.
pub fn eq_col_key(p: &Expr, qt: usize) -> Option<(usize, &Expr)> {
    match eq_sides(p, qt)? {
        (Expr::Column(c), key) => Some((c.col, key)),
        _ => None,
    }
}

/// Factor common conjuncts out of a disjunction:
/// `(a = b AND x) OR (a = b AND y)` → `(a = b) AND (x OR y)`.
///
/// This is the rewrite behind the paper's Q41 analysis (§6.2) and §7 item
/// 4: the factored-out equality can drive a hash join and is evaluated once
/// instead of once per OR arm. Applied recursively bottom-up; exact (every
/// disjunct must contain the common conjunct structurally).
pub fn factor_or(e: Expr) -> Expr {
    e.rewrite(&mut |node| match node {
        Expr::Binary { op: BinOp::Or, .. } => try_factor(node),
        other => other,
    })
}

fn try_factor(e: Expr) -> Expr {
    let disjuncts = e.clone().disjuncts();
    if disjuncts.len() < 2 {
        return e;
    }
    let arms: Vec<Vec<Expr>> = disjuncts.into_iter().map(|d| d.conjuncts()).collect();
    // Matched by `identical`: `==` would call `CAST(1)` and `CAST(1.0)` one.
    let has = |list: &[Expr], e: &Expr| list.iter().any(|c| c.identical(e));
    let mut common: Vec<Expr> = Vec::new();
    for cand in &arms[0] {
        if arms[1..].iter().all(|arm| has(arm, cand)) && !has(&common, cand) {
            common.push(cand.clone());
        }
    }
    if common.is_empty() {
        return e;
    }
    let mut residual_arms: Vec<Expr> = Vec::with_capacity(arms.len());
    let mut any_arm_empty = false;
    for arm in arms {
        let rest: Vec<Expr> = arm.into_iter().filter(|c| !has(&common, c)).collect();
        if rest.is_empty() {
            // An arm reduced to TRUE: the OR collapses to the common part.
            any_arm_empty = true;
            break;
        }
        residual_arms.push(Expr::and_all(rest));
    }
    let common_expr = Expr::and_all(common);
    if any_arm_empty {
        return common_expr;
    }
    let mut it = residual_arms.into_iter();
    let first = it.next().expect("len >= 2");
    let residual = it.fold(first, Expr::or);
    Expr::and(common_expr, residual)
}

/// SQL LIKE matching over bytes with `%` (any run) and `_` (any single byte).
/// Iterative two-pointer algorithm, O(n·m) worst case.
pub fn like_match(s: &[u8], pat: &[u8]) -> bool {
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_si) = (None::<usize>, 0usize);
    while si < s.len() {
        if pi < pat.len() && (pat[pi] == b'_' || pat[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < pat.len() && pat[pi] == b'%' {
            star = Some(pi);
            star_si = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_si += 1;
            si = star_si;
        } else {
            return false;
        }
    }
    while pi < pat.len() && pat[pi] == b'%' {
        pi += 1;
    }
    pi == pat.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Layout;

    fn ctx_one_table(row: &[Value]) -> (Vec<Value>, Layout) {
        (row.to_vec(), Layout::single(1, 0, row.len()))
    }

    #[test]
    fn column_resolution_through_layout() {
        let (row, layout) = ctx_one_table(&[Value::Int(10), Value::str("x")]);
        let e = Expr::col(0, 1);
        assert_eq!(e.eval(EvalCtx::new(&row, &layout)).unwrap(), Value::str("x"));
        // Missing table -> internal error, not a panic.
        let bad = Expr::col(0, 0);
        let empty_layout = Layout::empty(1);
        assert!(bad.eval(EvalCtx::new(&row, &empty_layout)).is_err());
    }

    #[test]
    fn arithmetic_and_comparison() {
        let (row, layout) = ctx_one_table(&[Value::Int(6)]);
        let ctx = EvalCtx::new(&row, &layout);
        let e = Expr::binary(BinOp::Mul, Expr::col(0, 0), Expr::int(7));
        assert_eq!(e.eval(ctx).unwrap(), Value::Int(42));
        let c = Expr::binary(BinOp::Gt, Expr::col(0, 0), Expr::int(5));
        assert!(c.eval(ctx).unwrap().is_true());
    }

    #[test]
    fn short_circuit_three_valued_logic() {
        let (row, layout) = ctx_one_table(&[Value::Null]);
        let ctx = EvalCtx::new(&row, &layout);
        let null_cmp = Expr::eq(Expr::col(0, 0), Expr::int(1));
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
        let f = Expr::lit(Value::Bool(false));
        let t = Expr::lit(Value::Bool(true));
        assert_eq!(Expr::and(null_cmp.clone(), f).eval(ctx).unwrap(), Value::Bool(false));
        assert_eq!(Expr::or(null_cmp.clone(), t.clone()).eval(ctx).unwrap(), Value::Bool(true));
        assert!(Expr::and(null_cmp, t).eval(ctx).unwrap().is_null());
    }

    #[test]
    fn in_list_null_semantics() {
        let (row, layout) = ctx_one_table(&[Value::Int(5)]);
        let ctx = EvalCtx::new(&row, &layout);
        let in5 = Expr::InList {
            expr: Box::new(Expr::col(0, 0)),
            list: vec![Expr::int(1), Expr::int(5)],
            negated: false,
        };
        assert!(in5.eval(ctx).unwrap().is_true());
        // 5 NOT IN (1, NULL) is NULL, not TRUE — classic SQL gotcha.
        let not_in = Expr::InList {
            expr: Box::new(Expr::col(0, 0)),
            list: vec![Expr::int(1), Expr::lit(Value::Null)],
            negated: true,
        };
        assert!(not_in.eval(ctx).unwrap().is_null());
    }

    #[test]
    fn like_matching() {
        assert!(like_match(b"Customer bla Complaints", b"%Customer%Complaints%"));
        assert!(like_match(b"LARGE BRUSHED TIN", b"LARGE BRUSHED%"));
        assert!(!like_match(b"SMALL BRUSHED TIN", b"LARGE BRUSHED%"));
        assert!(like_match(b"abc", b"a_c"));
        assert!(!like_match(b"abbc", b"a_c"));
        assert!(like_match(b"", b"%"));
        assert!(!like_match(b"", b"_"));
    }

    #[test]
    fn between_and_case() {
        let (row, layout) = ctx_one_table(&[Value::Int(25)]);
        let ctx = EvalCtx::new(&row, &layout);
        let btw = Expr::Between {
            expr: Box::new(Expr::col(0, 0)),
            low: Box::new(Expr::int(21)),
            high: Box::new(Expr::int(40)),
            negated: false,
        };
        assert!(btw.eval(ctx).unwrap().is_true());
        // `25 BETWEEN lo AND hi` is `25 >= lo AND 25 <= hi` in three-valued
        // logic: a NULL bound leaves the whole UNKNOWN only while the other
        // side holds; a side decided FALSE decides it, and NOT follows.
        let null = || Expr::lit(Value::Null);
        let table = [
            // (lo, hi, BETWEEN, NOT BETWEEN)
            (null(), Expr::int(40), None, None), // lo NULL, 25 <= 40 holds: undecided
            (null(), Expr::int(10), Some(false), Some(true)), // lo NULL, 25 <= 10 fails
            (Expr::int(21), null(), None, None), // hi NULL, 25 >= 21 holds: undecided
            (Expr::int(30), null(), Some(false), Some(true)), // hi NULL, 25 >= 30 fails
            (null(), null(), None, None),
        ];
        for (lo, hi, plain, negated) in table {
            for (neg, want) in [(false, plain), (true, negated)] {
                let e = Expr::Between {
                    expr: Box::new(Expr::col(0, 0)),
                    low: Box::new(lo.clone()),
                    high: Box::new(hi.clone()),
                    negated: neg,
                };
                assert_eq!(e.truth(ctx).unwrap(), want, "{e}");
                assert_eq!(e.eval(ctx).unwrap().truth(), want, "{e}");
            }
        }
        // The TPC-DS Q9-style bucket CASE.
        let case = Expr::Case {
            operand: None,
            branches: vec![(btw, Expr::string("bucket2"))],
            else_: Some(Box::new(Expr::string("other"))),
        };
        assert_eq!(case.eval(ctx).unwrap(), Value::str("bucket2"));
    }

    #[test]
    fn case_with_operand() {
        let (row, layout) = ctx_one_table(&[Value::Int(2)]);
        let ctx = EvalCtx::new(&row, &layout);
        let case = Expr::Case {
            operand: Some(Box::new(Expr::col(0, 0))),
            branches: vec![
                (Expr::int(1), Expr::string("one")),
                (Expr::int(2), Expr::string("two")),
            ],
            else_: None,
        };
        assert_eq!(case.eval(ctx).unwrap(), Value::str("two"));
    }

    #[test]
    fn conjunct_splitting() {
        let e = Expr::and(
            Expr::eq(Expr::col(0, 0), Expr::int(1)),
            Expr::and(
                Expr::eq(Expr::col(1, 0), Expr::int(2)),
                Expr::eq(Expr::col(2, 0), Expr::int(3)),
            ),
        );
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].referenced_tables().into_iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn or_lead_needs_identical_leads_at_every_arms_left_edge() {
        let g = Expr::eq(Expr::col(0, 0), Expr::col(1, 0));
        let arm =
            |lead: Expr, rest: i64| Expr::and(lead, Expr::eq(Expr::col(1, 1), Expr::int(rest)));
        // Three arms, nested either way, one of them `g` alone.
        let or3 = Expr::or(Expr::or(arm(g.clone(), 1), g.clone()), arm(g.clone(), 2));
        assert_eq!(or3.or_lead(), Some(&g));
        assert_eq!(Expr::or(arm(g.clone(), 1), Expr::or(g.clone(), g.clone())).or_lead(), Some(&g));
        // Shared only past the first position, or not an OR at all: no lead.
        let late = Expr::and(Expr::eq(Expr::col(1, 1), Expr::int(3)), g.clone());
        assert_eq!(Expr::or(arm(g.clone(), 1), late).or_lead(), None);
        assert_eq!(arm(g.clone(), 1).or_lead(), None);
        // `==` calls these leads equal; evaluation does not, so neither the
        // guard nor `factor_or` takes them for one expression.
        let cast = |v: Value| Expr::Func { func: ScalarFunc::CastStr, args: vec![Expr::lit(v)] };
        for (a, b) in [
            (Value::Int(1), Value::Double(1.0)),
            (Value::Int(1), Value::Bool(true)),
            (Value::Double(0.0), Value::Double(-0.0)),
        ] {
            assert_eq!(cast(a.clone()), cast(b.clone()));
            assert!(!cast(a.clone()).identical(&cast(b.clone())), "{a:?} vs {b:?}");
            assert_eq!(Expr::or(cast(a.clone()), cast(b.clone())).or_lead(), None);
            assert!(cast(a.clone()).identical(&cast(a.clone())));
            let or = Expr::or(arm(cast(a.clone()), 1), arm(cast(b), 2));
            assert!(factor_or(or.clone()).identical(&or), "{a:?} factored");
            let same = Expr::or(arm(cast(a.clone()), 1), arm(cast(a), 2));
            assert!(!factor_or(same.clone()).identical(&same));
        }
    }

    #[test]
    fn commutators_and_inverses() {
        assert_eq!(BinOp::Le.commutator(), Some(BinOp::Ge));
        assert_eq!(BinOp::Add.commutator(), Some(BinOp::Add));
        assert_eq!(BinOp::Sub.commutator(), None);
        assert_eq!(BinOp::Lt.inverse(), Some(BinOp::Ge));
        assert_eq!(BinOp::Add.inverse(), None);
        // Inverse is an involution on comparisons.
        for op in BinOp::CMP {
            assert_eq!(op.inverse().and_then(|o| o.inverse()), Some(op));
        }
    }

    #[test]
    fn analysis_helpers() {
        let e = Expr::and(
            Expr::eq(Expr::col(2, 0), Expr::col(0, 1)),
            Expr::binary(BinOp::Gt, Expr::col(2, 3), Expr::int(5)),
        );
        assert_eq!(e.referenced_tables().into_iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!e.contains_agg());
        assert!(!e.is_const());
        assert!(Expr::int(3).is_const());
        let agg =
            Expr::Agg { func: AggFunc::Sum, arg: Some(Box::new(Expr::col(0, 0))), distinct: false };
        assert!(agg.contains_agg());
    }

    #[test]
    fn date_functions() {
        let d = Value::date("1999-01-15").unwrap();
        let (row, layout) = ctx_one_table(&[d]);
        let ctx = EvalCtx::new(&row, &layout);
        let y = Expr::Func { func: ScalarFunc::Year, args: vec![Expr::col(0, 0)] };
        assert_eq!(y.eval(ctx).unwrap(), Value::Int(1999));
        let plus3m = Expr::Func {
            func: ScalarFunc::DateAddMonths,
            args: vec![Expr::col(0, 0), Expr::int(3)],
        };
        assert_eq!(plus3m.eval(ctx).unwrap().to_string(), "1999-04-15");
    }

    #[test]
    fn display_round_trip_style() {
        let e = Expr::and(
            Expr::eq(Expr::col(0, 0), Expr::string("Brand#14")),
            Expr::binary(BinOp::Lt, Expr::col(1, 2), Expr::int(10)),
        );
        assert_eq!(e.to_string(), "((t0.c0 = 'Brand#14') AND (t1.c2 < 10))");
    }

    #[test]
    fn params_behave_like_literals_until_rebound() {
        let (row, layout) = ctx_one_table(&[Value::Int(6)]);
        let ctx = EvalCtx::new(&row, &layout);
        let mut e = Expr::binary(BinOp::Gt, Expr::col(0, 0), Expr::param(0, Value::Int(5)));
        assert!(!e.is_const() && e.contains_param());
        assert!(Expr::param(0, Value::Int(5)).is_const());
        assert!(e.eval(ctx).unwrap().is_true());
        // Rebind to a larger bound: same tree, new comparison outcome.
        e.rebind_params(&[Value::Int(7)]).unwrap();
        assert!(!e.eval(ctx).unwrap().is_true());
        // Out-of-range slot is an internal error, not a panic.
        let mut bad = Expr::param(3, Value::Int(0));
        assert!(bad.rebind_params(&[Value::Int(1)]).is_err());
        assert_eq!(Expr::param(2, Value::Int(9)).to_string(), "$2");
    }

    #[test]
    fn rewrite_replaces_nodes() {
        let e = Expr::and(Expr::col(0, 0), Expr::col(1, 1));
        let rewritten = e.rewrite(&mut |node| match node {
            Expr::Column(c) if c.table == 0 => Expr::Slot(c.col),
            other => other,
        });
        assert_eq!(rewritten, Expr::and(Expr::Slot(0), Expr::col(1, 1)));
    }

    #[test]
    fn column_range_takes_the_first_bound_per_side() {
        let a = || Expr::col(0, 0);
        let cmp = |op, k| Expr::binary(op, a(), Expr::int(k));
        let between = |lo, hi| Expr::Between {
            expr: Box::new(a()),
            low: Box::new(lo),
            high: Box::new(hi),
            negated: false,
        };
        let bound = |k, inclusive| Some((Expr::int(k), inclusive));
        // `a < 5 AND a < 50`: the second bound is left to filter.
        let (lt5, lt50) = (cmp(BinOp::Lt, 5), cmp(BinOp::Lt, 50));
        let r = column_range(&[lt5.clone(), lt50], 0, 0).unwrap();
        assert_eq!((r.lo, r.hi, r.consumed), (None, bound(5, false), vec![lt5]));
        // `a = 7 AND a = 8`: the first equality bounds both sides.
        let (eq7, eq8) = (cmp(BinOp::Eq, 7), cmp(BinOp::Eq, 8));
        let r = column_range(&[eq7.clone(), eq8], 0, 0).unwrap();
        assert_eq!((r.lo, r.hi, r.consumed), (bound(7, true), bound(7, true), vec![eq7]));
        // `a >= 35 AND a BETWEEN 24 AND 54`: the BETWEEN gives the upper
        // bound only, so it stays a filter; either way round.
        let (ge35, btw) = (cmp(BinOp::Ge, 35), between(Expr::int(24), Expr::int(54)));
        let r = column_range(&[ge35.clone(), btw.clone()], 0, 0).unwrap();
        assert_eq!(
            (r.lo, r.hi, r.consumed),
            (bound(35, true), bound(54, true), vec![ge35.clone()])
        );
        let r = column_range(&[btw.clone(), ge35], 0, 0).unwrap();
        assert_eq!((r.lo, r.hi, r.consumed), (bound(24, true), bound(54, true), vec![btw]));
        // The constant on the left commutes: `10 > a` is `a < 10`.
        let r = column_range(&[Expr::binary(BinOp::Gt, Expr::int(10), a())], 0, 0).unwrap();
        assert_eq!((r.lo, r.hi), (None, bound(10, false)));
        // Another column, `<>`, and no conjunct at all bound nothing.
        assert_eq!(
            column_range(&[cmp(BinOp::Ne, 3), Expr::eq(Expr::col(0, 1), Expr::int(1))], 0, 0),
            None
        );
    }

    #[test]
    fn column_range_refuses_a_null_constant() {
        let null = || Expr::Literal(Value::Null);
        let gt_null = Expr::binary(BinOp::Gt, Expr::col(0, 0), null());
        let between_null = Expr::Between {
            expr: Box::new(Expr::col(0, 0)),
            low: Box::new(Expr::int(1)),
            high: Box::new(null()),
            negated: false,
        };
        assert_eq!(column_range(&[gt_null, between_null], 0, 0), None);
        // A bind parameter is a constant: it bounds, and is never compared.
        let p = Expr::binary(BinOp::Le, Expr::col(0, 0), Expr::param(0, Value::Int(3)));
        let r = column_range(
            &[p.clone(), Expr::binary(BinOp::Le, Expr::col(0, 0), Expr::int(1))],
            0,
            0,
        );
        assert_eq!(r.map(|r| r.consumed), Some(vec![p]));
    }

    #[test]
    fn eq_col_key_matches_a_column_against_a_key_free_of_its_table() {
        let e = Expr::eq(Expr::col(1, 2), Expr::col(0, 3));
        assert_eq!(eq_col_key(&e, 0), Some((3, &Expr::col(1, 2))));
        assert_eq!(eq_col_key(&e, 1), Some((2, &Expr::col(0, 3))));
        // A computed side keys no index column, but is still an equality side.
        let sum = Expr::binary(BinOp::Add, Expr::col(0, 0), Expr::int(1));
        let e = Expr::eq(sum.clone(), Expr::col(1, 0));
        assert_eq!(eq_col_key(&e, 0), None);
        assert_eq!(eq_sides(&e, 0), Some((&sum, &Expr::col(1, 0))));
        // Both sides on the same table key nothing.
        assert_eq!(eq_col_key(&Expr::eq(Expr::col(0, 0), Expr::col(0, 1)), 0), None);
    }
}
