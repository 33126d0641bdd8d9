//! Name resolution and the Prepare-phase rewrites (paper Fig 2).
//!
//! Turns a parsed [`taurus_sql::SelectStmt`] into a [`BoundStatement`]:
//!
//! * names resolve against the catalog and enclosing scopes (correlation);
//! * `EXISTS`/`IN` subqueries become semi joins, `NOT EXISTS`/`NOT IN`
//!   become anti joins (NULL-aware for an uncorrelated `NOT IN`) — the
//!   conversions §4.1 mentions MySQL performing before the converter runs;
//! * scalar subqueries become derived tables left-joined `ON TRUE`
//!   (converted to inner joins when a null-rejecting predicate allows — the
//!   blue conversion in the paper's Listing 7);
//! * each CTE *reference* expands to its own derived-table copy — MySQL's
//!   "multiple-producer-plans multiple-consumers" model (§4.2.3);
//! * constants fold (`DATE '1993-11-01' + INTERVAL 3 MONTH` becomes a
//!   date literal) and `NOT` pushes through comparisons using the operator
//!   inverses of §5.3.

use crate::bound::{
    BlockTable, BoundQuery, BoundStatement, JoinEntry, OutputCol, TableMeta, TableSource,
};
use std::collections::BTreeSet;
use taurus_catalog::estimate::const_value;
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};
use taurus_common::{AggFunc, BinOp, Expr, ScalarFunc, UnOp};
use taurus_sql::{
    AstExpr, Cte, IntervalUnit, JoinKind, QueryBlock, QueryExpr, SelectItem, SelectStmt, TableRef,
};

/// Resolve and prepare a statement whose body is a single query block.
/// (Top-level `UNION` is handled by the engine, which resolves each branch
/// separately — the way MySQL optimizes union branches independently.)
pub fn resolve_statement(catalog: &Catalog, stmt: &SelectStmt) -> Result<BoundStatement> {
    let mut r = Resolver {
        catalog,
        tables: Vec::new(),
        scopes: Vec::new(),
        cte_stack: Vec::new(),
        derived_count: 0,
    };
    let root = r.resolve_select(stmt)?;
    Ok(BoundStatement { root, tables: r.tables })
}

/// The per-branch resolution entry point used by the engine for unions:
/// resolves one block of a union with a shared statement-level context.
pub fn resolve_union_branches(
    catalog: &Catalog,
    stmt: &SelectStmt,
) -> Result<Vec<(BoundStatement, bool)>> {
    // Returns (branch, all) pairs left-to-right; `all` applies between a
    // branch and its predecessor.
    let mut out = Vec::new();
    collect_branches(&stmt.body, true, &mut |block_expr, all| {
        let branch_stmt = SelectStmt { ctes: stmt.ctes.clone(), body: block_expr.clone() };
        let bound = resolve_statement(catalog, &branch_stmt)?;
        out.push((bound, all));
        Ok(())
    })?;
    Ok(out)
}

fn collect_branches(
    qe: &QueryExpr,
    all: bool,
    f: &mut impl FnMut(&QueryExpr, bool) -> Result<()>,
) -> Result<()> {
    match qe {
        QueryExpr::SetOp { op: taurus_sql::SetOp::Union, all: a, left, right } => {
            collect_branches(left, all, f)?;
            collect_branches(right, *a, f)
        }
        QueryExpr::SetOp { op, .. } => Err(Error::semantic(format!(
            "{op:?} must be rewritten before resolution (MySQL does not support it; \
             see taurus_sql::rewrite)"
        ))),
        QueryExpr::Block(_) => f(qe, all),
    }
}

/// One visible table for name lookup.
#[derive(Debug, Clone)]
struct ScopeEntry {
    alias: String,
    qt: usize,
}

/// A name-resolution scope: the tables of one block under construction.
#[derive(Debug, Default)]
struct Scope {
    entries: Vec<ScopeEntry>,
}

struct Resolver<'a> {
    catalog: &'a Catalog,
    tables: Vec<TableMeta>,
    /// Innermost scope last.
    scopes: Vec<Scope>,
    /// CTE environment: visible definitions, innermost last. Subqueries
    /// anywhere in the statement can reference enclosing CTEs.
    cte_stack: Vec<Cte>,
    derived_count: usize,
}

/// How aggregates are treated while resolving an expression.
#[derive(Clone, Copy, PartialEq)]
enum AggMode {
    Forbidden,
    Allowed,
}

impl<'a> Resolver<'a> {
    // ------------------------------------------------------------- plumbing

    fn register_table(&mut self, meta: TableMeta) -> usize {
        self.tables.push(meta);
        self.tables.len() - 1
    }

    fn fresh_derived_label(&mut self, prefix: &str) -> String {
        self.derived_count += 1;
        format!("{prefix}_{}", self.derived_count)
    }

    /// Resolve a (possibly qualified) column name to a global ColRef,
    /// searching the innermost scope outward.
    fn resolve_name(&self, segs: &[String]) -> Result<Expr> {
        let (qualifier, col_name) = match segs.len() {
            1 => (None, segs[0].as_str()),
            2 => (Some(segs[0].as_str()), segs[1].as_str()),
            3 => (Some(segs[1].as_str()), segs[2].as_str()),
            n => return Err(Error::Resolution(format!("bad name with {n} segments"))),
        };
        for scope in self.scopes.iter().rev() {
            let mut hit: Option<(usize, usize)> = None;
            for entry in &scope.entries {
                if let Some(q) = qualifier {
                    if !entry.alias.eq_ignore_ascii_case(q) {
                        continue;
                    }
                }
                let meta = &self.tables[entry.qt];
                if let Some(ci) = meta.columns.iter().position(|c| c.eq_ignore_ascii_case(col_name))
                {
                    if let Some((prev_qt, _)) = hit {
                        if prev_qt != entry.qt {
                            return Err(Error::Resolution(format!(
                                "ambiguous column '{}'",
                                segs.join(".")
                            )));
                        }
                    }
                    hit = Some((entry.qt, ci));
                }
            }
            if let Some((qt, ci)) = hit {
                return Ok(Expr::col(qt, ci));
            }
            // With a qualifier that matches no table in this scope either,
            // keep searching outward (correlation).
        }
        Err(Error::Resolution(format!("unknown column '{}'", segs.join("."))))
    }

    // ------------------------------------------------------------ top level

    fn resolve_select(&mut self, stmt: &SelectStmt) -> Result<BoundQuery> {
        for cte in &stmt.ctes {
            if cte.recursive {
                return Err(Error::semantic(
                    "recursive CTEs are not supported by this engine (and are rejected by \
                     the Orca route, §4.1)",
                ));
            }
        }
        let depth = self.cte_stack.len();
        self.cte_stack.extend(stmt.ctes.iter().cloned());
        let result = match &stmt.body {
            QueryExpr::Block(b) => self.resolve_block(b),
            QueryExpr::SetOp { .. } => Err(Error::semantic(
                "set operations are only supported at the top level of a statement",
            )),
        };
        self.cte_stack.truncate(depth);
        result
    }

    fn resolve_block(&mut self, block: &QueryBlock) -> Result<BoundQuery> {
        self.scopes.push(Scope::default());
        let result = self.resolve_block_inner(block);
        self.scopes.pop();
        result
    }

    fn resolve_block_inner(&mut self, block: &QueryBlock) -> Result<BoundQuery> {
        // ---- FROM: register tables, collect join structure.
        let mut members: Vec<BlockTable> = Vec::new();
        // (member index, unresolved ON) for LEFT JOINs, resolved after all
        // FROM tables are in scope.
        let mut pending_on: Vec<(usize, AstExpr)> = Vec::new();
        let mut inner_on: Vec<AstExpr> = Vec::new();
        for tr in &block.from {
            self.flatten_table_ref(tr, &mut members, &mut pending_on, &mut inner_on)?;
        }
        // Snapshot: tables `SELECT *` expands over (semi-join tables added
        // later must not leak into the projection).
        let from_qts: Vec<usize> = members.iter().map(|m| m.qt).collect();

        // ---- Resolve deferred ON conditions.
        for (mi, on_ast) in pending_on {
            let on = self.resolve_conjuncts(&on_ast, AggMode::Forbidden)?;
            match &mut members[mi].entry {
                JoinEntry::LeftOuter { on: slot } => *slot = on,
                other => {
                    return Err(Error::internal(format!(
                        "pending ON for non-outer entry {other:?}"
                    )))
                }
            }
        }
        let mut predicates: Vec<Expr> = Vec::new();
        for on_ast in inner_on {
            predicates.extend(self.resolve_conjuncts(&on_ast, AggMode::Forbidden)?);
        }

        // ---- WHERE: split into conjuncts; convert subquery conjuncts.
        if let Some(w) = &block.where_clause {
            for conjunct in split_ast_conjuncts(w) {
                match conjunct {
                    AstExpr::Exists { query, negated } => {
                        self.convert_exists(query, *negated, &mut members)?;
                    }
                    AstExpr::InSubquery { expr, query, negated } => {
                        self.convert_in_subquery(expr, query, *negated, &mut members)?;
                    }
                    other => {
                        let e = self.resolve_expr(other, AggMode::Forbidden, &mut members)?;
                        predicates.extend(e.conjuncts());
                    }
                }
            }
        }

        // ---- SELECT.
        let mut select: Vec<OutputCol> = Vec::new();
        for item in &block.select {
            match item {
                SelectItem::Wildcard => {
                    for &qt in &from_qts {
                        let meta = self.tables[qt].clone();
                        for (ci, cname) in meta.columns.iter().enumerate() {
                            select.push(OutputCol { name: cname.clone(), expr: Expr::col(qt, ci) });
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.resolve_expr(expr, AggMode::Allowed, &mut members)?;
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        AstExpr::Name(segs) => segs.last().expect("nonempty").clone(),
                        _ => format!("col_{}", select.len()),
                    });
                    select.push(OutputCol { name, expr: bound });
                }
            }
        }

        // ---- GROUP BY (columns first, then select aliases).
        let mut group_by = Vec::new();
        for g in &block.group_by {
            group_by.push(self.resolve_maybe_alias(
                g,
                &select,
                AggMode::Forbidden,
                &mut members,
            )?);
        }

        // ---- HAVING / ORDER BY / LIMIT.
        let having = block
            .having
            .as_ref()
            .map(|h| self.resolve_maybe_alias(h, &select, AggMode::Allowed, &mut members))
            .transpose()?;
        let mut order_by = Vec::new();
        for item in &block.order_by {
            let e =
                self.resolve_maybe_alias(&item.expr, &select, AggMode::Allowed, &mut members)?;
            order_by.push((e, item.desc));
        }

        let mut bq = BoundQuery {
            members,
            predicates,
            select,
            group_by,
            having,
            order_by,
            limit: block.limit,
            distinct: block.distinct,
        };
        self.prepare_transformations(&mut bq);
        Ok(bq)
    }

    // -------------------------------------------------------------- FROM

    fn flatten_table_ref(
        &mut self,
        tr: &TableRef,
        members: &mut Vec<BlockTable>,
        pending_on: &mut Vec<(usize, AstExpr)>,
        inner_on: &mut Vec<AstExpr>,
    ) -> Result<BTreeSet<usize>> {
        match tr {
            TableRef::Base { name, alias } => {
                let display = alias.clone().unwrap_or_else(|| name.clone());
                // CTE reference? Each reference gets a fresh copy (§4.2.3).
                if let Some(pos) =
                    self.cte_stack.iter().rposition(|c| c.name.eq_ignore_ascii_case(name))
                {
                    let cte = self.cte_stack[pos].clone();
                    let label = self.fresh_derived_label(&format!("cte_{}", cte.name));
                    // The CTE body may reference only *earlier* definitions
                    // (non-recursive): bind it under the truncated stack.
                    let saved = std::mem::take(&mut self.cte_stack);
                    self.cte_stack = saved[..pos].to_vec();
                    let bind_result = self.bind_derived(&cte.query, display, label, {
                        let cols = cte.columns.clone();
                        move |names: &mut Vec<String>| {
                            if !cols.is_empty() {
                                names.clone_from(&cols);
                            }
                        }
                    });
                    self.cte_stack = saved;
                    let qt = bind_result?;
                    members.push(BlockTable { qt, entry: JoinEntry::Inner, deps: BTreeSet::new() });
                    return Ok(BTreeSet::from([qt]));
                }
                let table = self.catalog.table_by_name(name)?;
                let columns = table.schema().columns.iter().map(|c| c.name.clone()).collect();
                let qt = self.register_table(TableMeta {
                    display_name: display.clone(),
                    source: TableSource::Base { id: table.id },
                    columns,
                });
                self.scopes
                    .last_mut()
                    .expect("block scope pushed")
                    .entries
                    .push(ScopeEntry { alias: display, qt });
                members.push(BlockTable { qt, entry: JoinEntry::Inner, deps: BTreeSet::new() });
                Ok(BTreeSet::from([qt]))
            }
            TableRef::Derived { query, alias } => {
                let label = self.fresh_derived_label("derived");
                let qt = self.bind_derived(query, alias.clone(), label, |_| {})?;
                members.push(BlockTable { qt, entry: JoinEntry::Inner, deps: BTreeSet::new() });
                Ok(BTreeSet::from([qt]))
            }
            TableRef::Join { left, right, kind, on } => {
                let left_qts = self.flatten_table_ref(left, members, pending_on, inner_on)?;
                let before = members.len();
                let right_qts = self.flatten_table_ref(right, members, pending_on, inner_on)?;
                match kind {
                    JoinKind::Inner => {
                        if let Some(on) = on {
                            inner_on.push(on.clone());
                        }
                    }
                    JoinKind::Cross => {}
                    JoinKind::Left => {
                        if right_qts.len() != 1 || members.len() != before + 1 {
                            return Err(Error::semantic(
                                "LEFT JOIN right side must be a single table or derived table",
                            ));
                        }
                        let mi = members.len() - 1;
                        members[mi].entry = JoinEntry::LeftOuter { on: vec![] };
                        members[mi].deps.extend(left_qts.iter().copied());
                        if let Some(on) = on {
                            pending_on.push((mi, on.clone()));
                        }
                    }
                }
                Ok(left_qts.union(&right_qts).copied().collect())
            }
        }
    }

    /// Bind a derived table's inner query (under the current scope chain for
    /// correlation) and register it. `fix_columns` can override the output
    /// column names (explicit CTE column lists).
    fn bind_derived(
        &mut self,
        query: &SelectStmt,
        display: String,
        label: String,
        fix_columns: impl FnOnce(&mut Vec<String>),
    ) -> Result<usize> {
        let inner = self.resolve_select(query)?;
        let mut columns: Vec<String> = inner.select.iter().map(|o| o.name.clone()).collect();
        fix_columns(&mut columns);
        if columns.len() != inner.select.len() {
            return Err(Error::semantic(format!(
                "derived table '{display}' column list arity mismatch"
            )));
        }
        let correlated = !inner.outer_references().is_empty();
        let qt = self.register_table(TableMeta {
            display_name: display.clone(),
            source: TableSource::Derived { query: Box::new(inner), correlated, label },
            columns,
        });
        self.scopes
            .last_mut()
            .expect("block scope pushed")
            .entries
            .push(ScopeEntry { alias: display, qt });
        Ok(qt)
    }

    // --------------------------------------------------- subquery conversion

    /// `EXISTS (SELECT ... )` → semi/anti join (paper §4.1). Single-table,
    /// non-aggregating subqueries flatten directly (with the predicate
    /// segregation the paper describes); anything else becomes a correlated
    /// derived table joined semi/anti `ON TRUE`.
    fn convert_exists(
        &mut self,
        query: &SelectStmt,
        negated: bool,
        members: &mut Vec<BlockTable>,
    ) -> Result<()> {
        let flattable = matches!(&query.body, QueryExpr::Block(b)
            if query.ctes.is_empty()
                && b.from.len() == 1
                && matches!(b.from[0], TableRef::Base { .. })
                && b.group_by.is_empty()
                && b.having.is_none()
                && b.limit.is_none()
                && !b.distinct
                && !b.where_clause.as_ref().is_some_and(ast_has_subquery));
        if flattable {
            let b = match &query.body {
                QueryExpr::Block(b) => b,
                _ => unreachable!("checked above"),
            };
            // Register the inner table in the *current* block.
            let mut sub_members = Vec::new();
            let mut pend = Vec::new();
            let mut inner_on = Vec::new();
            self.flatten_table_ref(&b.from[0], &mut sub_members, &mut pend, &mut inner_on)?;
            let mut m = sub_members.pop().expect("single base table");
            let on = match &b.where_clause {
                Some(w) => self.resolve_conjuncts(w, AggMode::Forbidden)?,
                None => vec![],
            };
            // Dependencies: outer tables of this block referenced by the ON.
            let block_qts: BTreeSet<usize> = members.iter().map(|mm| mm.qt).collect();
            let mut deps = BTreeSet::new();
            for c in &on {
                for t in c.referenced_tables() {
                    if block_qts.contains(&t) {
                        deps.insert(t);
                    }
                }
            }
            m.deps = deps;
            m.entry = if negated {
                JoinEntry::Anti { on, null_aware: false }
            } else {
                JoinEntry::Semi { on }
            };
            // Remove the inner table's alias from the current scope: its
            // columns are not visible outside the EXISTS.
            let scope = self.scopes.last_mut().expect("scope");
            scope.entries.retain(|e| e.qt != m.qt);
            members.push(m);
            return Ok(());
        }
        // General form: correlated derived table, semi/anti ON TRUE.
        let label = self.fresh_derived_label("exists");
        let qt = self.bind_derived(query, label.clone(), label, |_| {})?;
        let scope = self.scopes.last_mut().expect("scope");
        scope.entries.retain(|e| e.qt != qt);
        let meta = &self.tables[qt];
        let deps = match &meta.source {
            TableSource::Derived { query, .. } => {
                let block_qts: BTreeSet<usize> = members.iter().map(|m| m.qt).collect();
                query.outer_references().intersection(&block_qts).copied().collect()
            }
            _ => BTreeSet::new(),
        };
        members.push(BlockTable {
            qt,
            entry: if negated {
                JoinEntry::Anti { on: vec![], null_aware: false }
            } else {
                JoinEntry::Semi { on: vec![] }
            },
            deps,
        });
        Ok(())
    }

    /// `x [NOT] IN (SELECT y ...)` → semi/anti join with `x = y` in the ON
    /// condition. `NOT IN` is NULL-aware (the nullability subtlety §4.1
    /// mentions) — except over a correlated WHERE, see below.
    fn convert_in_subquery(
        &mut self,
        lhs: &AstExpr,
        query: &SelectStmt,
        negated: bool,
        members: &mut Vec<BlockTable>,
    ) -> Result<()> {
        let lhs_bound = self.resolve_expr(lhs, AggMode::Forbidden, members)?;
        let flattable = matches!(&query.body, QueryExpr::Block(b)
            if query.ctes.is_empty()
                && b.from.len() == 1
                && matches!(b.from[0], TableRef::Base { .. })
                && b.group_by.is_empty()
                && b.having.is_none()
                && b.limit.is_none()
                && !b.distinct
                && b.select.len() == 1
                && !matches!(b.select[0], SelectItem::Wildcard)
                && !b.where_clause.as_ref().is_some_and(ast_has_subquery));
        let mut null_aware = negated;
        let (qt, mut on, deps) = if flattable {
            let b = match &query.body {
                QueryExpr::Block(b) => b,
                _ => unreachable!("checked above"),
            };
            let mut sub_members = Vec::new();
            let mut pend = Vec::new();
            let mut inner_on = Vec::new();
            self.flatten_table_ref(&b.from[0], &mut sub_members, &mut pend, &mut inner_on)?;
            let m = sub_members.pop().expect("single base table");
            let rhs = match &b.select[0] {
                SelectItem::Expr { expr, .. } => {
                    self.resolve_expr(expr, AggMode::Forbidden, members)?
                }
                SelectItem::Wildcard => unreachable!("checked above"),
            };
            let mut on = match &b.where_clause {
                Some(w) => self.resolve_conjuncts(w, AggMode::Forbidden)?,
                None => vec![],
            };
            let correlated = |c: &Expr| c.referenced_tables().iter().any(|&t| t != m.qt);
            if negated && on.iter().any(correlated) {
                // A NULL-aware anti join reads an UNKNOWN conjunct as
                // UNKNOWN membership, but an UNKNOWN correlation conjunct
                // only means the row is not in the subquery. So decide
                // membership in plain anti-join form: `x NOT IN (SELECT y
                // WHERE C)` keeps a row iff no row has C AND (x = y OR x IS
                // NULL OR y IS NULL). No disjunct is dropped for a column
                // declared NOT NULL: `x` may come from the NULL-extended
                // side of an outer join, and storage does not enforce it.
                let is_null = |e: Expr| Expr::Unary { op: UnOp::IsNull, input: Box::new(e) };
                let member = Expr::eq(lhs_bound.clone(), rhs.clone());
                let member = Expr::or(Expr::or(member, is_null(lhs_bound.clone())), is_null(rhs));
                on.push(member);
                null_aware = false;
            } else {
                on.push(Expr::eq(lhs_bound.clone(), rhs));
            }
            let scope = self.scopes.last_mut().expect("scope");
            scope.entries.retain(|e| e.qt != m.qt);
            (m.qt, on, BTreeSet::new())
        } else {
            let label = self.fresh_derived_label("insub");
            let qt = self.bind_derived(query, label.clone(), label, |_| {})?;
            let scope = self.scopes.last_mut().expect("scope");
            scope.entries.retain(|e| e.qt != qt);
            if self.tables[qt].columns.len() != 1 {
                return Err(Error::semantic("IN subquery must produce exactly one column"));
            }
            let deps = match &self.tables[qt].source {
                TableSource::Derived { query, .. } => {
                    let block_qts: BTreeSet<usize> = members.iter().map(|m| m.qt).collect();
                    query.outer_references().intersection(&block_qts).copied().collect()
                }
                _ => BTreeSet::new(),
            };
            (qt, vec![Expr::eq(lhs_bound.clone(), Expr::col(qt, 0))], deps)
        };
        // Dependencies from correlated ON references.
        let block_qts: BTreeSet<usize> = members.iter().map(|m| m.qt).collect();
        let mut all_deps = deps;
        for c in &on {
            for t in c.referenced_tables() {
                if block_qts.contains(&t) {
                    all_deps.insert(t);
                }
            }
        }
        // Fold constant conjuncts now so ON lists stay tidy.
        for c in &mut on {
            *c = fold_constants(std::mem::replace(c, Expr::int(0)));
        }
        members.push(BlockTable {
            qt,
            entry: if negated {
                JoinEntry::Anti { on, null_aware }
            } else {
                JoinEntry::Semi { on }
            },
            deps: all_deps,
        });
        Ok(())
    }

    // --------------------------------------------------------- expressions

    fn resolve_conjuncts(&mut self, e: &AstExpr, mode: AggMode) -> Result<Vec<Expr>> {
        let mut dummy = Vec::new();
        let bound = self.resolve_expr(e, mode, &mut dummy)?;
        if !dummy.is_empty() {
            return Err(Error::semantic(
                "subqueries are not allowed in ON conditions in this dialect",
            ));
        }
        Ok(bound.conjuncts())
    }

    /// Resolve with select-alias fallback (GROUP BY / HAVING / ORDER BY).
    fn resolve_maybe_alias(
        &mut self,
        e: &AstExpr,
        select: &[OutputCol],
        mode: AggMode,
        members: &mut Vec<BlockTable>,
    ) -> Result<Expr> {
        if let AstExpr::Name(segs) = e {
            if segs.len() == 1 {
                if let Some(out) = select.iter().find(|o| o.name.eq_ignore_ascii_case(&segs[0])) {
                    return Ok(out.expr.clone());
                }
            }
        }
        self.resolve_expr(e, mode, members)
    }

    fn resolve_expr(
        &mut self,
        e: &AstExpr,
        mode: AggMode,
        members: &mut Vec<BlockTable>,
    ) -> Result<Expr> {
        let bound = self.resolve_expr_inner(e, mode, members)?;
        Ok(fold_constants(push_not(bound)))
    }

    fn resolve_expr_inner(
        &mut self,
        e: &AstExpr,
        mode: AggMode,
        members: &mut Vec<BlockTable>,
    ) -> Result<Expr> {
        match e {
            AstExpr::Name(segs) => self.resolve_name(segs),
            AstExpr::Lit(v) => Ok(Expr::Literal(v.clone())),
            AstExpr::Param { index, value } => {
                Ok(Expr::Param { index: *index, value: value.clone() })
            }
            AstExpr::Interval { .. } => {
                Err(Error::semantic("INTERVAL literal is only valid as an operand of + or -"))
            }
            AstExpr::Binary { op, left, right } => {
                // DATE ± INTERVAL rewrites to the date functions.
                if let AstExpr::Interval { n, unit } = right.as_ref() {
                    if *op == BinOp::Add || *op == BinOp::Sub {
                        let date = self.resolve_expr_inner(left, mode, members)?;
                        let n = if *op == BinOp::Sub { -n } else { *n };
                        let func = match unit {
                            IntervalUnit::Day => ScalarFunc::DateAddDays,
                            IntervalUnit::Month => ScalarFunc::DateAddMonths,
                            IntervalUnit::Year => ScalarFunc::DateAddYears,
                        };
                        return Ok(Expr::Func { func, args: vec![date, Expr::int(n)] });
                    }
                }
                if let AstExpr::Interval { n, unit } = left.as_ref() {
                    if *op == BinOp::Add {
                        let date = self.resolve_expr_inner(right, mode, members)?;
                        let func = match unit {
                            IntervalUnit::Day => ScalarFunc::DateAddDays,
                            IntervalUnit::Month => ScalarFunc::DateAddMonths,
                            IntervalUnit::Year => ScalarFunc::DateAddYears,
                        };
                        return Ok(Expr::Func { func, args: vec![date, Expr::int(*n)] });
                    }
                }
                Ok(Expr::Binary {
                    op: *op,
                    left: Box::new(self.resolve_expr_inner(left, mode, members)?),
                    right: Box::new(self.resolve_expr_inner(right, mode, members)?),
                })
            }
            AstExpr::Not(inner) => Ok(Expr::not(self.resolve_expr_inner(inner, mode, members)?)),
            AstExpr::Neg(inner) => Ok(Expr::Unary {
                op: UnOp::Neg,
                input: Box::new(self.resolve_expr_inner(inner, mode, members)?),
            }),
            AstExpr::IsNull { expr, negated } => Ok(Expr::Unary {
                op: if *negated { UnOp::IsNotNull } else { UnOp::IsNull },
                input: Box::new(self.resolve_expr_inner(expr, mode, members)?),
            }),
            AstExpr::Func { name, args, distinct, star } => {
                self.resolve_func(name, args, *distinct, *star, mode, members)
            }
            AstExpr::Case { operand, branches, else_expr } => Ok(Expr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| Ok::<_, Error>(Box::new(self.resolve_expr_inner(o, mode, members)?)))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(w, t)| {
                        Ok((
                            self.resolve_expr_inner(w, mode, members)?,
                            self.resolve_expr_inner(t, mode, members)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?,
                else_: else_expr
                    .as_ref()
                    .map(|x| Ok::<_, Error>(Box::new(self.resolve_expr_inner(x, mode, members)?)))
                    .transpose()?,
            }),
            AstExpr::InList { expr, list, negated } => Ok(Expr::InList {
                expr: Box::new(self.resolve_expr_inner(expr, mode, members)?),
                list: list
                    .iter()
                    .map(|i| self.resolve_expr_inner(i, mode, members))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            }),
            AstExpr::Like { expr, pattern, negated } => Ok(Expr::Like {
                expr: Box::new(self.resolve_expr_inner(expr, mode, members)?),
                pattern: Box::new(self.resolve_expr_inner(pattern, mode, members)?),
                negated: *negated,
            }),
            AstExpr::Between { expr, low, high, negated } => Ok(Expr::Between {
                expr: Box::new(self.resolve_expr_inner(expr, mode, members)?),
                low: Box::new(self.resolve_expr_inner(low, mode, members)?),
                high: Box::new(self.resolve_expr_inner(high, mode, members)?),
                negated: *negated,
            }),
            AstExpr::Cast { expr, type_name } => {
                let func = match type_name.as_str() {
                    "DATE" => ScalarFunc::CastDate,
                    "CHAR" | "VARCHAR" => ScalarFunc::CastStr,
                    "SIGNED" | "INT" | "INTEGER" => ScalarFunc::CastInt,
                    "DOUBLE" | "FLOAT" | "DECIMAL" => ScalarFunc::CastDouble,
                    other => {
                        return Err(Error::semantic(format!("unsupported CAST target '{other}'")))
                    }
                };
                Ok(Expr::Func { func, args: vec![self.resolve_expr_inner(expr, mode, members)?] })
            }
            AstExpr::Extract { field, expr } => {
                let func = match field.as_str() {
                    "YEAR" => ScalarFunc::Year,
                    "MONTH" => ScalarFunc::Month,
                    "DAY" => ScalarFunc::Day,
                    other => {
                        return Err(Error::semantic(format!("unsupported EXTRACT field '{other}'")))
                    }
                };
                Ok(Expr::Func { func, args: vec![self.resolve_expr_inner(expr, mode, members)?] })
            }
            AstExpr::ScalarSubquery(query) => self.convert_scalar_subquery(query, members),
            AstExpr::Exists { .. } | AstExpr::InSubquery { .. } => Err(Error::semantic(
                "EXISTS/IN subqueries are only supported as top-level WHERE conjuncts",
            )),
        }
    }

    fn resolve_func(
        &mut self,
        name: &str,
        args: &[AstExpr],
        distinct: bool,
        star: bool,
        mode: AggMode,
        members: &mut Vec<BlockTable>,
    ) -> Result<Expr> {
        let agg = match name {
            "COUNT" if star => Some(AggFunc::CountStar),
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "STDDEV" | "STDDEV_POP" | "STD" => Some(AggFunc::StdDev),
            _ => None,
        };
        if let Some(func) = agg {
            if mode == AggMode::Forbidden {
                return Err(Error::semantic(format!(
                    "aggregate {name}() not allowed in this clause"
                )));
            }
            let arg = match (star, args.len()) {
                (true, _) => None,
                (false, 1) => {
                    // Aggregate arguments must not nest aggregates.
                    Some(Box::new(self.resolve_expr_inner(
                        &args[0],
                        AggMode::Forbidden,
                        members,
                    )?))
                }
                (false, n) => {
                    return Err(Error::semantic(format!("{name}() expects 1 argument, got {n}")))
                }
            };
            return Ok(Expr::Agg { func, arg, distinct });
        }
        let scalar = match name {
            "ABS" => ScalarFunc::Abs,
            "ROUND" => ScalarFunc::Round,
            "UPPER" => ScalarFunc::Upper,
            "LOWER" => ScalarFunc::Lower,
            "SUBSTR" | "SUBSTRING" => ScalarFunc::Substr,
            "CONCAT" => ScalarFunc::Concat,
            "COALESCE" => ScalarFunc::Coalesce,
            "YEAR" => ScalarFunc::Year,
            "MONTH" => ScalarFunc::Month,
            "DAY" | "DAYOFMONTH" => ScalarFunc::Day,
            other => return Err(Error::semantic(format!("unknown function '{other}'"))),
        };
        Ok(Expr::Func {
            func: scalar,
            args: args
                .iter()
                .map(|a| self.resolve_expr_inner(a, mode, members))
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// `(SELECT scalar)` → derived table left-joined `ON TRUE`, replaced by
    /// a reference to its single output column. Correlated subqueries (TPC-H
    /// Q17's `l_quantity < (SELECT AVG(...) WHERE l_partkey = p_partkey)`)
    /// carry dependency edges so the optimizer places them after the tables
    /// they're correlated on.
    fn convert_scalar_subquery(
        &mut self,
        query: &SelectStmt,
        members: &mut Vec<BlockTable>,
    ) -> Result<Expr> {
        let label = self.fresh_derived_label("derived_1");
        let qt = self.bind_derived(query, label.clone(), label, |_| {})?;
        // Not name-visible: only the returned reference uses it.
        let scope = self.scopes.last_mut().expect("scope");
        scope.entries.retain(|e| e.qt != qt);
        let meta = &self.tables[qt];
        if meta.columns.len() != 1 {
            return Err(Error::semantic("scalar subquery must produce exactly one column"));
        }
        let deps: BTreeSet<usize> = match &meta.source {
            TableSource::Derived { query, .. } => {
                let block_qts: BTreeSet<usize> = members.iter().map(|m| m.qt).collect();
                query.outer_references().intersection(&block_qts).copied().collect()
            }
            _ => BTreeSet::new(),
        };
        members.push(BlockTable { qt, entry: JoinEntry::LeftOuter { on: vec![] }, deps });
        Ok(Expr::col(qt, 0))
    }

    // ----------------------------------------------------------- prepare

    /// The remaining Prepare-phase simplifications on a bound block.
    fn prepare_transformations(&mut self, bq: &mut BoundQuery) {
        // Outer-join simplification: a null-rejecting WHERE predicate on the
        // inner side converts LEFT JOIN to INNER JOIN (paper Listing 7's
        // blue conversion). The ON conjuncts move into WHERE.
        let mut promoted: Vec<usize> = Vec::new();
        for (mi, m) in bq.members.iter().enumerate() {
            if let JoinEntry::LeftOuter { .. } = &m.entry {
                let rejecting = bq
                    .predicates
                    .iter()
                    .any(|p| p.referenced_tables().contains(&m.qt) && is_null_rejecting(p, m.qt));
                if rejecting {
                    promoted.push(mi);
                }
            }
        }
        for mi in promoted {
            let entry = std::mem::replace(&mut bq.members[mi].entry, JoinEntry::Inner);
            if let JoinEntry::LeftOuter { on } = entry {
                bq.predicates.extend(on);
            }
        }
    }
}

/// Whether an AST expression contains any subquery node (EXISTS/IN/scalar).
fn ast_has_subquery(e: &AstExpr) -> bool {
    match e {
        AstExpr::Exists { .. } | AstExpr::InSubquery { .. } | AstExpr::ScalarSubquery(_) => true,
        AstExpr::Name(_) | AstExpr::Lit(_) | AstExpr::Param { .. } | AstExpr::Interval { .. } => {
            false
        }
        AstExpr::Binary { left, right, .. } => ast_has_subquery(left) || ast_has_subquery(right),
        AstExpr::Not(x) | AstExpr::Neg(x) => ast_has_subquery(x),
        AstExpr::IsNull { expr, .. } => ast_has_subquery(expr),
        AstExpr::Func { args, .. } => args.iter().any(ast_has_subquery),
        AstExpr::Case { operand, branches, else_expr } => {
            operand.as_deref().is_some_and(ast_has_subquery)
                || branches.iter().any(|(w, t)| ast_has_subquery(w) || ast_has_subquery(t))
                || else_expr.as_deref().is_some_and(ast_has_subquery)
        }
        AstExpr::InList { expr, list, .. } => {
            ast_has_subquery(expr) || list.iter().any(ast_has_subquery)
        }
        AstExpr::Like { expr, pattern, .. } => ast_has_subquery(expr) || ast_has_subquery(pattern),
        AstExpr::Between { expr, low, high, .. } => {
            ast_has_subquery(expr) || ast_has_subquery(low) || ast_has_subquery(high)
        }
        AstExpr::Cast { expr, .. } | AstExpr::Extract { expr, .. } => ast_has_subquery(expr),
    }
}

/// Split an AST expression into top-level AND conjuncts.
fn split_ast_conjuncts(e: &AstExpr) -> Vec<&AstExpr> {
    match e {
        AstExpr::Binary { op: BinOp::And, left, right } => {
            let mut v = split_ast_conjuncts(left);
            v.extend(split_ast_conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// Fold constant subtrees into literals (Prepare-phase simplification;
/// `DATE '1993-11-01' + INTERVAL 3 MONTH` becomes `DATE '1994-02-01'`).
///
/// Subtrees containing a bind parameter are left unfolded even though they
/// are constant: folding would bake the peeked value into a plain literal
/// and silently break plan-cache re-binding. The executor evaluates them
/// per query instead — the price of serving the plan many times.
pub fn fold_constants(e: Expr) -> Expr {
    e.rewrite(&mut |node| {
        if matches!(node, Expr::Literal(_)) || !node.is_const() || node.contains_param() {
            return node;
        }
        match const_value(&node) {
            Some(v) => Expr::Literal(v),
            None => node,
        }
    })
}

/// Push NOT through comparisons using the §5.3 inverse operators
/// (`NOT (a < b)` → `a >= b`) and eliminate double negation.
pub fn push_not(e: Expr) -> Expr {
    e.rewrite(&mut |node| match node {
        Expr::Unary { op: UnOp::Not, input } => match *input {
            Expr::Binary { op, left, right } if op.inverse().is_some() => {
                Expr::Binary { op: op.inverse().expect("checked"), left, right }
            }
            Expr::Unary { op: UnOp::Not, input: inner } => *inner,
            Expr::Unary { op: UnOp::IsNull, input: inner } => {
                Expr::Unary { op: UnOp::IsNotNull, input: inner }
            }
            Expr::Unary { op: UnOp::IsNotNull, input: inner } => {
                Expr::Unary { op: UnOp::IsNull, input: inner }
            }
            other => Expr::not(other),
        },
        other => other,
    })
}

/// Whether `e` necessarily evaluates to NULL on a row where every column of
/// table `qt` is NULL (i.e. it reaches a `qt` column only through
/// NULL-propagating operators). `COALESCE` and `CASE` can absorb a NULL and
/// produce a non-NULL value, so anything routed through them is not strict.
fn is_strict_on(e: &Expr, qt: usize) -> bool {
    match e {
        Expr::Column(c) => c.table == qt,
        Expr::Binary { op, left, right } if op.is_comparison() || op.is_arithmetic() => {
            is_strict_on(left, qt) || is_strict_on(right, qt)
        }
        Expr::Unary { op: UnOp::Neg, input } => is_strict_on(input, qt),
        Expr::Func { func: ScalarFunc::Coalesce, .. } => false,
        Expr::Func { args, .. } => args.iter().any(|a| is_strict_on(a, qt)),
        _ => false,
    }
}

/// Whether predicate `p` rejects NULL-extended rows of table `qt` (it is
/// never TRUE when the table's columns are all NULL). Conservative
/// approximation: the compared value must reach a `qt` column through a
/// strict (NULL-propagating) expression — `COALESCE(t.x, 1) = 1` is TRUE on
/// a NULL-extended row and must not count.
fn is_null_rejecting(p: &Expr, qt: usize) -> bool {
    match p {
        Expr::Binary { op, left, right } if op.is_comparison() || op.is_arithmetic() => {
            is_strict_on(left, qt) || is_strict_on(right, qt)
        }
        Expr::Binary { op: BinOp::And, left, right } => {
            is_null_rejecting(left, qt) || is_null_rejecting(right, qt)
        }
        Expr::Between { expr, .. } => is_strict_on(expr, qt),
        Expr::InList { expr, negated: false, .. } => is_strict_on(expr, qt),
        Expr::Like { expr, .. } => is_strict_on(expr, qt),
        Expr::Unary { op: UnOp::IsNotNull, input } => is_strict_on(input, qt),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{Column, DataType, Schema};
    use taurus_sql::parser::parse_select;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let orders = cat
            .create_table(
                "orders",
                Schema::new(vec![
                    Column::new("o_orderkey", DataType::Int),
                    Column::new("o_orderdate", DataType::Date),
                    Column::new("o_orderpriority", DataType::Str),
                    Column::nullable("o_custkey", DataType::Int),
                ]),
            )
            .unwrap();
        cat.create_index(orders, "o_pk", vec![0], true).unwrap();
        let lineitem = cat
            .create_table(
                "lineitem",
                Schema::new(vec![
                    Column::new("l_orderkey", DataType::Int),
                    Column::new("l_quantity", DataType::Double),
                    Column::new("l_partkey", DataType::Int),
                ]),
            )
            .unwrap();
        cat.create_index(lineitem, "l_fk", vec![0], false).unwrap();
        cat.create_table(
            "part",
            Schema::new(vec![
                Column::new("p_partkey", DataType::Int),
                Column::new("p_brand", DataType::Str),
            ]),
        )
        .unwrap();
        cat
    }

    fn bind(sql: &str) -> BoundStatement {
        let cat = catalog();
        resolve_statement(&cat, &parse_select(sql).unwrap()).unwrap()
    }

    #[test]
    fn basic_binding() {
        let b = bind("SELECT o_orderkey, o_orderpriority AS pri FROM orders WHERE o_orderkey > 5");
        assert_eq!(b.tables.len(), 1);
        assert_eq!(b.root.members.len(), 1);
        assert_eq!(b.root.select[0].name, "o_orderkey");
        assert_eq!(b.root.select[1].name, "pri");
        assert_eq!(b.root.predicates.len(), 1);
        assert_eq!(b.root.predicates[0].to_string(), "(t0.c0 > 5)");
    }

    #[test]
    fn qualified_and_aliased_names() {
        let b =
            bind("SELECT o.o_orderkey FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey");
        assert_eq!(b.tables.len(), 2);
        assert_eq!(b.root.predicates[0].to_string(), "(t0.c0 = t1.c0)");
    }

    #[test]
    fn unknown_and_ambiguous_names_error() {
        let cat = catalog();
        let e = resolve_statement(&cat, &parse_select("SELECT nope FROM orders").unwrap());
        assert!(matches!(e, Err(Error::Resolution(_))));
        // o_orderkey/l_orderkey are distinct, but joining orders twice makes
        // o_orderkey ambiguous.
        let e = resolve_statement(
            &cat,
            &parse_select("SELECT o_orderkey FROM orders a, orders b").unwrap(),
        );
        assert!(matches!(e, Err(Error::Resolution(_))));
    }

    #[test]
    fn exists_becomes_semi_join_with_predicate_segregation() {
        // TPC-H Q4 pattern (paper Listings 2-4).
        let b = bind(
            "SELECT o_orderpriority, COUNT(*) AS order_count FROM orders \
             WHERE o_orderdate >= DATE '1993-11-01' \
             AND EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity < 24) \
             GROUP BY o_orderpriority ORDER BY o_orderpriority",
        );
        assert_eq!(b.root.members.len(), 2);
        let semi = &b.root.members[1];
        match &semi.entry {
            JoinEntry::Semi { on } => {
                // Both the correlation predicate and the local predicate are
                // in the ON list (refinement pushes the local one down — the
                // paper's predicate segregation, §4.1).
                assert_eq!(on.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(semi.deps.iter().copied().collect::<Vec<_>>(), vec![0]);
        // The date predicate stayed in WHERE, folded to a literal.
        assert_eq!(b.root.predicates.len(), 1);
        assert!(b.root.predicates[0].to_string().contains("1993-11-01"));
    }

    #[test]
    fn not_in_becomes_null_aware_anti_join() {
        let b = bind(
            "SELECT p_partkey FROM part WHERE p_partkey NOT IN \
             (SELECT l_partkey FROM lineitem WHERE l_quantity > 40)",
        );
        let anti = &b.root.members[1];
        match &anti.entry {
            JoinEntry::Anti { on, null_aware } => {
                assert!(*null_aware);
                assert_eq!(on.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scalar_subquery_becomes_derived_left_join_then_inner() {
        // TPC-H Q17 pattern: the comparison is null-rejecting, so the
        // prepare phase converts LEFT to INNER (paper Listing 7, blue).
        let b = bind(
            "SELECT SUM(l_quantity) FROM lineitem, part WHERE p_partkey = l_partkey \
             AND l_quantity < (SELECT AVG(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)",
        );
        assert_eq!(b.root.members.len(), 3);
        let derived = &b.root.members[2];
        assert!(derived.entry.is_inner(), "LOJ promoted to inner by null-rejecting <");
        let meta = &b.tables[derived.qt];
        assert!(meta.is_correlated_derived());
        // Depends on part (qt 1) via the correlation.
        assert_eq!(derived.deps.iter().copied().collect::<Vec<_>>(), vec![1]);
        // The comparison references the derived column.
        assert!(b.root.predicates.iter().any(|p| p.referenced_tables().contains(&derived.qt)));
    }

    #[test]
    fn left_join_binds_with_deps() {
        let b = bind(
            "SELECT o_orderkey FROM orders LEFT OUTER JOIN lineitem ON l_orderkey = o_orderkey",
        );
        let loj = &b.root.members[1];
        assert!(matches!(&loj.entry, JoinEntry::LeftOuter { on } if on.len() == 1));
        assert_eq!(loj.deps.iter().copied().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn left_join_promotes_on_null_rejecting_where() {
        let b = bind(
            "SELECT o_orderkey FROM orders LEFT JOIN lineitem ON l_orderkey = o_orderkey \
             WHERE l_quantity > 5",
        );
        assert!(b.root.members[1].entry.is_inner());
        // ON condition moved into WHERE.
        assert_eq!(b.root.predicates.len(), 2);
    }

    #[test]
    fn cte_references_get_separate_copies() {
        let b = bind(
            "WITH big AS (SELECT o_orderkey AS k FROM orders WHERE o_orderkey > 100) \
             SELECT a.k FROM big a, big b WHERE a.k = b.k",
        );
        // Two derived copies, one per reference (§4.2.3).
        assert_eq!(b.tables.len(), 4); // 2 copies + 2 inner orders tables
        let deriveds: Vec<_> =
            b.tables.iter().filter(|t| matches!(t.source, TableSource::Derived { .. })).collect();
        assert_eq!(deriveds.len(), 2);
    }

    #[test]
    fn recursive_cte_rejected() {
        let cat = catalog();
        let stmt =
            parse_select("WITH RECURSIVE r AS (SELECT o_orderkey FROM orders) SELECT * FROM r")
                .unwrap();
        assert!(resolve_statement(&cat, &stmt).is_err());
    }

    #[test]
    fn constant_folding_dates() {
        let b = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1993-11-01' + INTERVAL 3 MONTH",
        );
        // Folded to a date literal at prepare time (Listing 3 shows MySQL
        // leaving it syntactic; we fold like the optimizer eventually must).
        assert_eq!(b.root.predicates[0].to_string(), "(t0.c1 < 1994-02-01)");
    }

    #[test]
    fn not_pushes_through_comparisons() {
        let b = bind("SELECT o_orderkey FROM orders WHERE NOT (o_orderkey < 10)");
        assert_eq!(b.root.predicates[0].to_string(), "(t0.c0 >= 10)");
    }

    #[test]
    fn order_by_alias_resolves_to_select_expr() {
        let b = bind(
            "SELECT o_orderpriority, COUNT(*) AS total FROM orders GROUP BY o_orderpriority \
             ORDER BY total DESC",
        );
        assert!(b.root.order_by[0].0.contains_agg());
        assert!(b.root.order_by[0].1);
    }

    #[test]
    fn aggregates_forbidden_in_where() {
        let cat = catalog();
        let stmt = parse_select("SELECT o_orderkey FROM orders WHERE COUNT(*) > 1").unwrap();
        assert!(resolve_statement(&cat, &stmt).is_err());
    }

    #[test]
    fn wildcard_expands_from_tables_only() {
        let b = bind(
            "SELECT * FROM part WHERE EXISTS (SELECT * FROM lineitem WHERE l_partkey = p_partkey)",
        );
        // part has 2 columns; lineitem's must not leak into the output.
        assert_eq!(b.root.select.len(), 2);
        assert_eq!(b.root.members.len(), 2);
    }

    #[test]
    fn semi_join_table_not_name_visible() {
        let cat = catalog();
        let stmt = parse_select(
            "SELECT l_quantity FROM part WHERE EXISTS (SELECT * FROM lineitem WHERE l_partkey = p_partkey)",
        )
        .unwrap();
        // l_quantity is inside the EXISTS only; selecting it outside fails.
        // (SELECT list resolves after WHERE conversion, so this guards the
        // scope cleanup.)
        assert!(resolve_statement(&cat, &stmt).is_err());
    }

    #[test]
    fn derived_table_in_from() {
        let b = bind(
            "SELECT d.k FROM (SELECT o_orderkey AS k FROM orders WHERE o_orderkey < 5) AS d \
             WHERE d.k > 1",
        );
        assert_eq!(b.root.members.len(), 1);
        let meta = &b.tables[b.root.members[0].qt];
        assert!(matches!(&meta.source, TableSource::Derived { correlated: false, .. }));
        assert_eq!(meta.columns, vec!["k".to_string()]);
    }
}
