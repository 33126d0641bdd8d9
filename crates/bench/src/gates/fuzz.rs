//! Differential correctness fuzzer (DESIGN.md §12).
//!
//! A seeded, deterministic random query generator over the TPC-H and
//! TPC-DS schemas plus an adversarial synthetic schema (NULL-heavy
//! columns, an empty table, a single-row table, duplicate keys), driven
//! through eight differential oracles:
//!
//! 1. **native-vs-orca** — the mylite-native plan and the Orca-routed
//!    plan must agree on the result multiset (and on sortedness / top-k
//!    keys when ORDER BY / LIMIT are present);
//! 2. **serial-vs-parallel** — dop ∈ {2, 4, 8} must be byte-identical to
//!    the serial run, in order (the GatherMerge contract from PR 3);
//! 3. **fresh-vs-rebound** — a plan-cache hit re-bound to new literals
//!    must return what a fresh compile of the same text returns;
//! 4. **TLP** — ternary logic partitioning: `Q` ≡ `Q WHERE p` ⊎
//!    `Q WHERE NOT p` ⊎ `Q WHERE (p) IS NULL` for any predicate `p`;
//! 5. **cancel-recover** — cancel the statement at a statement-derived
//!    governor check count, then serve it again at once: the cancelled
//!    run must surface only `Error::Cancelled`, and the immediate re-run
//!    must return the exact cached-plan answer (no poisoned plan cache,
//!    no wedged workers);
//! 6. **feedback** — with the re-optimization threshold dropped to ~1, a
//!    first instrumented serve folds its observed cardinalities and the
//!    second serve recompiles with them injected: the re-optimized plan
//!    must return exactly what the static plan returned (cardinality
//!    feedback may change the plan, never the answer);
//! 7. **concurrent-sessions** — two session threads interleaving the same
//!    cached statement pair over the shared engine must each see the
//!    single-session reference answer on every serve (in-place rebinds
//!    racing concurrent hits of the sharded cache must never tear);
//! 8. **orders** — for ORDER BY / GROUP BY-carrying queries, the
//!    enforcer-elimination plan (`order_opt` on) at dop ∈ {1, 4, 8} must
//!    be byte-identical, in order, to the always-enforce plan
//!    (`order_opt` off): a dropped Sort is only legal when it would have
//!    been the identity, so order optimization may never change bytes.
//!
//! Every miscompare is shrunk by a delta-debugging minimizer (clause and
//! join removal to a fixpoint) before being reported, so a gate failure
//! prints a small repro, not a four-way join soup.
//!
//! Determinism: all randomness flows from the seed through the in-repo
//! [`SmallRng`]. Structural decisions and literal values draw from two
//! separate streams so oracle 3 can re-render the same statement shape
//! with different literals (same fingerprint, different binds).

use mylite::engine::CostBasedOptimizer;
use mylite::plancache::CacheOutcome;
use mylite::{Engine, MySqlOptimizer};
use orcalite::OrcaConfig;
use std::cmp::Ordering;
use taurus_bridge::OrcaOptimizer;
use taurus_catalog::stats::AnalyzeOptions;
use taurus_catalog::Catalog;
use taurus_common::error::Error;
use taurus_common::{Column, DataType, Row, Schema, Value};
use taurus_workloads::gen::SmallRng;
use taurus_workloads::{tpcds, tpch, Scale};

use crate::plumbing::{canon_row, canon_rows, md_table};
use crate::registry::{Env, Outcome};

// ------------------------------------------------------------------ schema

/// One table as the generator sees it: name plus typed columns.
#[derive(Clone, Debug)]
pub struct TableInfo {
    pub name: String,
    pub cols: Vec<(String, DataType)>,
}

/// Introspect an engine's catalog into generator metadata.
pub fn schema_of(engine: &Engine) -> Vec<TableInfo> {
    engine
        .catalog()
        .tables()
        .iter()
        .map(|t| TableInfo {
            name: t.name.clone(),
            cols: t.schema().columns.iter().map(|c| (c.name.clone(), c.data_type)).collect(),
        })
        .collect()
}

/// The adversarial synthetic schema: the shapes benchmark data never has.
///
/// * `vacuum` — zero rows (scalar aggregates over nothing, empty build and
///   probe sides, LIMIT 0);
/// * `lone` — exactly one row;
/// * `holey` — NULL-heavy columns (three-valued logic, NULL grouping and
///   ordering, `NOT IN` over NULLs);
/// * `twin` — heavily duplicated keys incl. NULL keys (ORDER BY ties,
///   grouped duplicates, anti-join NULL awareness).
pub fn build_adversarial_catalog() -> Catalog {
    let mut cat = Catalog::new();

    let vacuum = cat
        .create_table(
            "vacuum",
            Schema::new(vec![
                Column::nullable("v_int", DataType::Int),
                Column::nullable("v_str", DataType::Str),
                Column::nullable("v_date", DataType::Date),
                Column::nullable("v_dbl", DataType::Double),
            ]),
        )
        .expect("fresh catalog");
    cat.create_index(vacuum, "vacuum_pk", vec![0], true).expect("index");

    let lone = cat
        .create_table(
            "lone",
            Schema::new(vec![
                Column::new("o_key", DataType::Int),
                Column::nullable("o_val", DataType::Str),
                Column::nullable("o_num", DataType::Double),
            ]),
        )
        .expect("fresh catalog");
    cat.insert(lone, vec![vec![Value::Int(1), Value::str("only"), Value::Double(3.5)]])
        .expect("lone row");
    cat.create_index(lone, "lone_pk", vec![0], true).expect("index");

    let holey = cat
        .create_table(
            "holey",
            Schema::new(vec![
                Column::new("h_key", DataType::Int),
                Column::nullable("h_a", DataType::Int),
                Column::nullable("h_b", DataType::Str),
                Column::nullable("h_d", DataType::Date),
                Column::nullable("h_x", DataType::Double),
            ]),
        )
        .expect("fresh catalog");
    {
        let mut r = SmallRng::seed_from_u64(0x48_4f_4c_45_59u64);
        const WORDS: [&str; 6] = ["alpha", "beta", "", "alpha", "delta", "om%ga"];
        cat.insert(
            holey,
            (0..48i64).map(|i| {
                vec![
                    Value::Int(i),
                    if r.gen_bool(0.4) { Value::Null } else { Value::Int(r.gen_range(0..6)) },
                    if r.gen_bool(0.4) {
                        Value::Null
                    } else {
                        Value::str(WORDS[r.gen_range(0..WORDS.len())])
                    },
                    if r.gen_bool(0.3) {
                        Value::Null
                    } else {
                        Value::date(&format!("199{}-0{}-1{}", i % 8, 1 + i % 9, i % 9))
                            .expect("valid date")
                    },
                    if r.gen_bool(0.3) {
                        Value::Null
                    } else {
                        Value::Double((r.gen_range(-200.0..200.0) * 4.0).round() / 4.0)
                    },
                ]
            }),
        )
        .expect("holey rows");
    }
    cat.create_index(holey, "holey_pk", vec![0], true).expect("index");
    cat.create_index(holey, "holey_a", vec![1], false).expect("index");

    let twin = cat
        .create_table(
            "twin",
            Schema::new(vec![
                Column::nullable("t_k", DataType::Int),
                Column::nullable("t_v", DataType::Int),
                Column::nullable("t_s", DataType::Str),
                Column::new("t_seq", DataType::Int),
            ]),
        )
        .expect("fresh catalog");
    {
        let mut r = SmallRng::seed_from_u64(0x7749_4e21);
        const TAGS: [&str; 4] = ["dup", "dup", "uniq", "tie"];
        cat.insert(
            twin,
            (0..64i64).map(|i| {
                vec![
                    if r.gen_bool(0.1) { Value::Null } else { Value::Int(r.gen_range(0..6)) },
                    if r.gen_bool(0.15) { Value::Null } else { Value::Int(r.gen_range(0..10)) },
                    Value::str(TAGS[r.gen_range(0..TAGS.len())]),
                    Value::Int(i),
                ]
            }),
        )
        .expect("twin rows");
    }
    cat.create_index(twin, "twin_k", vec![0], false).expect("index");
    cat.create_index(twin, "twin_seq", vec![3], true).expect("index");

    cat.analyze_all(&AnalyzeOptions::default());
    cat
}

// --------------------------------------------------------------- query spec

/// A column visible to predicate/projection generation: `alias.name`.
#[derive(Clone, Debug)]
struct ScopeCol {
    alias: String,
    name: String,
    ty: DataType,
}

impl ScopeCol {
    fn sql(&self) -> String {
        format!("{}.{}", self.alias, self.name)
    }
}

/// One FROM-clause source: a base table or a rendered derived table.
#[derive(Clone, Debug)]
struct Source {
    /// `name alias` or `(SELECT ...) AS alias`.
    sql: String,
    alias: String,
    cols: Vec<(String, DataType)>,
}

impl Source {
    fn scope(&self) -> impl Iterator<Item = ScopeCol> + '_ {
        self.cols.iter().map(|(n, t)| ScopeCol {
            alias: self.alias.clone(),
            name: n.clone(),
            ty: *t,
        })
    }
}

#[derive(Clone, Debug)]
struct JoinStep {
    kw: &'static str,
    on: Option<String>,
}

/// A generated query in clause-granular form, so the minimizer can remove
/// parts and re-render. `select[i]` is always emitted as `expr AS c{i}`,
/// and ORDER BY refers to select items by index, which keeps output-column
/// positions known for sortedness checks.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    sources: Vec<Source>,
    joins: Vec<JoinStep>,
    wheres: Vec<String>,
    group_by: Vec<String>,
    select: Vec<String>,
    having: Option<String>,
    order_by: Vec<(usize, bool)>,
    limit: Option<i64>,
    distinct: bool,
    /// True when the select list contains aggregates (grouped or scalar);
    /// such specs are not TLP-eligible.
    aggregated: bool,
}

impl QuerySpec {
    fn scope(&self) -> Vec<ScopeCol> {
        self.sources.iter().flat_map(|s| s.scope()).collect()
    }

    fn tlp_eligible(&self) -> bool {
        !self.aggregated && !self.distinct && self.limit.is_none()
    }

    /// Render to SQL, optionally with an extra WHERE conjunct (TLP).
    pub fn render_with(&self, extra: Option<&str>) -> String {
        let mut q = String::from("SELECT ");
        if self.distinct {
            q.push_str("DISTINCT ");
        }
        for (i, e) in self.select.iter().enumerate() {
            if i > 0 {
                q.push_str(", ");
            }
            q.push_str(&format!("{e} AS c{i}"));
        }
        q.push_str(" FROM ");
        q.push_str(&self.sources[0].sql);
        for (j, step) in self.joins.iter().enumerate() {
            q.push_str(&format!(" {} {}", step.kw, self.sources[j + 1].sql));
            if let Some(on) = &step.on {
                q.push_str(&format!(" ON {on}"));
            }
        }
        let mut conjuncts: Vec<&str> = self.wheres.iter().map(String::as_str).collect();
        if let Some(p) = extra {
            conjuncts.push(p);
        }
        if !conjuncts.is_empty() {
            q.push_str(" WHERE ");
            for (i, c) in conjuncts.iter().enumerate() {
                if i > 0 {
                    q.push_str(" AND ");
                }
                q.push_str(&format!("({c})"));
            }
        }
        if !self.group_by.is_empty() {
            q.push_str(" GROUP BY ");
            q.push_str(&self.group_by.join(", "));
        }
        if let Some(h) = &self.having {
            q.push_str(&format!(" HAVING {h}"));
        }
        if !self.order_by.is_empty() {
            q.push_str(" ORDER BY ");
            for (i, (ix, desc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    q.push_str(", ");
                }
                q.push_str(&format!("c{ix}{}", if *desc { " DESC" } else { "" }));
            }
        }
        if let Some(n) = self.limit {
            q.push_str(&format!(" LIMIT {n}"));
        }
        q
    }

    pub fn render(&self) -> String {
        self.render_with(None)
    }
}

// ---------------------------------------------------------------- generator

const CMPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
const STR_POOL: [&str; 10] =
    ["AIR", "BUILDING", "x", "", "alpha", "Customer", "dup", "only", "1-URGENT", "almond"];
const LIKE_POOL: [&str; 7] = ["%a%", "x%", "%s", "_o%", "%", "a_c", "%m%a%"];

/// A literal of the given type. Values draw from the literal stream so a
/// sibling render (same structure, different literal stream) produces the
/// same statement fingerprint with different binds. Numeric literals are
/// non-negative: a leading `-` is its own token and would change the
/// fingerprint between siblings.
fn gen_lit(l: &mut SmallRng, ty: DataType) -> String {
    match ty {
        DataType::Int => l.gen_range(0..60i64).to_string(),
        DataType::Double => format!("{:.2}", l.gen_range(0.0..400.0)),
        DataType::Str => format!("'{}'", STR_POOL[l.gen_range(0..STR_POOL.len())]),
        DataType::Date => format!(
            "DATE '{}-{:02}-{:02}'",
            1992 + l.gen_range(0..7i32),
            1 + l.gen_range(0..12i32),
            1 + l.gen_range(0..28i32)
        ),
        DataType::Bool => "TRUE".to_string(),
    }
}

fn pick<'a, T>(s: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[s.gen_range(0..items.len())]
}

/// A column from scope, optionally constrained to a type.
fn pick_col(s: &mut SmallRng, scope: &[ScopeCol], ty: Option<DataType>) -> Option<ScopeCol> {
    let candidates: Vec<&ScopeCol> =
        scope.iter().filter(|c| ty.is_none_or(|t| c.ty == t)).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[s.gen_range(0..candidates.len())].clone())
    }
}

/// A random predicate over `scope`. Structure from `s`, literals from `l`.
fn gen_pred(s: &mut SmallRng, l: &mut SmallRng, scope: &[ScopeCol], depth: usize) -> String {
    if depth > 0 && s.gen_bool(0.35) {
        let a = gen_pred(s, l, scope, depth - 1);
        let b = gen_pred(s, l, scope, depth - 1);
        return match s.gen_range(0..3i32) {
            0 => format!("({a} AND {b})"),
            1 => format!("({a} OR {b})"),
            _ => format!("NOT ({a})"),
        };
    }
    let c = pick_col(s, scope, None).expect("scope is never empty");
    match s.gen_range(0..100i32) {
        // Column vs literal comparison (with a small chance of a literal
        // NULL operand: always-UNKNOWN predicates stress three-valued
        // handling everywhere).
        0..=29 => {
            let op = *pick(s, &CMPS);
            if s.gen_bool(0.08) {
                format!("{} {op} NULL", c.sql())
            } else {
                format!("{} {op} {}", c.sql(), gen_lit(l, c.ty))
            }
        }
        // Column vs column of the same type (possibly cross-table).
        30..=41 => match pick_col(s, scope, Some(c.ty)) {
            Some(d) => format!("{} {} {}", c.sql(), *pick(s, &CMPS), d.sql()),
            None => format!("{} = {}", c.sql(), gen_lit(l, c.ty)),
        },
        42..=51 => {
            format!("{} IS {}NULL", c.sql(), if s.gen_bool(0.5) { "NOT " } else { "" })
        }
        // IN-list, sometimes with a NULL element (the element is a
        // structural decision: NULL is a keyword, not a bind).
        52..=64 => {
            let n = s.gen_range(2..5usize);
            let null_at = if s.gen_bool(0.25) { Some(s.gen_range(0..n)) } else { None };
            let items: Vec<String> = (0..n)
                .map(|i| if null_at == Some(i) { "NULL".to_string() } else { gen_lit(l, c.ty) })
                .collect();
            format!(
                "{} {}IN ({})",
                c.sql(),
                if s.gen_bool(0.4) { "NOT " } else { "" },
                items.join(", ")
            )
        }
        65..=76 => match c.ty {
            DataType::Int | DataType::Double | DataType::Date => format!(
                "{} {}BETWEEN {} AND {}",
                c.sql(),
                if s.gen_bool(0.3) { "NOT " } else { "" },
                gen_lit(l, c.ty),
                gen_lit(l, c.ty)
            ),
            _ => format!("{} <> {}", c.sql(), gen_lit(l, c.ty)),
        },
        77..=86 => match pick_col(s, scope, Some(DataType::Str)) {
            Some(sc) => format!(
                "{} {}LIKE '{}'",
                sc.sql(),
                if s.gen_bool(0.35) { "NOT " } else { "" },
                LIKE_POOL[l.gen_range(0..LIKE_POOL.len())]
            ),
            None => format!("{} IS NOT NULL", c.sql()),
        },
        87..=93 => {
            format!("COALESCE({}, {}) = {}", c.sql(), gen_lit(l, c.ty), gen_lit(l, c.ty))
        }
        _ => {
            let inner = gen_pred(s, l, scope, 0);
            format!("CASE WHEN {inner} THEN 1 ELSE 0 END = {}", s.gen_range(0..2i32))
        }
    }
}

/// A subquery conjunct: `[NOT] IN (SELECT ...)`, correlated `EXISTS`, or a
/// scalar-subquery comparison. The IN and scalar forms are correlated half
/// the time.
fn gen_subquery_pred(
    s: &mut SmallRng,
    l: &mut SmallRng,
    scope: &[ScopeCol],
    schema: &[TableInfo],
    inner_alias: &str,
) -> Option<String> {
    let t = pick(s, schema).clone();
    let inner_scope: Vec<ScopeCol> = t
        .cols
        .iter()
        .map(|(n, ty)| ScopeCol { alias: inner_alias.to_string(), name: n.clone(), ty: *ty })
        .collect();
    match s.gen_range(0..3i32) {
        // [NOT] IN (SELECT col FROM t [WHERE [t.k = outer.k] [AND ...]])
        0 => {
            let ic = pick_col(s, &inner_scope, None)?;
            let oc = pick_col(s, scope, Some(ic.ty))?;
            let mut conds = Vec::new();
            if s.gen_bool(0.5) {
                let jc = pick_col(s, &inner_scope, None)?;
                let ocorr = pick_col(s, scope, Some(jc.ty))?;
                conds.push(format!("{} = {}", jc.sql(), ocorr.sql()));
            }
            if s.gen_bool(0.6) {
                conds.push(gen_pred(s, l, &inner_scope, 1));
            }
            let filter = if conds.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", conds.join(" AND "))
            };
            Some(format!(
                "{} {}IN (SELECT {} FROM {} {inner_alias}{filter})",
                oc.sql(),
                if s.gen_bool(0.4) { "NOT " } else { "" },
                ic.sql(),
                t.name
            ))
        }
        // [NOT] EXISTS (SELECT 1 FROM t WHERE t.c = outer.c [AND ...])
        1 => {
            let ic = pick_col(s, &inner_scope, None)?;
            let oc = pick_col(s, scope, Some(ic.ty))?;
            let extra = if s.gen_bool(0.5) {
                format!(" AND {}", gen_pred(s, l, &inner_scope, 1))
            } else {
                String::new()
            };
            Some(format!(
                "{}EXISTS (SELECT 1 FROM {} {inner_alias} WHERE {} = {}{extra})",
                if s.gen_bool(0.4) { "NOT " } else { "" },
                t.name,
                ic.sql(),
                oc.sql()
            ))
        }
        // outer op (SELECT agg(col) FROM t [WHERE t.k = outer.k])
        _ => {
            let want_ty = if s.gen_bool(0.7) { DataType::Int } else { DataType::Double };
            let ic = pick_col(s, &inner_scope, Some(want_ty))?;
            let oc = pick_col(s, scope, Some(ic.ty))?;
            let agg = *pick(s, &["MIN", "MAX", "AVG", "COUNT"]);
            let correlate = if s.gen_bool(0.5) {
                let jc = pick_col(s, &inner_scope, None)?;
                let ocorr = pick_col(s, scope, Some(jc.ty))?;
                format!(" WHERE {} = {}", jc.sql(), ocorr.sql())
            } else {
                String::new()
            };
            Some(format!(
                "{} {} (SELECT {agg}({}) FROM {} {inner_alias}{correlate})",
                oc.sql(),
                *pick(s, &CMPS),
                ic.sql(),
                t.name
            ))
        }
    }
}

/// A derived-table source over one base table: either a filtered
/// projection or a grouped aggregate, with explicit exported columns.
fn gen_derived(s: &mut SmallRng, l: &mut SmallRng, schema: &[TableInfo], alias: &str) -> Source {
    let t = pick(s, schema).clone();
    let inner: Vec<ScopeCol> = t
        .cols
        .iter()
        .map(|(n, ty)| ScopeCol { alias: "d".to_string(), name: n.clone(), ty: *ty })
        .collect();
    let filter = if s.gen_bool(0.6) {
        format!(" WHERE {}", gen_pred(s, l, &inner, 1))
    } else {
        String::new()
    };
    if s.gen_bool(0.4) {
        // Grouped: (SELECT d.k AS g0, COUNT(*) AS g1 FROM t d ... GROUP BY d.k)
        let key = pick_col(s, &inner, None).expect("tables have columns");
        let agg_col = pick_col(s, &inner, Some(DataType::Int))
            .or_else(|| pick_col(s, &inner, Some(DataType::Double)));
        let (agg_sql, agg_ty) = match (&agg_col, s.gen_range(0..3i32)) {
            (Some(c), 0) => (format!("SUM({})", c.sql()), c.ty),
            (Some(c), 1) => (format!("MAX({})", c.sql()), c.ty),
            _ => ("COUNT(*)".to_string(), DataType::Int),
        };
        Source {
            sql: format!(
                "(SELECT {} AS g0, {agg_sql} AS g1 FROM {} d{filter} GROUP BY {}) AS {alias}",
                key.sql(),
                t.name,
                key.sql()
            ),
            alias: alias.to_string(),
            cols: vec![("g0".to_string(), key.ty), ("g1".to_string(), agg_ty)],
        }
    } else {
        let n = s.gen_range(1..4usize).min(inner.len());
        let cols: Vec<ScopeCol> =
            (0..n).map(|_| pick_col(s, &inner, None).expect("non-empty")).collect();
        let items: Vec<String> =
            cols.iter().enumerate().map(|(i, c)| format!("{} AS g{i}", c.sql())).collect();
        Source {
            sql: format!("(SELECT {} FROM {} d{filter}) AS {alias}", items.join(", "), t.name),
            alias: alias.to_string(),
            cols: cols.iter().enumerate().map(|(i, c)| (format!("g{i}"), c.ty)).collect(),
        }
    }
}

/// Generate one query spec. All structural choices draw from `s`, all
/// literal values from `l`; generating twice with a cloned `s` and a
/// different `l` yields the same statement shape with different binds.
pub fn gen_spec(s: &mut SmallRng, l: &mut SmallRng, schema: &[TableInfo]) -> QuerySpec {
    let nsrc = match s.gen_range(0..100i32) {
        0..=44 => 1,
        45..=74 => 2,
        75..=91 => 3,
        _ => 4,
    };
    let mut sources: Vec<Source> = Vec::new();
    let mut joins: Vec<JoinStep> = Vec::new();
    for j in 0..nsrc {
        let alias = format!("t{j}");
        let src = if j == 0 && nsrc <= 3 && s.gen_bool(0.15) {
            gen_derived(s, l, schema, &alias)
        } else {
            let t = pick(s, schema).clone();
            Source {
                sql: format!("{} {alias}", t.name),
                alias: alias.clone(),
                cols: t.cols.clone(),
            }
        };
        if j > 0 {
            let kw = match s.gen_range(0..100i32) {
                0..=59 => "JOIN",
                60..=84 => "LEFT JOIN",
                _ => "CROSS JOIN",
            };
            let prior: Vec<ScopeCol> = sources.iter().flat_map(|p| p.scope()).collect();
            let new_scope: Vec<ScopeCol> = src.scope().collect();
            let on = if kw == "CROSS JOIN" {
                None
            } else {
                // Prefer an equi-join on a shared type; fall back to a
                // literal predicate on the new table if no pair types.
                let pair = new_scope
                    .iter()
                    .filter_map(|nc| pick_col(s, &prior, Some(nc.ty)).map(|pc| (nc.clone(), pc)))
                    .next();
                let mut on = match pair {
                    Some((nc, pc)) => format!("{} = {}", nc.sql(), pc.sql()),
                    None => gen_pred(s, l, &new_scope, 0),
                };
                if s.gen_bool(0.3) {
                    on = format!("{on} AND {}", gen_pred(s, l, &new_scope, 0));
                }
                Some(on)
            };
            joins.push(JoinStep { kw, on });
        }
        sources.push(src);
    }
    let scope: Vec<ScopeCol> = sources.iter().flat_map(|p| p.scope()).collect();

    let mut wheres: Vec<String> = Vec::new();
    for _ in 0..s.gen_range(0..4i32) {
        wheres.push(gen_pred(s, l, &scope, 2));
    }
    if s.gen_bool(0.3) {
        if let Some(p) = gen_subquery_pred(s, l, &scope, schema, "s0") {
            wheres.push(p);
        }
    }

    // Projection: plain select, grouped aggregate, or scalar aggregate.
    let mut group_by: Vec<String> = Vec::new();
    let mut select: Vec<String> = Vec::new();
    let mut having: Option<String> = None;
    let mut aggregated = false;
    let mut distinct = false;
    let mode = s.gen_range(0..100i32);
    if mode < 45 {
        // Plain projection.
        for _ in 0..s.gen_range(1..4i32) {
            let c = pick_col(s, &scope, None).expect("non-empty scope");
            let item = match s.gen_range(0..100i32) {
                0..=64 => c.sql(),
                65..=79 if matches!(c.ty, DataType::Int | DataType::Double) => {
                    format!("{} + {}", c.sql(), gen_lit(l, c.ty))
                }
                80..=89 => format!("COALESCE({}, {})", c.sql(), gen_lit(l, c.ty)),
                _ => format!(
                    "CASE WHEN {} THEN {} ELSE {} END",
                    gen_pred(s, l, &scope, 0),
                    c.sql(),
                    gen_lit(l, c.ty)
                ),
            };
            select.push(item);
        }
        distinct = s.gen_bool(0.15);
    } else {
        aggregated = true;
        let scalar = mode >= 85;
        if !scalar {
            for _ in 0..s.gen_range(1..3i32) {
                let c = pick_col(s, &scope, None).expect("non-empty scope");
                if !group_by.contains(&c.sql()) {
                    group_by.push(c.sql());
                    select.push(c.sql());
                }
            }
        }
        let mut aggs: Vec<String> = Vec::new();
        for _ in 0..s.gen_range(1..3i32) {
            let agg = match s.gen_range(0..100i32) {
                0..=24 => "COUNT(*)".to_string(),
                25..=39 => {
                    let c = pick_col(s, &scope, None).expect("non-empty");
                    format!("COUNT({})", c.sql())
                }
                40..=49 => {
                    let c = pick_col(s, &scope, None).expect("non-empty");
                    format!("COUNT(DISTINCT {})", c.sql())
                }
                50..=69 => match pick_col(s, &scope, Some(DataType::Int))
                    .or_else(|| pick_col(s, &scope, Some(DataType::Double)))
                {
                    Some(c) => format!("SUM({})", c.sql()),
                    None => "COUNT(*)".to_string(),
                },
                70..=79 => match pick_col(s, &scope, Some(DataType::Double))
                    .or_else(|| pick_col(s, &scope, Some(DataType::Int)))
                {
                    Some(c) => format!("AVG({})", c.sql()),
                    None => "COUNT(*)".to_string(),
                },
                _ => {
                    let c = pick_col(s, &scope, None).expect("non-empty");
                    format!("{}({})", if s.gen_bool(0.5) { "MIN" } else { "MAX" }, c.sql())
                }
            };
            aggs.push(agg);
        }
        if !scalar && s.gen_bool(0.35) {
            let a = pick(s, &aggs).clone();
            let ty = if a.starts_with("COUNT") { DataType::Int } else { DataType::Double };
            having = Some(format!("{a} {} {}", *pick(s, &CMPS), gen_lit(l, ty)));
        }
        select.extend(aggs);
    }

    // ORDER BY a random subset of select positions; LIMIT only under
    // ORDER BY (an unordered LIMIT's row choice is legitimately
    // plan-dependent and uncheckable).
    let mut order_by: Vec<(usize, bool)> = Vec::new();
    if s.gen_bool(0.5) {
        let mut ixs: Vec<usize> = (0..select.len()).collect();
        for i in (1..ixs.len()).rev() {
            ixs.swap(i, s.gen_range(0..i + 1));
        }
        ixs.truncate(s.gen_range(1..(select.len().min(3) + 1) as i32) as usize);
        order_by = ixs.into_iter().map(|ix| (ix, s.gen_bool(0.4))).collect();
    }
    let limit = if !order_by.is_empty() && s.gen_bool(0.35) {
        Some(if s.gen_bool(0.08) { 0 } else { s.gen_range(1..13i64) })
    } else {
        None
    };

    QuerySpec {
        sources,
        joins,
        wheres,
        group_by,
        select,
        having,
        order_by,
        limit,
        distinct,
        aggregated,
    }
}

// ------------------------------------------------------------------ oracles

/// Oracle identifiers (for reports and DESIGN.md attribution).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Oracle {
    NativeVsOrca,
    SerialVsParallel,
    FreshVsRebound,
    Tlp,
    CancelRecover,
    Feedback,
    ConcurrentSessions,
    Orders,
}

impl Oracle {
    pub fn name(self) -> &'static str {
        match self {
            Oracle::NativeVsOrca => "native-vs-orca",
            Oracle::SerialVsParallel => "serial-vs-parallel",
            Oracle::FreshVsRebound => "fresh-vs-rebound",
            Oracle::Tlp => "tlp",
            Oracle::CancelRecover => "cancel-recover",
            Oracle::Feedback => "feedback",
            Oracle::ConcurrentSessions => "concurrent-sessions",
            Oracle::Orders => "orders",
        }
    }

    pub const ALL: [Oracle; 8] = [
        Oracle::NativeVsOrca,
        Oracle::SerialVsParallel,
        Oracle::FreshVsRebound,
        Oracle::Tlp,
        Oracle::CancelRecover,
        Oracle::Feedback,
        Oracle::ConcurrentSessions,
        Oracle::Orders,
    ];

    fn index(self) -> usize {
        Oracle::ALL.iter().position(|o| *o == self).expect("member")
    }
}

/// Exact canonical rows in the order returned — for comparisons where both
/// sides run the same plan, so every byte and the row order must match.
fn ordered(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| canon_row(r, true)).collect()
}

fn first_diff(a: &[String], b: &[String]) -> String {
    if a.len() != b.len() {
        return format!("{} rows vs {} rows", a.len(), b.len());
    }
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return format!("row {x:?} vs {y:?}");
        }
    }
    "identical (bug in comparison)".to_string()
}

/// Is `rows` sorted under the spec's ORDER BY (same comparator as the
/// executor: `Value::total_cmp`, descending reversed)?
fn check_sorted(rows: &[Row], order: &[(usize, bool)]) -> Option<String> {
    for w in rows.windows(2) {
        for &(ix, desc) in order {
            // The shared comparator, so the oracle checks the exact order the
            // Sort enforcer and GatherMerge produce (NULLS placement included).
            match taurus_executor::ordering::cmp_values(w[0].get(ix)?, w[1].get(ix)?, desc) {
                Ordering::Less => break,
                Ordering::Greater => {
                    return Some(format!(
                        "not sorted on c{ix}{}: {:?} before {:?}",
                        if desc { " DESC" } else { "" },
                        w[0][ix],
                        w[1][ix]
                    ))
                }
                Ordering::Equal => {}
            }
        }
    }
    None
}

/// Compare two results produced by *different plan shapes* for the same
/// query. Without LIMIT: multiset equality plus sortedness of both sides
/// under ORDER BY. With LIMIT: equal counts, both sides sorted, and equal
/// multisets of ORDER BY key tuples (ties at the cutoff legitimately let
/// different plans pick different non-key columns).
fn compare_cross_plan(spec: &QuerySpec, a: &[Row], b: &[Row]) -> Option<String> {
    if spec.limit.is_some() {
        if a.len() != b.len() {
            return Some(format!("row counts differ: {} vs {}", a.len(), b.len()));
        }
        if let Some(d) = check_sorted(a, &spec.order_by) {
            return Some(format!("left side {d}"));
        }
        if let Some(d) = check_sorted(b, &spec.order_by) {
            return Some(format!("right side {d}"));
        }
        let key = |rows: &[Row]| -> Vec<String> {
            let mut v: Vec<String> = rows
                .iter()
                .map(|r| {
                    let keys: Row = spec.order_by.iter().map(|&(ix, _)| r[ix].clone()).collect();
                    canon_row(&keys, false)
                })
                .collect();
            v.sort();
            v
        };
        let (ka, kb) = (key(a), key(b));
        if ka != kb {
            return Some(format!("top-k key multisets differ: {}", first_diff(&ka, &kb)));
        }
        return None;
    }
    let (ma, mb) = (canon_rows(a, false), canon_rows(b, false));
    if ma != mb {
        return Some(format!("result multisets differ: {}", first_diff(&ma, &mb)));
    }
    if !spec.order_by.is_empty() {
        if let Some(d) = check_sorted(a, &spec.order_by) {
            return Some(format!("left side {d}"));
        }
        if let Some(d) = check_sorted(b, &spec.order_by) {
            return Some(format!("right side {d}"));
        }
    }
    None
}

/// The verdict on two runs of one query by different plan shapes: both
/// erroring is uninteresting, one erroring is a failure, two answers are
/// compared by [`compare_cross_plan`].
fn cross_plan_verdict(
    spec: &QuerySpec,
    (name_a, a): (&str, taurus_common::error::Result<mylite::QueryOutput>),
    (name_b, b): (&str, taurus_common::error::Result<mylite::QueryOutput>),
) -> Check {
    match (a, b) {
        (Err(_), Err(_)) => Check::Invalid,
        (Ok(_), Err(e)) => Check::Fail(format!("{name_b} errored, {name_a} ran: {e}")),
        (Err(e), Ok(_)) => Check::Fail(format!("{name_a} errored, {name_b} ran: {e}")),
        (Ok(a), Ok(b)) => match compare_cross_plan(spec, &a.rows, &b.rows) {
            Some(d) => Check::Fail(format!("{name_a} vs {name_b}: {d}")),
            None => Check::Pass,
        },
    }
}

/// One generated case: the spec, a literal-mutated sibling with the same
/// fingerprint, and (when eligible) a TLP partition predicate.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    pub spec: QuerySpec,
    pub sibling: QuerySpec,
    pub tlp_pred: Option<String>,
    /// Which optimizer the plan-cache oracle uses for this case.
    pub cache_via_orca: bool,
}

/// Generate a case from the structure stream `s` and two literal seeds.
pub fn gen_case(
    s: &mut SmallRng,
    lit_seeds: (u64, u64),
    schema: &[TableInfo],
    cache_via_orca: bool,
) -> FuzzCase {
    let mut s2 = s.clone();
    let mut la = SmallRng::seed_from_u64(lit_seeds.0);
    let mut lb = SmallRng::seed_from_u64(lit_seeds.1);
    let spec = gen_spec(s, &mut la, schema);
    let sibling = gen_spec(&mut s2, &mut lb, schema);
    let tlp_pred =
        if spec.tlp_eligible() { Some(gen_pred(s, &mut la, &spec.scope(), 2)) } else { None };
    FuzzCase { spec, sibling, tlp_pred, cache_via_orca }
}

enum Check {
    Pass,
    Fail(String),
    /// The query does not execute on the reference path (or errors on
    /// both sides of a comparison) — uninteresting for this oracle.
    Invalid,
}

struct FuzzCtx<'a> {
    engine: &'a Engine,
    orca: &'a OrcaOptimizer,
}

impl FuzzCtx<'_> {
    fn opt(&self, via_orca: bool) -> &dyn CostBasedOptimizer {
        if via_orca {
            self.orca
        } else {
            &MySqlOptimizer
        }
    }

    /// Oracle 1: native plan vs Orca-routed plan.
    fn check_native_vs_orca(&self, case: &FuzzCase) -> Check {
        let sql = case.spec.render();
        let native = self.engine.query(&sql);
        let orca = self.engine.query_with(&sql, self.orca);
        cross_plan_verdict(&case.spec, ("native", native), ("orca path", orca))
    }

    /// Every run of `sql` at each of `dops`, under whatever knobs the caller
    /// set, must return `want` exactly and in order. `what` names the path
    /// being varied, `reference` the one that produced `want`.
    fn same_bytes_at_dops(
        &self,
        sql: &str,
        want: &[String],
        dops: [usize; 3],
        what: &str,
        reference: &str,
    ) -> Check {
        for dop in dops {
            self.engine.set_dop(dop);
            let got = self.engine.query(sql);
            self.engine.set_dop(1);
            match got {
                Err(e) => {
                    return Check::Fail(format!("{what} (dop={dop}) errored, {reference} ran: {e}"))
                }
                Ok(out) => {
                    let got = ordered(&out.rows);
                    if got != want {
                        return Check::Fail(format!(
                            "{what} (dop={dop}) differs from {reference} (ordered, exact): {}",
                            first_diff(want, &got)
                        ));
                    }
                }
            }
        }
        Check::Pass
    }

    /// Oracle 2: serial vs dop ∈ {2, 4, 8}, byte-identical in order.
    fn check_serial_vs_parallel(&self, case: &FuzzCase) -> Check {
        let sql = case.spec.render();
        self.engine.set_dop(1);
        match self.engine.query(&sql) {
            Ok(serial) => {
                let want = ordered(&serial.rows);
                self.same_bytes_at_dops(&sql, &want, [2, 4, 8], "parallel plan", "serial plan")
            }
            Err(_) => Check::Invalid,
        }
    }

    /// Oracle 3: a plan-cache hit re-bound to the sibling's literals vs a
    /// fresh compile of the sibling text.
    fn check_fresh_vs_rebound(&self, case: &FuzzCase) -> Check {
        let opt = self.opt(case.cache_via_orca);
        let (sql_a, sql_b) = (case.spec.render(), case.sibling.render());
        self.engine.clear_plan_cache();
        let warm = self.engine.query_cached(&sql_a, opt);
        if warm.is_err() {
            self.engine.clear_plan_cache();
            return Check::Invalid;
        }
        let cached = self.engine.query_cached(&sql_b, opt);
        let fresh = self.engine.query_with(&sql_b, opt);
        self.engine.clear_plan_cache();
        cross_plan_verdict(&case.sibling, ("rebound serve", cached), ("fresh compile", fresh))
    }

    /// Oracle 4: TLP — `Q` ≡ `Q WHERE p` ⊎ `Q WHERE NOT p` ⊎
    /// `Q WHERE (p) IS NULL`, under both optimizers.
    fn check_tlp(&self, case: &FuzzCase) -> Check {
        let Some(p) = &case.tlp_pred else { return Check::Invalid };
        let base = case.spec.render();
        let parts = [
            case.spec.render_with(Some(p)),
            case.spec.render_with(Some(&format!("NOT ({p})"))),
            case.spec.render_with(Some(&format!("({p}) IS NULL"))),
        ];
        for via_orca in [false, true] {
            let opt = self.opt(via_orca);
            let label = if via_orca { "orca" } else { "native" };
            let whole = match self.engine.query_with(&base, opt) {
                Ok(out) => out,
                Err(_) => return Check::Invalid,
            };
            let mut union: Vec<Row> = Vec::new();
            for part in &parts {
                match self.engine.query_with(part, opt) {
                    Ok(out) => union.extend(out.rows),
                    Err(e) => {
                        return Check::Fail(format!(
                            "{label}: partition errored while base ran: {e} ({part})"
                        ))
                    }
                }
            }
            let (mw, mu) = (canon_rows(&whole.rows, true), canon_rows(&union, true));
            if mw != mu {
                return Check::Fail(format!(
                    "{label}: Q != (Q WHERE p) + (Q WHERE NOT p) + (Q WHERE p IS NULL) \
                     with p = `{p}`: {}",
                    first_diff(&mw, &mu)
                ));
            }
        }
        Check::Pass
    }

    /// Oracle 5: cancel mid-execution, then demand the exact answer on the
    /// very next serve of the same statement. The cancel point is derived
    /// from the statement text — deterministic per case, spread across
    /// cases — so over a fuzzing run cancellation lands at many different
    /// operator boundaries.
    fn check_cancel_recover(&self, case: &FuzzCase) -> Check {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let sql = case.spec.render();
        let opt = self.opt(case.cache_via_orca);
        self.engine.clear_plan_cache();
        let reference = match self.engine.query_cached(&sql, opt) {
            Ok(out) => out,
            Err(_) => {
                self.engine.clear_plan_cache();
                return Check::Invalid;
            }
        };
        let want = ordered(&reference.rows);
        let point = {
            let mut h = DefaultHasher::new();
            sql.hash(&mut h);
            1 + h.finish() % 24
        };
        self.engine.set_cancel_after(Some(point));
        let cancelled = self.engine.query_cached(&sql, opt);
        self.engine.set_cancel_after(None);
        let after = self.engine.query_cached(&sql, opt);
        self.engine.clear_plan_cache();
        match cancelled {
            // Short plans may finish before check `point`; that run is
            // simply an uncancelled serve, which must still be correct.
            Ok(_) | Err(Error::Cancelled) => {}
            Err(e) => return Check::Fail(format!("cancel surfaced a foreign error: {e}")),
        }
        match after {
            Err(e) => Check::Fail(format!("statement failed right after a cancel: {e}")),
            Ok(out) => {
                let got = ordered(&out.rows);
                if got != want {
                    Check::Fail(format!(
                        "post-cancel serve diverged (poisoned cache?): {}",
                        first_diff(&want, &got)
                    ))
                } else {
                    Check::Pass
                }
            }
        }
    }

    /// Oracle 6: the feedback loop as a correctness oracle. The first
    /// instrumented serve folds observed per-operator cardinalities; with
    /// the re-optimization threshold dropped to just above 1, the second
    /// serve recompiles with those observations injected whenever the
    /// static estimate was at all wrong. The re-optimized plan may differ
    /// in shape — it must not differ in answer. Cases whose estimates were
    /// already within the threshold never re-optimize and are uninteresting
    /// for this oracle. Engine feedback/cache state is restored afterwards
    /// so the other oracles keep seeing the session-default threshold.
    fn check_feedback(&self, case: &FuzzCase) -> Check {
        let sql = case.spec.render();
        let opt = self.opt(case.cache_via_orca);
        let saved = self.engine.reopt_q_threshold();
        self.engine.clear_plan_cache();
        self.engine.feedback().clear();
        self.engine.set_reopt_q_threshold(Some(1.05));
        let verdict = (|| {
            let first = match self.engine.analyze_cached(&sql, opt) {
                Ok((a, _)) => a,
                Err(_) => return Check::Invalid,
            };
            let (second, outcome) = match self.engine.analyze_cached(&sql, opt) {
                Ok(v) => v,
                Err(e) => {
                    return Check::Fail(format!(
                        "serve after observation errored, first serve ran: {e}"
                    ))
                }
            };
            if outcome != CacheOutcome::Reoptimized {
                return Check::Invalid;
            }
            match compare_cross_plan(&case.spec, &first.output.rows, &second.output.rows) {
                Some(d) => Check::Fail(format!("re-optimized serve vs first serve: {d}")),
                None => Check::Pass,
            }
        })();
        self.engine.set_reopt_q_threshold(saved);
        self.engine.feedback().clear();
        self.engine.clear_plan_cache();
        verdict
    }

    /// Oracle 7: two sessions interleaving the same seeded statement pair
    /// over the shared engine must each see the single-session reference
    /// answer on every serve. This races in-place parameter rebinds of the
    /// shared cache entry against concurrent hits (and the initial
    /// miss-compile race), so a torn rebind, a serve off a half-rebound
    /// plan, or a clobbered entry shows up as a divergence. The reference
    /// serves run the identical cached path first, single-session — both
    /// sides execute the same plan, so comparison is exact and ordered.
    fn check_concurrent_sessions(&self, case: &FuzzCase) -> Check {
        let (sql_a, sql_b) = (case.spec.render(), case.sibling.render());
        self.engine.clear_plan_cache();
        let opt = self.opt(case.cache_via_orca);
        let reference: Vec<Vec<Row>> = {
            let a = self.engine.query_cached(&sql_a, opt);
            let b = self.engine.query_cached(&sql_b, opt);
            match (a, b) {
                (Ok(a), Ok(b)) => vec![a.rows, b.rows],
                _ => {
                    self.engine.clear_plan_cache();
                    return Check::Invalid;
                }
            }
        };
        let sqls = [&sql_a, &sql_b];
        let failure = std::sync::Mutex::new(None::<String>);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (failure, reference, sqls) = (&failure, &reference, &sqls);
                s.spawn(move || {
                    // The two sessions walk the pair out of phase, so every
                    // iteration interleaves a rebind of one entry with hits
                    // of the other.
                    for i in 0..4usize {
                        let which = (t + i) % 2;
                        let opt = self.opt(case.cache_via_orca);
                        match self.engine.query_cached(sqls[which], opt) {
                            Ok(out) if out.rows == reference[which] => {}
                            Ok(_) => {
                                *failure.lock().unwrap() = Some(format!(
                                    "session {t} serve {i} diverged from the \
                                     single-session reference"
                                ));
                            }
                            Err(e) => {
                                *failure.lock().unwrap() =
                                    Some(format!("session {t} serve {i} errored: {e}"));
                            }
                        }
                    }
                });
            }
        });
        self.engine.clear_plan_cache();
        match failure.into_inner().unwrap() {
            Some(d) => Check::Fail(d),
            None => Check::Pass,
        }
    }

    /// Oracle 8: enforcer elimination vs always-enforce. The `order_opt`
    /// knob only drops Sort enforcers proven to be the identity (a stable
    /// sort of input already delivering the requested key prefix), so the
    /// optimized plan must be byte-identical, in order, to the
    /// always-enforce plan — at every dop, GatherMerge included. Queries
    /// with neither ORDER BY nor GROUP BY never carry an order requirement
    /// and are uninteresting for this oracle.
    fn check_orders(&self, case: &FuzzCase) -> Check {
        if case.spec.order_by.is_empty() && case.spec.group_by.is_empty() {
            return Check::Invalid;
        }
        let sql = case.spec.render();
        self.engine.set_dop(1);
        self.engine.set_order_opt(false);
        let reference = self.engine.query(&sql);
        self.engine.set_order_opt(true);
        match reference {
            Ok(reference) => self.same_bytes_at_dops(
                &sql,
                &ordered(&reference.rows),
                [1, 4, 8],
                "order-optimized plan",
                "always-enforce plan",
            ),
            Err(_) => Check::Invalid,
        }
    }

    fn check(&self, case: &FuzzCase, oracle: Oracle) -> Check {
        match oracle {
            Oracle::NativeVsOrca => self.check_native_vs_orca(case),
            Oracle::SerialVsParallel => self.check_serial_vs_parallel(case),
            Oracle::FreshVsRebound => self.check_fresh_vs_rebound(case),
            Oracle::Tlp => self.check_tlp(case),
            Oracle::CancelRecover => self.check_cancel_recover(case),
            Oracle::Feedback => self.check_feedback(case),
            Oracle::ConcurrentSessions => self.check_concurrent_sessions(case),
            Oracle::Orders => self.check_orders(case),
        }
    }
}

// ---------------------------------------------------------------- minimizer

/// Clause-removal edits, tried in order of expected payoff. Removing a
/// join also removes every clause that textually references the dropped
/// alias; candidates that no longer execute are rejected by the checker,
/// so edits never need full semantic bookkeeping.
#[derive(Clone, Copy, Debug)]
#[allow(clippy::enum_variant_names)]
enum Edit {
    DropLimit,
    DropOrder,
    DropHaving,
    DropDistinct,
    DropWhere(usize),
    DropJoin,
    DropSelect(usize),
    DropGroup(usize),
    DropOrderItem(usize),
}

fn edits(spec: &QuerySpec) -> Vec<Edit> {
    let mut v = Vec::new();
    if spec.limit.is_some() {
        v.push(Edit::DropLimit);
    }
    if !spec.order_by.is_empty() {
        v.push(Edit::DropOrder);
    }
    if spec.having.is_some() {
        v.push(Edit::DropHaving);
    }
    if spec.distinct {
        v.push(Edit::DropDistinct);
    }
    for i in 0..spec.wheres.len() {
        v.push(Edit::DropWhere(i));
    }
    if !spec.joins.is_empty() {
        v.push(Edit::DropJoin);
    }
    for i in (0..spec.select.len()).rev() {
        if spec.select.len() > 1 {
            v.push(Edit::DropSelect(i));
        }
    }
    for i in 0..spec.group_by.len() {
        if spec.group_by.len() > 1 || spec.select.len() > spec.group_by.len() {
            v.push(Edit::DropGroup(i));
        }
    }
    if spec.order_by.len() > 1 {
        for i in 0..spec.order_by.len() {
            v.push(Edit::DropOrderItem(i));
        }
    }
    v
}

/// Remove select item `ix`, shifting ORDER BY references down and
/// dropping order items that referenced it.
fn drop_select_item(spec: &mut QuerySpec, ix: usize) {
    spec.select.remove(ix);
    spec.order_by.retain(|&(i, _)| i != ix);
    for o in &mut spec.order_by {
        if o.0 > ix {
            o.0 -= 1;
        }
    }
}

fn apply_edit(spec: &mut QuerySpec, edit: Edit) -> bool {
    match edit {
        Edit::DropLimit => spec.limit = None,
        Edit::DropOrder => spec.order_by.clear(),
        Edit::DropHaving => spec.having = None,
        Edit::DropDistinct => spec.distinct = false,
        Edit::DropWhere(i) => {
            if i >= spec.wheres.len() {
                return false;
            }
            spec.wheres.remove(i);
        }
        Edit::DropJoin => {
            let Some(src) = spec.sources.pop() else { return false };
            spec.joins.pop();
            let needle = format!("{}.", src.alias);
            spec.wheres.retain(|w| !w.contains(&needle));
            if let Some(h) = &spec.having {
                if h.contains(&needle) {
                    spec.having = None;
                }
            }
            for i in (0..spec.select.len()).rev() {
                if spec.select[i].contains(&needle) && spec.select.len() > 1 {
                    let as_group = spec.group_by.iter().position(|g| g == &spec.select[i]);
                    if let Some(g) = as_group {
                        spec.group_by.remove(g);
                    }
                    drop_select_item(spec, i);
                }
            }
            spec.group_by.retain(|g| !g.contains(&needle));
            if spec.select.iter().any(|e| e.contains(&needle)) {
                return false; // last select item still references the alias
            }
        }
        Edit::DropSelect(i) => {
            if spec.select.len() < 2 || i >= spec.select.len() {
                return false;
            }
            // Group keys must stay in both lists; drop the pair via
            // DropGroup instead.
            if spec.group_by.iter().any(|g| g == &spec.select[i]) {
                return false;
            }
            drop_select_item(spec, i);
        }
        Edit::DropGroup(i) => {
            if i >= spec.group_by.len() {
                return false;
            }
            let key = spec.group_by.remove(i);
            if let Some(ix) = spec.select.iter().position(|e| e == &key) {
                if spec.select.len() > 1 {
                    drop_select_item(spec, ix);
                } else {
                    spec.group_by.insert(i, key);
                    return false;
                }
            }
        }
        Edit::DropOrderItem(i) => {
            if spec.order_by.len() < 2 || i >= spec.order_by.len() {
                return false;
            }
            spec.order_by.remove(i);
        }
    }
    true
}

/// Delta-debug `case` against `oracle` to a local minimum: repeatedly try
/// clause removals, keeping any that still fail, until a pass over all
/// edits makes no progress (or the check budget runs out).
fn minimize(ctx: &FuzzCtx, case: &FuzzCase, oracle: Oracle) -> FuzzCase {
    let mut best = case.clone();
    let mut budget = 200usize;
    loop {
        let mut progressed = false;
        for edit in edits(&best.spec) {
            if budget == 0 {
                return best;
            }
            let mut cand = best.clone();
            // Dropping a join must not orphan the TLP predicate: the
            // partition queries would then fail for an unrelated reason
            // (unknown alias) and the minimizer would chase that instead.
            if let (Edit::DropJoin, Some(p)) = (edit, &cand.tlp_pred) {
                if let Some(last) = cand.spec.sources.last() {
                    if p.contains(&format!("{}.", last.alias)) {
                        continue;
                    }
                }
            }
            // The sibling shares the spec's structure; apply edits to both
            // so the fresh-vs-rebound oracle keeps its literal-mutated pair.
            if !apply_edit(&mut cand.spec, edit) || !apply_edit(&mut cand.sibling, edit) {
                continue;
            }
            budget -= 1;
            if let Check::Fail(_) = ctx.check(&cand, oracle) {
                best = cand;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return best;
        }
    }
}

// ------------------------------------------------------------------- report

/// One confirmed miscompare, with its shrunken repro.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    pub seed: u64,
    pub index: usize,
    pub schema: &'static str,
    pub oracle: Oracle,
    pub detail: String,
    pub sql: String,
    pub minimized: String,
}

/// Outcome of a fuzzing run across seeds.
#[derive(Debug, Default)]
pub struct FuzzReport {
    pub seeds: Vec<u64>,
    pub budget: usize,
    pub generated: usize,
    /// Queries whose reference (native, serial) run succeeded.
    pub executed: usize,
    /// Oracle executions that produced a comparable verdict, per oracle.
    pub oracle_runs: [usize; 8],
    /// Plan-cache oracle runs whose second serve actually hit the cache.
    pub rebind_hits: usize,
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// The CI gate: every generated query must have been comparable on
    /// enough paths, every oracle must have actually run, and nothing may
    /// miscompare.
    pub fn gate(&self) -> std::result::Result<(), String> {
        if let Some(f) = self.failures.first() {
            return Err(format!(
                "{} miscompare(s); first: seed={} #{} [{}] {}\n  minimized repro: {}",
                self.failures.len(),
                f.seed,
                f.index,
                f.oracle.name(),
                f.detail,
                f.minimized
            ));
        }
        if self.generated == 0 {
            return Err("no queries generated".to_string());
        }
        let valid = self.executed as f64 / self.generated as f64;
        if valid < 0.5 {
            return Err(format!(
                "only {:.0}% of generated queries executed on the reference path \
                 (generator emitting junk)",
                valid * 100.0
            ));
        }
        for (o, runs) in Oracle::ALL.iter().zip(self.oracle_runs) {
            if runs == 0 {
                return Err(format!("oracle {} never produced a verdict", o.name()));
            }
        }
        if self.rebind_hits == 0 {
            return Err("no sibling statement ever hit the plan cache \
                        (fingerprint streams diverged)"
                .to_string());
        }
        Ok(())
    }
}

/// Run the fuzzer: `budget` queries per seed, rotated across the TPC-H,
/// TPC-DS and adversarial schemas, each checked by all eight oracles.
pub fn run_fuzz(seeds: &[u64], budget: usize, scale: Scale) -> FuzzReport {
    let mut engines: Vec<(&'static str, Engine)> = vec![
        ("tpch", Engine::new(tpch::build_catalog(scale))),
        ("tpcds", Engine::new(tpcds::build_catalog(scale))),
        ("adversarial", Engine::new(build_adversarial_catalog())),
    ];
    for (_, e) in &mut engines {
        // Low thresholds so exchanges are actually placed at fuzz scales
        // (mirrors the differential parallel suite).
        e.set_parallel_threshold(8);
        e.set_morsel_rows(32);
        e.set_dop(1);
    }
    let schemas: Vec<Vec<TableInfo>> = engines.iter().map(|(_, e)| schema_of(e)).collect();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);

    let mut report = FuzzReport { seeds: seeds.to_vec(), budget, ..FuzzReport::default() };
    for &seed in seeds {
        let mut s = SmallRng::seed_from_u64(seed ^ 0xF0_5EED);
        for i in 0..budget {
            let which = i % engines.len();
            let (schema_name, engine) = (engines[which].0, &engines[which].1);
            let ctx = FuzzCtx { engine, orca: &orca };
            let lit_seeds = (
                seed.wrapping_mul(0x9E37).wrapping_add(2 * i as u64),
                seed.wrapping_mul(0x9E37).wrapping_add(2 * i as u64 + 1),
            );
            let case = gen_case(&mut s, lit_seeds, &schemas[which], i % 2 == 1);
            report.generated += 1;
            if engine.query(&case.spec.render()).is_ok() {
                report.executed += 1;
            }
            for oracle in Oracle::ALL {
                let hits_before = engine.plan_cache_stats().hits;
                let verdict = ctx.check(&case, oracle);
                // Count true rebind hits for the gate's sanity check.
                if oracle == Oracle::FreshVsRebound && engine.plan_cache_stats().hits > hits_before
                {
                    report.rebind_hits += 1;
                }
                record(&mut report, &ctx, &case, oracle, verdict, seed, i, schema_name);
            }
        }
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn record(
    report: &mut FuzzReport,
    ctx: &FuzzCtx,
    case: &FuzzCase,
    oracle: Oracle,
    verdict: Check,
    seed: u64,
    index: usize,
    schema: &'static str,
) {
    match verdict {
        Check::Invalid => {}
        Check::Pass => report.oracle_runs[oracle.index()] += 1,
        Check::Fail(detail) => {
            report.oracle_runs[oracle.index()] += 1;
            let small = minimize(ctx, case, oracle);
            let minimized = match oracle {
                Oracle::FreshVsRebound => {
                    format!("{} -- then rebind: {}", small.spec.render(), small.sibling.render())
                }
                Oracle::Tlp => format!(
                    "{} -- with p = {}",
                    small.spec.render(),
                    small.tlp_pred.as_deref().unwrap_or("?")
                ),
                _ => small.spec.render(),
            };
            report.failures.push(FuzzFailure {
                seed,
                index,
                schema,
                oracle,
                detail,
                sql: case.spec.render(),
                minimized,
            });
        }
    }
}

/// Markdown report for the harness.
pub fn format_fuzz_report(r: &FuzzReport) -> String {
    let mut out = format!(
        "seeds {:?} × {} queries (TPC-H / TPC-DS / adversarial rotation): \
         {} generated, {} executed on the reference path\n\n",
        r.seeds, r.budget, r.generated, r.executed
    );
    out += &md_table(
        "oracle | comparisons | miscompares",
        Oracle::ALL.iter().zip(r.oracle_runs).map(|(o, runs)| {
            let fails = r.failures.iter().filter(|f| f.oracle == *o).count();
            format!("{} | {runs} | {fails}", o.name())
        }),
    );
    out += &format!("\nplan-cache sibling rebind hits: {}\n", r.rebind_hits);
    for f in &r.failures {
        out += &format!(
            "\nFAIL [{}] seed={} #{} schema={}\n  {}\n  sql: {}\n  minimized: {}\n",
            f.oracle.name(),
            f.seed,
            f.index,
            f.schema,
            f.detail,
            f.sql,
            f.minimized
        );
    }
    out
}

/// The registry entry: `env.budget` queries for each of `env.seeds`.
pub fn run(env: &Env) -> Outcome {
    let seeds: Vec<u64> = env.seeds.clone().collect();
    let r = run_fuzz(&seeds, env.budget, env.scale);
    Outcome::gated(
        format_fuzz_report(&r),
        r.gate(),
        format!("{} queries × 8 oracles, zero miscompares", r.generated),
    )
}
