//! Property-based tests on the core invariants, driven by the in-repo
//! deterministic RNG (no proptest; the workspace must test offline).
//!
//! * rewrites (`factor_or`, `push_not`) preserve three-valued semantics on
//!   arbitrary expressions and rows;
//! * `Expr::truth` is `Expr::eval`'s truth, and a row view split at any
//!   boundaries evaluates like the contiguous row, errors included;
//! * the executor's guarded ORs (an OR decided FALSE by the conjunct every
//!   arm opens with) keep exactly the pairs `Expr::truth` keeps, and fail
//!   on the same pair with the same error;
//! * the metadata provider's OID cubes are bijective and commutation /
//!   inversion are involutions (§5.2–5.3);
//! * histogram selectivities are probabilities that partition correctly;
//! * `LIKE` matching agrees with a reference backtracking matcher;
//! * the string→i64 prefix encoding is order-preserving (§7);
//! * and the end-to-end invariant: random queries produce identical results
//!   under the MySQL optimizer and the Orca detour.

use taurus_orca::bridge::OrcaOptimizer;
use taurus_orca::catalog::encode_str_prefix;
use taurus_orca::catalog::histogram::Histogram;
use taurus_orca::common::expr::{factor_or, like_match, EvalCtx};
use taurus_orca::common::expr::{ScalarFunc, UnOp};
use taurus_orca::common::{BinOp, Expr, Layout, Value};
use taurus_orca::orcalite::OrcaConfig;
use taurus_orca::workloads::gen::SmallRng;
use taurus_orca::workloads::{tpch, Scale};

fn rng(test: &str) -> SmallRng {
    let mut seed = 0x005E_ED0F_9806_7E57_u64;
    for b in test.bytes() {
        seed = seed.wrapping_mul(0x0100_0000_01b3).wrapping_add(b as u64);
    }
    SmallRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------- rewrites

/// Random boolean expressions over 4 integer columns of one table, with
/// nesting depth up to 3 (the old proptest strategy's shape).
fn bool_expr(r: &mut SmallRng, depth: usize) -> Expr {
    let ops = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Ge];
    if depth == 0 || r.gen_bool(0.4) {
        let col = r.gen_range(0..4usize);
        let v = r.gen_range(0..5i64);
        let op = ops[r.gen_range(0..ops.len())];
        return Expr::binary(op, Expr::col(0, col), Expr::int(v));
    }
    match r.gen_range(0..3i32) {
        0 => Expr::and(bool_expr(r, depth - 1), bool_expr(r, depth - 1)),
        1 => Expr::or(bool_expr(r, depth - 1), bool_expr(r, depth - 1)),
        _ => Expr::not(bool_expr(r, depth - 1)),
    }
}

/// Random rows for that table; column values may be NULL.
fn row(r: &mut SmallRng) -> Vec<Value> {
    (0..4)
        .map(|_| if r.gen_bool(0.25) { Value::Null } else { Value::Int(r.gen_range(0..5i64)) })
        .collect()
}

#[test]
fn factor_or_preserves_three_valued_semantics() {
    let mut r = rng("factor_or");
    for _ in 0..256 {
        let e = bool_expr(&mut r, 3);
        let vals = row(&mut r);
        let layout = Layout::single(1, 0, 4);
        let ctx = EvalCtx::new(&vals, &layout);
        let before = e.clone().eval(ctx).unwrap().truth();
        let after = factor_or(e.clone()).eval(ctx).unwrap().truth();
        assert_eq!(before, after, "factor_or changed semantics of {e:?} on {vals:?}");
    }
}

#[test]
fn push_not_preserves_three_valued_semantics() {
    let mut r = rng("push_not");
    for _ in 0..256 {
        let e = bool_expr(&mut r, 3);
        let vals = row(&mut r);
        let layout = Layout::single(1, 0, 4);
        let ctx = EvalCtx::new(&vals, &layout);
        let before = Expr::not(e.clone()).eval(ctx).unwrap().truth();
        let after = mylite::resolve::push_not(Expr::not(e.clone())).eval(ctx).unwrap().truth();
        assert_eq!(before, after, "push_not changed semantics of NOT {e:?} on {vals:?}");
    }
}

// ------------------------------------------------------------- evaluation

/// Width of the rows the evaluation property runs over: three two-column
/// tables side by side. Table 3 exists in the query but not in the layout,
/// so a reference to it is the "column not covered" error.
const EVAL_WIDTH: usize = 6;

fn any_value(r: &mut SmallRng) -> Value {
    match r.gen_range(0..7i32) {
        0 => Value::Null,
        1 | 2 => Value::Int(r.gen_range(-2..4i64)),
        3 => Value::Double(r.gen_range(-4..6i64) as f64 / 2.0),
        4 => Value::str(["", "a", "ab", "b%", "_b"][r.gen_range(0..5usize)]),
        5 => Value::Date(r.gen_range(10_000..10_004i32)),
        _ => Value::Bool(r.gen_bool(0.5)),
    }
}

/// Random expression trees over every `Expr` variant except `Agg`: leaves
/// of every kind and type, all thirteen binary and four unary operators,
/// every scalar function (at arities right and wrong), CASE in both forms,
/// IN, LIKE and BETWEEN in both polarities.
fn any_expr(r: &mut SmallRng, depth: usize) -> Expr {
    if depth == 0 || r.gen_bool(0.3) {
        return match r.gen_range(0..5i32) {
            0 | 1 => Expr::col(r.gen_range(0..4usize), r.gen_range(0..2usize)),
            2 => Expr::Slot(r.gen_range(0..EVAL_WIDTH)),
            3 => Expr::lit(any_value(r)),
            _ => Expr::param(r.gen_range(0..3usize), any_value(r)),
        };
    }
    let sub = |r: &mut SmallRng| Box::new(any_expr(r, depth - 1));
    match r.gen_range(0..8i32) {
        0 | 1 => {
            const OPS: [BinOp; 13] = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Mod,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::And,
                BinOp::Or,
            ];
            Expr::Binary { op: OPS[r.gen_range(0..OPS.len())], left: sub(r), right: sub(r) }
        }
        2 => {
            const OPS: [UnOp; 4] = [UnOp::Not, UnOp::Neg, UnOp::IsNull, UnOp::IsNotNull];
            Expr::Unary { op: OPS[r.gen_range(0..OPS.len())], input: sub(r) }
        }
        3 => {
            const FUNCS: [ScalarFunc; 17] = [
                ScalarFunc::Abs,
                ScalarFunc::Round,
                ScalarFunc::Upper,
                ScalarFunc::Lower,
                ScalarFunc::Substr,
                ScalarFunc::Concat,
                ScalarFunc::Coalesce,
                ScalarFunc::Year,
                ScalarFunc::Month,
                ScalarFunc::Day,
                ScalarFunc::DateAddDays,
                ScalarFunc::DateAddMonths,
                ScalarFunc::DateAddYears,
                ScalarFunc::CastDate,
                ScalarFunc::CastStr,
                ScalarFunc::CastInt,
                ScalarFunc::CastDouble,
            ];
            let func = FUNCS[r.gen_range(0..FUNCS.len())];
            let args = (0..r.gen_range(1..4usize)).map(|_| *sub(r)).collect();
            Expr::Func { func, args }
        }
        4 => Expr::Case {
            operand: r.gen_bool(0.5).then(|| sub(r)),
            branches: (0..r.gen_range(1..3usize)).map(|_| (*sub(r), *sub(r))).collect(),
            else_: r.gen_bool(0.5).then(|| sub(r)),
        },
        5 => Expr::InList {
            expr: sub(r),
            list: (0..r.gen_range(1..4usize)).map(|_| *sub(r)).collect(),
            negated: r.gen_bool(0.5),
        },
        6 => Expr::Like { expr: sub(r), pattern: sub(r), negated: r.gen_bool(0.5) },
        _ => Expr::Between { expr: sub(r), low: sub(r), high: sub(r), negated: r.gen_bool(0.5) },
    }
}

#[test]
fn truth_is_evals_truth_and_split_views_evaluate_like_the_row() {
    let mut r = rng("truth_vs_eval");
    let layout =
        Layout::single(4, 0, 2).join(&Layout::single(4, 1, 2)).join(&Layout::single(4, 2, 2));
    let (mut errors, mut unknowns) = (0, 0);
    for _ in 0..2048 {
        let e = any_expr(&mut r, 3);
        let vals: Vec<Value> = (0..EVAL_WIDTH).map(|_| any_value(&mut r)).collect();
        let whole = EvalCtx::new(&vals, &layout);
        // Debug renderings: `Value`'s `==` calls Int(2) and Double(2.0)
        // equal, and this property is about the very same value.
        let value = format!("{:?}", e.eval(whole));
        let truth = e.truth(whole);
        assert_eq!(truth, e.eval(whole).map(|v| v.truth()), "{e} on {vals:?}");
        errors += truth.is_err() as usize;
        unknowns += (truth == Ok(None)) as usize;
        for i in 0..=EVAL_WIDTH {
            for j in i..=EVAL_WIDTH {
                let view = EvalCtx::split(&vals[..i], &vals[i..j], &vals[j..], &layout);
                assert_eq!(format!("{:?}", e.eval(view)), value, "{e} on {vals:?} split {i}/{j}");
                assert_eq!(e.truth(view), truth, "{e} on {vals:?} split {i}/{j}");
            }
        }
    }
    // The generator reaches the cases the property is about.
    assert!(errors > 100 && unknowns > 100, "errors={errors} unknowns={unknowns}");
}

/// A predicate leaf over qt 0 = `a(x INT, s STR)` and qt 1 = `b(y INT, t
/// STR)`: comparisons of columns, literals and params (the guard's slot
/// shapes), shapes only `Expr::truth` decides, and operands that error — a
/// wrong-arity call, a type error, a table no layout covers.
fn guard_leaf(r: &mut SmallRng) -> Expr {
    fn int_operand(r: &mut SmallRng) -> Expr {
        match r.gen_range(0..12i32) {
            0..=3 => Expr::col(0, 0),
            4..=6 => Expr::col(1, 0),
            7 | 8 => Expr::int(r.gen_range(0..3i64)),
            9 => Expr::param(0, Value::Int(1)),
            10 => Expr::lit(Value::Null),
            _ => Expr::col(2, 0),
        }
    }
    const CMPS: [BinOp; 6] = [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
    match r.gen_range(0..20i32) {
        0..=9 => Expr::binary(CMPS[r.gen_range(0..6usize)], int_operand(r), int_operand(r)),
        10..=12 => Expr::eq(
            Expr::col(0, 1),
            if r.gen_bool(0.5) { Expr::col(1, 1) } else { Expr::string("a") },
        ),
        13 | 14 => Expr::Unary { op: UnOp::IsNull, input: Box::new(int_operand(r)) },
        15 | 16 => Expr::Between {
            expr: Box::new(int_operand(r)),
            low: Box::new(Expr::int(0)),
            high: Box::new(int_operand(r)),
            negated: false,
        },
        17 => Expr::eq(
            Expr::Func { func: ScalarFunc::Upper, args: vec![Expr::col(1, 0)] },
            Expr::string("A"),
        ),
        18 => Expr::eq(
            Expr::Func { func: ScalarFunc::Abs, args: vec![Expr::col(0, 0), Expr::col(1, 0)] },
            Expr::int(1),
        ),
        _ => Expr::lit(Value::Bool(r.gen_bool(0.5))),
    }
}

/// An AND spine over `leaves`, nested to the left or to the right — either
/// way its leftmost leaf is `leaves[0]`.
fn and_spine(r: &mut SmallRng, leaves: Vec<Expr>) -> Expr {
    let right_deep = r.gen_bool(0.5);
    let fold = |acc: Expr, e: Expr| if right_deep { Expr::and(e, acc) } else { Expr::and(acc, e) };
    let mut it: Box<dyn Iterator<Item = Expr>> =
        if right_deep { Box::new(leaves.into_iter().rev()) } else { Box::new(leaves.into_iter()) };
    let first = it.next().expect("at least one leaf");
    it.fold(first, fold)
}

/// One conjunct of the three kinds: an OR whose arms all open with one
/// leaf (guarded), an OR whose arms carry that leaf only past their first
/// position (not guarded), or a lone arm with no OR at all.
fn guard_conjunct(r: &mut SmallRng, kind: i32) -> Expr {
    let g = guard_leaf(r);
    let arm = |r: &mut SmallRng| {
        let mut leaves: Vec<Expr> = (0..r.gen_range(0..3usize)).map(|_| guard_leaf(r)).collect();
        if kind == 1 {
            leaves.insert(0, guard_leaf(r));
            let at = r.gen_range(1..leaves.len() + 1);
            leaves.insert(at, g.clone());
        } else {
            leaves.insert(0, g.clone());
        }
        and_spine(r, leaves)
    };
    if kind == 2 {
        return arm(r);
    }
    let arms: Vec<Expr> = (0..r.gen_range(2..5usize)).map(|_| arm(r)).collect();
    if r.gen_bool(0.5) {
        arms.into_iter().reduce(Expr::or).expect("two arms or more")
    } else {
        arms.into_iter().rev().reduce(|acc, e| Expr::or(e, acc)).expect("two arms or more")
    }
}

#[test]
fn guarded_or_decides_every_pair_like_truth_at_the_join_and_the_filter() {
    use taurus_orca::catalog::Catalog;
    use taurus_orca::common::{Column, DataType, Schema, TableId};
    use taurus_orca::executor::{execute, AccessPath, Est, ExecContext, JoinKind, Plan, TableRead};

    let mut r = rng("guarded_or");
    let layout = Layout::single(3, 0, 2).join(&Layout::single(3, 1, 2));
    let (mut guarded, mut lead_false, mut errors, mut outputs) = (0, 0, 0, 0);
    for case in 0..400 {
        let mut cat = Catalog::new();
        let rows = |r: &mut SmallRng| -> Vec<Vec<Value>> {
            (0..6)
                .map(|_| {
                    let x = if r.gen_bool(0.2) {
                        Value::Null
                    } else {
                        Value::Int(r.gen_range(0..3i64))
                    };
                    let s = match r.gen_range(0..3i32) {
                        0 => Value::Null,
                        1 => Value::str("a"),
                        _ => Value::str("b"),
                    };
                    vec![x, s]
                })
                .collect()
        };
        for (name, cols) in [("a", ["x", "s"]), ("b", ["y", "t"])] {
            let schema = Schema::new(vec![
                Column::nullable(cols[0], DataType::Int),
                Column::nullable(cols[1], DataType::Str),
            ]);
            let t = cat.create_table(name, schema).unwrap();
            cat.insert(t, rows(&mut r)).unwrap();
        }
        let conjuncts: Vec<Expr> = (0..r.gen_range(1..4usize))
            .map(|_| {
                if r.gen_bool(0.25) {
                    guard_leaf(&mut r)
                } else {
                    let kind = r.gen_range(0..3i32);
                    let c = guard_conjunct(&mut r, kind);
                    if kind == 0 {
                        assert!(c.or_lead().is_some(), "shared lead not found in {c}");
                    } else if kind == 2 {
                        assert!(c.or_lead().is_none(), "a lone arm is no OR: {c}");
                    }
                    c
                }
            })
            .collect();

        // The reference: every pair of the cross product, left-major, each
        // conjunct decided by `Expr::truth` in order.
        let (a, b) = (cat.table(TableId(0)).unwrap(), cat.table(TableId(1)).unwrap());
        let pairs: Vec<Vec<Value>> = a
            .data
            .scan()
            .flat_map(|(_, l)| b.data.scan().map(move |(_, rr)| [l.clone(), rr.clone()].concat()))
            .collect();
        // `stop_at_unknown`: a filter stops at the first conjunct that is not
        // TRUE; a join's ON goes on past UNKNOWN (NOT IN needs the verdict).
        let reference = |stop_at_unknown: bool| -> Result<Vec<Vec<Value>>, String> {
            let mut out = Vec::new();
            for pair in &pairs {
                let view = EvalCtx::new(pair, &layout);
                let mut pass = true;
                for c in &conjuncts {
                    match c.truth(view).map_err(|e| e.to_string())? {
                        Some(true) => {}
                        Some(false) => {
                            pass = false;
                            break;
                        }
                        None => {
                            pass = false;
                            if stop_at_unknown {
                                break;
                            }
                        }
                    }
                }
                if pass {
                    out.push(pair.clone());
                }
            }
            Ok(out)
        };
        let scan = |t: usize| Plan::Scan {
            read: TableRead::all(TableId(t as u32), t, 2, vec![]),
            path: AccessPath::Heap,
            est: Est::default(),
        };
        let join = |on: Vec<Expr>| Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            on,
            null_aware: false,
            est: Est::default(),
        };
        let filter = Plan::Filter {
            input: Box::new(join(vec![])),
            predicate: conjuncts.clone(),
            est: Est::default(),
        };
        for (site, plan, stop_at_unknown) in
            [("join ON", join(conjuncts.clone()), false), ("filter", filter, true)]
        {
            let ctx = ExecContext::new(&cat, 3, 0);
            let got = execute(&plan, &ctx).map_err(|e| e.to_string());
            let want = reference(stop_at_unknown);
            assert_eq!(got, want, "case {case}, {site}: {conjuncts:?}");
            errors += want.is_err() as usize;
            outputs += want.map_or(0, |rows| rows.len());
        }
        for lead in conjuncts.iter().filter_map(|c| c.or_lead()) {
            guarded += 1;
            lead_false += pairs
                .iter()
                .filter(|p| lead.truth(EvalCtx::new(p, &layout)) == Ok(Some(false)))
                .count();
        }
    }
    // The generator reaches the cases the property is about.
    assert!(
        guarded > 100 && lead_false > 1000 && errors > 50 && outputs > 1000,
        "guarded={guarded} lead_false={lead_false} errors={errors} outputs={outputs}"
    );
}

// ---------------------------------------------------------------- OID cubes

#[test]
fn oid_decoders_partition_the_space() {
    use taurus_orca::bridge::oid;
    let mut r = rng("oid_partition");
    for _ in 0..512 {
        let raw = r.gen_range(0..3_000_000i64) as u64;
        let o = taurus_orca::common::Oid(raw);
        // At most one decoder accepts any OID (the §5.6 layout is
        // collision-free), and whatever decodes re-encodes to the same OID.
        let mut hits = 0;
        if let Some(t) = oid::decode_type(o) {
            hits += 1;
            assert_eq!(oid::type_oid(t), o);
        }
        if let Some((l, rr, op)) = oid::decode_arith(o) {
            hits += 1;
            assert_eq!(oid::arith_oid(l, rr, op).unwrap(), o);
        }
        if let Some((l, rr, op)) = oid::decode_cmp(o) {
            hits += 1;
            assert_eq!(oid::cmp_oid(l, rr, op).unwrap(), o);
        }
        if let Some((c, op)) = oid::decode_agg(o) {
            hits += 1;
            assert_eq!(oid::agg_oid(c, op).unwrap(), o);
        }
        if let Some(t) = oid::decode_relation(o) {
            hits += 1;
            assert_eq!(oid::relation_oid(t), o);
        }
        if let Some((t, c)) = oid::decode_column(o) {
            hits += 1;
            assert_eq!(oid::column_oid(t, c), o);
        }
        assert!(hits <= 1, "OID {raw} decoded by {hits} slots");
    }
}

#[test]
fn commutation_and_inversion_are_involutions() {
    use taurus_orca::bridge::oid;
    // The full comparison cube, exhaustively (it is small).
    for raw in 3_000u64..3_864 {
        let o = taurus_orca::common::Oid(raw);
        assert!(oid::decode_cmp(o).is_some());
        let c = oid::commutator_oid(o);
        assert_eq!(oid::commutator_oid(c), o);
        let i = oid::inverse_oid(o);
        assert_eq!(oid::inverse_oid(i), o);
    }
}

// --------------------------------------------------------------- histograms

#[test]
fn histogram_selectivities_partition() {
    let mut r = rng("hist_partition");
    for _ in 0..128 {
        let n = r.gen_range(1..300usize);
        let mut data: Vec<i64> = (0..n).map(|_| r.gen_range(-50..50i64)).collect();
        data.sort_unstable();
        let probe = r.gen_range(-60..60i64);
        let buckets = r.gen_range(1..20usize);
        let values: Vec<Value> = data.iter().map(|&i| Value::Int(i)).collect();
        let h = Histogram::build(&values, buckets).unwrap();
        let probe = Value::Int(probe);
        let lt = h.selectivity(BinOp::Lt, &probe);
        let eq = h.selectivity(BinOp::Eq, &probe);
        let gt = h.selectivity(BinOp::Gt, &probe);
        for s in [lt, eq, gt] {
            assert!((0.0..=1.0).contains(&s), "selectivity {s} out of range");
        }
        // <, =, > partition the non-null rows: exactly for singleton
        // histograms, approximately for equi-height (whose equality mass is
        // a bucket-NDV estimate, not an exact count).
        let slack = if h.is_singleton() { 1e-9 } else { 0.2 };
        assert!(
            (lt + eq + gt - 1.0).abs() <= slack,
            "lt={lt} eq={eq} gt={gt} singleton={}",
            h.is_singleton()
        );
    }
}

#[test]
fn histogram_lt_is_monotone() {
    let mut r = rng("hist_monotone");
    for _ in 0..128 {
        let n = r.gen_range(2..200usize);
        let mut data: Vec<i64> = (0..n).map(|_| r.gen_range(-50..50i64)).collect();
        data.sort_unstable();
        let a = r.gen_range(-60..60i64);
        let b = r.gen_range(-60..60i64);
        let values: Vec<Value> = data.iter().map(|&i| Value::Int(i)).collect();
        let h = Histogram::build(&values, 8).unwrap();
        let (lo, hi) = (a.min(b), a.max(b));
        let s_lo = h.selectivity(BinOp::Lt, &Value::Int(lo));
        let s_hi = h.selectivity(BinOp::Lt, &Value::Int(hi));
        assert!(s_lo <= s_hi + 1e-9, "Lt selectivity must be monotone: {s_lo} > {s_hi}");
    }
}

/// Random printable-ASCII string of length `0..=max`.
fn ascii_string(r: &mut SmallRng, max: usize, alphabet: &[u8]) -> String {
    let len = r.gen_range(0..max + 1);
    (0..len).map(|_| alphabet[r.gen_range(0..alphabet.len())] as char).collect()
}

#[test]
fn string_prefix_encoding_is_monotone() {
    let printable: Vec<u8> = (b' '..=b'~').collect();
    let mut r = rng("prefix_encoding");
    for _ in 0..512 {
        let a = ascii_string(&mut r, 16, &printable);
        let b = ascii_string(&mut r, 16, &printable);
        // The encoding is exactly the order of the zero-padded 8-byte
        // prefixes — monotone in byte order, with §7's caveat that longer
        // strings sharing an 8-byte prefix collapse.
        fn pad8(s: &str) -> [u8; 8] {
            let mut out = [0u8; 8];
            let n = s.len().min(8);
            out[..n].copy_from_slice(&s.as_bytes()[..n]);
            out
        }
        let (ea, eb) = (encode_str_prefix(&a), encode_str_prefix(&b));
        assert_eq!(ea.cmp(&eb), pad8(&a).cmp(&pad8(&b)), "{a:?} vs {b:?}");
        if a.as_bytes() <= b.as_bytes() {
            assert!(ea <= eb, "monotone: {a:?} vs {b:?}");
        }
    }
}

// -------------------------------------------------------------------- LIKE

/// Reference LIKE matcher: exponential backtracking, obviously correct.
fn like_reference(s: &[u8], p: &[u8]) -> bool {
    match (s.first(), p.first()) {
        (_, None) => s.is_empty(),
        (_, Some(b'%')) => {
            like_reference(s, &p[1..]) || (!s.is_empty() && like_reference(&s[1..], p))
        }
        (Some(c), Some(b'_')) => {
            let _ = c;
            like_reference(&s[1..], &p[1..])
        }
        (Some(c), Some(pc)) => c == pc && like_reference(&s[1..], &p[1..]),
        (None, Some(_)) => false,
    }
}

#[test]
fn like_match_agrees_with_reference() {
    let mut r = rng("like_match");
    for _ in 0..512 {
        let s = ascii_string(&mut r, 10, b"abc");
        let p = ascii_string(&mut r, 8, b"abc%_");
        assert_eq!(
            like_match(s.as_bytes(), p.as_bytes()),
            like_reference(s.as_bytes(), p.as_bytes()),
            "s={s:?} p={p:?}"
        );
    }
}

// --------------------------------------------------- end-to-end equivalence

/// Random single-block queries over the TPC-H schema: filters, a join or
/// two, optional grouping. Both optimizers must agree on the result.
#[test]
fn random_queries_agree_between_optimizers() {
    let engine = mylite::Engine::new(tpch::build_catalog(Scale(0.05)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let cmps = ["<", "<=", ">", ">=", "=", "<>"];
    let mut cases: Vec<String> = Vec::new();
    for i in 0..24 {
        let cmp = cmps[i % cmps.len()];
        let v = (i * 7) % 50;
        cases.push(format!(
            "SELECT COUNT(*) AS n FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity {cmp} {v}"
        ));
        cases.push(format!(
            "SELECT o_orderpriority, COUNT(*) AS n FROM orders, customer \
             WHERE o_custkey = c_custkey AND c_acctbal {cmp} {v} \
             GROUP BY o_orderpriority ORDER BY o_orderpriority"
        ));
        cases.push(format!(
            "SELECT COUNT(*) AS n FROM part, partsupp, supplier \
             WHERE p_partkey = ps_partkey AND ps_suppkey = s_suppkey \
               AND (p_size {cmp} {v} OR s_acctbal < 0)"
        ));
    }
    for sql in cases {
        let a = engine.query(&sql).unwrap_or_else(|e| panic!("mysql failed on {sql}: {e}"));
        let b =
            engine.query_with(&sql, &orca).unwrap_or_else(|e| panic!("orca failed on {sql}: {e}"));
        assert_eq!(a.rows, b.rows, "disagreement on {sql}");
    }
}
