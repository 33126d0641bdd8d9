//! Plan-shape assertions for the paper's case studies.
//!
//! These tests pin the *qualitative* claims of the paper's figures: which
//! optimizer produces which tree shape, which join methods appear, where
//! materialization/invalidation shows up, and how the best-position arrays
//! are laid out.

use taurus_orca::bridge::OrcaOptimizer;
use taurus_orca::common::Value;
use taurus_orca::executor::Plan;
use taurus_orca::mylite::{AccessChoice, Engine, MySqlOptimizer};
use taurus_orca::orcalite::OrcaConfig;
use taurus_orca::workloads::{tpcds, tpch, Scale};

fn tpcds_engine() -> Engine {
    Engine::new(tpcds::build_catalog(Scale(0.1)))
}

fn tpch_engine() -> Engine {
    Engine::new(tpch::build_catalog(Scale(0.1)))
}

#[test]
fn fig4_mysql_q72_is_left_deep_and_nlj_heavy() {
    let engine = tpcds_engine();
    let planned = engine.plan(&tpcds::query(72).sql, &MySqlOptimizer).unwrap();
    let plan = &planned.primary().plan;
    let (nl, hj) = plan.join_method_counts();
    // Fig 4: ten joins, all but one nested loops, strictly left-deep.
    assert_eq!(nl + hj, 10, "Q72 joins 11 tables");
    assert!(nl >= 8, "MySQL favours nested loops (Fig 4): {nl} NLJ / {hj} HJ");
    assert!(plan.is_left_deep(), "MySQL only generates left-deep plans (§1 item 1)");
}

#[test]
fn fig5_orca_q72_uses_more_hash_joins() {
    let engine = tpcds_engine();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 2);
    let mysql = engine.plan(&tpcds::query(72).sql, &MySqlOptimizer).unwrap();
    let orca_planned = engine.plan(&tpcds::query(72).sql, &orca).unwrap();
    let (_, mysql_hj) = mysql.primary().plan.join_method_counts();
    let (_, orca_hj) = orca_planned.primary().plan.join_method_counts();
    assert!(
        orca_hj > mysql_hj,
        "Fig 5: Orca chooses more hash joins ({orca_hj}) than MySQL ({mysql_hj})"
    );
    // And the Orca plan does less work.
    let m = engine.execute_planned(&mysql).unwrap();
    let o = engine.execute_planned(&orca_planned).unwrap();
    assert!(
        o.work_units < m.work_units,
        "Fig 4/5: Orca {} vs MySQL {} work units",
        o.work_units,
        m.work_units
    );
}

#[test]
fn fig7_q17_best_position_arrays() {
    let engine = tpch_engine();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let q17 = &tpch::queries()[16];
    let planned = engine.plan(&q17.sql, &orca).unwrap();
    let branch = planned.primary();
    assert!(branch.skeleton.orca_assisted);
    // Fig 7: outer block = [part, derived, lineitem]-style array with the
    // materialized derived table between the two base tables; the inner
    // block (Query Block 2) trivially contains [lineitem].
    let namer = |qt: usize| branch.bound.tables[qt].display_name.clone();
    let display = branch.skeleton.best_position_display(&namer);
    assert!(display.contains("part"), "{display}");
    assert!(display.contains("derived"), "{display}");
    assert!(display.contains("lineitem"), "{display}");
    let positions = branch.skeleton.root.best_positions();
    assert_eq!(positions.len(), 3);
    let derived = positions
        .iter()
        .find(|p| matches!(p.access, AccessChoice::Derived { .. }))
        .expect("derived table in the best-position array");
    if let AccessChoice::Derived { skeleton } = &derived.access {
        assert_eq!(skeleton.root.best_positions().len(), 1, "Query Block 2 = [lineitem]");
    }
    // §4.2.2: Orca's estimates are copied onto the positions.
    assert!(positions.iter().all(|p| p.cost > 0.0));
}

#[test]
fn listing7_q17_explain_features() {
    let engine = tpch_engine();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let q17 = &tpch::queries()[16];
    let text = engine.explain(&q17.sql, &orca).unwrap();
    // First line indicates the plan was Orca-assisted.
    assert!(text.starts_with("EXPLAIN (ORCA)"), "{text}");
    // The correlated derived table re-materializes per outer row (the red
    // "invalidate" annotations).
    assert!(text.contains("Materialize (invalidate on outer row)"), "{text}");
    // The scalar-subquery LEFT JOIN was converted to INNER by the
    // null-rejecting `<` predicate (the blue annotation): no left join over
    // the derived table remains.
    assert!(text.contains("inner join"), "{text}");
    assert!(text.contains("derived"), "{text}");
}

#[test]
fn q41_plans_differ_exactly_by_or_factorization() {
    let engine = tpcds_engine();
    let sql = &tpcds::query(41).sql;
    let on = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let off = OrcaOptimizer::new(
        OrcaConfig { enable_or_factorization: false, ..OrcaConfig::default() },
        1,
    );
    let with_rule = engine.plan(sql, &on).unwrap();
    let without_rule = engine.plan(sql, &off).unwrap();
    let (_, hj_on) = with_rule.primary().plan.join_method_counts();
    let (_, hj_off) = without_rule.primary().plan.join_method_counts();
    assert!(hj_on > hj_off, "factorization enables the hash join: {hj_on} vs {hj_off}");
    let a = engine.execute_planned(&with_rule).unwrap();
    let b = engine.execute_planned(&without_rule).unwrap();
    assert_eq!(a.rows, b.rows, "the rewrite is semantics-preserving");
    // The gap grows with scale (the paper reports 222× at SF 100); at this
    // test scale we only pin the direction.
    assert!(a.work_units < b.work_units, "and cheaper: {} vs {}", a.work_units, b.work_units);
}

#[test]
fn inner_hash_join_build_side_flip() {
    // §7 item 2: Orca-translated inner hash joins build on MySQL's left.
    let engine = tpcds_engine();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    // customer_demographics has no index usable from store_sales' side, so
    // the equi-join must hash; the 800-row fact probes the 63-row build.
    let planned = engine
        .plan(
            "SELECT COUNT(*) AS n FROM store_sales, customer_demographics \
             WHERE ss_cdemo_sk = cd_demo_sk",
            &orca,
        )
        .unwrap();
    fn find_inner_hash(plan: &Plan) -> Option<bool> {
        match plan {
            Plan::HashJoin { kind: taurus_orca::executor::JoinKind::Inner, build_left, .. } => {
                Some(*build_left)
            }
            _ => plan.children().iter().find_map(|c| find_inner_hash(c)),
        }
    }
    let build_left = find_inner_hash(&planned.primary().plan)
        .expect("an equi-join with no usable index on the probe side must hash");
    assert!(build_left, "MySQL builds inner hash joins on the left (§7 item 2)");
    // And Orca's intended (smaller) build side is the left child.
    if let Plan::HashJoin { left, right, .. } = find_hash(&planned.primary().plan).unwrap() {
        assert!(
            left.est().rows <= right.est().rows,
            "build child (left) should be the smaller side: {} vs {}",
            left.est().rows,
            right.est().rows
        );
    }
}

fn find_hash(plan: &Plan) -> Option<&Plan> {
    match plan {
        Plan::HashJoin { .. } => Some(plan),
        _ => plan.children().into_iter().find_map(find_hash),
    }
}

#[test]
fn q72_left_outer_joins_stay_outer() {
    // The promotion/catalog_returns LEFT JOINs have no null-rejecting WHERE
    // predicates — both plans must keep them outer (NULL-extended rows
    // drive the `p_promo_sk IS NULL` CASE).
    let engine = tpcds_engine();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 2);
    for opt in [&MySqlOptimizer as &dyn taurus_orca::mylite::CostBasedOptimizer, &orca] {
        let planned = engine.plan(&tpcds::query(72).sql, opt).unwrap();
        fn count_outer(plan: &Plan) -> usize {
            let own = match plan {
                Plan::NestedLoop { kind: taurus_orca::executor::JoinKind::LeftOuter, .. }
                | Plan::HashJoin { kind: taurus_orca::executor::JoinKind::LeftOuter, .. } => 1,
                _ => 0,
            };
            own + plan.children().iter().map(|c| count_outer(c)).sum::<usize>()
        }
        assert_eq!(count_outer(&planned.primary().plan), 2, "two LEFT JOINs survive");
    }
}

#[test]
fn an_uncorrelated_inner_side_over_derived_tables_is_buffered() {
    // TPC-DS q31 joins six consumers of two CTEs. Under Orca, nested loops
    // re-open inner sides that join two of them: each must be buffered once
    // (MySQL's join buffering), not re-joined for every outer row.
    let engine = Engine::new(tpcds::build_catalog(Scale(0.05)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 2);
    let sql = &tpcds::query(31).sql;
    let planned = engine.plan(sql, &orca).unwrap();
    /// For each nested loop whose inner side holds a derived table: whether
    /// that inner side is a `Materialize`.
    fn inner_sides(plan: &Plan, out: &mut Vec<bool>) {
        fn has_derived(p: &Plan) -> bool {
            matches!(p, Plan::Derived { .. }) || p.children().into_iter().any(has_derived)
        }
        if let Plan::NestedLoop { right, .. } = plan {
            if has_derived(right) {
                out.push(matches!(**right, Plan::Materialize { .. }));
            }
        }
        plan.children().into_iter().for_each(|c| inner_sides(c, out));
    }
    let mut sides = Vec::new();
    inner_sides(&planned.primary().plan, &mut sides);
    assert!(!sides.is_empty(), "q31's Orca plan re-opens an inner side over derived tables");
    assert!(sides.iter().all(|&m| m), "unbuffered inner sides over derived tables: {sides:?}");
    // Buffering changes no answer (sums to the cent: the two plans add in
    // different orders).
    let canon = |rows: Vec<taurus_orca::common::Row>| {
        let text = |v: &Value| match v {
            Value::Double(d) => format!("{d:.6}"),
            v => v.to_string(),
        };
        let mut out: Vec<Vec<String>> = rows.iter().map(|r| r.iter().map(text).collect()).collect();
        out.sort();
        out
    };
    let orca_rows = canon(engine.execute_planned(&planned).unwrap().rows);
    assert_eq!(orca_rows, canon(engine.query(sql).unwrap().rows));
    assert!(!orca_rows.is_empty());
}
