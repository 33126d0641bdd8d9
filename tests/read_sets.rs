//! Read sets: every leaf emits only the columns its plan reads.
//!
//! Refinement gives each leaf scan a column mask, and the leaf copies only
//! those columns of the rows its filter passes. For every TPC-H and TPC-DS
//! template under both optimizers this suite checks the three things that
//! make the masks safe and worth having: every column the plan names still
//! has a slot where it is read, the leaves emit fewer values than the tables
//! hold, and the answer is byte-identical to the same plan with every mask
//! widened to all columns.

use taurus_orca::bridge::OrcaOptimizer;
use taurus_orca::common::{Expr, Layout, ALL_COLUMNS};
use taurus_orca::executor::{Plan, RowSpace};
use taurus_orca::mylite::{CostBasedOptimizer, Engine, MySqlOptimizer};
use taurus_orca::orcalite::OrcaConfig;
use taurus_orca::workloads::{tpcds, tpch, Scale};

/// Every node of the tree, pre-order.
fn nodes(plan: &Plan) -> Vec<&Plan> {
    let mut out = vec![plan];
    for c in plan.children() {
        out.extend(nodes(c));
    }
    out
}

/// The leaf's mask.
fn mask_mut(plan: &mut Plan) -> Option<&mut u64> {
    match plan {
        Plan::Scan { read, .. } => Some(&mut read.mask),
        _ => None,
    }
}

/// The same plan with every leaf reading all of its columns.
fn read_everything(plan: &mut Plan) {
    if let Some(mask) = mask_mut(plan) {
        *mask = ALL_COLUMNS;
    }
    for c in plan.children_mut() {
        read_everything(c);
    }
}

/// Values per row summed over the leaves: as emitted, and as stored.
fn leaf_widths(plan: &Plan, num_tables: usize) -> (usize, usize) {
    let mut widths = (0, 0);
    for node in nodes(plan) {
        if let Plan::Scan { read, .. } = node {
            widths.0 += node.space(num_tables).width();
            widths.1 += read.width;
        }
    }
    widths
}

/// Every `Expr::Column` of the plan has a slot in the layout it is read
/// under: a leaf's own filter under the stored row's, any other expression
/// under the layout of the node that emits its table — a leaf's read set,
/// or a derived table's row.
fn assert_columns_resolve(plan: &Plan, num_tables: usize, name: &str) {
    let mut emitted = vec![None; num_tables];
    let mut stored = vec![None; num_tables];
    for node in nodes(plan) {
        let (qt, width) = match node {
            Plan::Scan { read, .. } => (read.qt, read.width),
            Plan::Derived { qt, width, .. } => (*qt, *width),
            _ => continue,
        };
        let RowSpace::Tables(layout) = node.space(num_tables) else {
            panic!("{name}: a leaf in slot space")
        };
        emitted[qt] = Some(layout);
        stored[qt] = Some(Layout::single(num_tables, qt, width));
    }
    let mut plan = plan.clone();
    plan.for_each_expr_mut(&mut |leaf, e| {
        e.walk(&mut |n| {
            let Expr::Column(c) = n else { return };
            let under = if leaf == Some(c.table) { &stored } else { &emitted };
            let layout = under[c.table].as_ref().unwrap_or_else(|| {
                panic!("{name}: t{}.c{} names a table no node emits", c.table, c.col)
            });
            let slot = layout.slot(c.table, c.col);
            assert!(slot.is_some(), "{name}: t{}.c{} has no slot", c.table, c.col);
        })
    });
}

fn check_suite(engine: &Engine, opt: &dyn CostBasedOptimizer, queries: Vec<(String, String)>) {
    for (name, sql) in queries {
        let planned = engine.plan(&sql, opt).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut widened = planned.clone();
        for (branch, wide) in planned.branches.iter().zip(&mut widened.branches) {
            let n = branch.bound.num_tables();
            assert_columns_resolve(&branch.plan, n, &name);
            read_everything(&mut wide.plan);
            let (read, stored) = leaf_widths(&branch.plan, n);
            assert_eq!(leaf_widths(&wide.plan, n), (stored, stored), "{name}");
            assert!(read < stored, "{name}: leaves emit {read} of {stored} values per row");
        }
        let narrow = engine.execute_planned(&planned).unwrap_or_else(|e| panic!("{name}: {e}"));
        let whole = engine.execute_planned(&widened).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(format!("{:?}", narrow.rows), format!("{:?}", whole.rows), "{name}");
        assert_eq!(narrow.work_units, whole.work_units, "{name}");
    }
}

#[test]
fn every_template_reads_less_and_answers_the_same_under_both_optimizers() {
    let h = Engine::new(tpch::build_catalog(Scale(0.05)));
    let ds = Engine::new(tpcds::build_catalog(Scale(0.05)));
    let h_queries = || tpch::queries().into_iter().map(|q| (format!("tpch.{}", q.name), q.sql));
    let ds_queries = || tpcds::queries().into_iter().map(|q| (format!("tpcds.{}", q.name), q.sql));
    check_suite(&h, &MySqlOptimizer, h_queries().collect());
    check_suite(&h, &OrcaOptimizer::new(OrcaConfig::default(), 3), h_queries().collect());
    check_suite(&ds, &MySqlOptimizer, ds_queries().collect());
    check_suite(&ds, &OrcaOptimizer::new(OrcaConfig::default(), 2), ds_queries().collect());
}
