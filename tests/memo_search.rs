//! The memo's diffable record and its search-space invariants.
//!
//! * `memo_plans_match_golden` plans all 22 TPC-H + 99 TPC-DS templates at
//!   threshold 1 under GREEDY, EXHAUSTIVE and EXHAUSTIVE2 and holds, per
//!   (template, strategy), the Fig 6 sketch (operator names with memo group
//!   ids), the whole physical tree (keys, consumed conjuncts, residuals),
//!   its id-free `shape` (join order, sides, implementations, index
//!   positions, keys — the column that moves only when a plan does),
//!   the root cost and rows as bit patterns, the EXPLAIN text and the three
//!   search counters against `tests/golden/memo_plans.tsv`, together with a
//!   budget sweep over a 10-member block. `BLESS=1 cargo test --test
//!   memo_search` rewrites the file; a change to the memo that is meant to
//!   keep the search as it is must pass without re-blessing.
//!   (Re-blessed once on purpose, when the search began to walk the join
//!   graph instead of the subset lattice: counters fell on every multi-join
//!   record and group ids moved with them; CHANGES.md names the records
//!   whose `shape` or root cost moved.)
//! * `search_space_is_monotone` checks, block by block on every template
//!   and on 320 seeded fuzzer queries, that a wider search never finds a
//!   costlier winner and that the ordered-root decision never beats
//!   `plain + sort` the wrong way.
//! * The rest pin the search space itself: what the bushy cap counts and how
//!   a capped block is traced, the EXHAUSTIVE2 : EXHAUSTIVE split ratio over
//!   TPC-DS, and blocks whose predicates leave the join graph in pieces.

mod golden;

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write;
use taurus_bench::gates::fuzz::{build_adversarial_catalog, gen_spec, schema_of};
use taurus_orca::bridge::plan_converter::to_skeleton;
use taurus_orca::bridge::tree_converter::{convert_block, InnerEstimates};
use taurus_orca::bridge::{FallbackReason, MySqlMdProvider, OrcaOptimizer};
use taurus_orca::mylite::optimizer::derived_output_rows_fb;
use taurus_orca::mylite::resolve::resolve_union_branches;
use taurus_orca::mylite::{BoundQuery, BoundStatement, Engine, Skeleton, TableSource};
use taurus_orca::orcalite::{
    cost, optimize_block_cached, BlockDesc, JoinOrderStrategy, MdCache, OrcaConfig, OrcaPlan,
    PhysNode, SearchBudget,
};
use taurus_orca::prelude::{Error, Result};
use taurus_orca::sql::rewrite::rewrite_set_ops;
use taurus_orca::sql::{parse, Statement};
use taurus_orca::workloads::gen::SmallRng;
use taurus_orca::workloads::{tpcds, tpch, Scale};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/memo_plans.tsv");

const STRATEGIES: [(&str, JoinOrderStrategy); 3] = [
    ("GREEDY", JoinOrderStrategy::Greedy),
    ("EXHAUSTIVE", JoinOrderStrategy::Exhaustive),
    ("EXHAUSTIVE2", JoinOrderStrategy::Exhaustive2),
];

/// The 121 templates with the engine each runs on.
fn templates() -> (Engine, Engine, Vec<(String, usize, String)>) {
    let h = Engine::new(tpch::build_catalog(Scale(0.1)));
    let ds = Engine::new(tpcds::build_catalog(Scale(0.1)));
    let mut all = Vec::new();
    for q in tpch::queries() {
        all.push((format!("tpch.{}", q.name), 0, q.sql));
    }
    for q in tpcds::queries() {
        all.push((format!("tpcds.{}", q.name), 1, q.sql));
    }
    (h, ds, all)
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The router's block walk (`router.rs::optimize_block`): derived members'
/// blocks first, then this block. `search` is handed every block's
/// description and returns the plan whose estimates flow outward.
fn walk_blocks(
    bound: &BoundStatement,
    provider: &MySqlMdProvider<'_>,
    md: &MdCache<'_>,
    block: &BoundQuery,
    outer: &BTreeSet<usize>,
    search: &mut dyn FnMut(&BlockDesc, &MdCache<'_>) -> Result<OrcaPlan>,
) -> Result<Skeleton> {
    let mut inner_estimates = InnerEstimates::new();
    let mut inner_skeletons: HashMap<usize, Skeleton> = HashMap::new();
    let mut inner_outer = outer.clone();
    inner_outer.extend(block.member_qts());
    for m in &block.members {
        if let TableSource::Derived { query, .. } = &bound.table(m.qt).source {
            let sk = walk_blocks(bound, provider, md, query, &inner_outer, search)?;
            let rows = derived_output_rows_fb(query, sk.root.rows(), None);
            inner_estimates.insert(m.qt, (rows, sk.root.cost()));
            inner_skeletons.insert(m.qt, sk);
        }
    }
    let (desc, _oids) = convert_block(bound, block, provider, &inner_estimates, outer)?;
    let plan = search(&desc, md)?;
    to_skeleton(&plan, block, &inner_skeletons)
}

/// Every block of every union branch of `sql`, through `search`.
fn for_each_block(
    engine: &Engine,
    sql: &str,
    search: &mut dyn FnMut(&BlockDesc, &MdCache<'_>) -> Result<OrcaPlan>,
) -> Result<()> {
    let Statement::Select(stmt) = parse(sql)? else {
        return Err(Error::semantic("expected SELECT"));
    };
    let cat = engine.catalog();
    for (bound, _all) in resolve_union_branches(&cat, &rewrite_set_ops(stmt)?)? {
        let provider = MySqlMdProvider::new(&cat);
        let md = MdCache::new(&provider);
        walk_blocks(&bound, &provider, &md, &bound.root, &BTreeSet::new(), search)?;
    }
    Ok(())
}

/// A plan without memo group ids, rows or costs: join order, sides,
/// implementation, index positions and keys. Group ids move whenever the
/// search creates fewer groups; this column moves only when the plan does.
fn shape(n: &PhysNode, out: &mut String) {
    let _ = match n {
        PhysNode::Scan { qt, .. } => write!(out, "scan({qt})"),
        PhysNode::IndexRange { qt, index, .. } => write!(out, "range({qt},{index})"),
        PhysNode::IndexScan { qt, index, .. } => write!(out, "ordered({qt},{index})"),
        PhysNode::InListProbes { qt, index, keys, .. } => {
            write!(out, "probes({qt},{index},{})", keys.len())
        }
        PhysNode::IndexLookup { qt, index, keys, .. } => {
            write!(out, "lookup({qt},{index},{keys:?})")
        }
        PhysNode::DerivedScan { qt, .. } => write!(out, "derived({qt})"),
        PhysNode::NLJoin { kind, null_aware, outer, inner, .. } => {
            let _ = write!(out, "nl:{}{}(", kind.name(), if *null_aware { ":na" } else { "" });
            shape(outer, out);
            out.push(',');
            shape(inner, out);
            write!(out, ")")
        }
        PhysNode::HashJoin { kind, null_aware, left, right, keys, .. } => {
            let _ = write!(out, "hash:{}{}(", kind.name(), if *null_aware { ":na" } else { "" });
            shape(left, out);
            out.push(',');
            shape(right, out);
            write!(out, ",{keys:?})")
        }
        PhysNode::Sort { input, keys, .. } => {
            let _ = write!(out, "sort{keys:?}(");
            shape(input, out);
            write!(out, ")")
        }
    };
}

/// One golden line for (template, strategy).
fn plan_record(engine: &Engine, key: &str, sql: &str, name: &str, s: JoinOrderStrategy) -> String {
    let cfg = OrcaConfig::with_strategy(s);
    let (mut sketch, mut tree, mut shapes) = (FNV_SEED, FNV_SEED, FNV_SEED);
    let (mut blocks, mut groups, mut splits, mut costed) = (0usize, 0usize, 0u64, 0u64);
    let (mut root_cost, mut root_rows) = (0u64, 0u64);
    for_each_block(engine, sql, &mut |desc, md| {
        let plan = optimize_block_cached(desc, md, &cfg)?;
        fnv(&mut sketch, plan.root.sketch().as_bytes());
        fnv(&mut tree, format!("{:?}", plan.root).as_bytes());
        let mut text = String::new();
        shape(&plan.root, &mut text);
        fnv(&mut shapes, text.as_bytes());
        blocks += 1;
        groups += plan.stats.groups;
        splits += plan.stats.splits_explored;
        costed += plan.stats.plans_costed;
        // The walk ends on the last branch's outermost block.
        root_cost = plan.root.cost().to_bits();
        root_rows = plan.root.rows().to_bits();
        Ok(plan)
    })
    .unwrap_or_else(|e| panic!("{key} under {name}: {e}"));
    // The same statement through the real router: its EXPLAIN text, and
    // its counters, which the walk above must reproduce.
    let orca = OrcaOptimizer::new(cfg, 1);
    let explain = engine.explain(sql, &orca).unwrap_or_else(|e| panic!("{key}: {e}"));
    let routed = orca.stats().search;
    assert_eq!(
        (routed.groups, routed.splits_explored, routed.plans_costed),
        (groups, splits, costed),
        "{key} under {name}: the test's block walk has drifted from the router's"
    );
    let mut text = FNV_SEED;
    fnv(&mut text, explain.as_bytes());
    format!(
        "{key}\t{name}\t{blocks}\t{sketch:016x}\t{tree:016x}\t{shapes:016x}\t{root_cost:016x}\t\
         {root_rows:016x}\t{text:016x}\t{groups}\t{splits}\t{costed}"
    )
}

/// The 10-member block of the budget sweep: a TPC-DS store_sales star.
const SWEEP_SQL: &str = "SELECT i_item_id, s_store_name, COUNT(*) \
    FROM store_sales, date_dim, item, store, customer, customer_address, \
         customer_demographics, household_demographics, promotion, store_returns \
    WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk \
      AND ss_store_sk = s_store_sk AND ss_customer_sk = c_customer_sk \
      AND c_current_addr_sk = ca_address_sk AND ss_cdemo_sk = cd_demo_sk \
      AND ss_hdemo_sk = hd_demo_sk AND ss_promo_sk = p_promo_sk \
      AND sr_item_sk = ss_item_sk AND sr_ticket_number = ss_ticket_number \
      AND d_year = 2000 AND ca_state = 'TX' \
    GROUP BY i_item_id, s_store_name";

/// Where the degradation ladder lands at one budget: the rung and strategy
/// of the trace and what the search that succeeded there spent, or `native`
/// once every rung is exhausted.
fn sweep_record(engine: &Engine, which: &str, limit: u64) -> String {
    let budget = match which {
        "max_groups" => SearchBudget { max_groups: limit as usize, ..SearchBudget::UNLIMITED },
        _ => SearchBudget { max_plans_costed: limit, ..SearchBudget::UNLIMITED },
    };
    let orca = OrcaOptimizer::new(OrcaConfig { budget, ..OrcaConfig::default() }, 1);
    let planned =
        engine.plan(SWEEP_SQL, &orca).expect("the router never fails a plannable statement");
    let skeleton = &planned.primary().skeleton;
    let landed = match &skeleton.search {
        None => {
            let reason = skeleton.orca_fallback.as_deref();
            assert_eq!(reason, Some(FallbackReason::BudgetExhausted.name()));
            "native\t-\t-\t-".to_string()
        }
        Some(t) => {
            format!(
                "rung{} {}\t{}\t{}\t{}",
                t.rung, t.strategy, t.groups, t.group_exprs, t.plans_costed
            )
        }
    };
    format!("sweep.{which}\t{limit}\t{landed}")
}

fn golden_text() -> String {
    let (h, ds, all) = templates();
    let mut out = String::from(
        "# template\tstrategy\tblocks\tsketch\ttree\tshape\troot_cost\troot_rows\texplain\t\
         groups\tsplits_explored\tplans_costed\n",
    );
    for (key, side, sql) in &all {
        let engine = if *side == 0 { &h } else { &ds };
        for (name, s) in STRATEGIES {
            let _ = writeln!(out, "{}", plan_record(engine, key, sql, name, s));
        }
    }
    // The sweep: powers of two, plus the last few budgets below what each
    // strategy spends unbudgeted — the exact points where a rung starts to
    // fit. Budgets count created groups and costed plans.
    out.push_str("# sweep\tlimit\tlanded\tgroups\tsplits_explored\tplans_costed\n");
    let mut costed_limits: Vec<u64> = (4..24).map(|s| 1 << s).collect();
    let mut group_limits: Vec<u64> = (1..14).map(|s| 1 << s).collect();
    for (_, s) in STRATEGIES {
        for_each_block(&ds, SWEEP_SQL, &mut |desc, md| {
            assert_eq!(desc.members.len(), 10, "the sweep is over a 10-member block");
            let plan = optimize_block_cached(desc, md, &OrcaConfig::with_strategy(s))?;
            costed_limits.extend(plan.stats.plans_costed - 4..=plan.stats.plans_costed);
            group_limits.extend(plan.stats.groups as u64 - 2..=plan.stats.groups as u64);
            Ok(plan)
        })
        .expect("the sweep block plans");
    }
    for (which, mut limits) in [("max_plans_costed", costed_limits), ("max_groups", group_limits)] {
        limits.sort_unstable();
        limits.dedup();
        for limit in limits {
            let _ = writeln!(out, "{}", sweep_record(&ds, which, limit));
        }
    }
    out
}

#[test]
fn memo_plans_match_golden() {
    golden::check(GOLDEN, &golden_text());
}

/// Whether a block's conjuncts (the WHERE pool and the ON lists) leave its
/// members in more than one piece: the shapes where the join graph has to
/// supply a cross product, or has only a dependency to walk along.
fn loosely_joined(desc: &BlockDesc) -> bool {
    let members = desc.member_qts();
    let mut piece: HashMap<usize, usize> = members.iter().map(|&qt| (qt, qt)).collect();
    let pool = desc.predicates.iter().map(|c| (None, c));
    let ons = desc.members.iter().flat_map(|m| m.entry.on().iter().map(|c| (Some(m.qt), c)));
    for (owner, conjunct) in pool.chain(ons) {
        let mut tables = conjunct.referenced_tables();
        tables.extend(owner);
        let mut joined = tables.iter().filter_map(|t| piece.get(t).copied());
        let Some(to) = joined.next() else { continue };
        for from in joined.collect::<Vec<_>>() {
            piece.values_mut().filter(|p| **p == from).for_each(|p| *p = to);
        }
    }
    piece.values().collect::<BTreeSet<_>>().len() > 1
}

/// Block-level invariants on one statement; returns how many blocks were
/// checked, and how many of them were loosely joined. Every strategy sees
/// the same block description, so the comparison is of search spaces alone.
fn check_monotone(engine: &Engine, key: &str, sql: &str) -> Result<(usize, usize)> {
    let (mut checked, mut loose) = (0, 0);
    for_each_block(engine, sql, &mut |desc, md| {
        let plan = |s: JoinOrderStrategy, order_properties: bool| {
            let cfg = OrcaConfig { order_properties, ..OrcaConfig::with_strategy(s) };
            optimize_block_cached(desc, md, &cfg)
        };
        let [greedy, exh, exh2] = [
            plan(JoinOrderStrategy::Greedy, false)?,
            plan(JoinOrderStrategy::Exhaustive, false)?,
            plan(JoinOrderStrategy::Exhaustive2, false)?,
        ];
        let (g, e, e2) = (greedy.root.cost(), exh.root.cost(), exh2.root.cost());
        assert!(e2 <= e && e <= g, "{key}: EXHAUSTIVE2 {e2} ≤ EXHAUSTIVE {e} ≤ GREEDY {g}");
        assert_eq!(exh2.root.rows().to_bits(), greedy.root.rows().to_bits(), "{key}: rows");
        for (plain, s) in
            [(&exh, JoinOrderStrategy::Exhaustive), (&exh2, JoinOrderStrategy::Exhaustive2)]
        {
            let ordered = plan(s, true)?;
            let (oc, pc) = (ordered.root.cost(), plain.root.cost());
            assert!(
                oc == pc || oc < pc + cost::sort(plain.root.rows()),
                "{key}: ordered root {oc} vs plain {pc} + sort"
            );
        }
        checked += 1;
        loose += usize::from(loosely_joined(desc));
        plan(JoinOrderStrategy::Exhaustive2, true)
    })?;
    Ok((checked, loose))
}

#[test]
fn search_space_is_monotone() {
    let (h, ds, all) = templates();
    for (key, side, sql) in &all {
        let engine = if *side == 0 { &h } else { &ds };
        check_monotone(engine, key, sql).unwrap_or_else(|e| panic!("{key}: {e}"));
    }
    // 320 fuzzer queries, rotated over the three schemas as the fuzz gate
    // does; the generator draws CROSS JOINs and ON lists that mention only
    // the joined table, so a share of the blocks is loosely joined. A
    // generated query the detour cannot convert is skipped, not failed:
    // the fuzz gate owns that verdict.
    let engines = [h, ds, Engine::new(build_adversarial_catalog())];
    let schemas: Vec<_> = engines.iter().map(schema_of).collect();
    let mut structure = SmallRng::seed_from_u64(0x005e_a2c4);
    let (mut blocks, mut loose) = (0, 0);
    for i in 0..320u64 {
        let which = i as usize % engines.len();
        let mut literals = SmallRng::seed_from_u64(i);
        let sql = gen_spec(&mut structure, &mut literals, &schemas[which]).render();
        let checked = check_monotone(&engines[which], &sql, &sql).unwrap_or((0, 0));
        (blocks, loose) = (blocks + checked.0, loose + checked.1);
    }
    // 379 blocks, 36 of them loosely joined, when this was written.
    assert!(blocks >= 240, "only {blocks} fuzzer blocks were checked");
    assert!(loose >= 30, "only {loose} loosely joined fuzzer blocks were checked");
}

/// The first line of the `[search: …]` trace of `sql` at threshold 1.
fn trace_line(engine: &Engine, sql: &str) -> String {
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let text = engine.explain(sql, &orca).expect("the statement explains");
    text.lines().nth(1).expect("a trace line follows the banner").to_string()
}

/// A block over `bushy_member_cap` runs EXHAUSTIVE2 left-deep, and its
/// trace has to say so: fourteen copies of `date_dim`, every pair equated.
#[test]
fn capped_block_names_the_strategy_that_ran() {
    let ds = Engine::new(tpcds::build_catalog(Scale(0.1)));
    let from: Vec<String> = (1..=14).map(|i| format!("date_dim d{i}")).collect();
    let pairs: Vec<String> = (1..=14)
        .flat_map(|a| (a + 1..=14).map(move |b| format!("d{a}.d_date_sk = d{b}.d_date_sk")))
        .collect();
    let sql = format!("SELECT COUNT(*) FROM {} WHERE {}", from.join(", "), pairs.join(" AND "));
    let trace = trace_line(&ds, &sql);
    assert!(
        trace.starts_with("[search: strategy=EXHAUSTIVE2→EXHAUSTIVE(cap 13) rung=0 "),
        "{trace}"
    );
}

/// The cap counts the members there is an order to search for. TPC-DS q9's
/// outer block is `warehouse` and 15 uncorrelated scalar subqueries, each
/// chained to the end of the join order: one member to place, so it runs
/// (and reads) EXHAUSTIVE2, one split per chained member.
#[test]
fn chained_members_do_not_count_toward_the_bushy_cap() {
    let ds = Engine::new(tpcds::build_catalog(Scale(0.1)));
    let trace = trace_line(&ds, &tpcds::query(9).sql);
    assert!(trace.starts_with("[search: strategy=EXHAUSTIVE2 rung=0 "), "{trace}");
    assert!(trace.contains(" group_exprs=15 "), "{trace}");
}

/// Table 1's ratio as a count that repeats exactly: over the 99 TPC-DS
/// templates bushy DP explores at most 3× the splits of left-deep DP
/// (17.9× when both walked the subset lattice).
#[test]
fn bushy_search_space_stays_within_three_left_deep_ones() {
    let ds = Engine::new(tpcds::build_catalog(Scale(0.1)));
    let splits = |s: JoinOrderStrategy| {
        let (cfg, mut sum) = (OrcaConfig::with_strategy(s), 0);
        for q in tpcds::queries() {
            for_each_block(&ds, &q.sql, &mut |desc, md| {
                let plan = optimize_block_cached(desc, md, &cfg)?;
                sum += plan.stats.splits_explored;
                Ok(plan)
            })
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        }
        sum
    };
    let (exh, exh2) =
        (splits(JoinOrderStrategy::Exhaustive), splits(JoinOrderStrategy::Exhaustive2));
    assert!(exh2 <= 3 * exh, "EXHAUSTIVE2 {exh2} splits against EXHAUSTIVE {exh}");
}

/// Joins that carry no condition: nested loops (never lookups) with an
/// empty ON. A hash join always has a key.
fn cross_products(n: &PhysNode) -> usize {
    match n {
        PhysNode::NLJoin { outer, inner, on, .. } => {
            let here = on.is_empty() && !matches!(**inner, PhysNode::IndexLookup { .. });
            usize::from(here) + cross_products(outer) + cross_products(inner)
        }
        PhysNode::HashJoin { left, right, .. } => cross_products(left) + cross_products(right),
        PhysNode::Sort { input, .. } => cross_products(input),
        _ => 0,
    }
}

/// Where the query offers no predicate the graph is linked so that exactly
/// one cross product per missing edge is admitted; where a dependent's own
/// ON conjunct is its only link, none is.
#[test]
fn disconnected_and_dependency_only_graphs_plan_and_agree() {
    let h = Engine::new(tpch::build_catalog(Scale(0.1)));
    let cases = [
        ("no predicate at all", 1, "SELECT COUNT(*), MIN(n_name), MAX(r_name) FROM nation, region"),
        (
            "two joined pairs with nothing between them",
            1,
            "SELECT COUNT(*), SUM(s_acctbal) FROM nation, region, supplier, part \
             WHERE n_regionkey = r_regionkey AND r_name = 'ASIA' \
               AND s_suppkey = p_partkey AND p_size < 10",
        ),
        (
            "a semi-joined table linked by its own ON conjunct only",
            0,
            "SELECT COUNT(*), MIN(n_name) FROM nation, region WHERE n_regionkey = r_regionkey \
               AND EXISTS (SELECT 1 FROM supplier WHERE s_nationkey = n_nationkey)",
        ),
    ];
    for (what, missing_edges, sql) in cases {
        let native = h.query(sql).unwrap_or_else(|e| panic!("{what}: {e}"));
        for (name, s) in STRATEGIES {
            let cfg = OrcaConfig::with_strategy(s);
            for_each_block(&h, sql, &mut |desc, md| {
                let plan = optimize_block_cached(desc, md, &cfg)?;
                assert_eq!(cross_products(&plan.root), missing_edges, "{what} under {name}");
                Ok(plan)
            })
            .unwrap_or_else(|e| panic!("{what} under {name}: {e}"));
            let orca = OrcaOptimizer::new(cfg, 1);
            let routed = h.query_with(sql, &orca).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(routed.rows, native.rows, "{what} under {name}");
            let stats = orca.stats();
            assert_eq!((stats.routed, stats.fallbacks), (1, 0), "{what} under {name}");
        }
    }
}
