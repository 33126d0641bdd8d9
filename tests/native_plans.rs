//! The native optimizer's diffable record.
//!
//! `native_plans_match_golden` holds one FNV hash of `Engine::explain` under
//! `MySqlOptimizer` per TPC-H and TPC-DS template at Scale 0.05 against
//! `tests/golden/native_plans.tsv` — the guard `memo_plans.tsv` gives the
//! memo, for the plans the MySQL-style optimizer chooses. `BLESS=1 cargo
//! test --test native_plans` rewrites the file; a change to the native
//! optimizer that is meant to keep its plans must pass without re-blessing.

use std::fmt::Write;
use taurus_orca::mylite::{Engine, MySqlOptimizer};
use taurus_orca::workloads::{tpcds, tpch, Scale};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/native_plans.tsv");

fn golden_text() -> String {
    let h = Engine::new(tpch::build_catalog(Scale(0.05)));
    let ds = Engine::new(tpcds::build_catalog(Scale(0.05)));
    let tpch = tpch::queries().into_iter().map(|q| (&h, format!("tpch.{}", q.name), q.sql));
    let tpcds = tpcds::queries().into_iter().map(|q| (&ds, format!("tpcds.{}", q.name), q.sql));
    let mut out = String::from("# template\texplain\n");
    for (engine, key, sql) in tpch.chain(tpcds) {
        let text = engine.explain(&sql, &MySqlOptimizer).unwrap_or_else(|e| panic!("{key}: {e}"));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in text.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let _ = writeln!(out, "{key}\t{hash:016x}");
    }
    out
}

#[test]
fn native_plans_match_golden() {
    let got = golden_text();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("tests/golden/native_plans.tsv (BLESS=1)");
    let diffs: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("- {w}\n+ {g}"))
        .collect();
    assert!(
        diffs.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} records differ from {GOLDEN}:\n{}",
        diffs.len(),
        want.lines().count(),
        diffs.join("\n")
    );
}
