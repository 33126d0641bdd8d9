//! The registry's own contract, table-driven so a new row is covered with
//! no new test code: every CI gate passes its own verdict at a reduced
//! budget, and the binary resolves names from the table.

use std::process::Command;
use taurus_bench::registry::{self, Env};
use taurus_workloads::Scale;

#[test]
fn every_ci_gate_passes_its_own_verdict() {
    for row in registry::gates() {
        // A fifth of the CI budget at the usual CI scale keeps the whole
        // loop to a couple of minutes in an unoptimized build.
        let env = row.env(Some(Scale(0.05)), 1, 1, None);
        let env = Env { budget: env.budget.div_ceil(5), ..env };
        let outcome = (row.run)(&env);
        assert!(!outcome.body.is_empty(), "{}: empty report", row.name);
        match outcome.verdict {
            Some(Ok(pass)) => assert!(!pass.is_empty(), "{}: empty pass line", row.name),
            Some(Err(violation)) => {
                panic!("{} gate failed: {violation}\n{}", row.name, outcome.body)
            }
            None => panic!("{} has CI settings but returned no verdict", row.name),
        }
    }
}

#[test]
fn the_ci_gates_are_these_eight() {
    // What `ci.sh` runs through `harness gates` and the docs count.
    let gates: Vec<&str> = registry::gates().map(|g| g.name).collect();
    let eight = [
        "plancache",
        "parallel",
        "observe",
        "orders",
        "feedback",
        "fuzz",
        "governance",
        "concurrency",
    ];
    assert_eq!(gates, eight);
}

#[test]
fn unknown_name_exits_2_listing_exactly_the_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_harness")).arg("no-such-experiment").output();
    let out = out.expect("harness binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    let listed = stderr.trim_end().rsplit_once("known: ").expect("names follow 'known: '").1;
    assert_eq!(listed.split(' ').collect::<Vec<_>>(), registry::names());
}
