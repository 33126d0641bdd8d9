//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section (§6), and runs the CI gates, printing markdown.
//!
//! ```text
//! harness list             # the experiment registry: names, CI settings, sections
//! harness <name>           # one experiment (exits 1 if it is a gate and fails)
//! harness all              # every experiment, in registry order
//! harness gates            # every CI gate at its registered CI scale and budget
//!                          # (what ci.sh runs); exits 1 if any failed
//! harness fuzz --seed-range a..b   # override the fuzzer's seeds (half-open)
//! ```
//!
//! Environment: `SCALE` (default 0.3; `gates` ignores it and uses each
//! gate's registered scale), `REPS` (timed repetitions, default 5),
//! `BUDGET` (multiplies every gate's registered budget, default 1 — raise
//! it for a deeper local sweep).

use std::ops::Range;
use taurus_bench::registry::{self, Experiment, DEFAULT_SCALE};
use taurus_workloads::Scale;

fn var<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// `--seed-range a..b` (half-open, non-empty), if given.
fn seed_range() -> Option<Range<u64>> {
    let arg = std::env::args().skip_while(|a| a != "--seed-range").nth(1)?;
    let (a, b) = arg.split_once("..")?;
    let (a, b) = (a.trim().parse::<u64>().ok()?, b.trim().parse::<u64>().ok()?);
    (a < b).then_some(a..b)
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let rows: Vec<&Experiment> = match arg.as_str() {
        "list" => return print!("{}", registry::list()),
        "all" => registry::EXPERIMENTS.iter().collect(),
        "gates" => registry::gates().collect(),
        name => match registry::find(name) {
            Some(row) => vec![row],
            None => {
                eprintln!("unknown experiment '{name}'; known: {}", registry::names().join(" "));
                std::process::exit(2);
            }
        },
    };
    let scale = (arg != "gates").then(|| Scale(var("SCALE", DEFAULT_SCALE)));
    let (reps, budget_mult, seeds) = (var("REPS", 5), var("BUDGET", 1), seed_range());
    let mut failed = 0;
    for row in rows {
        let env = row.env(scale, reps, budget_mult, seeds.clone());
        println!("\n## {}\n", row.heading(&env));
        let outcome = (row.run)(&env);
        print!("{}", outcome.body);
        match outcome.verdict {
            None => {}
            Some(Ok(pass)) => println!("\n{} gate passed: {pass}", row.name),
            Some(Err(violation)) => {
                eprintln!("\n{} gate FAILED: {violation}", row.name);
                failed += 1;
            }
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
