//! `perf` — the repo's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf run --workload <name> --seed <n> --seconds <n> --trace <0|1>   one run, one process
//! perf run all [--seed <n>] [--seconds <n>]     every workload, timed then traced, each in a fresh process
//! perf aa [--sets 2] [--runs 5] [--seed <n>]    the same binary against itself, verdict per metric
//! perf bless                                    rewrite golden/analytic_hot.tsv from the native optimizer
//! perf smoke                                    one short pass per workload, correctness only
//! ```

mod adhoc_churn;
mod check;
mod json;
mod point_serve;
mod quiet;
mod replica;
mod report;
mod shapes;
mod span;
mod stats;
mod suite;
mod templates;
mod workload;

use check::Tally;
use json::Json;
use report::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Workload, World, TRACED_PASSES};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Run length the sizes in `Workload::timed_size` are calibrated for, and
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use `cargo run --release`".into());
    }
    let (cmd, rest) =
        args.split_first().ok_or("usage: perf run|aa|bless|smoke (see perf/README.md)")?;
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "run" if opts.all => run_all(&opts),
        "run" => {
            let name = opts.workload.as_deref().ok_or("run needs --workload <name> or `all`")?;
            let w = Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?;
            run_one(w, &opts)
        }
        "aa" => aa(&opts),
        "bless" => bless(),
        "smoke" => smoke(&opts),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

struct Opts {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    runs: usize,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            all: false,
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            sets: 2,
            runs: 5,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} needs a value"));
            let number =
                |v: &String| v.parse::<u64>().map_err(|_| format!("{a}: `{v}` is not a number"));
            match a.as_str() {
                "all" => o.all = true,
                "--workload" => o.workload = Some(value()?.clone()),
                "--seed" => o.seed = number(value()?)?,
                "--seconds" => o.seconds = number(value()?)?.clamp(1, 60),
                "--trace" => o.trace = number(value()?)? != 0,
                "--sets" => o.sets = number(value()?)?.max(2) as usize,
                "--runs" => o.runs = number(value()?)?.max(2) as usize,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(o)
    }
}

fn setup(w: Workload, seed: u64, size: usize, trace: bool) -> Result<Box<dyn World>, String> {
    // Only the traced run of `point_serve` has concurrent clients.
    let clients = if trace { point_serve::CLIENTS } else { 1 };
    Ok(match w {
        Workload::CompileCold => Box::new(templates::TemplateWorld::setup(seed, false)?),
        Workload::AnalyticHot => Box::new(templates::TemplateWorld::setup(seed, true)?),
        Workload::PointServe => Box::new(point_serve::PointWorld::setup(seed, size, clients)?),
        Workload::AdhocChurn => Box::new(adhoc_churn::ChurnWorld::setup(seed, size)?),
    })
}

/// `perf/out`, next to the sources this binary was built from.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One workload, one process: set up (three times over), then either the
/// untraced timed section or the traced passes. Human-readable lines first,
/// the driver's result line last.
fn run_one(w: Workload, opts: &Opts) -> Result<ExitCode, String> {
    let size =
        if opts.trace { TRACED_PASSES * w.traced_pass_size() } else { w.timed_size(opts.seconds) };
    println!(
        "# perf run: workload={} seed={} seconds={} trace={}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# why: {}", report::why(w));
    println!(
        "# nproc={} commit={} rustc=\"{}\" profile=release",
        std::thread::available_parallelism().map_or(0, usize::from),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["-V"]),
    );
    // Traced runs report no bounded metric and do not wait for quiet.
    let budget = if opts.trace { Duration::ZERO } else { Duration::from_secs(opts.seconds) };
    let gate = quiet::Gate::new(budget);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut world: Option<Box<dyn World>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = world.take() {
            previous.finish();
        }
        gate.wait();
        let t = Instant::now();
        world = Some(setup(w, opts.seed, size, opts.trace)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut world = world.expect("SETUP_REPS > 0");
    let (tally, metrics) = if opts.trace {
        let traced = world.traced(w.traced_pass_size());
        let path = out_dir()?.join(format!("{}.trace.json", w.name()));
        std::fs::write(&path, span::to_json(w.name(), opts.seed, &traced.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# traced statements={} spans={} trace={}",
            traced.tally.attempted,
            traced.spans.len(),
            path.display()
        );
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                (*name, traced.metrics.get(*name).copied().unwrap_or(0.0), *unit)
            })
            .collect();
        (traced.tally, metrics)
    } else {
        let timed = world.timed(size, &gate);
        let notes: Vec<String> = timed.notes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let samples: usize = timed.segments.iter().map(|s| s.samples.len()).sum();
        println!("# timed samples={samples} segments={} {}", timed.segments.len(), notes.join(" "));
        // Each figure below is a fast-side quartile; show the whole range.
        let rows = report::per_segment(&timed);
        for (i, spec) in END_TO_END[1..5].iter().enumerate() {
            let mut column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            column.sort_by(f64::total_cmp);
            println!(
                "# {:<16} across segments: min {:.4} median {:.4} max {:.4}",
                spec.name,
                column[0],
                stats::median(&column),
                column[column.len() - 1]
            );
        }
        println!(
            "# quiet gate: waited {:.2} s of a {} s budget; fastest probe {:.3} ms",
            gate.waited().as_secs_f64(),
            opts.seconds,
            gate.floor_ms()
        );
        println!(
            "# setup_s is the median of {SETUP_REPS} set-ups: {}",
            setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
        );
        let values = report::end_to_end(&rows, stats::median(&setups), peak_rss_mb());
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(spec, value)| (spec.name, value, spec.unit))
            .collect();
        println!(
            "{:<32} {:>14.6} ratio   ({} of {} statements)",
            "failed_share",
            timed.tally.failed_share(),
            timed.tally.failed,
            timed.tally.attempted
        );
        (timed.tally, metrics)
    };
    world.finish();
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    println!("{}", report::result_line(tally, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// A finished child run: its result line, parsed.
struct ChildRun {
    line: String,
    failed: u64,
    values: BTreeMap<String, f64>,
}

/// Run one workload in a fresh process of this same binary, echo what it
/// prints, and read its result line back.
fn child(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", w.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("child printed nothing")?.to_string();
    let v = json::parse(&line)?;
    let metrics = v.get("metrics").and_then(Json::as_object).ok_or("result line has no metrics")?;
    let values =
        metrics.iter().filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?))).collect();
    let failed =
        v.get("failed").and_then(Json::as_f64).ok_or("result line has no `failed`")? as u64;
    Ok(ChildRun { line, failed, values })
}

/// Every workload, timed then traced, each in a fresh process; all result
/// lines gathered into `perf/out/result.json`.
fn run_all(opts: &Opts) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    let mut failed = 0;
    for w in Workload::ALL {
        for trace in [false, true] {
            let run = child(w, opts.seed, opts.seconds, trace, true)?;
            failed += run.failed;
            runs.push(format!(
                "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                w.name(),
                u8::from(trace),
                run.line
            ));
            println!();
        }
    }
    let path = out_dir()?.join("result.json");
    let body = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
        opts.seed,
        opts.seconds,
        runs.join(",\n")
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}; failed statements: {failed}", path.display());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// A/A: the same binary measured `sets` times over `runs` seeds each. A
/// metric agrees when every set's inter-quartile spread stays within its
/// bound and no set's median is worse than another's by more than it.
fn aa(opts: &Opts) -> Result<ExitCode, String> {
    // values[set][workload][metric] over the runs of that set.
    let mut values =
        vec![vec![BTreeMap::<String, Vec<f64>>::new(); Workload::ALL.len()]; opts.sets];
    let mut failed = 0;
    for (set, per_workload) in values.iter_mut().enumerate() {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            for run in 0..opts.runs {
                let r = child(w, opts.seed + run as u64, opts.seconds, false, false)?;
                eprintln!("# set {} {} seed {}: done", set + 1, w.name(), opts.seed + run as u64);
                failed += r.failed;
                for (k, v) in r.values {
                    per_workload[wi].entry(k).or_default().push(v);
                }
            }
        }
    }
    println!(
        "| workload | metric | unit | bound |{} worst spread | worst shift | verdict |",
        (1..=opts.sets).map(|s| format!(" median {s} [q1, q3] |")).collect::<String>()
    );
    println!("|---|---|---|---|{}---|---|---|", "---|".repeat(opts.sets));
    let mut disagreements = 0;
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for spec in &END_TO_END {
            let sets: Vec<(f64, f64, f64)> =
                values.iter().map(|set| stats::quartiles(&set[wi][spec.name])).collect();
            let spread = sets.iter().map(|(q1, q2, q3)| (q3 - q1) / q2).fold(0.0, f64::max);
            // How much worse the worst median is than the best, as a share
            // of the best — symmetric, so set order does not matter.
            let medians: Vec<f64> = sets.iter().map(|s| s.1).collect();
            let (lo, hi) =
                medians.iter().fold((f64::MAX, f64::MIN), |(lo, hi), m| (lo.min(*m), hi.max(*m)));
            let shift = if spec.better == "lower" { hi / lo - 1.0 } else { 1.0 - lo / hi };
            // The driver holds the spread of every metric but `setup_s`
            // against its bound, and the shift of every metric.
            let ok = shift <= spec.bound && (spec.name == "setup_s" || spread <= spec.bound);
            disagreements += u32::from(!ok);
            let cells: String =
                sets.iter().map(|(q1, q2, q3)| format!(" {q2:.4} [{q1:.4}, {q3:.4}] |")).collect();
            println!(
                "| {} | {} | {} | {:.2} |{cells} {:.1} % | {:.1} % | {} |",
                w.name(),
                spec.name,
                spec.unit,
                spec.bound,
                spread * 100.0,
                shift * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    println!("\n{} sets x {} runs, seeds {}..{}, {} s each; failed statements: {failed}; disagreements: {disagreements}",
        opts.sets, opts.runs, opts.seed, opts.seed + opts.runs as u64 - 1, opts.seconds);
    Ok(if disagreements == 0 && failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Rewrite the golden file: routes from a compile behind the router,
/// answers from the native optimizer on the serial row path, uncached.
fn bless() -> Result<ExitCode, String> {
    let sides = suite::both_sides();
    let mut set = check::GoldenSet::new();
    for t in suite::templates() {
        let side = &sides[t.side];
        let planned =
            side.engine.plan(&t.sql, &*side.orca).map_err(|e| format!("{}: {e}", t.key))?;
        let out = side.engine.query(&t.sql).map_err(|e| format!("{}: {e}", t.key))?;
        let golden = check::Golden {
            route: suite::route_of(&planned),
            digest: check::Digest::of(&out.rows),
        };
        set.insert(t.key, golden);
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/analytic_hot.tsv");
    std::fs::write(&path, check::golden_to_tsv(&set))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("blessed {} statements into {}; rebuild to pick them up", set.len(), path.display());
    Ok(ExitCode::SUCCESS)
}

/// One short pass per workload in this process, correctness only — cheap
/// enough for CI.
fn smoke(opts: &Opts) -> Result<ExitCode, String> {
    let started = Instant::now();
    let mut total = Tally::default();
    for (w, size) in [
        (Workload::CompileCold, 1),
        (Workload::AnalyticHot, 1),
        (Workload::PointServe, 1_000),
        (Workload::AdhocChurn, 1_500),
    ] {
        let mut world = setup(w, opts.seed, size, false)?;
        let timed = world.timed(size, &quiet::Gate::new(Duration::ZERO));
        world.finish();
        println!(
            "smoke {:<14} {:>6} statements, {} failed",
            w.name(),
            timed.tally.attempted,
            timed.tally.failed
        );
        total.merge(timed.tally);
    }
    println!(
        "smoke: {} statements, {} failed, {:.1} s",
        total.attempted,
        total.failed,
        started.elapsed().as_secs_f64()
    );
    Ok(if total.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
