//! Fault-injected resilience: the never-fail detour under induced failure.
//!
//! Every [`FaultSite`] × [`FaultKind`] combination is driven end to end
//! through the engine. Whatever the injector does — panic inside a
//! converter, error out of the memo search, squeeze the search budget to
//! nothing — the statement must still answer, the answer must match the
//! native optimizer's, and the router must attribute the fallback to the
//! right [`FallbackReason`]. Execution faults are the engine's own levers
//! (`set_cancel_after`, `set_memory_budget`), counted by the engine.

use taurus_orca::bridge::{FallbackReason, OrcaOptimizer};
use taurus_orca::common::{Error, Value};
use taurus_orca::mylite::Engine;
use taurus_orca::orcalite::{
    FaultInjector, FaultKind, FaultSite, JoinOrderStrategy, OrcaConfig, SearchBudget,
};
use taurus_orca::workloads::{tpch, Scale};

/// Injected panics are caught by the router, but the default panic hook
/// would still spray a backtrace per armed site. Install (once) a hook
/// that swallows injected-fault panics and forwards everything else.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload().downcast_ref::<String>().map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn canon(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|v| match v {
                    Value::Double(d) => format!("D{:.4}", d),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

fn faulty_router(site: FaultSite, kind: FaultKind) -> OrcaOptimizer {
    let cfg =
        OrcaConfig { faults: FaultInjector::default().arm(site, kind), ..OrcaConfig::default() };
    OrcaOptimizer::new(cfg, 1)
}

/// Every fault kind the matrix drives.
const ALL_KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Error, FaultKind::BudgetSqueeze];

/// What the router should attribute a fault to, or `None` when the armed
/// fault is inert at that site and the detour should succeed.
fn expected_reason(site: FaultSite, kind: FaultKind) -> Option<FallbackReason> {
    match kind {
        FaultKind::Panic => Some(FallbackReason::Panicked),
        // Injected errors are not budget errors, so they classify as
        // "the detour could not handle it" — except at the validation
        // stage, whose errors are by definition invalid skeletons.
        FaultKind::Error if site == FaultSite::SkeletonValidate => {
            Some(FallbackReason::InvalidSkeleton)
        }
        FaultKind::Error => Some(FallbackReason::Unsupported),
        // Squeezes only take effect where the budget is consulted: the
        // memo search. Everywhere else they are no-ops.
        FaultKind::BudgetSqueeze => {
            (site == FaultSite::OptimizeSearch).then_some(FallbackReason::BudgetExhausted)
        }
    }
}

#[test]
fn every_site_and_kind_answers_correctly_with_the_right_reason() {
    quiet_injected_panics();
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let q3 = &tpch::queries()[2];
    let reference = canon(engine.query(&q3.sql).expect("native baseline").rows);

    for site in FaultSite::ALL {
        for kind in ALL_KINDS {
            let combo = format!("{kind:?} at {}", site.name());
            let orca = faulty_router(site, kind);
            let planned = engine
                .plan(&q3.sql, &orca)
                .unwrap_or_else(|e| panic!("{combo}: the detour must never fail a query: {e}"));
            let landed = planned.primary().skeleton.orca_fallback.clone();
            let out = engine.execute_planned(&planned).expect("the planned statement runs");
            assert_eq!(canon(out.rows), reference, "{combo}: answers must not change");

            let stats = orca.stats();
            match expected_reason(site, kind) {
                Some(reason) => {
                    assert_eq!(stats.fallbacks, 1, "{combo}: expected one fallback: {stats:?}");
                    assert_eq!(
                        stats.reasons.get(reason),
                        1,
                        "{combo}: expected reason {}: {stats:?}",
                        reason.name()
                    );
                    assert_eq!(stats.reasons.total(), 1, "{combo}: one reason only: {stats:?}");
                    assert_eq!(landed.as_deref(), Some(reason.name()), "{combo}");
                }
                None => {
                    assert_eq!(stats.fallbacks, 0, "{combo}: inert fault must not trip: {stats:?}");
                    assert_eq!(stats.routed, 1, "{combo}: detour must succeed: {stats:?}");
                    assert_eq!(landed, None, "{combo}");
                }
            }
        }
    }
}

#[test]
fn explain_analyze_is_inert_under_every_fault() {
    // The full fault matrix again, this time with runtime instrumentation
    // enabled. EXPLAIN ANALYZE must be a pure observer: same answers, same
    // fallback attribution, and every operator annotated — whether the
    // statement came out of the detour or the native rescue path.
    quiet_injected_panics();
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let q3 = &tpch::queries()[2];
    let reference = canon(engine.query(&q3.sql).expect("native baseline").rows);

    for site in FaultSite::ALL {
        for kind in ALL_KINDS {
            let combo = format!("{kind:?} at {}", site.name());
            // Uninstrumented run through one armed router, instrumented
            // through another: their routing decisions must agree.
            let plain = faulty_router(site, kind);
            engine.query_with(&q3.sql, &plain).expect("uninstrumented");
            let orca = faulty_router(site, kind);
            let analyzed = engine
                .explain_analyze(&q3.sql, &orca)
                .unwrap_or_else(|e| panic!("{combo}: EXPLAIN ANALYZE must never fail: {e}"));

            assert_eq!(
                canon(analyzed.output.rows),
                reference,
                "{combo}: instrumentation changed the answer"
            );
            assert_eq!(
                orca.stats(),
                plain.stats(),
                "{combo}: instrumentation changed the fallback attribution"
            );
            assert!(analyzed.text.starts_with("EXPLAIN ANALYZE ("), "{combo}: {}", analyzed.text);
            for line in analyzed.text.lines().skip(1) {
                if line.is_empty() || line.starts_with("[search:") {
                    continue;
                }
                assert!(
                    line.contains("actual rows=") || line.contains("(never executed)"),
                    "{combo}: unannotated operator line: {line}"
                );
            }
        }
    }
}

#[test]
fn explain_banner_names_the_injected_reason() {
    quiet_injected_panics();
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let q3 = &tpch::queries()[2];
    for (site, kind, reason) in [
        (FaultSite::TreeConvert, FaultKind::Error, "unsupported"),
        (FaultSite::PlanConvert, FaultKind::Panic, "panicked"),
        (FaultSite::OptimizeSearch, FaultKind::BudgetSqueeze, "budget-exhausted"),
    ] {
        let orca = faulty_router(site, kind);
        let text = engine.explain(&q3.sql, &orca).expect("explain must not fail");
        let want = format!("EXPLAIN (ORCA fallback: {reason})\n");
        assert!(text.starts_with(&want), "{kind:?} at {}: got {text}", site.name());
    }
}

#[test]
fn multiple_statements_accumulate_per_reason_counters() {
    quiet_injected_panics();
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let q3 = &tpch::queries()[2];
    let orca = faulty_router(FaultSite::SkeletonValidate, FaultKind::Panic);
    for _ in 0..3 {
        engine.query_with(&q3.sql, &orca).expect("fallback answers");
    }
    let stats = orca.stats();
    assert_eq!(stats.reasons.panicked, 3, "{stats:?}");
    assert_eq!(stats.fallbacks, 3, "{stats:?}");
    assert_eq!(stats.reasons.total(), stats.fallbacks, "{stats:?}");
}

#[test]
fn explicit_budget_degrades_through_the_ladder_but_stays_on_orca() {
    // An integration-level run of the degradation ladder: measure greedy
    // and bushy search effort on a real multi-join query, then set a
    // budget only greedy fits inside. The statement must still come out
    // Orca-optimized — at a cheaper rung, not as a fallback.
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let q5 = &tpch::queries()[4]; // six-table single-block join
    let costed = |strategy| {
        let orca = OrcaOptimizer::new(OrcaConfig::with_strategy(strategy), 1);
        let planned = engine.plan(&q5.sql, &orca).expect("plan");
        planned.primary().skeleton.search.as_ref().expect("routed").plans_costed
    };
    let greedy = costed(JoinOrderStrategy::Greedy);
    let bushy = costed(JoinOrderStrategy::Exhaustive2);
    // Budget checks precede increments of up to three plans per split, so
    // leave a margin before relying on the ladder tripping.
    assert!(greedy + 4 <= bushy, "premise: greedy is cheaper ({greedy} vs {bushy})");

    let cfg = OrcaConfig {
        budget: SearchBudget { max_groups: usize::MAX, max_plans_costed: greedy },
        ..OrcaConfig::default()
    };
    let orca = OrcaOptimizer::new(cfg, 1);
    let explained = engine.explain(&q5.sql, &orca).expect("explain");
    let stats = orca.stats();
    assert!(explained.starts_with("EXPLAIN (ORCA)\n"), "still Orca-assisted: {explained}");
    assert_eq!(stats.fallbacks, 0, "ladder rescued the block: {stats:?}");
    assert!(stats.degraded >= 1, "a cheaper rung won: {stats:?}");

    // And the degraded plan still answers identically.
    let reference = canon(engine.query(&q5.sql).expect("native").rows);
    let out = canon(engine.query_with(&q5.sql, &orca).expect("degraded").rows);
    assert_eq!(out, reference);
}

#[test]
fn governor_faults_fail_typed_and_leave_the_engine_serviceable() {
    // The engine's two execution-fault levers: unlike every planning fault,
    // these are *meant* to fail the statement — but with a typed governance
    // error, counted once by the engine, never as a routing fallback, and
    // with no residue. The same engine must answer the same statement
    // correctly right afterwards.
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let q3 = &tpch::queries()[2];
    let reference = canon(engine.query(&q3.sql).expect("native baseline").rows);
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);

    // Mid-query cancel: the third governor check lands mid-execution for
    // any multi-operator plan (check 1 is the root operator's opening).
    engine.set_cancel_after(Some(3));
    let err = engine.query_with(&q3.sql, &orca).unwrap_err();
    engine.set_cancel_after(None);
    assert!(matches!(err, Error::Cancelled), "typed cancel, got: {err}");
    let governed = engine.governed_stats();
    assert_eq!(governed.cancelled, 1, "{governed:?}");

    // A one-byte budget defeats the serial retry too, so the statement
    // surfaces `MemoryExceeded`.
    engine.set_memory_budget(Some(1));
    let err = engine.query_with(&q3.sql, &orca).unwrap_err();
    engine.set_memory_budget(None);
    assert!(matches!(err, Error::MemoryExceeded { .. }), "typed exhaustion, got: {err}");
    let governed = engine.governed_stats();
    assert_eq!(governed.memory_exceeded, 1, "{governed:?}");
    assert_eq!(governed.total(), 2, "{governed:?}");
    let stats = orca.stats();
    assert_eq!(stats.routed, 2, "both statements were planned by Orca: {stats:?}");
    assert_eq!(stats.fallbacks, 0, "a governed failure is not a fallback: {stats:?}");

    // No residue: the same router on the same engine answers correctly,
    // and the governed counters stay untouched.
    let out = canon(engine.query_with(&q3.sql, &orca).expect("serviceable").rows);
    assert_eq!(out, reference, "the failures must not poison later statements");
    assert_eq!(engine.governed_stats(), governed);
}

#[test]
fn a_memory_failure_is_routed_once_and_is_not_a_fallback() {
    // The routing ledger counts planning decisions only: a statement Orca
    // planned that then runs out of memory at execution is one routed
    // statement, not also a fallback.
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let q3 = &tpch::queries()[2];
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    engine.set_memory_budget(Some(1));
    let err = engine.query_with(&q3.sql, &orca).unwrap_err();
    assert!(matches!(err, Error::MemoryExceeded { .. }), "typed exhaustion, got: {err}");
    let s = orca.stats();
    assert_eq!(s.routed + s.below_threshold + s.fallbacks, 1, "one statement, one entry: {s:?}");
    assert_eq!(s.fallbacks, 0, "an execution failure is not a fallback: {s:?}");
}
