//! Orca's cost model.
//!
//! Honest, fully cost-based comparisons between join methods and access
//! paths — the property MySQL's optimizer lacks (§3.1: "hash join selection
//! is not cost-based"). Constants reflect the paper's observation that
//! Orca carries "relatively high index lookup and hash join costs" tuned
//! for MPP scans rather than InnoDB (§9): random access is priced
//! noticeably above sequential.
//!
//! Every function here is a pure function of *row counts*, which is what
//! makes feedback-driven re-optimization compose cleanly: when the memo's
//! group cardinalities are replaced by observed actuals (overrides carried
//! on [`crate::md::MdCache`]), the same formulas re-rank join orders and
//! methods with no cost-model changes — garbage-in stops, garbage-out
//! stops.

/// Sequential row processing (scan).
pub const SEQ_ROW: f64 = 1.0;
/// Random-access row via an index range.
pub const RANGE_ROW: f64 = 2.0;
/// Fixed cost of one index probe ("relatively high index lookup cost").
pub const LOOKUP_BASE: f64 = 4.0;
/// Per matched row of an index probe.
pub const LOOKUP_ROW: f64 = 1.5;
/// Hash-table insert per build row ("relatively high hash join cost").
pub const HASH_BUILD_ROW: f64 = 1.8;
/// Hash probe per probe row.
pub const HASH_PROBE_ROW: f64 = 1.0;
/// Per output row of any join.
pub const JOIN_OUT_ROW: f64 = 0.1;
/// Re-execution multiplier for correlated apply (inner plan per outer row).
pub const APPLY_ROW: f64 = 1.0;
/// Cost of one nested-loop pair evaluation (joined-row construction plus
/// condition check — measurably pricier than a hash probe).
pub const NL_PAIR: f64 = 2.5;
/// Cost of scanning `n` rows sequentially.
pub fn scan(n: f64) -> f64 {
    n * SEQ_ROW
}

/// Cost of an index range retrieving `n` rows.
pub fn range(n: f64) -> f64 {
    n.max(1.0) * RANGE_ROW
}

/// Cost of a *full ordered* index scan over `n` rows: every row is fetched
/// through the index (random access, priced like [`range`]) but the output
/// arrives already sorted on the index key — the alternative the memo
/// weighs against scan-then-sort when a block has a required order.
pub fn ordered_scan(n: f64) -> f64 {
    n.max(1.0) * RANGE_ROW
}

/// Per-row-per-doubling cost of an in-memory sort. Deliberately cheap
/// relative to random access: a sort enforcer only loses to an ordered
/// index scan when the scanned row count is small or the sort input is
/// large, which mirrors the host executor's actual behaviour.
pub const SORT_ROW_LOG: f64 = 0.1;

/// Cost of sorting `n` rows: `n · log2(n)` comparisons at
/// [`SORT_ROW_LOG`] each. This prices both the host's Sort enforcer (when
/// the memo decides enforcing is cheaper than delivering order) and
/// sort-ahead alternatives inside the memo (sort a small leaf early, let
/// joins preserve the order for free).
pub fn sort(n: f64) -> f64 {
    let n = n.max(1.0);
    n * n.max(2.0).log2() * SORT_ROW_LOG
}

/// Cost of `probes` index lookups each matching `rows_per_probe` rows.
pub fn lookups(probes: f64, rows_per_probe: f64) -> f64 {
    probes * (LOOKUP_BASE + rows_per_probe * LOOKUP_ROW)
}

/// Cost of a hash join given already-costed children.
pub fn hash_join(build_rows: f64, probe_rows: f64, out_rows: f64) -> f64 {
    build_rows * HASH_BUILD_ROW + probe_rows * HASH_PROBE_ROW + out_rows * JOIN_OUT_ROW
}

/// Cost of a plain (materialized-inner) nested loop join: every
/// outer×inner pair is constructed and checked.
pub fn nl_join(outer_rows: f64, inner_rows: f64, out_rows: f64) -> f64 {
    outer_rows * inner_rows * NL_PAIR + out_rows * JOIN_OUT_ROW
}

/// Cost of a correlated apply: the inner plan re-executes per outer row.
pub fn apply(outer_rows: f64, inner_cost: f64, inner_rows: f64) -> f64 {
    outer_rows * (inner_cost + inner_rows * APPLY_ROW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_beats_lookup_on_large_outer() {
        // Probing 1M outer rows against a 10k-row build should beat 1M
        // index lookups — the Q1/Q6 effect (§6.2).
        let hash = hash_join(10_000.0, 1_000_000.0, 1_000_000.0);
        let lkp = lookups(1_000_000.0, 1.0);
        assert!(hash < lkp, "hash={hash} lookup={lkp}");
    }

    #[test]
    fn lookup_beats_hash_on_small_outer() {
        // 10 probes against a 1M-row table: lookups win (don't build 1M).
        let hash = hash_join(1_000_000.0, 10.0, 10.0);
        let lkp = lookups(10.0, 1.0);
        assert!(lkp < hash, "hash={hash} lookup={lkp}");
    }

    #[test]
    fn cross_join_is_penalized() {
        let cross = nl_join(1000.0, 1000.0, 1_000_000.0);
        let hash = hash_join(1000.0, 1000.0, 1000.0);
        assert!(cross > 100.0 * hash);
    }
}
