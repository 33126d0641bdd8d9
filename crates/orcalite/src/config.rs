//! Optimizer configuration: the knobs the paper exercises, the search
//! budget that bounds the detour, and the deterministic fault injector the
//! resilience tests drive.

use taurus_common::error::{Error, Result};

/// Join-order search strategy (paper §6: "Orca's join-order search
/// algorithm was set to EXHAUSTIVE2 — its most thorough setting").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrderStrategy {
    /// Linear greedy chain along the block's join graph (cheap, comparable
    /// to MySQL's search).
    Greedy,
    /// Left-deep dynamic programming over the memo: of every connected
    /// member set, the splits that shed one member.
    Exhaustive,
    /// Bushy dynamic programming: of every connected member set, every
    /// split into two connected sides.
    Exhaustive2,
}

/// A deterministic cap on search effort. The memo checks these limits
/// inside its exploration loops and aborts with
/// [`Error::ResourceExhausted`] the moment either is crossed — identical
/// inputs always exhaust at the identical point, so budget behaviour is
/// reproducible. The bridge reacts by retrying the block with cheaper
/// strategies (its degradation ladder) before falling back to MySQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of memo groups the search may create.
    pub max_groups: usize,
    /// Maximum number of physical alternatives the search may cost.
    pub max_plans_costed: u64,
}

impl SearchBudget {
    /// No limits — the default, so existing behaviour is unchanged.
    pub const UNLIMITED: SearchBudget =
        SearchBudget { max_groups: usize::MAX, max_plans_costed: u64::MAX };

    /// The budget a [`FaultKind::BudgetSqueeze`] imposes: small enough that
    /// any multi-member join exhausts it under every strategy.
    pub const SQUEEZED: SearchBudget = SearchBudget { max_groups: 2, max_plans_costed: 2 };

    pub fn is_unlimited(&self) -> bool {
        *self == SearchBudget::UNLIMITED
    }
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget::UNLIMITED
    }
}

/// Named points in the detour where the fault injector can strike. Sites
/// cover both bridge layers and the optimizer core, so every fallback path
/// has a lever that exercises it end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Bridge: prepared block → logical block description.
    TreeConvert,
    /// Optimizer core: entry to the memo search.
    OptimizeSearch,
    /// Bridge: Orca physical plan → skeleton plan.
    PlanConvert,
    /// Bridge: skeleton validation pass before refinement.
    SkeletonValidate,
    /// Engine: the query governor guarding execution. Faults armed here are
    /// not fired during planning; the engine consults the injector when it
    /// builds a statement's governor (mid-query cancellation and memory
    /// clamps), so [`FaultKind::Panic`]/[`FaultKind::Error`] are inert at
    /// this site.
    ExecGovernor,
}

impl FaultSite {
    pub const ALL: [FaultSite; 5] = [
        FaultSite::TreeConvert,
        FaultSite::OptimizeSearch,
        FaultSite::PlanConvert,
        FaultSite::SkeletonValidate,
        FaultSite::ExecGovernor,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::TreeConvert => "tree-convert",
            FaultSite::OptimizeSearch => "optimize-search",
            FaultSite::PlanConvert => "plan-convert",
            FaultSite::SkeletonValidate => "skeleton-validate",
            FaultSite::ExecGovernor => "exec-governor",
        }
    }
}

/// What the injector does when an armed site is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site — exercises the bridge's panic isolation.
    Panic,
    /// Return an [`Error::Internal`] — exercises error-path fallback.
    Error,
    /// Shrink the search budget to [`SearchBudget::SQUEEZED`] — exercises
    /// budget exhaustion and the degradation ladder. Only meaningful at
    /// [`FaultSite::OptimizeSearch`].
    BudgetSqueeze,
    /// Trip the query's cancel token after a fixed number of governor
    /// checks — exercises mid-query cancellation unwinds. Only meaningful
    /// at [`FaultSite::ExecGovernor`].
    CancelQuery,
    /// Clamp the query's memory budget to a single byte, so the first
    /// charging operator fails — exercises resource-exhaustion unwinds and
    /// the engine's serial-retry degradation rung. Only meaningful at
    /// [`FaultSite::ExecGovernor`].
    MemorySqueeze,
}

/// Deterministic fault injector: fires every time an armed site is
/// reached. Disarmed (the default) it is a no-op, so production configs
/// pay only a `Vec::is_empty` check per site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjector {
    armed: Vec<(FaultSite, FaultKind)>,
}

impl FaultInjector {
    /// Arm one fault; chainable for multi-fault scenarios.
    pub fn arm(mut self, site: FaultSite, kind: FaultKind) -> Self {
        self.armed.push((site, kind));
        self
    }

    pub fn is_armed(&self, site: FaultSite, kind: FaultKind) -> bool {
        self.armed.contains(&(site, kind))
    }

    /// Trigger any panic/error fault armed for `site`. Called at each
    /// site's entry; budget squeezes are queried via [`Self::squeeze`].
    pub fn fire(&self, site: FaultSite) -> Result<()> {
        if self.armed.is_empty() {
            return Ok(());
        }
        if self.is_armed(site, FaultKind::Panic) {
            panic!("injected fault: panic at {}", site.name());
        }
        if self.is_armed(site, FaultKind::Error) {
            return Err(Error::internal(format!("injected fault: error at {}", site.name())));
        }
        Ok(())
    }

    /// The budget override for `site`, if a squeeze is armed there.
    pub fn squeeze(&self, site: FaultSite) -> Option<SearchBudget> {
        self.is_armed(site, FaultKind::BudgetSqueeze).then_some(SearchBudget::SQUEEZED)
    }

    /// The governor check count after which an armed [`FaultKind::CancelQuery`]
    /// trips the cancel token. Three checks lands mid-execution for any
    /// multi-operator plan (check 1 is the root operator's opening).
    pub const CANCEL_AT_CHECK: u64 = 3;

    /// The memory budget an armed [`FaultKind::MemorySqueeze`] imposes: one
    /// byte, so the first charging operator exhausts it deterministically.
    pub const MEMORY_CLAMP_BYTES: u64 = 1;

    /// The cancel point for queries run under this injector, if a
    /// mid-query-cancel fault is armed at [`FaultSite::ExecGovernor`].
    pub fn cancel_point(&self) -> Option<u64> {
        self.is_armed(FaultSite::ExecGovernor, FaultKind::CancelQuery)
            .then_some(Self::CANCEL_AT_CHECK)
    }

    /// The memory-budget clamp for queries run under this injector, if a
    /// resource-exhaustion fault is armed at [`FaultSite::ExecGovernor`].
    pub fn memory_clamp(&self) -> Option<u64> {
        self.is_armed(FaultSite::ExecGovernor, FaultKind::MemorySqueeze)
            .then_some(Self::MEMORY_CLAMP_BYTES)
    }
}

/// Optimizer knobs. Defaults match the paper's MySQL-target configuration.
#[derive(Debug, Clone)]
pub struct OrcaConfig {
    pub strategy: JoinOrderStrategy,
    /// OR factorization: rewrite `(a=b AND x) OR (a=b AND y)` to
    /// `(a=b) AND (x OR y)` — the rewrite behind Q41's 222× (§6.2) and a
    /// §7 lesson. MySQL cannot do this (paper §1 item 3).
    pub enable_or_factorization: bool,
    /// Freedom to place correlated applies (dependent joins) anywhere their
    /// dependencies are satisfied — the closure of the paper's 11
    /// apply/join swap rules (§7 item 1). When disabled, dependent tables
    /// are forced to join last (pre-rule Orca behaviour).
    pub enable_apply_swaps: bool,
    /// GbAgg-below-join pushdown. Orca supports it but MySQL cannot execute
    /// such plans, so it is *disabled for the MySQL target* (§7 item 5).
    /// Enabling it makes Orca report a changed query-block structure, which
    /// triggers the bridge's fallback to MySQL optimization (§4.2.1).
    pub enable_gbagg_below_join: bool,
    /// Bushy DP over a dense join graph is 3^n in the members it is free to
    /// order (a clique keeps the whole subset lattice); above this cap
    /// EXHAUSTIVE2 degrades to left-deep DP so compile time stays bounded.
    /// Dependents chained to the end of the join order do not count.
    pub bushy_member_cap: usize,
    /// Deterministic cap on per-block search effort (memo groups / plans
    /// costed). Exhaustion surfaces as [`Error::ResourceExhausted`] and
    /// drives the bridge's degradation ladder.
    pub budget: SearchBudget,
    /// Interesting-order propagation: when a block carries a
    /// [`crate::desc::BlockDesc::required_order`], the memo costs
    /// order-delivering alternatives (full ordered index scans, sort-ahead
    /// on the anchor leaf) against plan-plus-enforcer and keeps whichever
    /// is cheaper. Disabling falls back to always-enforce plans; used to
    /// measure the tax the extra alternatives put on `plans_costed`.
    pub order_properties: bool,
    /// Test-only fault injection; disarmed by default (no-op).
    pub faults: FaultInjector,
}

impl Default for OrcaConfig {
    fn default() -> Self {
        OrcaConfig {
            strategy: JoinOrderStrategy::Exhaustive2,
            enable_or_factorization: true,
            enable_apply_swaps: true,
            enable_gbagg_below_join: false,
            bushy_member_cap: 13,
            budget: SearchBudget::UNLIMITED,
            order_properties: true,
            faults: FaultInjector::default(),
        }
    }
}

impl OrcaConfig {
    pub fn with_strategy(strategy: JoinOrderStrategy) -> OrcaConfig {
        OrcaConfig { strategy, ..OrcaConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = OrcaConfig::default();
        assert_eq!(c.strategy, JoinOrderStrategy::Exhaustive2);
        assert!(c.enable_or_factorization);
        assert!(c.enable_apply_swaps);
        assert!(!c.enable_gbagg_below_join, "disabled for the MySQL target (§7)");
        assert!(c.budget.is_unlimited(), "budget off by default");
        assert!(c.order_properties, "interesting-order propagation on by default");
        assert_eq!(c.faults, FaultInjector::default(), "injector disarmed by default");
    }

    #[test]
    fn injector_fires_only_armed_sites() {
        let inj = FaultInjector::default().arm(FaultSite::PlanConvert, FaultKind::Error);
        assert!(inj.fire(FaultSite::TreeConvert).is_ok());
        let err = inj.fire(FaultSite::PlanConvert).unwrap_err();
        assert!(err.to_string().contains("plan-convert"), "{err}");
        assert!(inj.squeeze(FaultSite::OptimizeSearch).is_none());
    }

    #[test]
    fn budget_squeeze_overrides_only_its_site() {
        let inj = FaultInjector::default().arm(FaultSite::OptimizeSearch, FaultKind::BudgetSqueeze);
        assert_eq!(inj.squeeze(FaultSite::OptimizeSearch), Some(SearchBudget::SQUEEZED));
        assert!(inj.fire(FaultSite::OptimizeSearch).is_ok(), "squeeze is not an error");
        assert!(inj.squeeze(FaultSite::PlanConvert).is_none());
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at tree-convert")]
    fn injector_panics_on_armed_panic() {
        let inj = FaultInjector::default().arm(FaultSite::TreeConvert, FaultKind::Panic);
        let _ = inj.fire(FaultSite::TreeConvert);
    }

    #[test]
    fn governor_faults_surface_through_their_helpers() {
        let inj = FaultInjector::default()
            .arm(FaultSite::ExecGovernor, FaultKind::CancelQuery)
            .arm(FaultSite::ExecGovernor, FaultKind::MemorySqueeze);
        assert_eq!(inj.cancel_point(), Some(FaultInjector::CANCEL_AT_CHECK));
        assert_eq!(inj.memory_clamp(), Some(FaultInjector::MEMORY_CLAMP_BYTES));
        // They are governor-consulted faults, not planning-site trips.
        assert!(inj.fire(FaultSite::ExecGovernor).is_ok());
        assert!(inj.squeeze(FaultSite::ExecGovernor).is_none());
        // Disarmed injectors report no overrides.
        let off = FaultInjector::default();
        assert_eq!(off.cancel_point(), None);
        assert_eq!(off.memory_clamp(), None);
        // Governor kinds armed at planning sites are inert there too.
        let misplaced =
            FaultInjector::default().arm(FaultSite::TreeConvert, FaultKind::CancelQuery);
        assert!(misplaced.fire(FaultSite::TreeConvert).is_ok());
        assert_eq!(misplaced.cancel_point(), None);
    }
}
