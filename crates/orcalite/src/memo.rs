//! The memo and the join-order search.
//!
//! Groups are sets of logically equivalent expressions — here, the
//! dynamic-programming groups over *connected, plannable member subsets*,
//! each holding its derived logical properties (cardinality) and the winning
//! physical implementation per group, in classic Cascades fashion.
//! Exploration enumerates group expressions (splits of a subset into a left
//! and a right side) along the block's **join graph** under the configured
//! strategy:
//!
//! * `GREEDY` — linear chain construction, each step along an edge;
//! * `EXHAUSTIVE` — left-deep DP: of every connected set, the splits that
//!   shed one member and leave the rest connected;
//! * `EXHAUSTIVE2` — bushy DP: of every connected set, every split into two
//!   connected sides — the paper's "most thorough setting".
//!
//! One admissibility rule serves all three — both sides of a split are
//! connected in the graph — so GREEDY's chain lies inside EXHAUSTIVE's space
//! and EXHAUSTIVE's inside EXHAUSTIVE2's, and a star of a centre and k
//! leaves costs k·2^k bushy splits where the subset lattice has 3^(k+1).
//!
//! ## The join graph
//!
//! `Search::new` derives one adjacency mask per member: every spanning pool
//! conjunct and every cross ON conjunct links the members it mentions (a
//! conjunct over three or more links all of them — a clique, which admits a
//! superset of the splits a hypergraph walk would), and every dependent is
//! linked to each of its dependencies. Where that leaves the members free
//! to lead a join order in several components, the components are chained
//! through their lowest members in member order: a cross product is admitted
//! exactly where the query offers no predicate, one per missing edge, and
//! nowhere else. A plan that crosses two tables the query never relates is
//! outside this space.
//!
//! Dependent members (semi/anti/outer-joined tables, correlated deriveds)
//! carry dependency edges; with `enable_apply_swaps` (§7 item 1) they may
//! be placed at *any* point where their dependencies are satisfied — the
//! closure of the paper's 11 apply/join swap rules — otherwise they are
//! forced to the end of the join order, mimicking pre-rule Orca. Members
//! chained to the end (all dependents then; uncorrelated ON-TRUE applies
//! always) are not searched at all: a set holding some sheds the last of
//! them, one split each, and they do not count toward `bushy_member_cap`.
//!
//! ## Search mechanics
//!
//! Everything a split needs is classified once, in `Search::new`, into
//! bitmasks over member indexes — which pool equalities are hash keys for
//! which separations, which index columns a left side can key and how many
//! rows such a probe returns, which members carry dependencies — so costing
//! a split is bit tests and array reads with no allocation. Groups live in
//! one `Vec` in first-touch order (a group's id is its position) behind an
//! open-addressing index keyed by the member set, the same table for every
//! strategy and member count. A group records *decisions* (the right side's
//! set plus an implementation tag, 24 bytes), not plan trees; the winning
//! tree, with its join conditions, hash keys and lookup keys, is derived
//! once at the end by `reconstruct`. Of equally cheap decisions the one with
//! the larger right-side mask wins, then hash before lookup before nested
//! loop (`Winner::offer`): winners are a function of the search space, not
//! of the order it is walked in.
//!
//! ## Required properties
//!
//! A group keeps one winner per required physical property ([`Prop`]): any
//! order, or the block's required order. Only the *anchor* member — the one
//! holding every ORDER BY key, free to sit leftmost — can deliver that
//! order: `build_leaf` offers each of its accesses (scan, range, IN-list
//! probes, full ordered index scan) to every property it delivers, and a
//! Sort enforcer over the cheapest access to the ordered one. Joins stream
//! their left input in order, so a split delivers a property exactly when
//! its left side does; the root weighs the ordered winner against the plain
//! one plus a sort.

use crate::config::{FaultSite, JoinOrderStrategy, OrcaConfig, SearchBudget};
use crate::cost;
use crate::desc::{BlockDesc, EntryDesc, MemberDesc, OrderKey, RelSource};
use crate::md::{MdCache, MdIndex, MetadataAccessor};
use crate::physical::{OrcaPlan, PhysJoinKind, PhysNode, SearchStats};
use crate::rules::normalize_pool_traced;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use taurus_catalog::estimate::{Estimator, RelView};
use taurus_catalog::CardOverrides;
use taurus_common::error::{Error, Result};
use taurus_common::expr::{column_range, eq_col_key, split_hash_keys};
use taurus_common::{BinOp, ColRef, Expr, Value};

/// Optimize one block. The metadata accessor is wrapped in Orca's metadata
/// cache internally (§5.7).
pub fn optimize_block(
    desc: &BlockDesc,
    md: &dyn MetadataAccessor,
    cfg: &OrcaConfig,
) -> Result<OrcaPlan> {
    let cache = MdCache::new(md);
    optimize_block_cached(desc, &cache, cfg)
}

/// [`optimize_block`] against a caller-owned [`MdCache`]: a statement with
/// several blocks (or several fallback-ladder rungs) shares one cache, so
/// metadata fetched while optimizing the first block is served from memory
/// for every later one — the cache's natural lifetime under the plan cache
/// is the whole statement compilation, not a single block.
pub fn optimize_block_cached(
    desc: &BlockDesc,
    cache: &MdCache<'_>,
    cfg: &OrcaConfig,
) -> Result<OrcaPlan> {
    cfg.faults.fire(FaultSite::OptimizeSearch)?;
    let mut search = Search::new(desc, cache, cfg)?;
    let (root, strategy) = search.run()?;
    // The GbAgg-below-join rule (disabled for the MySQL target, §7 item 5):
    // when enabled on an aggregating multi-join block it would produce a
    // plan whose query-block structure MySQL cannot express, and the host
    // must fall back (§4.2.1).
    let changed = cfg.enable_gbagg_below_join && desc.has_aggregation && desc.members.len() > 1;
    Ok(OrcaPlan { root, strategy, stats: search.stats, changed_block_structure: changed })
}

type Bits = u64;

/// Per-member planning info.
struct Member {
    desc: MemberDesc,
    /// Local predicates (pool + own-ON conjuncts over {qt} ∪ outer).
    local: Vec<Expr>,
    /// ON conjuncts that reference other block members (stay at the join).
    on_cross: Vec<Expr>,
    /// Product of on_cross selectivities.
    on_sel: f64,
    base_rows: f64,
    filtered_rows: f64,
    /// Cheapest standalone access per required property, with its cost;
    /// `None` where the member cannot deliver the property (the required
    /// order on any member but the anchor, or with order properties off).
    leaf: Props<Option<(PhysNode, f64)>>,
    /// Effective dependencies as member-index bits.
    dep_bits: Bits,
    /// Distinct-combination cap for equality join keys on this member's
    /// side: the product of its ON-equality key-column NDVs (∞ when no
    /// bare-column equality exists).
    eq_ndv: f64,
    /// Members tied to this one by a pool equality with one member on each
    /// side: a hash key for any split separating the two.
    eq_nbrs: Bits,
    /// The two sides' members of each cross ON equality: a hash key once
    /// this member, as the lone right side, is split from the other side.
    on_eq: Vec<(Bits, Bits)>,
    /// The indexes a join can probe with this member as the lone right
    /// side (base relations only; none under a NULL-aware anti join).
    lookups: Vec<LookupIndex>,
}

/// One index of a lone-right member, as a lookup-join target.
struct LookupIndex {
    /// Host-side index position.
    position: usize,
    unique: bool,
    /// Per leading key column, the conjuncts that can feed it, in join-
    /// condition order (the first the left side covers is used), and the
    /// selectivity of a probe on the columns so far; ends before the first
    /// column nothing can feed.
    cols: Vec<(Vec<LookupKey>, f64)>,
}

/// `col(member) = key(others)`: a conjunct that can key an index column.
#[derive(Clone, Copy)]
struct LookupKey {
    /// Members the left side must hold: the key's, and all others of a
    /// pool conjunct (it attaches at the join only then).
    need: Bits,
    /// The conjunct: `pool[at]`, or past the pool the member's `on_cross`.
    at: usize,
}

/// A required physical property: what a winner delivers. Indexes [`Props`].
#[derive(Clone, Copy)]
enum Prop {
    /// Any order.
    Any,
    /// The block's required order.
    Ordered,
}

/// One entry per [`Prop`].
type Props<T> = [T; 2];

/// How a split is implemented; with the right side's member set, a whole
/// decision. Declared in tie-break order.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Impl {
    None,
    Leaf,
    /// Hash join, build on the right (Orca convention).
    Hash,
    /// Index nested loop probing the lone right member's cheapest lookup.
    Lookup,
    /// Plain nested loop / correlated apply.
    NestedLoop,
}

/// The cheapest decision seen for a group; its left side is the rest of
/// the group's set. `Impl::None`: no winner.
#[derive(Clone, Copy)]
struct Winner {
    cost: f64,
    s2: Bits,
    imp: Impl,
}

impl Winner {
    const NONE: Winner = Winner { cost: f64::INFINITY, s2: 0, imp: Impl::None };

    fn cost(&self) -> Option<f64> {
        (self.imp != Impl::None).then_some(self.cost)
    }

    /// Keep the cheaper decision; of equal costs the larger right side,
    /// then hash before lookup before nested loop — so a winner is a
    /// function of the alternatives offered, not of the order they come in.
    fn offer(&mut self, cost: f64, s2: Bits, imp: Impl) {
        let tie_won = || s2 > self.s2 || (s2 == self.s2 && imp < self.imp);
        if self.imp == Impl::None || cost < self.cost || (cost == self.cost && tie_won()) {
            *self = Winner { cost, s2, imp };
        }
    }
}

/// One memo group: a member subset with derived properties and winners.
/// Its id is its position in the table.
struct Group {
    set: Bits,
    rows: f64,
    /// Union of the members' `eq_nbrs`.
    eq_nbrs: Bits,
    /// The cheapest decision per required property.
    winners: Props<Winner>,
    explored: bool,
}

/// The memo's groups in first-touch order, found by member set through an
/// open-addressing index of positions (Fibonacci hashing, at most half
/// full, doubling from 16 slots so a small block pays for a small table).
struct GroupTable {
    groups: Vec<Group>,
    /// `position + 1` of a group, or 0.
    slots: Vec<u32>,
    shift: u32,
}

impl GroupTable {
    fn new() -> GroupTable {
        GroupTable { groups: Vec::new(), slots: vec![0; 16], shift: 60 }
    }

    /// The slot holding `set`, or the empty one where it belongs.
    fn slot(&self, set: Bits) -> usize {
        let mut at = (set.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[at] {
                0 => return at,
                g if self.groups[g as usize - 1].set == set => return at,
                _ => at = (at + 1) & (self.slots.len() - 1),
            }
        }
    }

    fn find(&self, set: Bits) -> Option<usize> {
        (self.slots[self.slot(set)] as usize).checked_sub(1)
    }

    /// Append a group whose set is not in the table; returns its id.
    fn push(&mut self, group: Group) -> usize {
        if (self.groups.len() + 1) * 2 > self.slots.len() {
            self.shift -= 1;
            self.slots = vec![0; self.slots.len() * 2];
            for id in 0..self.groups.len() {
                let at = self.slot(self.groups[id].set);
                self.slots[at] = id as u32 + 1;
            }
        }
        let at = self.slot(group.set);
        self.groups.push(group);
        self.slots[at] = self.groups.len() as u32;
        self.groups.len() - 1
    }
}

struct Search<'a> {
    desc: &'a BlockDesc,
    cfg: &'a OrcaConfig,
    members: Vec<Member>,
    /// Spanning predicate pool (conjuncts touching ≥ 2 members).
    pool: Vec<Expr>,
    /// Member-index bitmask per pool conjunct.
    pool_mask: Vec<Bits>,
    /// Precomputed selectivity per pool conjunct.
    pool_sel: Vec<f64>,
    /// Pool equalities with several members on a side, as the two sides'
    /// member masks (single-member pairs live in `Member::eq_nbrs`).
    eq_wide: Vec<(Bits, Bits)>,
    /// Members with dependencies (`dep_bits != 0`).
    dependents: Bits,
    /// The dependents `chain_last` pinned to the end of the join order, in
    /// member order: nothing about them is left to search.
    chained: Bits,
    /// The join graph, one adjacency mask per member: what every strategy
    /// enumerates along (see `new`).
    nbrs: Vec<Bits>,
    /// Scratch stack of right sides, one frame per `best` in progress.
    splits: Vec<Bits>,
    /// Observed-cardinality overrides from the metadata cache (feedback-
    /// driven re-optimization): exact-set hits replace derived group rows.
    fb: Option<Arc<CardOverrides>>,
    table: GroupTable,
    /// Effective effort cap (config budget, possibly fault-squeezed).
    budget: SearchBudget,
    pub stats: SearchStats,
}

impl<'a> Search<'a> {
    fn new(desc: &'a BlockDesc, md: &MdCache<'a>, cfg: &'a OrcaConfig) -> Result<Search<'a>> {
        if desc.members.is_empty() {
            return Err(Error::semantic("empty block"));
        }
        if desc.members.len() > 63 {
            return Err(Error::semantic("more than 63 tables in one block"));
        }
        // Normalized predicate pool (OR factorization, §6.2). Rule counts
        // accumulate in locals (the Search struct does not exist yet) and
        // seed the stats below.
        let (pool_all, mut rules_applied, mut rules_hit) =
            normalize_pool_traced(desc.predicates.clone(), cfg.enable_or_factorization);

        // Estimator over the global table space.
        let mut rels: Vec<Option<RelView>> = vec![None; desc.num_tables];
        for m in &desc.members {
            rels[m.qt] = Some(match &m.source {
                RelSource::Base { oid } => md
                    .statistics(*oid)
                    .or_else(|| md.relation(*oid).map(|r| RelView::opaque(r.rows, r.num_columns)))
                    .ok_or_else(|| {
                        Error::CatalogMissing(format!("relation {oid} unknown to MD accessor"))
                    })?,
                RelSource::Derived { rows, width, cols, .. } => {
                    if cols.is_empty() {
                        RelView::opaque(*rows, *width)
                    } else {
                        let mut cols = cols.clone();
                        cols.resize(*width, None);
                        RelView { rows: *rows, cols }
                    }
                }
            });
        }
        let est = Estimator::new(rels);
        let fb = md.overrides().filter(|o| !o.is_empty());

        let qt_to_idx: HashMap<usize, usize> =
            desc.members.iter().enumerate().map(|(i, m)| (m.qt, i)).collect();
        let member_mask = |e: &Expr| -> Bits {
            let mut mask = 0;
            for t in e.referenced_tables() {
                if let Some(&i) = qt_to_idx.get(&t) {
                    mask |= 1 << i;
                }
            }
            mask
        };

        // Split pool into member-local vs spanning conjuncts.
        let mut member_local: Vec<Vec<Expr>> = vec![Vec::new(); desc.members.len()];
        let mut pool: Vec<Expr> = Vec::new();
        for p in pool_all {
            let mask = member_mask(&p);
            if mask.count_ones() == 1 {
                member_local[mask.trailing_zeros() as usize].push(p);
            } else {
                // Multi-member (spanning) or zero-member (constant/outer-
                // only; the host's refinement applies those at the root).
                pool.push(p);
            }
        }
        let pool_mask: Vec<Bits> = pool.iter().map(member_mask).collect();
        let pool_sel: Vec<f64> = pool.iter().map(|p| est.selectivity(p)).collect();
        // Hash-key availability: a pool equality with each side on its own
        // members is a key for any split that separates the two sides.
        let mut eq_nbrs: Vec<Bits> = vec![0; desc.members.len()];
        let mut eq_wide = Vec::new();
        for p in &pool {
            let Expr::Binary { op: BinOp::Eq, left, right } = p else { continue };
            let (la, rb) = (member_mask(left), member_mask(right));
            if la == 0 || rb == 0 || la & rb != 0 {
                continue;
            }
            if la.count_ones() == 1 && rb.count_ones() == 1 {
                eq_nbrs[la.trailing_zeros() as usize] |= rb;
                eq_nbrs[rb.trailing_zeros() as usize] |= la;
            } else {
                eq_wide.push((la, rb));
            }
        }
        // The members an expression needs on top of the outer blocks'
        // tables; `None` if it reaches a table that is neither.
        let needs = |e: &Expr| -> Option<Bits> {
            let mut mask = 0;
            for t in e.referenced_tables() {
                if !desc.outer.contains(&t) {
                    mask |= 1 << qt_to_idx.get(&t)?;
                }
            }
            Some(mask)
        };

        // Interesting-order anchor: the required order can only enter the
        // plan at a leaf and survive along the left spine, so it is usable
        // exactly when every key lives on one member and that member is an
        // independent inner (free to sit leftmost).
        let mut req_anchor = None;
        if cfg.order_properties && !desc.required_order.is_empty() {
            let qt = desc.required_order[0].qt;
            if desc.required_order.iter().all(|k| k.qt == qt) {
                req_anchor = desc.members.iter().position(|m| m.qt == qt && !m.is_dependent());
            }
        }

        // Build member infos.
        let mut members = Vec::with_capacity(desc.members.len());
        for (i, m) in desc.members.iter().enumerate() {
            let mut local = std::mem::take(&mut member_local[i]);
            let mut on_cross = Vec::new();
            let (on_norm, on_applied, on_hit) =
                normalize_pool_traced(m.entry.on().to_vec(), cfg.enable_or_factorization);
            rules_applied += on_applied;
            rules_hit += on_hit;
            for c in on_norm {
                if member_mask(&c) & !(1 << i) == 0 {
                    local.push(c);
                } else {
                    on_cross.push(c);
                }
            }
            let req = if req_anchor == Some(i) { &desc.required_order[..] } else { &[] };
            let observed = fb.as_ref().and_then(|f| f.rel_singleton(m.qt));
            let (base_rows, filtered_rows, leaf, indexes) =
                build_leaf(m, &local, req, observed, md, &est, i)?;
            // Stacked-conjunction products floor at one surviving row of
            // their input relation (see `conjunct_selectivity`).
            let on_sel = est.conjunct_selectivity(&on_cross, base_rows);
            let eq_ndv = est.eq_ndv_cap(&on_cross, m.qt);
            let mut dep_bits: Bits = 0;
            for d in &m.deps {
                if let Some(&di) = qt_to_idx.get(d) {
                    dep_bits |= 1 << di;
                }
            }
            let bit: Bits = 1 << i;
            let on_eq = on_cross
                .iter()
                .filter_map(|c| match c {
                    Expr::Binary { op: BinOp::Eq, left, right } => {
                        Some((needs(left)?, needs(right)?)).filter(|&(l, r)| l != 0 && r != 0)
                    }
                    _ => None,
                })
                .collect();
            // Lookup feasibility. NULL-aware anti joins cannot use plain
            // lookups; deriveds have no indexes.
            let mut lookups = Vec::new();
            if matches!(m.source, RelSource::Base { .. })
                && !matches!(m.entry, EntryDesc::Anti { null_aware: true, .. })
            {
                // `col(m) = key` conjuncts in join-condition order: the
                // pool's, then m's own ON conjuncts.
                let mut eq_cols: Vec<(usize, LookupKey)> = Vec::new();
                for (at, c) in pool.iter().chain(&on_cross).enumerate() {
                    let Some((col, key)) = eq_col_key(c, m.qt) else { continue };
                    let Some(need) = needs(key) else { continue };
                    let others = pool_mask.get(at).map_or(0, |mask| mask & !bit);
                    eq_cols.push((col, LookupKey { need: need | others, at }));
                }
                for ix in &indexes {
                    let (mut cols, mut sel) = (Vec::new(), 1.0f64);
                    for &col in &ix.columns {
                        let keys: Vec<LookupKey> =
                            eq_cols.iter().filter(|(c, _)| *c == col).map(|(_, k)| *k).collect();
                        if keys.is_empty() {
                            break;
                        }
                        sel *= 1.0 / est.ndv(ColRef { table: m.qt, col }).max(1.0);
                        cols.push((keys, sel));
                    }
                    if !cols.is_empty() {
                        lookups.push(LookupIndex {
                            position: ix.position,
                            unique: ix.unique,
                            cols,
                        });
                    }
                }
            }
            members.push(Member {
                desc: m.clone(),
                local,
                on_cross,
                on_sel,
                base_rows,
                filtered_rows,
                leaf,
                dep_bits,
                eq_ndv,
                eq_nbrs: eq_nbrs[i],
                on_eq,
                lookups,
            });
        }

        // Trivially-placed dependents — ON-TRUE applies with no join
        // conditions and no dependencies (uncorrelated scalar subqueries) —
        // contribute nothing to join ordering: chain them to the end so the
        // search space stays the interesting one. Without apply-swap rules,
        // *all* dependents then chain to the very end.
        let mask_where = |members: &[Member], f: &dyn Fn(&Member) -> bool| -> Bits {
            members.iter().enumerate().filter(|(_, m)| f(m)).map(|(i, _)| 1u64 << i).sum()
        };
        let inner_bits = mask_where(&members, &|m| !m.desc.is_dependent());
        let mut chained: Bits = 0;
        let mut chain_last = |which: &dyn Fn(&Member) -> bool| {
            let mut prev = inner_bits;
            for (i, m) in members.iter_mut().enumerate() {
                if m.desc.is_dependent() && which(m) {
                    m.dep_bits |= prev & !(1 << i);
                    prev |= 1 << i;
                    chained |= 1 << i;
                }
            }
        };
        chain_last(&|m| m.on_cross.is_empty() && m.dep_bits == 0);
        if !cfg.enable_apply_swaps {
            chain_last(&|_| true);
        }

        // The join graph. A spanning conjunct links every pair of the members
        // it mentions (for three or more a clique: a superset of what a
        // hypergraph walk would admit), a cross ON conjunct likewise, and a
        // dependent is linked to each of its dependencies.
        let mut nbrs: Vec<Bits> = vec![0; members.len()];
        let mut link = |mask: Bits| bits(mask).for_each(|i| nbrs[i] |= mask & !(1 << i));
        pool_mask.iter().for_each(|mask| link(*mask));
        for (i, m) in members.iter().enumerate() {
            m.on_cross.iter().for_each(|c| link(member_mask(c) | 1 << i));
            bits(m.dep_bits).for_each(|d| link(1 << d | 1 << i));
        }
        // Where the query offers no predicate, and only there, a cross
        // product: the components of the members free to lead a join order
        // are chained through their lowest members. Every dependent reaches
        // that core along its dependencies, so the block is connected.
        let dependents = mask_where(&members, &|m| m.dep_bits != 0);
        let free = ((1 << members.len()) - 1) & !dependents;
        let (mut rest, mut prev) = (free, None);
        while rest != 0 {
            let low = rest.trailing_zeros() as usize;
            rest &= !component(&nbrs, rest);
            if let Some(p) = prev.replace(low) {
                nbrs[p] |= 1 << low;
                nbrs[low] |= 1 << p;
            }
        }

        Ok(Search {
            desc,
            cfg,
            pool,
            pool_mask,
            pool_sel,
            eq_wide,
            dependents,
            chained,
            nbrs,
            splits: Vec::new(),
            members,
            fb,
            table: GroupTable::new(),
            budget: cfg.faults.squeeze(FaultSite::OptimizeSearch).unwrap_or(cfg.budget),
            stats: SearchStats {
                rules_applied,
                rules_hit,
                // One costed alternative for the anchor's ordered accesses:
                // they collapse to one winner up front, so `plans_costed`
                // stays bounded.
                plans_costed: u64::from(req_anchor.is_some()),
                ..SearchStats::default()
            },
        })
    }

    /// Budget gate for the exploration loops. Exhaustion is deterministic:
    /// the same block and config always trip the same check at the same
    /// point, so the bridge's degradation ladder is reproducible. Groups
    /// count as created, not as table capacity.
    fn charge_budget(&self) -> Result<()> {
        if self.table.groups.len() > self.budget.max_groups {
            return Err(Error::resource_exhausted("memo groups", self.budget.max_groups as u64));
        }
        if self.stats.plans_costed > self.budget.max_plans_costed {
            return Err(Error::resource_exhausted("plans costed", self.budget.max_plans_costed));
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(PhysNode, JoinOrderStrategy)> {
        let n = self.members.len();
        let full: Bits = (1 << n) - 1;
        // EXHAUSTIVE2 degrades to left-deep DP above the bushy cap, which
        // counts the members there is an order to search for.
        let orderable = (full & !self.chained).count_ones() as usize;
        let strategy = match self.cfg.strategy {
            JoinOrderStrategy::Exhaustive2 if orderable > self.cfg.bushy_member_cap => {
                JoinOrderStrategy::Exhaustive
            }
            configured => configured,
        };
        let mut prop = Prop::Any;
        match strategy {
            JoinOrderStrategy::Greedy => self.greedy(full)?,
            _ => {
                let root = self.best(full, strategy)?;
                let g = &self.table.groups[root];
                let [plain, ordered] = g.winners.map(|w| w.cost());
                let plain = plain
                    .ok_or_else(|| Error::semantic("no feasible join order (dependency cycle?)"))?;
                // Root decision: deliver the required order from inside the
                // plan, or keep the plain winner and let the host bolt a
                // Sort enforcer on top — an honest costed comparison.
                if let Some(oc) = ordered {
                    if oc < plain + cost::sort(g.rows) {
                        prop = Prop::Ordered;
                    }
                    self.stats.plans_costed += 1;
                }
            }
        }
        self.stats.groups = self.table.groups.len();
        Ok((self.reconstruct(full, prop)?, strategy))
    }

    // ------------------------------------------------------------- helpers

    /// Every dependency of every member of `set` is inside it: one AND for
    /// an all-independent set.
    fn plannable(&self, set: Bits) -> bool {
        bits(set & self.dependents).all(|i| self.members[i].dep_bits & !set == 0)
    }

    /// Whether the join graph connects `set` (non-empty): the admissibility
    /// rule every side of every split obeys, under every strategy.
    fn connected(&self, set: Bits) -> bool {
        component(&self.nbrs, set) == set
    }

    /// Pushes the far side of every split of the connected `set` into two
    /// connected sides whose near side holds `near` (connected, with
    /// `set`'s lowest member) and none of `barred`. Whatever `near` leaves
    /// falls into components, and a connected far side lies within one of
    /// them: the others join the near side, which then grows into that
    /// component one neighbour at a time, each neighbour barred from the
    /// branches after its own so that no split is reached twice.
    fn grow(&mut self, set: Bits, near: Bits, barred: Bits) {
        let mut rest = set & !near;
        while rest != 0 {
            let far = component(&self.nbrs, rest);
            rest &= !far;
            if barred & !far != 0 {
                continue;
            }
            self.splits.push(far);
            if far & (far - 1) == 0 {
                continue;
            }
            let near = set & !far;
            let mut barred = barred;
            for v in bits(far & !barred) {
                if self.nbrs[v] & near != 0 {
                    self.grow(set, near | 1 << v, barred);
                    barred |= 1 << v;
                }
            }
        }
    }

    /// The group of a subset, created at first touch with its derived
    /// cardinality (a logical group property). An exact-set observed
    /// cardinality from the metadata cache's feedback overrides wins over
    /// the estimate: a measured fact rather than a derivation.
    fn group(&mut self, set: Bits) -> usize {
        if let Some(g) = self.table.find(set) {
            return g;
        }
        let observed =
            self.fb.as_ref().and_then(|fb| fb.rel(&self.member_qts_set(set))).map(|r| r.max(0.01));
        let mut base = 1.0f64;
        let mut any_inner = false;
        let mut eq_nbrs = 0;
        for i in bits(set) {
            eq_nbrs |= self.members[i].eq_nbrs;
            if self.members[i].desc.entry.is_inner() {
                base *= self.members[i].filtered_rows;
                any_inner = true;
            }
        }
        if !any_inner {
            base = 1.0;
        }
        // Spanning pool conjuncts fully inside the set.
        for (k, mask) in self.pool_mask.iter().enumerate() {
            if *mask != 0 && mask & !set == 0 && mask.count_ones() >= 2 {
                base *= self.pool_sel[k];
            }
        }
        base = base.max(0.01);
        // Dependent members' effects, in member order.
        for m in bits(set).map(|i| &self.members[i]) {
            match &m.desc.entry {
                EntryDesc::Inner => {}
                EntryDesc::LeftOuter { .. } => {
                    base *= (m.filtered_rows * m.on_sel).max(1.0);
                }
                EntryDesc::Semi { .. } => {
                    // Match probability, not expected match count: inner
                    // rows sharing an equality key value can contribute at
                    // most one match per distinct key combination, so the
                    // row count caps at the key columns' NDV product before
                    // the per-value selectivity applies. Without the cap a
                    // large inner side saturates the clamp at 1.0 and the
                    // semi join "filters" nothing (the TPC-H q18 shape).
                    base *= (m.filtered_rows.min(m.eq_ndv) * m.on_sel).clamp(1e-6, 1.0);
                }
                EntryDesc::Anti { .. } => {
                    base *= (1.0 - (m.filtered_rows * m.on_sel).min(0.95)).max(0.05);
                }
            }
        }
        let rows = observed.unwrap_or(base.max(0.01));
        self.table.push(Group { set, rows, eq_nbrs, winners: [Winner::NONE; 2], explored: false })
    }

    // ------------------------------------------------------------ DP search

    /// Explores `set` and returns its group, whose winner (if the set is
    /// feasible) is the cheapest way to produce it.
    fn best(&mut self, set: Bits, strategy: JoinOrderStrategy) -> Result<usize> {
        self.charge_budget()?;
        if let Some(g) = self.table.find(set) {
            if self.table.groups[g].explored {
                return Ok(g);
            }
        }
        if set.count_ones() == 1 {
            let leaf = &self.members[set.trailing_zeros() as usize].leaf;
            let winners = leaf.each_ref().map(|l| match l {
                Some((_, cost)) => Winner { cost: *cost, s2: 0, imp: Impl::Leaf },
                None => Winner::NONE,
            });
            let g = self.group(set);
            let group = &mut self.table.groups[g];
            (group.winners, group.explored) = (winners, true);
            return Ok(g);
        }
        if !self.plannable(set) {
            let g = self.group(set);
            self.table.groups[g].explored = true;
            return Ok(g);
        }

        let mut winners = [Winner::NONE; 2];
        // The set's own group is created by its first costed split (or
        // below, if there is none), after the children that split explored.
        let mut own: Option<usize> = None;
        // One split: right side s2, left side s1 = set \ s2.
        let mut consider = |this: &mut Self, s2: Bits| -> Result<()> {
            let s1 = set & !s2;
            this.stats.splits_explored += 1;
            this.charge_budget()?;
            // Dependent members must be lone right children with their
            // dependencies covered by the left side; multi-member right
            // subtrees must be standalone-plannable (self-contained).
            let feasible = if s2 & (s2 - 1) == 0 {
                this.members[s2.trailing_zeros() as usize].dep_bits & !s1 == 0
            } else {
                this.plannable(s2)
            };
            if !feasible || !this.plannable(s1) {
                return Ok(());
            }
            let left = this.best(s1, strategy)?;
            let [Some(cost_l), ord_l] = this.table.groups[left].winners.map(|w| w.cost()) else {
                return Ok(());
            };
            let right = this.best(s2, strategy)?;
            if this.table.groups[right].winners[Prop::Any as usize].cost().is_none() {
                return Ok(());
            }
            let out = *own.get_or_insert_with(|| this.group(set));
            // An ordered left child makes the whole split ordered — every
            // join implementation streams its left input in order (nested
            // loops iterate the outer side; hash joins build right and emit
            // probe rows in probe order) — at a cost delta of exactly the
            // left child's ordered-vs-plain difference.
            let (alts, n) = this.cost_split(out, left, right);
            for &(cost, imp) in &alts[..n] {
                winners[Prop::Any as usize].offer(cost, s2, imp);
                if let Some(ol) = ord_l {
                    winners[Prop::Ordered as usize].offer(cost - cost_l + ol, s2, imp);
                }
            }
            // One extra costed alternative per split with an ordered
            // variant (the implementations share their deltas, so a single
            // charge keeps `plans_costed` bounded).
            if ord_l.is_some() {
                this.stats.plans_costed += 1;
            }
            Ok(())
        };
        let pinned = set & self.chained;
        if pinned != 0 {
            // Chained members leave last first, as lone right sides; only a
            // dependent the apply-swap rules place may leave before them.
            let last = 1 << (63 - pinned.leading_zeros());
            for i in bits(set & self.dependents & !pinned | last) {
                consider(self, 1 << i)?;
            }
        } else if strategy == JoinOrderStrategy::Exhaustive {
            // Left-deep: the right side is a single member.
            for i in bits(set) {
                if self.connected(set & !(1 << i)) {
                    consider(self, 1 << i)?;
                }
            }
        } else {
            // Bushy: either side of every split into two connected sides.
            debug_assert!(self.connected(set), "best({set:#b}) off the join graph");
            let frame = self.splits.len();
            self.grow(set, set & set.wrapping_neg(), 0);
            for k in frame..self.splits.len() {
                let far = self.splits[k];
                consider(self, far)?;
                consider(self, set & !far)?;
            }
            self.splits.truncate(frame);
        }
        let g = own.unwrap_or_else(|| self.group(set));
        let group = &mut self.table.groups[g];
        (group.winners, group.explored) = (winners, true);
        Ok(g)
    }

    /// Cost the physical alternatives for joining group `left` to group
    /// `right` into group `out`, in tie-break order; cheap — bit tests on
    /// the masks precomputed in `new`, no plan nodes, no allocation.
    fn cost_split(&mut self, out: usize, left: usize, right: usize) -> ([(f64, Impl); 3], usize) {
        let (l, r) = (&self.table.groups[left], &self.table.groups[right]);
        let any = Prop::Any as usize;
        let (s1, cost_l, rows_l) = (l.set, l.winners[any].cost, l.rows);
        let (s2, cost_r, rows_r) = (r.set, r.winners[any].cost, r.rows);
        let rows_out = self.table.groups[out].rows;
        let lone = (s2 & (s2 - 1) == 0).then(|| &self.members[s2.trailing_zeros() as usize]);
        let correlated_right = lone.is_some_and(|m| m.desc.is_correlated_derived());
        let mut alts = [(0.0, Impl::None); 3];
        let mut n = 0;

        // (a) Hash join (build right, Orca convention §7 item 2) — needs an
        // extractable equi-key and a non-rebinding right side.
        let splits = |&(a, b): &(Bits, Bits)| {
            (a & !s1 == 0 && b & !s2 == 0) || (a & !s2 == 0 && b & !s1 == 0)
        };
        let has_keys = l.eq_nbrs & s2 != 0
            || self.eq_wide.iter().any(splits)
            || lone.is_some_and(|m| m.on_eq.iter().any(splits));
        if has_keys && !correlated_right {
            alts[n] = (cost_l + cost_r + cost::hash_join(rows_r, rows_l, rows_out), Impl::Hash);
            n += 1;
        }

        // (b) Index nested loop for a lone base right member.
        if let Some((_, rows_per_probe)) = lone.and_then(|m| m.lookup(s1)) {
            alts[n] = (cost_l + cost::lookups(rows_l, rows_per_probe), Impl::Lookup);
            n += 1;
        }

        // (c) Plain nested loop / correlated apply.
        let nl_cost = if correlated_right {
            cost_l + cost::apply(rows_l, cost_r, rows_r)
        } else {
            cost_l + cost_r + cost::nl_join(rows_l, rows_r, rows_out)
        };
        alts[n] = (nl_cost, Impl::NestedLoop);
        self.stats.plans_costed += n as u64 + 1;
        (alts, n + 1)
    }

    /// The member a split joins by its own entry semantics, if any: a lone
    /// right side that is semi/anti/outer-joined or a correlated derived.
    fn applied_member(&self, s2: Bits) -> Option<&Member> {
        let m = &self.members[s2.trailing_zeros() as usize];
        (s2 & (s2 - 1) == 0 && (!m.desc.entry.is_inner() || m.desc.is_correlated_derived()))
            .then_some(m)
    }

    /// The join-condition expressions at a split: the pool conjuncts
    /// attaching there, then an applied member's cross ON conjuncts.
    fn join_cond_exprs(&self, set: Bits, s1: Bits, s2: Bits) -> Vec<Expr> {
        let attaches = |m: Bits| m != 0 && m & !set == 0 && m & s1 != 0 && m & s2 != 0;
        let pooled = self.pool.iter().zip(&self.pool_mask).filter(|(_, m)| attaches(**m));
        let own = self.applied_member(s2).map_or(&[][..], |m| &m.on_cross);
        pooled.map(|(c, _)| c).chain(own).cloned().collect()
    }

    fn member_qts_set(&self, set: Bits) -> BTreeSet<usize> {
        bits(set).map(|i| self.members[i].desc.qt).collect()
    }

    // --------------------------------------------------------------- greedy

    fn greedy(&mut self, full: Bits) -> Result<()> {
        let n = self.members.len();
        let mut placed: Bits = 0;
        // Driving member: fewest filtered rows among non-dependents.
        let first = (0..n)
            .filter(|&i| !self.members[i].desc.is_dependent())
            .min_by(|&a, &b| {
                self.members[a]
                    .filtered_rows
                    .partial_cmp(&self.members[b].filtered_rows)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or_else(|| Error::semantic("no independent driving table"))?;
        placed |= 1 << first;
        let mut left = self.best(placed, JoinOrderStrategy::Exhaustive)?;
        while placed != full {
            self.charge_budget()?;
            let mut next = Winner::NONE;
            for i in 0..n {
                let bit = 1u64 << i;
                // The chain grows along an edge of the join graph.
                if placed & bit != 0
                    || self.nbrs[i] & placed == 0
                    || self.members[i].dep_bits & !placed != 0
                {
                    continue;
                }
                let right = self.best(bit, JoinOrderStrategy::Exhaustive)?;
                let out = self.group(placed | bit);
                let (alts, n) = self.cost_split(out, left, right);
                for &(cost, imp) in &alts[..n] {
                    next.offer(cost, bit, imp);
                }
            }
            if next.imp == Impl::None {
                return Err(Error::semantic("greedy: no placeable member"));
            }
            placed |= next.s2;
            left = self.group(placed);
            let group = &mut self.table.groups[left];
            (group.winners[Prop::Any as usize], group.explored) = (next, true);
        }
        Ok(())
    }

    // -------------------------------------------------------- reconstruction

    /// Build a group's winning physical tree for `prop` from its decision
    /// chain, deriving what the decisions leave out: join conditions, hash
    /// keys, and a lookup's keys, consumed conjuncts and rows per probe.
    fn reconstruct(&mut self, set: Bits, prop: Prop) -> Result<PhysNode> {
        let no_winner = || Error::internal("reconstructing a group without a winner");
        let group = self.table.find(set).ok_or_else(no_winner)?;
        let g = &self.table.groups[group];
        let (rows, Winner { cost, s2, imp }) = (g.rows, g.winners[prop as usize]);
        match imp {
            Impl::None => Err(no_winner()),
            Impl::Leaf => {
                let leaf = &self.members[set.trailing_zeros() as usize].leaf[prop as usize];
                leaf.as_ref().map(|(node, _)| node.clone()).ok_or_else(no_winner)
            }
            imp => {
                // A property flows along the left spine only; the right
                // child is always the plain winner.
                let s1 = set & !s2;
                let left = self.reconstruct(s1, prop)?;
                let right = self.reconstruct(s2, Prop::Any)?;
                let (kind, null_aware) = match self.applied_member(s2).map(|m| &m.desc.entry) {
                    Some(EntryDesc::LeftOuter { .. }) => (PhysJoinKind::LeftOuter, false),
                    Some(EntryDesc::Semi { .. }) => (PhysJoinKind::Semi, false),
                    Some(EntryDesc::Anti { null_aware, .. }) => {
                        (PhysJoinKind::AntiSemi, *null_aware)
                    }
                    _ => (PhysJoinKind::Inner, false),
                };
                let on = self.join_cond_exprs(set, s1, s2);
                Ok(match imp {
                    Impl::Hash => {
                        let lqts = self.member_qts_set(s1);
                        let rqts = self.member_qts_set(s2);
                        let (keys, residual) = split_hash_keys(&on, &lqts, &rqts, &self.desc.outer);
                        PhysNode::HashJoin {
                            kind,
                            null_aware,
                            left: Box::new(left),
                            right: Box::new(right),
                            keys,
                            residual,
                            rows,
                            cost,
                            group,
                        }
                    }
                    imp => {
                        let (inner, on) = if imp == Impl::Lookup {
                            let m = &self.members[s2.trailing_zeros() as usize];
                            let (ix, rows_per_probe) =
                                m.lookup(s1).expect("a lookup winner has a usable index");
                            let (mut keys, mut consumed) = (Vec::new(), Vec::new());
                            for key in m.lookups[ix].usable(s1) {
                                let own = || &m.on_cross[key.at - self.pool.len()];
                                let c = self.pool.get(key.at).unwrap_or_else(own);
                                let (_, other) = eq_col_key(c, m.desc.qt)
                                    .expect("a lookup key is a column equality");
                                keys.push(other.clone());
                                consumed.push(c.clone());
                            }
                            let on = on.into_iter().filter(|c| !consumed.contains(c)).collect();
                            let probe = PhysNode::IndexLookup {
                                qt: m.desc.qt,
                                index: m.lookups[ix].position,
                                keys,
                                consumed,
                                preds: m.local.clone(),
                                rows: rows_per_probe,
                                cost: cost::lookups(1.0, rows_per_probe),
                                group: self.group(s2),
                            };
                            (probe, on)
                        } else {
                            (right, on)
                        };
                        PhysNode::NLJoin {
                            kind,
                            null_aware,
                            outer: Box::new(left),
                            inner: Box::new(inner),
                            on,
                            rows,
                            cost,
                            group,
                        }
                    }
                })
            }
        }
    }
}

impl Member {
    /// The cheapest index lookup into this member from a left side holding
    /// `s1`: the position in `lookups` and the rows per probe.
    fn lookup(&self, s1: Bits) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (ix, index) in self.lookups.iter().enumerate() {
            let len = index.usable(s1).count();
            if len == 0 {
                continue;
            }
            let floor = if index.unique { 0.0 } else { 0.5 };
            let rows = (self.base_rows * index.cols[len - 1].1).clamp(floor, self.base_rows);
            if best.is_none_or(|(_, prev)| rows < prev) {
                best = Some((ix, rows.max(0.5)));
            }
        }
        best
    }
}

impl LookupIndex {
    /// The key conjunct per leading column a left side holding `s1` can
    /// feed, up to the first column it cannot.
    fn usable(&self, s1: Bits) -> impl Iterator<Item = &LookupKey> {
        self.cols.iter().map_while(move |(keys, _)| keys.iter().find(|k| k.need & !s1 == 0))
    }
}

/// The lowest member of `within` (non-empty) and the members of `within` the
/// join graph connects it to.
fn component(nbrs: &[Bits], within: Bits) -> Bits {
    let seed = within & within.wrapping_neg();
    let (mut reached, mut frontier) = (seed, seed);
    while frontier != 0 {
        let next = bits(frontier).fold(0, |n, i| n | nbrs[i]);
        frontier = next & within & !reached;
        reached |= frontier;
    }
    reached
}

/// The member indexes of a set, ascending.
fn bits(set: Bits) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(set), |s| Some(s & s.wrapping_sub(1)))
        .take_while(|s| *s != 0)
        .map(|s| s.trailing_zeros() as usize)
}

/// A member's base rows, its filtered rows, its cheapest standalone access
/// per required property with that access's cost, and its indexes.
type LeafAlternatives = (f64, f64, Props<Option<(PhysNode, f64)>>, Vec<MdIndex>);

/// Offers every standalone access of a member to each property it delivers,
/// keeping the cheapest per property (of equal costs the first offered).
/// `req` is the block's required order on the anchor member and empty on
/// every other. An observed post-filter cardinality from a prior execution
/// beats any estimate, and every access carries it.
fn build_leaf(
    m: &MemberDesc,
    local: &[Expr],
    req: &[OrderKey],
    observed: Option<f64>,
    md: &MdCache<'_>,
    est: &Estimator,
    group: usize,
) -> Result<LeafAlternatives> {
    let (n, indexes, cost) = match &m.source {
        RelSource::Base { oid } => {
            let rel = md
                .relation(*oid)
                .ok_or_else(|| Error::CatalogMissing(format!("relation {oid}")))?;
            (rel.rows, md.indexes(*oid), cost::scan(rel.rows))
        }
        RelSource::Derived { rows, cost, .. } => (*rows, Vec::new(), *cost),
    };
    let rows = match observed {
        Some(rows) => rows.max(0.01),
        None => (n * est.conjunct_selectivity(local, n)).max(0.01),
    };
    let (qt, preds) = (m.qt, local.to_vec());
    let whole = match m.source {
        RelSource::Base { .. } => PhysNode::Scan { qt, preds, rows, cost, group },
        RelSource::Derived { .. } => PhysNode::DerivedScan { qt, preds, rows, cost, group },
    };
    let mut leaf: Props<Option<(PhysNode, f64)>> = [Some((whole, cost)), None];
    let mut offer = |prop: Prop, cost: f64, node: &dyn Fn() -> PhysNode| {
        let best = &mut leaf[prop as usize];
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            *best = Some((node(), cost));
        }
    };
    let rest =
        |consumed: &[Expr]| local.iter().filter(|p| !consumed.contains(p)).cloned().collect();
    for ix in &indexes {
        let Some(&lead) = ix.columns.first() else { continue };
        if let Some(range) = column_range(local, qt, lead) {
            let cost = cost::range(n * est.conjunct_selectivity(&range.consumed, n));
            offer(Prop::Any, cost, &|| PhysNode::IndexRange {
                qt,
                index: ix.position,
                lo: range.lo.clone(),
                hi: range.hi.clone(),
                consumed: range.consumed.clone(),
                preds: rest(&range.consumed),
                rows,
                cost,
                group,
            });
        }
        // A full ordered index scan delivers (all-ascending) required keys
        // that are a prefix of the index's columns — forward B-tree
        // iteration only, no backward scans.
        if !req.is_empty()
            && req.iter().all(|k| !k.desc)
            && ix.columns.len() >= req.len()
            && req.iter().zip(&ix.columns).all(|(k, &c)| k.col == c)
        {
            let cost = cost::ordered_scan(n);
            offer(Prop::Ordered, cost, &|| PhysNode::IndexScan {
                qt,
                index: ix.position,
                preds: local.to_vec(),
                rows,
                cost,
                group,
            });
        }
    }
    // Cost-based IN-list rewrite: probe the index once per listed value
    // instead of scanning, and let the cost model choose. Probe keys are
    // sorted ascending and deduplicated, so the concatenated lookups also
    // deliver the leading column ascending.
    for ix in &indexes {
        let Some(&lead) = ix.columns.first() else { continue };
        for p in local {
            let Expr::InList { expr, list, negated: false } = p else { continue };
            if !matches!(expr.as_ref(), Expr::Column(c) if c.table == qt && c.col == lead) {
                continue;
            }
            // Non-literal elements defeat a static probe list; NULL
            // elements never produce a match under `=` and drop out (rows
            // matching no element go from FALSE to UNKNOWN — filtered
            // either way).
            let mut vals: Vec<Value> = Vec::with_capacity(list.len());
            let all_literal = list.iter().all(|e| match e {
                Expr::Literal(v) => {
                    if !v.is_null() {
                        vals.push(v.clone());
                    }
                    true
                }
                _ => false,
            });
            if !all_literal || vals.is_empty() {
                continue;
            }
            vals.sort_by(|a, b| a.total_cmp(b));
            vals.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
            let per = (n / est.ndv(ColRef { table: qt, col: lead }).max(1.0)).max(0.5);
            let cost = cost::lookups(vals.len() as f64, per);
            let consumed = std::slice::from_ref(p);
            let node = || PhysNode::InListProbes {
                qt,
                index: ix.position,
                keys: vals.iter().map(|v| Expr::Literal(v.clone())).collect(),
                consumed: consumed.to_vec(),
                preds: rest(consumed),
                rows,
                cost,
                group,
            };
            offer(Prop::Any, cost, &node);
            if matches!(req, [key] if !key.desc && key.col == lead) {
                offer(Prop::Ordered, cost, &node);
            }
        }
    }
    // Sort-ahead: a Sort enforcer over the cheapest access delivers any
    // required order, and wins ties.
    if let ([Some((any, any_cost)), ordered], false) = (&mut leaf, req.is_empty()) {
        let cost = *any_cost + cost::sort(rows);
        if ordered.as_ref().is_none_or(|(_, c)| cost <= *c) {
            let (input, keys) = (Box::new(any.clone()), req.to_vec());
            *ordered = Some((PhysNode::Sort { input, keys, rows, cost, group }, cost));
        }
    }
    Ok((n, rows, leaf, indexes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::{InMemoryAccessor, MdRelation};
    use taurus_catalog::estimate::ColView;
    use taurus_common::Oid;

    /// fact(0): 100k rows, fk ndv 100; dim(1): 100 rows with unique pk
    /// index; small(2): 50 rows no index.
    fn setup() -> (InMemoryAccessor, BlockDesc) {
        let mut md = InMemoryAccessor::default();
        md.insert(
            Oid(1),
            MdRelation { name: "fact".into(), rows: 100_000.0, num_columns: 3 },
            Some(RelView {
                rows: 100_000.0,
                cols: vec![
                    Some(ColView { ndv: 100.0, null_frac: 0.0, hist: None }),
                    Some(ColView { ndv: 50.0, null_frac: 0.0, hist: None }),
                    Some(ColView { ndv: 100_000.0, null_frac: 0.0, hist: None }),
                ],
            }),
            vec![],
        );
        md.insert(
            Oid(2),
            MdRelation { name: "dim".into(), rows: 100.0, num_columns: 2 },
            Some(RelView {
                rows: 100.0,
                cols: vec![
                    Some(ColView { ndv: 100.0, null_frac: 0.0, hist: None }),
                    Some(ColView { ndv: 100.0, null_frac: 0.0, hist: None }),
                ],
            }),
            vec![MdIndex { position: 0, name: "dim_pk".into(), columns: vec![0], unique: true }],
        );
        md.insert(
            Oid(3),
            MdRelation { name: "small".into(), rows: 50.0, num_columns: 2 },
            Some(RelView {
                rows: 50.0,
                cols: vec![
                    Some(ColView { ndv: 50.0, null_frac: 0.0, hist: None }),
                    Some(ColView { ndv: 50.0, null_frac: 0.0, hist: None }),
                ],
            }),
            vec![],
        );
        let member = |qt: usize, oid: u64| MemberDesc {
            qt,
            source: RelSource::Base { oid: Oid(oid) },
            entry: EntryDesc::Inner,
            deps: BTreeSet::new(),
        };
        let desc = BlockDesc {
            num_tables: 3,
            members: vec![member(0, 1), member(1, 2), member(2, 3)],
            predicates: vec![
                Expr::eq(Expr::col(0, 0), Expr::col(1, 0)), // fact.fk = dim.pk
                Expr::eq(Expr::col(0, 1), Expr::col(2, 0)), // fact.k2 = small.a
            ],
            outer: BTreeSet::new(),
            has_aggregation: false,
            required_order: vec![],
        };
        (md, desc)
    }

    #[test]
    fn exhaustive2_picks_hash_joins_for_large_probe() {
        let (md, desc) = setup();
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        // 100k-row fact probing 100-row dim: hash joins beat per-row lookups.
        let (_nl, hj) = plan.root.join_method_counts();
        assert!(hj >= 1, "expected hash joins:\n{}", plan.root.sketch());
        assert!(!plan.changed_block_structure);
        assert!(plan.stats.groups > 3);
        assert!(plan.stats.plans_costed > 0);
    }

    #[test]
    fn strategies_explore_increasing_split_counts() {
        let (md, desc) = setup();
        let run = |s: JoinOrderStrategy| {
            optimize_block(&desc, &md, &OrcaConfig::with_strategy(s)).unwrap().stats
        };
        let greedy = run(JoinOrderStrategy::Greedy);
        let exh = run(JoinOrderStrategy::Exhaustive);
        let exh2 = run(JoinOrderStrategy::Exhaustive2);
        assert!(exh2.splits_explored >= exh.splits_explored);
        assert!(exh.splits_explored >= greedy.splits_explored || greedy.splits_explored < 20);
    }

    #[test]
    fn lookup_wins_with_tiny_outer() {
        // 50-row small driving a lookup into dim via index when connected.
        let (md, mut desc) = setup();
        // Connect small directly to dim so a 2-way plan exists.
        desc.members.truncate(2);
        desc.members[0] = MemberDesc {
            qt: 0,
            source: RelSource::Base { oid: Oid(3) }, // small, 50 rows
            entry: EntryDesc::Inner,
            deps: BTreeSet::new(),
        };
        desc.predicates = vec![Expr::eq(Expr::col(0, 0), Expr::col(1, 0))];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(plan.root.cost() > 0.0);
        assert_eq!(plan.root.leaf_qts().len(), 2);
    }

    #[test]
    fn bushy_plans_emerge_under_exhaustive2() {
        // Two star arms: (f ⋈ d1) ⋈ (g ⋈ d2) — bushy is natural when both
        // arms reduce cardinality before the cross equi-join.
        let mut md = InMemoryAccessor::default();
        let mut add = |oid: u64, name: &str, rows: f64, ndv0: f64| {
            md.insert(
                Oid(oid),
                MdRelation { name: name.into(), rows, num_columns: 2 },
                Some(RelView {
                    rows,
                    cols: vec![
                        Some(ColView { ndv: ndv0, null_frac: 0.0, hist: None }),
                        Some(ColView { ndv: rows.max(2.0) / 2.0, null_frac: 0.0, hist: None }),
                    ],
                }),
                vec![],
            );
        };
        add(1, "f", 10_000.0, 100.0);
        add(2, "d1", 100.0, 100.0);
        add(3, "g", 10_000.0, 100.0);
        add(4, "d2", 100.0, 100.0);
        let member = |qt: usize, oid: u64| MemberDesc {
            qt,
            source: RelSource::Base { oid: Oid(oid) },
            entry: EntryDesc::Inner,
            deps: BTreeSet::new(),
        };
        let desc = BlockDesc {
            num_tables: 4,
            members: vec![member(0, 1), member(1, 2), member(2, 3), member(3, 4)],
            predicates: vec![
                Expr::eq(Expr::col(0, 0), Expr::col(1, 0)),
                Expr::eq(Expr::col(2, 0), Expr::col(3, 0)),
                Expr::eq(Expr::col(0, 1), Expr::col(2, 1)),
            ],
            outer: BTreeSet::new(),
            has_aggregation: false,
            required_order: vec![],
        };
        let exh2 = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        let exh =
            optimize_block(&desc, &md, &OrcaConfig::with_strategy(JoinOrderStrategy::Exhaustive))
                .unwrap();
        // EXHAUSTIVE2 must do at least as well as left-deep DP.
        assert!(exh2.root.cost() <= exh.root.cost() + 1e-6);
    }

    #[test]
    fn dependents_forced_last_without_apply_swaps() {
        let (md, mut desc) = setup();
        // Make dim a semi-joined member correlated on fact.
        desc.members[1].entry =
            EntryDesc::Semi { on: vec![Expr::eq(Expr::col(0, 0), Expr::col(1, 0))] };
        desc.members[1].deps = BTreeSet::from([0]);
        desc.predicates = vec![Expr::eq(Expr::col(0, 1), Expr::col(2, 0))];
        let cfg = OrcaConfig { enable_apply_swaps: false, ..OrcaConfig::default() };
        let plan = optimize_block(&desc, &md, &cfg).unwrap();
        // The semi member (qt 1) must be the last leaf.
        assert_eq!(plan.root.leaf_qts().last().copied(), Some(1));
        // With swaps enabled it may be placed earlier.
        let free = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(free.root.cost() <= plan.root.cost() + 1e-6);
    }

    #[test]
    fn trivial_scalar_applies_chain_to_the_end() {
        // Uncorrelated ON-TRUE LeftOuter dependents (scalar subqueries)
        // must not blow up the search space: they chain after the inner
        // members in member order.
        let (md, mut desc) = setup();
        desc.members[1].entry = EntryDesc::LeftOuter { on: vec![] };
        desc.members[1].source = RelSource::Derived {
            rows: 1.0,
            cost: 10.0,
            width: 1,
            correlated: false,
            cols: Vec::new(),
        };
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert_eq!(plan.root.leaf_qts().last().copied(), Some(1));
    }

    #[test]
    fn gbagg_rule_reports_changed_structure() {
        let (md, mut desc) = setup();
        desc.has_aggregation = true;
        let cfg = OrcaConfig { enable_gbagg_below_join: true, ..OrcaConfig::default() };
        let plan = optimize_block(&desc, &md, &cfg).unwrap();
        assert!(plan.changed_block_structure, "host must fall back (§4.2.1)");
        let normal = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(!normal.changed_block_structure);
    }

    #[test]
    fn exhaustive2_caps_to_left_deep_beyond_member_cap() {
        // Three members: a cap of 2 runs the block left-deep and says so in
        // its stats; a cap of 3 leaves it bushy.
        let (md, desc) = setup();
        let run = |bushy_member_cap: usize, strategy: JoinOrderStrategy| {
            let cfg = OrcaConfig { bushy_member_cap, ..OrcaConfig::with_strategy(strategy) };
            let plan = optimize_block(&desc, &md, &cfg).unwrap();
            (plan.strategy, plan.stats)
        };
        let capped = run(2, JoinOrderStrategy::Exhaustive2);
        assert_eq!(capped.0, JoinOrderStrategy::Exhaustive);
        assert_eq!(
            capped,
            run(2, JoinOrderStrategy::Exhaustive),
            "the capped search is EXHAUSTIVE"
        );
        let bushy = run(3, JoinOrderStrategy::Exhaustive2);
        assert_eq!(bushy.0, JoinOrderStrategy::Exhaustive2);
        assert!(bushy.1.splits_explored > capped.1.splits_explored);
        // The cap only ever applies to EXHAUSTIVE2.
        assert_eq!(run(2, JoinOrderStrategy::Greedy).0, JoinOrderStrategy::Greedy);
    }

    /// `n` inner members of 1 000 rows with one equality per edge: a block
    /// that is its join graph and nothing else.
    fn graph_block(n: usize, edges: &[(usize, usize)]) -> (InMemoryAccessor, BlockDesc) {
        let mut md = InMemoryAccessor::default();
        let col = || Some(ColView { ndv: 100.0, null_frac: 0.0, hist: None });
        let mut members = Vec::new();
        for qt in 0..n {
            let oid = Oid(qt as u64 + 1);
            md.insert(
                oid,
                MdRelation { name: format!("t{qt}"), rows: 1_000.0, num_columns: 1 },
                Some(RelView { rows: 1_000.0, cols: vec![col()] }),
                vec![],
            );
            members.push(MemberDesc {
                qt,
                source: RelSource::Base { oid },
                entry: EntryDesc::Inner,
                deps: BTreeSet::new(),
            });
        }
        let desc = BlockDesc {
            num_tables: n,
            members,
            predicates: edges
                .iter()
                .map(|&(a, b)| Expr::eq(Expr::col(a, 0), Expr::col(b, 0)))
                .collect(),
            outer: BTreeSet::new(),
            has_aggregation: false,
            required_order: vec![],
        };
        (md, desc)
    }

    #[test]
    fn splits_explored_is_the_graphs_own_count() {
        let splits = |n: usize, edges: &[(usize, usize)], s: JoinOrderStrategy| {
            let (md, desc) = graph_block(n, edges);
            optimize_block(&desc, &md, &OrcaConfig::with_strategy(s)).unwrap().stats.splits_explored
        };
        use JoinOrderStrategy::{Exhaustive, Exhaustive2};
        // A centre and k = 9 leaves: a set of the centre and j leaves splits
        // only by shedding a leaf — k·2^k either way round — and left-deep
        // by shedding a leaf, or the centre from its last one.
        let star: Vec<_> = (1..=9).map(|leaf| (0, leaf)).collect();
        assert_eq!(splits(10, &star, Exhaustive2), 9 << 9);
        assert_eq!(splits(10, &star, Exhaustive), (9 << 8) + 9);
        // The same star with the centre numbered last.
        let star_last: Vec<_> = (0..9).map(|leaf| (9, leaf)).collect();
        assert_eq!(splits(10, &star_last, Exhaustive2), 9 << 9);
        // A chain of 8: an interval of m members splits at its m − 1 edges.
        let chain: Vec<_> = (0..7).map(|i| (i, i + 1)).collect();
        assert_eq!(splits(8, &chain, Exhaustive2), (8 * 8 * 8 - 8) / 3);
        // A 6-clique keeps the whole subset lattice: 3^6 − 2^7 + 1.
        let clique: Vec<_> = (0..6).flat_map(|a| (a + 1..6).map(move |b| (a, b))).collect();
        assert_eq!(splits(6, &clique, Exhaustive2), 602);
        // No predicate at all: the three components chain 0 — 1 — 2.
        assert_eq!(splits(3, &[], Exhaustive2), splits(3, &[(0, 1), (1, 2)], Exhaustive2));
        // One conjunct over three members links every pair of them.
        let (md, mut desc) = graph_block(3, &[]);
        let sum = Expr::binary(BinOp::Add, Expr::col(0, 0), Expr::col(1, 0));
        desc.predicates = vec![Expr::eq(sum, Expr::col(2, 0))];
        let wide = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap().stats;
        assert_eq!(wide.splits_explored, splits(3, &[(0, 1), (1, 2), (0, 2)], Exhaustive2));
    }

    #[test]
    fn grow_reaches_each_split_into_connected_sides_once() {
        // Random connected graphs, every connected subset of each: what
        // `grow` pushes is what a filtered scan of the submasks finds.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below as u64) as usize
        };
        for _ in 0..40 {
            let n = 2 + draw(7);
            let mut edges: Vec<_> = (1..n).map(|b| (draw(b), b)).collect();
            for _ in 0..draw(n) {
                let (a, b) = (draw(n), draw(n));
                if a != b {
                    edges.push((a, b));
                }
            }
            let (md, desc) = graph_block(n, &edges);
            let (cache, cfg) = (MdCache::new(&md), OrcaConfig::default());
            let mut search = Search::new(&desc, &cache, &cfg).unwrap();
            for set in (1..1u64 << n).filter(|set| set.count_ones() > 1) {
                if !search.connected(set) {
                    continue;
                }
                let lowest = set & set.wrapping_neg();
                let mut want: Vec<Bits> = (1..set)
                    .filter(|far| far & !set == 0 && far & lowest == 0)
                    .filter(|far| search.connected(*far) && search.connected(set & !far))
                    .collect();
                search.grow(set, lowest, 0);
                let mut got = std::mem::take(&mut search.splits);
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "{edges:?} over {set:#b}");
            }
        }
    }

    #[test]
    fn equal_costs_tie_break_the_same_in_any_order() {
        let alts = [
            (5.0, 0b0010, Impl::Hash),
            (5.0, 0b0100, Impl::NestedLoop),
            (7.0, 0b1000, Impl::Hash),
            (5.0, 0b0100, Impl::Lookup),
            (5.0, 0b0001, Impl::Hash),
        ];
        for turn in 0..alts.len() {
            for reversed in [false, true] {
                let mut order = alts;
                order.rotate_left(turn);
                if reversed {
                    order.reverse();
                }
                let mut winner = Winner::NONE;
                for (cost, s2, imp) in order {
                    winner.offer(cost, s2, imp);
                }
                // The larger right side, then lookup before nested loop.
                assert!(
                    (winner.cost, winner.s2, winner.imp) == (5.0, 0b0100, Impl::Lookup),
                    "rotated {turn}, reversed {reversed}"
                );
            }
        }
    }

    #[test]
    fn missing_metadata_is_an_error() {
        let md = InMemoryAccessor::default();
        let desc = BlockDesc {
            num_tables: 1,
            members: vec![MemberDesc {
                qt: 0,
                source: RelSource::Base { oid: Oid(42) },
                entry: EntryDesc::Inner,
                deps: BTreeSet::new(),
            }],
            predicates: vec![],
            outer: BTreeSet::new(),
            has_aggregation: false,
            required_order: vec![],
        };
        assert!(optimize_block(&desc, &md, &OrcaConfig::default()).is_err());
    }

    #[test]
    fn tight_budget_exhausts_deterministically() {
        let (md, desc) = setup();
        let cfg = OrcaConfig {
            budget: SearchBudget { max_groups: 2, max_plans_costed: 2 },
            ..OrcaConfig::default()
        };
        let a = optimize_block(&desc, &md, &cfg).unwrap_err();
        let b = optimize_block(&desc, &md, &cfg).unwrap_err();
        assert!(a.is_resource_exhausted(), "{a}");
        assert_eq!(a, b, "exhaustion point is deterministic");
        // An ample budget changes nothing.
        let cfg = OrcaConfig {
            budget: SearchBudget { max_groups: 1 << 20, max_plans_costed: 1 << 30 },
            ..OrcaConfig::default()
        };
        assert!(optimize_block(&desc, &md, &cfg).is_ok());
    }

    #[test]
    fn greedy_fits_budgets_that_exhaust_dp() {
        // The degradation-ladder premise: a budget can kill the DP
        // strategies yet leave greedy's linear search room to finish.
        let (md, desc) = setup();
        let costed = |s: JoinOrderStrategy| {
            optimize_block(&desc, &md, &OrcaConfig::with_strategy(s)).unwrap().stats.plans_costed
        };
        let greedy_effort = costed(JoinOrderStrategy::Greedy);
        let dp_effort = costed(JoinOrderStrategy::Exhaustive);
        assert!(greedy_effort < dp_effort, "{greedy_effort} vs {dp_effort}");
        let budget = SearchBudget { max_groups: usize::MAX, max_plans_costed: greedy_effort };
        let mut cfg = OrcaConfig::with_strategy(JoinOrderStrategy::Exhaustive);
        cfg.budget = budget;
        assert!(optimize_block(&desc, &md, &cfg).unwrap_err().is_resource_exhausted());
        let mut cfg = OrcaConfig::with_strategy(JoinOrderStrategy::Greedy);
        cfg.budget = budget;
        assert!(optimize_block(&desc, &md, &cfg).is_ok());
    }

    #[test]
    fn squeeze_fault_forces_exhaustion() {
        let (md, desc) = setup();
        let cfg = OrcaConfig {
            faults: crate::config::FaultInjector::default()
                .arm(FaultSite::OptimizeSearch, crate::config::FaultKind::BudgetSqueeze),
            ..OrcaConfig::default()
        };
        assert!(optimize_block(&desc, &md, &cfg).unwrap_err().is_resource_exhausted());
    }

    #[test]
    fn rule_counters_flow_into_search_stats() {
        let (md, mut desc) = setup();
        desc.members.truncate(2);
        let eqp = Expr::eq(Expr::col(0, 0), Expr::col(1, 0));
        let x = Expr::eq(Expr::col(1, 1), Expr::int(1));
        let y = Expr::eq(Expr::col(1, 1), Expr::int(2));
        desc.predicates = vec![Expr::or(Expr::and(eqp.clone(), x), Expr::and(eqp, y))];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert_eq!((plan.stats.rules_applied, plan.stats.rules_hit), (1, 1));
        // Factorization off: the rule never runs.
        let cfg = OrcaConfig { enable_or_factorization: false, ..OrcaConfig::default() };
        let plan = optimize_block(&desc, &md, &cfg).unwrap();
        assert_eq!((plan.stats.rules_applied, plan.stats.rules_hit), (0, 0));
    }

    /// One 100k-row table (oid 1) with an index on column 0 — big enough
    /// that `n·log2(n)` sorting costs more than ordered random access.
    fn big_indexed() -> (InMemoryAccessor, BlockDesc) {
        let mut md = InMemoryAccessor::default();
        md.insert(
            Oid(1),
            MdRelation { name: "big".into(), rows: 100_000.0, num_columns: 2 },
            Some(RelView {
                rows: 100_000.0,
                cols: vec![
                    Some(ColView { ndv: 100_000.0, null_frac: 0.0, hist: None }),
                    Some(ColView { ndv: 50.0, null_frac: 0.0, hist: None }),
                ],
            }),
            vec![MdIndex { position: 0, name: "big_pk".into(), columns: vec![0], unique: true }],
        );
        let desc = BlockDesc {
            num_tables: 1,
            members: vec![MemberDesc {
                qt: 0,
                source: RelSource::Base { oid: Oid(1) },
                entry: EntryDesc::Inner,
                deps: BTreeSet::new(),
            }],
            predicates: vec![],
            outer: BTreeSet::new(),
            has_aggregation: false,
            required_order: vec![OrderKey { qt: 0, col: 0, desc: false }],
        };
        (md, desc)
    }

    #[test]
    fn required_order_picks_ordered_index_scan_on_large_table() {
        // 100k rows: ordered scan (2.0/row = 200k) beats scan + sort
        // (100k + 100k·log2(100k)·0.1 ≈ 266k) — delivering order from
        // inside the plan wins the root comparison.
        let (md, desc) = big_indexed();
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(
            matches!(plan.root, PhysNode::IndexScan { index: 0, .. }),
            "{}",
            plan.root.sketch()
        );
    }

    #[test]
    fn required_order_rejected_when_enforcing_is_cheaper() {
        // Order on the unindexed column 1: sort-ahead at the single leaf
        // costs exactly what the host's root enforcer costs (same row
        // count), so the honest comparison keeps the plain plan and lets
        // the host sort.
        let (md, mut desc) = big_indexed();
        desc.required_order = vec![OrderKey { qt: 0, col: 1, desc: false }];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(matches!(plan.root, PhysNode::Scan { .. }), "{}", plan.root.sketch());
    }

    #[test]
    fn order_properties_off_plans_order_blind() {
        let (md, desc) = big_indexed();
        let cfg = OrcaConfig { order_properties: false, ..OrcaConfig::default() };
        let blind = optimize_block(&desc, &md, &cfg).unwrap();
        assert!(matches!(blind.root, PhysNode::Scan { .. }), "{}", blind.root.sketch());
        // The ordered machinery costs extra alternatives; switching it off
        // must show up in the SearchTrace accounting.
        let on = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(
            blind.stats.plans_costed < on.stats.plans_costed,
            "{} !< {}",
            blind.stats.plans_costed,
            on.stats.plans_costed
        );
    }

    #[test]
    fn sort_ahead_wins_below_a_join() {
        // ORDER BY dim.name over fact ⋈ dim: sorting 100 dim rows ahead of
        // the join (order survives the left spine) beats sorting the 100k
        // join output rows at the root.
        let (md, mut desc) = setup();
        desc.members.truncate(2);
        desc.predicates = vec![Expr::eq(Expr::col(0, 0), Expr::col(1, 0))];
        // dim.name (qt 1, col 1) has no index: sort-ahead is the only
        // ordered alternative.
        desc.required_order = vec![OrderKey { qt: 1, col: 1, desc: false }];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        fn has_sort(n: &PhysNode) -> bool {
            match n {
                PhysNode::Sort { .. } => true,
                PhysNode::NLJoin { outer, inner, .. } => has_sort(outer) || has_sort(inner),
                PhysNode::HashJoin { left, right, .. } => has_sort(left) || has_sort(right),
                _ => false,
            }
        }
        assert!(has_sort(&plan.root), "expected a sort-ahead:\n{}", plan.root.sketch());
        assert!(!matches!(plan.root, PhysNode::Sort { .. }), "sort-ahead, not a root enforcer");
    }

    #[test]
    fn in_list_rewrite_is_cost_based() {
        // dim.pk IN (3 values) on a 100-row table with a unique index:
        // 3 probes at 5.5 each beat the 100-unit scan. Both alternatives
        // are costed; the winner flips with the list size.
        let (md, mut desc) = setup();
        desc.members = vec![MemberDesc {
            qt: 0,
            source: RelSource::Base { oid: Oid(2) }, // dim, indexed
            entry: EntryDesc::Inner,
            deps: BTreeSet::new(),
        }];
        let in_list = |n: i64| Expr::InList {
            expr: Box::new(Expr::col(0, 0)),
            list: (0..n).map(Expr::int).collect(),
            negated: false,
        };
        desc.predicates = vec![in_list(3)];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(
            matches!(plan.root, PhysNode::InListProbes { .. }),
            "3 probes beat a scan:\n{}",
            plan.root.sketch()
        );
        // 30 probes cost 165 against a 100-unit scan: the scan wins.
        desc.predicates = vec![in_list(30)];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(
            matches!(plan.root, PhysNode::Scan { .. }),
            "30 probes lose to a scan:\n{}",
            plan.root.sketch()
        );
    }

    #[test]
    fn in_list_probes_deduplicate_sort_and_drop_null_keys() {
        let (md, mut desc) = setup();
        desc.members = vec![MemberDesc {
            qt: 0,
            source: RelSource::Base { oid: Oid(2) },
            entry: EntryDesc::Inner,
            deps: BTreeSet::new(),
        }];
        desc.predicates = vec![Expr::InList {
            expr: Box::new(Expr::col(0, 0)),
            list: vec![
                Expr::int(7),
                Expr::Literal(Value::Null), // never matches under `=`
                Expr::int(2),
                Expr::int(7), // duplicate
            ],
            negated: false,
        }];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        match &plan.root {
            PhysNode::InListProbes { keys, .. } => {
                assert_eq!(
                    keys,
                    &vec![Expr::int(2), Expr::int(7)],
                    "keys sorted ascending, deduplicated, NULL dropped"
                );
            }
            other => panic!("{}", other.sketch()),
        }
        // The probe union delivers the leading column ascending, so with a
        // matching required order it also wins the root order decision.
        desc.required_order = vec![OrderKey { qt: 0, col: 0, desc: false }];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        assert!(matches!(plan.root, PhysNode::InListProbes { .. }), "{}", plan.root.sketch());
    }

    #[test]
    fn or_factorized_pool_enables_hash_join() {
        // The Q41 shape: the only join condition hides inside an OR.
        let (md, mut desc) = setup();
        desc.members.truncate(2);
        let eqp = Expr::eq(Expr::col(0, 0), Expr::col(1, 0));
        let x = Expr::eq(Expr::col(1, 1), Expr::int(1));
        let y = Expr::eq(Expr::col(1, 1), Expr::int(2));
        desc.predicates = vec![Expr::or(Expr::and(eqp.clone(), x), Expr::and(eqp.clone(), y))];
        let plan = optimize_block(&desc, &md, &OrcaConfig::default()).unwrap();
        let (_, hj) = plan.root.join_method_counts();
        assert_eq!(hj, 1, "factored equality must drive a hash join:\n{}", plan.root.sketch());
        // With factorization off, the OR is opaque: nested loop.
        let cfg = OrcaConfig { enable_or_factorization: false, ..OrcaConfig::default() };
        let plan = optimize_block(&desc, &md, &cfg).unwrap();
        let (nl, hj) = plan.root.join_method_counts();
        assert_eq!((nl, hj), (1, 0), "{}", plan.root.sketch());
    }
}
