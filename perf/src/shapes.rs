//! The seeded ad-hoc statement generator behind `adhoc_churn`.
//!
//! A *shape* is a statement up to its literals: join skeleton × select-list
//! subset × predicate subset × ORDER BY × IN-list arity over TPC-H. The
//! universe of shapes is fixed (1 280 of them, each with its own plan-cache
//! fingerprint), and so is the hot set; the seed decides the order shapes
//! are drawn in and every literal. The program under test only ever sees
//! the rendered SQL.

use taurus_workloads::gen::SmallRng;

/// A literal a predicate draws per statement. Each kind always renders the
/// same token type, so a shape's binds never change type between draws.
#[derive(Debug, Clone, Copy)]
enum Lit {
    /// Integer in `lo..hi`.
    Int(i64, i64),
    /// Money-like double in `lo..hi`, always rendered with two decimals.
    /// Never negative: a sign is a token, and would change the fingerprint.
    Money(f64, f64),
    /// One of a fixed vocabulary, rendered as a string literal.
    Word(&'static [&'static str]),
    /// `DATE 'yyyy-mm-01'` with the year in `lo..=hi`.
    MonthStart(i32, i32),
}

impl Lit {
    fn render(self, rng: &mut SmallRng) -> String {
        match self {
            Lit::Int(lo, hi) => rng.gen_range(lo..hi).to_string(),
            Lit::Money(lo, hi) => format!("{:.2}", rng.gen_range(lo..hi)),
            Lit::Word(words) => format!("'{}'", words[rng.gen_range(0..words.len())]),
            Lit::MonthStart(lo, hi) => {
                format!("DATE '{}-{:02}-01'", rng.gen_range(lo..=hi), rng.gen_range(1..=12))
            }
        }
    }
}

/// One optional predicate: `<lhs> <literal>`, e.g. `o_totalprice >` + money.
#[derive(Debug, Clone, Copy)]
struct Pred(&'static str, Lit);

/// A join skeleton with the pools the other dimensions choose from.
#[derive(Debug)]
struct Skeleton {
    from: &'static str,
    /// Join predicates, empty for single-table skeletons.
    join: &'static str,
    /// Every statement is anchored on this key: a `BETWEEN` window of
    /// `window` keys, or an IN-list, so results stay small at any seed.
    key: &'static str,
    key_domain: i64,
    window: i64,
    select: [&'static str; 5],
    preds: [Pred; 3],
}

const SEGMENTS: &[&str] = &["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
const STATUS: &[&str] = &["F", "O"];
const FLAGS: &[&str] = &["R", "A", "N"];

const SKELETONS: [Skeleton; 8] = [
    Skeleton {
        from: "orders",
        join: "",
        key: "o_orderkey",
        key_domain: 1000,
        window: 40,
        select: ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate", "o_orderpriority"],
        preds: [
            Pred("o_totalprice >", Lit::Money(1000.0, 200_000.0)),
            Pred("o_orderstatus =", Lit::Word(STATUS)),
            Pred("o_orderdate >=", Lit::MonthStart(1992, 1997)),
        ],
    },
    Skeleton {
        from: "customer",
        join: "",
        key: "c_custkey",
        key_domain: 200,
        window: 30,
        select: ["c_custkey", "c_name", "c_acctbal", "c_mktsegment", "c_nationkey"],
        preds: [
            Pred("c_acctbal >", Lit::Money(0.0, 5000.0)),
            Pred("c_mktsegment =", Lit::Word(SEGMENTS)),
            Pred("c_nationkey <", Lit::Int(5, 25)),
        ],
    },
    Skeleton {
        from: "lineitem",
        join: "",
        key: "l_orderkey",
        key_domain: 1000,
        window: 25,
        select: ["l_orderkey", "l_partkey", "l_quantity", "l_extendedprice", "l_shipmode"],
        preds: [
            Pred("l_quantity <", Lit::Int(10, 50)),
            Pred("l_returnflag =", Lit::Word(FLAGS)),
            Pred("l_shipdate >=", Lit::MonthStart(1992, 1997)),
        ],
    },
    Skeleton {
        from: "orders, customer",
        join: "o_custkey = c_custkey",
        key: "o_orderkey",
        key_domain: 1000,
        window: 40,
        select: ["o_orderkey", "c_name", "o_totalprice", "c_mktsegment", "o_orderdate"],
        preds: [
            Pred("o_totalprice >", Lit::Money(1000.0, 200_000.0)),
            Pred("c_mktsegment =", Lit::Word(SEGMENTS)),
            Pred("c_acctbal >", Lit::Money(0.0, 5000.0)),
        ],
    },
    Skeleton {
        from: "lineitem, orders",
        join: "l_orderkey = o_orderkey",
        key: "o_orderkey",
        key_domain: 1000,
        window: 25,
        select: ["l_orderkey", "l_quantity", "o_orderdate", "l_extendedprice", "o_orderstatus"],
        preds: [
            Pred("l_quantity <", Lit::Int(10, 50)),
            Pred("o_orderstatus =", Lit::Word(STATUS)),
            Pred("l_shipdate >=", Lit::MonthStart(1992, 1997)),
        ],
    },
    Skeleton {
        from: "lineitem, orders, customer",
        join: "l_orderkey = o_orderkey AND o_custkey = c_custkey",
        key: "o_orderkey",
        key_domain: 1000,
        window: 25,
        select: ["l_orderkey", "c_name", "l_extendedprice", "o_orderdate", "c_mktsegment"],
        preds: [
            Pred("l_quantity <", Lit::Int(10, 50)),
            Pred("c_mktsegment =", Lit::Word(SEGMENTS)),
            Pred("o_totalprice >", Lit::Money(1000.0, 200_000.0)),
        ],
    },
    Skeleton {
        from: "partsupp, part, supplier",
        join: "ps_partkey = p_partkey AND ps_suppkey = s_suppkey",
        key: "p_partkey",
        key_domain: 200,
        window: 20,
        select: ["p_partkey", "p_name", "s_name", "ps_supplycost", "ps_availqty"],
        preds: [
            Pred("ps_availqty >", Lit::Int(1, 9000)),
            Pred("p_size <", Lit::Int(5, 50)),
            Pred("s_acctbal >", Lit::Money(0.0, 5000.0)),
        ],
    },
    Skeleton {
        from: "lineitem, orders, customer, nation",
        join: "l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_nationkey = n_nationkey",
        key: "o_orderkey",
        key_domain: 1000,
        window: 25,
        select: ["l_orderkey", "n_name", "l_extendedprice", "c_name", "o_orderdate"],
        preds: [
            Pred("l_quantity <", Lit::Int(10, 50)),
            Pred("n_regionkey =", Lit::Int(0, 5)),
            Pred("o_totalprice >", Lit::Money(1000.0, 200_000.0)),
        ],
    },
];

/// Select-list subsets, as bit masks over a skeleton's five columns.
const SELECT_MASKS: [u8; 5] = [0b00011, 0b00101, 0b01110, 0b10111, 0b11111];
/// Predicate subsets, as bit masks over a skeleton's three predicates.
const PRED_MASKS: [u8; 4] = [0b000, 0b001, 0b011, 0b110];
/// IN-list arities on the anchor key; 0 anchors on a `BETWEEN` window.
const IN_ARITIES: [usize; 4] = [0, 2, 3, 4];
const ORDERINGS: usize = 2;

/// Distinct shapes: 8 skeletons × 5 × 4 × 2 × 4.
pub const SHAPES: usize =
    SKELETONS.len() * SELECT_MASKS.len() * PRED_MASKS.len() * ORDERINGS * IN_ARITIES.len();
/// Shapes drawn with probability one half between them; the rest share the
/// other half. The plan cache holds 256 statements, so the hot set fits
/// four times over and the whole universe does not fit by a factor of 5.
pub const HOT: usize = 64;
/// Probability that a draw is a hot shape.
pub const HOT_P: f64 = 0.5;
/// One statement in this many is an `INSERT`.
pub const INSERT_EVERY: usize = 500;

/// One point of the shape universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    skeleton: usize,
    select: usize,
    pred: usize,
    ordered: bool,
    in_arity: usize,
}

impl Shape {
    /// Shape number `id` (mixed-radix, IN arity fastest), `id < SHAPES`.
    pub fn new(id: usize) -> Shape {
        assert!(id < SHAPES, "shape {id} out of range");
        let (id, in_arity) = (id / IN_ARITIES.len(), IN_ARITIES[id % IN_ARITIES.len()]);
        let (id, ordered) = (id / ORDERINGS, id % ORDERINGS == 1);
        let (id, pred) = (id / PRED_MASKS.len(), id % PRED_MASKS.len());
        let (skeleton, select) = (id / SELECT_MASKS.len(), id % SELECT_MASKS.len());
        Shape { skeleton, select, pred, ordered, in_arity }
    }

    /// Table references in the statement (the router's complexity measure).
    #[cfg(test)]
    fn tables(self) -> usize {
        SKELETONS[self.skeleton].from.split(',').count()
    }

    /// Render the shape with literals drawn from `rng`.
    pub fn render(self, rng: &mut SmallRng) -> String {
        let sk = &SKELETONS[self.skeleton];
        let cols: Vec<&str> = (0..sk.select.len())
            .filter(|i| SELECT_MASKS[self.select] >> i & 1 == 1)
            .map(|i| sk.select[i])
            .collect();
        let mut sql = format!("SELECT {} FROM {} WHERE ", cols.join(", "), sk.from);
        if !sk.join.is_empty() {
            sql.push_str(sk.join);
            sql.push_str(" AND ");
        }
        if self.in_arity == 0 {
            let lo = rng.gen_range(0..sk.key_domain - sk.window);
            sql.push_str(&format!("{} BETWEEN {lo} AND {}", sk.key, lo + sk.window));
        } else {
            let keys: Vec<String> =
                (0..self.in_arity).map(|_| rng.gen_range(0..sk.key_domain).to_string()).collect();
            sql.push_str(&format!("{} IN ({})", sk.key, keys.join(", ")));
        }
        for (i, Pred(lhs, lit)) in sk.preds.iter().enumerate() {
            if PRED_MASKS[self.pred] >> i & 1 == 1 {
                sql.push_str(&format!(" AND {lhs} {}", lit.render(rng)));
            }
        }
        if self.ordered {
            sql.push_str(&format!(" ORDER BY {}", cols[0]));
        }
        sql
    }
}

/// Ids of the hot shapes: one per block of `SHAPES / HOT` consecutive ids,
/// at an offset that walks through the block so every skeleton, ordering
/// and IN arity is hot somewhere. Independent of the seed, so two seeds
/// stress the same mix and differ only in order and literals.
pub fn hot_ids() -> Vec<usize> {
    let block = SHAPES / HOT;
    (0..HOT).map(|i| i * block + (i * 7) % block).collect()
}

/// One operation of the churn stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Select { shape: usize, sql: String },
    Insert { sql: String },
}

/// The statement stream: `n` operations, a pure function of `seed`. Every
/// [`INSERT_EVERY`]-th is an `INSERT` of one fresh order; the others draw a
/// hot shape with probability [`HOT_P`], else a cold one.
pub fn stream(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xad0c_c4a2);
    let hot = hot_ids();
    let cold: Vec<usize> = (0..SHAPES).filter(|id| !hot.contains(id)).collect();
    let mut inserted = 0;
    (1..=n)
        .map(|i| {
            if i % INSERT_EVERY == 0 {
                inserted += 1;
                Op::Insert { sql: insert_order(&mut rng, inserted) }
            } else {
                let pool = if rng.gen_bool(HOT_P) { &hot } else { &cold };
                let shape = pool[rng.gen_range(0..pool.len())];
                Op::Select { shape, sql: Shape::new(shape).render(&mut rng) }
            }
        })
        .collect()
}

/// `INSERT` of the `nth` new order (keys continue after the loaded 1 000).
fn insert_order(rng: &mut SmallRng, nth: i64) -> String {
    format!(
        "INSERT INTO orders VALUES ({}, {}, 'O', {}, DATE '1998-08-02', '3-MEDIUM', 'perf churn')",
        999 + nth,
        rng.gen_range(0..200i64),
        Lit::Money(1000.0, 200_000.0).render(rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use taurus_sql::fingerprint::token_digest;

    #[test]
    fn every_shape_has_its_own_fingerprint() {
        assert_eq!(SHAPES, 1280);
        let mut rng = SmallRng::seed_from_u64(1);
        let prints: BTreeSet<u64> = (0..SHAPES)
            .map(|id| token_digest(&Shape::new(id).render(&mut rng)).expect("lexes").fingerprint)
            .collect();
        assert_eq!(prints.len(), SHAPES);
    }

    #[test]
    fn a_shape_keeps_its_fingerprint_and_bind_types_across_literal_draws() {
        let mut rng = SmallRng::seed_from_u64(2);
        for id in (0..SHAPES).step_by(7) {
            let a = token_digest(&Shape::new(id).render(&mut rng)).unwrap();
            let b = token_digest(&Shape::new(id).render(&mut rng)).unwrap();
            assert_eq!(a.fingerprint, b.fingerprint, "shape {id}");
            let types = |d: &taurus_sql::fingerprint::TokenDigest| {
                d.binds.iter().map(|v| v.data_type()).collect::<Vec<_>>()
            };
            assert_eq!(types(&a), types(&b), "shape {id}");
        }
    }

    #[test]
    fn shapes_sit_on_both_sides_of_the_complex_query_threshold() {
        // TPC-H runs at threshold 3: fewer table references stay on the
        // native optimizer, three or more take the detour.
        let below = (0..SHAPES).filter(|id| Shape::new(*id).tables() < 3).count();
        assert_eq!(below, 5 * SHAPES / 8);
        let hot = hot_ids();
        assert_eq!(hot.iter().collect::<BTreeSet<_>>().len(), HOT);
        let hot_routed = hot.iter().filter(|id| Shape::new(**id).tables() >= 3).count();
        assert_eq!(hot_routed, 3 * HOT / 8, "the hot set mirrors the universe");
        // ... and covers every IN arity and both orderings.
        let arities: BTreeSet<usize> = hot.iter().map(|id| Shape::new(*id).in_arity).collect();
        assert_eq!(arities.len(), IN_ARITIES.len());
        assert!(hot.iter().any(|id| Shape::new(*id).ordered));
        assert!(hot.iter().any(|id| !Shape::new(*id).ordered));
    }

    #[test]
    fn the_stream_is_a_pure_function_of_the_seed() {
        let a = stream(42, 3000);
        assert_eq!(a, stream(42, 3000));
        assert_ne!(a, stream(43, 3000));
        // A longer run extends a shorter one; it does not reshuffle it.
        assert_eq!(a[..1000], stream(42, 1000)[..]);
        let inserts: Vec<usize> = a
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Insert { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(inserts, [499, 999, 1499, 1999, 2499, 2999]);
        let hot = hot_ids();
        let selects = a.len() - inserts.len();
        let hot_draws = a
            .iter()
            .filter(|op| matches!(op, Op::Select { shape, .. } if hot.contains(shape)))
            .count();
        let share = hot_draws as f64 / selects as f64;
        assert!((share - HOT_P).abs() < 0.05, "hot share {share}");
    }

    #[test]
    fn inserted_keys_never_collide() {
        let keys: BTreeSet<String> = stream(5, 5000)
            .iter()
            .filter_map(|op| match op {
                Op::Insert { sql } => sql.split(['(', ',']).nth(1).map(str::to_string),
                Op::Select { .. } => None,
            })
            .collect();
        assert_eq!(keys.len(), 10);
        assert!(keys.contains("1000") && keys.contains("1009"));
    }
}
