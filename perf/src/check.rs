//! Answer checking. Every served response is reduced to a [`Digest`] and
//! held against a reference digest of the same statement: the committed
//! golden file for the seed-independent statements, an uncached
//! native-optimizer run for the seeded ones. Row order is not part of the
//! digest — plans may break `ORDER BY` ties differently — row content is.

use std::collections::BTreeMap;
use taurus_common::{Row, Value};

/// Row count, an order-independent hash of every non-double value, and the
/// per-column sum of the double values (different join orders add floats in
/// different orders, so doubles are compared with a tolerance, not hashed).
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
    pub sums: Vec<f64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

impl Digest {
    pub fn of(rows: &[Row]) -> Digest {
        let width = rows.first().map_or(0, Vec::len);
        let mut sums = vec![0.0; width];
        let mut hash = 0u64;
        for row in rows {
            let mut h = FNV_OFFSET;
            for (col, v) in row.iter().enumerate() {
                // A type tag per value keeps `1`, `'1'` and `TRUE` apart.
                match v {
                    Value::Null => fnv(&mut h, &[0]),
                    Value::Int(i) => {
                        fnv(&mut h, &[1]);
                        fnv(&mut h, &i.to_le_bytes());
                    }
                    Value::Double(d) => {
                        fnv(&mut h, &[2]);
                        if let Some(s) = sums.get_mut(col) {
                            *s += d;
                        }
                    }
                    Value::Str(s) => {
                        fnv(&mut h, &[3]);
                        fnv(&mut h, &(s.len() as u64).to_le_bytes());
                        fnv(&mut h, s.as_bytes());
                    }
                    Value::Date(d) => {
                        fnv(&mut h, &[4]);
                        fnv(&mut h, &d.to_le_bytes());
                    }
                    Value::Bool(b) => fnv(&mut h, &[5, u8::from(*b)]),
                }
            }
            // Summing row hashes makes the whole a multiset hash.
            hash = hash.wrapping_add(h);
        }
        Digest { rows: rows.len() as u64, hash, sums }
    }

    /// Same rows, same non-double content, double sums equal at 1e-6
    /// relative (with an absolute floor of 1e-6 for sums near zero).
    pub fn matches(&self, reference: &Digest) -> bool {
        self.rows == reference.rows
            && self.hash == reference.hash
            && self.sums.len() == reference.sums.len()
            && self
                .sums
                .iter()
                .zip(&reference.sums)
                .all(|(a, b)| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0))
    }

    fn to_fields(&self) -> String {
        let sums: Vec<String> = self.sums.iter().map(|s| format!("{s:e}")).collect();
        format!("{}\t{:016x}\t{}", self.rows, self.hash, sums.join(","))
    }

    fn from_fields(rows: &str, hash: &str, sums: &str) -> Option<Digest> {
        Some(Digest {
            rows: rows.parse().ok()?,
            hash: u64::from_str_radix(hash, 16).ok()?,
            sums: if sums.is_empty() {
                Vec::new()
            } else {
                sums.split(',').map(|s| s.parse().ok()).collect::<Option<_>>()?
            },
        })
    }
}

/// What the golden files record per statement: how the router disposed of
/// it at compile time, and (for executed statements) the answer's digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    pub route: String,
    pub digest: Digest,
}

/// Golden entries keyed by `suite/name` (`tpch/q1`, `tpcds/q64`).
pub type GoldenSet = BTreeMap<String, Golden>;

pub fn golden_to_tsv(set: &GoldenSet) -> String {
    let mut out = String::from("# statement\troute\trows\thash\tdouble_sums\n");
    for (key, g) in set {
        out.push_str(&format!("{key}\t{}\t{}\n", g.route, g.digest.to_fields()));
    }
    out
}

pub fn golden_from_tsv(text: &str) -> Result<GoldenSet, String> {
    let mut set = GoldenSet::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let entry = match f.as_slice() {
            [key, route, rows, hash, sums] => Digest::from_fields(rows, hash, sums)
                .map(|digest| (key.to_string(), Golden { route: route.to_string(), digest })),
            _ => None,
        };
        let (key, golden) = entry.ok_or_else(|| format!("golden line {}: malformed", n + 1))?;
        set.insert(key, golden);
    }
    Ok(set)
}

/// Tally of checked operations; `failed_share` is `failed / attempted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; anything but `true` is a failure, so an `Err`,
    /// a timeout and a wrong answer all land in the same column.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, s: &str, d: f64) -> Row {
        vec![Value::Int(k), Value::str(s), Value::Double(d)]
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = [row(1, "x", 0.5), row(2, "y", 1.5), row(2, "y", 1.5)];
        let b = [row(2, "y", 1.5), row(1, "x", 0.5), row(2, "y", 1.5)];
        assert!(Digest::of(&a).matches(&Digest::of(&b)));
        assert_eq!(Digest::of(&a).sums, [0.0, 0.0, 3.5]);
        // A dropped duplicate, a changed key, a changed string all show.
        assert!(!Digest::of(&a[..2]).matches(&Digest::of(&a)));
        assert!(!Digest::of(&[row(1, "x", 0.5)]).matches(&Digest::of(&[row(3, "x", 0.5)])));
        assert!(!Digest::of(&[row(1, "x", 0.5)]).matches(&Digest::of(&[row(1, "z", 0.5)])));
        // NULL is content too, and is not the integer 0.
        let null = vec![Value::Null, Value::str("x"), Value::Double(0.5)];
        assert!(!Digest::of(&[null]).matches(&Digest::of(&[row(0, "x", 0.5)])));
    }

    #[test]
    fn doubles_compare_with_relative_tolerance() {
        let base = Digest::of(&[row(1, "x", 1_000_000.0)]);
        assert!(base.matches(&Digest::of(&[row(1, "x", 1_000_000.5)])));
        assert!(!base.matches(&Digest::of(&[row(1, "x", 1_000_002.0)])));
        // Near zero the floor is absolute.
        let zero = Digest::of(&[row(1, "x", 0.0)]);
        assert!(zero.matches(&Digest::of(&[row(1, "x", 1e-7)])));
        assert!(!zero.matches(&Digest::of(&[row(1, "x", 1e-3)])));
    }

    #[test]
    fn golden_round_trips_through_tsv() {
        let mut set = GoldenSet::new();
        set.insert(
            "tpch/q1".into(),
            Golden {
                route: "routed".into(),
                digest: Digest::of(&[row(1, "x", 0.1), row(2, "y", 0.2)]),
            },
        );
        set.insert("tpcds/q9".into(), Golden { route: "below".into(), digest: Digest::of(&[]) });
        let text = golden_to_tsv(&set);
        assert_eq!(golden_from_tsv(&text).unwrap(), set);
        assert!(golden_from_tsv("tpch/q1\trouted\t1\n").is_err());
        assert!(golden_from_tsv("tpch/q1\trouted\tx\t00\t\n").is_err());
    }

    #[test]
    fn failed_share_counts_errors_and_wrong_answers_alike() {
        let mut t = Tally::default();
        let served: [Result<bool, ()>; 4] = [Ok(true), Ok(false), Err(()), Ok(true)];
        for s in served {
            t.record(s.unwrap_or(false));
        }
        assert_eq!(t, Tally { attempted: 4, failed: 2 });
        assert_eq!(t.failed_share(), 0.5);
        let mut sum = Tally::default();
        sum.merge(t);
        sum.merge(Tally { attempted: 6, failed: 0 });
        assert_eq!(sum.failed_share(), 0.2);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
