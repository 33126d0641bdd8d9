//! Keys by reference: the one hash table behind hash joins, hash
//! aggregation and repartitioning. A [`Key`]'s plain columns resolve to
//! slots of the operator's view once per open and are read in place; other
//! parts are evaluated per row into a reused buffer. Keys hash through
//! `Value`'s own `Hash` (so `2 = 2.0` and `-0.0 = 0` hash alike), [`Chains`]
//! keeps positions chained by that hash, and a candidate is confirmed part
//! by part with `Value::eq`.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use taurus_common::error::Result;
use taurus_common::expr::EvalCtx;
use taurus_common::{Expr, Layout, Value};

/// Fx-style multiply-rotate hashing, finished by murmur3's `fmix64`.
/// `Value::hash` writes a number as its f64 bits, whose low bits are zero
/// for every small integer, and a table picks its bucket from the low bits:
/// without the avalanche every integer key would land in one bucket.
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut k = self.0;
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }
}

/// The hash of a key's values, in order, from `seed`.
pub(crate) fn hash<'a>(seed: u64, values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = KeyHasher(seed);
    values.into_iter().for_each(|v| v.hash(&mut h));
    h.finish()
}

/// A key over one operator's row view.
pub(crate) struct Key<'p> {
    parts: Vec<Part<'p>>,
}

/// A slot of the view, read in place, or an expression evaluated per row (a
/// column the layout does not cover is one, so its evaluation reports it).
enum Part<'p> {
    Slot(usize),
    Eval(&'p Expr),
}

impl<'p> Key<'p> {
    pub(crate) fn new(exprs: impl IntoIterator<Item = &'p Expr>, layout: &Layout) -> Self {
        let part = |e: &'p Expr| match e {
            Expr::Column(c) => layout.slot(c.table, c.col).map_or(Part::Eval(e), Part::Slot),
            Expr::Slot(i) => Part::Slot(*i),
            _ => Part::Eval(e),
        };
        Key { parts: exprs.into_iter().map(part).collect() }
    }

    /// How many parts are evaluated per row: the stride of a table that
    /// keeps each row's [`Key::eval`] output.
    pub(crate) fn computed(&self) -> usize {
        self.parts.iter().filter(|p| matches!(p, Part::Eval(_))).count()
    }

    /// Evaluate the parts that are not slots over `view`, in order, into
    /// `out` (cleared first).
    pub(crate) fn eval(&self, view: EvalCtx<'_>, out: &mut Vec<Value>) -> Result<()> {
        out.clear();
        for p in &self.parts {
            if let Part::Eval(e) = p {
                out.push(e.eval(view)?);
            }
        }
        Ok(())
    }

    /// The key's values over `view`, the evaluated ones read from
    /// `computed` (what [`Key::eval`] gave for this row).
    pub(crate) fn values<'a>(
        &'a self,
        view: EvalCtx<'a>,
        computed: &'a [Value],
    ) -> impl Iterator<Item = &'a Value> + 'a {
        let mut computed = computed.iter();
        self.parts.iter().map(move |p| match p {
            Part::Slot(s) => view.value(*s),
            Part::Eval(_) => computed.next().unwrap_or(&Value::Null),
        })
    }
}

const END: u32 = u32::MAX;

/// Positions `0..n` chained by hash for a table of at most `n` entries:
/// a power-of-two array of bucket ends, and per position its hash and the
/// next position of its bucket. A bucket lists its positions in the order
/// they were pushed.
pub(crate) struct Chains {
    /// This table's hash seed, drawn per table so that keys stored from
    /// outside the program cannot be chosen to share one bucket.
    seed: u64,
    /// First and last position of each bucket (`END` when empty).
    ends: Vec<[u32; 2]>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl Chains {
    pub(crate) fn with_capacity(n: usize) -> Chains {
        let buckets = n.max(1).next_power_of_two();
        Chains {
            seed: RandomState::new().hash_one(n),
            ends: vec![[END; 2]; buckets],
            next: Vec::with_capacity(n),
            hashes: Vec::with_capacity(n),
        }
    }

    /// The hash this table chains `values` under.
    #[inline]
    pub(crate) fn hash<'a>(&self, values: impl IntoIterator<Item = &'a Value>) -> u64 {
        hash(self.seed, values)
    }

    /// Take the next position; chain it under `hash`, or leave it out of
    /// every chain for `None` (a NULL join key, which matches nothing).
    #[inline]
    pub(crate) fn push(&mut self, hash: Option<u64>) {
        let pos = self.next.len() as u32;
        self.next.push(END);
        self.hashes.push(hash.unwrap_or(0));
        if let Some(h) = hash {
            let b = self.bucket(h);
            match self.ends[b] {
                [END, _] => self.ends[b] = [pos, pos],
                [_, last] => {
                    self.next[last as usize] = pos;
                    self.ends[b][1] = pos;
                }
            }
        }
    }

    /// The positions chained under `hash`, ascending.
    #[inline]
    pub(crate) fn get(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut pos = self.ends[self.bucket(hash)][0];
        std::iter::from_fn(move || {
            while pos != END {
                let p = pos as usize;
                pos = self.next[p];
                if self.hashes[p] == hash {
                    return Some(p);
                }
            }
            None
        })
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.ends.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_alike() {
        assert_eq!(hash(0, &[Value::Int(2)]), hash(0, &[Value::Double(2.0)]));
        assert_eq!(hash(0, &[Value::Double(-0.0)]), hash(0, &[Value::Int(0)]));
        assert_ne!(
            hash(0, &[Value::Int(1), Value::Int(2)]),
            hash(0, &[Value::Int(2), Value::Int(1)])
        );
        assert_ne!(hash(0, &[Value::str("ab")]), hash(0, &[Value::str("ba")]));
    }

    #[test]
    fn integer_keys_spread_over_the_buckets() {
        // Without the avalanche the f64 bits of every integer below 2^20
        // share their low 32 bits, and so one bucket of 1 024.
        let mut used = vec![false; 1024];
        for i in 0..1024 {
            used[hash(0, &[Value::Int(i)]) as usize & 1023] = true;
        }
        let spread = used.iter().filter(|&&u| u).count();
        assert!(spread > 550, "1 024 keys fill {spread} of 1 024 buckets");
    }

    #[test]
    fn chains_list_positions_in_push_order_and_skip_unchained_ones() {
        let mut c = Chains::with_capacity(6);
        for h in [Some(7), Some(9), None, Some(7), Some(15), Some(7)] {
            c.push(h);
        }
        // 7 and 15 share a bucket of eight; the hash tells them apart.
        assert_eq!(c.get(7).collect::<Vec<_>>(), [0, 3, 5]);
        assert_eq!(c.get(15).collect::<Vec<_>>(), [4]);
        assert_eq!(c.get(9).collect::<Vec<_>>(), [1]);
        assert_eq!(c.get(0).count(), 0, "the unchained position is nowhere");
    }
}
