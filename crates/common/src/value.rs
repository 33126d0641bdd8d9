//! Runtime values with MySQL-style three-valued logic.
//!
//! `Value::Null` propagates through arithmetic and comparisons; predicates
//! treat `NULL` as "unknown" (not true). Sorting uses MySQL's convention of
//! NULLs-first under ascending order. Strings are reference-counted so that
//! hash-join build sides and sort buffers can clone rows cheaply.

use crate::datetime;
use crate::error::{Error, Result};
use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A runtime SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (of any type).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float (also stands in for DECIMAL).
    Double(f64),
    /// UTF-8 string; `Arc` so clones are pointer bumps.
    Str(Arc<str>),
    /// Calendar date as days since 1970-01-01.
    Date(i32),
    /// Boolean (predicate results).
    Bool(bool),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Parse a `YYYY-MM-DD` literal into a `Date` value.
    pub fn date(s: &str) -> Result<Value> {
        datetime::parse_date(s)
            .map(Value::Date)
            .ok_or_else(|| Error::semantic(format!("invalid DATE literal '{s}'")))
    }

    /// Whether this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type, or `None` for NULL (whose type is contextual).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Three-valued truthiness: `Some(true)`, `Some(false)`, or `None` for
    /// NULL/unknown. Integers are truthy when non-zero, matching MySQL.
    pub fn truth(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            Value::Double(d) => Some(*d != 0.0),
            _ => None,
        }
    }

    /// Whether a predicate result lets a row through (NULL does not).
    pub fn is_true(&self) -> bool {
        self.truth() == Some(true)
    }

    /// Numeric view as f64; integers and dates widen, NULL is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Date(d) => Some(*d as f64),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// Integer view; doubles truncate, NULL is `None`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Double(d) => Some(*d as i64),
            Value::Date(d) => Some(*d as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view for string values only.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality (`=`): NULL if either side is NULL, else value equality
    /// with numeric coercion.
    pub fn sql_eq(&self, other: &Value) -> Value {
        match self.sql_cmp(other) {
            None => Value::Null,
            Some(ord) => Value::Bool(ord == Ordering::Equal),
        }
    }

    /// SQL comparison. `None` means NULL (either operand NULL or the operands
    /// are incomparable types).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            // Mixed numerics (and bool-vs-int) coerce to f64.
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Total ordering used for ORDER BY and B-tree keys: NULLs sort first;
    /// incomparable cross-type pairs order by a stable type rank so sorting
    /// never panics.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            _ => self.sql_cmp(other).unwrap_or_else(|| type_rank(self).cmp(&type_rank(other))),
        }
    }

    /// Same type and same bits — stricter than `==`, which coerces
    /// numerics (`Int(1) == Double(1.0) == Bool(true)`, `-0.0 == 0.0`).
    pub fn identical(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            _ => false,
        }
    }

    /// `a + b` with NULL propagation. `Date + Int` adds days.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "+", |a, b| a.checked_add(b), |a, b| a + b, true)
    }

    /// `a - b` with NULL propagation. `Date - Int` subtracts days.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "-", |a, b| a.checked_sub(b), |a, b| a - b, true)
    }

    /// `a * b` with NULL propagation.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "*", |a, b| a.checked_mul(b), |a, b| a * b, false)
    }

    /// `a / b`: MySQL `/` always produces a non-integer result; division by
    /// zero yields NULL (MySQL default sql_mode).
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let (a, b) = coerce_pair(self, other, "/")?;
        if b == 0.0 {
            return Ok(Value::Null);
        }
        Ok(Value::Double(a / b))
    }

    /// `a % b`; NULL on zero modulus, integer semantics when both are ints.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return Ok(if *b == 0 { Value::Null } else { Value::Int(a % b) });
        }
        let (a, b) = coerce_pair(self, other, "%")?;
        if b == 0.0 {
            return Ok(Value::Null);
        }
        Ok(Value::Double(a % b))
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(d) => Ok(Value::Double(-d)),
            other => Err(Error::semantic(format!("cannot negate {other}"))),
        }
    }
}

/// Stable type rank for the cross-type arm of [`Value::total_cmp`].
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Double(_) => 2, // numerics were already compared; unreachable in practice
        Value::Date(_) => 3,
        Value::Str(_) => 4,
    }
}

fn coerce_pair(a: &Value, b: &Value, op: &str) -> Result<(f64, f64)> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(Error::semantic(format!("invalid operands for '{op}': {a} {op} {b}"))),
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    op: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    f64_op: impl Fn(f64, f64) -> f64,
    date_shift: bool,
) -> Result<Value> {
    use Value::*;
    match (a, b) {
        (Null, _) | (_, Null) => Ok(Null),
        (Int(x), Int(y)) => match int_op(*x, *y) {
            Some(v) => Ok(Int(v)),
            None => Ok(Double(f64_op(*x as f64, *y as f64))), // widen on overflow
        },
        // DATE ± INT shifts by days (used for `d + INTERVAL n DAY`).
        (Date(d), Int(n)) if date_shift => Ok(Date(d + *n as i32)),
        (Int(n), Date(d)) if date_shift && op == "+" => Ok(Date(d + *n as i32)),
        // DATE - DATE yields a day count.
        (Date(x), Date(y)) if op == "-" => Ok(Int((*x - *y) as i64)),
        _ => {
            let (x, y) = coerce_pair(a, b, op)?;
            Ok(Double(f64_op(x, y)))
        }
    }
}

impl PartialEq for Value {
    /// Structural equality used by tests and hash-join key matching.
    /// NULL == NULL here (unlike SQL `=`); hash joins must skip NULL keys
    /// *before* probing, which the executor does.
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash every numeric through its f64 bits so Int(2) and
            // Double(2.0) — which compare equal — hash identically.
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            // `-0.0 + 0.0` is `+0.0`: the two zeros compare equal, so they
            // must not hash by their (different) bit patterns.
            Value::Double(d) => (d + 0.0).to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            // Dates participate in numeric coercion (`as_f64`), so they must
            // hash like numerics to uphold the Eq/Hash contract.
            Value::Date(d) => (*d as f64).to_bits().hash(state),
            Value::Bool(b) => (*b as i64 as f64).to_bits().hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => {
                if d.fract() == 0.0 && d.abs() < 1e15 {
                    write!(f, "{d:.1}")
                } else {
                    write!(f, "{d}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => f.write_str(&datetime::format_date(*d)),
            Value::Bool(b) => write!(f, "{}", if *b { 1 } else { 0 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
        assert!(Value::Null.neg().unwrap().is_null());
    }

    #[test]
    fn sql_comparison_three_valued() {
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Value::Bool(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Double(1.0)), Value::Bool(true));
        assert!(Value::Null.sql_eq(&Value::Int(1)).is_null());
        assert_eq!(Value::Int(2).sql_cmp(&Value::Int(3)), Some(Ordering::Less));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(3)), None);
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).truth(), Some(true));
        assert_eq!(Value::Int(0).truth(), Some(false));
        assert_eq!(Value::Null.truth(), None);
        assert!(!Value::Null.is_true());
    }

    #[test]
    fn date_arithmetic() {
        let d = Value::date("1993-11-01").unwrap();
        let plus5 = d.add(&Value::Int(5)).unwrap();
        assert_eq!(plus5.to_string(), "1993-11-06");
        let diff = plus5.sub(&d).unwrap();
        assert_eq!(diff, Value::Int(5));
    }

    #[test]
    fn division_semantics() {
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Double(3.5));
        assert!(Value::Int(7).div(&Value::Int(0)).unwrap().is_null());
        assert_eq!(Value::Int(7).rem(&Value::Int(2)).unwrap(), Value::Int(1));
        assert!(Value::Int(7).rem(&Value::Int(0)).unwrap().is_null());
    }

    #[test]
    fn overflow_widens_to_double() {
        let big = Value::Int(i64::MAX);
        match big.add(&Value::Int(1)).unwrap() {
            Value::Double(d) => assert!(d >= i64::MAX as f64),
            other => panic!("expected Double, got {other:?}"),
        }
    }

    #[test]
    fn total_order_nulls_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(1), Value::str("abc"), Value::Null];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null() && vals[1].is_null());
        assert_eq!(vals[2], Value::Int(1));
    }

    #[test]
    fn numeric_hash_consistency() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        // Values that compare equal must hash equal (hash-join, hash-aggregate
        // and UNION DISTINCT keys) — across numeric types and across the two
        // zeros, `-0.0` being what `0 * -1.0` computes.
        let classes = [
            vec![Value::Int(42), Value::Double(42.0), Value::Date(42)],
            vec![Value::Int(1), Value::Double(1.0), Value::Date(1), Value::Bool(true)],
            vec![
                Value::Int(0),
                Value::Double(0.0),
                Value::Double(-0.0),
                Value::Int(0).mul(&Value::Double(-1.0)).unwrap(),
                Value::Date(0),
                Value::Bool(false),
            ],
        ];
        for class in &classes {
            for v in class {
                assert_eq!(v, &class[0], "{v:?} == {:?}", class[0]);
                assert_eq!(h(v), h(&class[0]), "hash of {v:?} vs {:?}", class[0]);
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Bool(true).to_string(), "1");
    }
}
