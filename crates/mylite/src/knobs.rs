//! The knob table: every per-statement setting, declared once.
//!
//! One row of `knobs!` names a knob, its type, engine default, wire key,
//! normaliser, and whether it shapes plans. Everything that used to repeat
//! the knob list is generated from the rows: the public [`SessionOpts`]
//! overrides and their layering, the engine-default atomics
//! (`KnobDefaults`), the resolved per-statement `Knobs`, the
//! plan-shaping part of the plan-cache key ([`PlanShape`]), the
//! `(key, u64)` pairs the server's wire codec carries, and the runtime
//! [`table`] that table-driven tests iterate.
//!
//! Adding a knob is one row (wire keys ascend down the table and are never
//! reused) plus whatever code reads `knobs.<name>`. A `plan` row lands in
//! [`PlanShape`] — and so in every cache key — by construction, and its
//! engine-default setter clears the cache through
//! `KnobCell::shapes_plan`; there is no second list to forget.

use std::convert::identity;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use taurus_executor::DEFAULT_MORSEL_ROWS;

/// Default q-error threshold for feedback-driven re-optimization.
pub const DEFAULT_REOPT_Q_THRESHOLD: f64 = 10.0;

/// A knob value's `u64` image: what the wire carries and the engine-default
/// atomics store.
pub(crate) trait KnobValue: Copy {
    fn to_bits(self) -> u64;
    fn from_bits(bits: u64) -> Self;
}

impl KnobValue for usize {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> usize {
        bits as usize
    }
}

impl KnobValue for u64 {
    fn to_bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl KnobValue for bool {
    fn to_bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> bool {
        bits != 0
    }
}

impl KnobValue for f64 {
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

/// Normaliser: counts of at least one (dop, morsel size).
fn at_least_one(n: usize) -> usize {
    n.max(1)
}

/// Normaliser: a finite, positive threshold, else 0.0 = off.
fn positive_or_off(t: f64) -> f64 {
    if t.is_finite() && t > 0.0 {
        t
    } else {
        0.0
    }
}

/// One engine-default knob: an atomic holding the value's bits. Stored raw;
/// the row's normaliser runs when a statement resolves its [`Knobs`].
pub(crate) struct KnobCell<T> {
    bits: AtomicU64,
    /// Plans depend on this knob: changing the default must drop the plans
    /// cached under the old one.
    pub(crate) shapes_plan: bool,
    _ty: PhantomData<T>,
}

impl<T: KnobValue> KnobCell<T> {
    fn new(default: T, shapes_plan: bool) -> KnobCell<T> {
        KnobCell { bits: AtomicU64::new(default.to_bits()), shapes_plan, _ty: PhantomData }
    }

    pub(crate) fn get(&self) -> T {
        T::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn set(&self, value: T) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }
}

/// One row of the knob table, for code that walks the table at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobInfo {
    pub name: &'static str,
    pub wire_key: u8,
    /// The engine default, as wire bits.
    pub default_bits: u64,
    /// Part of the plan-cache key.
    pub shapes_plan: bool,
}

macro_rules! knobs {
    ($(
        $(#[$doc:meta])*
        $role:ident $name:ident: $ty:ty = $default:expr, wire $key:literal, $norm:path;
    )*) => {
        /// Per-session overrides layered over the engine-wide knob
        /// defaults. A `None` field inherits; `Some` pins the session's
        /// value, including "explicitly off" (`Some(0)` for the
        /// deadline/budget fields, a non-positive `reopt_q_threshold`). The
        /// server keeps one per connection and layers each statement's own
        /// options over it once more.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct SessionOpts {
            $( $(#[$doc])* pub $name: Option<$ty>, )*
        }

        impl SessionOpts {
            /// Field-wise layering: `over`'s present fields win, `self`
            /// fills the rest.
            pub fn layer(&self, over: &SessionOpts) -> SessionOpts {
                SessionOpts { $( $name: over.$name.or(self.$name), )* }
            }

            /// The present fields as `(wire key, bits)` pairs, in ascending
            /// key order (floats as IEEE bits).
            pub fn for_each_wire(&self, mut f: impl FnMut(u8, u64)) {
                $( if let Some(v) = self.$name { f($key, v.to_bits()); } )*
            }

            /// Set the field a wire key names; `false` for an unknown key.
            pub fn set_wire(&mut self, key: u8, bits: u64) -> bool {
                match key {
                    $( $key => self.$name = Some(KnobValue::from_bits(bits)), )*
                    _ => return false,
                }
                true
            }
        }

        /// The knob set one statement runs under: session overrides over
        /// engine defaults, normalised, captured once per serve.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(crate) struct Knobs {
            $( pub(crate) $name: $ty, )*
        }

        #[cfg(test)]
        impl Knobs {
            /// Every resolved knob as `(wire key, bits)`, so table-driven
            /// tests can read a knob by its row.
            pub(crate) fn wire_bits(&self) -> Vec<(u8, u64)> {
                vec![ $( ($key, self.$name.to_bits()), )* ]
            }
        }

        /// The engine-wide defaults, one atomic per knob.
        pub(crate) struct KnobDefaults {
            $( pub(crate) $name: KnobCell<$ty>, )*
        }

        impl KnobDefaults {
            pub(crate) fn new() -> KnobDefaults {
                KnobDefaults { $( $name: KnobCell::new($default, knobs!(@shapes $role)), )* }
            }

            pub(crate) fn resolve(&self, session: &SessionOpts) -> Knobs {
                Knobs { $( $name: $norm(session.$name.unwrap_or_else(|| self.$name.get())), )* }
            }
        }

        /// The knob table, row by row.
        pub fn table() -> Vec<KnobInfo> {
            vec![ $( KnobInfo {
                name: stringify!($name),
                wire_key: $key,
                default_bits: <$ty as KnobValue>::to_bits($default),
                shapes_plan: knobs!(@shapes $role),
            }, )* ]
        }

        knobs!(@plan_shape [] $( $role $name: $ty; )*);
    };
    (@shapes plan) => { true };
    (@shapes exec) => { false };
    // Collect the `plan` rows into the cache key's knob part.
    (@plan_shape [$($acc:tt)*] plan $name:ident: $ty:ty; $($rest:tt)*) => {
        knobs!(@plan_shape [$($acc)* $name: $ty;] $($rest)*);
    };
    (@plan_shape [$($acc:tt)*] exec $name:ident: $ty:ty; $($rest:tt)*) => {
        knobs!(@plan_shape [$($acc)*] $($rest)*);
    };
    (@plan_shape [$($name:ident: $ty:ty;)*]) => {
        /// The knobs a plan was compiled under that change its shape: two
        /// statements with equal fingerprints share a cached plan only if
        /// these agree too.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub struct PlanShape {
            $( pub $name: $ty, )*
        }

        impl Knobs {
            pub(crate) fn plan_shape(&self) -> PlanShape {
                PlanShape { $( $name: self.$name, )* }
            }
        }
    };
}

// `plan` rows shape plans (exchange placement, which Sort enforcers
// survive); `exec` rows only steer execution, so plans cached under one
// value serve every other.
knobs! {
    /// Degree of parallelism (1 = serial).
    plan dop: usize = 1, wire 1, at_least_one;
    /// Rows per morsel for parallel scans.
    exec morsel_rows: usize = DEFAULT_MORSEL_ROWS, wire 2, at_least_one;
    /// Minimum driving-table rows before refinement places an exchange.
    plan parallel_threshold: usize = DEFAULT_MORSEL_ROWS, wire 3, identity;
    /// Wall-clock budget per query in ms; 0 = no deadline.
    exec deadline_ms: u64 = 0, wire 4, identity;
    /// Tracked-memory budget per query in bytes; 0 = unlimited.
    exec memory_budget: u64 = 0, wire 5, identity;
    /// Worst observed q-error above which an instrumented cached serve
    /// re-optimizes with feedback; non-positive or non-finite = loop off.
    exec reopt_q_threshold: f64 = DEFAULT_REOPT_Q_THRESHOLD, wire 6, positive_or_off;
    // Wire key 7 (`vectorized`, the batch engine's switch) is retired, not
    // reused: a frame that carries it is an unknown option key.
    /// Drop Sort enforcers whose input already delivers the requested
    /// order. Off keeps every enforcer — the always-enforce baseline.
    plan order_opt: bool = true, wire 8, identity;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_pairs(opts: &SessionOpts) -> Vec<(u8, u64)> {
        let mut pairs = Vec::new();
        opts.for_each_wire(|k, v| pairs.push((k, v)));
        pairs
    }

    fn only(key: u8, bits: u64) -> SessionOpts {
        let mut o = SessionOpts::default();
        assert!(o.set_wire(key, bits));
        o
    }

    /// What the knob `key` names resolves to under `opts`, as bits.
    fn resolved(defaults: &KnobDefaults, opts: &SessionOpts, key: u8) -> u64 {
        let bits = defaults.resolve(opts).wire_bits();
        bits.into_iter().find(|(k, _)| *k == key).expect("key in table").1
    }

    #[test]
    fn wire_keys_ascend_so_frames_keep_their_byte_order() {
        let keys: Vec<u8> = table().iter().map(|r| r.wire_key).collect();
        assert_eq!(keys, [1, 2, 3, 4, 5, 6, 8], "ascending in row order; 7 is retired");
    }

    #[test]
    fn every_knob_layers_statement_over_session_over_engine() {
        let defaults = KnobDefaults::new();
        let none = SessionOpts::default();
        for row in table() {
            let key = row.wire_key;
            let engine = resolved(&defaults, &none, key);
            // Wire values this row's normaliser keeps apart from the engine
            // default and from each other, with what they resolve to.
            let mut apart: Vec<(u64, u64)> = Vec::new();
            for bits in [0, 1, 2, 3, 2.5f64.to_bits(), 7.5f64.to_bits()] {
                let got = resolved(&defaults, &only(key, bits), key);
                if got != engine && apart.iter().all(|(_, g)| *g != got) {
                    apart.push((bits, got));
                }
            }
            let (a, got_a) = *apart.first().unwrap_or_else(|| panic!("{}: stuck", row.name));
            // A bool has one non-default value: the statement pins the
            // default back over it.
            let (b, got_b) = apart.get(1).copied().unwrap_or((row.default_bits, engine));
            let (session, stmt) = (only(key, a), only(key, b));
            assert_eq!(resolved(&defaults, &session, key), got_a, "{}: session > engine", row.name);
            let layered = session.layer(&stmt);
            assert_eq!(resolved(&defaults, &layered, key), got_b, "{}: stmt > session", row.name);
            assert_eq!(session.layer(&none), session, "{}: absent inherits", row.name);
            for other in table().iter().filter(|o| o.wire_key != key) {
                assert_eq!(
                    resolved(&defaults, &layered, other.wire_key),
                    resolved(&defaults, &none, other.wire_key),
                    "{} moved {}",
                    row.name,
                    other.name
                );
            }
        }
    }

    #[test]
    fn set_wire_and_for_each_wire_are_inverse_per_row() {
        for row in table() {
            assert!(wire_pairs(&SessionOpts::default()).is_empty());
            let o = only(row.wire_key, row.default_bits);
            assert_eq!(wire_pairs(&o), vec![(row.wire_key, row.default_bits)], "{}", row.name);
        }
        for unknown in [0, 7, 9] {
            assert!(!SessionOpts::default().set_wire(unknown, 1), "key {unknown}");
        }
    }

    #[test]
    fn normalisers_hold_at_the_edges() {
        let defaults = KnobDefaults::new();
        let off = SessionOpts {
            dop: Some(0),
            morsel_rows: Some(0),
            reopt_q_threshold: Some(f64::NAN),
            deadline_ms: Some(0),
            ..SessionOpts::default()
        };
        let k = defaults.resolve(&off);
        assert_eq!((k.dop, k.morsel_rows, k.deadline_ms), (1, 1, 0));
        assert_eq!(k.reopt_q_threshold, 0.0, "non-finite threshold = loop off");
        defaults.reopt_q_threshold.set(f64::INFINITY);
        assert_eq!(defaults.resolve(&SessionOpts::default()).reopt_q_threshold, 0.0);
    }
}
