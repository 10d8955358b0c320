//! Scalar three-valued logic.

use std::fmt;

/// A three-valued logic value: 0, 1 or unknown (X).
///
/// The ordering of variants is arbitrary; use the algebraic methods rather
/// than comparisons. `X` behaves as "could be either": an operation returns
/// a binary value only when every consistent assignment of its X inputs
/// would produce that value (Kleene strong logic).
///
/// # Example
///
/// ```
/// use limscan_sim::Logic;
///
/// assert_eq!(Logic::Zero.and(Logic::X), Logic::Zero); // 0 controls AND
/// assert_eq!(Logic::One.and(Logic::X), Logic::X);
/// assert_eq!(Logic::X.not(), Logic::X);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Logic {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl Logic {
    /// Converts a boolean to a binary logic value.
    #[inline]
    pub const fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// The binary value as a boolean, or `None` for X.
    #[inline]
    pub const fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Whether the value is binary (not X).
    #[inline]
    pub const fn is_binary(self) -> bool {
        !matches!(self, Logic::X)
    }

    /// Logical AND.
    #[inline]
    pub const fn and(self, other: Self) -> Self {
        match (self, other) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Logical OR.
    #[inline]
    pub const fn or(self, other: Self) -> Self {
        match (self, other) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Logical XOR.
    #[inline]
    pub const fn xor(self, other: Self) -> Self {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// Logical NOT (also available as the `!` operator).
    #[inline]
    #[allow(clippy::should_implement_trait)] // `!` is provided too; the
                                             // inherent method keeps chained call sites readable without an import
    pub const fn not(self) -> Self {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }

    /// 2-to-1 multiplexer: returns `d0` when `self` is 0, `d1` when 1, and
    /// the common value (or X) when the select is X.
    #[inline]
    pub fn mux(self, d0: Self, d1: Self) -> Self {
        match self {
            Logic::Zero => d0,
            Logic::One => d1,
            Logic::X => {
                if d0 == d1 && d0.is_binary() {
                    d0
                } else {
                    Logic::X
                }
            }
        }
    }

    /// Whether `self` and `other` are definitely different: both binary and
    /// complementary. This is the three-valued-safe detection predicate.
    #[inline]
    pub const fn conflicts(self, other: Self) -> bool {
        matches!(
            (self, other),
            (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero)
        )
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;

    fn not(self) -> Logic {
        Logic::not(self)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Logic::Zero => "0",
            Logic::One => "1",
            Logic::X => "x",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    #[test]
    fn and_or_agree_with_bool_on_binary() {
        for a in [false, true] {
            for b in [false, true] {
                let (la, lb) = (Logic::from_bool(a), Logic::from_bool(b));
                assert_eq!(la.and(lb), Logic::from_bool(a & b));
                assert_eq!(la.or(lb), Logic::from_bool(a | b));
                assert_eq!(la.xor(lb), Logic::from_bool(a ^ b));
            }
        }
    }

    #[test]
    fn controlling_values_dominate_x() {
        assert_eq!(Logic::Zero.and(Logic::X), Logic::Zero);
        assert_eq!(Logic::X.and(Logic::Zero), Logic::Zero);
        assert_eq!(Logic::One.or(Logic::X), Logic::One);
        assert_eq!(Logic::X.or(Logic::One), Logic::One);
        assert_eq!(Logic::One.and(Logic::X), Logic::X);
        assert_eq!(Logic::Zero.or(Logic::X), Logic::X);
        assert_eq!(Logic::X.xor(Logic::One), Logic::X);
    }

    #[test]
    fn operations_are_commutative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }

    #[test]
    fn mux_selects_and_merges() {
        assert_eq!(Logic::Zero.mux(Logic::One, Logic::Zero), Logic::One);
        assert_eq!(Logic::One.mux(Logic::One, Logic::Zero), Logic::Zero);
        assert_eq!(Logic::X.mux(Logic::One, Logic::One), Logic::One);
        assert_eq!(Logic::X.mux(Logic::One, Logic::Zero), Logic::X);
        assert_eq!(Logic::X.mux(Logic::X, Logic::X), Logic::X);
    }

    #[test]
    fn conflicts_requires_binary_complements() {
        assert!(Logic::Zero.conflicts(Logic::One));
        assert!(Logic::One.conflicts(Logic::Zero));
        assert!(!Logic::One.conflicts(Logic::One));
        assert!(!Logic::X.conflicts(Logic::One));
        assert!(!Logic::Zero.conflicts(Logic::X));
    }

    #[test]
    fn not_operator_matches_method() {
        for v in ALL {
            assert_eq!(!v, v.not());
        }
        assert_eq!(!!Logic::One, Logic::One, "involution");
    }

    #[test]
    fn from_bool_roundtrips() {
        for b in [false, true] {
            assert_eq!(Logic::from(b).to_bool(), Some(b));
        }
        assert_eq!(Logic::X.to_bool(), None);
        assert_eq!(Logic::default(), Logic::X, "unknown is the safe default");
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Logic::Zero.to_string(), "0");
        assert_eq!(Logic::One.to_string(), "1");
        assert_eq!(Logic::X.to_string(), "x");
    }
}
