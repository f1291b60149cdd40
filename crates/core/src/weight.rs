//! Weight (cost) types for recurrence (*).
//!
//! The paper only requires that `f(i,k,j)` and `init(i)` are *non-negative*
//! values combined by `+` and compared by `min`, with an identity `0` and an
//! absorbing top element `infinity` (the initial value of every table
//! entry). [`Weight`] captures exactly that: a commutative monoid under
//! saturating addition with a total order — the tropical (min, +) semiring
//! restricted to what the algorithm needs.
//!
//! Implementations are provided for `u64`, `i64` and `f64`. Integer
//! infinities are `MAX / 4` so that `INFINITY + INFINITY` cannot wrap; any
//! finite sum that would reach the infinity range saturates (documented
//! bound on representable costs). The same headroom lets the hot
//! min-plus loops use [`Weight::relax`], whose integer form adds without
//! the saturation clamp.

/// A cost value in the tropical semiring used by recurrence (*).
pub trait Weight:
    Copy + PartialOrd + Send + Sync + std::fmt::Debug + std::fmt::Display + 'static
{
    /// The absorbing top element: the initial value of all table entries.
    const INFINITY: Self;
    /// The additive identity.
    const ZERO: Self;

    /// Saturating addition: `INFINITY + x = INFINITY`, never wraps.
    fn add(self, rhs: Self) -> Self;

    /// Total-order minimum (inputs must not be NaN for `f64`).
    #[inline]
    fn min2(self, rhs: Self) -> Self {
        if rhs < self {
            rhs
        } else {
            self
        }
    }

    /// One min-plus relaxation, `min(cur, a + b)`: the inner step of
    /// every `a-square` kernel.
    ///
    /// The provided form is `cur.min2(a.add(b))`. The integer impls
    /// override it with a clamp-free, branch-free `cur.min(a + b)`,
    /// which is exact under the table invariant that every stored value
    /// is at most `INFINITY = MAX / 4`: `a + b <= MAX / 2` cannot
    /// overflow, and a sum at or above `INFINITY` loses to
    /// `cur <= INFINITY` exactly as the saturated sum would. Callers must
    /// only pass values that obey the invariant (table cells do: they are
    /// `ZERO`, `INFINITY`, or results of [`Weight::add`]).
    #[inline]
    fn relax(cur: Self, a: Self, b: Self) -> Self {
        cur.min2(a.add(b))
    }

    /// Whether the value is below the infinity threshold.
    #[inline]
    fn is_finite_cost(&self) -> bool {
        *self < Self::INFINITY
    }

    /// Exact or approximate equality; `f64` uses a relative tolerance so
    /// that algebraically equal costs computed in different association
    /// orders compare equal.
    fn cost_eq(&self, other: &Self) -> bool;
}

impl Weight for u64 {
    const INFINITY: u64 = u64::MAX / 4;
    const ZERO: u64 = 0;

    #[inline]
    fn add(self, rhs: u64) -> u64 {
        let s = self.saturating_add(rhs);
        if s >= Self::INFINITY {
            Self::INFINITY
        } else {
            s
        }
    }

    #[inline]
    fn relax(cur: u64, a: u64, b: u64) -> u64 {
        debug_assert!(
            a <= Self::INFINITY && b <= Self::INFINITY && cur <= Self::INFINITY,
            "relax needs the INFINITY headroom"
        );
        // `cur.min(a + b)`, in a form that vectorizes without a 64-bit
        // compare (baseline x86-64 has none): both operands are below
        // 2^63, so their difference is exact as an `i64` and its sign
        // mask selects `cur` exactly when `cur < a + b`.
        let sum = a + b;
        let diff = cur.wrapping_sub(sum) as i64;
        sum.wrapping_add((diff & (diff >> 63)) as u64)
    }

    #[inline]
    fn cost_eq(&self, other: &u64) -> bool {
        self == other
    }
}

impl Weight for i64 {
    const INFINITY: i64 = i64::MAX / 4;
    const ZERO: i64 = 0;

    #[inline]
    fn add(self, rhs: i64) -> i64 {
        debug_assert!(
            self >= 0 && rhs >= 0,
            "recurrence (*) requires non-negative costs"
        );
        let s = self.saturating_add(rhs);
        if s >= Self::INFINITY {
            Self::INFINITY
        } else {
            s
        }
    }

    #[inline]
    fn relax(cur: i64, a: i64, b: i64) -> i64 {
        debug_assert!(
            a <= Self::INFINITY && b <= Self::INFINITY && cur <= Self::INFINITY,
            "relax needs the INFINITY headroom"
        );
        // `cur.min(a + b)` by the sign mask of the difference, as for
        // `u64`; the headroom keeps `cur - (a + b)` from overflowing.
        let sum = a + b;
        let diff = cur - sum;
        sum + (diff & (diff >> 63))
    }

    #[inline]
    fn cost_eq(&self, other: &i64) -> bool {
        self == other
    }
}

impl Weight for f64 {
    const INFINITY: f64 = f64::INFINITY;
    const ZERO: f64 = 0.0;

    #[inline]
    fn add(self, rhs: f64) -> f64 {
        self + rhs
    }

    #[inline]
    fn cost_eq(&self, other: &f64) -> bool {
        if self == other {
            return true;
        }
        if !self.is_finite() || !other.is_finite() {
            return self == other;
        }
        let scale = self.abs().max(other.abs()).max(1.0);
        (self - other).abs() <= 1e-9 * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_infinity_is_absorbing_and_never_wraps() {
        let inf = <u64 as Weight>::INFINITY;
        assert_eq!(inf.add(inf), inf);
        assert_eq!(inf.add(5), inf);
        assert_eq!(5u64.add(inf), inf);
        // Sums below the threshold are exact.
        assert_eq!(3u64.add(4), 7);
        // Saturation at the threshold.
        assert_eq!((inf - 1).add(10), inf);
    }

    #[test]
    fn i64_matches_u64_behaviour() {
        let inf = <i64 as Weight>::INFINITY;
        assert_eq!(inf.add(7), inf);
        assert_eq!(2i64.add(3), 5);
        assert!(0i64.is_finite_cost());
        assert!(!inf.is_finite_cost());
    }

    #[test]
    fn f64_infinity_and_tolerant_equality() {
        let inf = <f64 as Weight>::INFINITY;
        assert_eq!(inf.add(1.0), inf);
        assert!(1.0f64.add(2.0).cost_eq(&3.0));
        // Relative tolerance absorbs reassociation error.
        let a = 0.1f64 + 0.2;
        assert!(a.cost_eq(&0.3));
        assert!(!1.0f64.cost_eq(&1.1));
        assert!(inf.cost_eq(&inf));
        assert!(!inf.cost_eq(&1.0));
    }

    #[test]
    fn min2_is_total_min() {
        assert_eq!(3u64.min2(5), 3);
        assert_eq!(5u64.min2(3), 3);
        assert_eq!(2.5f64.min2(2.4), 2.4);
        let inf = <u64 as Weight>::INFINITY;
        assert_eq!(inf.min2(7), 7);
        assert_eq!(7u64.min2(inf), 7);
    }

    /// `relax` must equal `min2(add)` wherever the table invariant
    /// (every value at most `INFINITY`) holds, including the saturation
    /// boundary.
    fn relax_matches_min2_add<W: Weight>(values: &[W]) {
        for &cur in values {
            for &a in values {
                for &b in values {
                    let want = cur.min2(a.add(b));
                    let got = W::relax(cur, a, b);
                    assert!(got == want, "relax({cur}, {a}, {b}) = {got}, want {want}");
                }
            }
        }
    }

    #[test]
    fn relax_equals_min2_add_on_boundary_values() {
        let u = <u64 as Weight>::INFINITY;
        relax_matches_min2_add::<u64>(&[0, 1, 2, u / 2, u - 2, u - 1, u]);
        let i = <i64 as Weight>::INFINITY;
        relax_matches_min2_add::<i64>(&[0, 1, 2, i / 2, i - 2, i - 1, i]);
        let f = <f64 as Weight>::INFINITY;
        relax_matches_min2_add::<f64>(&[0.0, 0.5, 1.0, 1e300, f64::MAX, f]);
        // The saturation boundary itself: a sum reaching INFINITY never
        // beats a stored INFINITY, and one just below it does.
        assert_eq!(u64::relax(u, u - 1, 1), u);
        assert_eq!(u64::relax(u, u - 2, 1), u - 1);
        assert_eq!(u64::relax(u, u, u), u);
        assert_eq!(i64::relax(i, i - 1, 1), i);
        assert_eq!(i64::relax(0, i, i), 0);
    }
}
