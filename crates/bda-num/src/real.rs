//! Precision abstraction.
//!
//! The BDA paper's first innovation was converting both SCALE and the LETKF
//! from double to single precision. Everything numerical in this workspace is
//! generic over [`Real`] so the same code runs (and is benchmarked) at both
//! precisions.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar used throughout the BDA workspace.
///
/// Implemented for `f32` (the production configuration of the paper) and
/// `f64` (the pre-optimization baseline).
pub trait Real:
    Copy
    + PartialOrd
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Exact conversion from `f64` (rounding to nearest for `f32`).
    fn of(v: f64) -> Self;
    /// Conversion from a count.
    fn of_usize(n: usize) -> Self {
        Self::of(crate::cast::f64_of(n))
    }
    /// Widening conversion to `f64`.
    fn f64(self) -> f64;
    /// Machine epsilon of the concrete type.
    fn eps() -> Self;
    /// Positive infinity.
    fn infinity() -> Self;

    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn exp(self) -> Self;
    fn ln(self) -> Self;
    fn powi(self, n: i32) -> Self;
    fn powf(self, p: Self) -> Self;
    fn sin(self) -> Self;
    fn cos(self) -> Self;
    fn tanh(self) -> Self;
    fn floor(self) -> Self;
    fn mul_add(self, a: Self, b: Self) -> Self;
    fn is_finite(self) -> bool;

    fn max(self, other: Self) -> Self;
    fn min(self, other: Self) -> Self;

    /// Total order over all values including NaN (IEEE 754 totalOrder).
    ///
    /// Sorting with `partial_cmp().unwrap()` panics on the first NaN; every
    /// sort on possibly-poisoned data must go through this instead.
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering;

    /// `sqrt(self^2 + other^2)` without undue overflow.
    fn hypot(self, other: Self) -> Self;

    /// Sign transfer: `|self| * sign(other)` (used by the QL iteration).
    fn copysign(self, other: Self) -> Self;

    /// Clamp into `[lo, hi]`.
    fn clamp_to(self, lo: Self, hi: Self) -> Self {
        self.max(lo).min(hi)
    }

    /// `self * self`.
    #[inline]
    fn sq(self) -> Self {
        self * self
    }

    /// Half of one, handy in staggered-grid interpolation.
    #[inline]
    fn half() -> Self {
        Self::of(0.5)
    }

    /// Two.
    #[inline]
    fn two() -> Self {
        Self::of(2.0)
    }
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            #[inline]
            fn zero() -> Self {
                0.0
            }
            #[inline]
            fn one() -> Self {
                1.0
            }
            #[inline]
            fn of(v: f64) -> Self {
                // The Real trait's rounding conversion primitive itself.
                v as $t
            }
            #[inline]
            fn f64(self) -> f64 {
                // Widening for f32, identity for f64: never lossy.
                self as f64 // bda-check: allow(lossy_cast)
            }
            #[inline]
            fn eps() -> Self {
                <$t>::EPSILON
            }
            #[inline]
            fn infinity() -> Self {
                <$t>::INFINITY
            }
            #[inline]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline]
            fn powf(self, p: Self) -> Self {
                self.powf(p)
            }
            #[inline]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline]
            fn tanh(self) -> Self {
                self.tanh()
            }
            #[inline]
            fn floor(self) -> Self {
                self.floor()
            }
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }
            #[inline]
            fn copysign(self, other: Self) -> Self {
                <$t>::copysign(self, other)
            }
            #[inline]
            fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
                <$t>::total_cmp(self, other)
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<T: Real>() {
        assert_eq!(T::zero() + T::one(), T::one());
        assert_eq!(T::of(2.0) * T::of(3.0), T::of(6.0));
        assert!((T::of(4.0).sqrt() - T::two()).abs() < T::of(1e-6));
        assert!((T::of(1.0).exp().ln() - T::one()).abs() < T::of(1e-5));
        assert_eq!(T::of(-3.5).abs(), T::of(3.5));
        assert_eq!(T::of(3.0).max(T::of(5.0)), T::of(5.0));
        assert_eq!(T::of(3.0).min(T::of(5.0)), T::of(3.0));
        assert_eq!(T::of(7.0).clamp_to(T::zero(), T::of(5.0)), T::of(5.0));
        assert_eq!(T::of(2.0).sq(), T::of(4.0));
        assert_eq!(T::of(5.0).copysign(T::of(-1.0)), T::of(-5.0));
        assert!((T::of(3.0).hypot(T::of(4.0)) - T::of(5.0)).abs() < T::of(1e-6));
        assert!(T::one().is_finite());
        assert!(!T::infinity().abs().recip_is_nonzero_test());
        assert_eq!(T::of_usize(7), T::of(7.0));
        assert_eq!(T::of(2.5).floor(), T::of(2.0));
        assert!((T::of(2.0).mul_add(T::of(3.0), T::of(1.0)) - T::of(7.0)).abs() < T::eps());
        let nan = T::zero() / T::zero();
        let mut v = [T::one(), nan, T::zero()];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], T::zero());
        assert_eq!(v[1], T::one());
        assert!(!v[2].is_finite());
    }

    trait RecipTest {
        fn recip_is_nonzero_test(self) -> bool;
    }
    impl<T: Real> RecipTest for T {
        fn recip_is_nonzero_test(self) -> bool {
            (T::one() / self) > T::zero()
        }
    }

    #[test]
    fn f32_satisfies_contract() {
        exercise::<f32>();
    }

    #[test]
    fn f64_satisfies_contract() {
        exercise::<f64>();
    }

    #[test]
    fn widening_roundtrip() {
        let x: f32 = 1.25;
        assert_eq!(f32::of(x.f64()), x);
        let y: f64 = 1.25e-300;
        assert_eq!(f64::of(y.f64()), y);
    }

    #[test]
    fn eps_matches_native() {
        assert_eq!(<f32 as Real>::eps(), f32::EPSILON);
        assert_eq!(<f64 as Real>::eps(), f64::EPSILON);
    }
}
