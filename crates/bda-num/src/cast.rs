//! Intent-named numeric conversions for kernel code.
//!
//! The `lossy_cast` lint denies bare `as` casts in `bda-num` / `bda-letkf`
//! because a silent truncation in an index or weight computation corrupts
//! an analysis without failing a test. This module is the single audited
//! home of those conversions: every helper names the *intended* semantics
//! (exact count widening, floor-to-index, saturating truncation), carries
//! a `debug_assert!` where the intent has a precondition, and keeps the
//! unavoidable `as` on one reviewed line.
//!
//! Saturating float→int behavior (negative → 0, NaN → 0, overflow → MAX)
//! is Rust's defined `as` semantics and is relied upon by the `*_index`
//! helpers: callers clamp against an upper bound and want the lower bound
//! handled for them.

/// Exact `usize` → `f64` for counts and grid extents. Exact up to 2⁵³,
/// far beyond any in-memory count this workspace can hold.
#[inline]
pub fn f64_of(n: usize) -> f64 {
    debug_assert!(n <= (1 << 53), "count {n} not exactly representable");
    n as f64 // bda-check: allow(lossy_cast)
}

/// Exact `u64` → `f64`; same 2⁵³ precondition as [`f64_of`].
#[inline]
pub fn f64_of_u64(n: u64) -> f64 {
    debug_assert!(n <= (1 << 53), "count {n} not exactly representable");
    n as f64 // bda-check: allow(lossy_cast)
}

/// Truncate toward zero to an index; negatives and NaN saturate to 0.
#[inline]
pub fn trunc_index(x: f64) -> usize {
    x as usize // bda-check: allow(lossy_cast)
}

/// Floor to an index; negatives and NaN saturate to 0.
#[inline]
pub fn floor_index(x: f64) -> usize {
    x.floor() as usize // bda-check: allow(lossy_cast)
}

/// Ceiling to an index; negatives and NaN saturate to 0.
#[inline]
pub fn ceil_index(x: f64) -> usize {
    x.ceil() as usize // bda-check: allow(lossy_cast)
}

/// Round-half-away to an index; negatives and NaN saturate to 0.
#[inline]
pub fn round_index(x: f64) -> usize {
    x.round() as usize // bda-check: allow(lossy_cast)
}

/// Truncate toward zero to `i64` (saturating at the type bounds, NaN → 0)
/// for signed bucket arithmetic around a floored coordinate.
#[inline]
pub fn trunc_i64(x: f64) -> i64 {
    x as i64 // bda-check: allow(lossy_cast)
}

/// `usize` → `u64`: widening on every platform this workspace targets.
#[inline]
pub fn u64_of(n: usize) -> u64 {
    n as u64 // bda-check: allow(lossy_cast)
}

/// `usize` → `i64` for signed neighborhood arithmetic around an index.
#[inline]
pub fn i64_of(n: usize) -> i64 {
    debug_assert!(i64::try_from(n).is_ok(), "index {n} overflows i64");
    n as i64 // bda-check: allow(lossy_cast)
}

/// `i64` → `usize` once sign has been checked by the caller.
#[inline]
pub fn index_of_i64(n: i64) -> usize {
    debug_assert!(n >= 0, "negative index {n}");
    n as usize // bda-check: allow(lossy_cast)
}

/// `u64` → `usize` for cycle counters and wire-decoded counts: widening on
/// every platform this workspace targets (debug-checked for 32-bit).
#[inline]
pub fn index_of_u64(n: u64) -> usize {
    debug_assert!(usize::try_from(n).is_ok(), "count {n} overflows usize");
    n as usize // bda-check: allow(lossy_cast)
}

/// Round-half-away to the nearest `u8`, saturating at 0/255; NaN → 0.
/// This is the dBZ quantizer of the egress tile codec: a non-finite or
/// out-of-palette value must clamp into the colormap, never wrap.
///
/// Equal to `x.round() as u8` for every `x`, but call-free: on the
/// baseline x86-64 target `round` is a libm call per cell. The value is
/// clamped into [0, 255], truncated, and rounded up when the remainder,
/// which is exact, is at least one half. A NaN stays NaN through the
/// clamp, truncates to 0 and fails the comparison. The clamp keeps the sum
/// in range: only 255.0 itself truncates to 255, and its remainder is 0.
#[inline]
pub fn round_u8_sat(x: f64) -> u8 {
    let c = x.clamp(0.0, 255.0);
    let t = c as u8; // bda-check: allow(lossy_cast)
    t + u8::from(c - f64::from(t) >= 0.5)
}

/// `usize` → `u8` for palette/zoom indices with a checked precondition.
#[inline]
pub fn u8_of_index(n: usize) -> u8 {
    debug_assert!(u8::try_from(n).is_ok(), "index {n} overflows u8");
    n as u8 // bda-check: allow(lossy_cast)
}

/// `usize` → compact `u16` tile coordinate; the precondition is that tile
/// grids stay below 2¹⁶ per axis (they are bounded by the model grid).
#[inline]
pub fn u16_of_index(n: usize) -> u16 {
    debug_assert!(u16::try_from(n).is_ok(), "index {n} overflows u16");
    n as u16 // bda-check: allow(lossy_cast)
}

/// Compact observation-index storage: `u32` → `usize` is always widening
/// on every platform this workspace targets.
#[inline]
pub fn index_of_u32(n: u32) -> usize {
    n as usize // bda-check: allow(lossy_cast)
}

/// `usize` → compact `u32` observation index; the precondition is that
/// observation counts stay below 2³² (they are bounded by grid size).
#[inline]
pub fn u32_of_index(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "index {n} overflows u32");
    n as u32 // bda-check: allow(lossy_cast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_widening() {
        assert_eq!(f64_of(0), 0.0);
        assert_eq!(f64_of(1 << 53), 9007199254740992.0);
        assert_eq!(f64_of_u64(12345), 12345.0);
    }

    #[test]
    fn index_helpers_saturate_low() {
        assert_eq!(trunc_index(-3.7), 0);
        assert_eq!(floor_index(-0.1), 0);
        assert_eq!(ceil_index(-5.0), 0);
        assert_eq!(round_index(f64::NAN), 0);
    }

    #[test]
    fn index_helpers_match_float_ops() {
        assert_eq!(trunc_index(3.9), 3);
        assert_eq!(floor_index(3.9), 3);
        assert_eq!(ceil_index(3.1), 4);
        assert_eq!(round_index(3.5), 4);
    }

    #[test]
    fn signed_round_trips() {
        assert_eq!(i64_of(42), 42);
        assert_eq!(index_of_i64(42), 42);
        assert_eq!(index_of_u32(7), 7);
        assert_eq!(u32_of_index(7), 7);
        assert_eq!(u16_of_index(512), 512);
        assert_eq!(u8_of_index(200), 200);
    }

    #[test]
    fn u8_saturation_and_rounding() {
        assert_eq!(round_u8_sat(0.0), 0);
        assert_eq!(round_u8_sat(127.5), 128);
        assert_eq!(round_u8_sat(255.0), 255);
        assert_eq!(round_u8_sat(300.0), 255);
        assert_eq!(round_u8_sat(-5.0), 0);
        assert_eq!(round_u8_sat(f64::NAN), 0);
        assert_eq!(round_u8_sat(f64::INFINITY), 255);
    }

    /// The call-free form against `round` on a dense sweep of [−2, 260],
    /// every half-integer in it and its neighbours one ulp away, and the
    /// values at and past the edges.
    #[test]
    fn round_u8_sat_equals_round_then_saturate() {
        let check = |x: f64| {
            assert_eq!(
                round_u8_sat(x),
                x.round() as u8,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        };
        let mut special = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e300,
            -1e300,
            2f64.powi(52),
            2f64.powi(64),
            0.5 - f64::EPSILON / 4.0,
        ];
        for k in -4i32..=520 {
            let h = f64::from(k) / 2.0;
            special.extend([h, h.next_down(), h.next_up()]);
        }
        special.into_iter().for_each(check);
        // 2^20 evenly spaced steps, so most remainders are not halves.
        let n = 1u32 << 20;
        for i in 0..=n {
            check(-2.0 + 262.0 * f64::from(i) / f64::from(n));
        }
    }
}
