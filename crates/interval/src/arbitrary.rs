//! Seed-driven generators for falsification harnesses (`dwv-check`).
//!
//! Every function consumes entropy from a caller-supplied `next: &mut impl
//! FnMut() -> u64` word source, so the same seed stream always produces the
//! same value — the property the replay/shrink machinery of `dwv-check`
//! depends on. The mapping helpers ([`unit_f64`], [`f64_in`], [`index`]) live
//! here, at the bottom of the workspace dependency stack, so every other
//! crate's `arbitrary` module can share them.

use crate::{Interval, IntervalBox};

/// Maps one entropy word to `[0, 1)` using the top 53 bits (the standard
/// uniform-double construction).
#[must_use]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Maps one entropy word to a float uniformly in `[lo, hi)`.
#[must_use]
pub fn f64_in(bits: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * unit_f64(bits)
}

/// Maps one entropy word to an index in `0..n` (`0` when `n == 0`).
#[must_use]
#[expect(
    clippy::integer_division_remainder_used,
    reason = "the n == 0 case returns before the remainder"
)]
pub fn index(bits: u64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (bits % n as u64) as usize
    }
}

/// A random finite interval with endpoints of magnitude at most `mag`.
pub fn interval(next: &mut impl FnMut() -> u64, mag: f64) -> Interval {
    let a = f64_in(next(), -mag, mag);
    let b = f64_in(next(), -mag, mag);
    Interval::from_unordered(a, b)
}

/// A random finite interval of width at most `max_width`, centered at a
/// point of magnitude at most `mag`.
pub fn narrow_interval(next: &mut impl FnMut() -> u64, mag: f64, max_width: f64) -> Interval {
    let c = f64_in(next(), -mag, mag);
    let r = 0.5 * max_width * unit_f64(next());
    Interval::from_unordered(c - r, c + r)
}

/// A random finite `dim`-dimensional box with endpoints of magnitude at most
/// `mag`.
pub fn interval_box(next: &mut impl FnMut() -> u64, dim: usize, mag: f64) -> IntervalBox {
    IntervalBox::new((0..dim).map(|_| interval(next, mag)).collect())
}

/// A random finite box of per-dimension width at most `max_width`.
pub fn narrow_box(
    next: &mut impl FnMut() -> u64,
    dim: usize,
    mag: f64,
    max_width: f64,
) -> IntervalBox {
    IntervalBox::new(
        (0..dim)
            .map(|_| narrow_interval(next, mag, max_width))
            .collect(),
    )
}

/// A random point inside `b`: one entropy word per dimension, each mapped
/// onto the corresponding interval (endpoints included via clamping).
pub fn point_in_box(next: &mut impl FnMut() -> u64, b: &IntervalBox) -> Vec<f64> {
    b.intervals()
        .iter()
        .map(|iv| {
            let t = unit_f64(next());
            let v = iv.lo() + iv.width() * t;
            v.clamp(iv.lo(), iv.hi())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = stream(7);
        let mut b = stream(7);
        assert_eq!(interval(&mut a, 3.0), interval(&mut b, 3.0));
        assert_eq!(interval_box(&mut a, 3, 2.0), interval_box(&mut b, 3, 2.0));
    }

    #[test]
    fn points_stay_inside() {
        let mut s = stream(42);
        let b = interval_box(&mut s, 4, 5.0);
        for _ in 0..100 {
            let p = point_in_box(&mut s, &b);
            assert!(b.contains_point(&p));
        }
    }

    #[test]
    fn helpers_are_in_range() {
        let mut s = stream(3);
        for _ in 0..100 {
            let u = unit_f64(s());
            assert!((0.0..1.0).contains(&u));
            let v = f64_in(s(), -2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
            assert!(index(s(), 7) < 7);
        }
        assert_eq!(index(1234, 0), 0);
    }
}
