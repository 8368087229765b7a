//! Memoized combinatorial tables for Bernstein-form conversions.
//!
//! Bernstein basis conversion and range enclosure evaluate `C(n, k)` inside
//! tensor-contraction inner loops; recomputing the multiplicative formula per
//! lookup dominated profiles of `range_enclosure` on the benchmark systems.
//! This module computes a Pascal triangle once per process ([`binomial`]) and
//! caches the per-degree conversion ratio matrices `C(k, j) / C(d, j)`
//! ([`bernstein_ratios`]) so repeated enclosures of same-degree polynomials
//! — the common case inside a flowpipe loop — reuse one allocation.

#![expect(
    clippy::disallowed_types,
    reason = "degree-keyed lookup-only memo tables; iteration order is never observed"
)]

use crate::Polynomial;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Largest `n` covered by the precomputed Pascal triangle. `C(64, 32)` is
/// ~1.8e18, still exactly representable; degrees in the reproduction stay far
/// below this.
const PASCAL_ROWS: usize = 65;

#[expect(
    clippy::indexing_slicing,
    reason = "row n-1 pushed on the previous iteration; k < n bounds both rows by construction"
)]
fn pascal() -> &'static Vec<Vec<f64>> {
    static TRIANGLE: OnceLock<Vec<Vec<f64>>> = OnceLock::new();
    TRIANGLE.get_or_init(|| {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(PASCAL_ROWS);
        rows.push(vec![1.0]);
        for n in 1..PASCAL_ROWS {
            let prev = &rows[n - 1];
            let mut row = vec![1.0; n + 1];
            for k in 1..n {
                row[k] = prev[k - 1] + prev[k];
            }
            rows.push(row);
        }
        rows
    })
}

/// Binomial coefficient `C(n, k)` as `f64`.
///
/// Table lookup for `n < 65` (exact — within `f64` integer precision);
/// multiplicative fallback above, rounded to the nearest integer.
#[must_use]
#[expect(
    clippy::indexing_slicing,
    reason = "the table lookup runs only after checking k <= n and n < PASCAL_ROWS"
)]
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    if (n as usize) < PASCAL_ROWS {
        return pascal()[n as usize][k as usize];
    }
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 0..k {
        acc = acc * f64::from(n - i) / f64::from(i + 1);
    }
    acc.round()
}

/// The Bernstein basis-conversion ratio matrix for degree `d`:
/// `ratios[k][j] = C(k, j) / C(d, j)` for `0 ≤ j ≤ k ≤ d`.
///
/// These are the weights of the power-basis → Bernstein-coefficient
/// contraction `b_k = Σ_{j ≤ k} C(k,j)/C(d,j) · a_j` applied per dimension.
/// Matrices are cached per degree for the lifetime of the process.
#[must_use]
pub fn bernstein_ratios(d: u32) -> Arc<Vec<Vec<f64>>> {
    type RatioCache = OnceLock<Mutex<HashMap<u32, Arc<Vec<Vec<f64>>>>>>;
    static CACHE: RatioCache = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // A poisoned lock only means another thread panicked *between* map
    // operations; entries are inserted fully constructed, so the map is
    // always valid and recovery is sound.
    let mut guard = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(guard.entry(d).or_insert_with(|| {
        Arc::new(
            (0..=d)
                .map(|k| (0..=k).map(|j| binomial(k, j) / binomial(d, j)).collect())
                .collect(),
        )
    }))
}

/// The full degree-`d` univariate Bernstein basis `[B_{0,d}, …, B_{d,d}]`
/// expanded in the power basis, cached per degree for the lifetime of the
/// process.
///
/// [`crate::bernstein::approximate`] previously re-expanded every basis
/// polynomial per call; a Bernstein NN abstraction re-fits the same degrees
/// for every output and every verification sweep cell, so the expansion is
/// pure recomputation.
#[must_use]
pub fn basis_polynomials(d: u32) -> Arc<Vec<Polynomial>> {
    static CACHE: OnceLock<Mutex<HashMap<u32, Arc<Vec<Polynomial>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // Poison recovery is sound: entries are inserted fully constructed.
    let mut guard = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(guard.entry(d).or_insert_with(|| {
        Arc::new(
            (0..=d)
                .map(|k| crate::bernstein::basis_polynomial(d, k))
                .collect(),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_multiplicative_formula() {
        for n in 0..30u32 {
            for k in 0..=n {
                let k_small = k.min(n - k);
                let mut acc = 1.0;
                for i in 0..k_small {
                    acc = acc * f64::from(n - i) / f64::from(i + 1);
                }
                assert_eq!(binomial(n, k), acc.round(), "C({n},{k})");
            }
        }
    }

    #[test]
    fn out_of_range_is_zero() {
        assert_eq!(binomial(3, 7), 0.0);
        assert_eq!(binomial(0, 1), 0.0);
    }

    #[test]
    fn large_n_falls_back() {
        // C(70, 1) = 70 via the multiplicative path.
        assert_eq!(binomial(70, 1), 70.0);
        assert_eq!(binomial(70, 0), 1.0);
    }

    #[test]
    fn basis_polynomials_match_uncached_expansion() {
        let bases = basis_polynomials(3);
        assert_eq!(bases.len(), 4);
        for (k, b) in bases.iter().enumerate() {
            let fresh = crate::bernstein::basis_polynomial(3, k as u32);
            for t in [0.0, 0.25, 0.5, 1.0] {
                assert_eq!(b.eval(&[t]), fresh.eval(&[t]));
            }
        }
        // Cached: second call returns the same allocation.
        assert!(Arc::ptr_eq(&bases, &basis_polynomials(3)));
    }

    #[test]
    fn ratio_matrix_shape_and_values() {
        let r = bernstein_ratios(4);
        assert_eq!(r.len(), 5);
        for (k, row) in r.iter().enumerate() {
            assert_eq!(row.len(), k + 1);
        }
        // ratios[k][0] = 1 always; ratios[d][j] = C(d,j)/C(d,j) = 1.
        for k in 0..=4usize {
            assert_eq!(r[k][0], 1.0);
            assert_eq!(r[4][k], 1.0);
        }
        // ratios[2][1] = C(2,1)/C(4,1) = 2/4.
        assert_eq!(r[2][1], 0.5);
        // Cached: second call returns the same allocation.
        let r2 = bernstein_ratios(4);
        assert!(Arc::ptr_eq(&r, &r2));
    }
}
