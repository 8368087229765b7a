//! Exact order statistics over raw samples.
//!
//! Quantiles use the nearest-rank rule on the sorted samples themselves, so
//! every reported quantile is one of the measured values and therefore lies
//! in `[min, max]` — unlike quantiles read off log-bucket midpoints, which
//! can fall outside the sample range. Levels are integer basis points
//! (`5000` is the median), which keeps ranks exact.

/// The percentile ladder the tail rule climbs, in basis points.
const LADDER: [u32; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Basis points in one whole.
const WHOLE: u32 = 10_000;

/// The nearest rank (1-based) of level `bp` among `n` samples:
/// `ceil(bp·n / 10000)`, at least 1.
fn rank(bp: u32, n: usize) -> usize {
    let bp = bp.min(WHOLE) as usize;
    (bp * n).div_ceil(WHOLE as usize).max(1)
}

/// Nearest-rank quantile of `sorted` (ascending) at level `bp` basis
/// points: the smallest sample with at least `bp/10000` of the samples at or
/// below it. `None` for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], bp: u32) -> Option<f64> {
    sorted.get(rank(bp, sorted.len()).checked_sub(1)?).copied()
}

/// The highest ladder level that leaves at least [`TAIL_BEYOND`] of `n`
/// samples strictly above its nearest rank, or `None` when even the median
/// does not (`n < 2·TAIL_BEYOND`).
#[must_use]
pub fn tail_level(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&bp| n.saturating_sub(rank(bp, n)) >= TAIL_BEYOND)
}

/// Sorts a copy of `samples` ascending (total order, so NaN cannot panic).
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples`, or `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples), 5000)
}

/// The arithmetic mean of `samples`, or `None` when empty.
#[must_use]
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The geometric mean of `values`, or `None` when empty or when a value is
/// not positive.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::SplitMix;

    #[test]
    fn nearest_rank_on_small_samples() {
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 0), Some(1.0));
        assert_eq!(quantile(&s, 2000), Some(1.0));
        assert_eq!(quantile(&s, 2001), Some(2.0));
        assert_eq!(quantile(&s, 5000), Some(3.0));
        assert_eq!(quantile(&s, 9000), Some(5.0));
        assert_eq!(quantile(&s, 10_000), Some(5.0));
        assert_eq!(quantile(&[], 5000), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        let g = geomean(&[2.0, 8.0]).expect("positive values");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(5000));
        assert_eq!(tail_level(99), Some(5000));
        assert_eq!(tail_level(100), Some(9000));
        assert_eq!(tail_level(199), Some(9000));
        assert_eq!(tail_level(200), Some(9500));
        assert_eq!(tail_level(999), Some(9500));
        assert_eq!(tail_level(1000), Some(9900));
        assert_eq!(tail_level(10_000), Some(9990));
        assert_eq!(tail_level(100_000), Some(9999));
        for n in 20..5000 {
            let bp = tail_level(n).expect("n >= 20 has a tail");
            assert!(n - rank(bp, n) >= TAIL_BEYOND, "n={n} bp={bp}");
        }
    }

    #[test]
    fn quantiles_lie_in_range_and_rise_with_level() {
        let mut rng = SplitMix::new(0x5EED, 0);
        for case in 0..500 {
            let n = 1 + (rng.next_u64() % 300) as usize;
            // Heavy-tailed, duplicated and signed values, as latencies and
            // metric deltas produce.
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let v = (1.0 / (1.0 - u)).powi(2) - 1.0;
                    if rng.next_u64().is_multiple_of(7) {
                        -v.floor()
                    } else {
                        v
                    }
                })
                .collect();
            let s = sorted(&samples);
            let (min, max) = (s[0], s[n - 1]);
            let mut prev = f64::NEG_INFINITY;
            for bp in (0..=WHOLE).step_by(50) {
                let v = quantile(&s, bp).expect("non-empty");
                assert!(
                    min <= v && v <= max,
                    "case {case}: level {bp} gave {v}, outside [{min}, {max}]"
                );
                assert!(v >= prev, "case {case}: quantile fell at level {bp}");
                assert!(samples.contains(&v), "case {case}: {v} is not a sample");
                prev = v;
            }
        }
    }
}
