//! Reusable scratch buffers for allocation-free polynomial kernels.
//!
//! The destination-passing operations on [`crate::Polynomial`]
//! (`add_assign_ref`, `add_scaled_assign`, `add_constant_assign`,
//! `mul_into`, `mul_truncated_into`, `mul_dropping_into`,
//! `eval_interval_ws`) stage their intermediate term lists in a
//! [`PolyWorkspace`] instead of allocating fresh `Vec`s per call, and write
//! their results into the caller's polynomial, whose term arrays keep their
//! capacity. A workspace is plain scratch memory plus a pure memo table: it
//! carries no *semantic* state between calls — the monomial-range memo
//! stores exactly the values the direct computation produces, under the
//! domain's endpoint bits, so warm and cold calls are bit-identical — only
//! capacity and cached pure results. A workspace may therefore live as
//! long as its owner likes (`TaylorReach::reach_from` keeps one per thread
//! across calls). Once the buffers have grown to the sizes a caller's
//! operations need, these operations allocate nothing: a warm Taylor-model
//! reach step allocates only its end-state models and the boxes it records
//! (`tests/no_alloc_step.rs` counts 7 allocations per Os step and 9 per 3D
//! step, down from 254 and 309).
//!
//! The memo's table for a domain is indexed directly by the packed key's
//! exponent bytes, three bits for each of the first four variables, so a
//! lookup is a mask, four shifts and a bit test, and a table holds at most
//! 4096 ranges (64 KiB). A key outside the index (a fifth variable, or an
//! exponent above 7) is computed directly and not stored; no benchmark
//! field produces one.

use crate::polynomial::{packed_mono_range, DenseScratch, PackedTerms};
use dwv_interval::Interval;

/// Domains whose tables are kept at once. One control step of a
/// reachability run alternates between the network abstraction's
/// `k`-variable state domain and the flow step's `k + 1`-variable extended
/// domain. With four tables instead of two the `nn-polar` and `nn-reachnn`
/// benchmark workloads missed as often (1.8% and 1.7% of lookups).
const MAX_DOMAINS: usize = 2;

/// Variables the direct index covers.
const INDEX_VARS: usize = 4;

/// The packed-key bits a directly indexed key may set: the low three bits
/// of the first [`INDEX_VARS`] exponent bytes, exponents 0–7.
const INDEX_BITS: u64 = 0x0707_0707_0000_0000;

/// The table index of `key`, three bits per exponent with variable 0 least
/// significant, so a `k`-variable domain's keys fall in its first `8^k`
/// entries; `None` outside the index.
#[inline]
fn index(key: u64) -> Option<usize> {
    if key & !INDEX_BITS != 0 {
        return None;
    }
    let e = |shift: u32| ((key >> shift) & 7) as usize;
    Some(e(56) | e(48) << 3 | e(40) << 6 | e(32) << 9)
}

/// Scratch buffers for packed-representation polynomial kernels.
///
/// Holds the structure-of-arrays staging buffer of a multiplication, its
/// key-sort permutation, the merge output buffer the in-place kernels swap
/// into the destination, and the domain-keyed monomial-range memo serving
/// `eval_interval_ws` / `mul_truncated_into`. Buffers grow to the high-water
/// mark of the operations performed through them and are then reused.
#[derive(Debug, Default)]
pub struct PolyWorkspace {
    /// Raw pair products of a multiplication (structure-of-arrays).
    pub(crate) stage: PackedTerms,
    /// Key-sorted permutation of `stage` (index tie-break).
    pub(crate) order: Vec<u32>,
    /// Radix-sort ping-pong buffer for the permutation.
    pub(crate) order_scratch: Vec<u32>,
    /// Per-term total degrees of the rhs, for degree-filtered staging.
    pub(crate) bdeg: Vec<u32>,
    /// Merge / normalization output, copied into the destination.
    pub(crate) merge: PackedTerms,
    /// Dense product accumulator.
    pub(crate) dense: DenseScratch,
    /// Domain-keyed memo of monomial interval power products.
    pub(crate) powers: DomainPowers,
}

impl PolyWorkspace {
    /// Creates an empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime hit and miss counts of the monomial-range memo.
    #[must_use]
    pub fn powers_stats(&self) -> PowersStats {
        PowersStats {
            hits: self.powers.hits,
            misses: self.powers.misses,
        }
    }
}

/// Lookup counters of a workspace's monomial-range memo (see
/// [`PolyWorkspace::powers_stats`]). Constant monomials are not looked up
/// and count as neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowersStats {
    /// Lookups answered from a domain's table.
    pub hits: u64,
    /// Lookups that computed the power product (and stored it, when the
    /// key is inside the index).
    pub misses: u64,
}

/// One domain's memo table.
#[derive(Debug, Default)]
struct DomainTable {
    /// The domain, as endpoint bit patterns.
    dom: Vec<(u64, u64)>,
    /// Power products by [`index`]: `8^min(k, INDEX_VARS)` entries for a
    /// `k`-variable domain, each valid where its `filled` bit is set.
    ranges: Vec<Interval>,
    /// One bit per entry of `ranges`.
    filled: Vec<u64>,
}

impl DomainTable {
    /// Whether the table belongs to `domain`, comparing endpoint bit
    /// patterns (so `-0.0 ≠ +0.0` and any NaN mismatches conservatively).
    fn is_for(&self, domain: &[Interval]) -> bool {
        self.dom.len() == domain.len()
            && self
                .dom
                .iter()
                .zip(domain)
                .all(|(&(lo, hi), iv)| lo == iv.lo().to_bits() && hi == iv.hi().to_bits())
    }

    /// Gives the table to `domain` with every entry unfilled and its
    /// storage sized to the domain's index: a table that held a 4-variable
    /// domain's 64 KiB does not keep them for a 2-variable domain's 1 KiB.
    fn reset(&mut self, domain: &[Interval]) {
        self.dom.clear();
        self.dom.extend(
            domain
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits())),
        );
        let len = 1 << (3 * domain.len().min(INDEX_VARS));
        self.ranges.truncate(len);
        self.ranges.shrink_to(len);
        self.ranges.resize(len, Interval::ZERO);
        self.filled.clear();
        self.filled.resize(len.div_ceil(64), 0);
    }
}

/// Memo table for monomial interval power products, one table per recently
/// used domain.
///
/// `mono(key, domain)` is a pure function of the packed key and the domain's
/// endpoint bits (see [`packed_mono_range`]); this memo caches it per domain
/// for the [`MAX_DOMAINS`] most recently synced domains. The cached value
/// *is* the directly computed value — the memo only changes how often it is
/// recomputed, never what it is — so every caller is bit-identical with and
/// without it. Switching to a domain that has a table re-activates that
/// table with its entries intact; a new domain takes the least recently
/// used table's slot, unfilled. A table is indexed directly by the key
/// ([`index`]), so its size is bounded by construction: at most 4096
/// entries of 16 bytes and a 512-byte fill mask.
#[derive(Debug, Default)]
pub(crate) struct DomainPowers {
    /// Tables, most recently synced first; `tables[0]` serves `mono`.
    tables: Vec<DomainTable>,
    /// Lookups served from a table.
    hits: u64,
    /// Lookups that computed the power product.
    misses: u64,
}

impl DomainPowers {
    /// Points the memo at `domain`: brings its table to the front, or gives
    /// it the least recently used slot, cleared.
    pub(crate) fn sync(&mut self, domain: &[Interval]) {
        if self.tables.first().is_some_and(|t| t.is_for(domain)) {
            return;
        }
        let slot = match self.tables.iter().position(|t| t.is_for(domain)) {
            Some(i) => i,
            None => {
                if self.tables.len() < MAX_DOMAINS {
                    self.tables.push(DomainTable::default());
                }
                if let Some(t) = self.tables.last_mut() {
                    t.reset(domain);
                }
                self.tables.len() - 1
            }
        };
        if let Some(recent) = self.tables.get_mut(..=slot) {
            recent.rotate_right(1);
        }
    }

    /// The monomial power product of `key` over `domain` (`None` for the
    /// constant monomial), served from the memo when present. `sync` must
    /// have been called with this domain first.
    #[inline]
    pub(crate) fn mono(&mut self, key: u64, domain: &[Interval]) -> Option<Interval> {
        if key == 0 {
            return None;
        }
        let entry = self.tables.first_mut().zip(index(key)).and_then(|(t, i)| {
            let bit = 1u64 << (i & 63);
            let word = t.filled.get_mut(i >> 6)?;
            Some((t.ranges.get_mut(i)?, word, bit))
        });
        match entry {
            Some((range, word, bit)) if *word & bit != 0 => {
                self.hits += 1;
                Some(*range)
            }
            Some((range, word, bit)) => {
                self.misses += 1;
                let m = packed_mono_range(key, domain)?;
                *range = m;
                *word |= bit;
                Some(m)
            }
            None => {
                self.misses += 1;
                packed_mono_range(key, domain)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packed key of `x0^a · x1^b · x2^c`.
    fn key3(a: u64, b: u64, c: u64) -> u64 {
        (a << 56) | (b << 48) | (c << 40)
    }

    fn assert_bits(got: Option<Interval>, want: Option<Interval>) {
        let bits = |m: Option<Interval>| m.map(|m| (m.lo().to_bits(), m.hi().to_bits()));
        assert_eq!(bits(got), bits(want));
    }

    /// A SplitMix64 stream.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// A draw below `n`.
    fn below(next: &mut impl FnMut() -> u64, n: u64) -> u64 {
        ((u128::from(next()) * u128::from(n)) >> 64) as u64
    }

    /// One endpoint pair of each kind the memo must key apart: zero-width,
    /// negative-only, `[0, 1]`, an infinite endpoint, or a general interval.
    fn interval(next: &mut impl FnMut() -> u64) -> Interval {
        let v = below(next, 2001) as f64 / 1000.0 - 1.0;
        match below(next, 7) {
            0 => Interval::point(v),
            1 => Interval::new(-2.0 - v.abs(), -v.abs() - 0.5),
            2 => Interval::new(0.0, 1.0),
            3 => Interval::new(f64::NEG_INFINITY, v),
            4 => Interval::new(v, f64::INFINITY),
            5 => Interval::new(f64::NEG_INFINITY, f64::INFINITY),
            _ => Interval::new(v - 0.75, v + 0.5),
        }
    }

    #[test]
    fn domain_powers_memo_is_transparent() {
        let mut next = stream(0x5EED);
        // Four domains of 1–5 variables per round, visited A/B/A and then in
        // a random order, so tables are reused warm and evicted.
        for round in 0..40 {
            let doms: Vec<Vec<Interval>> = (0..4)
                .map(|_| {
                    let k = 1 + below(&mut next, 5) as usize;
                    (0..k).map(|_| interval(&mut next)).collect()
                })
                .collect();
            let mut order = vec![0, 1, 0];
            order.extend((0..12).map(|_| below(&mut next, 4) as usize));
            let mut dp = DomainPowers::default();
            for &d in &order {
                let dom = &doms[d];
                dp.sync(dom);
                for _ in 0..48 {
                    // Exponents 0–8 over the domain's variables: both sides
                    // of the index bound (7 and 8, four and five variables).
                    let key =
                        (0..dom.len()).fold(0u64, |k, i| k | below(&mut next, 9) << (56 - 8 * i));
                    assert_bits(dp.mono(key, dom), packed_mono_range(key, dom));
                }
            }
            assert!(dp.hits > 0 && dp.misses > 0, "round {round} missed a path");
        }
        // Constant monomial has no power product.
        let mut dp = DomainPowers::default();
        let dom = [Interval::new(-1.0, 1.0)];
        dp.sync(&dom);
        assert!(dp.mono(0, &dom).is_none());
        assert_eq!((dp.hits, dp.misses), (0, 0));
    }

    #[test]
    fn domain_powers_invalidates_on_domain_change() {
        let dom1 = [Interval::new(-1.0, 1.0)];
        let dom2 = [Interval::new(-2.0, 1.0)];
        let key = 3u64 << 56; // x0^3
        let mut dp = DomainPowers::default();
        dp.sync(&dom1);
        let m1 = dp.mono(key, &dom1).unwrap();
        dp.sync(&dom2);
        let m2 = dp.mono(key, &dom2).unwrap();
        assert_bits(Some(m1), packed_mono_range(key, &dom1));
        assert_bits(Some(m2), packed_mono_range(key, &dom2));
        assert!(m1.lo().to_bits() != m2.lo().to_bits());
        // Syncing back re-derives the first domain's value.
        dp.sync(&dom1);
        assert_bits(dp.mono(key, &dom1), packed_mono_range(key, &dom1));
    }

    #[test]
    fn alternating_domains_both_stay_warm() {
        // The NN abstraction's state domain and the flow step's extended
        // domain, alternating as they do within each control step.
        let state = [Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)];
        let ext = [
            Interval::new(-1.0, 1.0),
            Interval::new(-1.0, 1.0),
            Interval::new(0.0, 1.0),
        ];
        let state_keys = [key3(2, 0, 0), key3(1, 1, 0), key3(0, 3, 0)];
        let ext_keys = [key3(2, 0, 1), key3(1, 1, 2), key3(0, 3, 1)];
        let mut dp = DomainPowers::default();
        for round in 0..4u64 {
            for (dom, keys) in [(&state[..], &state_keys), (&ext[..], &ext_keys)] {
                dp.sync(dom);
                for &k in keys {
                    assert_bits(dp.mono(k, dom), packed_mono_range(k, dom));
                }
            }
            // Only the first round misses; every later lookup is a hit.
            assert_eq!(dp.misses, 6);
            assert_eq!(dp.hits, 6 * round);
        }
    }

    #[test]
    fn tables_are_bounded_by_the_index() {
        // Five-variable domains, more of them than there are tables, and
        // every key up to exponent 9 in the first three variables: the
        // tables never outgrow 8⁴ entries, and keys outside the index are
        // computed every time.
        let doms: Vec<Vec<Interval>> = (0..=MAX_DOMAINS)
            .map(|d| vec![Interval::new(-1.0 - d as f64, 1.0); 5])
            .collect();
        let mut dp = DomainPowers::default();
        for dom in doms.iter().chain(&doms) {
            dp.sync(dom);
            let before = dp.misses;
            for _ in 0..2 {
                for a in 0..10u64 {
                    for b in 0..10u64 {
                        for c in 0..10u64 {
                            let k = key3(a, b, c) | 1 << 24;
                            assert_bits(dp.mono(k, dom), packed_mono_range(k, dom));
                        }
                    }
                }
            }
            // The factor x4 puts every key outside the index: each misses
            // both times.
            assert_eq!(dp.misses - before, 2000);
            for t in &dp.tables {
                assert_eq!(t.ranges.len(), 1 << (3 * INDEX_VARS));
                assert!(t.ranges.capacity() <= 1 << (3 * INDEX_VARS));
                assert_eq!(t.filled.len(), 64);
            }
            assert!(dp.tables.len() <= MAX_DOMAINS);
        }
        // Without the fifth variable the first 512 keys are stored, in a
        // table that gave back the 4096-entry one's storage.
        let dom = &doms[0][..3];
        dp.sync(dom);
        assert!(dp.tables[0].ranges.capacity() < 1 << (3 * INDEX_VARS));
        let misses = dp.misses;
        for _ in 0..2 {
            for a in 0..10u64 {
                for b in 0..10u64 {
                    for c in 0..10u64 {
                        let k = key3(a, b, c);
                        assert_bits(dp.mono(k, dom), packed_mono_range(k, dom));
                    }
                }
            }
        }
        // 511 stored keys miss once, 488 outside the index twice.
        assert_eq!(dp.misses - misses, 511 + 2 * 488);
    }

    #[test]
    fn a_changed_domain_never_serves_a_stale_entry() {
        let key = key3(3, 1, 0);
        let base = [Interval::new(-1.0, 1.0), Interval::new(0.0, 2.0)];
        // Variants differing from `base` in a single endpoint bit pattern,
        // `-0.0` vs `+0.0` included.
        let variants = [
            [Interval::new(-1.0, 1.0), Interval::new(-0.0, 2.0)],
            [Interval::new(-1.0, 1.5), Interval::new(0.0, 2.0)],
            [Interval::new(-2.0, 1.0), Interval::new(0.0, 2.0)],
            [Interval::new(-1.0, 1.0), Interval::new(0.0, 3.0)],
            [Interval::new(-1.0, 1.0), Interval::new(0.5, 2.0)],
        ];
        let mut dp = DomainPowers::default();
        dp.sync(&base);
        assert_bits(dp.mono(key, &base), packed_mono_range(key, &base));
        for dom in &variants {
            dp.sync(dom);
            assert_bits(dp.mono(key, dom), packed_mono_range(key, dom));
            dp.sync(&base);
            assert_bits(dp.mono(key, &base), packed_mono_range(key, &base));
        }
    }
}
