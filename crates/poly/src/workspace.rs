//! Reusable scratch buffers for allocation-free polynomial kernels.
//!
//! The destination-passing operations on [`crate::Polynomial`]
//! (`add_assign_ref`, `add_scaled_assign`, `mul_into`,
//! `mul_truncated_into`, `eval_interval_ws`) stage their intermediate term
//! lists in a [`PolyWorkspace`] instead of allocating fresh `Vec`s per call.
//! A workspace is plain scratch memory plus a pure memo table: it carries no
//! *semantic* state between calls — the monomial-range memo stores exactly
//! the values the direct computation produces, so warm and cold calls are
//! bit-identical — only capacity and cached pure results, turning the
//! per-term-vector allocations and repeated interval power products of the
//! functional ops into O(1) amortized work per operation.

use crate::polynomial::{packed_mono_range, DenseScratch, PackedTerms};
use dwv_interval::Interval;

/// Hard cap on memoized monomial ranges, summed over every domain's table;
/// reaching it clears all tables rather than growing, bounding workspace
/// memory under adversarial term diversity.
const MONO_CACHE_CAP: usize = 8192;

/// Domains whose tables are kept at once. One control step of a
/// reachability run alternates between the network abstraction's
/// `k`-variable state domain and the flow step's `k + 1`-variable extended
/// domain. With four tables instead of two the `nn-polar` and `nn-reachnn`
/// benchmark workloads missed as often (1.8% and 1.7% of lookups).
const MAX_DOMAINS: usize = 2;

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
    /// Merge / normalization output, swapped into the destination.
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
    /// Lookups that computed the power product (and stored it).
    pub misses: u64,
}

/// One domain's memo table.
#[derive(Debug, Default)]
struct DomainTable {
    /// The domain, as endpoint bit patterns.
    dom: Vec<(u64, u64)>,
    /// Sorted `(key, mono-range)` entries for binary search.
    mono: Vec<(u64, Interval)>,
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
/// used table's slot. All tables share one [`MONO_CACHE_CAP`] entry budget,
/// and a table's storage is freed when it is evicted or cleared, so each
/// table's capacity stays below twice its entries (plus the `Vec`'s minimum
/// of four) and the tables' total capacity below `2 × MONO_CACHE_CAP + 4 ×
/// MAX_DOMAINS` entries.
#[derive(Debug, Default)]
pub(crate) struct DomainPowers {
    /// Tables, most recently synced first; `tables[0]` serves `mono`.
    tables: Vec<DomainTable>,
    /// Entries over all tables (at most [`MONO_CACHE_CAP`]).
    entries: usize,
    /// Lookups served from a table.
    hits: u64,
    /// Lookups that computed and stored a value.
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
                    self.entries -= t.mono.len();
                    t.mono = Vec::new();
                    t.dom.clear();
                    t.dom.extend(
                        domain
                            .iter()
                            .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits())),
                    );
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
    pub(crate) fn mono(&mut self, key: u64, domain: &[Interval]) -> Option<Interval> {
        if key == 0 {
            return None;
        }
        let Some(table) = self.tables.first() else {
            return packed_mono_range(key, domain);
        };
        if let Ok(i) = table.mono.binary_search_by_key(&key, |e| e.0) {
            self.hits += 1;
            return table.mono.get(i).map(|e| e.1);
        }
        self.misses += 1;
        let m = packed_mono_range(key, domain)?;
        if self.entries >= MONO_CACHE_CAP {
            // Degenerate diversity: drop every table's entries rather than
            // grow without bound. Correctness is unaffected (pure memo).
            for t in &mut self.tables {
                t.mono = Vec::new();
            }
            self.entries = 0;
        }
        if let Some(table) = self.tables.first_mut() {
            let at = table.mono.partition_point(|e| e.0 < key);
            table.mono.insert(at, (key, m));
            self.entries += 1;
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_powers_memo_is_transparent() {
        let dom = [Interval::new(-1.0, 1.0), Interval::new(0.0, 0.5)];
        let mut dp = DomainPowers::default();
        dp.sync(&dom);
        let key = (2u64 << 56) | (1 << 48); // x0^2 · x1
        let direct = packed_mono_range(key, &dom).unwrap();
        let cold = dp.mono(key, &dom).unwrap();
        let warm = dp.mono(key, &dom).unwrap();
        assert_eq!(cold.lo().to_bits(), direct.lo().to_bits());
        assert_eq!(cold.hi().to_bits(), direct.hi().to_bits());
        assert_eq!(warm.lo().to_bits(), direct.lo().to_bits());
        assert_eq!(warm.hi().to_bits(), direct.hi().to_bits());
        // Constant monomial has no power product.
        assert!(dp.mono(0, &dom).is_none());
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
        let d1 = packed_mono_range(key, &dom1).unwrap();
        let d2 = packed_mono_range(key, &dom2).unwrap();
        assert_eq!(m1.lo().to_bits(), d1.lo().to_bits());
        assert_eq!(m2.lo().to_bits(), d2.lo().to_bits());
        assert!(m1.lo().to_bits() != m2.lo().to_bits());
        // Syncing back re-derives the first domain's value.
        dp.sync(&dom1);
        let m1b = dp.mono(key, &dom1).unwrap();
        assert_eq!(m1b.hi().to_bits(), d1.hi().to_bits());
    }

    /// Packed key of `x0^a · x1^b · x2^c`.
    fn key3(a: u64, b: u64, c: u64) -> u64 {
        (a << 56) | (b << 48) | (c << 40)
    }

    fn assert_bits(got: Interval, want: Interval) {
        assert_eq!(
            (got.lo().to_bits(), got.hi().to_bits()),
            (want.lo().to_bits(), want.hi().to_bits())
        );
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
                    assert_bits(dp.mono(k, dom).unwrap(), packed_mono_range(k, dom).unwrap());
                }
            }
            // Only the first round misses; every later lookup is a hit.
            assert_eq!(dp.misses, 6);
            assert_eq!(dp.hits, 6 * round);
        }
    }

    #[test]
    fn entries_never_exceed_the_shared_cap() {
        // One domain more than there are tables, each with more keys than
        // half the cap: tables are evicted, and two together reach the cap.
        let doms: Vec<Vec<Interval>> = (0..=MAX_DOMAINS)
            .map(|d| vec![Interval::new(-1.0 - d as f64, 1.0); 3])
            .collect();
        let mut dp = DomainPowers::default();
        let mut peak = 0;
        for round in 0..3u64 {
            for dom in &doms {
                dp.sync(dom);
                for a in 0..64u64 {
                    for b in 0..72u64 {
                        let k = key3(a, b, round + 1);
                        assert_bits(dp.mono(k, dom).unwrap(), packed_mono_range(k, dom).unwrap());
                        let total: usize = dp.tables.iter().map(|t| t.mono.len()).sum();
                        assert_eq!(total, dp.entries);
                        assert!(dp.entries <= MONO_CACHE_CAP);
                        let capacity: usize = dp.tables.iter().map(|t| t.mono.capacity()).sum();
                        assert!(capacity < 2 * MONO_CACHE_CAP + 4 * MAX_DOMAINS);
                        peak = peak.max(dp.entries);
                    }
                }
                assert!(dp.tables.len() <= MAX_DOMAINS);
            }
        }
        assert_eq!(peak, MONO_CACHE_CAP);
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
        assert_bits(
            dp.mono(key, &base).unwrap(),
            packed_mono_range(key, &base).unwrap(),
        );
        for dom in &variants {
            dp.sync(dom);
            assert_bits(
                dp.mono(key, dom).unwrap(),
                packed_mono_range(key, dom).unwrap(),
            );
            dp.sync(&base);
            assert_bits(
                dp.mono(key, &base).unwrap(),
                packed_mono_range(key, &base).unwrap(),
            );
        }
    }
}
