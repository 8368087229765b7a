//! Memoization of reachability results across training iterations.
//!
//! Algorithm 1 re-verifies the *same* `(controller, initial cell)`
//! subproblem repeatedly: every iteration re-evaluates the current
//! controller that the previous iteration already verified (as the accepted
//! candidate or the restored pre-step parameters), and the final judgement
//! verifies the last controller once more. Algorithm-2 style sweeps can
//! likewise revisit cells under an unchanged controller. [`ReachCache`]
//! memoizes `Result<Flowpipe, ReachError>` keyed by a hash of the controller
//! parameters and a hash of the initial cell, so unchanged subproblems are
//! answered from memory.
//!
//! **Invalidation rule:** a cache key *is* the controller-weights hash — any
//! weight change produces a new key, so stale results are never returned.
//! [`ReachCache::invalidate_controller`] additionally flushes all entries of
//! one controller hash (e.g. when its weights are about to be mutated in
//! place and the old results are known to be dead), bounding memory across
//! long learning runs.

use crate::error::ReachError;
use crate::flowpipe::Flowpipe;
use dwv_interval::IntervalBox;
use std::collections::HashMap; // dwv-lint: allow(determinism) -- content-keyed memo; retain/clear results are order-independent and iteration order is never otherwise observed
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Domain separator folded in before a nonzero tenant id, so the tenant-0
/// hash chain (the historical single-tenant [`hash_params`] chain) can only
/// collide with a tenant-qualified chain through a full FNV collision.
const TENANT_DOMAIN: u64 = 0x7e6a_9d1c_5b38_24f0;

#[inline]
fn fnv1a_u64(state: u64, word: u64) -> u64 {
    let mut h = state;
    for shift in (0..64).step_by(8) {
        h ^= (word >> shift) & 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash of a parameter vector, bit-exact on the `f64` values.
///
/// Distinct bit patterns (including `-0.0` vs `0.0`) hash differently, so a
/// cache keyed by this hash never conflates controllers whose outputs could
/// differ.
#[must_use]
pub fn hash_params(params: &[f64]) -> u64 {
    hash_params_tenant(0, params)
}

/// [`hash_params`] qualified by a tenant id, for multi-tenant cache sharding.
///
/// Two tenants submitting bit-identical controller weights must never share
/// a cache line (a served verdict for one tenant must not be observable as a
/// warm hit by another), so the tenant id is folded into the hash state
/// *before* the parameters. Tenant `0` is the batch/single-tenant identity:
/// `hash_params_tenant(0, p) == hash_params(p)` for every `p`, keeping every
/// pre-existing single-tenant cache key stable. Nonzero tenants start from a
/// domain-separated state (see `TENANT_DOMAIN`).
#[must_use]
pub fn hash_params_tenant(tenant: u64, params: &[f64]) -> u64 {
    let state = if tenant == 0 {
        FNV_OFFSET
    } else {
        fnv1a_u64(fnv1a_u64(FNV_OFFSET, TENANT_DOMAIN), tenant)
    };
    let mut h = fnv1a_u64(state, params.len() as u64);
    for &p in params {
        h = fnv1a_u64(h, p.to_bits());
    }
    h
}

/// FNV-1a hash of a cell's exact bounds.
#[must_use]
pub fn hash_cell(cell: &IntervalBox) -> u64 {
    let mut h = fnv1a_u64(FNV_OFFSET, cell.dim() as u64);
    for iv in cell.intervals() {
        h = fnv1a_u64(h, iv.lo().to_bits());
        h = fnv1a_u64(h, iv.hi().to_bits());
    }
    h
}

/// A memo cache for `(controller, initial cell) → Result<Flowpipe, _>`.
///
/// Thread-safe: a worker pool fanning out per-cell verifications can share
/// one cache. Hashes are computed by the caller ([`hash_params`] /
/// [`hash_cell`]) so the cache itself stays independent of controller types.
#[derive(Debug, Default)]
pub struct ReachCache {
    // A poisoned lock only means another worker panicked mid-operation;
    // entries are inserted fully constructed and never mutated in place, so
    // the map is always internally consistent — lock acquisition recovers
    // from poisoning instead of cascading the panic across the worker pool.
    // dwv-lint: allow(determinism) -- content-keyed memo; retain/clear results are order-independent and iteration order is never otherwise observed
    map: Mutex<HashMap<(u64, u64), Result<Flowpipe, ReachError>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// Lifetime counters of a [`ReachCache`], as returned by
/// [`ReachCache::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReachCacheStats {
    /// Lookups answered from memory.
    pub hits: usize,
    /// Lookups that had to compute.
    pub misses: usize,
    /// Entries dropped by [`ReachCache::invalidate_controller`] /
    /// [`ReachCache::clear`].
    pub evictions: usize,
    /// Subproblems currently memoized.
    pub entries: usize,
}

impl ReachCacheStats {
    /// Fraction of lookups served from memory (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ReachCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoized result for `(controller, cell)`, computing and
    /// storing it on a miss.
    ///
    /// The computation runs *outside* the cache lock, so concurrent
    /// verifications of different subproblems do not serialize (two threads
    /// missing on the same key may both compute; last write wins with an
    /// identical value).
    pub fn get_or_compute<F>(
        &self,
        controller: u64,
        cell: u64,
        compute: F,
    ) -> Result<Flowpipe, ReachError>
    where
        F: FnOnce() -> Result<Flowpipe, ReachError>,
    {
        let key = (controller, cell);
        if let Some(hit) = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if dwv_obs::enabled() {
                dwv_obs::counter("reach.cache.hits").inc();
            }
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if dwv_obs::enabled() {
            dwv_obs::counter("reach.cache.misses").inc();
        }
        let result = compute();
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, result.clone());
        result
    }

    /// Flushes every entry belonging to one controller hash.
    pub fn invalidate_controller(&self, controller: u64) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = map.len();
        map.retain(|(c, _), _| *c != controller);
        self.note_evictions(before - map.len());
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&self) {
        let mut map = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dropped = map.len();
        map.clear();
        self.note_evictions(dropped);
    }

    fn note_evictions(&self, dropped: usize) {
        if dropped > 0 {
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
            if dwv_obs::enabled() {
                dwv_obs::counter("reach.cache.evictions").add(dropped as u64);
            }
        }
    }

    /// The number of memoized subproblems.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from memory so far.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by invalidation so far.
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// A consistent snapshot of the lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ReachCacheStats {
        ReachCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            entries: self.len(),
        }
    }
}

/// A family of [`ReachCache`]s, one shard per tenant id.
///
/// The serving layer keeps one of these: each tenant's
/// jobs memoize into their own shard, so one tenant's warm entries are never
/// observable (not even as timing) by another, and a per-tenant flush
/// ([`ShardedReachCache::drop_tenant`]) cannot evict a neighbour's work.
/// Keys inside a shard should still be tenant-qualified via
/// [`hash_params_tenant`] — sharding bounds blast radius, the hash rules out
/// cross-service hits even if two shards are ever merged or misrouted.
#[derive(Debug, Default)]
pub struct ShardedReachCache {
    // dwv-lint: allow(determinism) -- tenant-keyed shard directory; lookups are by key and iteration order is only used for order-independent stats sums
    shards: Mutex<HashMap<u64, Arc<ReachCache>>>,
}

impl ShardedReachCache {
    /// An empty shard family.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard for `tenant`, created on first use.
    ///
    /// The returned handle stays valid (and shared) across calls: two
    /// workers asking for the same tenant get the same underlying cache.
    #[must_use]
    pub fn shard(&self, tenant: u64) -> Arc<ReachCache> {
        Arc::clone(
            self.shards
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .entry(tenant)
                .or_default(),
        )
    }

    /// Drops one tenant's entire shard (counters and all), freeing its
    /// memory. Handles already obtained via [`ShardedReachCache::shard`]
    /// keep working but are detached from the family.
    pub fn drop_tenant(&self, tenant: u64) {
        self.shards
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&tenant);
    }

    /// The number of tenants with a live shard.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.shards
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Lifetime counters summed across every live shard.
    #[must_use]
    pub fn stats(&self) -> ReachCacheStats {
        let shards = self
            .shards
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut total = ReachCacheStats::default();
        for cache in shards.values() {
            let s = cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowpipe::StepEnclosure;

    fn tiny_flowpipe(tag: f64) -> Flowpipe {
        let b = IntervalBox::from_bounds(&[(0.0, tag)]);
        Flowpipe::new(vec![StepEnclosure {
            t0: 0.0,
            t1: 0.0,
            enclosure: b.clone(),
            end_box: b,
            polygon: None,
        }])
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = ReachCache::new();
        let mut computed = 0usize;
        for _ in 0..3 {
            let fp = cache
                .get_or_compute(1, 2, || {
                    computed += 1;
                    Ok(tiny_flowpipe(1.0))
                })
                .unwrap();
            assert_eq!(fp.len(), 1);
        }
        assert_eq!(computed, 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = ReachCache::new();
        let mut computed = 0usize;
        for _ in 0..2 {
            let r = cache.get_or_compute(9, 9, || {
                computed += 1;
                Err(ReachError::Unsupported("test".into()))
            });
            assert!(r.is_err());
        }
        assert_eq!(computed, 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ReachCache::new();
        let a = cache
            .get_or_compute(1, 1, || Ok(tiny_flowpipe(1.0)))
            .unwrap();
        let b = cache
            .get_or_compute(1, 2, || Ok(tiny_flowpipe(2.0)))
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_controller_flushes_only_that_hash() {
        let cache = ReachCache::new();
        let _ = cache.get_or_compute(1, 1, || Ok(tiny_flowpipe(1.0)));
        let _ = cache.get_or_compute(1, 2, || Ok(tiny_flowpipe(2.0)));
        let _ = cache.get_or_compute(2, 1, || Ok(tiny_flowpipe(3.0)));
        cache.invalidate_controller(1);
        assert_eq!(cache.len(), 1);
        // Controller 2's entry survives and still hits.
        let before = cache.hits();
        let _ = cache.get_or_compute(2, 1, || unreachable!("must hit"));
        assert_eq!(cache.hits(), before + 1);
    }

    #[test]
    fn stats_track_evictions() {
        let cache = ReachCache::new();
        let _ = cache.get_or_compute(1, 1, || Ok(tiny_flowpipe(1.0)));
        let _ = cache.get_or_compute(1, 2, || Ok(tiny_flowpipe(2.0)));
        let _ = cache.get_or_compute(2, 1, || Ok(tiny_flowpipe(3.0)));
        cache.invalidate_controller(1);
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.entries, 1);
        assert_eq!(s.misses, 3);
        cache.clear();
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.stats().entries, 0);
        // hit_rate is total-based and survives eviction.
        let _ = cache.get_or_compute(3, 3, || Ok(tiny_flowpipe(4.0)));
        let _ = cache.get_or_compute(3, 3, || unreachable!("must hit"));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert!((s.hit_rate() - 0.2).abs() < 1e-12, "1 hit of 5 lookups");
    }

    #[test]
    fn param_hash_is_bit_exact() {
        assert_ne!(hash_params(&[0.0]), hash_params(&[-0.0]));
        assert_ne!(hash_params(&[1.0, 2.0]), hash_params(&[2.0, 1.0]));
        assert_eq!(hash_params(&[1.5, -2.5]), hash_params(&[1.5, -2.5]));
        assert_ne!(hash_params(&[]), hash_params(&[0.0]));
    }

    #[test]
    fn tenant_zero_is_the_legacy_hash() {
        for params in [&[][..], &[0.5867, -2.0][..], &[f64::NAN][..]] {
            assert_eq!(hash_params_tenant(0, params), hash_params(params));
        }
    }

    #[test]
    fn tenants_sharing_identical_weights_get_distinct_keys() {
        // The regression this guards: a single-tenant keyed cache would
        // serve tenant B a hit computed for tenant A whenever both submit
        // bit-identical weights. Tenant-qualified hashing must keep the
        // keys apart (and distinct nonzero tenants apart from each other).
        let weights = [0.5867, -2.0];
        let a = hash_params_tenant(1, &weights);
        let b = hash_params_tenant(2, &weights);
        let batch = hash_params(&weights);
        assert_ne!(a, b);
        assert_ne!(a, batch);
        assert_ne!(b, batch);
        // And the cache actually computes twice when the keys differ.
        let cache = ReachCache::new();
        let mut computed = 0usize;
        for key in [a, b] {
            let _ = cache.get_or_compute(key, 7, || {
                computed += 1;
                Ok(tiny_flowpipe(1.0))
            });
        }
        assert_eq!(computed, 2, "tenants must not share cache lines");
    }

    #[test]
    fn sharded_cache_isolates_tenants() {
        let family = ShardedReachCache::new();
        let weights = [1.25, -0.75];
        let a = family.shard(1);
        let b = family.shard(2);
        let key_a = hash_params_tenant(1, &weights);
        let key_b = hash_params_tenant(2, &weights);
        let _ = a.get_or_compute(key_a, 3, || Ok(tiny_flowpipe(1.0)));
        // Tenant B misses even though tenant A already verified these
        // exact weights: separate shard *and* separate key.
        let mut computed = false;
        let _ = b.get_or_compute(key_b, 3, || {
            computed = true;
            Ok(tiny_flowpipe(1.0))
        });
        assert!(computed, "tenant B must not see tenant A's entry");
        assert_eq!(family.tenants(), 2);
        assert_eq!(family.stats().misses, 2);
        assert_eq!(family.stats().entries, 2);
        // Same tenant handle is shared, not re-created.
        let a2 = family.shard(1);
        let _ = a2.get_or_compute(key_a, 3, || unreachable!("must hit"));
        assert_eq!(family.stats().hits, 1);
        family.drop_tenant(1);
        assert_eq!(family.tenants(), 1);
        assert_eq!(family.stats().entries, 1);
    }

    #[test]
    fn cell_hash_depends_on_bounds() {
        let a = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let b = IntervalBox::from_bounds(&[(0.0, 1.0), (0.0, 2.0)]);
        assert_ne!(hash_cell(&a), hash_cell(&b));
        assert_eq!(hash_cell(&a), hash_cell(&a.clone()));
    }
}
