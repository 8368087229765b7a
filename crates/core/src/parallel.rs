//! A small scoped worker pool for fanning out independent verifier calls.
//!
//! The design-while-verify loop spends nearly all of its time in
//! embarrassingly parallel batches of reachability computations: the
//! `2·dim` gradient probes of Algorithm 1, the per-cell sweeps of
//! Algorithm 2, and benchmark-table sweeps. This module provides the one
//! primitive they need — [`WorkerPool::map`], a deterministic parallel map
//! over a slice — built on `std::thread::scope` only (the build environment
//! has no access to external crates such as `rayon`).
//!
//! # Determinism
//!
//! Results are merged **by item index, not by completion order**: the
//! returned `Vec` is element-for-element identical to
//! `items.iter().map(f).collect()`. Workers claim contiguous chunks through
//! a shared atomic cursor (guided self-scheduling — see
//! [`WorkerPool::map`]), and chunks reduce in ascending start order, so
//! scheduling affects only *which thread* computes an item, never the
//! output: the map is bit-identical to serial at any thread count. Callers
//! must still ensure `f` itself is a pure function of its argument.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// A cooperative cancellation flag shared between a job's owner and the
/// workers running it.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// flag: the serving layer hands one token to a running job, keeps a clone,
/// and flips it on client cancel, deadline expiry, or forced drain. Workers
/// poll the flag at chunk-claim boundaries (see
/// [`WorkerPool::map_cancellable`]) — cancellation is a request to stop
/// *soon*, not a preemption.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never un-done.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on this token (or any clone
    /// of it).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A fixed-width scoped worker pool.
///
/// The pool is just a thread-count policy: each [`map`](WorkerPool::map)
/// call runs on the calling thread plus threads spawned for it inside a
/// `std::thread::scope`, so borrowed data can be shared with workers
/// without `'static` bounds, and no threads linger between calls.
///
/// # Example
///
/// ```
/// use dwv_core::parallel::WorkerPool;
///
/// let pool = WorkerPool::with_default_threads();
/// let squares = pool.map(&[1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
    force_parallel: bool,
}

/// Batches smaller than this never leave the calling thread: per-call
/// thread spawns cost tens of microseconds each, which dominates tiny
/// fan-outs regardless of per-item cost.
const MIN_PARALLEL_ITEMS: usize = 4;

/// The machine's available parallelism, probed once.
fn host_cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

impl WorkerPool {
    /// A pool running `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            force_parallel: false,
        }
    }

    /// Disables the degenerate-fan-out gate: `map` spawns workers whenever
    /// the pool has more than one thread and the batch more than one item,
    /// even on a single-CPU host or for tiny batches.
    ///
    /// For tests and diagnostics of the parallel machinery itself —
    /// production callers should let the gate keep fan-outs that cannot
    /// win (no spare CPUs, or spawn cost exceeding the work) on the
    /// calling thread.
    #[must_use]
    pub fn force_parallel(mut self) -> Self {
        self.force_parallel = true;
        self
    }

    /// Whether [`map`](WorkerPool::map) over a batch of `n` items would
    /// fan out to worker threads (`false`: the batch runs serially on the
    /// caller — same results either way, see the module docs).
    #[must_use]
    pub fn would_fan_out(&self, n: usize) -> bool {
        let workers = self.threads.min(n);
        workers > 1 && (self.force_parallel || (n >= MIN_PARALLEL_ITEMS && host_cpus() > 1))
    }

    /// A pool sized to the machine's available parallelism.
    #[must_use]
    pub fn with_default_threads() -> Self {
        Self::new(host_cpus())
    }

    /// The number of worker threads this pool uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in item
    /// order (see the module docs on determinism).
    ///
    /// Falls back to a plain serial map whenever fanning out cannot win:
    /// the pool has one thread, the batch has at most one item, the host
    /// has a single CPU, or the batch is smaller than the spawn-cost
    /// threshold (see [`WorkerPool::would_fan_out`]). The fallback changes
    /// timing only — results are identical either way.
    ///
    /// # Scheduling
    ///
    /// A batch of `n` items runs on `w = min(threads, n)` workers: the
    /// calling thread plus `w − 1` scoped threads spawned for the batch.
    /// Workers claim *chunks* through a shared atomic cursor using guided
    /// self-scheduling: each claim takes roughly `remaining / (2·w)`
    /// items (never fewer than one), so early chunks are large (amortizing
    /// the claim and keeping each worker on a contiguous cache-friendly run)
    /// and chunks shrink toward the tail (bounding finish-time imbalance to
    /// one small chunk). Chunk boundaries affect only which thread computes
    /// which items; results are written back under the chunk's start index
    /// and reduced in ascending start order — a fixed reduction order, so
    /// the output is element-for-element (bit-for-bit) what the serial map
    /// produces, at any thread count.
    ///
    /// When observability is on, each call records the pool width in the
    /// `pool.threads` gauge and the number of chunks claimed beyond each
    /// worker's first (work that migrated to whichever thread drained its
    /// share first) in the `pool.steal_count` counter.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`, raised on the calling thread or on a
    /// spawned worker; every spawned worker has finished when it does.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // A fresh token is never cancelled, so the batch always completes.
        self.run("pool.map", items, &f, &CancelToken::new())
            .unwrap_or_default()
    }

    /// [`map`](WorkerPool::map) with cooperative cancellation.
    ///
    /// Returns `Some(results)` — bit-identical to the plain `map`, hence to
    /// the serial map, at any thread count — if and only if every item
    /// completed before `token` was cancelled. Returns `None` as soon as a
    /// cancellation request is observed with work still outstanding; partial
    /// results are discarded, never exposed.
    ///
    /// Workers poll the token at chunk-claim boundaries (serial fallback:
    /// per item), so a cancel takes effect after at most one in-flight chunk
    /// finishes — cancellation latency is bounded by the largest guided
    /// chunk, roughly `n / (2·workers)` items. A token cancelled *after* the
    /// last item completes still yields `Some`: completion wins the race.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`, as [`map`](WorkerPool::map) does.
    pub fn map_cancellable<T, R, F>(&self, items: &[T], f: F, token: &CancelToken) -> Option<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run("pool.map_cancellable", items, &f, token)
    }

    /// The one worker loop behind [`map`](WorkerPool::map) and
    /// [`map_cancellable`](WorkerPool::map_cancellable), timed under
    /// `span`.
    fn run<T, R, F>(
        &self,
        span: &'static str,
        items: &[T],
        f: &F,
        token: &CancelToken,
    ) -> Option<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let _s = dwv_obs::span(span);
        let obs = dwv_obs::enabled();
        let n = items.len();
        if obs {
            dwv_obs::counter("pool.batches").inc();
            dwv_obs::counter("pool.items").add(n as u64);
            dwv_obs::gauge("pool.threads").set(self.threads as f64);
        }
        let cancelled = || {
            if obs {
                dwv_obs::counter("pool.cancelled").inc();
            }
            None
        };
        let timed = |item: &T| {
            let _per_item = dwv_obs::span("pool.item");
            f(item)
        };
        if !self.would_fan_out(n) {
            // The serial fallback keeps the per-item span contract: the
            // `pool.item` histogram sees every item exactly once on every
            // host, whether or not the batch fanned out.
            let mut out = Vec::with_capacity(n);
            for item in items {
                if token.is_cancelled() {
                    return cancelled();
                }
                out.push(timed(item));
            }
            return Some(out);
        }
        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        let claims = AtomicUsize::new(0);
        // One worker: claim guided chunks until the cursor runs out or the
        // token is cancelled (polled at the claim boundary).
        let work = || {
            let mut out: Vec<(usize, Vec<R>)> = Vec::new();
            while !token.is_cancelled() {
                let mut cur = next.load(Ordering::Relaxed);
                let (start, take) = loop {
                    if cur >= n {
                        return out;
                    }
                    let take = ((n - cur) / (2 * workers)).max(1);
                    match next.compare_exchange_weak(
                        cur,
                        cur + take,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break (cur, take),
                        Err(seen) => cur = seen,
                    }
                };
                claims.fetch_add(1, Ordering::Relaxed);
                let _chunk = dwv_obs::span("pool.chunk");
                let chunk = &items[start..start + take]; // dwv-lint: allow(panic-freedom#index) -- the CAS claim bounds start + take ≤ items.len()
                out.push((start, chunk.iter().map(timed).collect()));
            }
            out
        };
        // The calling thread is a worker too: a batch spawns `workers − 1`
        // threads. The scope joins them all before a panic leaves it.
        let mut chunks = thread::scope(|s| {
            let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut chunks = work();
            for h in handles {
                match h.join() {
                    Ok(part) => chunks.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            chunks
        });
        if obs {
            let extra = claims.load(Ordering::Relaxed).saturating_sub(workers);
            dwv_obs::counter("pool.steal_count").add(extra as u64);
        }
        if chunks.iter().map(|(_, part)| part.len()).sum::<usize>() < n {
            return cancelled();
        }
        // Fixed reduction order: ascending chunk start, independent of
        // completion order or thread assignment.
        chunks.sort_unstable_by_key(|(start, _)| *start);
        Some(chunks.into_iter().flat_map(|(_, part)| part).collect())
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::with_default_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        // force_parallel: the machinery must be exercised even on a
        // single-CPU test host, where the gate would go serial.
        let pool = WorkerPool::new(4).force_parallel();
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_under_uneven_load() {
        // Skewed per-item cost exercises out-of-order completion.
        let pool = WorkerPool::new(4).force_parallel();
        let items: Vec<u64> = (0..32).collect();
        let slow = |x: &u64| {
            if x.is_multiple_of(7) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        };
        assert_eq!(pool.map(&items, slow), WorkerPool::new(1).map(&items, slow));
    }

    #[test]
    fn single_thread_pool_is_serial() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(&[3, 1, 2], |x| x + 1), vec![4, 2, 3]);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map::<i32, i32, _>(&[], |x| *x), Vec::<i32>::new());
        assert_eq!(pool.map(&[5], |x| x * 10), vec![50]);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn borrows_local_data() {
        let data = vec![String::from("a"), String::from("bb")];
        let pool = WorkerPool::new(2).force_parallel();
        let lens = pool.map(&data, String::len);
        assert_eq!(lens, vec![1, 2]);
    }

    #[test]
    fn degenerate_fan_outs_stay_serial() {
        // Tiny batches never pay thread spawns…
        let pool = WorkerPool::new(8);
        assert!(!pool.would_fan_out(MIN_PARALLEL_ITEMS - 1));
        // …and a single-CPU host never fans out at all (on a multi-CPU
        // host the same batch does).
        if host_cpus() == 1 {
            assert!(!pool.would_fan_out(100));
        } else {
            assert!(pool.would_fan_out(100));
        }
        // Serial fallback still computes the right thing.
        assert_eq!(pool.map(&[1, 2, 3], |x| x * 3), vec![3, 6, 9]);
    }

    #[test]
    fn force_parallel_overrides_the_gate() {
        let pool = WorkerPool::new(4).force_parallel();
        assert!(pool.would_fan_out(2));
        assert!(!pool.would_fan_out(1), "one item can never fan out");
        assert!(!WorkerPool::new(1).force_parallel().would_fan_out(100));
    }

    #[test]
    fn float_results_bit_identical_across_thread_counts() {
        // The acceptance bar for the verifier sweeps: parallel maps over
        // floating-point work must be bit-for-bit the serial map at every
        // pool width.
        let items: Vec<f64> = (0..257).map(|i| f64::from(i) * 0.37 - 40.0).collect();
        let work = |x: &f64| {
            let mut acc = *x;
            for k in 1..50u32 {
                acc = acc.mul_add(1.000_1, f64::from(k).sin() * 1e-3);
            }
            acc
        };
        let serial: Vec<u64> = WorkerPool::new(1)
            .map(&items, work)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        for threads in [2usize, 3, 4, 8, 16] {
            let par: Vec<u64> = WorkerPool::new(threads)
                .force_parallel()
                .map(&items, work)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, serial, "{threads}-thread map diverged from serial");
        }
    }

    #[test]
    fn guided_chunks_cover_all_sizes() {
        // Odd batch sizes around chunking boundaries: every item exactly once,
        // in order.
        let pool = WorkerPool::new(3).force_parallel();
        for n in [2usize, 3, 5, 7, 12, 31, 64, 101] {
            let items: Vec<usize> = (0..n).collect();
            assert_eq!(pool.map(&items, |x| *x), items, "batch of {n}");
        }
    }

    #[test]
    fn map_cancellable_matches_map_when_uncancelled() {
        let token = CancelToken::new();
        let items: Vec<f64> = (0..97).map(|i| f64::from(i) * 0.31 - 15.0).collect();
        let work = |x: &f64| (x * 1.000_3).sin().mul_add(2.0, *x);
        let serial: Vec<u64> = WorkerPool::new(1)
            .map(&items, work)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let got = WorkerPool::new(threads)
                .force_parallel()
                .map_cancellable(&items, work, &token)
                .expect("uncancelled map must complete");
            let bits: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
            assert_eq!(bits, serial, "{threads}-thread cancellable map diverged");
        }
    }

    #[test]
    fn cancelled_before_start_yields_none() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let items: Vec<usize> = (0..64).collect();
        // Both the serial fallback and the fan-out path must refuse.
        assert!(WorkerPool::new(1)
            .map_cancellable(&items, |x| *x, &token)
            .is_none());
        assert!(WorkerPool::new(4)
            .force_parallel()
            .map_cancellable(&items, |x| *x, &token)
            .is_none());
    }

    #[test]
    fn cancel_mid_flight_discards_partial_results() {
        use std::sync::atomic::AtomicUsize;
        let token = CancelToken::new();
        let seen = AtomicUsize::new(0);
        let items: Vec<usize> = (0..512).collect();
        let tok = token.clone();
        let out = WorkerPool::new(4).force_parallel().map_cancellable(
            &items,
            |x| {
                // A clone of the token cancels the whole batch from inside.
                if seen.fetch_add(1, Ordering::Relaxed) == 8 {
                    tok.cancel();
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
                *x
            },
            &token,
        );
        assert!(out.is_none(), "cancelled batch must not expose results");
        assert!(
            seen.load(Ordering::Relaxed) < items.len(),
            "workers must stop claiming chunks after cancellation"
        );
    }

    #[test]
    fn cancel_after_completion_still_returns_some() {
        let token = CancelToken::new();
        let items: Vec<usize> = (0..16).collect();
        let out = WorkerPool::new(2)
            .force_parallel()
            .map_cancellable(&items, |x| x * 2, &token);
        token.cancel();
        assert_eq!(out, Some(items.iter().map(|x| x * 2).collect()));
    }

    type ThreadLog = (std::sync::Mutex<Vec<thread::ThreadId>>, std::sync::Condvar);

    /// Logs the current thread and blocks (up to 10 s) until two threads
    /// are logged, so a 2-worker batch must use both workers.
    fn rendezvous((log, arrived): &ThreadLog) {
        let me = thread::current().id();
        let mut ids = log.lock().expect("thread log");
        if !ids.contains(&me) {
            ids.push(me);
            arrived.notify_all();
        }
        let timeout = std::time::Duration::from_secs(10);
        drop(arrived.wait_timeout_while(ids, timeout, |ids| ids.len() < 2));
    }

    #[test]
    fn caller_is_one_of_the_workers() {
        let seen = ThreadLog::default();
        let items: Vec<usize> = (0..8).collect();
        let out = WorkerPool::new(2).force_parallel().map(&items, |x| {
            rendezvous(&seen);
            *x
        });
        assert_eq!(out, items);
        let ids = seen.0.into_inner().expect("thread log");
        assert_eq!(ids.len(), 2, "a 2-worker map runs on exactly 2 threads");
        assert!(ids.contains(&thread::current().id()), "one is the caller");
    }

    /// A 2-worker batch whose items panic on the caller (`on_caller`) or
    /// on the spawned worker must propagate the panic, with no item still
    /// running or starting after it.
    fn panic_in_batch(on_caller: bool) {
        let caller = thread::current().id();
        let seen = ThreadLog::default();
        let (in_flight, started) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            WorkerPool::new(2).force_parallel().map(&items, |x| {
                started.fetch_add(1, Ordering::SeqCst);
                in_flight.fetch_add(1, Ordering::SeqCst);
                rendezvous(&seen);
                thread::sleep(std::time::Duration::from_millis(1));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                assert!((thread::current().id() == caller) != on_caller, "boom");
                *x
            })
        }));
        let payload = result.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(in_flight.load(Ordering::SeqCst), 0, "an item still runs");
        let before = started.load(Ordering::SeqCst);
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            started.load(Ordering::SeqCst),
            before,
            "a worker outlived the panic"
        );
    }

    #[test]
    fn panic_on_calling_thread_propagates() {
        panic_in_batch(true);
    }

    #[test]
    fn panic_on_spawned_worker_propagates() {
        panic_in_batch(false);
    }
}
