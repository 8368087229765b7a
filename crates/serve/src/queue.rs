//! Bounded FIFO admission queue.
//!
//! The backpressure contract of the server lives here: the queue holds at
//! most `capacity` jobs, [`AdmissionQueue::try_push`] fails *immediately*
//! when full (the connection layer turns that into a
//! `Rejected{Overloaded, retry_after}` frame), and nothing in the server
//! ever buffers submissions anywhere else. Memory for pending work is
//! bounded by construction, not by hope.
//!
//! [`AdmissionQueue::pop`] hands the oldest job to the next free worker.
//! Every worker shares each tenant's cache shard, so which worker runs a
//! job does not change what it finds warm.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Identifies one job: `(tenant, job_id)`.
pub type JobKey = (u64, u64);

/// The queue is at capacity; the submission must be rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

#[derive(Debug, Default)]
struct Inner {
    entries: VecDeque<JobKey>,
}

/// A bounded FIFO of admitted-but-unstarted jobs.
#[derive(Debug)]
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` jobs (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues a job, returning the new depth — or [`QueueFull`] without
    /// blocking, without buffering.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue already holds `capacity` jobs.
    pub fn try_push(&self, key: JobKey) -> Result<usize, QueueFull> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.entries.len() >= self.capacity {
            return Err(QueueFull);
        }
        inner.entries.push_back(key);
        let depth = inner.entries.len();
        drop(inner);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Dequeues the oldest job. Blocks up to `timeout` for the queue to
    /// become non-empty; returns `None` on timeout (callers re-check
    /// shutdown flags and loop).
    #[must_use]
    pub fn pop(&self, timeout: Duration) -> Option<JobKey> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.entries.is_empty() {
            let (guard, _timed_out) = self
                .cv
                .wait_timeout(inner, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
        }
        inner.entries.pop_front()
    }

    /// Removes a specific pending job (used by cancel and deadline expiry).
    /// Returns whether it was still queued.
    pub fn remove(&self, key: JobKey) -> bool {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = inner.entries.len();
        inner.entries.retain(|k| *k != key);
        before != inner.entries.len()
    }

    /// Jobs currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wakes every blocked [`AdmissionQueue::pop`] (shutdown path).
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(1);

    #[test]
    fn rejects_when_full_instead_of_buffering() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push((1, 1)), Ok(1));
        assert_eq!(q.try_push((1, 2)), Ok(2));
        assert_eq!(q.try_push((1, 3)), Err(QueueFull));
        assert_eq!(q.len(), 2, "a rejected push must not grow the queue");
    }

    #[test]
    fn pops_in_fifo_order() {
        let q = AdmissionQueue::new(16);
        // Tenant 1 work interleaved with tenant 2 work comes out as it went in.
        for key in [(1, 10), (2, 20), (1, 11), (1, 12)] {
            let _ = q.try_push(key);
        }
        for key in [(1, 10), (2, 20), (1, 11), (1, 12)] {
            assert_eq!(q.pop(T), Some(key));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn remove_unqueues_pending_jobs() {
        let q = AdmissionQueue::new(4);
        let _ = q.try_push((1, 1));
        assert!(q.remove((1, 1)));
        assert!(!q.remove((1, 1)), "second remove finds nothing");
        assert_eq!(q.pop(T), None);
    }

    #[test]
    fn pop_times_out_empty() {
        let q = AdmissionQueue::new(4);
        assert_eq!(q.pop(Duration::from_millis(5)), None);
    }
}
