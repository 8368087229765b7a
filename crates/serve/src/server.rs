//! The job server: accept loop, connection handlers, worker threads,
//! deadline timer, and graceful drain.
//!
//! # Threading model
//!
//! One nonblocking accept loop, one handler thread per connection, a
//! thread-per-core worker pack draining the [`AdmissionQueue`], and a 20 ms
//! deadline timer. Workers run whole jobs; each job's *internal* fan-out
//! (gradient probes, cell sweeps) runs on a [`WorkerPool`], so results are
//! bit-identical to batch runs at any width.
//!
//! # Drain semantics
//!
//! `Drain` (frame or [`Server::drain`]) flips the draining flag: new
//! submissions are rejected with `Rejected{Draining}`, queued and running
//! jobs finish normally. After `force_after`, still-unfinished jobs are
//! cancelled through their [`CancelToken`]s (forced drain). [`Server::shutdown`]
//! then stops the accept loop, wakes every waiter, and joins all threads.

use crate::job::{self, JobError};
use crate::proto::{
    error_code, Frame, FrameBuffer, JobEvent, JobSpec, JobState, RejectCode, VERSION,
};
use crate::queue::{AdmissionQueue, JobKey};
use dwv_core::parallel::CancelToken;
use dwv_core::WorkerPool;
use dwv_reach::ShardedReachCache;
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads draining the job queue (thread-per-core default).
    /// `0` runs the server admission-only — jobs queue but never execute —
    /// which tests use to exercise backpressure deterministically.
    pub workers: usize,
    /// Admission-queue capacity — the backpressure bound.
    pub queue_capacity: usize,
    /// Retry hint attached to `Overloaded`/`Draining` rejections.
    pub retry_after_ms: u32,
    /// Width of each job's internal [`WorkerPool`].
    pub pool_threads: usize,
    /// Connection read poll interval (shutdown responsiveness).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get),
            queue_capacity: 64,
            retry_after_ms: 25,
            pool_threads: std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get),
            read_timeout: Duration::from_millis(50),
        }
    }
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    events: Vec<JobEvent>,
    cancel: CancelToken,
    deadline: Option<Instant>,
}

#[derive(Debug, Default)]
struct JobTable {
    entries: HashMap<JobKey, JobEntry>,
}

impl JobTable {
    /// `(queued, running)` job counts. A job a worker has popped from the
    /// queue but not yet started is still `Queued` here, so these counts,
    /// not the queue's length, say whether admitted work is outstanding.
    fn counts(&self) -> (usize, usize) {
        self.entries
            .values()
            .fold((0, 0), |(queued, running), e| match e.state {
                JobState::Queued => (queued + 1, running),
                JobState::Running => (queued, running + 1),
                _ => (queued, running),
            })
    }
}

struct Shared {
    cfg: ServeConfig,
    jobs: Mutex<JobTable>,
    jobs_cv: Condvar,
    queue: AdmissionQueue,
    caches: ShardedReachCache,
    draining: AtomicBool,
    shutdown: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn job_counts(&self) -> (usize, usize) {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .counts()
    }

    fn obs_queue_depth(&self) {
        if dwv_obs::enabled() {
            dwv_obs::gauge("serve.queue_depth").set(self.queue.len() as f64);
        }
    }

    fn reject(&self, reason: &'static str) {
        if dwv_obs::enabled() {
            dwv_obs::counter("serve.rejections").inc();
            dwv_obs::counter(match reason {
                "overloaded" => "serve.rejections.overloaded",
                "draining" => "serve.rejections.draining",
                "duplicate" => "serve.rejections.duplicate",
                _ => "serve.rejections.bad_spec",
            })
            .inc();
        }
    }
}

/// A running server. Dropping it does *not* stop it — call
/// [`Server::shutdown`] (tests) or let the binary's drain loop own it.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr)
            .field("draining", &self.is_draining())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers = cfg.workers;
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            cfg,
            jobs: Mutex::new(JobTable::default()),
            jobs_cv: Condvar::new(),
            caches: ShardedReachCache::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::new();
        {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&s, &listener)));
        }
        for _ in 0..workers {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&s)));
        }
        {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || deadline_loop(&s)));
        }
        Ok(Self {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether a drain has been initiated (by frame or call).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Jobs currently queued.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Jobs currently executing.
    #[must_use]
    pub fn running(&self) -> usize {
        self.shared.job_counts().1
    }

    /// Initiates a drain and waits for in-flight work to finish.
    ///
    /// Rejects new submissions immediately; waits up to `force_after` for
    /// every admitted job to finish, then *cancels* everything still
    /// unfinished and waits (briefly) for the workers to observe the tokens.
    /// Returns the number of jobs that had to be force-cancelled.
    pub fn drain(&self, force_after: Duration) -> usize {
        let _span = dwv_obs::span("serve.drain");
        if dwv_obs::enabled() {
            dwv_obs::counter("serve.drain").inc();
        }
        self.shared.draining.store(true, Ordering::Release);
        self.shared.queue.notify_all();
        let deadline = Instant::now() + force_after;
        while Instant::now() < deadline {
            if self.shared.job_counts() == (0, 0) {
                return 0;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Forced drain: cancel whatever is left.
        let mut forced = 0usize;
        {
            let mut jobs = self
                .shared
                .jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (key, entry) in &mut jobs.entries {
                match entry.state {
                    JobState::Queued => {
                        self.shared.queue.remove(*key);
                        entry.cancel.cancel();
                        entry.state = JobState::Cancelled;
                        entry.events.push(JobEvent::Cancelled);
                        forced += 1;
                    }
                    JobState::Running => {
                        entry.cancel.cancel();
                        forced += 1;
                    }
                    _ => {}
                }
            }
        }
        self.shared.jobs_cv.notify_all();
        // Give running jobs a moment to observe their tokens.
        let grace = Instant::now() + Duration::from_secs(10);
        while self.running() > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(5));
        }
        forced
    }

    /// Stops everything and joins all threads. Call after [`Server::drain`]
    /// for a graceful exit; calling it cold is an abrupt (but clean) stop
    /// for tests.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.draining.store(true, Ordering::Release);
        self.shared.queue.notify_all();
        self.shared.jobs_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let conns = {
            let mut guard = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for c in conns {
            let _ = c.join();
        }
    }

    /// Blocks until a peer initiates a drain (the binary's main loop),
    /// then performs the graceful-then-forced drain and returns the forced
    /// count. The caller should then call [`Server::shutdown`].
    pub fn wait_for_drain(&self, force_after: Duration) -> usize {
        while !self.is_draining() && !self.shared.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.drain(force_after)
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if dwv_obs::enabled() {
                    dwv_obs::counter("serve.accept").inc();
                }
                let s = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    let _ = handle_connection(&s, stream);
                });
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(handle);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let pool = WorkerPool::new(shared.cfg.pool_threads);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(key) = shared.queue.pop(Duration::from_millis(50)) else {
            continue;
        };
        shared.obs_queue_depth();
        run_one(shared, &pool, key);
    }
}

fn run_one(shared: &Arc<Shared>, pool: &WorkerPool, key: JobKey) {
    let (spec, cancel) = {
        let mut jobs = shared
            .jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(entry) = jobs.entries.get_mut(&key) else {
            return;
        };
        if entry.state != JobState::Queued {
            return; // cancelled (or expired) while waiting
        }
        entry.state = JobState::Running;
        (entry.spec.clone(), entry.cancel.clone())
    };
    let (tenant, _) = key;
    let cache = shared.caches.shard(tenant);
    let result = job::run_job(&spec, tenant, pool, &cache, &cancel);
    let mut jobs = shared
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(entry) = jobs.entries.get_mut(&key) {
        match result {
            Ok(output) => {
                entry.events.push(JobEvent::Verdict(output.verdict));
                for seg in output.segments {
                    entry.events.push(JobEvent::Segment {
                        index: seg.index,
                        t0: seg.t0,
                        t1: seg.t1,
                        bounds: seg.bounds,
                    });
                }
                if let Some(csv) = output.report_csv {
                    entry.events.push(JobEvent::Report(csv));
                }
                entry.events.push(JobEvent::Done);
                entry.state = JobState::Done;
            }
            Err(JobError::Cancelled) => {
                entry.events.push(JobEvent::Cancelled);
                entry.state = JobState::Cancelled;
            }
            Err(e @ JobError::Invalid(_)) => {
                entry.events.push(JobEvent::Failed(e.to_string()));
                entry.state = JobState::Failed;
            }
        }
    }
    drop(jobs);
    shared.jobs_cv.notify_all();
}

fn deadline_loop(shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
        let now = Instant::now();
        let mut expired_queued: Vec<JobKey> = Vec::new();
        {
            let mut jobs = shared
                .jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (key, entry) in &mut jobs.entries {
                let Some(deadline) = entry.deadline else {
                    continue;
                };
                if now < deadline {
                    continue;
                }
                match entry.state {
                    JobState::Queued => {
                        entry.cancel.cancel();
                        entry.state = JobState::Cancelled;
                        entry.events.push(JobEvent::Cancelled);
                        expired_queued.push(*key);
                    }
                    JobState::Running => entry.cancel.cancel(),
                    _ => {}
                }
            }
        }
        for key in &expired_queued {
            shared.queue.remove(*key);
        }
        if !expired_queued.is_empty() {
            shared.obs_queue_depth();
            shared.jobs_cv.notify_all();
        }
    }
}

fn write_frame(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    crate::proto::write_frame(stream, frame)
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) -> std::io::Result<()> {
    let _span = dwv_obs::span("serve.conn");
    stream.set_read_timeout(Some(shared.cfg.read_timeout))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true).ok();
    let mut buf = FrameBuffer::new();
    let mut scratch = [0u8; 4096];
    // Handshake: the first frame must be a well-formed Hello at our version.
    let hello = loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        match stream.read(&mut scratch) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                buf.feed(scratch.get(..n).unwrap_or_default());
                match buf.next_frame() {
                    Ok(Some(frame)) => break frame,
                    Ok(None) => {}
                    Err(e) => {
                        let _ = write_frame(
                            &mut stream,
                            &Frame::Error {
                                code: error_code::BAD_HANDSHAKE,
                                message: e.to_string(),
                            },
                        );
                        return Ok(());
                    }
                }
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    };
    match hello {
        Frame::Hello { version } if version == VERSION => {
            write_frame(&mut stream, &Frame::HelloAck { version: VERSION })?;
        }
        Frame::Hello { version } => {
            // Exact bytes pinned by tests/protocol.rs fixtures.
            let _ = write_frame(
                &mut stream,
                &Frame::Error {
                    code: error_code::VERSION_MISMATCH,
                    message: format!("unsupported protocol version {version}; server speaks 1"),
                },
            );
            return Ok(());
        }
        _ => {
            let _ = write_frame(
                &mut stream,
                &Frame::Error {
                    code: error_code::BAD_HANDSHAKE,
                    message: "expected Hello".to_string(),
                },
            );
            return Ok(());
        }
    }
    // Session loop.
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        match stream.read(&mut scratch) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                buf.feed(scratch.get(..n).unwrap_or_default());
                loop {
                    match buf.next_frame() {
                        Ok(Some(frame)) => dispatch(shared, &mut stream, frame)?,
                        Ok(None) => break,
                        Err(e) => {
                            let _ = write_frame(
                                &mut stream,
                                &Frame::Error {
                                    code: error_code::BAD_FRAME,
                                    message: e.to_string(),
                                },
                            );
                            return Ok(());
                        }
                    }
                }
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return Ok(()),
        }
    }
}

fn dispatch(shared: &Arc<Shared>, stream: &mut TcpStream, frame: Frame) -> std::io::Result<()> {
    match frame {
        Frame::Submit {
            tenant,
            job_id,
            deadline_ms,
            spec,
        } => {
            let reply = admit(shared, tenant, job_id, deadline_ms, spec);
            write_frame(stream, &reply)
        }
        Frame::Poll { tenant, job_id } => {
            let state = job_state(shared, (tenant, job_id));
            write_frame(stream, &Frame::Status { job_id, state })
        }
        Frame::Cancel { tenant, job_id } => {
            let state = cancel_job(shared, (tenant, job_id));
            write_frame(stream, &Frame::Status { job_id, state })
        }
        Frame::Stream { tenant, job_id } => stream_job(shared, stream, (tenant, job_id)),
        Frame::Drain => {
            shared.draining.store(true, Ordering::Release);
            if dwv_obs::enabled() {
                dwv_obs::counter("serve.drain").inc();
            }
            shared.queue.notify_all();
            let (queued, running) = shared.job_counts();
            let ack = Frame::DrainAck {
                queued: u32::try_from(queued).unwrap_or(u32::MAX),
                running: u32::try_from(running).unwrap_or(u32::MAX),
            };
            write_frame(stream, &ack)
        }
        _ => write_frame(
            stream,
            &Frame::Error {
                code: error_code::BAD_FRAME,
                message: "unexpected frame direction".to_string(),
            },
        ),
    }
}

fn admit(shared: &Arc<Shared>, tenant: u64, job_id: u64, deadline_ms: u32, spec: JobSpec) -> Frame {
    let retry = shared.cfg.retry_after_ms;
    if shared.draining.load(Ordering::Acquire) || shared.shutdown.load(Ordering::Acquire) {
        shared.reject("draining");
        return Frame::Rejected {
            job_id,
            code: RejectCode::Draining,
            retry_after_ms: retry,
        };
    }
    if let Err(e) = job::validate(&spec) {
        shared.reject("bad_spec");
        let _ = e;
        return Frame::Rejected {
            job_id,
            code: RejectCode::BadSpec,
            retry_after_ms: 0,
        };
    }
    let key: JobKey = (tenant, job_id);
    {
        let mut jobs = shared
            .jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if jobs.entries.contains_key(&key) {
            drop(jobs);
            shared.reject("duplicate");
            return Frame::Rejected {
                job_id,
                code: RejectCode::DuplicateJob,
                retry_after_ms: 0,
            };
        }
        // Reserve the key *before* queueing so a racing duplicate submit
        // on another connection cannot double-enqueue.
        jobs.entries.insert(
            key,
            JobEntry {
                spec,
                state: JobState::Queued,
                events: Vec::new(),
                cancel: CancelToken::new(),
                deadline: (deadline_ms > 0)
                    .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms))),
            },
        );
    }
    match shared.queue.try_push(key) {
        Ok(_depth) => {
            shared.obs_queue_depth();
            if dwv_obs::enabled() {
                dwv_obs::counter("serve.submitted").inc();
            }
            Frame::Accepted { job_id }
        }
        Err(_) => {
            // Roll the reservation back: the job was never admitted.
            shared
                .jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .entries
                .remove(&key);
            shared.reject("overloaded");
            Frame::Rejected {
                job_id,
                code: RejectCode::Overloaded,
                retry_after_ms: retry,
            }
        }
    }
}

fn job_state(shared: &Arc<Shared>, key: JobKey) -> JobState {
    shared
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .entries
        .get(&key)
        .map_or(JobState::Unknown, |e| e.state)
}

fn cancel_job(shared: &Arc<Shared>, key: JobKey) -> JobState {
    // Queue first, then jobs — never nested — so there is no lock-order
    // cycle with the worker's pop-then-mark sequence.
    let was_queued = shared.queue.remove(key);
    let mut jobs = shared
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(entry) = jobs.entries.get_mut(&key) else {
        return JobState::Unknown;
    };
    entry.cancel.cancel();
    if entry.state == JobState::Queued && was_queued {
        entry.state = JobState::Cancelled;
        entry.events.push(JobEvent::Cancelled);
    }
    let state = entry.state;
    drop(jobs);
    shared.obs_queue_depth();
    shared.jobs_cv.notify_all();
    state
}

fn stream_job(shared: &Arc<Shared>, stream: &mut TcpStream, key: JobKey) -> std::io::Result<()> {
    let (_, job_id) = key;
    {
        let jobs = shared
            .jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !jobs.entries.contains_key(&key) {
            drop(jobs);
            return write_frame(
                stream,
                &Frame::Status {
                    job_id,
                    state: JobState::Unknown,
                },
            );
        }
    }
    let mut cursor = 0usize;
    loop {
        let (pending, done): (Vec<JobEvent>, bool) = {
            let jobs = shared
                .jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let Some(entry) = jobs.entries.get(&key) else {
                return Ok(());
            };
            let pending: Vec<JobEvent> = entry.events.get(cursor..).unwrap_or_default().to_vec();
            let done = entry.events.last().is_some_and(JobEvent::is_terminal);
            if pending.is_empty() && !done {
                // Wait for the workers to append, bounded so shutdown is
                // always observed.
                let _ = shared
                    .jobs_cv
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if shared.shutdown.load(Ordering::Acquire) {
                    return Ok(());
                }
                continue;
            }
            (pending, done)
        };
        cursor += pending.len();
        for event in pending {
            write_frame(stream, &Frame::Event { job_id, event })?;
        }
        if done {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{JobKind, ProblemId};

    fn queued_entry() -> JobEntry {
        JobEntry {
            spec: JobSpec {
                problem: ProblemId::Acc,
                kind: JobKind::VerifyLinear {
                    gains: vec![0.5867, -2.0],
                    grid: 1,
                    samples: 1,
                },
            },
            state: JobState::Queued,
            events: Vec::new(),
            cancel: CancelToken::new(),
            deadline: None,
        }
    }

    #[test]
    fn popped_but_unstarted_job_is_not_idle() {
        // A job a worker has popped but not yet started: `Queued` in the
        // table, absent from the queue, not running.
        let server = Server::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        server
            .shared
            .jobs
            .lock()
            .expect("job table")
            .entries
            .insert((1, 1), queued_entry());
        assert!(server.shared.queue.is_empty());
        assert_eq!(server.running(), 0);
        assert_eq!(server.shared.job_counts(), (1, 0));
        // Drain must not report a graceful finish: the job is force-cancelled.
        assert_eq!(server.drain(Duration::from_millis(20)), 1);
        server.shutdown();
    }
}
