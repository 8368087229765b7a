//! The `serve-mix` workload: design-while-verify sessions replayed by two
//! clients, one connection each, against a loopback `dwv-serve` server in
//! this process.
//!
//! A session is one recorded ACC learning run ([`jobs::session`]): a
//! `VerifyLinear` job per verifier query, then an `AssessLinear` of the
//! learned controller. Each client takes the next session and submits its
//! jobs in order, each only after the previous one reached its terminal
//! event, so a slower server receives less load. Every session runs as a
//! tenant of its own. A pass replays the seed's recorded sessions once, and
//! a run serves whole passes only, so every run of a seed serves the same
//! mix of jobs. A job's latency runs from Submit to the terminal event.
//!
//! [`jobs::session`]: crate::jobs::session

use crate::jobs::{session, Scale, Session};
use crate::report::{rss_peak_mib, Layers, RunOutput, Turns};
use crate::stats;
use crate::trace;
use crate::Options;
use dwv_core::parallel::CancelToken;
use dwv_core::WorkerPool;
use dwv_reach::ReachCache;
use dwv_serve::{run_job, Client, Frame, JobOutput, JobSpec, ServeConfig, Server};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Client connections, each driven by its own thread.
const CLIENTS: usize = 2;

/// The tenant of the warm-up jobs; session `i` runs as tenant `i + 1`.
const WARMUP_TENANT: u64 = 0;

/// Every this many jobs of a session, and its final assessment, the served
/// output is re-computed in-process.
const PARITY_EVERY: usize = 10;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;

/// No run continues past this.
const HARD_STOP: Duration = Duration::from_secs(150);

/// Per-scale sizes of a serve-mix run.
struct Sizes {
    /// Sessions recorded per pass.
    sessions: usize,
    /// Iteration budget of the recorded learning runs.
    budget: Option<usize>,
    /// Jobs every run serves at least per kind (see [`Kind`]), whatever
    /// `--seconds` says; they fix each kind's tail level. 1000 puts the
    /// tail of the queries at p99 with ten samples beyond it.
    min_jobs: [usize; 3],
    /// The peak RSS is read when this many jobs of the first pass
    /// completed. The server keeps every job and the tenant cache every
    /// computed flowpipe, so memory grows with jobs served: reading it after
    /// a fixed amount of work keeps a faster server from looking hungrier.
    rss_at_jobs: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            sessions: 12,
            budget: None,
            min_jobs: [1000, 1000, 24],
            rss_at_jobs: 1000,
        },
        Scale::Smoke => Sizes {
            sessions: 2,
            budget: Some(10),
            min_jobs: [20, 20, 2],
            rss_at_jobs: 50,
        },
    }
}

/// The kinds of served job, each a group of its own in the statistics:
/// their latencies differ by an order of magnitude and their shares vary
/// between seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A query that repeats an earlier one of its session: the tenant
    /// cache answers it.
    RepeatQuery,
    /// A query the server computes.
    NewQuery,
    /// The assessment ending a session.
    Assess,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::RepeatQuery, Kind::NewQuery, Kind::Assess];

    fn label(self) -> &'static str {
        match self {
            Kind::RepeatQuery => "VerifyLinear (repeat)",
            Kind::NewQuery => "VerifyLinear (new)",
            Kind::Assess => "AssessLinear",
        }
    }
}

/// A server with its connected clients.
struct Rig {
    server: Server,
    clients: Vec<Client>,
}

impl Rig {
    /// Closes the connections, drains and joins every server thread.
    fn stop(self) {
        drop(self.clients);
        self.server.drain(Duration::from_secs(5));
        self.server.shutdown();
    }
}

/// Starts a server with default settings, connects the clients and runs
/// one job of each kind: the first query and the assessment of `warmup`.
/// Returns the rig and the seconds it took.
fn setup(warmup: &Session) -> std::io::Result<(Rig, f64)> {
    let start = Instant::now();
    let server = Server::start(ServeConfig::default())?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut rig = Rig { server, clients };
    let specs = [warmup.jobs.first(), warmup.jobs.last()];
    for (id, spec) in (1u64..).zip(specs.into_iter().flatten()) {
        let client = &mut rig.clients[id as usize % CLIENTS];
        client.submit(WARMUP_TENANT, id, 0, spec.clone())?;
        client.stream_result(WARMUP_TENANT, id)?;
    }
    Ok((rig, start.elapsed().as_secs_f64()))
}

/// One served job.
struct Sample {
    /// Global session index (pass × sessions + recording).
    session: usize,
    /// Position of the job in its session.
    position: usize,
    /// Submit to terminal event.
    latency_ms: f64,
    /// Submit to Accepted.
    submit_ms: f64,
    /// Why the job failed, if it did.
    error: Option<String>,
    /// Whether an assessment certified its controller.
    certified: Option<bool>,
    /// The output of a job picked for the parity check.
    output: Option<JobOutput>,
}

/// The recorded sessions of one seed; session `i` of a run replays
/// recording `i % len`.
struct Recordings(Vec<Session>);

impl Recordings {
    fn session(&self, session: usize) -> &Session {
        &self.0[session % self.0.len()]
    }

    fn spec(&self, session: usize, position: usize) -> &JobSpec {
        &self.session(session).jobs[position]
    }

    fn kind(&self, session: usize, position: usize) -> Kind {
        let s = self.session(session);
        if position + 1 == s.jobs.len() {
            Kind::Assess
        } else if s.repeated[position] {
            Kind::RepeatQuery
        } else {
            Kind::NewQuery
        }
    }

    /// Jobs of `kind` in one pass.
    fn per_pass(&self, kind: Kind) -> usize {
        (0..self.0.len())
            .map(|i| {
                (0..self.0[i].jobs.len())
                    .filter(|&p| self.kind(i, p) == kind)
                    .count()
            })
            .sum()
    }
}

/// Reads whether a report CSV is certified; `Err` when it is but a
/// simulated rollout from `X₀` hit the unsafe set (a certificate promises
/// safety from all of `X₀`; goal reaching only from `X_I`).
fn certified_and_safe(csv: &[u8]) -> Result<bool, String> {
    let text = String::from_utf8_lossy(csv);
    let value = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::to_string)
    };
    let certified = value("report,certified,").as_deref() == Some("true");
    if certified && value("rates,safe_rate,").as_deref() != Some("1.0") {
        return Err("certified report with unsafe simulated rollouts".to_string());
    }
    Ok(certified)
}

/// Whether a job's output is re-computed in-process.
fn parity_checked(rec: &Recordings, session: usize, position: usize) -> bool {
    position.is_multiple_of(PARITY_EVERY) || rec.kind(session, position) == Kind::Assess
}

/// Runs one job on `client`, recording spans when `traced`.
fn serve_one(
    client: &mut Client,
    rec: &Recordings,
    session: usize,
    position: usize,
    traced: bool,
) -> Sample {
    let spec = rec.spec(session, position).clone();
    let tenant = session as u64 + 1;
    let id = position as u64 + 1;
    let mut sample = Sample {
        session,
        position,
        latency_ms: 0.0,
        submit_ms: 0.0,
        error: None,
        certified: None,
        output: None,
    };
    let wrap = |name: &'static str, f: &mut dyn FnMut()| {
        if traced {
            trace::span(name, |_| true, f);
        } else {
            f();
        }
    };
    let t0 = Instant::now();
    let mut result = None;
    wrap("job", &mut || {
        let mut reply = None;
        wrap("submit", &mut || {
            reply = Some(client.submit(tenant, id, 0, spec.clone()))
        });
        sample.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        match reply {
            Some(Ok(Frame::Accepted { .. })) => {
                wrap("result", &mut || {
                    result = Some(client.stream_result(tenant, id))
                });
            }
            Some(Ok(Frame::Rejected { code, .. })) => {
                sample.error = Some(format!("rejected: {code:?}"));
            }
            other => sample.error = Some(format!("submit failed: {other:?}")),
        }
    });
    sample.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    match result {
        Some(Ok(output)) => {
            if let Some(csv) = &output.report_csv {
                match certified_and_safe(csv) {
                    Ok(c) => sample.certified = Some(c),
                    Err(e) => sample.error = Some(e),
                }
            }
            if parity_checked(rec, session, position) {
                sample.output = Some(output);
            }
        }
        Some(Err(e)) => sample.error = Some(format!("stream failed: {e}")),
        None => {}
    }
    sample
}

/// What serving a range of sessions produced.
struct Served {
    /// Samples in (session, position) order.
    samples: Vec<Sample>,
    /// Spans of a traced range.
    spans: Vec<trace::Span>,
    /// Wall time.
    wall_s: f64,
    /// Peak RSS when the `rss_at`-th job completed, if it did.
    rss_mib: Option<f64>,
}

/// Serves `sessions` on `rig`, each client taking the next session when it
/// has finished its last; reads the peak RSS when the `rss_at`-th job
/// completes.
fn drive(
    rig: &mut Rig,
    rec: &Recordings,
    sessions: Range<usize>,
    traced: bool,
    rss_at: usize,
) -> Served {
    let next = Mutex::new(sessions.start);
    let take = || {
        let mut next = next.lock().expect("session counter poisoned");
        let session = (*next < sessions.end).then_some(*next);
        *next += 1;
        session
    };
    let completed = AtomicUsize::new(0);
    let rss_mib = OnceLock::new();
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<trace::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .map(|client| {
                let (take, completed, rss_mib) = (&take, &completed, &rss_mib);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    while let Some(session) = take() {
                        for position in 0..rec.session(session).jobs.len() {
                            if traced {
                                trace::set_job(session);
                            }
                            samples.push(serve_one(client, rec, session, position, traced));
                            if completed.fetch_add(1, Ordering::SeqCst) + 1 == rss_at {
                                let _ = rss_mib.set(rss_peak_mib());
                            }
                        }
                    }
                    (samples, trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in per_client {
        samples.extend(s);
        trace::append(&mut spans, sp);
    }
    samples.sort_by_key(|s| (s.session, s.position));
    Served {
        samples,
        spans,
        wall_s,
        rss_mib: rss_mib.get().copied(),
    }
}

/// A canonical byte encoding of a job output (floats by bit pattern).
fn output_bytes(o: &JobOutput) -> Vec<u8> {
    let mut b = o.verdict.as_bytes().to_vec();
    b.push(0);
    for s in &o.segments {
        b.extend(s.index.to_le_bytes());
        for v in [s.t0, s.t1].iter().chain(&s.bounds) {
            b.extend(v.to_bits().to_le_bytes());
        }
    }
    b.push(0);
    b.extend(o.report_csv.as_deref().unwrap_or_default());
    b
}

/// Checks every sample, and every picked served output against a fresh
/// in-process `run_job` of the same spec, for the same tenant on a cold
/// cache at the server's pool width. Returns `(served, in-process)`
/// milliseconds of the re-run queries that are not repeats, for which the
/// server did the same work.
fn check(out: &mut RunOutput, rec: &Recordings, samples: &[Sample]) -> Vec<(f64, f64)> {
    let pool = WorkerPool::new(ServeConfig::default().pool_threads);
    let mut timings = Vec::new();
    for s in samples {
        out.check(s.error.is_none(), || {
            format!(
                "session {} job {}: {}",
                s.session,
                s.position,
                s.error.as_deref().unwrap_or("")
            )
        });
        let Some(served) = &s.output else { continue };
        let spec = rec.spec(s.session, s.position);
        let t = Instant::now();
        let fresh = run_job(
            spec,
            s.session as u64 + 1,
            &pool,
            &ReachCache::new(),
            &CancelToken::new(),
        );
        // A repeated query is a cache hit on the server but not here.
        if rec.kind(s.session, s.position) == Kind::NewQuery {
            timings.push((s.latency_ms, t.elapsed().as_secs_f64() * 1e3));
        }
        out.check(
            fresh.is_ok_and(|f| output_bytes(&f) == output_bytes(served)),
            || {
                format!(
                    "session {} job {}: served output differs from in-process run_job",
                    s.session, s.position
                )
            },
        );
    }
    timings
}

/// Records the seed's sessions; returns them with the passes every run
/// serves at least, so each kind of job reaches its minimum count.
fn record(opts: &Options, sz: &Sizes) -> (Recordings, usize) {
    let rec = Recordings(
        (0..sz.sessions)
            .map(|k| session(opts.seed, k, sz.budget))
            .collect(),
    );
    let passes = Kind::ALL
        .iter()
        .zip(sz.min_jobs)
        .filter_map(|(&kind, min)| {
            let n = rec.per_pass(kind);
            (n > 0).then(|| min.div_ceil(n))
        })
        .max()
        .unwrap_or(1)
        .max(1);
    (rec, passes)
}

/// Runs the serve-mix workload. Every pass runs on a server of its own, so
/// memory stays bounded by one pass, and the run ends on a pass boundary.
pub fn run(opts: &Options) -> std::io::Result<RunOutput> {
    let sz = sizes(opts.scale);
    let t = Instant::now();
    let (rec, min_passes) = record(opts, &sz);
    let mut out = RunOutput::default();
    out.notes.push(format!(
        "recorded {} sessions in {:.2} s (input generation, not set-up)",
        rec.0.len(),
        t.elapsed().as_secs_f64()
    ));
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let (rig, secs) = setup(&rec.0[0])?;
        setups.push(secs);
        rig.stop();
    }
    if opts.trace {
        traced(&mut out, opts, &rec, min_passes)?;
        return Ok(out);
    }
    let deadline = Duration::from_secs_f64(opts.seconds);
    let (mut samples, mut wall_s, mut rss_mib) = (Vec::new(), 0.0, f64::NAN);
    let start = Instant::now();
    for pass in 0.. {
        let elapsed = start.elapsed();
        if (elapsed >= deadline && pass >= min_passes) || elapsed >= HARD_STOP {
            break;
        }
        let (mut rig, _) = setup(&rec.0[0])?;
        let first = pass * rec.0.len();
        let served = drive(
            &mut rig,
            &rec,
            first..first + rec.0.len(),
            false,
            sz.rss_at_jobs,
        );
        rig.stop();
        if pass == 0 {
            rss_mib = served.rss_mib.unwrap_or(f64::NAN);
        }
        wall_s += served.wall_s;
        samples.extend(served.samples);
    }
    summarize(&mut out, &rec, &samples, wall_s);
    check(&mut out, &rec, &samples);
    out.push("setup_s", stats::median(&setups).unwrap_or(f64::NAN), "s");
    let mut turns = Turns::default();
    for (kind, min) in Kind::ALL.into_iter().zip(sz.min_jobs) {
        let latencies: Vec<f64> = samples
            .iter()
            .filter(|s| rec.kind(s.session, s.position) == kind)
            .map(|s| s.latency_ms)
            .collect();
        if !latencies.is_empty() {
            turns.extend(kind.label(), min, latencies);
        }
    }
    turns.push_metrics(&mut out);
    out.push("rss_peak_mib", rss_mib, "MiB");
    Ok(out)
}

/// The traced run: every pass on two fresh servers, its sessions in chunks
/// of one per client, each chunk served untraced by one server and traced
/// by the other, in alternating order. Both servers see the same sessions
/// under the same tenants, so their caches fill alike, and each chunk's two
/// halves run back to back, so their wall-time ratio holds even while the
/// host drifts.
fn traced(
    out: &mut RunOutput,
    opts: &Options,
    rec: &Recordings,
    min_passes: usize,
) -> std::io::Result<()> {
    let deadline = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let (mut plain_samples, mut samples, mut spans, mut ratios) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut plain_s = 0.0;
    for pass in 0.. {
        let elapsed = start.elapsed();
        if (elapsed >= deadline && pass >= min_passes) || elapsed >= HARD_STOP {
            break;
        }
        let (mut plain, _) = setup(&rec.0[0])?;
        let (mut spanned, _) = setup(&rec.0[0])?;
        let first = pass * rec.0.len();
        for chunk in (first..first + rec.0.len()).step_by(CLIENTS) {
            let range = chunk..(chunk + CLIENTS).min(first + rec.0.len());
            let traced_first = (chunk / CLIENTS) % 2 == 1;
            let early = traced_first.then(|| drive(&mut spanned, rec, range.clone(), true, 0));
            let a = drive(&mut plain, rec, range.clone(), false, 0);
            let b = early.unwrap_or_else(|| drive(&mut spanned, rec, range, true, 0));
            ratios.push(b.wall_s / a.wall_s);
            plain_s += a.wall_s;
            plain_samples.extend(a.samples);
            samples.extend(b.samples);
            trace::append(&mut spans, b.spans);
        }
        plain.stop();
        spanned.stop();
    }
    summarize(out, rec, &plain_samples, plain_s);
    let timings = check(out, rec, &plain_samples);
    check(out, rec, &samples);
    let mut layers = attribute(rec, &samples, &spans);
    layers.overhead_frac = stats::median(&ratios).unwrap_or(f64::NAN) - 1.0;
    layers.tax_share = tax_share(out, &timings);
    layers.push_metrics(out);
    out.spans = spans;
    Ok(())
}

fn summarize(out: &mut RunOutput, rec: &Recordings, samples: &[Sample], wall_s: f64) {
    let sessions = samples.iter().filter(|s| s.position == 0).count();
    let queries: usize = rec.0.iter().map(|s| s.jobs.len() - 1).sum();
    let repeats: u64 = rec.0.iter().map(Session::repeats).sum();
    out.notes.push(format!(
        "jobs {} in {sessions} sessions ({:.2} passes) in {wall_s:.2} s ({:.2} jobs/s); \
         submit p50 {:.4} ms",
        samples.len(),
        sessions as f64 / rec.0.len() as f64,
        samples.len() as f64 / wall_s,
        stats::median(&samples.iter().map(|s| s.submit_ms).collect::<Vec<_>>()).unwrap_or(f64::NAN),
    ));
    out.notes.push(format!(
        "recorded sessions: {} of {:.1} queries and 1 assessment on average; \
         {repeats} of {queries} queries repeat an earlier one of their session",
        rec.0.len(),
        queries as f64 / rec.0.len() as f64,
    ));
    out.notes.push(format!(
        "peak RSS {:.1} MiB at the end of the run",
        rss_peak_mib()
    ));
}

/// Attributes the traced jobs' spans to the serving layers.
fn attribute(rec: &Recordings, samples: &[Sample], spans: &[trace::Span]) -> Layers {
    let selfs = trace::self_times(spans);
    let mut layers = Layers::default();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        match s.name {
            "job" => {
                layers.jobs += 1;
                layers.job_ns += s.dur_ns();
                layers.unattributed_ns += self_ns;
            }
            "submit" => layers.submit_ns += s.dur_ns(),
            _ => {}
        }
    }
    for s in samples {
        if let Some(c) = s.certified {
            layers.reports += 1;
            layers.certified += u64::from(c);
        }
        if s.position == 0 {
            let recording = rec.session(s.session);
            layers.queries += recording.jobs.len() as u64 - 1;
            layers.repeats += recording.repeats();
        }
    }
    layers
}

/// The serving tax on the re-run queries: their median served latency
/// minus the median in-process `run_job` latency of the same specs, as a
/// share of the former.
fn tax_share(out: &mut RunOutput, timings: &[(f64, f64)]) -> f64 {
    let served = stats::median(&timings.iter().map(|t| t.0).collect::<Vec<_>>());
    let local = stats::median(&timings.iter().map(|t| t.1).collect::<Vec<_>>());
    match (served, local) {
        (Some(served), Some(local)) => {
            out.notes.push(format!(
                "VerifyLinear: served p50 {served:.4} ms, in-process p50 {local:.4} ms, \
                 tax {:.4} ms over {} jobs",
                served - local,
                timings.len()
            ));
            (served - local) / served
        }
        _ => 0.0,
    }
}
