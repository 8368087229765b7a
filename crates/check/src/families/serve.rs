//! Differential serve-vs-batch family.
//!
//! Each case boots a real `dwv-serve` server on loopback, drives a
//! seed-derived interleaving of submits, duplicate submissions, cancels,
//! and mid-stream disconnects against it, then holds every job that ran to
//! completion to the parity contract: the streamed [`JobOutput`] must be
//! **byte-identical** to a fresh in-process [`run_job`] of the same spec —
//! at a *different* worker-pool width, so the comparison simultaneously
//! pins thread-count invariance.
//!
//! Randomized-but-deterministic: every choice (job mix, pool widths,
//! which job gets a duplicate or a cancel, where the disconnecting client
//! cuts its frame) is drawn from the case's seeded stream, so a replay
//! token reproduces the exact interleaving. Timing races the server is
//! *allowed* to resolve either way (a cancel landing before or after
//! completion) are scored identically on both branches, keeping the
//! verdict a pure function of `(seed, size)`.

use super::{case_rng, CaseOutcome, Family};
use dwv_core::parallel::{CancelToken, WorkerPool};
use dwv_interval::arbitrary::f64_in;
use dwv_reach::ReachCache;
use dwv_serve::{
    run_job, Client, Frame, JobEvent, JobKind, JobSpec, ProblemId, RejectCode, ServeConfig, Server,
};

/// Loopback serve-vs-batch differential with randomized interleavings.
pub struct ServeFamily;

/// Stable-band ACC gains: mostly verify, some land near the boundary so
/// verdict strings vary across cases.
///
/// `allow_assess` admits the full-report `AssessLinear` kind, which costs
/// ~50× a `VerifyLinear` (Algorithm-2 cell search + rollout rates), so the
/// caller seed-gates it.
fn random_spec(next: &mut impl FnMut() -> u64, allow_assess: bool) -> JobSpec {
    let gains = vec![f64_in(next(), 0.2, 1.0), f64_in(next(), -2.6, -1.4)];
    if allow_assess && next().is_multiple_of(2) {
        JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::AssessLinear { gains },
        }
    } else {
        JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::VerifyLinear {
                gains,
                grid: 1 + (next() % 2) as u32,
                samples: 10 + (next() % 16) as u32,
            },
        }
    }
}

/// One fresh in-process reference run: new pool, cold cache, no cancel.
fn batch_reference(
    spec: &JobSpec,
    tenant: u64,
    width: usize,
) -> Result<dwv_serve::JobOutput, dwv_serve::JobError> {
    let pool = WorkerPool::new(width);
    let cache = ReachCache::new();
    run_job(spec, tenant, &pool, &cache, &CancelToken::new())
}

impl Family for ServeFamily {
    fn id(&self) -> u8 {
        13
    }

    fn name(&self) -> &'static str {
        "serve"
    }

    fn oracle(&self) -> &'static str {
        "loopback server vs fresh in-process run_job at a different pool width"
    }

    #[allow(clippy::too_many_lines)]
    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        let mut rng = case_rng(self.id(), seed);
        let mut next = || rng.next_u64();

        let n_jobs = 2 + (next() % u64::from(1 + size.min(2))) as usize;
        // Full-report jobs are ~50× a verify sweep; admit them on one seed
        // in 32.
        let allow_assess = seed.is_multiple_of(32);
        let jobs: Vec<(u64, u64, JobSpec)> = (0..n_jobs)
            .map(|j| {
                let tenant = 1 + next() % 2; // two tenants share the server
                (tenant, j as u64 + 1, random_spec(&mut next, allow_assess))
            })
            .collect();

        // Server pool width and the reference width must differ, so every
        // parity comparison is also a thread-count-invariance check.
        let widths = [2usize, 4, 8];
        let serve_width = widths[(next() % 3) as usize];
        let batch_width = widths[(next() % 3) as usize];
        let batch_width = if batch_width == serve_width {
            widths[(widths.iter().position(|&w| w == serve_width).unwrap_or(0) + 1) % 3]
        } else {
            batch_width
        };

        let server = match Server::start(ServeConfig {
            workers: 1 + (next() % 2) as usize,
            pool_threads: serve_width,
            queue_capacity: 64,
            ..ServeConfig::default()
        }) {
            Ok(s) => s,
            Err(_) => return CaseOutcome::Skip, // loopback bind refused
        };
        let Ok(mut client) = Client::connect(server.addr()) else {
            server.shutdown();
            return CaseOutcome::Skip;
        };

        // --- Phase 1: concurrent-ish submits, one deliberate duplicate ---
        for (tenant, job_id, spec) in &jobs {
            match client.submit(*tenant, *job_id, 0, spec.clone()) {
                Ok(Frame::Accepted { .. }) => {}
                Ok(other) => {
                    server.shutdown();
                    return CaseOutcome::Violation(format!(
                        "fresh job {job_id} under tenant {tenant} not admitted: {other:?}"
                    ));
                }
                Err(_) => {
                    server.shutdown();
                    return CaseOutcome::Skip;
                }
            }
        }
        let (dup_tenant, dup_id, dup_spec) = &jobs[(next() % jobs.len() as u64) as usize];
        match client.submit(*dup_tenant, *dup_id, 0, dup_spec.clone()) {
            Ok(Frame::Rejected {
                code: RejectCode::DuplicateJob,
                ..
            }) => {}
            Ok(other) => {
                server.shutdown();
                return CaseOutcome::Violation(format!(
                    "duplicate (tenant {dup_tenant}, job {dup_id}) not rejected as \
                     DuplicateJob: {other:?}"
                ));
            }
            Err(_) => {
                server.shutdown();
                return CaseOutcome::Skip;
            }
        }

        // --- Phase 2: a client disconnects mid-frame; server must shrug ---
        if next() % 2 == 0 {
            if let Ok(mut rude) = Client::connect(server.addr()) {
                let wire = Frame::Submit {
                    tenant: 99,
                    job_id: 99,
                    deadline_ms: 0,
                    spec: jobs[0].2.clone(),
                }
                .encode();
                let cut = 1 + (next() % (wire.len() as u64 - 1)) as usize;
                let _ = rude.send_raw(&wire[..cut]);
            } // dropped here, mid-frame
        }

        // --- Phase 3: racing cancel on one job (either outcome is legal) --
        let cancel_target = if next() % 2 == 0 {
            let (t, id, _) = &jobs[(next() % jobs.len() as u64) as usize];
            match client.cancel(*t, *id) {
                Ok(_) => Some((*t, *id)),
                Err(_) => {
                    server.shutdown();
                    return CaseOutcome::Skip;
                }
            }
        } else {
            None
        };

        // --- Phase 4: stream every job to terminal; hold Done to parity ---
        for (tenant, job_id, spec) in &jobs {
            let Ok(events) = client.stream_events(*tenant, *job_id) else {
                server.shutdown();
                return CaseOutcome::Skip;
            };
            match events.last() {
                Some(JobEvent::Cancelled) if cancel_target == Some((*tenant, *job_id)) => {
                    // The cancel won the race — legal, nothing to compare.
                    continue;
                }
                Some(JobEvent::Done) => {}
                other => {
                    server.shutdown();
                    return CaseOutcome::Violation(format!(
                        "job {job_id} (tenant {tenant}, {spec:?}) ended in {other:?} \
                         instead of Done"
                    ));
                }
            }
            let served = match dwv_serve::reassemble(&events) {
                Ok(out) => out,
                Err(e) => {
                    server.shutdown();
                    return CaseOutcome::Violation(format!(
                        "job {job_id} (tenant {tenant}) stream reassembly failed: {e}"
                    ));
                }
            };
            let batch = match batch_reference(spec, *tenant, batch_width) {
                Ok(out) => out,
                Err(e) => {
                    server.shutdown();
                    return CaseOutcome::Violation(format!(
                        "batch reference for job {job_id} ({spec:?}) errored: {e}"
                    ));
                }
            };
            if served != batch {
                server.shutdown();
                return CaseOutcome::Violation(format!(
                    "serve-vs-batch divergence for job {job_id} (tenant {tenant}, \
                     {spec:?}, serve pool {serve_width}, batch pool {batch_width}): \
                     served verdict {:?} segments {} report {:?} bytes, batch verdict \
                     {:?} segments {} report {:?} bytes",
                    served.verdict,
                    served.segments.len(),
                    served.report_csv.as_ref().map(Vec::len),
                    batch.verdict,
                    batch.segments.len(),
                    batch.report_csv.as_ref().map(Vec::len),
                ));
            }
        }

        // --- Phase 5 (sparse): full width sweep 2/4/8 on one spec ---------
        if seed.is_multiple_of(16) {
            let (tenant, _, spec) = &jobs[0];
            let base = batch_reference(spec, *tenant, 2);
            for w in [4usize, 8] {
                if batch_reference(spec, *tenant, w) != base {
                    server.shutdown();
                    return CaseOutcome::Violation(format!(
                        "run_job({spec:?}) differs between pool widths 2 and {w}"
                    ));
                }
            }
        }

        // --- Phase 6: drain refuses new work once everything is terminal -
        if next() % 2 == 0 {
            let Ok((queued, running)) = client.drain() else {
                server.shutdown();
                return CaseOutcome::Skip;
            };
            if (queued, running) != (0, 0) {
                server.shutdown();
                return CaseOutcome::Violation(format!(
                    "drain after all jobs terminal reported backlog ({queued} queued, \
                     {running} running)"
                ));
            }
            match client.submit(7, 1000, 0, jobs[0].2.clone()) {
                Ok(Frame::Rejected {
                    code: RejectCode::Draining,
                    ..
                }) => {}
                Ok(other) => {
                    server.shutdown();
                    return CaseOutcome::Violation(format!(
                        "submit on a draining server not rejected as Draining: {other:?}"
                    ));
                }
                Err(_) => {
                    server.shutdown();
                    return CaseOutcome::Skip;
                }
            }
        }

        server.shutdown();
        CaseOutcome::Pass
    }
}
