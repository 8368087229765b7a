//! Server lifecycle integration tests: admission control, duplicate
//! detection, cancellation, tenant isolation, and drain semantics — all
//! over real loopback TCP.

use dwv_core::parallel::{CancelToken, WorkerPool};
use dwv_reach::ReachCache;
use dwv_serve::{
    run_job, Client, Frame, JobError, JobKind, JobSpec, JobState, ProblemId, RejectCode,
    ServeConfig, Server,
};
use std::sync::Arc;
use std::time::Duration;

fn acc_verify_spec() -> JobSpec {
    JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::VerifyLinear {
            gains: vec![0.5867, -2.0],
            grid: 2,
            samples: 100,
        },
    }
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("bind loopback")
}

#[test]
fn served_job_matches_in_process_run() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = acc_verify_spec();
    let reply = client.submit(7, 1, 0, spec.clone()).expect("submit");
    assert!(matches!(reply, Frame::Accepted { job_id: 1 }));
    let served = client.stream_result(7, 1).expect("result");

    let pool = WorkerPool::new(2);
    let cache = Arc::new(ReachCache::new());
    let batch = run_job(&spec, 7, &pool, &cache, &CancelToken::new()).expect("batch run");
    assert_eq!(served.verdict, batch.verdict);
    assert_eq!(served.segments, batch.segments);
    assert_eq!(served.report_csv, batch.report_csv);

    // Poll after completion reports Done.
    assert_eq!(client.poll(7, 1).expect("poll"), JobState::Done);
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_retry_hint_instead_of_buffering() {
    // Zero workers: nothing drains the queue, so capacity is exact.
    let server = start(ServeConfig {
        workers: 0,
        queue_capacity: 2,
        retry_after_ms: 40,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    for job_id in 1..=2 {
        let reply = client
            .submit(1, job_id, 0, acc_verify_spec())
            .expect("submit");
        assert!(
            matches!(reply, Frame::Accepted { .. }),
            "job {job_id}: {reply:?}"
        );
    }
    let reply = client.submit(1, 3, 0, acc_verify_spec()).expect("submit");
    match reply {
        Frame::Rejected {
            job_id,
            code,
            retry_after_ms,
        } => {
            assert_eq!(job_id, 3);
            assert_eq!(code, RejectCode::Overloaded);
            assert_eq!(retry_after_ms, 40, "retry hint must come from config");
        }
        other => panic!("expected Rejected{{Overloaded}}, got {other:?}"),
    }
    // The rejected job must leave no residue: the same id is usable after
    // the queue clears.
    assert_eq!(client.poll(1, 3).expect("poll"), JobState::Unknown);
    server.shutdown();
}

#[test]
fn duplicate_job_ids_are_rejected_per_tenant() {
    let server = start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let first = client.submit(5, 42, 0, acc_verify_spec()).expect("submit");
    assert!(matches!(first, Frame::Accepted { .. }));
    let dup = client.submit(5, 42, 0, acc_verify_spec()).expect("submit");
    assert!(
        matches!(
            dup,
            Frame::Rejected {
                code: RejectCode::DuplicateJob,
                ..
            }
        ),
        "{dup:?}"
    );
    // Same job id under a different tenant is a different job.
    let other_tenant = client.submit(6, 42, 0, acc_verify_spec()).expect("submit");
    assert!(
        matches!(other_tenant, Frame::Accepted { .. }),
        "{other_tenant:?}"
    );
    server.shutdown();
}

#[test]
fn invalid_specs_are_rejected_at_admission() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let bad_specs = vec![
        // Wrong gain count for ACC (needs n_input × n_state = 2).
        JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::AssessLinear {
                gains: vec![1.0, 2.0, 3.0],
            },
        },
        // VerifyLinear on a non-affine problem.
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::VerifyLinear {
                gains: vec![1.0, 2.0],
                grid: 2,
                samples: 10,
            },
        },
        // NN params not matching the architecture.
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale: 1.0,
                order: 2,
                params: vec![0.0; 3],
            },
        },
        // Non-finite output scale.
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale: f64::NAN,
                order: 2,
                params: vec![0.0; 33],
            },
        },
    ];
    for (i, spec) in bad_specs.into_iter().enumerate() {
        let reply = client.submit(1, 100 + i as u64, 0, spec).expect("submit");
        assert!(
            matches!(
                reply,
                Frame::Rejected {
                    code: RejectCode::BadSpec,
                    retry_after_ms: 0,
                    ..
                }
            ),
            "spec {i}: {reply:?}"
        );
    }
    server.shutdown();
}

#[test]
fn non_finite_numbers_are_invalid_not_panics() {
    // Each spec is well-formed except for one non-finite number, which would
    // otherwise reach the verifier (and, for NN parameters, panic inside it).
    let mut nn_params = vec![0.1; 33];
    nn_params[5] = f64::NAN;
    let specs = [
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale: 1.0,
                order: 2,
                params: nn_params,
            },
        },
        JobSpec {
            problem: ProblemId::VanDerPol,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale: f64::INFINITY,
                order: 2,
                params: vec![0.1; 33],
            },
        },
        JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::VerifyLinear {
                gains: vec![0.5867, f64::NEG_INFINITY],
                grid: 1,
                samples: 1,
            },
        },
        JobSpec {
            problem: ProblemId::Acc,
            kind: JobKind::AssessLinear {
                gains: vec![f64::NAN, -2.0],
            },
        },
    ];
    let pool = WorkerPool::new(1);
    let cache = ReachCache::new();
    for (i, spec) in specs.iter().enumerate() {
        let out = run_job(spec, 1, &pool, &cache, &CancelToken::new());
        assert!(
            matches!(out, Err(JobError::Invalid(_))),
            "spec {i}: {out:?}"
        );
    }
}

#[test]
fn queued_jobs_can_be_cancelled() {
    let server = start(ServeConfig {
        workers: 0, // never executes, stays Queued
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(2, 9, 0, acc_verify_spec()).expect("submit");
    assert_eq!(client.poll(2, 9).expect("poll"), JobState::Queued);
    assert_eq!(client.cancel(2, 9).expect("cancel"), JobState::Cancelled);
    // Cancellation is terminal and streamable.
    let events = client.stream_events(2, 9).expect("stream");
    assert_eq!(events.len(), 1);
    assert!(events[0].is_terminal());
    // Cancel of an unknown job reports Unknown, not an error.
    assert_eq!(client.cancel(2, 777).expect("cancel"), JobState::Unknown);
    server.shutdown();
}

#[test]
fn deadline_expiry_cancels_queued_jobs() {
    let server = start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(3, 1, 30, acc_verify_spec()).expect("submit");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let state = client.poll(3, 1).expect("poll");
        if state == JobState::Cancelled {
            break;
        }
        assert_eq!(state, JobState::Queued);
        assert!(
            std::time::Instant::now() < deadline,
            "deadline never enforced"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn tenants_share_results_but_not_caches() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = acc_verify_spec();
    client.submit(10, 1, 0, spec.clone()).expect("submit");
    client.submit(11, 1, 0, spec).expect("submit");
    let a = client.stream_result(10, 1).expect("tenant 10");
    let b = client.stream_result(11, 1).expect("tenant 11");
    // Identical specs give identical bytes regardless of tenant: caches are
    // isolated (correctness), results are deterministic (parity).
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.segments, b.segments);
    server.shutdown();
}

#[test]
fn drain_rejects_new_work_and_reports_backlog() {
    let server = start(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(4, 1, 0, acc_verify_spec()).expect("submit");
    let (queued, running) = client.drain().expect("drain");
    assert_eq!((queued, running), (1, 0));
    assert!(server.is_draining());
    let reply = client.submit(4, 2, 0, acc_verify_spec()).expect("submit");
    assert!(
        matches!(
            reply,
            Frame::Rejected {
                code: RejectCode::Draining,
                ..
            }
        ),
        "{reply:?}"
    );
    // Forced drain cancels the stuck queued job and reports it.
    let forced = server.drain(Duration::from_millis(50));
    assert_eq!(forced, 1);
    assert_eq!(client.poll(4, 1).expect("poll"), JobState::Cancelled);
    server.shutdown();
}

#[test]
fn concurrent_clients_all_complete() {
    let server = start(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .submit(20 + t, 1, 0, acc_verify_spec())
                    .expect("submit");
                client.stream_result(20 + t, 1).expect("result").verdict
            })
        })
        .collect();
    let verdicts: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
    server.shutdown();
}
