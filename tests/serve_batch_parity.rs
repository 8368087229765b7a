//! Golden serve-vs-batch parity: the repro configurations for all three
//! benchmark problems, submitted over real loopback TCP, must produce
//! `VerificationReport` CSVs **byte-for-byte identical** to in-process
//! batch runs of the same code.
//!
//! This is the contract that makes `dwv-serve` trustworthy: serving adds
//! transport, queueing, and per-tenant caching around the
//! verifier — none of which may perturb a single byte of the result.

use dwv_core::{assess, design_while_verify_linear, LearnConfig, MetricKind};
use dwv_dynamics::NnController;
use dwv_interval::IntervalBox;
use dwv_nn::{Activation, Network};
use dwv_reach::{TaylorAbstraction, TaylorReach};
use dwv_serve::job::{nn_verifier_config, problem_for};
use dwv_serve::{Client, Frame, JobKind, JobSpec, ProblemId, ServeConfig, Server};

fn serve_csv(server: &Server, tenant: u64, job_id: u64, spec: JobSpec) -> Vec<u8> {
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.submit(tenant, job_id, 0, spec).expect("submit");
    assert!(matches!(reply, Frame::Accepted { .. }), "{reply:?}");
    client
        .stream_result(tenant, job_id)
        .expect("stream result")
        .report_csv
        .expect("report-bearing job kind")
}

fn nn_repro_spec(problem: ProblemId, output_scale: f64) -> (JobSpec, Vec<f64>) {
    // The examples/ repro configuration: seed-3 untrained network, one
    // hidden layer of 8, POLAR order 2, box-reinit dependency tracking.
    let prob = problem_for(problem);
    let sizes = [prob.n_state(), 8, prob.n_input()];
    let net = Network::new(&sizes, Activation::ReLU, Activation::Tanh, 3);
    let params = net.params();
    (
        JobSpec {
            problem,
            kind: JobKind::AssessNn {
                hidden: vec![8],
                output_scale,
                order: 2,
                params: params.clone(),
            },
        },
        params,
    )
}

fn batch_nn_csv(problem: ProblemId, output_scale: f64, params: &[f64]) -> Vec<u8> {
    let prob = problem_for(problem);
    let sizes = [prob.n_state(), 8, prob.n_input()];
    let mut net = Network::new(&sizes, Activation::ReLU, Activation::Tanh, 3);
    net.set_params(params);
    let controller = NnController::with_output_scale(net, output_scale);
    let verifier = TaylorReach::new(
        &prob,
        TaylorAbstraction::with_order(2),
        nn_verifier_config(),
    );
    let report = assess(&prob, &controller, |cell: &IntervalBox| {
        verifier.reach_from(cell, &controller)
    });
    report.to_csv().into_bytes()
}

#[test]
fn acc_learn_linear_served_equals_batch() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let spec = JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::LearnLinear {
            seed: 42,
            max_updates: 25,
        },
    };
    let served = serve_csv(&server, 0xACC, 1, spec);

    let config = LearnConfig::builder()
        .metric(MetricKind::Geometric)
        .max_updates(25)
        .seed(42)
        .build();
    let outcome =
        design_while_verify_linear(problem_for(ProblemId::Acc), config).expect("batch learn");
    let batch = outcome.report.to_csv().into_bytes();
    assert_eq!(
        served,
        batch,
        "ACC LearnLinear: served CSV differs from batch\nserved:\n{}\nbatch:\n{}",
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&batch),
    );
    server.shutdown();
}

#[test]
fn van_der_pol_nn_served_equals_batch() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let (spec, params) = nn_repro_spec(ProblemId::VanDerPol, 1.0);
    let served = serve_csv(&server, 0xD9, 1, spec);
    let batch = batch_nn_csv(ProblemId::VanDerPol, 1.0, &params);
    assert_eq!(
        served,
        batch,
        "VdP AssessNn: served CSV differs from batch\nserved:\n{}\nbatch:\n{}",
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&batch),
    );
    server.shutdown();
}

#[test]
fn three_dim_nn_served_equals_batch() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    // 3D repro adds nn_output_scale = 2.0.
    let (spec, params) = nn_repro_spec(ProblemId::ThreeDim, 2.0);
    let served = serve_csv(&server, 0x3D, 1, spec);
    let batch = batch_nn_csv(ProblemId::ThreeDim, 2.0, &params);
    assert_eq!(
        served,
        batch,
        "3D AssessNn: served CSV differs from batch\nserved:\n{}\nbatch:\n{}",
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&batch),
    );
    server.shutdown();
}

#[test]
fn assess_linear_is_tenant_invariant_and_pool_width_invariant() {
    // One server; the same AssessLinear spec under three tenants and a
    // direct batch run must agree to the byte — the tenant cache shards
    // change *latency*, never *bytes*.
    let server = Server::start(ServeConfig {
        workers: 2,
        pool_threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let spec = JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::AssessLinear {
            gains: vec![0.5867, -2.0],
        },
    };
    let a = serve_csv(&server, 1, 1, spec.clone());
    let b = serve_csv(&server, 2, 1, spec.clone());
    let c = serve_csv(&server, 1, 2, spec.clone()); // warm-cache repeat
    assert_eq!(a, b, "tenant shard changed report bytes");
    assert_eq!(a, c, "cache hit changed report bytes");
    server.shutdown();

    // A second server at a different pool width serves the same bytes.
    let wide = Server::start(ServeConfig {
        workers: 2,
        pool_threads: 8,
        ..ServeConfig::default()
    })
    .expect("bind");
    let d = serve_csv(&wide, 1, 1, spec);
    assert_eq!(a, d, "pool width changed report bytes");
    wide.shutdown();
}
