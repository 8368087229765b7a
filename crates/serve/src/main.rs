//! The `dwv-serve` binary: server mode plus tiny client modes for CI.
//!
//! ```sh
//! dwv-serve [--addr 127.0.0.1:4777] [--workers N] [--queue-cap N]
//!           [--pool-threads N] [--addr-file PATH]
//! dwv-serve --smoke ADDR    # submit one ACC verify job, print the verdict
//! dwv-serve --drain ADDR    # ask a running server to drain and exit
//! ```
//!
//! In server mode the process serves until a client sends `Drain`, then
//! finishes in-flight work (force-cancelling after a grace period) and
//! exits 0 — the contract `ci.sh --all`'s forced-drain gate checks.

#![forbid(unsafe_code)]

use dwv_serve::{Client, JobKind, JobSpec, ProblemId, ServeConfig, Server};
use std::io::Write;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("dwv-serve: {msg}");
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    match args.next().map(|v| v.parse::<T>()) {
        Some(Ok(v)) => v,
        _ => fail(&format!("{flag} needs a valid value")),
    }
}

fn smoke(addr: &str) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => fail(&format!("connect {addr}: {e}")),
    };
    let spec = JobSpec {
        problem: ProblemId::Acc,
        kind: JobKind::VerifyLinear {
            gains: vec![0.5867, -2.0],
            grid: 2,
            samples: 100,
        },
    };
    if let Err(e) = client.submit(0xC1, 1, 0, spec) {
        fail(&format!("submit: {e}"));
    }
    match client.stream_result(0xC1, 1) {
        Ok(out) => println!("smoke verdict: {}", out.verdict),
        Err(e) => fail(&format!("stream: {e}")),
    }
}

fn drain(addr: &str) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => fail(&format!("connect {addr}: {e}")),
    };
    match client.drain() {
        Ok((queued, running)) => {
            println!("drain started: {queued} queued, {running} running");
        }
        Err(e) => fail(&format!("drain: {e}")),
    }
}

fn main() {
    let mut args = std::env::args();
    let _bin = args.next();
    let mut cfg = ServeConfig::default();
    let mut addr_file: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = parse_flag(&mut args, "--addr"),
            "--workers" => cfg.workers = parse_flag(&mut args, "--workers"),
            "--queue-cap" => cfg.queue_capacity = parse_flag(&mut args, "--queue-cap"),
            "--pool-threads" => cfg.pool_threads = parse_flag(&mut args, "--pool-threads"),
            "--addr-file" => addr_file = Some(parse_flag(&mut args, "--addr-file")),
            "--smoke" => {
                let addr: String = parse_flag(&mut args, "--smoke");
                smoke(&addr);
                return;
            }
            "--drain" => {
                let addr: String = parse_flag(&mut args, "--drain");
                drain(&addr);
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: dwv-serve [--addr A] [--workers N] [--queue-cap N] \
                     [--pool-threads N] [--addr-file PATH] | --smoke ADDR | --drain ADDR"
                );
                return;
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let tracing = dwv_obs::init_from_env();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => fail(&format!("bind: {e}")),
    };
    println!("dwv-serve listening on {}", server.addr());
    if let Some(path) = addr_file {
        // CI starts us with port 0 and reads the real address from here.
        match std::fs::File::create(&path).and_then(|mut f| {
            writeln!(f, "{}", server.addr())?;
            f.flush()
        }) {
            Ok(()) => {}
            Err(e) => fail(&format!("--addr-file {path}: {e}")),
        }
    }
    let forced = server.wait_for_drain(Duration::from_secs(5));
    println!("drained ({forced} jobs force-cancelled)");
    server.shutdown();
    if tracing {
        dwv_obs::flush();
    }
}
