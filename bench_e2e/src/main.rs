//! `bench_e2e`: end-to-end and per-layer benchmark of the design-while-verify
//! pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload acc-flowstar|nn-polar|nn-reachnn|serve-mix|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//! ```
//!
//! Each run sets up five times (reporting the median set-up time), then
//! measures the workload for `--seconds`, checks its outputs, and prints a
//! human-readable summary followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer ones
//! from a run that records spans around calls into each crate. The exit code
//! is non-zero whenever the result line says `"correct": false`: a check
//! failed or a metric is not finite. `--workload all` runs every workload
//! in a child process of its own. See `README.md` for the metrics.

mod batch;
mod jobs;
mod report;
mod serve_mix;
mod stats;
mod trace;

use jobs::{Scale, Workload};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads to run (one, or all in child processes).
    workloads: Vec<Workload>,
    /// The input seed.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                opts.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?]
                };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must lie in [0, 60]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                opts.scale = match value()? {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("--scale takes full or smoke, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

/// Runs every workload in a child process of its own, passing the other
/// flags through, so set-up time and peak memory stay per workload.
fn run_children(args: &[String], opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut passed = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            passed.push(a.clone());
        }
    }
    let mut ok = true;
    for w in &opts.workloads {
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w.name())
            .args(&passed)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.workloads.len() > 1 {
        return run_children(&args, &opts);
    }
    let workload = opts.workloads[0];
    let out = match workload {
        Workload::ServeMix => match serve_mix::run(&opts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("bench_e2e: serve-mix set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => batch::run(workload, &opts),
    };
    println!(
        "== {} seed {} {} ({} host CPUs)",
        workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if opts.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}-seed{}.tsv", workload.name(), opts.seed));
        match trace::write_tsv(&path, &out.spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("bench_e2e: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
