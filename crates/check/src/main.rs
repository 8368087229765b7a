//! The `dwv-check` command-line falsifier.
//!
//! ```text
//! dwv-check [--seed 0xHEX] [--budget-cases N] [--family NAME]
//!           [--threads N] [--max-size N] [--no-shrink] [--json]
//! dwv-check --replay 0xTOKEN [--json]
//! dwv-check --corpus DIR [--json]
//! dwv-check --list-families
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations found, 2 = usage error.

#![forbid(unsafe_code)]

use dwv_check::case::CaseId;
use dwv_check::families::{self, CaseOutcome};
use dwv_check::{corpus, replay, run, Config};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    config: Config,
    replay_token: Option<String>,
    corpus_dir: Option<String>,
    json: bool,
    list: bool,
}

fn usage() -> &'static str {
    "usage: dwv-check [--seed 0xHEX] [--budget-cases N] [--family NAME] \
     [--threads N] [--max-size N] [--no-shrink] [--json]\n\
     \x20      dwv-check --replay 0xTOKEN | --corpus DIR | --list-families"
}

fn parse_u64(s: &str) -> Option<u64> {
    let t = s.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        t.parse().ok()
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        config: Config::default(),
        replay_token: None,
        corpus_dir: None,
        json: false,
        list: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                args.config.seed =
                    parse_u64(&v).ok_or_else(|| format!("bad --seed value {v:?}"))?;
            }
            "--budget-cases" => {
                let v = value("--budget-cases")?;
                args.config.budget =
                    parse_u64(&v).ok_or_else(|| format!("bad --budget-cases value {v:?}"))?;
            }
            "--family" => args.config.family = Some(value("--family")?),
            "--threads" => {
                let v = value("--threads")?;
                args.config.threads =
                    parse_u64(&v).ok_or_else(|| format!("bad --threads value {v:?}"))? as usize;
            }
            "--max-size" => {
                let v = value("--max-size")?;
                let n = parse_u64(&v).ok_or_else(|| format!("bad --max-size value {v:?}"))?;
                args.config.max_size =
                    u8::try_from(n).map_err(|_| format!("--max-size must be <= 255, got {n}"))?;
            }
            "--no-shrink" => args.config.shrink = false,
            "--json" => args.json = true,
            "--replay" => args.replay_token = Some(value("--replay")?),
            "--corpus" => args.corpus_dir = Some(value("--corpus")?),
            "--list-families" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn replay_one(token: &str, json: bool) -> Result<bool, String> {
    let id = CaseId::parse(token).ok_or_else(|| format!("malformed replay token {token:?}"))?;
    let (family, outcome) = replay(id)?;
    let (verdict, detail) = match &outcome {
        CaseOutcome::Pass => ("pass", String::new()),
        CaseOutcome::Skip => ("skip", String::new()),
        CaseOutcome::Violation(m) => ("violation", m.clone()),
    };
    if json {
        println!(
            "{{\"replay\": \"{}\", \"family\": \"{family}\", \"outcome\": \"{verdict}\", \"message\": \"{}\"}}",
            id.hex(),
            detail.replace('\\', "\\\\").replace('"', "\\\"")
        );
    } else {
        println!("{} [{family}] size {} -> {verdict}", id.hex(), id.size);
        if !detail.is_empty() {
            println!("  {detail}");
        }
    }
    Ok(matches!(outcome, CaseOutcome::Violation(_)))
}

fn run_corpus(dir: &str, json: bool) -> Result<bool, String> {
    let entries = corpus::load_dir(Path::new(dir)).map_err(|e| format!("corpus {dir}: {e}"))?;
    let mut violated = false;
    let mut replayed = 0usize;
    for entry in &entries {
        let hit = replay_one(&entry.id.hex(), json)?;
        if hit && !entry.comment.is_empty() && !json {
            println!("  corpus note: {} ({})", entry.comment, entry.file);
        }
        violated |= hit;
        replayed += 1;
    }
    if !json {
        println!("corpus: {replayed} seed(s) replayed from {dir}");
    }
    Ok(violated)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("dwv-check: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list {
        for f in families::registry() {
            println!("{:<12} (id {}) oracle: {}", f.name(), f.id(), f.oracle());
        }
        return ExitCode::SUCCESS;
    }

    if let Some(token) = &args.replay_token {
        return match replay_one(token, args.json) {
            Ok(true) => ExitCode::from(1),
            Ok(false) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("dwv-check: {msg}");
                ExitCode::from(2)
            }
        };
    }

    if let Some(dir) = &args.corpus_dir {
        return match run_corpus(dir, args.json) {
            Ok(true) => ExitCode::from(1),
            Ok(false) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("dwv-check: {msg}");
                ExitCode::from(2)
            }
        };
    }

    match run(&args.config) {
        Ok(report) => {
            if args.json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.summary());
            }
            if report.total_violations() > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("dwv-check: {msg}");
            ExitCode::from(2)
        }
    }
}
