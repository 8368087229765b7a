//! The `dwv-lint` command-line interface.
//!
//! ```text
//! dwv-lint --workspace [--deny all|<rule>[,<rule>]*] [--json] [--quiet]
//!          [--why <fn>]
//! dwv-lint <file.rs>... [--deny ...] [--json]
//! ```
//!
//! Workspace runs go through the interprocedural engine (per-file
//! analysis, then the call-graph passes, in one serial pass) over the
//! library files; explicit file arguments are linted standalone, as library
//! code, with per-file rules only. `--why <fn>` prints the
//! panic-reachability status and call chain of every workspace function
//! with that name instead of a report.
//!
//! The exit code is a bitmask over the denied rules that fired:
//! float-hygiene=1, panic-freedom=2, determinism=4, no-alloc=64;
//! malformed or unused annotations (32) always fail.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use dwv_lint::{lint_source, walk, Report, Rule, ZoneConfig};

struct Options {
    workspace: bool,
    paths: Vec<PathBuf>,
    denied: Vec<Rule>,
    json: bool,
    quiet: bool,
    why: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        paths: Vec::new(),
        denied: Rule::all().to_vec(),
        json: false,
        quiet: false,
        why: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => opts.workspace = true,
            "--json" => opts.json = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--why" => {
                i += 1;
                let name = args
                    .get(i)
                    .ok_or_else(|| "--why requires a function name".to_string())?;
                opts.why = Some(name.clone());
            }
            "--deny" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| "--deny requires an argument".to_string())?;
                if spec == "all" {
                    opts.denied = Rule::all().to_vec();
                } else {
                    opts.denied = spec
                        .split(',')
                        .map(|id| {
                            Rule::from_id(id.trim())
                                .ok_or_else(|| format!("unknown rule id `{}`", id.trim()))
                        })
                        .collect::<Result<Vec<Rule>, String>>()?;
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: dwv-lint (--workspace | <file.rs>...) [--deny all|<rules>] \
                     [--json] [--quiet] [--why <fn>]"
                        .to_string(),
                );
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => opts.paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if !opts.workspace && opts.paths.is_empty() && opts.why.is_none() {
        return Err("nothing to lint: pass --workspace, --why <fn>, or files".to_string());
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<Report, String> {
    let cwd = env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = walk::find_workspace_root(&cwd);
    let zones = ZoneConfig::default();
    let mut report = Report::default();
    if opts.workspace {
        report = dwv_lint::lint_workspace(&root).map_err(|e| format!("workspace walk: {e}"))?;
    }
    for path in &opts.paths {
        let abs = if path.is_absolute() {
            path.clone()
        } else {
            cwd.join(path)
        };
        let rel = abs.strip_prefix(&root).unwrap_or(&abs);
        let rel = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src =
            fs::read_to_string(&abs).map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        lint_source(&rel, &src, &zones, &mut report);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("dwv-lint: {msg}");
            return ExitCode::from(64);
        }
    };
    if let Some(name) = &opts.why {
        let cwd = match env::current_dir() {
            Ok(cwd) => cwd,
            Err(e) => {
                eprintln!("dwv-lint: cannot read cwd: {e}");
                return ExitCode::from(65);
            }
        };
        let root = walk::find_workspace_root(&cwd);
        return match dwv_lint::why_workspace(&root, name) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dwv-lint: {e}");
                ExitCode::from(65)
            }
        };
    }
    let report = match run(&opts) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("dwv-lint: {msg}");
            return ExitCode::from(65);
        }
    };
    if opts.json {
        print!("{}", report.to_json(&opts.denied));
    } else if !opts.quiet {
        print!("{}", report.to_text(&opts.denied));
    }
    let code = report.exit_code(&opts.denied);
    // Exit codes are a u8; the bitmask tops out at 127 so this cannot clip.
    ExitCode::from(u8::try_from(code).unwrap_or(u8::MAX))
}
