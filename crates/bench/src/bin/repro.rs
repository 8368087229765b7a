//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! repro table1-acc        Table 1, ACC rows
//! repro table1-oscillator Table 1, oscillator rows
//! repro table1-three-dim  Table 1, 3-D system rows
//! repro table2            Table 2 (runtime per learning iteration)
//! repro tightness         §4 tightness discussion
//! repro ablation          gradient-estimator ablation (beyond the paper)
//! repro fig4 … fig8       figure data series (CSV to target/repro/)
//! repro all               everything above
//! repro quick             a fast subset (ACC rows + fig4)
//! ```
//!
//! `DWV_TRACE=path` streams a JSONL span trace of the whole run, closed
//! with a metrics snapshot, ready for `dwv-trace <path>`.

#![forbid(unsafe_code)]

use dwv_bench::tables::render_rows;
use dwv_bench::{
    ablation, fig4, fig5, fig6, fig7, fig8, table1_acc, table1_oscillator, table1_three_dim,
    table2, tightness,
};
use std::fs;
use std::path::Path;

fn main() {
    let tracing = dwv_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("quick");
    let out_dir = Path::new("target/repro");
    fs::create_dir_all(out_dir).expect("create output dir");

    match cmd {
        "table1-acc" => print!("{}", render_rows("Table 1 — ACC, Linear", &table1_acc())),
        "table1-oscillator" => print!(
            "{}",
            render_rows("Table 1 — Oscillator, NN", &table1_oscillator())
        ),
        "table1-three-dim" => print!(
            "{}",
            render_rows("Table 1 — 3D systems, NN", &table1_three_dim())
        ),
        "table2" => {
            println!("== Table 2 — average runtime per learning iteration ==");
            for (name, secs) in table2() {
                println!("{name:<14} {:.3} ms", secs * 1e3);
            }
        }
        "tightness" => {
            println!("== Tightness (oscillator, POLAR abstraction) ==");
            println!("{:<45} {:>12} {:>6}", "setting", "per-call", "CI");
            for (name, per_call, ci) in tightness() {
                println!(
                    "{name:<45} {per_call:>11.3}s {:>6}",
                    ci.map_or("n/c".to_string(), |v| v.to_string())
                );
            }
        }
        "ablation" => {
            println!("== Ablation — gradient estimator x metric (ACC) ==");
            println!("{:<22} {:>14} {:>16}", "variant", "CI", "verifier calls");
            for (name, cis, calls) in ablation() {
                let mean_calls = calls.iter().sum::<usize>() / calls.len().max(1);
                println!(
                    "{name:<22} {:>14} {mean_calls:>16}",
                    dwv_bench::fmt_ci(&cis)
                );
            }
        }
        "fig4" | "fig5" | "fig6" | "fig7" | "fig8" => {
            let csv = match cmd {
                "fig4" => fig4(),
                "fig5" => fig5(),
                "fig6" => fig6(),
                "fig7" => fig7(),
                _ => fig8(),
            };
            let path = out_dir.join(format!("{cmd}.csv"));
            fs::write(&path, &csv).expect("write figure CSV");
            println!("wrote {} ({} lines)", path.display(), csv.lines().count());
        }
        "all" => {
            print!("{}", render_rows("Table 1 — ACC, Linear", &table1_acc()));
            print!(
                "{}",
                render_rows("Table 1 — Oscillator, NN", &table1_oscillator())
            );
            print!(
                "{}",
                render_rows("Table 1 — 3D systems, NN", &table1_three_dim())
            );
            println!("== Table 2 — average runtime per learning iteration ==");
            for (name, secs) in table2() {
                println!("{name:<14} {:.3} ms", secs * 1e3);
            }
            println!("== Tightness ==");
            for (name, per_call, ci) in tightness() {
                println!("{name:<45} {per_call:>11.3}s CI={ci:?}");
            }
            println!("== Ablation — gradient estimator x metric (ACC) ==");
            for (name, cis, calls) in ablation() {
                let mean_calls = calls.iter().sum::<usize>() / calls.len().max(1);
                println!(
                    "{name:<22} {:>14} {mean_calls:>8} calls",
                    dwv_bench::fmt_ci(&cis)
                );
            }
            for (name, csv) in [
                ("fig4", fig4()),
                ("fig5", fig5()),
                ("fig6", fig6()),
                ("fig7", fig7()),
                ("fig8", fig8()),
            ] {
                let path = out_dir.join(format!("{name}.csv"));
                fs::write(&path, &csv).expect("write figure CSV");
                println!("wrote {}", path.display());
            }
        }
        "quick" => {
            print!(
                "{}",
                render_rows("Table 1 — ACC, Linear (quick)", &table1_acc())
            );
            let csv = fig4();
            let path = out_dir.join("fig4.csv");
            fs::write(&path, &csv).expect("write figure CSV");
            println!("wrote {}", path.display());
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprintln!(
                "commands: table1-acc table1-oscillator table1-three-dim table2 tightness ablation fig4..fig8 all quick"
            );
            std::process::exit(2);
        }
    }

    if tracing {
        // Close the JSONL stream with a metrics snapshot so dwv-trace sees
        // the run's counter totals.
        dwv_obs::emit_snapshot();
        dwv_obs::flush();
    }
}
