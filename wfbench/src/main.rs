//! `wfbench`: the repository's benchmark.
//!
//! ```text
//! wfbench run --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!             [--smoke] [--out-dir <dir>]
//! wfbench compare <set-a.jsonl> <set-b.jsonl>
//! wfbench pin               # fingerprints.json for seeds 11 and 12
//! ```
//!
//! `run` prints a table of every metric of the mode by name and unit,
//! then, as the last line of standard output, the driver's result line,
//! and appends the run to `<out-dir>/results.jsonl`. It exits non-zero
//! if any operation failed.

mod compare;
mod durable;
mod engine_api;
mod harness;
mod ingest;
mod inputs;
mod layers;
mod live;
mod manifest;
mod report;
mod stats;
mod tiered;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed 11 is the default; seed 12 is held out.
const DEFAULT_SEED: u64 = 11;
const PINNED_SEEDS: [u64; 2] = [11, 12];
const FINGERPRINTS: &str = include_str!("../fingerprints.json");

fn pinned(workload: &str, seed: u64) -> Option<u64> {
    let v: serde_json::Value = serde_json::from_str(FINGERPRINTS).ok()?;
    let hex = v.get(workload)?.get(&seed.to_string())?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: wfbench run --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
         [--smoke] [--out-dir <dir>]\n       wfbench compare <set-a> <set-b>\n       wfbench pin",
        manifest::get().workloads.join("|")
    );
    ExitCode::from(2)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: manifest::get().run_seconds as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("wfbench/out"),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out-dir" => cli.out_dir = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run(args: &[String]) -> ExitCode {
    let Cli {
        workload,
        seed,
        mut seconds,
        trace,
        smoke,
        out_dir,
    } = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("wfbench: {e}");
            return usage();
        }
    };
    let Some(workload) = workload.filter(|w| manifest::get().workloads.contains(w)) else {
        eprintln!("wfbench: --workload must name one of the five workloads");
        return usage();
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        eprintln!("wfbench: --seconds must be positive");
        return usage();
    }
    if smoke {
        seconds = seconds.min(0.5);
    }
    let boxinfo = report::BoxInfo::read();
    if boxinfo.loadavg_1m > 0.5 {
        eprintln!(
            "wfbench: warning: 1-min loadavg is {} at start; numbers will be noisy",
            boxinfo.loadavg_1m
        );
    }
    let tmp = match harness::TmpRoot::create(&out_dir) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("wfbench: cannot create {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
    };
    let args = workloads::RunArgs {
        workload: &workload,
        seed,
        seconds,
        trace,
        smoke,
        pinned: if smoke { None } else { pinned(&workload, seed) },
    };
    let out = match workloads::run(&args, &tmp) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("wfbench: {e}");
            return ExitCode::from(3);
        }
    };
    drop(tmp);
    let missing = out.report.missing(trace);
    if !missing.is_empty() {
        eprintln!("wfbench: BENCHMARK.json lists metrics nothing measured: {missing:?}");
        return ExitCode::from(3);
    }
    if trace {
        let path = out_dir.join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&path, out.tracer.chrome_json()) {
            eprintln!("wfbench: cannot write {}: {e}", path.display());
        } else {
            eprintln!(
                "wfbench: {} spans written to {}",
                out.tracer.span_count(),
                path.display()
            );
        }
    }
    // A smoke run checks the harness; its numbers are not results.
    if !smoke {
        let path = out_dir.join("results.jsonl");
        let line = report::result_line(
            &workload,
            seed,
            seconds,
            trace,
            &boxinfo,
            &out.report,
            &out.ops,
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("wfbench: cannot append to {}: {e}", path.display());
        }
    }
    println!(
        "{workload} seed {seed} ({}), {} s, {} ops attempted, {} failed",
        if trace {
            "per-layer, traced"
        } else {
            "end-to-end"
        },
        seconds,
        out.ops.attempted,
        out.ops.failed
    );
    print!("{}", report::table(&out.report, trace));
    println!("{}", report::contract_line(&out.report, &out.ops, trace));
    if out.ops.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Print `fingerprints.json` for the pinned seeds of every workload.
fn pin() -> ExitCode {
    println!("{{");
    let workloads = &manifest::get().workloads;
    for (i, w) in workloads.iter().enumerate() {
        let cells: Vec<String> = PINNED_SEEDS
            .iter()
            .map(|&seed| {
                let fp = workloads::plan(w, seed, false).fingerprint;
                format!("\"{seed}\": \"{fp:#018x}\"")
            })
            .collect();
        let sep = if i + 1 < workloads.len() { "," } else { "" };
        println!("  \"{w}\": {{{}}}{sep}", cells.join(", "));
    }
    println!("}}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => match compare::compare(&args[1], &args[2]) {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => {
                eprintln!("wfbench: {e}");
                ExitCode::from(2)
            }
        },
        Some("pin") => pin(),
        _ => usage(),
    }
}
