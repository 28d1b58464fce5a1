//! One benchmark for the engine's three end-to-end surfaces: the
//! Figure 1 pipeline, served predictions and durable writes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig1_pipeline|serve_mixed|durable_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with every
//! end-to-end metric when `--trace 0` and every per-layer metric when
//! `--trace 1`. The line before it carries each metric's statistic and
//! sample count, the layer tables, and the run's environment. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod durable;
mod layers;
mod pipeline;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod workdir;
mod workload;

use report::{json_str, Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Environment variables that change the program being measured.
const REFUSED_ENV: &[&str] = &["MLCS_FAULTS", "MLCS_FORCE_ENCODING", "MLCS_DISABLE_STATS"];

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(workload::Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit being measured: `git rev-parse HEAD` where the working
/// directory is a repository's root, else `unknown`.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fig1_pipeline|serve_mixed|durable_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the program measured");
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let outcome = workload::run(args.workload, args.seed, args.seconds, args.trace, &mut report);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload.name());
        return ExitCode::from(1);
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let missing = report.missing(catalogue);
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
        eprintln!("{}", report.detail_line());
        return ExitCode::from(1);
    }
    for table in &report.tables {
        eprint!("{}", table.render());
    }
    for w in &report.wrong {
        eprintln!("perfbench: WRONG ANSWER: {w}");
    }
    report.note("workload", json_str(args.workload.name()));
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", args.trace);
    report.note("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()));
    report.note(
        "mlcs_threads",
        json_str(&std::env::var("MLCS_THREADS").unwrap_or_else(|_| "unset".to_owned())),
    );
    report.note("pool_workers", mlcs_columnar::parallel::pool_workers());
    report.note("commit", json_str(&commit()));
    println!("{}", report.detail_line());
    println!("{}", report.result_line(catalogue));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
