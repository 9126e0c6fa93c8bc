//! The repository benchmark. One command per workload:
//!
//! ```text
//! mlc-perfbench --workload grid|analyze|serve --seed N --seconds S --trace 0|1
//!               [--work DIR] [--daemon PATH] [--quick] [--corrupt]
//! ```
//!
//! Inputs are generated from `--seed`; the run measures for about
//! `--seconds`, checks its outputs, and prints one line per metric
//! (`metric <name> <value> <unit> n=<samples>`), one per correctness
//! check, a digest of every simulated output, and finally one JSON
//! object with every metric. `--trace 1` adds the per-layer numbers
//! and the tracing overhead. See `README.md` beside this package.

mod analyze;
mod gates;
mod grid;
mod inputs;
mod layers;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Report, Samples};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for traces, stores and span files.
    pub work: PathBuf,
    /// The `mlc-serve` binary the `serve` workload starts.
    pub daemon: Option<PathBuf>,
    /// Tiny inputs, for the self-test.
    pub quick: bool,
    /// Corrupts one reference output, for the self-test: the run's
    /// correctness gate must then count failures.
    pub corrupt: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            work: PathBuf::from(".bench_work"),
            daemon: None,
            quick: false,
            corrupt: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--quick" || flag == "--corrupt" {
                args.quick |= flag == "--quick";
                args.corrupt |= flag == "--corrupt";
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = num(&value)?,
                "--seconds" => args.seconds = num(&value)?,
                "--trace" => args.trace = num(&value)? != 0,
                "--work" => args.work = PathBuf::from(value),
                "--daemon" => args.daemon = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// How long the measured loop runs.
    pub fn measure_time(&self) -> Duration {
        Duration::from_secs(self.seconds.max(1))
    }
}

/// The traced run's end-to-end median beside the untraced one from the
/// same run, and their difference.
pub fn report_tracing_overhead(report: &mut Report, untraced: &Samples, traced: &Samples) {
    let (u, t) = (untraced.median(), traced.median());
    report.median(
        "tracing.op_ms.untraced",
        untraced,
        "ms",
        "operations run without spans",
    );
    report.median(
        "tracing.op_ms.traced",
        traced,
        "ms",
        "operations run with spans",
    );
    if let (Some(u), Some(t)) = (u, t) {
        report.metric(
            "tracing.overhead_ms",
            (t - u) * 1e3,
            "ms",
            0,
            "traced minus untraced median",
        );
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mlc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("mlc-perfbench: {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    let digest = match args.workload.as_str() {
        "grid" => grid::run(&args, &mut report),
        "analyze" => analyze::run(&args, &mut report),
        "serve" => serve::run(&args, &mut report),
        other => {
            eprintln!("mlc-perfbench: unknown workload {other:?} (grid, analyze, serve)");
            return ExitCode::from(2);
        }
    };
    println!("digest {digest}  # every simulated output of the run");
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
