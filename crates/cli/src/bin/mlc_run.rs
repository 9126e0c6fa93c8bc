//! `mlc-run` — simulate a trace against a machine description file.
//!
//! ```text
//! mlc-run --trace trace.din --machine machine.mlc --warmup-frac 0.25
//! mlc-run --emit-base true          # print the base machine description
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use mlc_cli::args::{Args, Flag};
use mlc_cli::machine_file;
use mlc_cli::obs::{event_flags, obs_flags, EventSink, Observability};
use mlc_core::{fmt_ratio, AttributionReport, Table};
use mlc_obs::{digest_records_hex, RunManifest};
use mlc_sim::{simulate_with_warmup_attributed, HierarchyConfig, HierarchySim};

fn flags() -> Vec<Flag> {
    let mut flags = vec![
        Flag {
            name: "trace",
            value: "PATH",
            help: "input trace (.din = Dinero text, otherwise mlc binary)",
        },
        Flag {
            name: "machine",
            value: "PATH",
            help: "machine description file (default: the paper's base machine)",
        },
        Flag {
            name: "warmup-frac",
            value: "F",
            help: "fraction of the trace excluded from statistics (default 0.25)",
        },
        Flag {
            name: "emit-base",
            value: "BOOL",
            help: "print the base machine description and exit",
        },
        Flag {
            name: "lint",
            value: "",
            help: "lint the machine description before simulating",
        },
        Flag {
            name: "deny-warnings",
            value: "",
            help: "with --lint, treat warnings as failures",
        },
        mlc_cli::trace_faults_flag(),
    ];
    flags.extend(obs_flags());
    flags.extend(event_flags());
    flags
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(
        "mlc-run: trace-driven multi-level cache hierarchy simulation",
        flags(),
        std::env::args(),
    )?;
    if args.get_or("emit-base", false)? {
        print!("{}", machine_file::base_machine_text());
        return Ok(());
    }

    let trace_path: PathBuf = args.require("trace")?;
    let config: HierarchyConfig = match args.get("machine") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            if args.has("lint") {
                let outcome = mlc_cli::lint::lint_machine_text(&text);
                eprint!("{}", outcome.report.render_human(path));
                if outcome.report.should_fail(args.has("deny-warnings")) {
                    return Err("machine description failed lint".into());
                }
            }
            machine_file::parse_machine(&text)?
        }
        None => {
            let config = mlc_sim::machine::base_machine();
            if args.has("lint") {
                let report = mlc_cli::lint::lint_config(&config);
                eprint!("{}", report.render_human("base machine"));
                if report.should_fail(args.has("deny-warnings")) {
                    return Err("machine description failed lint".into());
                }
            }
            config
        }
    };
    let warmup_frac: f64 = args.get_or("warmup-frac", 0.25)?;
    let fault_policy = mlc_cli::parse_trace_faults(&args)?;
    let obs = Observability::from_args(&args)?;
    let events = EventSink::from_args(&args)?;

    eprintln!("reading {} …", trace_path.display());
    let timer = obs.metrics.time_phase("read_trace");
    let (trace, ingest, sidecar) = mlc_cli::read_trace_file_with(&trace_path, fault_policy)?;
    timer.stop();
    if ingest.quarantined > 0 {
        eprintln!(
            "warning: quarantined {} malformed trace record(s){}{}",
            ingest.quarantined,
            if ingest.truncated {
                " (input truncated)"
            } else {
                ""
            },
            sidecar
                .map(|p| format!("; see {}", p.display()))
                .unwrap_or_default()
        );
    }
    obs.metrics.add("trace.quarantined", ingest.quarantined);
    let warmup = (trace.len() as f64 * warmup_frac.clamp(0.0, 0.95)) as usize;
    eprintln!(
        "simulating {} references ({} warmup) on a {}-level hierarchy …",
        trace.len(),
        warmup,
        config.depth()
    );

    let mut manifest = RunManifest::new("mlc-run", env!("CARGO_PKG_VERSION"));
    manifest.command(std::env::args().skip(1));
    if obs.metrics.is_enabled() {
        let timer = obs.metrics.time_phase("digest_trace");
        let digest = digest_records_hex(&trace);
        timer.stop();
        manifest.trace(
            &trace_path.display().to_string(),
            trace.len() as u64,
            warmup as u64,
            &digest,
        );
    }
    manifest.isa(HierarchySim::isa());
    manifest.param("warmup_frac", warmup_frac);
    manifest.param(
        "trace_faults",
        args.get("trace-faults").unwrap_or("fail").to_string(),
    );
    manifest.param("trace_quarantined", ingest.quarantined);
    manifest.param("depth", config.depth() as u64);
    manifest.param("machine", machine_file::render_machine(&config));

    if let Some(every) = events.sample_every() {
        manifest.param("events_every", every);
    }
    let run = simulate_with_warmup_attributed(
        config.clone(),
        &trace,
        warmup,
        &obs.metrics,
        events.sample_every(),
    )?;
    let result = &run.result;
    println!(
        "cycles {}  instructions {}  CPI {:.3}  time {:.3} ms",
        result.total_cycles,
        result.instructions,
        result.cpi().unwrap_or(f64::NAN),
        result.execution_time_ns() / 1e6
    );
    let mut table = Table::new("read miss ratios", &["level", "local", "global"]);
    for (i, level) in result.levels.iter().enumerate() {
        table.row([
            level.name.clone(),
            fmt_ratio(result.local_read_miss_ratio(i).unwrap_or(f64::NAN)),
            fmt_ratio(result.global_read_miss_ratio(i).unwrap_or(f64::NAN)),
        ]);
    }
    println!("{table}");
    println!(
        "memory: {} reads, {} writes, {} wait cycles; write stalls/store {:.2}",
        result.memory.reads,
        result.memory.writes,
        result.memory.wait_ticks,
        result.write_cycles_per_store().unwrap_or(f64::NAN)
    );
    if args.has("attribution") {
        let report = AttributionReport::from_run(&config, result, &run.ledger);
        println!("{}", report.table());
        match report.total_relative_error() {
            Some(err) => println!(
                "Equation 1 total off by {:+.1}% (refresh and overlap are unmodelled)",
                100.0 * err
            ),
            None => println!("Equation 1 does not apply (machine is not two-level)"),
        }
    }
    if let Some(tracer) = &run.tracer {
        events.write(
            tracer,
            &run.level_names,
            result.cpu_cycle_ns,
            "mlc-run",
            env!("CARGO_PKG_VERSION"),
        )?;
    }
    obs.finish(&mut manifest)?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlc-run: {e}");
            ExitCode::FAILURE
        }
    }
}
