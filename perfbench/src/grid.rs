//! `grid`: speed–size grids through the calls `mlc-sweep` makes — read
//! and slice-decode the trace file, then `Explorer::try_l2_rows` with
//! the one-pass engine. Each round prices a full-width direct-mapped
//! grid (one W24 lane pass per size) and a narrow 4-way grid (W6), so
//! wide and narrow lane passes are both measured. The lane engine does
//! nearly all the work; the scalar engine, stack pass, 3C and bounds do
//! none.

use std::path::Path;
use std::time::Instant;

use mlc_cache::ByteSize;
use mlc_core::{size_ladder, DesignGrid, Explorer, PartialGrid, SweepEngine};
use mlc_sim::machine::BaseMachine;
use mlc_sim::TimingSweepSim;
use mlc_trace::synth::workload::Preset;

use crate::gates;
use crate::inputs::{read_trace, repeated_setup, GridSpec, OutputDigest, TraceInput};
use crate::layers;
use crate::report::{Report, Samples, Spans};
use crate::Args;

/// 8 L2 sizes × 24 cycle times, direct-mapped: one W24 pass per size.
pub fn full_width_spec() -> GridSpec {
    GridSpec {
        sizes: size_ladder(ByteSize::kib(16), ByteSize::mib(2)),
        cycles: (1..=24).collect(),
        ways: 1,
    }
}

/// 8 L2 sizes × 6 cycle times, 4-way: one W6 pass per size.
pub fn narrow_spec() -> GridSpec {
    GridSpec {
        sizes: size_ladder(ByteSize::kib(16), ByteSize::mib(2)),
        cycles: vec![1, 2, 3, 4, 6, 8],
        ways: 4,
    }
}

/// The lane width a grid row of `spec` runs at.
pub fn lane_width(spec: &GridSpec) -> usize {
    let configs: Vec<_> = spec
        .cycles
        .iter()
        .map(|&c| layers::machine(spec.sizes[0], c, spec.ways))
        .collect();
    TimingSweepSim::new(&configs)
        .expect("grid lanes are valid")
        .width()
}

/// One end-to-end operation: trace file to grid, as `mlc-sweep` runs it.
fn sweep_file(path: &Path, spec: &GridSpec, spans: &mut Spans) -> PartialGrid {
    spans.record("grid.op", None, |sp, me| {
        let records = sp.record("trace.decode", me, |_, _| read_trace(path));
        let warmup = records.len() / 4;
        let todo: Vec<usize> = (0..spec.sizes.len()).collect();
        let results = sp.record("core.grid", me, |_, _| {
            Explorer::new(&records, warmup).try_l2_rows(
                SweepEngine::OnePass,
                &BaseMachine::new(),
                &spec.sizes,
                &spec.cycles,
                spec.ways,
                &todo,
                |_| {},
            )
        });
        let mut rows = Vec::new();
        let mut failures = Vec::new();
        for r in results {
            match r {
                Ok(row) => rows.push(row),
                Err(f) => failures.push(f),
            }
        }
        PartialGrid {
            grid: DesignGrid::from_rows(&spec.sizes, &spec.cycles, spec.ways, &rows),
            failures,
        }
    })
}

fn records(args: &Args) -> usize {
    if args.quick {
        20_000
    } else {
        300_000
    }
}

pub fn run(args: &Args, report: &mut Report) -> String {
    let n = records(args);
    let (setup_s, input) = repeated_setup(3, || {
        TraceInput::generate(&args.work, Preset::Vms1, n, args.seed)
    });
    let specs = [full_width_spec(), narrow_spec()];
    let widths: Vec<usize> = specs.iter().map(lane_width).collect();
    crate::report::print_provenance("grid", args.seed, &widths);

    // Gate: the one-pass engine against the exhaustive one on small
    // sub-grids of both shapes, over the head of the trace.
    let head = &input.records[..input.records.len().min(40_000)];
    for (name, ways) in [("dm", 1), ("4way", 4)] {
        let spec = GridSpec {
            sizes: vec![ByteSize::kib(64), ByteSize::kib(512)],
            cycles: vec![1, 4, 9],
            ways,
        };
        let onepass = Explorer::new(head, head.len() / 4).try_l2_grid_with(
            SweepEngine::OnePass,
            &BaseMachine::new(),
            &spec.sizes,
            &spec.cycles,
            ways,
        );
        report.check(
            &format!("grid.engines-agree.{name}"),
            gates::complete(&onepass)
                .and_then(|()| gates::engines_agree(head, head.len() / 4, &spec, &onepass.grid)),
        );
    }

    // Reference round, untimed: every later grid must match it.
    let mut digest = OutputDigest::default();
    let mut reference: Vec<DesignGrid> = specs
        .iter()
        .map(|spec| {
            let g = sweep_file(&input.path, spec, &mut Spans::new(false));
            report.check(
                &format!("grid.complete.w{}", lane_width(spec)),
                gates::complete(&g),
            );
            digest.grid(&g.grid);
            g.grid
        })
        .collect();
    if args.corrupt {
        reference[0].total[0][0] ^= 1;
    }

    let mut times = vec![Samples::default(); specs.len()];
    let mut traced = vec![Samples::default(); specs.len()];
    let mut spans = Spans::new(args.trace);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut cell_records = 0f64;
    let deadline = Instant::now() + args.measure_time();
    let mut round = 0usize;
    while Instant::now() < deadline || round == 0 {
        let record = args.trace && round % 2 == 1;
        for (i, spec) in specs.iter().enumerate() {
            let mut quiet = Spans::new(false);
            let sp = if record { &mut spans } else { &mut quiet };
            let t = Instant::now();
            let g = sweep_file(&input.path, spec, sp);
            let elapsed = t.elapsed();
            attempted += 1;
            if gates::complete(&g)
                .and_then(|()| gates::same_grid(&g.grid, &reference[i]))
                .is_err()
            {
                failed += 1;
            }
            if record {
                traced[i].push(elapsed);
            } else {
                times[i].push(elapsed);
                cell_records += (n * spec.cells()) as f64;
            }
        }
        round += 1;
    }
    report.ops(attempted, failed);
    report.check(
        "rounds.identical-grids",
        if failed == 0 {
            Ok(())
        } else {
            Err(format!(
                "{failed} grid(s) incomplete or different from the reference"
            ))
        },
    );

    let cells = specs[0].cells() as f64;
    let sweep_s = times[0].median().unwrap_or(f64::NAN);
    report.median(
        "setup_s",
        &setup_s,
        "s",
        "trace generation and encoding, 3 repetitions",
    );
    report.median(
        "sweep_s",
        &times[0],
        "s",
        "8x24 direct-mapped grid (W24), trace file to grid",
    );
    report.median(
        "sweep_narrow_s",
        &times[1],
        "s",
        "8x6 4-way grid (W6), trace file to grid",
    );
    report.metric(
        "sweep_cell_rec_per_s",
        n as f64 * cells / sweep_s,
        "1/s",
        times[0].len(),
        "effective: records x grid cells per second, 8x24 grid",
    );
    report.median("op_p50_ms", &times[0], "ms", "= sweep_s");
    report.median("op2_p50_ms", &times[1], "ms", "= sweep_narrow_s");
    report.metric(
        "work_per_s",
        cell_records / (times[0].sum() + times[1].sum()),
        "1/s",
        times[0].len() + times[1].len(),
        "effective records x grid cells per second over both grids",
    );
    report.metric(
        "peak_rss_mb",
        crate::report::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
        0,
        "VmHWM",
    );

    if args.trace {
        crate::report_tracing_overhead(report, &times[0], &traced[0]);
        spans.print_summary("grid.op", &["trace.decode", "core.grid"]);
        let _ = spans.write(&args.work.join("grid-spans.jsonl"));
        layers::probe_all(report, &input);
        layers::probe_serve_fresh(report, &args.work, &input);
    }
    digest.finish()
}
