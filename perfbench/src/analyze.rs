//! `analyze`: full characterisation of one trace per preset — stack
//! distances, 3C over a size ladder, Equation 1 attribution on several
//! machine shapes, the Figure 3-1 miss-ratio curve and the guaranteed
//! bounds. The scalar engine, the functional cache, stack distances and
//! wcet do the work here; the lane engine does none.

use std::path::Path;
use std::time::Instant;

use mlc_cache::{ByteSize, CacheConfig, WritePolicy};
use mlc_core::{classify_misses, size_ladder, AttributionReport, Explorer};
use mlc_obs::Metrics;
use mlc_sim::machine::{base_machine, BaseMachine};
use mlc_sim::{HierarchyConfig, LevelCacheConfig, LevelConfig};
use mlc_trace::stackdist::lru_stack_distances;
use mlc_trace::synth::workload::Preset;
use mlc_trace::TraceRecord;

use crate::gates;
use crate::inputs::{read_trace, repeated_setup, OutputDigest, TraceInput};
use crate::layers;
use crate::report::{Report, Samples, Spans};
use crate::Args;

/// Block size of the stack-distance and 3C analyses.
pub const BLOCK: u64 = 32;

/// Two presets with different footprints: user-only R2000 and an
/// OS-heavy ATUM-like trace.
const PRESETS: [Preset; 2] = [Preset::Mips1, Preset::Ultrix];

/// L2 sizes of the Figure 3-1 miss-ratio curve.
pub fn curve_sizes() -> Vec<ByteSize> {
    size_ladder(ByteSize::kib(16), ByteSize::mib(2))
}

/// Cache sizes of the 3C breakdown (direct-mapped, [`BLOCK`]-byte
/// blocks).
pub fn three_c_sizes() -> Vec<ByteSize> {
    size_ladder(ByteSize::kib(4), ByteSize::kib(512))
}

pub fn three_c_config(size: ByteSize) -> CacheConfig {
    CacheConfig::builder()
        .total(size)
        .block_bytes(BLOCK)
        .build()
        .expect("power-of-two direct-mapped cache")
}

/// The machine shapes attribution runs on: the base two-level machine,
/// a three-level hierarchy, a write-through L1 and a 4-way L2.
pub fn shapes() -> Vec<(&'static str, HierarchyConfig)> {
    let mut three_level = base_machine();
    let l3 = CacheConfig::builder()
        .total(ByteSize::mib(2))
        .block_bytes(32)
        .build()
        .expect("valid L3");
    three_level
        .levels
        .push(LevelConfig::new("L3", LevelCacheConfig::Unified(l3), 6));

    let mut write_through = base_machine();
    if let LevelCacheConfig::Split { dcache, .. } = &mut write_through.levels[0].cache {
        let g = dcache.geometry();
        *dcache = CacheConfig::builder()
            .total(g.total())
            .block_bytes(g.block_bytes())
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .expect("valid write-through L1");
    }
    let four_way = BaseMachine::new()
        .l2_ways(4)
        .build()
        .expect("valid 4-way L2");
    vec![
        ("base", base_machine()),
        ("three-level", three_level),
        ("write-through-l1", write_through),
        ("l2-4way", four_way),
    ]
}

/// What one characterisation produced, and its gate verdicts.
#[derive(Debug)]
pub struct Characterisation {
    pub digest: OutputDigest,
    pub ledger: Vec<(&'static str, Result<(), String>)>,
    pub bounds: mlc_wcet::BoundsReport,
}

/// Characterises `records` with the calls `mlc-analyze` makes, each
/// recorded as a span under `parent`.
pub fn characterise(
    records: &[TraceRecord],
    spans: &mut Spans,
    parent: Option<usize>,
) -> Characterisation {
    let mut digest = OutputDigest::default();
    let warmup = records.len() / 4;
    let hist = spans.record("trace.stackdist", parent, |_, _| {
        lru_stack_distances(records.iter().copied(), BLOCK)
    });
    digest.u64(hist.cold_misses());
    digest.u64(hist.total());
    digest.f64(hist.mean_distance().unwrap_or(f64::NAN));

    spans.record("core.three_c", parent, |_, _| {
        for size in three_c_sizes() {
            let c = classify_misses(three_c_config(size), records);
            for v in [c.compulsory, c.capacity, c.conflict, c.total_misses] {
                digest.u64(v);
            }
        }
    });

    let ledger = spans.record("core.attribution", parent, |_, _| {
        shapes()
            .into_iter()
            .map(|(name, config)| {
                let run = mlc_sim::simulate_with_warmup_attributed(
                    config.clone(),
                    records,
                    warmup,
                    &Metrics::default(),
                    None,
                )
                .expect("shapes are valid");
                let report = AttributionReport::from_run(&config, &run.result, &run.ledger);
                digest.u64(run.result.total_cycles);
                digest.u64(run.ledger.total());
                digest.f64(report.total_relative_error().unwrap_or(f64::NAN));
                (name, gates::ledger_conserves(&run))
            })
            .collect()
    });

    let curve = spans.record("core.curve", parent, |_, _| {
        Explorer::new(records, warmup).miss_ratio_curve(&BaseMachine::new(), &curve_sizes())
    });
    for p in &curve {
        digest.f64(p.local);
        digest.f64(p.global);
        digest.f64(p.solo);
    }

    let bounds = spans.record("wcet.analyze", parent, |_, _| {
        mlc_wcet::analyze(&base_machine(), records).expect("base machine is supported")
    });
    for b in &bounds.levels {
        digest.u64(b.lo);
        digest.u64(b.hi);
    }
    digest.u64(bounds.read_cycles_lo);
    digest.u64(bounds.read_cycles_hi);
    Characterisation {
        digest,
        ledger,
        bounds,
    }
}

/// One end-to-end operation: trace file to full characterisation.
fn analyze_file(path: &Path, spans: &mut Spans) -> (Characterisation, usize) {
    spans.record("analyze.op", None, |sp, me| {
        let records = sp.record("trace.decode", me, |_, _| read_trace(path));
        (characterise(&records, sp, me), records.len())
    })
}

/// Records per preset trace.
fn records(args: &Args) -> usize {
    if args.quick {
        20_000
    } else {
        150_000
    }
}

pub fn run(args: &Args, report: &mut Report) -> String {
    let n = records(args);
    let (setup_s, inputs) = repeated_setup(3, || {
        PRESETS
            .iter()
            .map(|&p| TraceInput::generate(&args.work, p, n, args.seed))
            .collect::<Vec<_>>()
    });
    crate::report::print_provenance("analyze", args.seed, &[]);

    // Gate round, untimed: ledger conservation on every shape and the
    // bounds oracle (a cold simulation must land inside the bounds).
    let mut digest = OutputDigest::default();
    let mut reference = Vec::new();
    for input in &inputs {
        let c = characterise(&input.records, &mut Spans::new(false), None);
        for (shape, verdict) in &c.ledger {
            report.check(
                &format!("{}.ledger.{shape}", input.preset.name()),
                verdict.clone(),
            );
        }
        let cold = mlc_sim::simulate(base_machine(), input.records.iter().copied())
            .expect("base machine is valid");
        let measured: Vec<u64> = cold.levels.iter().map(|l| l.cache.read_misses()).collect();
        report.check(
            &format!("{}.bounds", input.preset.name()),
            gates::bounds_contain(&c.bounds, &measured),
        );
        digest.absorb(&c.digest);
        reference.push(c.digest.finish());
    }

    if args.corrupt {
        reference[0].push('!');
    }

    let mut per_preset = vec![Samples::default(); PRESETS.len()];
    let mut traced = vec![Samples::default(); PRESETS.len()];
    let mut spans = Spans::new(args.trace);
    let mut records_done = 0usize;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let deadline = Instant::now() + args.measure_time();
    let mut round = 0usize;
    while Instant::now() < deadline || round == 0 {
        // With tracing on, rounds alternate between recording spans and
        // not, so the two can be compared.
        let record = args.trace && round % 2 == 1;
        for (i, input) in inputs.iter().enumerate() {
            let mut quiet = Spans::new(false);
            let sp = if record { &mut spans } else { &mut quiet };
            let t = Instant::now();
            let (c, len) = analyze_file(&input.path, sp);
            let elapsed = t.elapsed();
            attempted += 1;
            let ok = c.digest.finish() == reference[i] && c.ledger.iter().all(|(_, v)| v.is_ok());
            if !ok {
                failed += 1;
            }
            if record {
                traced[i].push(elapsed);
            } else {
                per_preset[i].push(elapsed);
                records_done += len;
            }
        }
        round += 1;
    }
    report.ops(attempted, failed);
    report.check(
        "rounds.identical-outputs",
        if failed == 0 {
            Ok(())
        } else {
            Err(format!(
                "{failed} characterisation(s) differed from the gate round"
            ))
        },
    );

    let timed: f64 = per_preset.iter().map(Samples::sum).sum();
    report.median(
        "setup_s",
        &setup_s,
        "s",
        "trace generation and encoding, 3 repetitions",
    );
    report.median(
        "analyze_s",
        &per_preset[0],
        "s",
        "mips1 trace file to full characterisation",
    );
    report.median(
        "analyze_s.ultrix",
        &per_preset[1],
        "s",
        "ultrix trace file to full characterisation",
    );
    report.median("op_p50_ms", &per_preset[0], "ms", "= analyze_s");
    report.median("op2_p50_ms", &per_preset[1], "ms", "= analyze_s.ultrix");
    report.metric(
        "work_per_s",
        records_done as f64 / timed,
        "1/s",
        per_preset.iter().map(Samples::len).sum(),
        "trace records characterised per second",
    );
    report.metric(
        "peak_rss_mb",
        crate::report::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
        0,
        "VmHWM",
    );

    if args.trace {
        crate::report_tracing_overhead(report, &per_preset[0], &traced[0]);
        spans.print_summary(
            "analyze.op",
            &[
                "trace.decode",
                "trace.stackdist",
                "core.three_c",
                "core.attribution",
                "core.curve",
                "wcet.analyze",
            ],
        );
        let _ = spans.write(&args.work.join("analyze-spans.jsonl"));
        layers::probe_all(report, &inputs[0]);
        layers::probe_serve_fresh(report, &args.work, &inputs[0]);
    }
    digest.finish()
}
