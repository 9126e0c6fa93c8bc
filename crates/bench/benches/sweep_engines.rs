//! Engineering benchmark: exhaustive vs one-pass grid sweep engines,
//! plus per-stage pipeline throughput.
//!
//! Times `Explorer::l2_grid_with` under both engines on the acceptance
//! grid (8 L2 sizes × 24 cycle times — one full-width lane pass per
//! size), verifies the engines agree cycle-exact, and emits a
//! machine-readable `BENCH_sweep.json` (schema `mlc-bench/1`, rendered
//! by `mlc-obs`) at the workspace root so the repo's perf trajectory is
//! tracked run over run. A second report, `BENCH_ingest.json`, breaks
//! the pipeline into stages — binary trace ingestion (the `Read` API,
//! a copy plus the slice decoder, vs the slice API alone), the
//! solo-miss stack pass (serial vs set-sharded), and the grid sweep —
//! so stage-level regressions are visible even when the end-to-end
//! number holds.
//!
//! Environment knobs:
//!
//! * `MLC_SWEEP_RECORDS` — references per trace (default 200,000).
//! * `MLC_SWEEP_CYCLES` — cycle-time grid depth (default 24).
//! * `MLC_BENCH_SAMPLES` — timed repetitions per engine (default 3).
//! * `MLC_BENCH_OUT` — where to write the sweep JSON (default
//!   `<workspace>/BENCH_sweep.json`).
//! * `MLC_BENCH_INGEST_OUT` — where to write the per-stage JSON
//!   (default `<workspace>/BENCH_ingest.json`).
//!
//! Run with `cargo bench -p mlc-bench --bench sweep_engines`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mlc_cache::ByteSize;
use mlc_core::{size_ladder, verify_grids, DesignGrid, Explorer, SoloMissSweep, SweepEngine};
use mlc_obs::json::JsonValue;
use mlc_sim::machine::BaseMachine;
use mlc_trace::binary::{read_binary_with, write_compressed};
use mlc_trace::slice::read_binary_slice_with;
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::FaultPolicy;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn out_path() -> PathBuf {
    if let Ok(p) = std::env::var("MLC_BENCH_OUT") {
        return PathBuf::from(p);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json")
}

fn ingest_out_path() -> PathBuf {
    if let Ok(p) = std::env::var("MLC_BENCH_INGEST_OUT") {
        return PathBuf::from(p);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json")
}

/// Best (minimum) wall time of `samples` runs of `f` (after one warmup
/// run); see `time_engine` for why minimum and not median.
fn time_stage<R>(samples: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f()); // warmup
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

fn save(path: &std::path::Path, json: &str) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}

/// Best (minimum) wall time of `samples` runs (after one warmup run),
/// plus the grid from the last run. The work is deterministic, so the
/// minimum is the standard low-variance estimator on shared runners:
/// scheduling noise only ever *adds* time, and a median drifts with
/// ambient load while the minimum converges on the engine's real cost.
fn time_engine(
    engine: SweepEngine,
    explorer: &Explorer<'_>,
    base: &BaseMachine,
    sizes: &[ByteSize],
    cycles: &[u64],
    samples: usize,
) -> (Duration, DesignGrid) {
    let mut grid = explorer.l2_grid_with(engine, base, sizes, cycles, 1); // warmup
    let mut best = Duration::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        grid = std::hint::black_box(explorer.l2_grid_with(engine, base, sizes, cycles, 1));
        best = best.min(start.elapsed());
    }
    (best, grid)
}

fn main() {
    let records = env_usize("MLC_SWEEP_RECORDS", 200_000);
    let samples = env_usize("MLC_BENCH_SAMPLES", 3).max(1);
    let warmup = records / 4;
    let sizes = size_ladder(ByteSize::kib(16), ByteSize::mib(2)); // 8 sizes
                                                                  // 24 cycle times: exactly one full-width pass of the runtime lane
                                                                  // dispatch per size — the widest monomorphized width, so the shared
                                                                  // functional pass amortizes over the deepest cycle ladder.
    let cycles: Vec<u64> = (1..=env_usize("MLC_SWEEP_CYCLES", 24) as u64).collect();
    let points = sizes.len() * cycles.len();

    let trace = MultiProgramGenerator::new(Preset::Vms1.config(42))
        .expect("preset is valid")
        .generate_records(records);
    let explorer = Explorer::new(&trace, warmup);
    let base = BaseMachine::new();

    println!(
        "sweep_engines: {} sizes x {} cycle times, {records} records, {samples} samples/engine\n",
        sizes.len(),
        cycles.len()
    );

    let (t_ex, grid_ex) = time_engine(
        SweepEngine::Exhaustive,
        &explorer,
        &base,
        &sizes,
        &cycles,
        samples,
    );
    let (t_op, grid_op) = time_engine(
        SweepEngine::OnePass,
        &explorer,
        &base,
        &sizes,
        &cycles,
        samples,
    );

    verify_grids(&grid_ex, &grid_op).expect("engines must agree cycle-exact");

    let speedup = t_ex.as_secs_f64() / t_op.as_secs_f64();
    // Effective throughput: grid points priced per second of wall time,
    // scaled by trace length (one "record" = one reference priced at one
    // grid point).
    let rps = |t: Duration| (points * records) as f64 / t.as_secs_f64();
    println!(
        "exhaustive  best   {t_ex:>9.3?}  {:>10.2} Mrec/s",
        rps(t_ex) / 1e6
    );
    println!(
        "onepass     best   {t_op:>9.3?}  {:>10.2} Mrec/s",
        rps(t_op) / 1e6
    );
    println!("speedup     {speedup:.2}x (engines verified cycle-exact)");

    let engine_entry = |t: Duration| {
        JsonValue::object([
            ("wall_s".into(), t.as_secs_f64().into()),
            ("records_per_s".into(), rps(t).round().into()),
        ])
    };
    let json = JsonValue::object([
        ("schema".into(), "mlc-bench/1".into()),
        ("bench".into(), "sweep_engines".into()),
        ("records".into(), (records as u64).into()),
        ("warmup".into(), (warmup as u64).into()),
        (
            "grid".into(),
            JsonValue::object([
                ("sizes".into(), (sizes.len() as u64).into()),
                ("cycles".into(), (cycles.len() as u64).into()),
                ("ways".into(), 1u64.into()),
            ]),
        ),
        ("samples".into(), (samples as u64).into()),
        ("exhaustive".into(), engine_entry(t_ex)),
        ("onepass".into(), engine_entry(t_op)),
        (
            "speedup".into(),
            ((speedup * 1000.0).round() / 1000.0).into(),
        ),
        ("verified_cycle_exact".into(), true.into()),
    ])
    .to_string_pretty();
    save(&out_path(), &json);

    // ------------------------------------------------------------------
    // Per-stage throughput: how fast each stage of the pipeline moves
    // records on this workload — ingestion (the `Read` API vs the slice
    // API), the Mattson stack pass (serial vs set-sharded),
    // and the grid sweep from above.
    // ------------------------------------------------------------------
    println!("\nper-stage throughput ({records} records):");
    let stage_rps = |t: Duration, n: usize| n as f64 / t.as_secs_f64();
    let stage_entry = |t: Duration, n: usize| {
        JsonValue::object([
            ("wall_s".into(), t.as_secs_f64().into()),
            ("records_per_s".into(), stage_rps(t, n).round().into()),
        ])
    };

    // Ingest: decode the compressed binary layout from memory. Both
    // entries run the one slice decoder; "read" times the `Read` API,
    // which first copies the bytes out of the reader, so the speedup is
    // the cost of that copy. (The JSON keeps its `read`/`slice` names.)
    let mut encoded = Vec::new();
    write_compressed(&mut encoded, &trace).expect("in-memory encode");
    let t_ingest_read = time_stage(samples, || {
        read_binary_with(&encoded[..], FaultPolicy::Fail, None).expect("clean payload")
    });
    let t_ingest_slice = time_stage(samples, || {
        read_binary_slice_with(&encoded, FaultPolicy::Fail, None).expect("clean payload")
    });
    let ingest_speedup = t_ingest_read.as_secs_f64() / t_ingest_slice.as_secs_f64();
    println!(
        "ingest  read (copy + slice) {:>10.2} Mrec/s   slice {:>10.2} Mrec/s   speedup {ingest_speedup:.2}x",
        stage_rps(t_ingest_read, records) / 1e6,
        stage_rps(t_ingest_slice, records) / 1e6,
    );

    // Stack: the solo-miss stack sweep over the same size ladder, at the
    // grid's direct-mapped 32-byte-block geometry. The shard count is
    // what `run_sharded` would pick on this machine; serial and sharded
    // results are bit-identical (asserted in mlc-core's tests).
    let shards = std::thread::available_parallelism()
        .map(|v| v.get() as u64)
        .unwrap_or(1)
        .next_power_of_two()
        .min(SoloMissSweep::max_shards(32, 1, &sizes));
    let t_stack_serial = time_stage(samples, || {
        SoloMissSweep::run(32, 1, &sizes, &trace, warmup)
    });
    let t_stack_sharded = time_stage(samples, || {
        SoloMissSweep::run_sharded(32, 1, &sizes, &trace, warmup)
    });
    let stack_speedup = t_stack_serial.as_secs_f64() / t_stack_sharded.as_secs_f64();
    println!(
        "stack   serial{:>10.2} Mrec/s   shard {:>10.2} Mrec/s   speedup {stack_speedup:.2}x ({shards} shards)",
        stage_rps(t_stack_serial, records) / 1e6,
        stage_rps(t_stack_sharded, records) / 1e6,
    );

    let stage = |a: &str, ta: Duration, na: usize, b: &str, tb: Duration, nb: usize| {
        JsonValue::object([
            (a.into(), stage_entry(ta, na)),
            (b.into(), stage_entry(tb, nb)),
            (
                "speedup".into(),
                ((ta.as_secs_f64() / tb.as_secs_f64() * 1000.0).round() / 1000.0).into(),
            ),
        ])
    };
    let mut stack_stage = stage(
        "serial",
        t_stack_serial,
        records,
        "sharded",
        t_stack_sharded,
        records,
    );
    if let JsonValue::Object(fields) = &mut stack_stage {
        fields.push(("shards".into(), shards.into()));
    }
    let ingest_json = JsonValue::object([
        ("schema".into(), "mlc-bench/1".into()),
        ("bench".into(), "ingest_stages".into()),
        ("records".into(), (records as u64).into()),
        ("warmup".into(), (warmup as u64).into()),
        ("samples".into(), (samples as u64).into()),
        (
            "stages".into(),
            JsonValue::object([
                (
                    "ingest".into(),
                    stage(
                        "read",
                        t_ingest_read,
                        records,
                        "slice",
                        t_ingest_slice,
                        records,
                    ),
                ),
                ("stack".into(), stack_stage),
                (
                    "sweep".into(),
                    stage(
                        "exhaustive",
                        t_ex,
                        points * records,
                        "onepass",
                        t_op,
                        points * records,
                    ),
                ),
            ]),
        ),
    ])
    .to_string_pretty();
    save(&ingest_out_path(), &ingest_json);
}
