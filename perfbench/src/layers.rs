//! Per-layer probes for the traced run. Each times direct calls into
//! one layer's public functions on the workload's own trace; composite
//! functions are timed beside their parts, and the difference is
//! reported as the composite's own (`*_self_s`) time. Nothing inside
//! the library is instrumented.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlc_cache::{ByteSize, Cache};
use mlc_core::{
    classify_misses, AttributionReport, DesignGrid, Explorer, SoloMissSweep, SweepEngine,
};
use mlc_obs::json::JsonValue;
use mlc_obs::{digest_records_hex, JournalHeader, JournalRow, JournalWriter, Metrics};
use mlc_serve::{
    default_loader, job_key, key_stem, DiskStore, JobEvent, ResultCache, Server, ServerConfig,
    SubmitOutcome, SubmitRequest,
};
use mlc_sim::machine::{base_machine, BaseMachine};
use mlc_sim::{
    simulate_timing_sweep, simulate_with_warmup, HierarchyConfig, LevelCacheConfig, LANE_WIDTHS,
};
use mlc_trace::slice::read_binary_slice_with;
use mlc_trace::stackdist::lru_stack_distances;
use mlc_trace::{FaultPolicy, TraceRecord};

use crate::analyze::{curve_sizes, shapes, three_c_config, three_c_sizes, BLOCK};
use crate::gates;
use crate::grid;
use crate::inputs::{GridSpec, TraceInput};
use crate::report::{threads, time_reps, Report, Samples};

/// Compute probes run on at most this many leading records of the
/// workload's trace, which keeps a traced run within its time budget.
const PROBE_RECORDS: usize = 200_000;

fn reps<R>(min_reps: usize, f: impl FnMut() -> R) -> Samples {
    time_reps(min_reps, Duration::from_millis(200), f).0
}

fn med(s: &Samples) -> f64 {
    s.median().unwrap_or(f64::NAN)
}

/// A base-machine configuration at one L2 point.
pub fn machine(size: ByteSize, cycles: u64, ways: u32) -> HierarchyConfig {
    BaseMachine::new()
        .l2_total(size)
        .l2_cycles(cycles)
        .l2_ways(ways)
        .build()
        .expect("grid points are valid")
}

/// Trace and compute layers on `input`: decode and digest on the whole
/// trace file, everything else on its first [`PROBE_RECORDS`] records.
pub fn probe_all(report: &mut Report, input: &TraceInput) {
    probe_trace(report, &input.path, &input.records);
    let records = &input.records[..input.records.len().min(PROBE_RECORDS)];
    println!(
        "probe records {} (of {})",
        records.len(),
        input.records.len()
    );
    probe_compute(report, records);
}

fn probe_trace(report: &mut Report, path: &Path, records: &[TraceRecord]) {
    let bytes = std::fs::read(path).expect("trace file readable");
    let n = records.len() as f64;
    let decode = reps(5, || {
        read_binary_slice_with(&bytes, FaultPolicy::Fail, None).expect("trace decodes")
    });
    report.median(
        "trace.decode_s",
        &decode,
        "s",
        "read_binary_slice_with, whole trace file",
    );
    report.metric(
        "trace.decode_rec_per_s",
        n / med(&decode),
        "1/s",
        decode.len(),
        "",
    );
    let digest = reps(5, || digest_records_hex(records));
    report.median(
        "obs.digest_s",
        &digest,
        "s",
        "digest_records_hex, whole trace",
    );
}

fn probe_compute(report: &mut Report, records: &[TraceRecord]) {
    let warmup = records.len() / 4;
    let n = records.len() as f64;
    let threads = threads() as f64;

    let stackdist = reps(3, || lru_stack_distances(records.iter().copied(), BLOCK));
    report.median(
        "trace.stackdist_s",
        &stackdist,
        "s",
        "lru_stack_distances, 32-byte blocks",
    );

    let functional_at = |size: ByteSize| {
        let mut cache = Cache::new(three_c_config(size));
        for r in records {
            cache.access(r.addr, r.kind);
        }
        cache.stats().total_misses()
    };
    let functional = reps(3, || functional_at(ByteSize::kib(64)));
    report.median(
        "cache.functional_s",
        &functional,
        "s",
        "one Cache pass, 64K direct-mapped",
    );
    report.metric(
        "cache.functional_rec_per_s",
        n / med(&functional),
        "1/s",
        functional.len(),
        "",
    );

    let scalar = reps(3, || {
        simulate_with_warmup(
            machine(ByteSize::kib(256), 1, 1),
            records.iter().copied(),
            warmup,
        )
    });
    report.median(
        "sim.scalar_s",
        &scalar,
        "s",
        "one HierarchySim pass, 256K L2",
    );
    report.metric(
        "sim.scalar_rec_per_s",
        n / med(&scalar),
        "1/s",
        scalar.len(),
        "",
    );

    // Lane-width cost table: one TimingSweepSim pass per width on the
    // same trace and L2 size as the scalar pass above.
    for w in LANE_WIDTHS {
        let configs: Vec<_> = (1..=w as u64)
            .map(|c| machine(ByteSize::kib(256), c, 1))
            .collect();
        let pass = reps(3, || {
            simulate_timing_sweep(&configs, records, warmup).expect("lanes")
        });
        report.median(
            &format!("sim.lane_pass_s.w{w}"),
            &pass,
            "s",
            &format!("{w} lanes"),
        );
        if w == 24 {
            report.metric(
                "sim.lane_vs_scalar.w24",
                med(&pass) / med(&scalar),
                "ratio",
                pass.len(),
                "W24 pass time in scalar passes",
            );
        }
    }

    // try_l2_rows and its parts: one lane pass per grid row.
    let spec = grid::full_width_spec();
    let todo: Vec<usize> = (0..spec.sizes.len()).collect();
    let base = BaseMachine::new();
    let grid = reps(2, || {
        Explorer::new(records, warmup).try_l2_rows(
            SweepEngine::OnePass,
            &base,
            &spec.sizes,
            &spec.cycles,
            spec.ways,
            &todo,
            |_| {},
        )
    });
    let lanes = reps(2, || {
        for &size in &spec.sizes {
            let configs: Vec<_> = spec
                .cycles
                .iter()
                .map(|&c| machine(size, c, spec.ways))
                .collect();
            std::hint::black_box(simulate_timing_sweep(&configs, records, warmup).expect("lanes"));
        }
    });
    let (grid_s, lanes_s) = (med(&grid), med(&lanes));
    let rows = spec.sizes.len() as f64;
    report.median(
        "core.grid_s",
        &grid,
        "s",
        "try_l2_rows, 8x24 direct-mapped, one-pass",
    );
    report.median(
        "sim.lanes_s",
        &lanes,
        "s",
        "the same grid's lane passes, run serially",
    );
    report.metric(
        "sim.lane_pass_rec_per_s",
        n * rows / lanes_s,
        "1/s",
        lanes.len(),
        "records per second of one lane pass",
    );
    report.metric(
        "sim.lane_cell_rec_per_s",
        n * spec.cells() as f64 / lanes_s,
        "1/s",
        lanes.len(),
        "effective: records x grid cells per second of lane passes",
    );
    report.metric(
        "core.grid_self_s",
        grid_s - lanes_s / threads.min(rows),
        "s",
        grid.len(),
        "grid wall minus lane passes spread over the threads",
    );
    report.metric(
        "core.par_busy_frac",
        lanes_s / (threads * grid_s),
        "ratio",
        grid.len(),
        "lane busy / (threads x grid wall)",
    );

    // miss_ratio_curve and its parts: a scalar run per size plus the
    // sharded stack pass.
    let sizes = curve_sizes();
    let l2_block = match base_machine().levels[1].cache {
        LevelCacheConfig::Unified(c) => c.geometry().block_bytes(),
        LevelCacheConfig::Split { .. } => unreachable!("the base L2 is unified"),
    };
    let curve = reps(2, || {
        Explorer::new(records, warmup).miss_ratio_curve(&base, &sizes)
    });
    let scalar_runs = reps(2, || {
        for &size in &sizes {
            let config = BaseMachine::new().l2_total(size).build().expect("valid");
            std::hint::black_box(
                simulate_with_warmup(config, records.iter().copied(), warmup).expect("valid"),
            );
        }
    });
    let stack = reps(3, || {
        SoloMissSweep::run_sharded(l2_block, 1, &sizes, records, warmup)
    });
    let stack_serial = reps(3, || {
        SoloMissSweep::run(l2_block, 1, &sizes, records, warmup)
    });
    report.median("core.curve_s", &curve, "s", "miss_ratio_curve, 8 sizes");
    report.metric(
        "core.curve_self_s",
        med(&curve) - med(&scalar_runs) / threads.min(sizes.len() as f64) - med(&stack),
        "s",
        curve.len(),
        "curve minus its scalar runs (spread over the threads) and stack pass",
    );
    report.median("core.stack_s", &stack, "s", "SoloMissSweep::run_sharded");
    report.median(
        "core.stack_serial_s",
        &stack_serial,
        "s",
        "SoloMissSweep::run",
    );

    // classify_misses over the 3C ladder and its parts: a functional
    // pass and a stack-distance pass per size.
    let c_sizes = three_c_sizes();
    let three_c = reps(2, || {
        for &size in &c_sizes {
            std::hint::black_box(classify_misses(three_c_config(size), records));
        }
    });
    let functional_all = reps(2, || {
        for &size in &c_sizes {
            std::hint::black_box(functional_at(size));
        }
    });
    report.median(
        "core.three_c_s",
        &three_c,
        "s",
        "classify_misses over 8 sizes",
    );
    report.metric(
        "core.three_c_self_s",
        med(&three_c) - med(&functional_all) - c_sizes.len() as f64 * med(&stackdist),
        "s",
        three_c.len(),
        "3C minus its functional and stack-distance passes",
    );

    let attribution = reps(2, || {
        for (_, config) in shapes() {
            let run = mlc_sim::simulate_with_warmup_attributed(
                config.clone(),
                records,
                warmup,
                &Metrics::default(),
                None,
            )
            .expect("shapes are valid");
            std::hint::black_box(AttributionReport::from_run(
                &config,
                &run.result,
                &run.ledger,
            ));
        }
    });
    report.median(
        "core.attribution_s",
        &attribution,
        "s",
        "attributed runs + AttributionReport, 4 shapes",
    );

    let wcet = reps(2, || {
        mlc_wcet::analyze(&base_machine(), records).expect("supported")
    });
    report.median(
        "wcet.analyze_s",
        &wcet,
        "s",
        "mlc_wcet::analyze, base machine",
    );
}

/// The `mlc-serve/1` submit request for `spec` over `trace`.
pub fn submit_request(trace: &Path, spec: &GridSpec) -> SubmitRequest {
    SubmitRequest {
        trace: trace.to_path_buf(),
        l1_bytes: ByteSize::kib(4).get(),
        ways: u64::from(spec.ways),
        sizes: spec.sizes.iter().map(|s| s.get()).collect(),
        cycles: spec.cycles.clone(),
        engine: "onepass".into(),
        warmup_frac: 0.25,
        wait: true,
        deadline_ms: 0,
        trace_id: String::new(),
    }
}

/// The grid the server must return for `req`, computed in-process.
pub fn reference_grid(records: &[TraceRecord], req: &SubmitRequest) -> DesignGrid {
    let warmup = (records.len() as f64 * req.warmup_frac) as usize;
    let sizes: Vec<ByteSize> = req.sizes.iter().map(|&s| ByteSize::new(s)).collect();
    Explorer::new(records, warmup)
        .try_l2_grid_with(
            SweepEngine::OnePass,
            &BaseMachine::new(),
            &sizes,
            &req.cycles,
            req.ways as u32,
        )
        .grid
}

fn header_for(records: &[TraceRecord], req: &SubmitRequest) -> JournalHeader {
    JournalHeader {
        trace_digest: digest_records_hex(records),
        engine: req.engine.clone(),
        l1_bytes: req.l1_bytes,
        warmup: (records.len() as f64 * req.warmup_frac.clamp(0.0, 0.95)) as u64,
        ways: req.ways,
        sizes: req.sizes.clone(),
        cycles: req.cycles.clone(),
        trace_id: None,
    }
}

/// Opens an in-process server on `store`.
pub fn open_server(store: &Path) -> Arc<Server> {
    Server::new(ServerConfig::new(store), default_loader()).expect("store opens")
}

/// Submits `req` in-process and waits for its grid.
pub fn submit_and_wait(
    server: &Arc<Server>,
    req: &SubmitRequest,
) -> Result<Arc<DesignGrid>, String> {
    match server.submit(req).map_err(|e| e.to_string())? {
        SubmitOutcome::Cached { grid, .. } => Ok(grid),
        SubmitOutcome::Running(sub) => loop {
            match sub.events.recv() {
                Ok(JobEvent::Done(done)) => break done.result.map_err(|e| e.message),
                Ok(JobEvent::Progress { .. }) => continue,
                Err(_) => break Err("job ended without a result".into()),
            }
        },
    }
}

/// Serve layers on `server`'s store, which holds `req`'s committed
/// grid: key derivation, both tier lookups, commit, and `submit` on
/// the hit path with its own time.
pub fn probe_serve(
    report: &mut Report,
    server: &Arc<Server>,
    store: &Path,
    req: &SubmitRequest,
    reference: &DesignGrid,
) {
    let loader = default_loader();
    let key_reps = reps(5, || {
        let records = loader(&req.trace, "").expect("trace loads");
        job_key(&header_for(&records, req))
    });
    let records = loader(&req.trace, "").expect("trace loads");
    let header = header_for(&records, req);
    let key = job_key(&header);
    report.median(
        "serve.key_s",
        &key_reps,
        "s",
        "loader + digest + job_key, whole trace file",
    );

    let cache = ResultCache::new(DiskStore::open(store).expect("store opens"), 8);
    let mut found = true;
    let disk = reps(5, || found &= cache.lookup_disk(&key).is_some());
    let mem = time_reps(50, Duration::from_millis(20), || {
        found &= cache.lookup_mem(&key).is_some()
    })
    .0;
    report.check(
        "serve.probe.lookups-hit",
        if found {
            Ok(())
        } else {
            Err("a committed key missed".into())
        },
    );
    report.median(
        "serve.disk_lookup_s",
        &disk,
        "s",
        "ResultCache::lookup_disk",
    );
    report.median("serve.mem_lookup_s", &mem, "s", "ResultCache::lookup_mem");

    // Commit: a spool journal per distinct key, renamed into the cache.
    let mut commit = Samples::default();
    let mut commit_errors = Vec::new();
    for i in 0..5u64 {
        let mut h = header.clone();
        h.cycles = vec![1_000 + i];
        let stem = key_stem(&job_key(&h)).expect("well-formed key").to_owned();
        let disk = cache.disk();
        let mut writer =
            JournalWriter::create(&disk.job_journal_path(&stem), &h).expect("spool writable");
        for (row, total) in reference.total.iter().enumerate() {
            writer
                .append_row(&JournalRow {
                    row: row as u64,
                    total: vec![total[0]],
                    l2_local: reference.l2_local[row],
                    l2_global: reference.l2_global[row],
                    m_l1_global: reference.m_l1_global,
                    cpu_cycle_ns: reference.cpu_cycle_ns,
                })
                .expect("spool writable");
        }
        drop(writer);
        let t = Instant::now();
        let committed = disk.commit(&stem);
        commit.push(t.elapsed());
        if let Err(e) = committed {
            commit_errors.push(e.to_string());
        }
    }
    report.check(
        "serve.probe.commits",
        if commit_errors.is_empty() {
            Ok(())
        } else {
            Err(commit_errors.join("; "))
        },
    );
    report.median(
        "serve.commit_s",
        &commit,
        "s",
        "DiskStore::commit (rename + directory fsyncs)",
    );

    let mut answers = Vec::new();
    let submit = reps(3, || answers.push(submit_and_wait(server, req)));
    let served = answers.iter().all(|a| {
        a.as_ref()
            .is_ok_and(|g| gates::same_grid(g, reference).is_ok())
    });
    report.check(
        "serve.probe.submit-hits",
        if served {
            Ok(())
        } else {
            Err("an in-process submit returned a wrong or no grid".into())
        },
    );
    report.median(
        "serve.submit_s",
        &submit,
        "s",
        "Server::submit on a cached key",
    );
    report.metric(
        "serve.submit_self_s",
        med(&submit) - med(&key_reps) - med(&mem),
        "s",
        submit.len(),
        "submit minus key derivation and memory lookup",
    );
}

fn field<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(doc, |v, k| v.get(k))
}

/// Tier and overload counters from an `mlc-stats/1` document, plus
/// the client's retries.
pub fn report_counters(report: &mut Report, doc: &JsonValue, retries: u64, source: &str) {
    let count = |path: &[&str]| field(doc, path).and_then(JsonValue::as_u64).unwrap_or(0);
    let (mem, disk, miss) = (
        count(&["tiers", "memory", "hits"]),
        count(&["tiers", "disk", "hits"]),
        count(&["tiers", "misses"]),
    );
    let counts = [
        ("serve.mem_hits", mem),
        ("serve.disk_hits", disk),
        ("serve.misses", miss),
        ("serve.evictions", count(&["tiers", "disk", "evictions"])),
        ("serve.shed", count(&["counters", "jobs_shed"])),
        ("serve.timeouts", count(&["counters", "jobs_timeout"])),
    ];
    for (name, v) in counts {
        report.metric(name, v as f64, "count", 0, source);
    }
    let lookups = (mem + disk + miss).max(1);
    let ratio = (mem + disk) as f64 / lookups as f64;
    report.metric("serve.hit_ratio", ratio, "ratio", 0, source);
    report.metric(
        "serve.retries",
        retries as f64,
        "count",
        0,
        "client-side retries",
    );
}

/// Serve layers for workloads that run no daemon: an in-process server
/// on a fresh store computes one small grid over the workload's trace
/// file, then the serve probes run against it.
pub fn probe_serve_fresh(report: &mut Report, work: &Path, input: &TraceInput) {
    let store = work.join("probe-store");
    let _ = std::fs::remove_dir_all(&store);
    let server = open_server(&store);
    let req = submit_request(&input.path, &grid::narrow_spec());
    let reference = reference_grid(&input.records, &req);
    let computed = submit_and_wait(&server, &req);
    report.check(
        "serve.probe.cold",
        computed.and_then(|g| gates::same_grid(&g, &reference)),
    );
    probe_serve(report, &server, &store, &req, &reference);
    report_counters(
        report,
        &server.stats_doc("perfbench"),
        0,
        "in-process probe server",
    );
    server.shutdown();
}
