//! End-to-end tests of the CLI binaries, run via Cargo's built
//! executables.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mlc_bin_e2e");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary should execute");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn gen_run_sweep_analyze_pipeline() {
    let trace = tmp("pipeline.din");
    let trace_str = trace.to_str().unwrap();

    // 1. Generate a small trace.
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips2",
            "--records",
            "60000",
            "--seed",
            "7",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "mlc-gen failed: {stderr}");
    assert!(stdout.contains("records 60000"), "{stdout}");
    assert!(trace.exists());

    // 2. Simulate it on the base machine.
    let (ok, stdout, stderr) = run(env!("CARGO_BIN_EXE_mlc-run"), &["--trace", trace_str]);
    assert!(ok, "mlc-run failed: {stderr}");
    assert!(stdout.contains("CPI"), "{stdout}");
    assert!(stdout.contains("L2"), "{stdout}");

    // 3. Simulate against an emitted-then-parsed machine file: results
    //    must match the built-in base machine exactly.
    let (ok, base_text, _) = run(env!("CARGO_BIN_EXE_mlc-run"), &["--emit-base", "true"]);
    assert!(ok);
    let machine = tmp("base.mlc");
    std::fs::write(&machine, &base_text).unwrap();
    let (ok, stdout2, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &["--trace", trace_str, "--machine", machine.to_str().unwrap()],
    );
    assert!(ok, "mlc-run with machine file failed: {stderr}");
    assert_eq!(stdout, stdout2, "machine file must reproduce the default");

    // 4. Sweep a small grid and write CSV.
    let csv = tmp("grid.csv");
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "16K:64K",
            "--cycles",
            "1:3",
            "--out",
            csv.to_str().unwrap(),
        ],
    );
    assert!(ok, "mlc-sweep failed: {stderr}");
    assert!(stdout.contains("relative execution time"), "{stdout}");
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.lines().count() >= 4, "{csv_text}");

    // 5. Analyze the trace; the 3C classification and the curve are
    //    timed as separate phases.
    let metrics = tmp("analyze_metrics.jsonl");
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-analyze"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "4K:64K",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
    );
    assert!(ok, "mlc-analyze failed: {stderr}");
    assert!(stdout.contains("FA-LRU"), "{stdout}");
    assert!(stdout.contains("per size doubling"), "{stdout}");
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    for phase in ["three_c", "curve"] {
        let line = format!(r#""event":"phase","name":"{phase}","calls":1"#);
        assert!(jsonl.contains(&line), "no {phase} phase in {jsonl}");
    }
}

#[test]
fn binaries_reject_bad_input_gracefully() {
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &["--preset", "bogus", "--out", "/tmp/x.din"],
    );
    assert!(!ok);
    assert!(stderr.contains("unknown preset"), "{stderr}");

    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &["--trace", "/nonexistent.din"],
    );
    assert!(!ok);
    assert!(stderr.contains("mlc-run"), "{stderr}");

    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_mlc-sweep"), &["--nope", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn lint_binary_passes_good_and_fails_bad_machines() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_mlc-lint"), &[&fixture("good_base.mlc")]);
    assert!(ok, "good machine must lint clean: {stdout}");
    assert!(
        stdout.contains("0 error(s), 0 warning(s), 0 advice"),
        "{stdout}"
    );

    // The seeded-bad fixture must fail with >= 8 findings, each carrying
    // a rule code and a line span.
    let (ok, stdout, _) = run(
        env!("CARGO_BIN_EXE_mlc-lint"),
        &[&fixture("bad_hierarchy.mlc")],
    );
    assert!(!ok, "bad machine must fail lint: {stdout}");
    let findings: Vec<&str> = stdout.lines().filter(|l| l.contains("MLC")).collect();
    assert!(findings.len() >= 8, "{stdout}");
    for line in &findings {
        assert!(line.contains("line"), "finding without a span: {line}");
    }

    // Warnings alone pass by default but fail under --deny-warnings.
    let machine = tmp("warn_only.mlc");
    std::fs::write(
        &machine,
        "cpu.cycle_ns = 10\n\n[level L1]\nsize = 4K\ncycles = 1\n\n\
         [level L2]\nsize = 8K\ncycles = 3\n\n[memory]\nread_ns = 180\n",
    )
    .unwrap();
    let machine_str = machine.to_str().unwrap();
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_mlc-lint"), &[machine_str]);
    assert!(ok, "warnings alone must pass: {stdout}");
    assert!(stdout.contains("MLC002"), "{stdout}");
    let (ok, _, _) = run(
        env!("CARGO_BIN_EXE_mlc-lint"),
        &["--deny-warnings", machine_str],
    );
    assert!(!ok, "--deny-warnings must fail on warnings");
}

#[test]
fn lint_binary_emits_json_and_rule_catalog() {
    let (ok, stdout, _) = run(
        env!("CARGO_BIN_EXE_mlc-lint"),
        &["--format", "json", &fixture("bad_degenerate.mlc")],
    );
    assert!(!ok);
    assert!(stdout.contains("\"rule\":\"MLC009\""), "{stdout}");
    assert!(stdout.contains("\"span\":{\"start\":"), "{stdout}");

    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_mlc-lint"), &["--rules"]);
    assert!(ok);
    for code in ["MLC000", "MLC008", "MLC015"] {
        assert!(stdout.contains(code), "catalog missing {code}: {stdout}");
    }
}

#[test]
fn run_and_sweep_honor_lint_flags() {
    // mlc-run --lint refuses a machine with lint errors before touching
    // the trace.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &[
            "--trace",
            "/nonexistent.din",
            "--machine",
            &fixture("bad_hierarchy.mlc"),
            "--lint",
        ],
    );
    assert!(!ok);
    assert!(stderr.contains("failed lint"), "{stderr}");
    assert!(stderr.contains("MLC001"), "{stderr}");

    // A degenerate sweep corner (L2 no bigger than L1) fails --lint
    // --deny-warnings without needing a trace.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            "/nonexistent.din",
            "--sizes",
            "4K:16K",
            "--lint",
            "--deny-warnings",
        ],
    );
    assert!(!ok);
    assert!(stderr.contains("failed lint"), "{stderr}");
}

/// Drops every line carrying a `_ms` timing key — the only fields of a
/// manifest allowed to differ between two runs on identical inputs.
fn strip_timings(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .filter(|l| !l.contains("_ms\""))
        .map(str::to_owned)
        .collect()
}

/// Whether `manifest` names one of the timing walk's instruction-set
/// paths.
fn names_an_isa(manifest: &str) -> bool {
    ["baseline", "x86-64-v3", "x86-64-v4"]
        .iter()
        .any(|isa| manifest.contains(&format!("\"isa\": \"{isa}\"")))
}

#[test]
fn sweep_manifest_is_reproducible_and_metrics_are_structured() {
    let trace = tmp("obs_sweep.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "40000",
            "--seed",
            "3",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");

    // Two runs with IDENTICAL argv (argv is recorded in the manifest):
    // copy the first manifest aside before the second overwrites it.
    let metrics_path = tmp("obs_sweep.jsonl");
    let manifest_path = tmp("obs_sweep.manifest.json");
    let argv = [
        "--trace",
        trace_str,
        "--sizes",
        "16K:32K",
        "--cycles",
        "1:2",
        "--engine",
        "onepass",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--progress",
    ];
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_mlc-sweep"), &argv);
    assert!(ok, "first sweep failed: {stderr}");
    assert!(
        stderr.contains("progress[onepass]:") && stderr.contains("(100.0%)"),
        "--progress must report on stderr: {stderr}"
    );
    let first = std::fs::read_to_string(&manifest_path).unwrap();
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_mlc-sweep"), &argv);
    assert!(ok, "second sweep failed: {stderr}");
    let second = std::fs::read_to_string(&manifest_path).unwrap();

    // Everything except wall-clock timings reproduces bit-for-bit.
    assert_eq!(strip_timings(&first), strip_timings(&second));

    for needle in [
        "\"schema\": \"mlc-manifest/1\"",
        "\"tool\": \"mlc-sweep\"",
        "\"digest\": \"fnv1a64:",
        "\"records\": 40000",
        "\"engine\": \"onepass\"",
        "\"l2_sizes\": [\"16KB\", \"32KB\"]",
        "\"l2_cycles\": [1, 2]",
        "\"machine\":",
        "grid.size.16KB_ms",
        "read_trace_ms",
    ] {
        assert!(
            first.contains(needle),
            "manifest missing {needle}:\n{first}"
        );
    }
    assert!(names_an_isa(&first), "manifest missing isa:\n{first}");

    let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(
        jsonl
            .lines()
            .next()
            .unwrap()
            .contains("\"schema\":\"mlc-metrics/1\""),
        "{jsonl}"
    );
    assert!(jsonl.contains("\"event\":\"counter\""), "{jsonl}");
    assert!(
        jsonl.contains("\"name\":\"sweep.lane_passes\""),
        "sweep counters missing: {jsonl}"
    );
    assert!(jsonl.contains("\"event\":\"phase\""), "{jsonl}");
}

#[test]
fn run_manifest_captures_resolved_machine() {
    let trace = tmp("obs_run.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "20000",
            "--seed",
            "5",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");

    let manifest_path = tmp("obs_run_manifest.json");
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &[
            "--trace",
            trace_str,
            "--manifest-out",
            manifest_path.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    for needle in [
        "\"tool\": \"mlc-run\"",
        "\"digest\": \"fnv1a64:",
        "\"depth\": 2",
        "cpu.cycle_ns",
        "sim.warmup_ms",
        "sim.measure_ms",
    ] {
        assert!(manifest.contains(needle), "missing {needle}:\n{manifest}");
    }
    assert!(names_an_isa(&manifest), "missing isa:\n{manifest}");
}

#[test]
fn sweep_rejects_invalid_grid_points_with_a_typed_error() {
    // 3 ways at 16K with 32-byte blocks has no power-of-two set count:
    // must be caught up front, not panic mid-sweep.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            "/nonexistent.din",
            "--sizes",
            "16K",
            "--cycles",
            "1",
            "--ways",
            "3",
        ],
    );
    assert!(!ok);
    assert!(
        stderr.contains("invalid grid point"),
        "expected a typed validation error: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sweep_journal_resume_reproduces_an_uninterrupted_run() {
    let trace = tmp("journal.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "40000",
            "--seed",
            "11",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");

    // Reference: an uninterrupted, journal-free sweep.
    let plain_csv = tmp("journal_plain.csv");
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "16K:64K",
            "--cycles",
            "1:3",
            "--out",
            plain_csv.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");

    // Journaled run, then cut the journal back to header + first row —
    // the on-disk shape a SIGKILL mid-sweep leaves behind.
    let journal = tmp("journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let journal_str = journal.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "16K:64K",
            "--cycles",
            "1:3",
            "--journal",
            journal_str,
        ],
    );
    assert!(ok, "journaled sweep failed: {stderr}");
    let full = std::fs::read_to_string(&journal).unwrap();
    assert!(full.contains("mlc-journal/1"), "{full}");
    assert_eq!(full.lines().count(), 4, "header + 3 rows: {full}");
    let keep: String = full.lines().take(2).map(|l| format!("{l}\n")).collect();
    std::fs::write(&journal, keep).unwrap();

    // Resume must replay the committed row, compute the rest, and land
    // on a CSV byte-identical to the uninterrupted run.
    let resumed_csv = tmp("journal_resumed.csv");
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "16K:64K",
            "--cycles",
            "1:3",
            "--journal",
            journal_str,
            "--resume",
            "--out",
            resumed_csv.to_str().unwrap(),
        ],
    );
    assert!(ok, "resume failed: {stderr}");
    assert!(
        stderr.contains("resuming from journal: 1 of 3 rows already committed"),
        "{stderr}"
    );
    assert_eq!(
        std::fs::read(&plain_csv).unwrap(),
        std::fs::read(&resumed_csv).unwrap(),
        "resumed grid differs from the uninterrupted one"
    );

    // The journal now pins this grid: a run with different flags must be
    // rejected with a typed mismatch naming the offending field.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "16K:64K",
            "--cycles",
            "1:4",
            "--journal",
            journal_str,
            "--resume",
        ],
    );
    assert!(!ok, "cycles mismatch must fail");
    assert!(stderr.contains("journal cycles mismatch"), "{stderr}");

    // An existing journal without --resume is refused, not overwritten.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "16K:64K",
            "--cycles",
            "1:3",
            "--journal",
            journal_str,
        ],
    );
    assert!(!ok);
    assert!(stderr.contains("already exists; pass --resume"), "{stderr}");

    // --resume without --journal is a flag error.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace", trace_str, "--sizes", "16K", "--cycles", "1", "--resume",
        ],
    );
    assert!(!ok);
    assert!(stderr.contains("--resume requires --journal"), "{stderr}");
}

#[test]
fn run_quarantines_malformed_records_under_skip_policy() {
    let trace = tmp("faulty.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "20000",
            "--seed",
            "13",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");
    let mut text = std::fs::read_to_string(&trace).unwrap();
    text.push_str("not a record\n3 zz\n");
    std::fs::write(&trace, &text).unwrap();

    // Strict (default) ingestion fails typed on the first bad line.
    let (ok, _, stderr) = run(env!("CARGO_BIN_EXE_mlc-run"), &["--trace", trace_str]);
    assert!(!ok, "strict read must fail: {stderr}");
    assert!(stderr.contains("line 20001"), "{stderr}");

    // skip:4 absorbs both, reports them, and writes a sidecar.
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &["--trace", trace_str, "--trace-faults", "skip:4"],
    );
    assert!(ok, "degraded read must succeed: {stderr}");
    assert!(stdout.contains("CPI"), "{stdout}");
    assert!(
        stderr.contains("quarantined 2 malformed trace record(s)"),
        "{stderr}"
    );
    let sidecar = tmp("faulty.din.quarantine");
    let quarantined = std::fs::read_to_string(&sidecar).unwrap();
    assert_eq!(quarantined.lines().count(), 2, "{quarantined}");
    assert!(quarantined.contains("not a record"), "{quarantined}");

    // A budget of 1 is exceeded by the second bad record: typed failure.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &["--trace", trace_str, "--trace-faults", "skip:1"],
    );
    assert!(!ok);
    assert!(stderr.contains("fault budget exceeded"), "{stderr}");
}

#[test]
fn sweep_failure_budget_gates_the_exit_code() {
    // --max-point-failures with a clean grid is a no-op; the flag is
    // recorded in the manifest.
    let trace = tmp("budget.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "20000",
            "--seed",
            "17",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");
    let manifest_path = tmp("budget.manifest.json");
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-sweep"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "16K:32K",
            "--cycles",
            "1:2",
            "--max-point-failures",
            "2",
            "--manifest-out",
            manifest_path.to_str().unwrap(),
        ],
    );
    assert!(ok, "{stderr}");
    let manifest = std::fs::read_to_string(&manifest_path).unwrap();
    assert!(manifest.contains("\"max_point_failures\": 2"), "{manifest}");
    assert!(manifest.contains("\"point_failures\": 0"), "{manifest}");
}

#[test]
fn gen_is_deterministic_across_invocations() {
    let a = tmp("det_a.din");
    let b = tmp("det_b.din");
    for path in [&a, &b] {
        let (ok, _, stderr) = run(
            env!("CARGO_BIN_EXE_mlc-gen"),
            &[
                "--preset",
                "vms3",
                "--records",
                "20000",
                "--seed",
                "99",
                "--out",
                path.to_str().unwrap(),
                "--stats",
                "false",
            ],
        );
        assert!(ok, "{stderr}");
    }
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "same seed must produce identical files"
    );
}

/// Extracts `"value":N` from a `mlc-metrics/1` counter line.
fn counter_value(line: &str) -> u64 {
    let tail = line.split("\"value\":").nth(1).expect("counter line");
    tail.trim_end_matches(['}', '\n'])
        .trim()
        .parse()
        .expect("integer counter")
}

#[test]
fn attribution_and_event_traces_end_to_end() {
    let trace = tmp("attr.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "40000",
            "--seed",
            "21",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");

    let events_path = tmp("attr_events.jsonl");
    let perfetto_path = tmp("attr_perfetto.json");
    let metrics_path = tmp("attr_metrics.jsonl");
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &[
            "--trace",
            trace_str,
            "--attribution",
            "--events-out",
            events_path.to_str().unwrap(),
            "--events-every",
            "32",
            "--perfetto-out",
            perfetto_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ],
    );
    assert!(ok, "attributed run failed: {stderr}");

    // The attribution table cross-checks every Equation 1 term.
    for needle in [
        "execution-time attribution",
        "read_miss.L2",
        "read_miss.memory",
        "refresh_wait",
        "N_total",
        "Equation 1 total off by",
    ] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }

    // mlc-events/1: a meta line, then sampled access lines.
    let events = std::fs::read_to_string(&events_path).unwrap();
    let meta = events.lines().next().unwrap();
    assert!(meta.contains("\"schema\":\"mlc-events/1\""), "{meta}");
    assert!(meta.contains("\"every\":32"), "{meta}");
    assert!(events.contains("\"event\":\"access\""), "{events}");

    // Chrome trace-event JSON with complete ("X") slices.
    let chrome = std::fs::read_to_string(&perfetto_path).unwrap();
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    assert!(chrome.contains("mlc-chrome-trace/1"), "{chrome}");

    // Ledger conservation holds on the exported metrics: the
    // sim.ledger.* counters sum exactly to sim.total_cycles.
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    let ledger_sum: u64 = metrics
        .lines()
        .filter(|l| l.contains("\"event\":\"counter\"") && l.contains("\"name\":\"sim.ledger."))
        .map(counter_value)
        .sum();
    let total = metrics
        .lines()
        .find(|l| l.contains("\"name\":\"sim.total_cycles\""))
        .map(counter_value)
        .expect("total_cycles counter");
    assert!(ledger_sum > 0);
    assert_eq!(ledger_sum, total, "ledger buckets must sum to total_cycles");
    assert!(
        metrics.contains("\"name\":\"sim.read_miss_latency.L1\""),
        "histograms missing: {metrics}"
    );

    // mlc-analyze --attribution reports the same cross-check from a
    // trace alone.
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-analyze"),
        &["--trace", trace_str, "--sizes", "4K:16K", "--attribution"],
    );
    assert!(ok, "analyze attribution failed: {stderr}");
    assert!(stdout.contains("execution-time attribution"), "{stdout}");
    assert!(stdout.contains("Equation 1 total off by"), "{stdout}");
}

#[test]
fn bounds_binary_end_to_end() {
    let trace = tmp("bounds.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "20000",
            "--seed",
            "23",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");

    // Human report with the sim-vs-bounds oracle: must pass, and the
    // table must carry every CHMC column.
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-bounds"),
        &["--trace", trace_str, "--check"],
    );
    assert!(ok, "mlc-bounds failed: {stderr}");
    assert!(stdout.contains("Guaranteed read-miss bounds"), "{stdout}");
    for needle in ["L1", "L2", "read-path cycles in ["] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
    assert!(
        stdout.contains("oracle: simulated misses fall inside every guaranteed bound"),
        "{stdout}"
    );

    // JSON carries the mlc-bounds/1 schema plus the oracle verdict.
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-bounds"),
        &["--trace", trace_str, "--check", "--format", "json"],
    );
    assert!(ok, "json mode failed: {stderr}");
    assert!(stdout.contains("\"schema\": \"mlc-bounds/1\""), "{stdout}");
    assert!(stdout.contains("\"measured_read_misses\""), "{stdout}");
    assert!(stdout.contains("\"oracle_ok\": true"), "{stdout}");

    // An unsupported replacement policy is rejected with the MLC016
    // fix-it, not silently mis-bounded.
    let machine = tmp("bounds_fifo.mlc");
    std::fs::write(
        &machine,
        "cpu.cycle_ns = 10\n\n[level L1]\nsize = 4K\nblock = 16\nways = 2\n\
         replacement = fifo\ncycles = 1\n\n[memory]\nread_ns = 180\n",
    )
    .unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-bounds"),
        &["--trace", trace_str, "--machine", machine.to_str().unwrap()],
    );
    assert!(!ok, "fifo machine must be rejected");
    assert!(stderr.contains("MLC016"), "{stderr}");

    // mlc-analyze --bounds --attribution crosses Equation 1 against the
    // static bounds.
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-analyze"),
        &[
            "--trace",
            trace_str,
            "--sizes",
            "4K:16K",
            "--bounds",
            "--attribution",
        ],
    );
    assert!(ok, "analyze --bounds failed: {stderr}");
    assert!(stdout.contains("Guaranteed read-miss bounds"), "{stdout}");
    assert!(
        stdout.contains("Equation 1 read terms vs guaranteed bounds"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("NO"),
        "a bound failed Equation 1:\n{stdout}"
    );
}

#[test]
fn bad_observability_paths_fail_fast_and_typed() {
    let trace = tmp("badpath.din");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-gen"),
        &[
            "--preset",
            "mips1",
            "--records",
            "1000",
            "--seed",
            "1",
            "--out",
            trace_str,
        ],
    );
    assert!(ok, "{stderr}");

    // A bad --events-out fails before the trace is even read.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-run"),
        &["--trace", trace_str, "--events-out", "no/such/dir/e.jsonl"],
    );
    assert!(!ok);
    assert!(stderr.contains("--events-out"), "{stderr}");
    assert!(stderr.contains("does not exist"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        !stderr.contains("reading"),
        "path validation must precede trace ingestion: {stderr}"
    );

    // Same for --metrics-out, across binaries.
    let (ok, _, stderr) = run(
        env!("CARGO_BIN_EXE_mlc-analyze"),
        &["--trace", trace_str, "--metrics-out", "no/such/dir/m.jsonl"],
    );
    assert!(!ok);
    assert!(stderr.contains("--metrics-out"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
