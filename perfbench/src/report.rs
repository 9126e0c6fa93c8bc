//! Samples, metrics, spans and provenance: everything the benchmark
//! prints. Human-readable lines go to stdout as they are produced; the
//! last line is one JSON object with every metric of the run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mlc_obs::json::JsonValue;

/// Timed samples of one operation, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median, or `None` without samples.
    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        match v.len() {
            0 => None,
            n if n % 2 == 1 => Some(v[n / 2]),
            n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// The `p`-th percentile (nearest rank), reported only when at
    /// least ten samples lie above it; `None` otherwise.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        (n - rank >= 10).then(|| v[rank - 1])
    }
}

/// Runs `f` once untimed, then at least `min_reps` times and until
/// `min_total` has elapsed, returning the timings and the last result.
pub fn time_reps<R>(
    min_reps: usize,
    min_total: Duration,
    mut f: impl FnMut() -> R,
) -> (Samples, R) {
    let mut last = std::hint::black_box(f());
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < min_total {
        let t = Instant::now();
        last = std::hint::black_box(f());
        samples.push(t.elapsed());
    }
    (samples, last)
}

/// One span recorded around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// In-memory span recorder; written out once the run ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// Times `f` as a span named `name` under `parent`. `f` receives
    /// the new span's index (`None` when recording is off) to use as
    /// the parent of spans it records.
    pub fn record<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Spans, Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent,
        });
        let r = f(self, Some(idx));
        self.spans[idx].end = self.epoch.elapsed();
        r
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.end - span.start);
        }
        s
    }

    /// Self time of every span called `name`: its duration minus the
    /// part its direct children cover.
    pub fn self_times(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let children: Duration = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end - c.start)
                .sum();
            s.push((span.end - span.start).saturating_sub(children));
        }
        s
    }

    /// Prints the median duration of `op` and of each child span in
    /// `names`, and the self time of `op`.
    pub fn print_summary(&self, op: &str, names: &[&str]) {
        for name in std::iter::once(op).chain(names.iter().copied()) {
            let s = self.durations(name);
            println!(
                "span {name} median {:.6} s n={}",
                s.median().unwrap_or(0.0),
                s.len()
            );
        }
        let own = self.self_times(op);
        println!(
            "span {op} self median {:.6} s n={}",
            own.median().unwrap_or(0.0),
            own.len()
        );
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = JsonValue::object([
                ("id".into(), (i as u64).into()),
                ("name".into(), s.name.as_str().into()),
                ("start_us".into(), (s.start.as_micros() as u64).into()),
                ("end_us".into(), (s.end.as_micros() as u64).into()),
                (
                    "parent".into(),
                    s.parent.map_or(JsonValue::Null, |p| (p as u64).into()),
                ),
            ]);
            let _ = writeln!(out, "{}", line.to_string_compact());
        }
        std::fs::write(path, out)
    }
}

/// The run's output: metrics with units and sample counts, operation
/// counts, and the correctness verdict.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    checks_failed: Vec<String>,
}

impl Report {
    /// Records a metric and prints it. `n` is the sample count behind
    /// it (0 for a count or a derived ratio).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, n: usize, note: &str) {
        let samples = if n > 0 {
            format!(" n={n}")
        } else {
            String::new()
        };
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("  # {note}")
        };
        println!("metric {name} {value} {unit}{samples}{note}");
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Records the median of `s` (seconds) as `name` in `unit` (`s` or
    /// `ms`), noting the samples' range; prints a drop notice instead
    /// when there are no samples.
    pub fn median(&mut self, name: &str, s: &Samples, unit: &str, note: &str) {
        let scale = if unit == "ms" { 1e3 } else { 1.0 };
        match s.median() {
            Some(m) => {
                let v = s.sorted();
                let range = format!(
                    "min {:.6} max {:.6}; {note}",
                    v[0] * scale,
                    v[v.len() - 1] * scale
                );
                self.metric(name, m * scale, unit, s.len(), &range)
            }
            None => self.dropped(name, "no samples"),
        }
    }

    /// Records the `p`-th percentile of `s`, or a drop notice when
    /// fewer than ten samples lie beyond it.
    pub fn percentile(&mut self, name: &str, s: &Samples, p: f64, note: &str) {
        match s.percentile(p) {
            Some(v) => self.metric(name, v * 1e3, "ms", s.len(), note),
            None => self.dropped(
                name,
                &format!("{} samples leave fewer than 10 beyond p{p}", s.len()),
            ),
        }
    }

    pub fn dropped(&mut self, name: &str, why: &str) {
        println!("dropped {name}  # {why}");
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one correctness check; a failing check is a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => println!("check {name} ok"),
            Err(e) => {
                println!("check {name} FAILED: {e}");
                self.failed += 1;
                self.checks_failed.push(name.into());
            }
        }
    }

    /// The result line: every metric recorded, with its unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    JsonValue::object([
                        ("value".into(), JsonValue::F64(*value)),
                        ("unit".into(), unit.as_str().into()),
                    ]),
                )
            })
            .collect();
        JsonValue::object([
            ("correct".into(), self.checks_failed.is_empty().into()),
            ("attempted".into(), self.attempted.max(1).into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .to_string_compact()
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`self` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Threads the library's parallel loops use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which build produced the numbers: printed once per run. The build
/// facts the binary cannot see itself (git rev, rustc, flags) come from
/// the environment the launcher sets.
pub fn print_provenance(workload: &str, seed: u64, lane_widths: &[usize]) {
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_default();
    let doc = JsonValue::object([
        ("workload".into(), workload.into()),
        ("seed".into(), seed.into()),
        ("git_rev".into(), env("PERFBENCH_GIT_REV").into()),
        (
            "source_digest".into(),
            env("PERFBENCH_SOURCE_DIGEST").into(),
        ),
        ("rustc".into(), env("PERFBENCH_RUSTC").into()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto=fat, codegen-units=1)"
            }
            .into(),
        ),
        ("rustflags".into(), env("RUSTFLAGS").into()),
        ("mlc_native".into(), env("MLC_NATIVE").into()),
        ("nproc".into(), (threads() as u64).into()),
        ("cpu".into(), cpu.into()),
        (
            "lane_widths".into(),
            JsonValue::Array(lane_widths.iter().map(|&w| (w as u64).into()).collect()),
        ),
    ]);
    println!("provenance {}", doc.to_string_compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..99 {
            s.push(Duration::from_secs(i));
        }
        assert_eq!(s.percentile(90.0), None);
        s.push(Duration::from_secs(99));
        assert_eq!(s.percentile(90.0), Some(89.0));
        assert_eq!(s.median(), Some(49.5));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        spans.record("outer", None, |sp, me| {
            sp.record("inner", me, |_, _| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let outer = spans.durations("outer").median().unwrap();
        let own = spans.self_times("outer").median().unwrap();
        assert!(outer >= 0.020);
        assert!(own < 0.010, "self time {own} should exclude the child");
    }
}
