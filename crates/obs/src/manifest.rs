//! The run manifest: a JSON sidecar that makes a run reproducible and
//! auditable.
//!
//! A manifest answers "exactly what produced this output?": tool and
//! version, the full command line, the trace (path, record count,
//! warm-up split, content digest), the engine and the instruction-set
//! path it ran on, every resolved parameter, and per-phase wall-clock
//! timings. Everything except the `timings` section is a pure function
//! of the inputs and the host CPU (`isa` is the CPU's), and every timing
//! key ends in `_ms` — so CI verifies provenance determinism by running
//! a tool twice and diffing the manifests with `_ms` lines stripped.

use std::io;
use std::path::Path;

use crate::json::JsonValue;
use crate::metrics::MetricsSnapshot;

/// Schema identifier stamped into every manifest.
pub const MANIFEST_SCHEMA: &str = "mlc-manifest/1";

/// Builder and serializer for a run manifest; see the module docs.
///
/// # Examples
///
/// ```
/// use mlc_obs::RunManifest;
///
/// let mut m = RunManifest::new("mlc-sweep", "0.1.0");
/// m.command(["--trace".into(), "t.din".into()]);
/// m.trace("t.din", 60_000, 15_000, "fnv1a64:0011223344556677");
/// m.engine("onepass");
/// m.isa("x86-64-v3");
/// m.param("l2_ways", 1u64);
/// let json = m.to_json();
/// assert!(json.contains("\"schema\": \"mlc-manifest/1\""));
/// assert!(json.contains("\"digest\": \"fnv1a64:0011223344556677\""));
/// ```
#[derive(Debug, Clone)]
pub struct RunManifest {
    tool: String,
    version: String,
    command: Vec<String>,
    trace: Option<(String, u64, u64, String)>,
    engine: Option<String>,
    isa: Option<String>,
    params: Vec<(String, JsonValue)>,
    timings: Vec<(String, f64)>,
}

impl RunManifest {
    /// Starts a manifest for `tool` (e.g. `"mlc-sweep"`) at `version`
    /// (pass `env!("CARGO_PKG_VERSION")`).
    pub fn new(tool: &str, version: &str) -> Self {
        RunManifest {
            tool: tool.to_owned(),
            version: version.to_owned(),
            command: Vec::new(),
            trace: None,
            engine: None,
            isa: None,
            params: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// The tool name this manifest was created with.
    pub fn tool(&self) -> &str {
        &self.tool
    }

    /// The tool version this manifest was created with.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Records the command-line arguments (conventionally without the
    /// binary path, so the manifest does not depend on install location).
    pub fn command<I: IntoIterator<Item = String>>(&mut self, args: I) {
        self.command = args.into_iter().collect();
    }

    /// Records the input trace: path, record count, how many leading
    /// records are warm-up, and the content digest
    /// (see [`crate::digest_records_hex`]).
    pub fn trace(&mut self, path: &str, records: u64, warmup_records: u64, digest: &str) {
        self.trace = Some((path.to_owned(), records, warmup_records, digest.to_owned()));
    }

    /// Records the engine choice (e.g. `"onepass"`).
    pub fn engine(&mut self, name: &str) {
        self.engine = Some(name.to_owned());
    }

    /// Records the instruction-set path the simulator's timing walk ran
    /// on (e.g. `"x86-64-v4"`). Results are bit-identical on every path,
    /// so this is provenance for timings, not part of a result's identity.
    pub fn isa(&mut self, name: &str) {
        self.isa = Some(name.to_owned());
    }

    /// Appends one resolved parameter; insertion order is preserved in
    /// the output. Accepts anything convertible to [`JsonValue`]
    /// (strings, integers, floats, bools, or prebuilt arrays).
    pub fn param(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.params.push((key.to_owned(), value.into()));
    }

    /// Replaces the timings section with the phase timers of `snapshot`.
    /// Each phase `name` becomes the key `<name>_ms`.
    pub fn set_timings(&mut self, snapshot: &MetricsSnapshot) {
        self.timings = snapshot
            .phases
            .iter()
            .map(|(name, stat)| (format!("{name}_ms"), stat.wall_ms()))
            .collect();
    }

    /// Renders the manifest as pretty-printed JSON, one field per line.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("schema".into(), MANIFEST_SCHEMA.into()),
            ("tool".into(), self.tool.as_str().into()),
            ("version".into(), self.version.as_str().into()),
            (
                "command".into(),
                JsonValue::Array(self.command.iter().map(|a| a.as_str().into()).collect()),
            ),
        ];
        if let Some((path, records, warmup, digest)) = &self.trace {
            fields.push((
                "trace".into(),
                JsonValue::object([
                    ("path".into(), path.as_str().into()),
                    ("records".into(), (*records).into()),
                    ("warmup_records".into(), (*warmup).into()),
                    ("digest".into(), digest.as_str().into()),
                ]),
            ));
        }
        if let Some(engine) = &self.engine {
            fields.push(("engine".into(), engine.as_str().into()));
        }
        if let Some(isa) = &self.isa {
            fields.push(("isa".into(), isa.as_str().into()));
        }
        fields.push((
            "params".into(),
            JsonValue::Object(
                self.params
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
        ));
        fields.push((
            "timings".into(),
            JsonValue::Object(
                self.timings
                    .iter()
                    // Timing values are rounded to microseconds so the
                    // floats render compactly; keys all end in `_ms`.
                    .map(|(k, ms)| (k.clone(), JsonValue::F64((ms * 1000.0).round() / 1000.0)))
                    .collect(),
            ),
        ));
        JsonValue::Object(fields).to_string_pretty()
    }

    /// Writes [`RunManifest::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use std::time::Duration;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("mlc-test", "1.2.3");
        m.command(["--trace".into(), "t.din".into()]);
        m.trace("t.din", 100, 25, "fnv1a64:00000000000000ff");
        m.engine("onepass");
        m.isa("baseline");
        m.param("ways", 2u64);
        m.param("sizes", JsonValue::Array(vec!["16K".into(), "32K".into()]));
        m
    }

    #[test]
    fn renders_one_field_per_line() {
        let json = sample().to_json();
        for needle in [
            "\"schema\": \"mlc-manifest/1\"",
            "\"tool\": \"mlc-test\"",
            "\"version\": \"1.2.3\"",
            "\"command\": [\"--trace\", \"t.din\"]",
            "\"records\": 100",
            "\"warmup_records\": 25",
            "\"digest\": \"fnv1a64:00000000000000ff\"",
            "\"engine\": \"onepass\"",
            "\"isa\": \"baseline\"",
            "\"ways\": 2",
            "\"sizes\": [\"16K\", \"32K\"]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
            // One field per line: each needle must sit on its own line.
            assert!(
                json.lines().any(|l| l.contains(needle)),
                "{needle} spans lines in:\n{json}"
            );
        }
    }

    #[test]
    fn timing_keys_all_end_in_ms() {
        let metrics = Metrics::enabled();
        metrics.record_phase("read_trace", Duration::from_millis(5));
        metrics.record_phase("grid.size.64K", Duration::from_micros(1500));
        let mut m = sample();
        m.set_timings(&metrics.snapshot());
        let json = m.to_json();
        assert!(json.contains("\"read_trace_ms\": 5"), "{json}");
        assert!(json.contains("\"grid.size.64K_ms\": 1.5"), "{json}");
        // The determinism contract: every line inside `timings` matches
        // the `_ms"` strip pattern used by CI.
        let mut in_timings = false;
        for line in json.lines() {
            if line.contains("\"timings\"") {
                in_timings = true;
                continue;
            }
            if in_timings && line.trim().starts_with('"') {
                assert!(line.contains("_ms\""), "timing line without _ms: {line}");
            }
        }
    }

    #[test]
    fn non_timing_fields_are_deterministic() {
        // Two "runs" with identical inputs but different wall times.
        let mut a = sample();
        let mut b = sample();
        let run = |ms: u64| {
            let metrics = Metrics::enabled();
            metrics.record_phase("read_trace", Duration::from_millis(ms));
            metrics.snapshot()
        };
        a.set_timings(&run(3));
        b.set_timings(&run(7));
        let strip = |s: String| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("_ms\""))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(strip(a.to_json()), strip(b.to_json()));
    }
}
