//! Sampled structured event tracing (`mlc-events/1`) and the Chrome
//! trace-event export.
//!
//! Full per-access tracing of a multi-million-reference simulation would
//! dwarf the simulation itself, so the tracer samples: every N-th trace
//! record (N chosen by the caller, off by default everywhere) emits one
//! [`SimEvent`] describing where that access went and how long it took.
//! Sampling is deterministic — record indices `0, N, 2N, …` are sampled
//! — so two runs of the same trace produce identical event streams.
//!
//! Two exports cover the two consumers:
//!
//! * [`write_events_jsonl`] — the `mlc-events/1` JSON-lines schema, one
//!   self-describing meta line followed by one line per event, for
//!   scripted analysis (`jq`, pandas);
//! * [`write_chrome_trace`] — the Chrome trace-event JSON format, which
//!   loads directly into Perfetto (ui.perfetto.dev) or
//!   `chrome://tracing`: each hierarchy element becomes a track, each
//!   sampled access a duration slice. One simulated CPU cycle is
//!   exported as one nanosecond of trace time, scaled by the machine's
//!   cycle time.
//!
//! This module deliberately knows nothing about `mlc-sim` types — the
//! simulator fills plain [`SimEvent`] fields, keeping the dependency
//! arrow pointing from `mlc-sim` to `mlc-obs`.

use std::io::{self, Write};

use crate::json::JsonValue;

/// The reference kind of a sampled access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instruction fetch.
    Ifetch,
    /// A data load.
    Read,
    /// A data store.
    Write,
}

impl EventKind {
    /// The schema's string form: `"ifetch"`, `"read"`, or `"write"`.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Ifetch => "ifetch",
            EventKind::Read => "read",
            EventKind::Write => "write",
        }
    }
}

/// One sampled access: when it issued, how long it held the CPU, and the
/// deepest hierarchy element its critical path reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEvent {
    /// Index of the trace record (0-based, over the whole run).
    pub index: u64,
    /// Reference kind.
    pub kind: EventKind,
    /// Referenced byte address.
    pub addr: u64,
    /// CPU cycle the access issued at.
    pub start_cycle: u64,
    /// Cycles from issue until the CPU could proceed (≥ 0; 0 for an
    /// access folded entirely into an already-open cycle).
    pub cycles: u64,
    /// Cycles of `cycles` that were stall (beyond the base execute
    /// cycle).
    pub stall_cycles: u64,
    /// Deepest hierarchy element on the critical path: a 0-based cache
    /// level index, or the level count for main memory. A level-0 hit
    /// reports 0.
    pub serviced: u32,
}

/// The default cap on retained events (bounds tracer memory: one event
/// is 56 bytes, so the cap is ~60 MB of worst-case retention).
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// An every-Nth-record sampling tracer accumulating [`SimEvent`]s.
///
/// # Examples
///
/// ```
/// use mlc_obs::{EventKind, EventTracer, SimEvent};
///
/// let mut tracer = EventTracer::new(2);
/// for index in 0..5u64 {
///     if tracer.wants(index) {
///         tracer.push(SimEvent {
///             index,
///             kind: EventKind::Read,
///             addr: 0x1000,
///             start_cycle: index,
///             cycles: 1,
///             stall_cycles: 0,
///             serviced: 0,
///         });
///     }
/// }
/// // Records 0, 2 and 4 were sampled.
/// assert_eq!(tracer.events().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EventTracer {
    every: u64,
    cap: usize,
    events: Vec<SimEvent>,
    truncated: bool,
}

impl EventTracer {
    /// A tracer sampling every `every`-th record (1 = every record),
    /// retaining at most [`DEFAULT_EVENT_CAP`] events.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> Self {
        EventTracer::with_cap(every, DEFAULT_EVENT_CAP)
    }

    /// A tracer with an explicit retention cap; once `cap` events are
    /// held, further pushes are dropped and [`EventTracer::truncated`]
    /// reports it.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_cap(every: u64, cap: usize) -> Self {
        assert!(every > 0, "sampling period must be positive");
        EventTracer {
            every,
            cap,
            events: Vec::new(),
            truncated: false,
        }
    }

    /// The sampling period.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Whether record `index` should be sampled.
    #[inline]
    pub fn wants(&self, index: u64) -> bool {
        index.is_multiple_of(self.every)
    }

    /// Retains `event` (dropped once the cap is reached).
    pub fn push(&mut self, event: SimEvent) {
        if self.events.len() >= self.cap {
            self.truncated = true;
            return;
        }
        self.events.push(event);
    }

    /// The sampled events, in record order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Whether any events were dropped at the retention cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

/// The name of the hierarchy element `serviced` refers to: a level name,
/// or `"memory"` past the last level.
fn serviced_name(serviced: u32, level_names: &[&str]) -> String {
    level_names
        .get(serviced as usize)
        .map(|n| (*n).to_owned())
        .unwrap_or_else(|| "memory".to_owned())
}

/// Writes the `mlc-events/1` JSON-lines file: one meta line, then one
/// `access` line per sampled event.
///
/// ```text
/// {"event":"meta","schema":"mlc-events/1","tool":"mlc-run","version":"0.1.0","every":1024,"levels":["L1","L2"],"count":59,"truncated":false}
/// {"event":"access","index":0,"kind":"ifetch","addr":"0x0","start":0,"cycles":31,"stall":30,"serviced":"memory"}
/// ```
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_events_jsonl<W: Write>(
    w: W,
    tool: &str,
    version: &str,
    level_names: &[&str],
    tracer: &EventTracer,
) -> io::Result<()> {
    let mut w = io::BufWriter::new(w);
    let meta = JsonValue::object([
        ("event".into(), "meta".into()),
        ("schema".into(), "mlc-events/1".into()),
        ("tool".into(), tool.into()),
        ("version".into(), version.into()),
        ("every".into(), tracer.every().into()),
        (
            "levels".into(),
            JsonValue::Array(level_names.iter().map(|&n| n.into()).collect()),
        ),
        ("count".into(), (tracer.events().len() as u64).into()),
        ("truncated".into(), tracer.truncated().into()),
    ]);
    writeln!(w, "{}", meta.to_string_compact())?;
    for ev in tracer.events() {
        let line = JsonValue::object([
            ("event".into(), "access".into()),
            ("index".into(), ev.index.into()),
            ("kind".into(), ev.kind.as_str().into()),
            ("addr".into(), format!("{:#x}", ev.addr).into()),
            ("start".into(), ev.start_cycle.into()),
            ("cycles".into(), ev.cycles.into()),
            ("stall".into(), ev.stall_cycles.into()),
            (
                "serviced".into(),
                serviced_name(ev.serviced, level_names).into(),
            ),
        ]);
        writeln!(w, "{}", line.to_string_compact())?;
    }
    w.flush()
}

/// Writes a Chrome trace-event JSON document loadable by Perfetto and
/// `chrome://tracing`.
///
/// Each hierarchy element (plus main memory) becomes one named track
/// (`tid`); each sampled access becomes a complete (`"ph":"X"`) slice on
/// the track of the deepest element it reached. Trace timestamps are in
/// microseconds per the format; one CPU cycle maps to
/// `cpu_cycle_ns / 1000` µs so the timeline reads in real machine time.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_chrome_trace<W: Write>(
    w: W,
    cpu_cycle_ns: f64,
    level_names: &[&str],
    tracer: &EventTracer,
) -> io::Result<()> {
    let us_per_cycle = cpu_cycle_ns / 1000.0;
    // One track per level plus main memory.
    let tracks = (0..=level_names.len()).map(|tid| serviced_name(tid as u32, level_names));
    let slices = tracer.events().iter().map(|ev| {
        JsonValue::object([
            (
                "name".into(),
                format!(
                    "{} {}",
                    ev.kind.as_str(),
                    serviced_name(ev.serviced, level_names)
                )
                .into(),
            ),
            ("cat".into(), "access".into()),
            ("ph".into(), "X".into()),
            ("ts".into(), (ev.start_cycle as f64 * us_per_cycle).into()),
            // Zero-cycle accesses (folded into an open cycle) still get
            // a minimal visible slice.
            (
                "dur".into(),
                (ev.cycles.max(1) as f64 * us_per_cycle).into(),
            ),
            ("pid".into(), 1u64.into()),
            ("tid".into(), u64::from(ev.serviced).into()),
            (
                "args".into(),
                JsonValue::object([
                    ("index".into(), ev.index.into()),
                    ("addr".into(), format!("{:#x}", ev.addr).into()),
                    ("stall_cycles".into(), ev.stall_cycles.into()),
                ]),
            ),
        ])
    });
    write_chrome_envelope(
        w,
        tracks,
        slices,
        [
            ("schema".into(), "mlc-chrome-trace/1".into()),
            ("cpu_cycle_ns".into(), cpu_cycle_ns.into()),
            ("sample_every".into(), tracer.every().into()),
            ("truncated".into(), tracer.truncated().into()),
        ],
    )
}

/// Writes one Chrome trace-event document: a `thread_name` metadata
/// event per entry of `tracks` (its `tid` is the position), then the
/// caller's `"ph":"X"` `slices`, inside the `traceEvents` /
/// `displayTimeUnit` / `otherData` envelope. Every Perfetto export of
/// the workspace goes through here.
pub(crate) fn write_chrome_envelope<W: Write>(
    w: W,
    tracks: impl IntoIterator<Item = impl Into<JsonValue>>,
    slices: impl IntoIterator<Item = JsonValue>,
    other_data: impl IntoIterator<Item = (String, JsonValue)>,
) -> io::Result<()> {
    let mut trace_events: Vec<JsonValue> = tracks
        .into_iter()
        .enumerate()
        .map(|(tid, name)| {
            JsonValue::object([
                ("name".into(), "thread_name".into()),
                ("ph".into(), "M".into()),
                ("pid".into(), 1u64.into()),
                ("tid".into(), (tid as u64).into()),
                (
                    "args".into(),
                    JsonValue::object([("name".into(), name.into())]),
                ),
            ])
        })
        .collect();
    trace_events.extend(slices);
    let doc = JsonValue::object([
        ("traceEvents".into(), JsonValue::Array(trace_events)),
        ("displayTimeUnit".into(), "ns".into()),
        ("otherData".into(), JsonValue::object(other_data)),
    ]);
    let mut w = io::BufWriter::new(w);
    writeln!(w, "{}", doc.to_string_compact())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> EventTracer {
        let mut t = EventTracer::new(4);
        t.push(SimEvent {
            index: 0,
            kind: EventKind::Ifetch,
            addr: 0x40,
            start_cycle: 0,
            cycles: 31,
            stall_cycles: 30,
            serviced: 2,
        });
        t.push(SimEvent {
            index: 4,
            kind: EventKind::Write,
            addr: 0x5000,
            start_cycle: 40,
            cycles: 2,
            stall_cycles: 1,
            serviced: 0,
        });
        t
    }

    #[test]
    fn sampling_is_every_nth_index() {
        let t = EventTracer::new(3);
        let sampled: Vec<u64> = (0..10).filter(|&i| t.wants(i)).collect();
        assert_eq!(sampled, vec![0, 3, 6, 9]);
        let every_record = EventTracer::new(1);
        assert!((0..10).all(|i| every_record.wants(i)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_is_rejected() {
        EventTracer::new(0);
    }

    #[test]
    fn cap_truncates_instead_of_growing() {
        let mut t = EventTracer::with_cap(1, 2);
        for i in 0..5 {
            t.push(SimEvent {
                index: i,
                kind: EventKind::Read,
                addr: 0,
                start_cycle: i,
                cycles: 1,
                stall_cycles: 0,
                serviced: 0,
            });
        }
        assert_eq!(t.events().len(), 2);
        assert!(t.truncated());
    }

    #[test]
    fn jsonl_schema_shape() {
        let t = sample_events();
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, "mlc-run", "0.1.0", &["L1", "L2"], &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""schema":"mlc-events/1""#), "{text}");
        assert!(lines[0].contains(r#""every":4"#));
        assert!(lines[0].contains(r#""levels":["L1","L2"]"#));
        assert!(lines[0].contains(r#""count":2"#));
        assert!(lines[1].contains(r#""kind":"ifetch""#));
        assert!(lines[1].contains(r#""serviced":"memory""#));
        assert!(lines[1].contains(r#""addr":"0x40""#));
        assert!(lines[2].contains(r#""kind":"write""#));
        assert!(lines[2].contains(r#""serviced":"L1""#));
        // Every line parses as a standalone JSON document.
        for line in lines {
            JsonValue::parse(line).unwrap();
        }
    }

    #[test]
    fn chrome_trace_is_perfetto_shaped() {
        let t = sample_events();
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, 10.0, &["L1", "L2"], &t).unwrap();
        let doc = JsonValue::parse(std::str::from_utf8(&buf).unwrap().trim()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        // 3 track-name metadata events (L1, L2, memory) + 2 slices.
        assert_eq!(events.len(), 5);
        let slices: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        for s in &slices {
            assert!(s.get("ts").is_some() && s.get("dur").is_some());
            assert_eq!(s.get("pid").and_then(JsonValue::as_u64), Some(1));
        }
        // 31 cycles at 10 ns/cycle = 310 ns = 0.31 µs.
        assert_eq!(slices[0].get("dur"), Some(&JsonValue::F64(0.31)));
        assert_eq!(
            doc.get("otherData").and_then(|o| o.get("schema")),
            Some(&JsonValue::Str("mlc-chrome-trace/1".into()))
        );
        // The whole document, pinned: the export format is a contract
        // with Perfetto and with the `jq` checks in ci.sh.
        let golden = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"L1"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"L2"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"memory"}},"#,
            r#"{"name":"ifetch memory","cat":"access","ph":"X","ts":0,"dur":0.31,"pid":1,"tid":2,"#,
            r#""args":{"index":0,"addr":"0x40","stall_cycles":30}},"#,
            r#"{"name":"write L1","cat":"access","ph":"X","ts":0.4,"dur":0.02,"pid":1,"tid":0,"#,
            r#""args":{"index":4,"addr":"0x5000","stall_cycles":1}}],"#,
            r#""displayTimeUnit":"ns","otherData":{"schema":"mlc-chrome-trace/1","#,
            r#""cpu_cycle_ns":10,"sample_every":4,"truncated":false}}"#,
        );
        assert_eq!(doc, JsonValue::parse(golden).unwrap());
    }

    #[test]
    fn unknown_level_maps_to_memory() {
        assert_eq!(serviced_name(0, &["L1"]), "L1");
        assert_eq!(serviced_name(1, &["L1"]), "memory");
        assert_eq!(serviced_name(9, &["L1"]), "memory");
    }
}
