//! Request-lifecycle trace context and server spans.
//!
//! The paper's framing — performance is governed by *where time is
//! spent across tiers* — applies to the serving layer itself: a sweep
//! request is answered from a memory tier, a disk tier, or a fresh
//! simulation, and each answer crosses a fixed set of lifecycle
//! stages. This module names those stages ([`Stage`]), mints the
//! process-unique trace ids that follow one request across them
//! ([`mint_trace_id`]), and exports recorded spans as Chrome
//! trace-event JSON ([`write_span_chrome_trace`]) so a served
//! request's wall-clock anatomy loads straight into Perfetto, exactly
//! like a simulated access's cycle anatomy does via
//! [`crate::write_chrome_trace`].
//!
//! The module holds the *vocabulary* only; the lock-free sharded
//! recorder lives with the server (`mlc-serve`), keeping this crate's
//! dependency arrow pointing the usual way.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::digest::Fnv64;
use crate::events::write_chrome_envelope;
use crate::json::JsonValue;

/// The schema tag stamped into `otherData` of a span Chrome trace.
pub const SPAN_TRACE_SCHEMA: &str = "mlc-serve-spans/1";

/// Longest accepted trace id (generous for caller-supplied ids, small
/// enough to keep protocol lines and journal headers compact).
pub const TRACE_ID_MAX_LEN: usize = 64;

/// One lifecycle stage of a served request, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Connection accepted and greeted.
    Accept,
    /// A request line parsed (or rejected) into a typed request.
    Parse,
    /// Admission control: request validation and the job-slot check.
    Admission,
    /// Content addressing: identifying the trace (a hash of its file
    /// bytes, or a load and digest) and deriving the key.
    Key,
    /// Memory-tier cache probe.
    MemLookup,
    /// Disk-tier cache probe (only on a memory miss).
    DiskLookup,
    /// The sweep simulation itself, all rows.
    Simulate,
    /// Durable commit: the journal's rename into the cache tier.
    JournalCommit,
    /// Post-commit disk-budget enforcement (LRU eviction pass).
    Evict,
    /// Writing a terminal response event to the peer.
    Reply,
}

impl Stage {
    /// Every stage, in request order.
    pub const ALL: [Stage; 10] = [
        Stage::Accept,
        Stage::Parse,
        Stage::Admission,
        Stage::Key,
        Stage::MemLookup,
        Stage::DiskLookup,
        Stage::Simulate,
        Stage::JournalCommit,
        Stage::Evict,
        Stage::Reply,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// The stage's wire name, as it appears in `mlc-stats/1` documents
    /// and Perfetto track names.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Parse => "parse",
            Stage::Admission => "admission",
            Stage::Key => "key",
            Stage::MemLookup => "mem-lookup",
            Stage::DiskLookup => "disk-lookup",
            Stage::Simulate => "simulate",
            Stage::JournalCommit => "journal-commit",
            Stage::Evict => "evict",
            Stage::Reply => "reply",
        }
    }

    /// The stage's position in [`Stage::ALL`] (a stable dense index for
    /// per-stage storage).
    pub fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("in ALL")
    }
}

/// One recorded begin/end span: a stage crossing of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request's trace context (empty for spans recorded before a
    /// request acquires one, e.g. `accept`).
    pub trace_id: String,
    /// Process-unique span id, minted per recording.
    pub span_id: u64,
    /// The lifecycle stage.
    pub stage: Stage,
    /// Start offset, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Mints a process-unique trace id of the form `trc-<16 hex>`: an
/// FNV-1a-64 mix of pid, wall clock, and a process-wide sequence
/// number, so concurrent minters in one process — and independent
/// clients on one machine — do not collide in practice.
pub fn mint_trace_id() -> String {
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id() as u64;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut h = Fnv64::new();
    h.write(&pid.to_le_bytes());
    h.write(&nanos.to_le_bytes());
    h.write(&seq.to_le_bytes());
    format!("trc-{:016x}", h.finish())
}

/// Whether `id` is acceptable as a caller-supplied trace id: 1 to
/// [`TRACE_ID_MAX_LEN`] characters from `[A-Za-z0-9._:-]` — safe to
/// embed in protocol lines, JSON documents, and log output verbatim.
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= TRACE_ID_MAX_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

/// Writes spans as Chrome trace-event JSON (Perfetto-loadable): one
/// track per [`Stage`], one `X` duration slice per span, with the
/// span's `trace_id` in the slice args so a single request can be
/// followed across tracks. `otherData.schema` is
/// [`SPAN_TRACE_SCHEMA`].
///
/// # Errors
///
/// Any I/O error from `w`.
pub fn write_span_chrome_trace<W: Write>(w: W, spans: &[SpanRecord]) -> io::Result<()> {
    let slices = spans.iter().map(|span| {
        JsonValue::object([
            ("name".into(), span.stage.as_str().into()),
            ("cat".into(), "request".into()),
            ("ph".into(), "X".into()),
            ("ts".into(), (span.start_us as f64).into()),
            // Sub-microsecond spans still get a minimal visible slice.
            ("dur".into(), (span.dur_us.max(1) as f64).into()),
            ("pid".into(), 1u64.into()),
            ("tid".into(), (span.stage.index() as u64).into()),
            (
                "args".into(),
                JsonValue::object([
                    ("trace_id".into(), span.trace_id.as_str().into()),
                    ("span_id".into(), span.span_id.into()),
                ]),
            ),
        ])
    });
    write_chrome_envelope(
        w,
        Stage::ALL.map(Stage::as_str),
        slices,
        [
            ("schema".into(), SPAN_TRACE_SCHEMA.into()),
            ("spans".into(), (spans.len() as u64).into()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_and_indices_are_stable() {
        assert_eq!(Stage::COUNT, 10);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::MemLookup.as_str(), "mem-lookup");
        assert_eq!(Stage::JournalCommit.as_str(), "journal-commit");
        // Wire names are unique (they key the mlc-stats/1 stages map).
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn minted_trace_ids_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let id = mint_trace_id();
            assert!(valid_trace_id(&id), "{id}");
            assert!(id.starts_with("trc-"));
            assert!(seen.insert(id), "duplicate id minted");
        }
    }

    #[test]
    fn trace_id_validation_rejects_hostile_input() {
        assert!(valid_trace_id("trc-00c0ffee00c0ffee"));
        assert!(valid_trace_id("build_42:retry.1"));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id(&"x".repeat(TRACE_ID_MAX_LEN + 1)));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id("quote\"break"));
        assert!(!valid_trace_id("new\nline"));
        assert!(!valid_trace_id("../escape"));
    }

    #[test]
    fn span_chrome_trace_has_perfetto_shape() {
        let spans = vec![
            SpanRecord {
                trace_id: "trc-1".into(),
                span_id: 7,
                stage: Stage::Simulate,
                start_us: 100,
                dur_us: 2500,
            },
            SpanRecord {
                trace_id: "trc-1".into(),
                span_id: 8,
                stage: Stage::JournalCommit,
                start_us: 2600,
                dur_us: 0,
            },
        ];
        let mut buf = Vec::new();
        write_span_chrome_trace(&mut buf, &spans).unwrap();
        let doc = JsonValue::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(
            doc.get("otherData").unwrap().get("schema").unwrap(),
            &JsonValue::from(SPAN_TRACE_SCHEMA)
        );
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // One metadata event per stage track plus one slice per span.
        assert_eq!(events.len(), Stage::COUNT + spans.len());
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(ph == "X" || ph == "M", "unexpected phase {ph}");
        }
        let slice = &events[Stage::COUNT];
        assert_eq!(slice.get("name").unwrap().as_str(), Some("simulate"));
        assert_eq!(
            slice.get("args").unwrap().get("trace_id").unwrap().as_str(),
            Some("trc-1")
        );
        // Zero-duration spans stay visible. (An integral F64 renders as
        // a bare integer, so it reads back as U64 — compare the value.)
        assert_eq!(
            events[Stage::COUNT + 1].get("dur").unwrap().as_u64(),
            Some(1)
        );
        // The whole document, pinned: the export format is a contract
        // with Perfetto and with the `jq` checks in ci.sh.
        let golden = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"accept"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"parse"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"admission"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"key"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"mem-lookup"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"disk-lookup"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"simulate"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"journal-commit"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":8,"args":{"name":"evict"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":9,"args":{"name":"reply"}},"#,
            r#"{"name":"simulate","cat":"request","ph":"X","ts":100,"dur":2500,"pid":1,"tid":6,"#,
            r#""args":{"trace_id":"trc-1","span_id":7}},"#,
            r#"{"name":"journal-commit","cat":"request","ph":"X","ts":2600,"dur":1,"pid":1,"tid":7,"#,
            r#""args":{"trace_id":"trc-1","span_id":8}}],"#,
            r#""displayTimeUnit":"ns","otherData":{"schema":"mlc-serve-spans/1","spans":2}}"#,
        );
        assert_eq!(doc, JsonValue::parse(golden).unwrap());
    }
}
