//! Memory reference traces for cache hierarchy simulation.
//!
//! This crate provides everything the `mlc` workspace needs to *obtain* a
//! stream of memory references:
//!
//! * [`TraceRecord`] / [`AccessKind`] / [`Address`] — the reference model.
//! * [`din`] and [`binary`] — trace file formats (the classic Dinero text
//!   format and a compact binary format), with [`slice`](mod@slice) the
//!   one decoder of the binary layouts and [`read_file`] the one file
//!   reader that picks a format by extension.
//! * [`synth`] — seeded synthetic workload generators reproducing the
//!   statistical properties of the ISCA 1989 paper's eight
//!   multiprogramming traces (see DESIGN.md §4 for the substitution
//!   argument).
//! * [`TraceStats`] — descriptive statistics for validating workloads.
//! * [`stackdist`] — one-pass Mattson LRU stack-distance analysis, giving
//!   the whole miss-ratio-versus-size curve of a trace at once.
//! * [`fault`] — degraded-mode ingestion ([`FaultPolicy`], quarantine
//!   sidecars, [`IngestReport`]) and a fault-injecting [`Read`](std::io::Read)
//!   adapter ([`FaultInjector`]) for adversarial reader tests.
//!
//! # Examples
//!
//! Generate a small multiprogramming workload and inspect its mix:
//!
//! ```
//! use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
//! use mlc_trace::TraceStats;
//!
//! let mut gen = MultiProgramGenerator::new(Preset::Vms1.config(42))
//!     .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
//! let records = gen.generate_records(10_000);
//! let stats = TraceStats::from_records(records.iter().copied(), 16)?;
//! assert!(stats.ifetches > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Round-trip a trace through the Dinero text format:
//!
//! ```
//! use mlc_trace::{din, TraceRecord};
//!
//! let trace = vec![TraceRecord::ifetch(0x400), TraceRecord::read(0x1a40)];
//! let mut buf = Vec::new();
//! din::write_din(&mut buf, trace.iter().copied())?;
//! assert_eq!(din::read_din(buf.as_slice())?, trace);
//! # Ok::<(), mlc_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binary;
pub mod din;
mod error;
pub mod fault;
mod record;
pub mod slice;
pub mod stackdist;
mod stats;
mod stream;
pub mod synth;

pub use error::TraceError;
pub use fault::{FaultInjector, FaultPlan, FaultPolicy, IngestReport};
pub use record::{AccessKind, Address, TraceRecord};
pub use stats::TraceStats;
pub use stream::{IntoIterRecords, TraceSource};

use std::io::Write;
use std::path::Path;

/// Reads a trace file, dispatching on extension: `.din` is parsed as
/// Dinero text; anything else as the `mlc` binary format (either
/// layout), read into memory in one piece and slice-decoded. Malformed
/// records are handled under `policy`, with each quarantined record
/// written to `quarantine` when one is given.
///
/// # Errors
///
/// Returns [`TraceError::Io`] if the file cannot be opened or read, and
/// otherwise the errors of [`din::read_din_with`] or
/// [`slice::read_binary_slice_with`].
pub fn read_file(
    path: &Path,
    policy: FaultPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(Vec<TraceRecord>, IngestReport), TraceError> {
    if path.extension().is_some_and(|e| e == "din") {
        din::read_din_with(std::fs::File::open(path)?, policy, quarantine)
    } else {
        slice::read_binary_slice_with(&std::fs::read(path)?, policy, quarantine)
    }
}
