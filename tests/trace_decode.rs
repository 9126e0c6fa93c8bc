//! The binary trace decoder through its `Read` API.
//!
//! `binary::read_binary` reads its input to the end and hands the bytes
//! to the slice decoder, so the `Read` API must (a) report a failing
//! reader as an I/O error wherever the failure lands, header included,
//! (b) cope with readers that deliver bytes in any chunking, including
//! `Interrupted` errors, and (c) report exactly what the slice API
//! reports for the same bytes.

use std::io::{self, Read};

use mlc::trace::slice::read_binary_slice;
use mlc::trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc::trace::{binary, FaultInjector, FaultPlan, FaultPolicy, TraceError, TraceRecord};

/// Both binary layouts of a trace mixing all three kinds with extreme
/// deltas and a stretch of synthetic workload.
fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let mut recs = vec![
        TraceRecord::ifetch(0),
        TraceRecord::read(u64::MAX),
        TraceRecord::write(0x1234_5678_9abc_def0),
        TraceRecord::read(0),
    ];
    recs.extend(
        MultiProgramGenerator::new(Preset::Vms1.config(7))
            .unwrap()
            .generate_records(200),
    );
    let mut v1 = Vec::new();
    binary::write_binary(&mut v1, &recs).unwrap();
    let mut v2 = Vec::new();
    binary::write_compressed(&mut v2, &recs).unwrap();
    vec![("v1", v1), ("v2", v2)]
}

#[test]
fn io_errors_in_the_header_are_io_errors() {
    for (name, bytes) in encodings() {
        for at in 0..16u64 {
            let strict = binary::read_binary(FaultInjector::new(
                bytes.as_slice(),
                FaultPlan::io_error(at),
            ));
            assert!(
                matches!(strict, Err(TraceError::Io(_))),
                "{name}: I/O error at header byte {at} gave {strict:?}"
            );
            let degraded = binary::read_binary_with(
                FaultInjector::new(bytes.as_slice(), FaultPlan::io_error(at)),
                FaultPolicy::Skip { budget: u64::MAX },
                None,
            );
            assert!(
                matches!(degraded, Err(TraceError::Io(_))),
                "{name}: I/O error at header byte {at} under skip gave {degraded:?}"
            );
        }
    }
}

/// A reader that fails once with `Interrupted`, then hands out one byte
/// per `read` call.
struct Trickle<'a> {
    bytes: &'a [u8],
    interrupted: bool,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.interrupted {
            self.interrupted = true;
            return Err(io::Error::from(io::ErrorKind::Interrupted));
        }
        match (self.bytes.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.bytes = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[test]
fn interrupted_byte_at_a_time_reader_decodes_like_the_slice() {
    for (name, bytes) in encodings() {
        let trickled = binary::read_binary(Trickle {
            bytes: &bytes,
            interrupted: false,
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trickled, read_binary_slice(&bytes).unwrap(), "{name}");
    }
}

#[test]
fn truncations_report_the_same_error_through_both_apis() {
    for (name, bytes) in encodings() {
        for cut in 0..bytes.len() {
            let via_read = binary::read_binary(&bytes[..cut]).map_err(|e| e.to_string());
            let via_slice = read_binary_slice(&bytes[..cut]).map_err(|e| e.to_string());
            assert!(via_read.is_err(), "{name}: cut at {cut} decoded");
            assert_eq!(via_read, via_slice, "{name}: cut at {cut}");
        }
    }
}
