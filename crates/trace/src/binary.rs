//! Compact binary trace formats.
//!
//! Text `.din` traces are convenient but bulky (≈12 bytes per reference).
//! Two binary layouts share a 16-byte header:
//!
//! ```text
//! header:  magic "MLCT" (4 bytes) | version u16 LE | header check u16 LE |
//!          record count u64 LE
//! ```
//!
//! The header check is a 16-bit fold of FNV-1a over the other 14 header
//! bytes, so a corrupted version or record count is rejected before any
//! payload is interpreted — without it, a v1↔v2 version flip could decode
//! a payload under the wrong codec and still "succeed".
//!
//! **Version 1** (fixed width, [`write_binary`]): one 9-byte record per
//! reference — `kind u8 (din label) | address u64 LE`. Deliberately
//! trivial, so any tool can produce or consume it in a dozen lines.
//!
//! **Version 2** (compressed, [`write_compressed`]): one variable-length
//! token per reference. The first byte holds the kind (2 bits), the low
//! 5 bits of `zigzag(delta)` and a continuation flag; remaining zigzag
//! bits follow as standard LEB128. `delta` is the address difference
//! from the previous reference *of the same kind*, so sequential
//! instruction fetches and stack-local data references cost a single
//! byte each — typically 4–6× smaller than v1.
//!
//! [`read_binary`] reads either version transparently: it reads its
//! input to the end and hands the bytes to the slice decoder in
//! [`crate::slice`], the one decoder for both layouts.

use std::io::{self, Read, Write};

use crate::error::TraceError;
use crate::fault::{FaultPolicy, IngestReport};
use crate::record::{AccessKind, TraceRecord};
use crate::slice::read_binary_slice_with;

/// The 4-byte magic at the start of every binary trace.
pub const MAGIC: [u8; 4] = *b"MLCT";

/// The fixed-width format version.
pub const VERSION: u16 = 1;

/// The delta-compressed format version.
pub const VERSION_COMPRESSED: u16 = 2;

pub(crate) const HEADER_LEN: usize = 16;
pub(crate) const RECORD_LEN: usize = 9;

/// Slots in the v2 per-kind delta tables, indexed by Dinero label.
pub(crate) const KIND_SLOTS: usize = AccessKind::COUNT;

// The v2 codec keeps one delta base per access kind, indexed by din
// label; verify at compile time that the labels are exactly
// `0..KIND_SLOTS` so no variant can alias another slot.
const _: () = {
    let mut seen = [false; KIND_SLOTS];
    let mut i = 0;
    while i < KIND_SLOTS {
        let label = AccessKind::ALL[i].din_label() as usize;
        assert!(label < KIND_SLOTS, "din label outside the delta table");
        assert!(!seen[label], "two access kinds share a din label");
        seen[label] = true;
        i += 1;
    }
};

/// The header integrity check: FNV-1a over the 16 header bytes with the
/// check field itself zeroed, folded to 16 bits.
pub(crate) fn header_check(header: &[u8; HEADER_LEN]) -> u16 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, &b) in header.iter().enumerate() {
        let b = if i == 6 || i == 7 { 0 } else { b };
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// Builds a header for `version` and `count`, including the check field.
pub(crate) fn make_header(version: u16, count: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&version.to_le_bytes());
    header[8..16].copy_from_slice(&count.to_le_bytes());
    let check = header_check(&header);
    header[6..8].copy_from_slice(&check.to_le_bytes());
    header
}

/// Writes a trace to `w` in the binary format.
///
/// `records` must be an exact-size collection because the record count is
/// part of the header; pass a slice or `Vec`.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, TraceRecord};
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_binary(&mut buf, &recs)?;
/// assert_eq!(binary::read_binary(buf.as_slice())?, recs);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn write_binary<W: Write>(w: W, records: &[TraceRecord]) -> Result<(), TraceError> {
    let mut w = io::BufWriter::new(w);
    w.write_all(&make_header(VERSION, records.len() as u64))?;
    for r in records {
        let mut rec = [0u8; RECORD_LEN];
        rec[0] = r.kind.din_label();
        rec[1..9].copy_from_slice(&r.addr.get().to_le_bytes());
        w.write_all(&rec)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads an entire binary trace.
///
/// # Errors
///
/// Returns [`TraceError::ParseBinary`] if the magic, version, record count
/// or any record is malformed, or [`TraceError::Io`] on I/O failure.
pub fn read_binary<R: Read>(reader: R) -> Result<Vec<TraceRecord>, TraceError> {
    read_binary_with(reader, FaultPolicy::Fail, None).map(|(records, _)| records)
}

/// Reads a binary trace under a [`FaultPolicy`].
///
/// The stream is read to its end and the bytes are decoded by
/// [`read_binary_slice_with`], so both entry points share one decoder
/// and report identical records, errors and quarantine lines.
///
/// Recoverable faults under [`FaultPolicy::Skip`] — each quarantined
/// (as a hex-dumped sidecar line) and skipped until the budget runs
/// out:
///
/// * a record with an invalid kind byte, in either version (v2 tokens
///   frame independently of the kind bits, so the stream stays in
///   sync);
/// * a payload that ends before the declared record count — the missing
///   tail counts as **one** quarantined record and sets
///   [`IngestReport::truncated`];
/// * trailing bytes after the final record (one quarantined record).
///
/// Always fatal, regardless of policy: header corruption (nothing
/// after a bad header can be trusted), an undecodable v2 varint (the
/// token boundary is lost, so the stream cannot be resynchronised),
/// and genuine I/O errors.
///
/// # Errors
///
/// Under [`FaultPolicy::Fail`], exactly the errors of [`read_binary`].
/// Under [`FaultPolicy::Skip`], [`TraceError::FaultBudget`] once the
/// budget is exceeded, the fatal cases above, or any I/O error.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, FaultPolicy, TraceRecord};
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_binary(&mut buf, &recs)?;
/// buf[16] = 7; // corrupt the first record's kind byte
/// let (records, report) =
///     binary::read_binary_with(buf.as_slice(), FaultPolicy::Skip { budget: 1 }, None)?;
/// assert_eq!(records, vec![TraceRecord::write(0x100)]);
/// assert_eq!(report.quarantined, 1);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_binary_with<R: Read>(
    mut reader: R,
    policy: FaultPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(Vec<TraceRecord>, IngestReport), TraceError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    read_binary_slice_with(&bytes, policy, quarantine)
}

/// Writes a trace in the delta-compressed v2 format (see module docs).
/// Read it back with [`read_binary`], which handles both versions.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, TraceRecord};
///
/// let recs: Vec<_> = (0..1000u64).map(|i| TraceRecord::ifetch(i * 4)).collect();
/// let mut fixed = Vec::new();
/// binary::write_binary(&mut fixed, &recs)?;
/// let mut packed = Vec::new();
/// binary::write_compressed(&mut packed, &recs)?;
/// assert_eq!(binary::read_binary(packed.as_slice())?, recs);
/// // Sequential fetches compress to ~1 byte per record.
/// assert!(packed.len() < fixed.len() / 4);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn write_compressed<W: Write>(w: W, records: &[TraceRecord]) -> Result<(), TraceError> {
    let mut w = io::BufWriter::new(w);
    w.write_all(&make_header(VERSION_COMPRESSED, records.len() as u64))?;
    let mut last = [0u64; KIND_SLOTS];
    let mut buf = [0u8; 10];
    for r in records {
        let slot = r.kind.din_label() as usize;
        let delta = r.addr.get().wrapping_sub(last[slot]) as i64;
        last[slot] = r.addr.get();
        let zigzag = zigzag_encode(delta);
        let mut first = r.kind.din_label() | (((zigzag & 0x1f) as u8) << 2);
        let rest = zigzag >> 5;
        if rest != 0 {
            first |= 0x80;
            w.write_all(&[first])?;
            let n = write_varint(rest, &mut buf);
            w.write_all(&buf[..n])?;
        } else {
            w.write_all(&[first])?;
        }
    }
    w.flush()?;
    Ok(())
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LEB128-encodes `v` into `buf`, returning the byte count (≤ 10).
#[inline]
fn write_varint(mut v: u64, buf: &mut [u8; 10]) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return n + 1;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::ifetch(0),
            TraceRecord::read(u64::MAX),
            TraceRecord::write(0x1234_5678_9abc_def0),
        ]
    }

    #[test]
    fn round_trip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + RECORD_LEN * recs.len());
        assert_eq!(read_binary(buf.as_slice()).unwrap(), recs);
    }

    #[test]
    fn empty_round_trip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        assert!(read_binary(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn compressed_round_trip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), recs);
    }

    #[test]
    fn compressed_round_trip_synthetic_workload() {
        use crate::synth::{workload::Preset, MultiProgramGenerator};
        let recs = MultiProgramGenerator::new(Preset::Vms1.config(2))
            .unwrap()
            .generate_records(30_000);
        let mut fixed = Vec::new();
        write_binary(&mut fixed, &recs).unwrap();
        let mut packed = Vec::new();
        write_compressed(&mut packed, &recs).unwrap();
        assert_eq!(read_binary(packed.as_slice()).unwrap(), recs);
        assert!(
            packed.len() * 3 < fixed.len(),
            "compressed {} vs fixed {}",
            packed.len(),
            fixed.len()
        );
    }

    #[test]
    fn compressed_empty_round_trip() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, &[]).unwrap();
        assert!(read_binary(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn compressed_handles_extreme_deltas() {
        let recs = vec![
            TraceRecord::read(0),
            TraceRecord::read(u64::MAX),
            TraceRecord::read(0),
            TraceRecord::ifetch(u64::MAX / 2),
            TraceRecord::write(1),
        ];
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), recs);
    }

    #[test]
    fn compressed_rejects_truncation() {
        let recs = sample();
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 4, -4, i64::MAX, i64::MIN, 123456789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        use crate::slice::{decode_token, Token};
        let mut buf = [0u8; 10];
        // Every varint the encoder writes carries `zigzag >> 5`, so at
        // most 59 significant bits; decode each behind a continued
        // first byte whose 5 zigzag bits are zero.
        for v in [0u64, 1, 127, 128, 300, u64::MAX >> 5, 1 << 35] {
            let n = write_varint(v, &mut buf);
            let mut token = vec![0x80u8];
            token.extend_from_slice(&buf[..n]);
            match decode_token(&token, 0) {
                Token::Complete(0, zigzag, len) => {
                    assert_eq!(zigzag >> 5, v);
                    assert_eq!(len, token.len());
                }
                _ => panic!("varint {v} did not round-trip"),
            }
        }
        assert_eq!(write_varint(0, &mut buf), 1);
        assert_eq!(write_varint(127, &mut buf), 1);
        assert_eq!(write_varint(128, &mut buf), 2);
        assert_eq!(write_varint(u64::MAX, &mut buf), 10);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_binary(buf.as_slice()),
            Err(TraceError::ParseBinary(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[4] = 99;
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.push(0);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn trailing_byte_count_is_reported() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(&[0xaa; 7]);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("7 trailing bytes"),
            "want exact excess in the message, got: {err}"
        );
    }

    #[test]
    fn rejects_count_smaller_than_payload() {
        // A consistent header (valid check) declaring 1 record over a
        // 3-record payload: the 18 excess bytes must be an error, not a
        // silently shortened trace.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[..HEADER_LEN].copy_from_slice(&make_header(VERSION, 1));
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("18 trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_compressed_count_smaller_than_payload() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, &sample()).unwrap();
        buf[..HEADER_LEN].copy_from_slice(&make_header(VERSION_COMPRESSED, 1));
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_header_check_mismatch() {
        for flip in [6usize, 7] {
            let mut buf = Vec::new();
            write_binary(&mut buf, &sample()).unwrap();
            buf[flip] ^= 0x01;
            let err = read_binary(buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains("header check"), "{err}");
        }
    }

    #[test]
    fn rejects_version_flip_between_formats() {
        // v1 payload relabelled as v2 (and vice versa) must fail on the
        // header check instead of decoding under the wrong codec.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[4..6].copy_from_slice(&VERSION_COMPRESSED.to_le_bytes());
        assert!(read_binary(buf.as_slice()).is_err());

        let mut buf = Vec::new();
        write_compressed(&mut buf, &sample()).unwrap();
        buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn compressed_rejects_overlong_varint_token() {
        // kind Read, continuation set, followed by an 11-byte varint.
        let mut buf = make_header(VERSION_COMPRESSED, 1).to_vec();
        buf.push(0x80);
        buf.extend_from_slice(&[0x80u8; 10]);
        buf.push(0x00);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn rejects_bad_kind_byte() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN] = 7;
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad kind"));
    }

    #[test]
    fn rejects_truncated_header() {
        let err = read_binary(&b"MLC"[..]).unwrap_err();
        assert!(err.to_string().contains("truncated header"));
    }

    #[test]
    fn degraded_matches_strict_on_clean_input() {
        let recs = sample();
        let mut fixed = Vec::new();
        write_binary(&mut fixed, &recs).unwrap();
        let mut packed = Vec::new();
        write_compressed(&mut packed, &recs).unwrap();
        for buf in [fixed, packed] {
            let (got, report) =
                read_binary_with(buf.as_slice(), FaultPolicy::Skip { budget: 0 }, None).unwrap();
            assert_eq!(got, recs);
            assert_eq!(report, IngestReport::default());
        }
    }

    #[test]
    fn degraded_fail_policy_matches_strict_messages() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN] = 7;
        let strict = read_binary(buf.as_slice()).unwrap_err();
        let degraded = read_binary_with(buf.as_slice(), FaultPolicy::Fail, None).unwrap_err();
        assert_eq!(strict.to_string(), degraded.to_string());
    }

    #[test]
    fn degraded_v1_quarantines_bad_kind() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN + RECORD_LEN] = 9; // record 1's kind byte
        let mut sidecar = Vec::new();
        let (got, report) = read_binary_with(
            buf.as_slice(),
            FaultPolicy::Skip { budget: 1 },
            Some(&mut sidecar),
        )
        .unwrap();
        assert_eq!(
            got,
            vec![
                TraceRecord::ifetch(0),
                TraceRecord::write(0x1234_5678_9abc_def0)
            ]
        );
        assert_eq!(report.quarantined, 1);
        assert!(!report.truncated);
        let sidecar = String::from_utf8(sidecar).unwrap();
        assert!(sidecar.starts_with("record 1: bad kind 9 (09"), "{sidecar}");
    }

    #[test]
    fn degraded_v1_truncated_tail_stops_early() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 4); // last record loses its tail
        let mut sidecar = Vec::new();
        let (got, report) = read_binary_with(
            buf.as_slice(),
            FaultPolicy::Skip { budget: 1 },
            Some(&mut sidecar),
        )
        .unwrap();
        assert_eq!(
            got,
            vec![TraceRecord::ifetch(0), TraceRecord::read(u64::MAX)]
        );
        assert_eq!(report.quarantined, 1);
        assert!(report.truncated);
        assert!(
            String::from_utf8(sidecar)
                .unwrap()
                .starts_with("record 2: truncated ("),
            "sidecar names the partial record"
        );
    }

    #[test]
    fn degraded_v2_skips_bad_kind_without_desync() {
        // sample() compresses to: ifetch(0) -> 0x02 (1 byte), then
        // read(u64::MAX). Setting record 1's label bits to 3 makes its
        // kind invalid without touching the continuation flag, so the
        // token still frames and record 2 (a write, a different delta
        // slot) must decode exactly.
        let recs = sample();
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        buf[HEADER_LEN + 1] |= 0b11;
        let mut sidecar = Vec::new();
        let (got, report) = read_binary_with(
            buf.as_slice(),
            FaultPolicy::Skip { budget: 1 },
            Some(&mut sidecar),
        )
        .unwrap();
        assert_eq!(
            got,
            vec![
                TraceRecord::ifetch(0),
                TraceRecord::write(0x1234_5678_9abc_def0)
            ]
        );
        assert_eq!(report.quarantined, 1);
        assert!(
            String::from_utf8(sidecar)
                .unwrap()
                .starts_with("record 1: bad kind 3 ("),
            "sidecar carries the skipped token"
        );
    }

    #[test]
    fn degraded_v2_truncation_stops_early() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 1);
        let (got, report) =
            read_binary_with(buf.as_slice(), FaultPolicy::Skip { budget: 1 }, None).unwrap();
        assert_eq!(got.len(), 2);
        assert!(report.truncated);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn degraded_v2_varint_corruption_is_fatal_even_under_skip() {
        let mut buf = make_header(VERSION_COMPRESSED, 1).to_vec();
        buf.push(0x80);
        buf.extend_from_slice(&[0x80u8; 10]);
        buf.push(0x00);
        let err =
            read_binary_with(buf.as_slice(), FaultPolicy::Skip { budget: 100 }, None).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn degraded_trailing_bytes_quarantined() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(&[0xaa; 7]);
        let mut sidecar = Vec::new();
        let (got, report) = read_binary_with(
            buf.as_slice(),
            FaultPolicy::Skip { budget: 1 },
            Some(&mut sidecar),
        )
        .unwrap();
        assert_eq!(got, sample());
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            String::from_utf8(sidecar).unwrap(),
            "trailer: 7 trailing bytes after final record\n"
        );
    }

    #[test]
    fn degraded_budget_exceeded_is_typed() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN] = 9;
        buf[HEADER_LEN + RECORD_LEN] = 9;
        let err =
            read_binary_with(buf.as_slice(), FaultPolicy::Skip { budget: 1 }, None).unwrap_err();
        assert!(matches!(err, TraceError::FaultBudget { budget: 1, .. }));
    }

    #[test]
    fn degraded_header_faults_are_fatal() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(read_binary_with(buf.as_slice(), FaultPolicy::Skip { budget: 100 }, None).is_err());
    }

    #[test]
    fn degraded_io_errors_are_fatal() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        let injected = FaultInjector::new(buf.as_slice(), FaultPlan::io_error(20));
        let err = read_binary_with(injected, FaultPolicy::Skip { budget: 100 }, None).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "{err}");
    }
}
