//! The binary trace decoder: both layouts, decoded from an in-memory
//! byte slice.
//!
//! This is the only decoder of the v1 and v2 payloads. The `Read` entry
//! points in [`binary`](crate::binary) read their input to the end and
//! call [`read_binary_slice_with`], so a change to the format, to an
//! error message or to quarantine behaviour is made here once. Walking a
//! `&[u8]` — a full-buffer file read, an mmap, a network body — needs no
//! intermediate record buffers, and bounds checks are amortized per
//! record or token.
//!
//! Entry points:
//!
//! * [`read_binary_slice`] / [`read_binary_slice_with`] — the slice
//!   forms of `read_binary` / `read_binary_with`. The `slice_props`
//!   property suite checks that the two APIs agree: identical records,
//!   typed error messages, quarantine sidecar lines and
//!   [`IngestReport`]s across every-offset truncations and bit-flips of
//!   the input.

use std::io::Write;

use crate::binary::{
    header_check, zigzag_decode, HEADER_LEN, KIND_SLOTS, MAGIC, RECORD_LEN, VERSION,
    VERSION_COMPRESSED,
};
use crate::error::TraceError;
use crate::fault::{absorb_fault, hex_bytes, FaultPolicy, IngestReport};
use crate::record::{AccessKind, Address, TraceRecord};

/// Parses and validates the 16-byte header, returning the format
/// version and the declared record count.
fn parse_header(bytes: &[u8]) -> Result<(u16, usize), TraceError> {
    if bytes.len() < HEADER_LEN {
        return Err(TraceError::ParseBinary("truncated header".into()));
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("length checked");
    if header[..4] != MAGIC {
        return Err(TraceError::ParseBinary("bad magic".into()));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION && version != VERSION_COMPRESSED {
        return Err(TraceError::ParseBinary(format!(
            "unsupported version {version}"
        )));
    }
    let stored_check = u16::from_le_bytes([header[6], header[7]]);
    if stored_check != header_check(header) {
        return Err(TraceError::ParseBinary(
            "header check mismatch (corrupt version or record count)".into(),
        ));
    }
    let mut count_bytes = [0u8; 8];
    count_bytes.copy_from_slice(&header[8..16]);
    let count: usize = u64::from_le_bytes(count_bytes)
        .try_into()
        .map_err(|_| TraceError::ParseBinary("record count overflows usize".into()))?;
    Ok((version, count))
}

/// Outcome of decoding one v2 token from a slice.
pub(crate) enum Token {
    /// `(label, zigzag, token_len)` — a complete token.
    Complete(u8, u64, usize),
    /// The slice ended mid-token; the payload is the number of bytes
    /// consumed (possibly none), which the quarantine line dumps.
    Truncated(usize),
    /// The varint encoding is invalid; the stream cannot be resynced.
    Invalid(&'static str),
}

/// Decodes one v2 token starting at `pos`: at most 1 + 10 bytes.
///
/// A `u64` needs at most 10 LEB128 bytes, and the 10th byte can carry
/// only the top bit of the value; both a continuation past 10 bytes and
/// significant bits beyond 64 are rejected instead of silently wrapping
/// the decoded value.
#[inline]
pub(crate) fn decode_token(bytes: &[u8], pos: usize) -> Token {
    const MAX_BYTES: usize = 10;
    let Some(&first) = bytes.get(pos) else {
        return Token::Truncated(0);
    };
    let label = first & 0b11;
    let mut zigzag = u64::from((first >> 2) & 0x1f);
    if first & 0x80 == 0 {
        return Token::Complete(label, zigzag, 1);
    }
    let mut value = 0u64;
    for i in 0..MAX_BYTES {
        let Some(&byte) = bytes.get(pos + 1 + i) else {
            return Token::Truncated(1 + i);
        };
        let payload = u64::from(byte & 0x7f);
        if i == MAX_BYTES - 1 && payload > 1 {
            return Token::Invalid("varint overflows 64 bits");
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            zigzag |= value << 5;
            return Token::Complete(label, zigzag, 1 + i + 1);
        }
    }
    Token::Invalid("varint continues past 10 bytes")
}

/// Reads an entire binary trace from an in-memory slice — the slice form
/// of [`read_binary`](crate::binary::read_binary).
///
/// # Errors
///
/// Returns [`TraceError::ParseBinary`] if the magic, version, record
/// count or any record is malformed.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, slice, TraceRecord};
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_compressed(&mut buf, &recs)?;
/// assert_eq!(slice::read_binary_slice(&buf)?, recs);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_binary_slice(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    read_binary_slice_with(bytes, FaultPolicy::Fail, None).map(|(records, _)| records)
}

/// Reads a binary trace from an in-memory slice under a
/// [`FaultPolicy`] — the slice form of
/// [`read_binary_with`](crate::binary::read_binary_with), which lists
/// the recoverable and the always-fatal faults.
///
/// # Errors
///
/// Exactly as [`read_binary_with`](crate::binary::read_binary_with),
/// except that slices cannot raise I/O errors (a quarantine sidecar
/// write still can).
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, slice, FaultPolicy, TraceRecord};
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_binary(&mut buf, &recs)?;
/// buf[16] = 7; // corrupt the first record's kind byte
/// let (records, report) =
///     slice::read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, None)?;
/// assert_eq!(records, vec![TraceRecord::write(0x100)]);
/// assert_eq!(report.quarantined, 1);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_binary_slice_with(
    bytes: &[u8],
    policy: FaultPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(Vec<TraceRecord>, IngestReport), TraceError> {
    let mut quarantine = quarantine;
    let mut report = IngestReport::default();
    let (version, count) = parse_header(bytes)?;
    let mut out = Vec::with_capacity(count.min(1 << 24));
    let mut pos = HEADER_LEN;
    match version {
        VERSION => {
            for i in 0..count {
                let Some(rec) = bytes.get(pos..pos + RECORD_LEN) else {
                    absorb_fault(
                        policy,
                        &mut report,
                        &mut quarantine,
                        &format!("record {i}: truncated ({})", hex_bytes(&bytes[pos..])),
                        TraceError::ParseBinary(format!("truncated at record {i}")),
                    )?;
                    report.truncated = true;
                    return Ok((out, report));
                };
                pos += RECORD_LEN;
                match AccessKind::from_din_label(rec[0]) {
                    None => absorb_fault(
                        policy,
                        &mut report,
                        &mut quarantine,
                        &format!("record {i}: bad kind {} ({})", rec[0], hex_bytes(rec)),
                        TraceError::ParseBinary(format!("bad kind {} at record {i}", rec[0])),
                    )?,
                    Some(kind) => {
                        let mut addr_bytes = [0u8; 8];
                        addr_bytes.copy_from_slice(&rec[1..9]);
                        let addr = u64::from_le_bytes(addr_bytes);
                        out.push(TraceRecord::new(kind, Address::new(addr)));
                    }
                }
            }
        }
        VERSION_COMPRESSED => {
            let mut last = [0u64; KIND_SLOTS];
            for i in 0..count {
                match decode_token(bytes, pos) {
                    Token::Truncated(len) => {
                        absorb_fault(
                            policy,
                            &mut report,
                            &mut quarantine,
                            &format!(
                                "record {i}: truncated ({})",
                                hex_bytes(&bytes[pos..pos + len])
                            ),
                            TraceError::ParseBinary(format!("truncated at record {i}")),
                        )?;
                        report.truncated = true;
                        return Ok((out, report));
                    }
                    // The token boundary is lost: nothing after an
                    // undecodable varint can be re-framed, so this is
                    // fatal under every policy.
                    Token::Invalid(what) => {
                        return Err(TraceError::ParseBinary(format!("{what} at record {i}")));
                    }
                    Token::Complete(label, zigzag, len) => {
                        let token = &bytes[pos..pos + len];
                        pos += len;
                        match AccessKind::from_din_label(label) {
                            // A bad kind cannot be attributed to a
                            // delta slot, so the token is dropped
                            // without touching the tables; framing
                            // stays intact.
                            None => absorb_fault(
                                policy,
                                &mut report,
                                &mut quarantine,
                                &format!("record {i}: bad kind {label} ({})", hex_bytes(token)),
                                TraceError::ParseBinary(format!("bad kind {label} at record {i}")),
                            )?,
                            Some(kind) => {
                                let delta = zigzag_decode(zigzag);
                                let slot = label as usize;
                                let addr = last[slot].wrapping_add(delta as u64);
                                last[slot] = addr;
                                out.push(TraceRecord::new(kind, Address::new(addr)));
                            }
                        }
                    }
                }
            }
        }
        _ => unreachable!("version was validated against the supported set above"),
    }
    let trailing = bytes.len() - pos;
    if trailing > 0 {
        absorb_fault(
            policy,
            &mut report,
            &mut quarantine,
            &format!("trailer: {trailing} trailing bytes after final record"),
            TraceError::ParseBinary(format!("{trailing} trailing bytes after final record")),
        )?;
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{read_binary, write_binary, write_compressed};

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::ifetch(0),
            TraceRecord::read(u64::MAX),
            TraceRecord::write(0x1234_5678_9abc_def0),
        ]
    }

    #[test]
    fn slice_round_trips_both_versions() {
        let recs = sample();
        for packed in [false, true] {
            let mut buf = Vec::new();
            if packed {
                write_compressed(&mut buf, &recs).unwrap();
            } else {
                write_binary(&mut buf, &recs).unwrap();
            }
            assert_eq!(read_binary_slice(&buf).unwrap(), recs);
        }
    }

    #[test]
    fn slice_empty_round_trip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        assert!(read_binary_slice(&buf).unwrap().is_empty());
    }

    #[test]
    fn slice_errors_match_read_path() {
        // A grab-bag of damage; the property suite does this
        // exhaustively — this is the fast smoke version.
        let recs = sample();
        for packed in [false, true] {
            let mut clean = Vec::new();
            if packed {
                write_compressed(&mut clean, &recs).unwrap();
            } else {
                write_binary(&mut clean, &recs).unwrap();
            }
            for mutate in [
                |b: &mut Vec<u8>| b[0] = b'X',
                |b: &mut Vec<u8>| b[4] = 99,
                |b: &mut Vec<u8>| b[6] ^= 1,
                |b: &mut Vec<u8>| {
                    b.truncate(17);
                },
                |b: &mut Vec<u8>| b.push(0xaa),
                |b: &mut Vec<u8>| b[HEADER_LEN] = 0x07, // bad kind (v1) / harmless (v2)
            ] {
                let mut buf = clean.clone();
                mutate(&mut buf);
                let via_read = read_binary(buf.as_slice());
                let via_slice = read_binary_slice(&buf);
                match (via_read, via_slice) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!("outcome mismatch: read={a:?} slice={b:?}"),
                }
            }
        }
    }

    #[test]
    fn varint_rejects_continuation_past_ten_bytes() {
        // A continued first byte, then 11 continued varint bytes.
        let bytes = [0x80u8; 12];
        match decode_token(&bytes, 0) {
            Token::Invalid(what) => assert!(what.contains("10 bytes"), "{what}"),
            _ => panic!("an 11-byte varint must be invalid"),
        }
    }

    #[test]
    fn varint_rejects_overflow_in_tenth_byte() {
        // Nine continuation bytes then a final byte with more than the
        // single bit a u64 has left: the high bits must not be silently
        // discarded.
        let mut bytes = [0x80u8; 11];
        bytes[10] = 0x02;
        match decode_token(&bytes, 0) {
            Token::Invalid(what) => assert!(what.contains("overflows"), "{what}"),
            _ => panic!("a 65-bit varint must be invalid"),
        }

        // The maximum canonical encoding still decodes: with all five
        // first-byte zigzag bits set, the token carries u64::MAX.
        let mut max = [0xffu8; 11];
        max[0] = 0xfc;
        max[10] = 0x01;
        match decode_token(&max, 0) {
            Token::Complete(0, zigzag, 11) => assert_eq!(zigzag, u64::MAX),
            _ => panic!("the maximum canonical varint must decode"),
        }
    }
}
