//! Agreement property suite for the two binary decoding APIs: over
//! every-offset truncations and bit-flips of both binary layouts, the
//! `Read` API (`read_binary_with`) and the slice API
//! (`read_binary_slice_with`) must be indistinguishable — identical
//! records, identical error strings, identical quarantine sidecars and
//! ingest reports, identical record digests. Both run the one slice
//! decoder; this suite pins that the `Read` adapter adds nothing and
//! loses nothing on the way.

use mlc_trace::binary::{read_binary_with, write_binary, write_compressed};
use mlc_trace::slice::read_binary_slice_with;
use mlc_trace::{FaultPolicy, TraceRecord};

/// A small but representative trace: all three kinds, delta extremes.
fn sample() -> Vec<TraceRecord> {
    let mut recs = Vec::new();
    for i in 0..8u64 {
        recs.push(TraceRecord::ifetch(i * 4));
        recs.push(TraceRecord::read(0x1000 + i * 64));
        recs.push(TraceRecord::write(u64::MAX - i));
    }
    recs
}

/// The two binary layouts the slice decoder handles (`.din` has no
/// slice path — it is line-oriented text).
fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let recs = sample();
    let mut v1 = Vec::new();
    write_binary(&mut v1, &recs).unwrap();
    let mut v2 = Vec::new();
    write_compressed(&mut v2, &recs).unwrap();
    vec![("v1", v1), ("v2", v2)]
}

/// The workspace's trace content digest (FNV-1a over din label byte +
/// little-endian address per record), inlined so this suite needs no
/// reverse dependency on `mlc-obs`.
fn digest(records: &[TraceRecord]) -> u64 {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x100_0000_01b3);
    };
    for rec in records {
        eat(rec.kind.din_label());
        for b in rec.addr.get().to_le_bytes() {
            eat(b);
        }
    }
    state
}

type Outcome = (
    Result<(Vec<TraceRecord>, u64, bool), String>,
    String, // quarantine sidecar contents
);

fn via_read(bytes: &[u8], policy: FaultPolicy) -> Outcome {
    let mut sidecar = Vec::new();
    let result = read_binary_with(bytes, policy, Some(&mut sidecar))
        .map(|(recs, report)| (recs, report.quarantined, report.truncated))
        .map_err(|e| e.to_string());
    (result, String::from_utf8(sidecar).unwrap())
}

fn via_slice(bytes: &[u8], policy: FaultPolicy) -> Outcome {
    let mut sidecar = Vec::new();
    let result = read_binary_slice_with(bytes, policy, Some(&mut sidecar))
        .map(|(recs, report)| (recs, report.quarantined, report.truncated))
        .map_err(|e| e.to_string());
    (result, String::from_utf8(sidecar).unwrap())
}

/// Both paths on the same bytes must agree on everything observable.
fn assert_equivalent(context: &str, bytes: &[u8], policy: FaultPolicy) {
    let (read_out, read_sidecar) = via_read(bytes, policy);
    let (slice_out, slice_sidecar) = via_slice(bytes, policy);
    match (&read_out, &slice_out) {
        (Ok((r_recs, r_quar, r_trunc)), Ok((s_recs, s_quar, s_trunc))) => {
            assert_eq!(r_recs, s_recs, "{context}: records diverge");
            assert_eq!(digest(r_recs), digest(s_recs), "{context}: digests diverge");
            assert_eq!(r_quar, s_quar, "{context}: quarantined counts diverge");
            assert_eq!(r_trunc, s_trunc, "{context}: truncated flags diverge");
        }
        (Err(r_err), Err(s_err)) => {
            assert_eq!(r_err, s_err, "{context}: error strings diverge");
        }
        _ => panic!("{context}: outcome kinds diverge (read: {read_out:?}, slice: {slice_out:?})"),
    }
    assert_eq!(read_sidecar, slice_sidecar, "{context}: sidecars diverge");
}

const POLICIES: [FaultPolicy; 3] = [
    FaultPolicy::Fail,
    FaultPolicy::Skip { budget: 1 },
    FaultPolicy::Skip { budget: 64 },
];

#[test]
fn clean_payloads_decode_identically() {
    for (name, bytes) in encodings() {
        for policy in POLICIES {
            assert_equivalent(&format!("{name} clean {policy:?}"), &bytes, policy);
        }
        // And both paths actually return the written records.
        let (out, _) = via_slice(&bytes, FaultPolicy::Fail);
        assert_eq!(out.unwrap().0, sample(), "{name}: wrong records");
    }
}

#[test]
fn truncation_at_every_offset_is_identical() {
    for (name, bytes) in encodings() {
        for cut in 0..=bytes.len() {
            for policy in POLICIES {
                assert_equivalent(
                    &format!("{name} cut at {cut} under {policy:?}"),
                    &bytes[..cut],
                    policy,
                );
            }
        }
    }
}

#[test]
fn bit_flips_at_every_offset_are_identical() {
    for (name, bytes) in encodings() {
        for offset in 0..bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut flipped = bytes.clone();
                flipped[offset] ^= mask;
                for policy in POLICIES {
                    assert_equivalent(
                        &format!("{name} flip {mask:#x} at {offset} under {policy:?}"),
                        &flipped,
                        policy,
                    );
                }
            }
        }
    }
}

#[test]
fn trailing_garbage_is_identical() {
    for (name, bytes) in encodings() {
        for extra in [1usize, 7] {
            let mut long = bytes.clone();
            long.extend(std::iter::repeat_n(0xaau8, extra));
            for policy in POLICIES {
                assert_equivalent(
                    &format!("{name} with {extra} trailing bytes under {policy:?}"),
                    &long,
                    policy,
                );
            }
        }
    }
}
