//! Content digests for trace provenance.
//!
//! A manifest that names a trace only by path is an audit trail with a
//! hole in it — the file can be regenerated with a different seed and
//! every downstream number silently changes. The 64-bit FNV-1a digest
//! here hashes the *records* (kind label + address), not the file
//! bytes, so the same trace stored as `.din`, fixed-width binary, or
//! delta-compressed binary digests identically.
//!
//! [`Xxh64`] hashes *bytes* instead, about twenty times faster: the
//! serving layer uses it to recognise a trace file it has already
//! decoded without decoding it again.

use mlc_trace::TraceRecord;

/// Streaming 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use mlc_obs::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"hello");
/// assert_eq!(h.finish(), 0xa430d84680aabd0b);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 {
            state: OFFSET_BASIS,
        }
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Streaming XXH64 (seed 0): a 64-bit non-cryptographic hash that
/// consumes 32-byte stripes as four independent `u64` lanes, so it runs
/// at memory speed rather than a byte per multiply like [`Fnv64`].
/// Output is independent of how the input is split across
/// [`Xxh64::write`] calls.
///
/// # Examples
///
/// ```
/// use mlc_obs::Xxh64;
///
/// let mut h = Xxh64::new();
/// h.write(b"ab");
/// h.write(b"c");
/// assert_eq!(h.finish(), 0x44bc2cf5ad770999);
/// ```
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    total_len: u64,
    buf: [u8; 32],
    buf_len: usize,
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

impl Xxh64 {
    /// A hasher with seed 0.
    pub fn new() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            total_len: 0,
            buf: [0; 32],
            buf_len: 0,
        }
    }

    fn stripe(&mut self, stripe: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = xxh_round(*lane, le_u64(word));
        }
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.buf_len > 0 {
            let take = (32 - self.buf_len).min(bytes.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len < 32 {
                return;
            }
            let buf = self.buf;
            self.stripe(&buf);
            self.buf_len = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            self.stripe(stripe);
        }
        let tail = stripes.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total_len >= 32 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| xxh_merge(h, lane))
        } else {
            // Fewer than 32 bytes in all: no stripe ran, and v3 is the seed.
            v3.wrapping_add(P5)
        };
        h = h.wrapping_add(self.total_len);
        let mut rest = &self.buf[..self.buf_len];
        while rest.len() >= 8 {
            h ^= xxh_round(0, le_u64(rest));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            h ^= u64::from(word).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64::new()
    }
}

/// Digests a record sequence: per record, the din kind label byte
/// followed by the address in little-endian order.
///
/// # Examples
///
/// ```
/// use mlc_obs::digest_records;
/// use mlc_trace::TraceRecord;
///
/// let a = [TraceRecord::ifetch(0x4), TraceRecord::read(0x100)];
/// let b = [TraceRecord::ifetch(0x4), TraceRecord::read(0x101)];
/// assert_ne!(digest_records(&a), digest_records(&b));
/// assert_eq!(digest_records(&a), digest_records(&a));
/// ```
pub fn digest_records(records: &[TraceRecord]) -> u64 {
    let mut h = Fnv64::new();
    for r in records {
        h.write(&[r.kind.din_label()]);
        h.write(&r.addr.get().to_le_bytes());
    }
    h.finish()
}

/// [`digest_records`] rendered as the manifest's digest string, e.g.
/// `"fnv1a64:a1b2c3d4e5f60718"`.
pub fn digest_records_hex(records: &[TraceRecord]) -> String {
    format!("fnv1a64:{:016x}", digest_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325); // empty
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    fn xxh64(bytes: &[u8]) -> u64 {
        let mut h = Xxh64::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn matches_xxh64_reference_vectors() {
        // Published XXH64 seed-0 vectors; the last is 39 bytes, so the
        // 32-byte stripe loop and every tail step run.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn xxh64_streaming_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let whole = xxh64(&data[..len]);
            for split in 0..=len {
                let mut h = Xxh64::new();
                h.write(&data[..split]);
                h.write(&data[split..len]);
                assert_eq!(h.finish(), whole, "len {len}, split {split}");
            }
        }
    }

    #[test]
    fn xxh64_streaming_across_a_64k_chunk_boundary() {
        const CHUNK: usize = 64 << 10;
        let data: Vec<u8> = (0..CHUNK as u32 + 1000)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let whole = xxh64(&data);
        for split in [CHUNK - 33, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 31] {
            let mut h = Xxh64::new();
            for chunk in [&data[..split], &data[split..]] {
                h.write(chunk);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
        let mut h = Xxh64::new();
        for chunk in data.chunks(CHUNK) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), whole, "64 KiB chunks");
        // Odd-sized writes that straddle stripes and the chunk boundary.
        let mut h = Xxh64::new();
        for chunk in data.chunks(7_919) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), whole, "7919-byte chunks");
    }

    #[test]
    fn digest_is_order_and_kind_sensitive() {
        let a = [TraceRecord::read(1), TraceRecord::write(2)];
        let b = [TraceRecord::write(2), TraceRecord::read(1)];
        let c = [TraceRecord::write(1), TraceRecord::read(2)];
        assert_ne!(digest_records(&a), digest_records(&b));
        assert_ne!(digest_records(&a), digest_records(&c));
        assert_ne!(digest_records(&a), digest_records(&a[..1]));
    }

    #[test]
    fn hex_format_is_fixed_width() {
        let d = digest_records_hex(&[]);
        assert!(d.starts_with("fnv1a64:"));
        assert_eq!(d.len(), "fnv1a64:".len() + 16);
    }
}
