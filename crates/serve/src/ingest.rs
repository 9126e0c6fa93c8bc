//! Trace ingest: from a submitted trace path to the identity its job
//! key names, and to the records a job simulates.
//!
//! A job key names a trace by its record digest and record count
//! ([`TraceIdentity`]). Computing both means decoding the whole file,
//! which costs far more than answering a cache hit. So ingest keeps a
//! bounded in-process **trace index** from a file's *content*, its
//! [`ContentId`] (format, byte length, XXH64 of the bytes), to the
//! identity those bytes decode to. Identifying an indexed file costs
//! one streamed read and hash of its bytes and no decode.
//!
//! The index is exact. An entry is written only from a strict
//! ([`FaultPolicy::Fail`]) decode of the very bytes that were hashed,
//! and the same bytes in the same format always decode strictly to the
//! same records. So an entry is a pure function of file content, never
//! of a path or a modification time. Evicting one costs a later decode,
//! not a wrong key. A file that cannot be read or decoded strictly goes
//! to the injected [`TraceLoader`] (which may quarantine and skip
//! records) and is never indexed.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mlc_obs::{digest_records_hex, Xxh64};
use mlc_trace::{FaultPolicy, TraceFormat, TraceRecord};

use crate::server::TraceLoader;

/// Most trace contents the index remembers. An entry is two short
/// strings' worth of memory; a daemon serves a handful of traces.
const INDEX_ENTRIES: usize = 1024;

/// Bytes read per step when hashing a file without holding it whole.
const HASH_CHUNK: usize = 64 << 10;

/// A trace file's content: its format (the same bytes decode
/// differently as text and as binary), length, and XXH64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ContentId {
    format: TraceFormat,
    len: u64,
    hash: u64,
}

impl ContentId {
    /// The content id of `bytes` read from `path`.
    fn of(path: &Path, bytes: &[u8]) -> ContentId {
        let mut h = Xxh64::new();
        h.write(bytes);
        ContentId {
            format: TraceFormat::of(path),
            len: bytes.len() as u64,
            hash: h.finish(),
        }
    }

    /// The content id of the file at `path`, streamed in
    /// [`HASH_CHUNK`] pieces so a hit never holds the file in memory.
    fn streamed(path: &Path) -> io::Result<ContentId> {
        let mut file = File::open(path)?;
        let mut buf = vec![0u8; HASH_CHUNK];
        let mut h = Xxh64::new();
        let mut len = 0u64;
        loop {
            match file.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    h.write(&buf[..n]);
                    len += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(ContentId {
            format: TraceFormat::of(path),
            len,
            hash: h.finish(),
        })
    }
}

/// What a job key needs to know about a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceIdentity {
    /// [`digest_records_hex`] of the records.
    pub digest: String,
    /// Number of records.
    pub records: u64,
}

impl TraceIdentity {
    fn of(records: &[TraceRecord]) -> TraceIdentity {
        TraceIdentity {
            digest: digest_records_hex(records),
            records: records.len() as u64,
        }
    }
}

/// A resolved trace: its identity, and its records when resolving had
/// to decode them.
#[derive(Debug)]
pub(crate) struct Resolved {
    pub identity: TraceIdentity,
    pub records: Option<Vec<TraceRecord>>,
}

/// The bounded content-to-identity map, evicting oldest-inserted
/// first.
#[derive(Debug, Default)]
struct TraceIndex {
    entries: HashMap<ContentId, TraceIdentity>,
    order: VecDeque<ContentId>,
}

/// The server's one trace-ingest path: the trace index, the injected
/// loader behind it, and counters of how each resolution went.
pub(crate) struct Ingest {
    loader: TraceLoader,
    index: Mutex<TraceIndex>,
    index_hits: AtomicU64,
    index_fills: AtomicU64,
    loader_fallbacks: AtomicU64,
}

impl Ingest {
    pub fn new(loader: TraceLoader) -> Ingest {
        Ingest {
            loader,
            index: Mutex::new(TraceIndex::default()),
            index_hits: AtomicU64::new(0),
            index_fills: AtomicU64::new(0),
            loader_fallbacks: AtomicU64::new(0),
        }
    }

    /// Resolves the trace at `path` to its identity: from the index
    /// when the file's streamed content is known (no records), else as
    /// [`Ingest::load`] does.
    ///
    /// # Errors
    ///
    /// The loader's error when the file is neither indexed nor strictly
    /// decodable and the loader rejects it too.
    pub fn identify(&self, path: &Path, trace_id: &str) -> Result<Resolved, String> {
        if let Ok(id) = ContentId::streamed(path) {
            if let Some(identity) = self.lookup(&id) {
                return Ok(Resolved {
                    identity,
                    records: None,
                });
            }
        }
        self.load(path, trace_id)
    }

    /// Reads the trace at `path` whole and decodes it, returning the
    /// records with the identity of exactly those bytes: the indexed
    /// one when their content is known, else their freshly computed
    /// digest (indexed for next time). A file that cannot be read or
    /// decoded strictly goes to the loader and is not indexed.
    ///
    /// # Errors
    ///
    /// The loader's error when it rejects the file too.
    pub fn load(&self, path: &Path, trace_id: &str) -> Result<Resolved, String> {
        if let Ok(bytes) = std::fs::read(path) {
            let id = ContentId::of(path, &bytes);
            let decoded = id.format.decode(&bytes, FaultPolicy::Fail, None);
            // Hold one copy of the trace, not the bytes and the records.
            drop(bytes);
            if let Ok((records, _)) = decoded {
                let identity = match self.lookup(&id) {
                    Some(identity) => identity,
                    None => {
                        let identity = TraceIdentity::of(&records);
                        self.fill(id, identity.clone());
                        identity
                    }
                };
                return Ok(Resolved {
                    identity,
                    records: Some(records),
                });
            }
        }
        self.loader_fallbacks.fetch_add(1, Ordering::Relaxed);
        let records = (self.loader)(path, trace_id)?;
        Ok(Resolved {
            identity: TraceIdentity::of(&records),
            records: Some(records),
        })
    }

    /// `(index hits, index fills, loader fallbacks)` so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.index_hits.load(Ordering::Relaxed),
            self.index_fills.load(Ordering::Relaxed),
            self.loader_fallbacks.load(Ordering::Relaxed),
        )
    }

    fn index(&self) -> std::sync::MutexGuard<'_, TraceIndex> {
        self.index.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lookup(&self, id: &ContentId) -> Option<TraceIdentity> {
        let identity = self.index().entries.get(id).cloned();
        if identity.is_some() {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
        }
        identity
    }

    fn fill(&self, id: ContentId, identity: TraceIdentity) {
        let mut index = self.index();
        if index.entries.insert(id, identity).is_none() {
            index.order.push_back(id);
            if index.order.len() > INDEX_ENTRIES {
                let oldest = index.order.pop_front().expect("order is non-empty");
                index.entries.remove(&oldest);
            }
        }
        self.index_fills.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mlc_serve_ingest_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn refusing_loader() -> TraceLoader {
        Box::new(|_: &Path, _: &str| Err("loader refused".to_string()))
    }

    #[test]
    fn streamed_and_whole_content_ids_agree() {
        let dir = temp_dir("ids");
        let path = dir.join("t.mlct");
        let bytes: Vec<u8> = (0..3 * HASH_CHUNK as u32 + 17).map(|i| i as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            ContentId::streamed(&path).unwrap(),
            ContentId::of(&path, &bytes)
        );
        // The same bytes named as text are different content.
        assert_ne!(
            ContentId::of(&dir.join("t.din"), &bytes),
            ContentId::of(&path, &bytes)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_indexed_file_is_identified_without_decoding() {
        let dir = temp_dir("hit");
        let path = dir.join("t.din");
        std::fs::write(&path, "2 4\n0 8\n1 c\n").unwrap();
        let ingest = Ingest::new(refusing_loader());
        let first = ingest.identify(&path, "").unwrap();
        let records = first.records.expect("a new file is decoded");
        assert_eq!(first.identity, TraceIdentity::of(&records));
        assert_eq!(ingest.counters(), (0, 1, 0));

        let again = ingest.identify(&path, "").unwrap();
        assert!(again.records.is_none(), "an indexed file is not decoded");
        assert_eq!(again.identity, first.identity);
        assert_eq!(ingest.counters(), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_or_malformed_files_go_to_the_loader_and_are_not_indexed() {
        let dir = temp_dir("fallback");
        let ingest = Ingest::new(refusing_loader());
        let err = ingest.identify(&dir.join("missing.din"), "").unwrap_err();
        assert_eq!(err, "loader refused");
        let bad = dir.join("bad.din");
        std::fs::write(&bad, "2 4\nnot a record\n").unwrap();
        assert!(ingest.identify(&bad, "").is_err());
        assert_eq!(ingest.counters(), (0, 0, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_index_is_bounded() {
        let dir = temp_dir("bound");
        let path = dir.join("t.din");
        std::fs::write(&path, "2 4\n").unwrap();
        let ingest = Ingest::new(refusing_loader());
        let identity = ingest.load(&path, "").unwrap().identity;
        for n in 0..INDEX_ENTRIES as u64 + 10 {
            let id = ContentId {
                format: TraceFormat::Binary,
                len: n,
                hash: n,
            };
            ingest.fill(id, identity.clone());
        }
        let index = ingest.index();
        assert_eq!(index.entries.len(), INDEX_ENTRIES);
        assert_eq!(index.order.len(), INDEX_ENTRIES);
        drop(index);
        // The oldest entry, the real file's, was evicted: it decodes again.
        assert!(ingest.identify(&path, "").unwrap().records.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
