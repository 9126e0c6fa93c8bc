//! The sweep server: job resolution, single-flight deduplication, the
//! compute workers, and crash recovery.
//!
//! A submission resolves to a content-addressed key
//! ([`crate::key::job_key`]). The key names the trace by its record
//! digest and record count. Ingest finds both without decoding when it
//! has seen the file's bytes before: it streams the file through XXH64
//! and looks the content up in an exact in-process trace index
//! (`ingest.rs`). Only a new content is decoded, strictly, and only a
//! file that fails to read or to decode strictly reaches the injected
//! [`TraceLoader`]. The submission is then answered by the first of:
//!
//! 1. the two-tier result cache (memory, then disk — hit at any level
//!    returns immediately);
//! 2. an identical **in-flight** job (single-flight: the submission
//!    subscribes to the running job's events instead of starting a
//!    second simulation);
//! 3. a fresh worker, which journals every completed grid row
//!    crash-consistently and commits the finished journal into the
//!    cache with one atomic rename. The records it simulates are
//!    decoded from one whole read of the file, and a job runs only
//!    under the key of exactly those bytes: if the file changed after
//!    it was identified, the submission is keyed again from the new
//!    bytes.
//!
//! On startup, [`Server::recover`] scans the spool for journals an
//! earlier process left behind (a crash, a `kill -9`) and resumes them:
//! committed rows are replayed from the journal, only the missing rows
//! are simulated — the daemon-side equivalent of
//! `mlc-sweep --journal … --resume`. Recovery reads traces through the
//! same ingest path as submissions.
//!
//! ## Overload behaviour
//!
//! The server is bounded everywhere a client could otherwise grow it:
//! the job table admits at most [`ServerConfig::max_jobs`] concurrent
//! sweeps (excess submissions get a typed [`SubmitError::Overloaded`],
//! never a queue), and every subscriber channel is a bounded
//! `sync_channel` — a stalled peer loses *events* (progress lines are
//! droppable; a dropped terminal event degrades to an idempotent
//! refetch), never pins server memory. Degradation is counted
//! ([`Server::stats`]) and mirrored into `mlc-obs` metrics.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mlc_cache::ByteSize;
use mlc_core::{DesignGrid, Explorer, GridRow, SweepEngine};
use mlc_obs::json::JsonValue;
use mlc_obs::span::{mint_trace_id, valid_trace_id, Stage};
use mlc_obs::{JournalHeader, JournalRow, JournalWriter, Metrics};
use mlc_sim::machine::BaseMachine;
use mlc_trace::TraceRecord;

use crate::cache::{ResultCache, Tier};
use crate::chaos::FaultInjector;
use crate::ingest::{Ingest, Resolved};
use crate::key::{job_key, key_stem};
use crate::proto::{Source, Stats, SubmitRequest, PROTO, STATS_SCHEMA};
use crate::stats::ServerStats;
use crate::store::{rows_from_journal, DiskStore, JobSpec};

/// How a server turns a trace path into records when its own strict
/// ingest cannot: the server consults it only for a file that fails to
/// read or to decode strictly ([`mlc_trace::FaultPolicy::Fail`]), and
/// never indexes what it returns. Any file that does decode strictly
/// must load to exactly those records, as every loader here does.
/// Injectable so the daemon binary can plug in quarantine-aware
/// ingestion while the library stays dependency-light. The second
/// argument is the
/// requesting submission's trace context (empty when there is none,
/// e.g. a recovery reload of a pre-tracing journal) so ingestion
/// diagnostics — quarantine warnings and sidecar context — can name
/// the request that triggered them.
pub type TraceLoader = Box<dyn Fn(&Path, &str) -> Result<Vec<TraceRecord>, String> + Send + Sync>;

/// A loader for the workspace's native formats: `.din` Dinero text,
/// anything else the `mlc` binary trace layouts (strict ingestion, no
/// quarantine).
pub fn default_loader() -> TraceLoader {
    Box::new(|path: &Path, _trace_id: &str| {
        mlc_trace::read_file(path, mlc_trace::FaultPolicy::Fail, None)
            .map(|(records, _)| records)
            .map_err(|e| e.to_string())
    })
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the on-disk store (`cache/` + `jobs/` live under it).
    pub store_root: PathBuf,
    /// Capacity of the in-memory cache tier, in grids.
    pub mem_entries: usize,
    /// Artificial delay before committing each grid row — a test hook
    /// (`MLC_SERVE_ROW_DELAY_MS` in the daemon) that widens the window
    /// for deterministic kill-mid-sweep exercises.
    pub row_delay: Duration,
    /// Maximum concurrent jobs; further submissions are shed with
    /// [`SubmitError::Overloaded`].
    pub max_jobs: usize,
    /// Depth of each subscriber's bounded event queue.
    pub event_queue: usize,
    /// Byte budget for the committed disk tier (`None` = unbounded).
    pub disk_budget: Option<u64>,
    /// Per-connection socket read/write timeout (`None` = blocking
    /// forever; the default reaps stalled peers after 30 s).
    pub io_timeout: Option<Duration>,
    /// Maximum live connection handler threads; over-cap connects get a
    /// typed `overloaded` rejection and an immediate close.
    pub max_handlers: usize,
    /// Fault injector shared with the store (inert by default).
    pub chaos: Arc<FaultInjector>,
    /// Metrics sink for shed/timeout/eviction accounting (disabled by
    /// default — disabled metrics are free).
    pub metrics: Metrics,
    /// Spans retained verbatim for Perfetto export (0 = off, the
    /// default: histograms and counters still record, only the
    /// per-span timeline is skipped). The daemon turns this on for
    /// `--events-out`.
    pub span_retention: usize,
}

impl ServerConfig {
    /// Defaults: 8-entry memory tier, no row delay, 32-job table,
    /// 64-deep event queues, unbounded disk, 30 s I/O timeout, 64
    /// handlers, no chaos, no metrics, no span retention.
    pub fn new(store_root: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            store_root: store_root.into(),
            mem_entries: 8,
            row_delay: Duration::ZERO,
            max_jobs: 32,
            event_queue: 64,
            disk_budget: None,
            io_timeout: Some(Duration::from_secs(30)),
            max_handlers: 64,
            chaos: FaultInjector::none(),
            metrics: Metrics::disabled(),
            span_retention: 0,
        }
    }
}

/// Why a submission was rejected, split so connection layers can answer
/// with the right wire event (`error` vs `overloaded`) and clients can
/// decide whether a retry makes sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The request itself is bad (engine, grid shape, unreadable
    /// trace). Retrying the same bytes cannot succeed.
    Invalid(String),
    /// Admission control shed the request; retry after backoff.
    Overloaded(String),
    /// Spooling the job failed (e.g. disk full). Transient: retryable.
    Io(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(m) | SubmitError::Overloaded(m) | SubmitError::Io(m) => {
                f.write_str(m)
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl SubmitError {
    /// Whether an identical resubmission may succeed.
    pub fn retryable(&self) -> bool {
        !matches!(self, SubmitError::Invalid(_))
    }
}

/// Why a job failed, with the retry hint the wire protocol carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// What went wrong.
    pub message: String,
    /// Whether an identical resubmission may succeed (I/O faults are
    /// transient; simulation failures are deterministic).
    pub retryable: bool,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JobError {}

/// An event delivered to a submission's subscriber channel.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// One more grid row committed.
    Progress {
        /// Size index of the row that just completed.
        row: u64,
        /// Rows committed so far (journal-resumed rows included).
        rows_done: u64,
        /// Total rows in the job.
        rows_total: u64,
    },
    /// Terminal: the job finished (successfully or not).
    Done(JobDone),
}

/// The terminal state of a job, broadcast to every subscriber.
#[derive(Debug, Clone)]
pub struct JobDone {
    /// The job key.
    pub key: String,
    /// How the result was produced (always [`Source::Computed`] from a
    /// worker; connection layers rewrite it for coalesced followers).
    pub source: Source,
    /// Rows replayed from a crash-surviving journal.
    pub rows_resumed: u64,
    /// The completed grid, or why the job failed.
    pub result: Result<Arc<DesignGrid>, JobError>,
    /// Progress events *this subscriber's* queue dropped while the job
    /// ran — each waiter's terminal event is tagged with its own loss,
    /// so a lossy stream is visible to the client it was lossy *for*
    /// (0 from the done-latch: a late subscriber missed nothing it was
    /// ever sent).
    pub dropped: u64,
}

/// One subscriber channel plus its private loss count.
#[derive(Debug)]
struct Waiter {
    tx: SyncSender<JobEvent>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct JobState {
    rows_done: usize,
    done: Option<JobDone>,
    waiters: Vec<Waiter>,
}

/// One in-flight sweep: the single-flight rendezvous point.
///
/// Subscriber queues are **bounded** (`sync_channel`): a peer that
/// stops reading cannot grow server memory. Progress events are
/// best-effort — a full queue drops the event, not the waiter. The
/// terminal event prefers the waiter's queue but will drop the *waiter*
/// if even that is full: the client either sees its connection close
/// (and refetches — keys are content-addressed, refetch is free) or was
/// never going to read anyway.
#[derive(Debug)]
struct Job {
    key: String,
    /// The trace context of the submission that started (or resumed)
    /// this job. Followers that attach without a context of their own
    /// inherit it, so one id follows the work however many submissions
    /// coalesce onto it.
    trace_id: String,
    rows_total: usize,
    rows_resumed: usize,
    event_queue: usize,
    events_dropped: AtomicU64,
    state: Mutex<JobState>,
}

impl Job {
    fn new(
        key: String,
        trace_id: String,
        rows_total: usize,
        rows_resumed: usize,
        event_queue: usize,
    ) -> Job {
        Job {
            key,
            trace_id,
            rows_total,
            rows_resumed,
            event_queue: event_queue.max(1),
            events_dropped: AtomicU64::new(0),
            state: Mutex::new(JobState {
                rows_done: rows_resumed,
                ..JobState::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Subscribes to this job's events. A subscriber that arrives after
    /// the job finished still receives the terminal [`JobEvent::Done`]
    /// immediately — the done-latch closes the finish/subscribe race.
    fn subscribe(&self) -> Receiver<JobEvent> {
        let (tx, rx) = sync_channel(self.event_queue);
        let mut st = self.lock();
        match &st.done {
            Some(done) => {
                let _ = tx.try_send(JobEvent::Done(done.clone()));
            }
            None => st.waiters.push(Waiter { tx, dropped: 0 }),
        }
        rx
    }

    fn progress(&self, row: u64) {
        let mut st = self.lock();
        st.rows_done += 1;
        let event = JobEvent::Progress {
            row,
            rows_done: st.rows_done as u64,
            rows_total: self.rows_total as u64,
        };
        let mut dropped = 0;
        st.waiters
            .retain_mut(|w| match w.tx.try_send(event.clone()) {
                Ok(()) => true,
                // Stalled reader: lose the progress line, keep the waiter —
                // and remember the loss, so this subscriber's terminal
                // event reports exactly how lossy its stream was.
                Err(TrySendError::Full(_)) => {
                    w.dropped += 1;
                    dropped += 1;
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        if dropped > 0 {
            self.events_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    fn finish(&self, done: JobDone) {
        let mut st = self.lock();
        let mut dropped = 0;
        for w in st.waiters.drain(..) {
            // Tag each waiter's terminal event with its own loss count.
            let mut done = done.clone();
            done.dropped = w.dropped;
            if matches!(
                w.tx.try_send(JobEvent::Done(done)),
                Err(TrySendError::Full(_))
            ) {
                // A reader so far behind its queue is full of progress
                // it never drained: drop it. Closing the channel ends
                // its connection; a retry hits the cache.
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.events_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        st.done = Some(done);
    }
}

/// Where a key currently stands, for the `status` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Never seen (or evicted everywhere).
    Unknown,
    /// An in-flight job is computing it.
    Running {
        /// Rows committed so far.
        rows_done: u64,
        /// Total rows in the job.
        rows_total: u64,
        /// Subscriber events the job has dropped so far (stalled
        /// readers losing progress lines).
        events_dropped: u64,
    },
    /// Completed, resident in the memory tier.
    CachedMemory,
    /// Completed, on disk (now backfilled into memory).
    CachedDisk,
}

/// A live (non-cached) submission: the key plus the event stream to
/// follow until [`JobEvent::Done`].
#[derive(Debug)]
pub struct Submission {
    /// The content-addressed job key.
    pub key: String,
    /// Total rows in the job.
    pub rows_total: u64,
    /// Rows replayed from a crash-surviving journal.
    pub rows_resumed: u64,
    /// Whether this submission attached to an identical in-flight job
    /// instead of starting one (single-flight).
    pub coalesced: bool,
    /// The submission's trace context: the caller-supplied id, a
    /// server-minted one for bare requests, or — for a coalesced
    /// follower that supplied none — the id of the job it attached to.
    pub trace_id: String,
    /// The subscriber channel; ends with [`JobEvent::Done`].
    pub events: Receiver<JobEvent>,
}

/// What a submission resolved to.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Answered from the result cache, no simulation started.
    Cached {
        /// The content-addressed job key.
        key: String,
        /// The cached grid (bit-identical to the run that computed it).
        grid: Arc<DesignGrid>,
        /// Which tier answered.
        tier: Tier,
        /// The request's trace context (caller-supplied or minted).
        trace_id: String,
    },
    /// A job is computing (or already was, for coalesced submissions).
    Running(Submission),
}

/// What [`Server::recover`] found in the spool.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Keys of resumed in-flight jobs.
    pub resumed: Vec<String>,
    /// Spool entries that could not be resumed (and what happened).
    pub errors: Vec<String>,
}

/// The sweep server. Shared across connection handlers via `Arc`.
pub struct Server {
    cache: ResultCache,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    ingest: Ingest,
    row_delay: Duration,
    max_jobs: usize,
    event_queue: usize,
    io_timeout: Option<Duration>,
    max_handlers: usize,
    chaos: Arc<FaultInjector>,
    metrics: Metrics,
    telemetry: ServerStats,
    started: Instant,
    shutdown: AtomicBool,
    jobs_computed: AtomicU64,
    jobs_recovered: AtomicU64,
    jobs_coalesced: AtomicU64,
    jobs_shed: AtomicU64,
    jobs_timeout: AtomicU64,
    handlers_active: AtomicU64,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("cache", &self.cache)
            .field("row_delay", &self.row_delay)
            .field("max_jobs", &self.max_jobs)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Opens the store and builds a server.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the store directories.
    pub fn new(config: ServerConfig, loader: TraceLoader) -> io::Result<Arc<Server>> {
        let disk = DiskStore::open_with(
            &config.store_root,
            config.disk_budget,
            Arc::clone(&config.chaos),
        )?;
        Ok(Arc::new(Server {
            cache: ResultCache::new(disk, config.mem_entries),
            jobs: Mutex::new(HashMap::new()),
            ingest: Ingest::new(loader),
            row_delay: config.row_delay,
            max_jobs: config.max_jobs.max(1),
            event_queue: config.event_queue,
            io_timeout: config.io_timeout,
            max_handlers: config.max_handlers.max(1),
            chaos: config.chaos,
            metrics: config.metrics,
            telemetry: ServerStats::new(config.span_retention),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            jobs_computed: AtomicU64::new(0),
            jobs_recovered: AtomicU64::new(0),
            jobs_coalesced: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            jobs_timeout: AtomicU64::new(0),
            handlers_active: AtomicU64::new(0),
        }))
    }

    /// Requests shutdown: the accept loop drains and exits.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown was requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The metrics sink (disabled metrics are free).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The request-lifecycle telemetry recorder (span histograms, tier
    /// counters, retained spans). Connection layers record their own
    /// stages (accept, parse, reply) through it.
    pub fn telemetry(&self) -> &ServerStats {
        &self.telemetry
    }

    /// Per-connection socket read/write timeout.
    pub fn io_timeout(&self) -> Option<Duration> {
        self.io_timeout
    }

    /// Maximum live connection handler threads.
    pub fn max_handlers(&self) -> usize {
        self.max_handlers
    }

    /// The shared fault injector (inert unless a test or
    /// `MLC_SERVE_CHAOS` armed it).
    pub fn chaos(&self) -> &Arc<FaultInjector> {
        &self.chaos
    }

    /// Counts a shed request (admission control or handler cap).
    pub fn note_shed(&self) {
        self.jobs_shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.add("serve.jobs_shed", 1);
    }

    /// Counts a response that hit its deadline.
    pub fn note_timeout(&self) {
        self.jobs_timeout.fetch_add(1, Ordering::Relaxed);
        self.metrics.add("serve.jobs_timeout", 1);
    }

    /// Accounts a connection handler starting; pair with
    /// [`Server::handler_finished`].
    pub fn handler_started(&self) {
        self.handlers_active.fetch_add(1, Ordering::SeqCst);
    }

    /// Accounts a connection handler exiting.
    pub fn handler_finished(&self) {
        self.handlers_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Connection handler threads currently live.
    pub fn handlers_active(&self) -> u64 {
        self.handlers_active.load(Ordering::SeqCst)
    }

    /// Waits for the job table to drain (jobs keep journalling and
    /// committing during the wait), up to `timeout`. Returns whether
    /// every job finished; journals of unfinished jobs stay in the
    /// spool, resumable on the next start. Call after [`Server::shutdown`]
    /// so no new jobs are admitted meanwhile.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let in_flight = self.jobs.lock().unwrap_or_else(|p| p.into_inner()).len();
            if in_flight == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Current statistics (the `pong` payload).
    pub fn stats(&self) -> Stats {
        let disk = self.cache.disk();
        let (disk_evictions, disk_evicted_bytes) = disk.eviction_totals();
        Stats {
            jobs_computed: self.jobs_computed.load(Ordering::Relaxed),
            jobs_recovered: self.jobs_recovered.load(Ordering::Relaxed),
            jobs_coalesced: self.jobs_coalesced.load(Ordering::Relaxed),
            mem_entries: self.cache.mem_entries() as u64,
            disk_entries: self.cache.disk_entries() as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            jobs_timeout: self.jobs_timeout.load(Ordering::Relaxed),
            disk_bytes: disk.disk_bytes(),
            disk_evictions,
            disk_evicted_bytes,
            handlers_active: self.handlers_active(),
            spool_orphans: disk.orphans_removed(),
        }
    }

    /// The full telemetry document a `stats` request returns: the
    /// versioned `mlc-stats/1` JSON doc described in DESIGN.md §18.
    /// `version` is the serving binary's version string.
    pub fn stats_doc(&self, version: &str) -> JsonValue {
        let stats = self.stats();
        let t = &self.telemetry;
        let (mem_hits, disk_hits, misses) = (t.mem_hits(), t.disk_hits(), t.misses());
        let (index_hits, index_fills, loader_fallbacks) = self.ingest.counters();
        let lookups = mem_hits + disk_hits + misses;
        let ratio = |hits: u64| {
            if lookups == 0 {
                JsonValue::Null
            } else {
                JsonValue::F64(hits as f64 / lookups as f64)
            }
        };
        let quantile = |v: Option<u64>| v.map(JsonValue::U64).unwrap_or(JsonValue::Null);
        let stages = Stage::ALL.iter().map(|&stage| {
            let hist = t.stage_histogram(stage);
            let mut fields = match hist.to_json() {
                JsonValue::Object(fields) => fields,
                _ => unreachable!("Log2Histogram::to_json returns an object"),
            };
            fields.push(("p50".into(), quantile(hist.p50())));
            fields.push(("p90".into(), quantile(hist.p90())));
            fields.push(("p99".into(), quantile(hist.p99())));
            (stage.as_str().to_owned(), JsonValue::Object(fields))
        });
        JsonValue::object([
            ("schema".into(), STATS_SCHEMA.into()),
            ("proto".into(), PROTO.into()),
            ("version".into(), version.into()),
            ("uptime_ms".into(), stats.uptime_ms.into()),
            (
                "counters".into(),
                JsonValue::object([
                    ("jobs_computed".into(), stats.jobs_computed.into()),
                    ("jobs_recovered".into(), stats.jobs_recovered.into()),
                    ("jobs_coalesced".into(), stats.jobs_coalesced.into()),
                    ("jobs_shed".into(), stats.jobs_shed.into()),
                    ("jobs_timeout".into(), stats.jobs_timeout.into()),
                    ("jobs_inflight".into(), (t.inflight() as u64).into()),
                    ("handlers_active".into(), stats.handlers_active.into()),
                    ("spool_orphans".into(), stats.spool_orphans.into()),
                    ("events_dropped".into(), t.events_dropped().into()),
                    ("trace_index_hits".into(), index_hits.into()),
                    ("trace_index_fills".into(), index_fills.into()),
                    ("trace_loader_fallbacks".into(), loader_fallbacks.into()),
                ]),
            ),
            (
                "tiers".into(),
                JsonValue::object([
                    (
                        "memory".into(),
                        JsonValue::object([
                            ("hits".into(), mem_hits.into()),
                            ("entries".into(), stats.mem_entries.into()),
                        ]),
                    ),
                    (
                        "disk".into(),
                        JsonValue::object([
                            ("hits".into(), disk_hits.into()),
                            ("entries".into(), stats.disk_entries.into()),
                            ("bytes".into(), stats.disk_bytes.into()),
                            ("evictions".into(), stats.disk_evictions.into()),
                            ("evicted_bytes".into(), stats.disk_evicted_bytes.into()),
                        ]),
                    ),
                    ("misses".into(), misses.into()),
                ]),
            ),
            (
                "hit_ratio".into(),
                JsonValue::object([
                    ("memory".into(), ratio(mem_hits)),
                    ("disk".into(), ratio(disk_hits)),
                    ("overall".into(), ratio(mem_hits + disk_hits)),
                ]),
            ),
            ("stages".into(), JsonValue::Object(stages.collect())),
        ])
    }

    /// Cache-only lookup (the `fetch` request): never computes. Each
    /// tier probe is timed and counted like a submission's would be
    /// (fetches carry no trace context of their own).
    pub fn fetch(&self, key: &str) -> Option<(Arc<DesignGrid>, Tier)> {
        let t = Instant::now();
        if let Some(grid) = self.cache.lookup_mem(key) {
            self.telemetry.record_span(Stage::MemLookup, "", t);
            self.telemetry.note_mem_hit();
            return Some((grid, Tier::Memory));
        }
        self.telemetry.record_span(Stage::MemLookup, "", t);
        let t = Instant::now();
        let hit = self.cache.lookup_disk(key);
        self.telemetry.record_span(Stage::DiskLookup, "", t);
        match hit {
            Some(grid) => {
                self.telemetry.note_disk_hit();
                Some((grid, Tier::Disk))
            }
            None => {
                self.telemetry.note_miss();
                None
            }
        }
    }

    /// Where `key` currently stands. Deliberately *not* instrumented:
    /// status polls are control-plane traffic and would drown the tier
    /// counters a client is usually polling to watch.
    pub fn status(&self, key: &str) -> JobStatus {
        let job = self
            .jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .cloned();
        if let Some(job) = job {
            let st = job.lock();
            if st.done.is_none() {
                return JobStatus::Running {
                    rows_done: st.rows_done as u64,
                    rows_total: job.rows_total as u64,
                    events_dropped: job.events_dropped.load(Ordering::Relaxed),
                };
            }
        }
        match self.cache.lookup(key) {
            Some((_, Tier::Memory)) => JobStatus::CachedMemory,
            Some((_, Tier::Disk)) => JobStatus::CachedDisk,
            None => JobStatus::Unknown,
        }
    }

    /// Resolves and answers a submission. See the module docs for the
    /// cache / single-flight / compute cascade.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for a bad request (engine, grid shape,
    /// unreadable trace), [`SubmitError::Overloaded`] when admission
    /// control sheds it, [`SubmitError::Io`] when spooling fails.
    pub fn submit(self: &Arc<Self>, req: &SubmitRequest) -> Result<SubmitOutcome, SubmitError> {
        let admission_start = Instant::now();
        // Trace context: adopt the caller's id or mint one for a bare
        // request, so every path below — events, journal header, spans
        // — has an id to stamp. (A coalesced follower that supplied no
        // id of its own adopts the running job's instead, further
        // down.)
        if !req.trace_id.is_empty() && !valid_trace_id(&req.trace_id) {
            return Err(SubmitError::Invalid(format!(
                "invalid trace id {:?}: want 1-64 chars of [A-Za-z0-9._:-]",
                req.trace_id
            )));
        }
        let minted = req.trace_id.is_empty();
        let trace_id = if minted {
            mint_trace_id()
        } else {
            req.trace_id.clone()
        };
        if self.shutdown_requested() {
            self.note_shed();
            return Err(SubmitError::Overloaded("server is draining".into()));
        }
        let engine: SweepEngine = req.engine.parse().map_err(SubmitError::Invalid)?;
        let ways = u32::try_from(req.ways)
            .map_err(|_| SubmitError::Invalid(format!("ways {} overflows u32", req.ways)))?;
        validate_grid(req.l1_bytes, &req.sizes, &req.cycles, ways).map_err(SubmitError::Invalid)?;
        self.telemetry
            .record_span(Stage::Admission, &trace_id, admission_start);

        // Key resolution: identify the trace's content and derive the
        // content-addressed key. The trace id is identity metadata
        // only — [`crate::key::job_key`] never hashes it, so retries
        // and concurrent submissions with different ids converge on
        // one job.
        let key_start = Instant::now();
        let resolved = self
            .ingest
            .identify(&req.trace, &trace_id)
            .map_err(|e| invalid_trace(req, e))?;
        self.telemetry.record_span(Stage::Key, &trace_id, key_start);
        self.submit_resolved(req, engine, trace_id, minted, resolved)
    }

    /// The rest of [`Server::submit`], from a resolved trace on: answers
    /// from the job table or the cache, or starts a job. A job needs
    /// the records, so a miss on a trace identified without them reads
    /// the file again and goes round once more under the identity of
    /// the bytes it read, which is a new key if the file changed.
    fn submit_resolved(
        self: &Arc<Self>,
        req: &SubmitRequest,
        engine: SweepEngine,
        trace_id: String,
        minted: bool,
        mut resolved: Resolved,
    ) -> Result<SubmitOutcome, SubmitError> {
        loop {
            let identity = &resolved.identity;
            let warmup = (identity.records as f64 * req.warmup_frac.clamp(0.0, 0.95)) as u64;
            let header = JournalHeader {
                trace_digest: identity.digest.clone(),
                engine: engine.to_string(),
                l1_bytes: req.l1_bytes,
                warmup,
                ways: req.ways,
                sizes: req.sizes.clone(),
                cycles: req.cycles.clone(),
                trace_id: Some(trace_id.clone()),
            };
            let key = job_key(&header);

            // The jobs lock covers lookup-or-create end to end, so N
            // identical racing submissions resolve to one job (or to the
            // cache entry the winner just committed).
            let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(job) = jobs.get(&key).cloned() {
                drop(jobs);
                self.jobs_coalesced.fetch_add(1, Ordering::Relaxed);
                // A follower that brought no context of its own follows
                // the job under the id that started it, so the whole
                // coalesced flight shares one trace.
                let trace_id = if minted {
                    job.trace_id.clone()
                } else {
                    trace_id
                };
                let events = job.subscribe();
                return Ok(SubmitOutcome::Running(Submission {
                    key,
                    rows_total: header.sizes.len() as u64,
                    rows_resumed: job.rows_resumed as u64,
                    coalesced: true,
                    trace_id,
                    events,
                }));
            }
            let t = Instant::now();
            let mem_hit = self.cache.lookup_mem(&key);
            self.telemetry.record_span(Stage::MemLookup, &trace_id, t);
            if let Some(grid) = mem_hit {
                self.telemetry.note_mem_hit();
                return Ok(SubmitOutcome::Cached {
                    key,
                    grid,
                    tier: Tier::Memory,
                    trace_id,
                });
            }
            let t = Instant::now();
            let disk_hit = self.cache.lookup_disk(&key);
            self.telemetry.record_span(Stage::DiskLookup, &trace_id, t);
            if let Some(grid) = disk_hit {
                self.telemetry.note_disk_hit();
                return Ok(SubmitOutcome::Cached {
                    key,
                    grid,
                    tier: Tier::Disk,
                    trace_id,
                });
            }
            let Some(trace) = resolved.records.take() else {
                // Read outside the jobs lock; the next round looks the
                // key up again, since a job may have started or
                // committed meanwhile.
                drop(jobs);
                let t = Instant::now();
                resolved = self
                    .ingest
                    .load(&req.trace, &trace_id)
                    .map_err(|e| invalid_trace(req, e))?;
                self.telemetry.record_span(Stage::Key, &trace_id, t);
                continue;
            };
            self.telemetry.note_miss();
            let stem = key_stem(&key)
                .expect("server-derived keys are well-formed")
                .to_owned();

            // Admission control: a full job table sheds (cache hits and
            // coalesced attaches above cost nothing, so they always pass).
            if jobs.len() >= self.max_jobs {
                drop(jobs);
                self.note_shed();
                return Err(SubmitError::Overloaded(format!(
                    "job table full ({} jobs in flight)",
                    self.max_jobs
                )));
            }

            // Miss everywhere: spool and start a worker. Spec first, so a
            // journal on disk always has its trace-path sidecar.
            let disk = self.cache.disk();
            disk.write_job_spec(
                &stem,
                &JobSpec {
                    key: key.clone(),
                    trace: req.trace.clone(),
                },
            )
            .map_err(|e| SubmitError::Io(format!("spooling job spec failed: {e}")))?;
            let (writer, completed) = open_spool_journal(disk, &stem, &key, &header)
                .map_err(|e| SubmitError::Io(format!("spooling journal failed: {e}")))?;

            let job = Arc::new(Job::new(
                key.clone(),
                trace_id.clone(),
                header.sizes.len(),
                completed.len(),
                self.event_queue,
            ));
            jobs.insert(key.clone(), job.clone());
            drop(jobs);
            self.telemetry.job_started();
            let events = job.subscribe();
            let submission = Submission {
                key,
                rows_total: header.sizes.len() as u64,
                rows_resumed: job.rows_resumed as u64,
                coalesced: false,
                trace_id,
                events,
            };
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                server.run_job(job, trace, header, engine, writer, completed);
            });
            return Ok(SubmitOutcome::Running(submission));
        }
    }

    /// Scans the spool for in-flight journals a previous process left
    /// behind and resumes each as a running job: committed rows are
    /// replayed, only the remainder is simulated. Entries whose journal
    /// is unreadable, whose spec disagrees with the journal, or whose
    /// trace content changed are discarded (reported in the returned
    /// report); a trace that is merely unreadable right now is kept for
    /// a later restart.
    pub fn recover(self: &Arc<Self>) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        // Janitor first: clear kill-9 leftovers (spec temp files,
        // journals whose sidecar is gone) before resuming anything.
        let swept = self.cache.disk().janitor();
        if swept > 0 {
            self.metrics.add("serve.spool_orphans", swept);
        }
        let entries = match self.cache.disk().scan_jobs() {
            Ok(entries) => entries,
            Err(e) => {
                report.errors.push(format!("spool scan failed: {e}"));
                return report;
            }
        };
        for (stem, spec) in entries {
            match self.recover_one(&stem, &spec) {
                Ok(key) => report.resumed.push(key),
                Err(e) => report.errors.push(format!("{stem}: {e}")),
            }
        }
        report
    }

    fn recover_one(self: &Arc<Self>, stem: &str, spec: &JobSpec) -> Result<String, String> {
        let disk = self.cache.disk();
        let path = disk.job_journal_path(stem);
        let (writer, journal) = match JournalWriter::resume(&path) {
            Ok(resumed) => resumed,
            Err(e) => {
                disk.discard_job(stem);
                return Err(format!("unreadable spool journal discarded: {e}"));
            }
        };
        let header = journal.header.clone();
        if job_key(&header) != spec.key {
            disk.discard_job(stem);
            return Err("spool journal does not match its spec; discarded".into());
        }
        let engine: SweepEngine = match header.engine.parse() {
            Ok(engine) => engine,
            Err(e) => {
                disk.discard_job(stem);
                return Err(e);
            }
        };
        // A resumed job keeps the trace context of the submission that
        // started it (journals predating tracing get a fresh id), so
        // the work stays attributable across the crash.
        let trace_id = header.trace_id.clone().unwrap_or_else(mint_trace_id);
        let resolved = self
            .ingest
            .load(&spec.trace, &trace_id)
            .map_err(|e| format!("trace reload failed (spool kept): {e}"))?;
        if resolved.identity.digest != header.trace_digest {
            disk.discard_job(stem);
            return Err("trace content changed since the journal was written; discarded".into());
        }
        let trace = resolved.records.expect("load returns the records");
        let completed = rows_from_journal(&journal);
        let job = Arc::new(Job::new(
            spec.key.clone(),
            trace_id,
            header.sizes.len(),
            completed.len(),
            self.event_queue,
        ));
        self.jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(spec.key.clone(), job.clone());
        self.jobs_recovered.fetch_add(1, Ordering::Relaxed);
        self.telemetry.job_started();
        let server = Arc::clone(self);
        let key = spec.key.clone();
        std::thread::spawn(move || {
            server.run_job(job, trace, header, engine, writer, completed);
        });
        Ok(key)
    }

    /// The worker body: simulates the missing rows (journalling each),
    /// commits the completed journal into the cache, and broadcasts the
    /// terminal event.
    fn run_job(
        self: Arc<Self>,
        job: Arc<Job>,
        trace: Vec<TraceRecord>,
        header: JournalHeader,
        engine: SweepEngine,
        writer: JournalWriter,
        completed: Vec<GridRow>,
    ) {
        let key = job.key.clone();
        let stem = key_stem(&key)
            .expect("server-derived keys are well-formed")
            .to_owned();
        let sizes: Vec<ByteSize> = header.sizes.iter().map(|&s| ByteSize::new(s)).collect();
        let ways = header.ways as u32;
        let mut base = BaseMachine::new();
        base.l1_total(ByteSize::new(header.l1_bytes));
        let explorer = Explorer::new(&trace, header.warmup as usize);
        let done_rows: BTreeSet<usize> = completed.iter().map(|r| r.size_idx).collect();
        let todo: Vec<usize> = (0..sizes.len())
            .filter(|i| !done_rows.contains(i))
            .collect();

        let journal = Mutex::new(writer);
        let sink_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let sink = |row: &GridRow| {
            let jrow = JournalRow {
                row: row.size_idx as u64,
                total: row.total.clone(),
                l2_local: row.l2_local,
                l2_global: row.l2_global,
                m_l1_global: row.m_l1_global,
                cpu_cycle_ns: row.cpu_cycle_ns,
            };
            let mut writer = journal.lock().unwrap_or_else(|p| p.into_inner());
            // Sleeping *inside* the journal lock serializes the delay:
            // rows land row_delay apart even though they compute in
            // parallel, so a test kill always finds a partial journal.
            if !self.row_delay.is_zero() {
                std::thread::sleep(self.row_delay);
            }
            // Chaos shim: an armed injector fails the append the way a
            // full disk would, before any bytes move.
            let result = match self.chaos.journal_append_fault() {
                Some(fault) => Err(fault),
                None => writer.append_row(&jrow),
            };
            match result {
                Err(e) => {
                    sink_error
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .get_or_insert(e);
                }
                // Only a journalled row is progress: the row is not
                // durable otherwise, and a resume would recompute it.
                Ok(()) => job.progress(row.size_idx as u64),
            }
        };
        let t = Instant::now();
        let results =
            explorer.try_l2_rows(engine, &base, &sizes, &header.cycles, ways, &todo, sink);
        self.telemetry
            .record_span(Stage::Simulate, &job.trace_id, t);
        // Free the trace before the terminal event goes out: the waiter
        // may submit again at once, and its next trace must not be
        // decoded while this one is still held, or the daemon's peak
        // memory would depend on which thread wins that race.
        drop(trace);
        // Close the journal before commit renames the file.
        drop(journal.into_inner().unwrap_or_else(|p| p.into_inner()));

        let mut rows = completed;
        let mut failures = Vec::new();
        for r in results {
            match r {
                Ok(row) => rows.push(row),
                Err(f) => failures.push(f),
            }
        }
        let sink_error = sink_error.into_inner().unwrap_or_else(|p| p.into_inner());
        let result: Result<Arc<DesignGrid>, JobError> = if let Some(e) = sink_error {
            // Transient disk failure: the journal keeps whatever rows
            // landed before it, so a retry resumes, not restarts.
            Err(JobError {
                message: format!("journal write failed: {e}"),
                retryable: true,
            })
        } else if let Some(first) = failures.first() {
            // Simulation failures are deterministic: the same request
            // fails the same way. Not retryable.
            Err(JobError {
                message: format!(
                    "{} of {} grid row(s) failed; first: {first}",
                    failures.len(),
                    sizes.len()
                ),
                retryable: false,
            })
        } else {
            let grid = DesignGrid::from_rows(&sizes, &header.cycles, ways, &rows);
            // Commit and budget enforcement are separate stages: the
            // rename-and-sync is the durability cost every job pays,
            // eviction only bites when the disk tier is over budget.
            let t = Instant::now();
            let committed = self.cache.disk().commit_entry(&stem);
            self.telemetry
                .record_span(Stage::JournalCommit, &job.trace_id, t);
            match committed {
                Ok(()) => {
                    let t = Instant::now();
                    let evicted = self.cache.disk().enforce_budget(Some(&stem));
                    self.telemetry.record_span(Stage::Evict, &job.trace_id, t);
                    if evicted.evicted > 0 {
                        self.metrics.add("serve.disk_evictions", evicted.evicted);
                        self.metrics
                            .add("serve.disk_evicted_bytes", evicted.evicted_bytes);
                    }
                    let grid = Arc::new(grid);
                    self.cache.insert(&key, grid.clone());
                    self.jobs_computed.fetch_add(1, Ordering::Relaxed);
                    self.metrics.add("serve.jobs_computed", 1);
                    Ok(grid)
                }
                // A torn rename leaves the complete journal in the
                // spool; a retry commits it without recomputing.
                Err(e) => Err(JobError {
                    message: format!("cache commit failed: {e}"),
                    retryable: true,
                }),
            }
        };
        self.jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&key);
        job.finish(JobDone {
            key,
            source: Source::Computed,
            rows_resumed: job.rows_resumed as u64,
            result,
            dropped: 0,
        });
        self.telemetry.job_finished();
        let dropped = job.events_dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            self.metrics.add("serve.events_dropped", dropped);
            self.telemetry.add_events_dropped(dropped);
        }
    }
}

/// The submission error for a trace that could not be ingested.
fn invalid_trace(req: &SubmitRequest, e: String) -> SubmitError {
    SubmitError::Invalid(format!("trace {}: {e}", req.trace.display()))
}

/// Opens the spool journal for a new job: resumes a journal left by a
/// previously failed or interrupted identical job (verifying it really
/// is the same job), or creates a fresh one. Returns the writer and the
/// rows already committed.
fn open_spool_journal(
    disk: &DiskStore,
    stem: &str,
    key: &str,
    header: &JournalHeader,
) -> io::Result<(JournalWriter, Vec<GridRow>)> {
    let path = disk.job_journal_path(stem);
    if path.exists() {
        if let Ok((writer, journal)) = JournalWriter::resume(&path) {
            if job_key(&journal.header) == key {
                return Ok((writer, rows_from_journal(&journal)));
            }
        }
        // Unreadable or mismatched: start over.
        std::fs::remove_file(&path)?;
    }
    Ok((JournalWriter::create(&path, header)?, Vec::new()))
}

/// Builds every grid point's configuration up front, so an invalid
/// combination is a typed submission error instead of a panic inside
/// the parallel sweep.
fn validate_grid(l1_bytes: u64, sizes: &[u64], cycles: &[u64], ways: u32) -> Result<(), String> {
    if sizes.is_empty() || cycles.is_empty() {
        return Err("empty grid: need at least one size and one cycle time".into());
    }
    for &size in sizes {
        for &c in cycles {
            BaseMachine::new()
                .l1_total(ByteSize::new(l1_bytes))
                .l2_total(ByteSize::new(size))
                .l2_cycles(c)
                .l2_ways(ways)
                .build()
                .map_err(|e| {
                    format!(
                        "invalid grid point [L2 {}, {c} cycles]: {e}",
                        ByteSize::new(size)
                    )
                })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::grid_to_json;
    use mlc_obs::digest_records_hex;
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn request(trace: &Path, cycles: Vec<u64>) -> SubmitRequest {
        SubmitRequest {
            trace: trace.to_path_buf(),
            l1_bytes: 4096,
            ways: 1,
            sizes: vec![16384],
            cycles,
            engine: "onepass".into(),
            warmup_frac: 0.25,
            wait: true,
            deadline_ms: 0,
            trace_id: String::new(),
        }
    }

    /// The key a client derives from the records themselves.
    fn key_of(records: &[TraceRecord], req: &SubmitRequest) -> String {
        job_key(&JournalHeader {
            trace_digest: digest_records_hex(records),
            engine: req.engine.clone(),
            l1_bytes: req.l1_bytes,
            warmup: (records.len() as f64 * req.warmup_frac) as u64,
            ways: req.ways,
            sizes: req.sizes.clone(),
            cycles: req.cycles.clone(),
            trace_id: None,
        })
    }

    fn computed(outcome: SubmitOutcome) -> (String, String) {
        let SubmitOutcome::Running(sub) = outcome else {
            panic!("expected a computed job");
        };
        loop {
            if let JobEvent::Done(done) = sub.events.recv().expect("job terminates") {
                let grid = done.result.expect("job succeeds");
                return (sub.key, grid_to_json(&grid).to_string_compact());
            }
        }
    }

    #[test]
    fn a_file_changed_after_identification_is_not_simulated_under_the_old_key() {
        let dir = std::env::temp_dir().join("mlc_serve_changed_trace");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.mlct");
        let write = |records: &[TraceRecord]| {
            let file = std::fs::File::create(&trace).unwrap();
            mlc_trace::binary::write_binary(file, records).unwrap();
        };
        let old = MultiProgramGenerator::new(Preset::Mips2.config(3))
            .unwrap()
            .generate_records(4_000);
        write(&old);
        let old_len = std::fs::metadata(&trace).unwrap().len();
        let server = Server::new(ServerConfig::new(dir.join("store")), default_loader()).unwrap();
        computed(server.submit(&request(&trace, vec![1, 2])).unwrap());

        // Identified from the index, without records, as the old content.
        let stale = server.ingest.identify(&trace, "").unwrap();
        assert!(stale.records.is_none());

        // The file changes in place (same path, same length) before the
        // cold read of a grid nobody has computed yet.
        let mut new = old.clone();
        new[100] = TraceRecord::read(new[100].addr.get() ^ 0x40);
        write(&new);
        assert_eq!(std::fs::metadata(&trace).unwrap().len(), old_len);
        let req = request(&trace, vec![3, 4]);
        let trace_id = "trc-changed".to_string();
        let outcome = server
            .submit_resolved(&req, SweepEngine::OnePass, trace_id, false, stale)
            .unwrap();
        let (key, grid) = computed(outcome);
        assert_ne!(key, key_of(&old, &req), "never simulated under the old key");
        assert_eq!(key, key_of(&new, &req));

        // Bit-identical to a server that only ever saw the new file.
        let reference = Server::new(ServerConfig::new(dir.join("ref")), default_loader()).unwrap();
        let (ref_key, ref_grid) = computed(reference.submit(&req).unwrap());
        assert_eq!((key, grid), (ref_key, ref_grid));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
