//! `serve`: the real `mlc-serve` daemon on a fresh store, driven over
//! its Unix socket in `mlc-serve/1` by a closed loop of two clients,
//! each on one persistent connection.
//!
//! * `cold`: each of K distinct grid specs over one large trace is
//!   submitted once. Every submit simulates, journals its rows with
//!   fsync and commits: the write path.
//! * `hit`: repeat submits until the run's time is up. Keys are drawn
//!   by a seeded Zipf-like skew (never a cyclic order, which would
//!   defeat the LRU), and the memory tier holds fewer than K entries,
//!   so the memory and disk tiers both answer: the read path. A hit's
//!   latency is mostly key derivation — load, decode and digest of the
//!   whole trace — which no other workload exercises.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mlc_cache::ByteSize;
use mlc_core::DesignGrid;
use mlc_obs::json::JsonValue;
use mlc_serve::{Event, Request, Source, SubmitRequest};
use mlc_trace::synth::workload::Preset;

use crate::inputs::{grid_digest, GridSpec, OutputDigest, Rng, TraceInput, Zipf};
use crate::layers;
use crate::report::{Report, Samples, Spans};
use crate::Args;

const CLIENTS: usize = 2;

/// Sizes of the run: trace records, distinct specs K, memory-tier
/// entries (fewer than K). K sets the cold phase's sample count.
fn sizes(args: &Args) -> (usize, usize, usize) {
    if args.quick {
        (20_000, 4, 2)
    } else {
        (1_000_000, 48, 4)
    }
}

/// Spec `k` of the pool: one L2 size × 4 consecutive cycle times
/// starting at `k + 1`, so a cold job is one W4 lane pass on one
/// thread and two clients' jobs fit the two cores.
fn spec(k: usize) -> GridSpec {
    GridSpec {
        sizes: vec![ByteSize::kib(256)],
        cycles: (k as u64 + 1..=k as u64 + 4).collect(),
        ways: 1,
    }
}

/// The daemon process; killed and reaped if still running when dropped.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(bin: &Path, store: &Path, socket: &Path, mem_entries: usize, log: &Path) -> Daemon {
        let log = std::fs::File::create(log).expect("work directory is writable");
        let child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .arg("--socket")
            .arg(socket)
            .arg("--mem-entries")
            .arg(mem_entries.to_string())
            .stdin(Stdio::null())
            .stdout(log.try_clone().expect("log handle"))
            .stderr(log)
            .spawn()
            .expect("mlc-serve starts");
        let daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while Client::connect(socket).is_err() {
            assert!(
                Instant::now() < deadline,
                "mlc-serve did not accept within 20 s"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to exit and waits for it.
    fn stop(mut self) {
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.request(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills what is left.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `mlc-serve/1` connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// How one submit ended.
enum Answer {
    Grid(DesignGrid, Source),
    /// A retryable refusal (overload, transient error, timeout).
    Retry(String),
    Fatal(String),
}

impl Client {
    fn connect(socket: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        match client.event()? {
            Event::Hello { .. } => Ok(client),
            other => Err(std::io::Error::other(format!(
                "expected hello, got {other:?}"
            ))),
        }
    }

    fn event(&mut self) -> std::io::Result<Event> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Event::parse(line.trim_end()).map_err(std::io::Error::other)
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Sends `req` and returns its first reply.
    fn request(&mut self, req: &Request) -> std::io::Result<Event> {
        self.send(req)?;
        self.event()
    }

    fn submit(&mut self, req: &SubmitRequest) -> Answer {
        if let Err(e) = self.send(&Request::Submit(req.clone())) {
            return Answer::Retry(e.to_string());
        }
        loop {
            match self.event() {
                Ok(Event::Accepted { .. } | Event::Progress { .. }) => continue,
                Ok(Event::Done { grid, source, .. }) => return Answer::Grid(grid, source),
                Ok(Event::Error {
                    message,
                    retryable: true,
                }) => return Answer::Retry(message),
                Ok(Event::Overloaded { reason }) => return Answer::Retry(reason),
                Ok(Event::Timeout { key }) => return Answer::Retry(format!("timeout {key}")),
                Ok(other) => return Answer::Fatal(format!("unexpected {other:?}")),
                Err(e) => return Answer::Retry(e.to_string()),
            }
        }
    }
}

/// One completed (or failed) request, as the client saw it.
struct Outcome {
    spec: usize,
    latency: Duration,
    /// `(grid digest, source)`, or why the request failed for good.
    answer: Result<(u64, Source), String>,
    retries: u64,
    traced: bool,
}

/// Submits with bounded retries on a persistent connection,
/// reconnecting after an I/O failure.
fn submit_retrying(
    client: &mut Option<Client>,
    socket: &Path,
    req: &SubmitRequest,
) -> (Result<(u64, Source), String>, u64) {
    let mut retries = 0;
    loop {
        if client.is_none() {
            *client = Client::connect(socket).ok();
        }
        let answer = match client.as_mut() {
            Some(c) => c.submit(req),
            None => Answer::Retry("connect failed".into()),
        };
        match answer {
            Answer::Grid(g, source) => return (Ok((grid_digest(&g), source)), retries),
            Answer::Fatal(e) => return (Err(e), retries),
            Answer::Retry(e) if retries >= 5 => return (Err(e), retries),
            Answer::Retry(_) => {
                *client = None;
                retries += 1;
                std::thread::sleep(Duration::from_millis(10 << retries));
            }
        }
    }
}

pub fn run(args: &Args, report: &mut Report) -> String {
    let Some(bin) = args.daemon.clone() else {
        report.check("serve.daemon", Err("no --daemon binary given".into()));
        return String::new();
    };
    let (n, k, mem_entries) = sizes(args);
    let store = args.work.join("store");
    let socket = args.work.join("s.sock");
    let log = args.work.join("mlc-serve.log");

    // Set-up, repeated: trace generation and encoding, then a daemon
    // start on a fresh store until its socket accepts. Stopping the
    // previous repetition's daemon is not timed; the last one started
    // is the one measured.
    let mut setup_s = Samples::default();
    let mut running: Option<(TraceInput, Daemon)> = None;
    for _ in 0..3 {
        if let Some((_, d)) = running.take() {
            d.stop();
        }
        let t = Instant::now();
        let input = TraceInput::generate(&args.work, Preset::Vms2, n, args.seed);
        let _ = std::fs::remove_dir_all(&store);
        let daemon = Daemon::start(&bin, &store, &socket, mem_entries, &log);
        setup_s.push(t.elapsed());
        running = Some((input, daemon));
    }
    let (input, daemon) = running.expect("three set-up repetitions ran");
    crate::report::print_provenance("serve", args.seed, &[crate::grid::lane_width(&spec(0))]);

    let requests: Vec<SubmitRequest> = (0..k)
        .map(|i| layers::submit_request(&input.path, &spec(i)))
        .collect();
    let zipf = Zipf::new(k, 1.0);
    // Popularity order over the pool, shuffled by the seed.
    let mut rank: Vec<usize> = (0..k).collect();
    let mut rng = Rng::new(args.seed);
    for i in (1..k).rev() {
        rank.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }

    let start = Instant::now();
    let deadline = start + args.measure_time();
    let next_cold = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    let cold: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    let hits: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    let hit_window: Mutex<Vec<(Instant, Instant)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (requests, socket, zipf, rank) = (&requests, &socket, &zipf, &rank);
            let (next_cold, barrier, cold, hits, hit_window) =
                (&next_cold, &barrier, &cold, &hits, &hit_window);
            let mut rng = Rng::new(args.seed ^ ((c as u64 + 1) << 32));
            let (trace, work) = (args.trace, &args.work);
            s.spawn(move || {
                let mut spans = Spans::new(trace);
                let mut client = Client::connect(socket).ok();
                let mut mine = Vec::new();
                loop {
                    let i = next_cold.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    let t = Instant::now();
                    let (answer, retries) = submit_retrying(&mut client, socket, &requests[i]);
                    mine.push(Outcome {
                        spec: i,
                        latency: t.elapsed(),
                        answer,
                        retries,
                        traced: false,
                    });
                }
                cold.lock().expect("no client panicked").extend(mine);
                barrier.wait();
                let begin = Instant::now();
                let mut mine = Vec::new();
                let mut count = 0usize;
                while Instant::now() < deadline || mine.is_empty() {
                    let i = rank[zipf.draw(&mut rng)];
                    // With tracing on, every other request records a
                    // client-side span, so the two halves compare.
                    let traced = trace && count % 2 == 1;
                    let t = Instant::now();
                    let (answer, retries) = if traced {
                        spans.record("serve.request", None, |_, _| {
                            submit_retrying(&mut client, socket, &requests[i])
                        })
                    } else {
                        submit_retrying(&mut client, socket, &requests[i])
                    };
                    mine.push(Outcome {
                        spec: i,
                        latency: t.elapsed(),
                        answer,
                        retries,
                        traced,
                    });
                    count += 1;
                }
                if trace {
                    let _ = spans.write(&work.join(format!("serve-spans-{c}.jsonl")));
                }
                hit_window
                    .lock()
                    .expect("no client panicked")
                    .push((begin, Instant::now()));
                hits.lock().expect("no client panicked").extend(mine);
            });
        }
    });
    let cold = cold.into_inner().expect("clients joined");
    let hits = hits.into_inner().expect("clients joined");
    let window = hit_window.into_inner().expect("clients joined");

    let stats = Client::connect(&socket).and_then(|mut c| c.request(&Request::Stats));
    let daemon_rss = crate::report::peak_rss_mb(&daemon.pid());
    daemon.stop();
    let doc = match stats {
        Ok(Event::Stats { doc }) => doc,
        other => {
            report.check(
                "serve.stats",
                Err(format!("stats request failed: {other:?}")),
            );
            JsonValue::Null
        }
    };

    // Correctness: every served grid is bit-identical to the grid
    // computed in-process for the same spec.
    let reference: Vec<DesignGrid> = mlc_core::par_map(requests.clone(), |r| {
        layers::reference_grid(&input.records, &r)
    });
    let mut want: Vec<u64> = reference.iter().map(grid_digest).collect();
    if args.corrupt {
        want[0] ^= 1;
    }
    let mut digest = OutputDigest::default();
    for g in &reference {
        digest.grid(g);
    }
    let mut failed = 0u64;
    let mut wrong = 0u64;
    let mut retries = 0u64;
    let mut mix: BTreeMap<&str, u64> = BTreeMap::new();
    for o in cold.iter().chain(&hits) {
        retries += o.retries;
        match &o.answer {
            Ok((d, source)) => {
                if *d != want[o.spec] {
                    wrong += 1;
                    failed += 1;
                }
                *mix.entry(source.as_str()).or_default() += 1;
            }
            Err(e) => {
                println!("request for spec {} failed: {e}", o.spec);
                failed += 1;
            }
        }
    }
    report.ops((cold.len() + hits.len()) as u64, failed);
    report.check(
        "serve.grids-bit-identical",
        if wrong == 0 {
            Ok(())
        } else {
            Err(format!(
                "{wrong} served grid(s) differ from the in-process grid"
            ))
        },
    );
    report.check(
        "serve.cold-computed",
        match cold
            .iter()
            .filter(|o| !matches!(o.answer, Ok((_, Source::Computed))))
            .count()
        {
            0 => Ok(()),
            m => Err(format!("{m} cold submit(s) not computed")),
        },
    );
    let mix: Vec<String> = mix.iter().map(|(s, n)| format!("{s} {n}")).collect();
    println!(
        "tier mix (client view): {}  # seeded Zipf draw, s=1.0 over {k} specs, {mem_entries} memory entries",
        mix.join(" ")
    );

    let ok = |o: &&Outcome| o.answer.is_ok();
    let latencies = |it: &mut dyn Iterator<Item = &Outcome>| {
        let mut s = Samples::default();
        it.for_each(|o| s.push(o.latency));
        s
    };
    let cold_s = latencies(&mut cold.iter().filter(ok));
    let hit_s = latencies(&mut hits.iter().filter(ok).filter(|o| !o.traced));
    let hit_traced = latencies(&mut hits.iter().filter(ok).filter(|o| o.traced));
    let first = window.iter().map(|w| w.0).min().unwrap_or(start);
    let last = window.iter().map(|w| w.1).max().unwrap_or(start);
    let hit_wall = (last - first).as_secs_f64();
    let completed = hits.iter().filter(ok).count();

    report.median(
        "setup_s",
        &setup_s,
        "s",
        "trace generation and encoding + daemon start until it accepts, 3 repetitions",
    );
    report.median(
        "cold_p50_ms",
        &cold_s,
        "ms",
        "cold phase: submit to done, simulate + journal + commit",
    );
    report.median(
        "hit_p50_ms",
        &hit_s,
        "ms",
        "hit phase: submit to done at 2 clients",
    );
    report.percentile("hit_p90_ms", &hit_s, 90.0, "hit phase");
    report.metric(
        "hit_per_s",
        completed as f64 / hit_wall,
        "1/s",
        completed,
        "completed hits per second at 2 clients",
    );
    report.median("op_p50_ms", &hit_s, "ms", "= hit_p50_ms");
    report.median("op2_p50_ms", &cold_s, "ms", "= cold_p50_ms");
    report.metric(
        "work_per_s",
        completed as f64 / hit_wall,
        "1/s",
        completed,
        "= hit_per_s",
    );
    report.metric(
        "peak_rss_mb",
        daemon_rss.unwrap_or(0.0),
        "MB",
        0,
        "the daemon's VmHWM",
    );

    if args.trace {
        crate::report_tracing_overhead(report, &hit_s, &hit_traced);
        // The serve layers run in-process on a copy of the measured
        // store, so the daemon's own numbers stay untouched.
        let copy = args.work.join("store-copy");
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(&store, &copy).expect("store copies");
        let server = layers::open_server(&copy);
        layers::probe_serve(report, &server, &copy, &requests[0], &reference[0]);
        server.shutdown();
        layers::report_counters(report, &doc, retries, "daemon mlc-stats/1");
        // The daemon's stage quantiles are log2 buckets, coarse to a
        // factor of two: context for the numbers above, never a metric.
        if let Some(JsonValue::Object(stages)) = doc.get("stages") {
            for (stage, h) in stages {
                let q = |k: &str| {
                    h.get(k)
                        .and_then(JsonValue::as_u64)
                        .map_or("-".into(), |v| v.to_string())
                };
                println!(
                    "context daemon stage {stage} p50 {} p90 {} us (log2 buckets)",
                    q("p50"),
                    q("p90")
                );
            }
        }
        layers::probe_all(report, &input);
    }
    digest.finish()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}
