//! Inputs made from the seed, and the digest of simulated outputs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mlc_cache::ByteSize;
use mlc_core::DesignGrid;
use mlc_obs::Fnv64;
use mlc_trace::binary::write_compressed;
use mlc_trace::slice::read_binary_slice_with;
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::{FaultPolicy, TraceRecord};

use crate::report::Samples;

/// A generated multiprogramming trace and the file it was encoded to
/// (the delta-compressed binary layout the tools read).
#[derive(Debug)]
pub struct TraceInput {
    pub preset: Preset,
    pub path: PathBuf,
    pub records: Vec<TraceRecord>,
}

impl TraceInput {
    /// Generates `n` records of `preset` from `seed` and writes them to
    /// `<dir>/<preset>.mlcz`.
    pub fn generate(dir: &Path, preset: Preset, n: usize, seed: u64) -> TraceInput {
        let records = MultiProgramGenerator::new(preset.config(seed))
            .expect("presets are valid")
            .generate_records(n);
        let path = dir.join(format!("{}.mlcz", preset.name()));
        let file = std::fs::File::create(&path).expect("work directory is writable");
        write_compressed(file, &records).expect("trace file write");
        TraceInput {
            preset,
            path,
            records,
        }
    }
}

/// Reads and decodes a trace file the way `mlc-sweep` does.
pub fn read_trace(path: &Path) -> Vec<TraceRecord> {
    let bytes = std::fs::read(path).expect("trace file readable");
    read_binary_slice_with(&bytes, FaultPolicy::Fail, None)
        .expect("generated trace decodes")
        .0
}

/// Runs `make` `reps` times, timing each, and keeps the last result:
/// set-up is repeated so its time is a median, not one sample.
pub fn repeated_setup<T>(reps: usize, mut make: impl FnMut() -> T) -> (Samples, T) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed());
    }
    (times, last.expect("at least one repetition"))
}

/// A small seeded generator (SplitMix64) for the benchmark's own
/// choices, kept apart from the library's trace generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Skewed draw over `n` items: item `k` (0-based) has weight
/// `1 / (k + 1)^s`, a Zipf-like popularity curve.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Accumulates a digest of simulated outputs: every grid cell, miss
/// ratio bit pattern and count a workload produces. Two builds that
/// report the same digest produced identical simulated statistics.
#[derive(Debug, Default)]
pub struct OutputDigest(Fnv64);

impl OutputDigest {
    pub fn u64(&mut self, v: u64) {
        self.0.write(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn grid(&mut self, g: &DesignGrid) {
        self.u64(grid_digest(g));
    }

    /// Folds another digest into this one.
    pub fn absorb(&mut self, other: &OutputDigest) {
        self.u64(other.0.finish());
    }

    pub fn finish(&self) -> String {
        format!("fnv1a64:{:016x}", self.0.finish())
    }
}

/// Digest of one grid, floats by bit pattern (so NaN cells compare).
pub fn grid_digest(g: &DesignGrid) -> u64 {
    let mut h = Fnv64::new();
    let mut put = |v: u64| h.write(&v.to_le_bytes());
    put(u64::from(g.ways));
    for s in &g.sizes {
        put(s.get());
    }
    for &c in &g.cycles {
        put(c);
    }
    for row in &g.total {
        for &t in row {
            put(t);
        }
    }
    for &r in g.l2_local.iter().chain(&g.l2_global) {
        put(r.to_bits());
    }
    put(g.m_l1_global.to_bits());
    put(g.cpu_cycle_ns.to_bits());
    h.finish()
}

/// A speed–size grid definition: L2 sizes × cycle times at one
/// associativity.
#[derive(Debug, Clone)]
pub struct GridSpec {
    pub sizes: Vec<ByteSize>,
    pub cycles: Vec<u64>,
    pub ways: u32,
}

impl GridSpec {
    pub fn cells(&self) -> usize {
        self.sizes.len() * self.cycles.len()
    }
}
