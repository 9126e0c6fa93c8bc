//! Cross-shape oracle for the one timing engine: seeded random machine
//! shapes × seeded random traces.
//!
//! For every case:
//!
//! * lane 0 of a timing sweep, at every width in `LANE_WIDTHS`, equals
//!   `simulate_with_warmup` of lane 0's configuration;
//! * the attributed simulator's cycle ledger conserves
//!   (`ledger.total() == total_cycles`);
//! * the plain drivers (no-op observer) return the same `SimResult` as
//!   attributed runs.
//!
//! Only lane 0 is asserted. The other lanes follow lane 0's lazy
//! write-buffer drain decisions, so they may differ from their own scalar
//! runs wherever their drain window would have differed.
//!
//! Shapes cover split and unified L1s, write-through with no-allocate,
//! victim buffers, sub-block fetch, next-block prefetch, one to three
//! levels, and write buffers of 1–8 entries.

use mlc::cache::{AllocPolicy, ByteSize, CacheConfig, Prefetch, WritePolicy};
use mlc::sim::{
    simulate, simulate_timing_sweep, simulate_with_warmup, simulate_with_warmup_attributed,
    CpuConfig, HierarchyConfig, HierarchySim, LevelCacheConfig, LevelConfig, MemoryConfig,
    TimingSweepSim, LANE_WIDTHS,
};
use mlc::trace::synth::Xoshiro;
use mlc::trace::{AccessKind, Address, TraceRecord};
use mlc_obs::Metrics;

/// Uniform integer in `[lo, hi]`.
fn pick(rng: &mut Xoshiro, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo + 1)
}

fn chance(rng: &mut Xoshiro, percent: u64) -> bool {
    rng.next_below(100) < percent
}

/// A random cache of `2^size_log2` bytes; `None` when the drawn
/// combination is not a valid organisation.
fn rand_cache(rng: &mut Xoshiro, size_log2: u64) -> Option<CacheConfig> {
    let mut b = CacheConfig::builder();
    b.total(ByteSize::new(1 << size_log2))
        .block_bytes(1 << pick(rng, 4, 6))
        .ways(1 << pick(rng, 0, 2));
    if chance(rng, 30) {
        b.write_policy(WritePolicy::WriteThrough);
        if chance(rng, 70) {
            b.alloc_policy(AllocPolicy::NoWriteAllocate);
        }
    }
    match rng.next_below(4) {
        0 => {
            b.victim_entries(pick(rng, 1, 4) as u32);
        }
        1 => {
            b.sub_blocks(1 << pick(rng, 1, 2));
        }
        2 if chance(rng, 50) => {
            b.prefetch(Prefetch::NextBlock);
        }
        _ => {}
    }
    b.build().ok()
}

/// A random valid machine of one to three levels.
fn rand_machine(rng: &mut Xoshiro) -> HierarchyConfig {
    loop {
        let depth = pick(rng, 1, 3) as usize;
        let mut levels = Vec::with_capacity(depth);
        let mut size_log2 = pick(rng, 9, 12);
        for i in 0..depth {
            let cache = if i == 0 && chance(rng, 50) {
                match (rand_cache(rng, size_log2), rand_cache(rng, size_log2)) {
                    (Some(icache), Some(dcache)) => {
                        Some(LevelCacheConfig::Split { icache, dcache })
                    }
                    _ => None,
                }
            } else {
                rand_cache(rng, size_log2).map(LevelCacheConfig::Unified)
            };
            let Some(cache) = cache else {
                break;
            };
            let mut level = LevelConfig::new(format!("L{}", i + 1), cache, pick(rng, 1, 4));
            level.write_buffer_entries = pick(rng, 1, 8) as usize;
            levels.push(level);
            size_log2 += pick(rng, 1, 3);
        }
        if levels.len() != depth {
            continue;
        }
        let config = HierarchyConfig {
            cpu: CpuConfig::default(),
            levels,
            memory: MemoryConfig::default().scaled(0.5 + rng.next_f64() * 2.5),
        };
        if config.validate().is_ok() {
            return config;
        }
    }
}

/// `config` with every timing parameter redrawn: level cycle times and
/// the memory speed. The organisation is untouched, so it can share a
/// sweep with `config`.
fn retimed(rng: &mut Xoshiro, config: &HierarchyConfig) -> HierarchyConfig {
    let mut out = config.clone();
    for level in &mut out.levels {
        level.read_cycles = pick(rng, 1, 8);
        level.write_cycles = level.read_cycles * pick(rng, 1, 2);
    }
    out.memory = config.memory.scaled(0.5 + rng.next_f64() * 2.0);
    out
}

/// A random trace with locality: references cluster in a few hot
/// regions, with occasional far jumps.
fn rand_trace(rng: &mut Xoshiro, len: usize) -> Vec<TraceRecord> {
    let regions: Vec<u64> = (0..4).map(|_| rng.next_below(1 << 24) & !0xfff).collect();
    let span = 1 << pick(rng, 10, 16);
    (0..len)
        .map(|_| {
            let kind = match rng.next_below(10) {
                0..=5 => AccessKind::InstructionFetch,
                6..=7 => AccessKind::Read,
                _ => AccessKind::Write,
            };
            let addr = if chance(rng, 3) {
                rng.next_below(1 << 28)
            } else {
                regions[rng.next_below(4) as usize] + rng.next_below(span)
            };
            TraceRecord::new(kind, Address::new(addr & !3))
        })
        .collect()
}

#[test]
fn one_engine_agrees_with_itself_across_shapes_and_widths() {
    const CASES: u64 = 24;
    for case in 0..CASES {
        let seed = 0x5DEE_CE66_D1CE_u64.wrapping_mul(case + 1);
        let mut rng = Xoshiro::seed_from_u64(seed);
        let config = rand_machine(&mut rng);
        let len = pick(&mut rng, 1_000, 4_000) as usize;
        let trace = rand_trace(&mut rng, len);
        let warmup = trace.len() / 4;
        let ctx = format!("case {case} (seed {seed:#x}), machine {config:?}");

        // Attributed runs: the ledger conserves, and the no-op observer
        // drivers return the same results.
        let attributed = simulate_with_warmup_attributed(
            config.clone(),
            &trace,
            warmup,
            &Metrics::disabled(),
            None,
        )
        .unwrap();
        assert_eq!(
            attributed.ledger.total(),
            attributed.result.total_cycles,
            "{ctx}"
        );
        let plain = simulate_with_warmup(config.clone(), trace.iter().copied(), warmup).unwrap();
        assert_eq!(plain, attributed.result, "{ctx}");

        let mut sim = HierarchySim::new(config.clone()).unwrap();
        sim.run(trace.iter().copied());
        assert_eq!(sim.ledger().total(), sim.result().total_cycles, "{ctx}");
        assert_eq!(
            simulate(config.clone(), trace.iter().copied()).unwrap(),
            sim.result(),
            "{ctx}"
        );

        // Lane 0 at every width is the scalar simulation of its config.
        let mut configs = vec![config.clone()];
        configs.extend((1..24).map(|_| retimed(&mut rng, &config)));
        for &width in &LANE_WIDTHS {
            let lanes = &configs[..width];
            assert_eq!(TimingSweepSim::new(lanes).unwrap().width(), width);
            let swept = simulate_timing_sweep(lanes, &trace, warmup).unwrap();
            assert_eq!(swept[0], plain, "W{width} lane 0, {ctx}");
        }
    }
}
