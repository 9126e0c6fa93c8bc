//! Seeded random machine shapes and traces for the engine's
//! cross-checks: one source for `tests/engine_oracle.rs` (which includes
//! this file by path) and the ISA-tier equivalence test in `engine.rs`.
//!
//! Shapes cover split and unified L1s, write-through with no-allocate,
//! victim buffers, sub-block fetch, next-block prefetch, one to three
//! levels, and write buffers of 1–8 entries. `super` must provide the
//! `mlc-sim` configuration types (this crate's root does; the oracle
//! test imports them).

use mlc_cache::{AllocPolicy, ByteSize, CacheConfig, Prefetch, WritePolicy};
use mlc_trace::synth::Xoshiro;
use mlc_trace::{AccessKind, Address, TraceRecord};

use super::{CpuConfig, HierarchyConfig, LevelCacheConfig, LevelConfig, MemoryConfig};

/// Uniform integer in `[lo, hi]`.
pub fn pick(rng: &mut Xoshiro, lo: u64, hi: u64) -> u64 {
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
pub fn rand_machine(rng: &mut Xoshiro) -> HierarchyConfig {
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
pub fn retimed(rng: &mut Xoshiro, config: &HierarchyConfig) -> HierarchyConfig {
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
pub fn rand_trace(rng: &mut Xoshiro, len: usize) -> Vec<TraceRecord> {
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
