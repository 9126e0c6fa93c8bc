//! Cross-validation of the three independent miss-ratio machineries:
//! the functional cache simulator, one-pass stack-distance analysis, and
//! the 3C classification built on both.

use mlc::cache::{ByteSize, CacheConfig};
use mlc::core::classify_misses;
use mlc::sim::{solo, LevelCacheConfig};
use mlc::trace::stackdist::{fully_associative_misses, lru_stack_distances};
use mlc::trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc::trace::TraceRecord;

fn trace(n: usize) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(Preset::Mips3.config(11))
        .expect("valid preset")
        .generate_records(n)
}

/// A fully associative LRU cache simulated functionally must agree
/// *exactly* with the stack-distance histogram and with the O(1)
/// fully associative counter at every capacity, from one block to more
/// than the trace's footprint.
#[test]
fn stack_distance_matches_fully_associative_simulation() {
    let records = trace(120_000);
    let block = 32u64;
    let hist = lru_stack_distances(records.iter().copied(), block);
    let footprint = hist.cold_misses();
    let beyond = footprint.next_power_of_two();
    for blocks in [1u64, 32, 128, 512, 2048, beyond] {
        let config = CacheConfig::builder()
            .total(ByteSize::new(blocks * block))
            .block_bytes(block)
            .ways(u32::try_from(blocks).unwrap())
            .build()
            .unwrap();
        let stats = solo::solo_stats(
            LevelCacheConfig::Unified(config),
            records.iter().copied(),
            0,
        );
        assert_eq!(
            stats.total_misses(),
            hist.misses_at(blocks),
            "capacity {blocks} blocks"
        );
        assert_eq!(
            fully_associative_misses(records.iter().copied(), block, blocks),
            (stats.total_misses(), hist.cold_misses()),
            "counter at capacity {blocks} blocks"
        );
    }
    assert_eq!(hist.misses_at(beyond), footprint, "only cold misses remain");
}

/// Direct-mapped caches can only be worse than fully associative LRU on
/// these workloads (no anti-LRU pathologies in the generators), so the
/// 3C conflict component is the exact gap.
#[test]
fn three_c_ties_cache_to_histogram() {
    let records = trace(100_000);
    for kib in [16u64, 64, 256] {
        let config = CacheConfig::builder()
            .total(ByteSize::kib(kib))
            .block_bytes(32)
            .build()
            .unwrap();
        let c = classify_misses(config, &records);
        assert_eq!(
            c.compulsory + c.capacity + c.conflict,
            c.total_misses,
            "{kib}KB: components must sum exactly when conflict >= 0"
        );
        let stats = solo::solo_stats(
            LevelCacheConfig::Unified(config),
            records.iter().copied(),
            0,
        );
        assert_eq!(c.total_misses, stats.total_misses(), "{kib}KB");
    }
}

/// Associativity erodes the conflict component (up to a small tolerance:
/// set-partitioned LRU is not strictly dominated by fully associative
/// LRU, so a few residual "conflict" misses can persist) while the
/// compulsory component stays fixed.
#[test]
fn associativity_erodes_conflict_component() {
    let records = trace(100_000);
    let mut prev_conflict = u64::MAX;
    let mut compulsory = None;
    for ways in [1u32, 2, 4, 8] {
        let config = CacheConfig::builder()
            .total(ByteSize::kib(64))
            .block_bytes(32)
            .ways(ways)
            .build()
            .unwrap();
        let c = classify_misses(config, &records);
        let slack = c.total_misses / 100; // 1% of misses
        assert!(
            c.conflict <= prev_conflict.saturating_add(slack),
            "{ways}-way conflict {} > previous {prev_conflict} (+{slack})",
            c.conflict
        );
        prev_conflict = prev_conflict.min(c.conflict);
        match compulsory {
            None => compulsory = Some(c.compulsory),
            Some(v) => assert_eq!(v, c.compulsory, "compulsory is organisation-independent"),
        }
    }
    // By 8-way, conflicts are a negligible share.
    assert!(prev_conflict < records.len() as u64 / 1000);
}

/// The all-associativity histogram agrees exactly with the functional
/// cache at every associativity of a fixed set count.
#[test]
fn associativity_histogram_matches_cache() {
    use mlc::trace::stackdist::associativity_histogram;
    let records = trace(80_000);
    let sets = 512u64;
    let block = 32u64;
    let hist = associativity_histogram(records.iter().copied(), sets, block);
    for ways in [1u32, 2, 4, 8] {
        let config = CacheConfig::builder()
            .total(ByteSize::new(sets * u64::from(ways) * block))
            .block_bytes(block)
            .ways(ways)
            .build()
            .unwrap();
        let stats = solo::solo_stats(
            LevelCacheConfig::Unified(config),
            records.iter().copied(),
            0,
        );
        assert_eq!(
            stats.total_misses(),
            hist.misses_at(u64::from(ways)),
            "{ways}-way"
        );
    }
}

/// The histogram's miss-ratio curve bounds every real organisation of
/// equal capacity from below (Mattson inclusion property for LRU).
#[test]
fn fully_associative_lower_bounds_direct_mapped() {
    let records = trace(100_000);
    let hist = lru_stack_distances(records.iter().copied(), 32);
    for kib in [8u64, 32, 128, 512] {
        let config = CacheConfig::builder()
            .total(ByteSize::kib(kib))
            .block_bytes(32)
            .build()
            .unwrap();
        let stats = solo::solo_stats(
            LevelCacheConfig::Unified(config),
            records.iter().copied(),
            0,
        );
        let fa = hist.misses_at(ByteSize::kib(kib).get() / 32);
        assert!(
            stats.total_misses() >= fa,
            "{kib}KB: DM {} < FA {fa}",
            stats.total_misses()
        );
    }
}
