//! Multi-level cache-access-classification filtering and per-level
//! guaranteed miss bounds.
//!
//! Hardy & Puaut's scheme: each access carries a *cache access
//! classification* (CAC) per level — `A` (always reaches the level),
//! `U` (uncertain), `N` (never reaches it). Everything is `A` at L1;
//! below that, an access classified always-hit above never arrives
//! (`N`), an always-miss below an `A` stays `A`, and anything uncertain
//! degrades to `U`. `U` accesses drive the abstract states through the
//! maybe-transfer (join of updated and unchanged), keeping every level's
//! analysis sound.
//!
//! Writes are handled by *widening* rather than modeling: at levels
//! below L1 a write-back upper level emits dirty-victim writebacks the
//! static analysis cannot place, so when the trace contains writes the
//! must/persistence analyses are disabled below L1 (no guaranteed hits
//! there) and always-miss is only claimed for blocks no write ever
//! touches (write traffic can only insert or refresh *written* blocks).
//! Both directions stay sound; the bounds just widen — which is what
//! rule MLC017 warns about.

use mlc_cache::{AllocPolicy, CacheConfig, Prefetch, Replacement};
use mlc_core::memory_read_cycles;
use mlc_sim::{HierarchyConfig, LevelCacheConfig};
use mlc_trace::hash::BlockSet;
use mlc_trace::{AccessKind, TraceRecord};

use crate::analysis::{classify_unit, Chmc, UnitAccess};
use crate::bounds::{BoundsReport, LevelBounds};

/// Why a hierarchy configuration cannot be analysed statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// Human-readable reason, naming the offending level/unit.
    pub reason: String,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "static analysis unsupported: {}", self.reason)
    }
}

impl std::error::Error for Unsupported {}

fn unsupported(reason: String) -> Unsupported {
    Unsupported { reason }
}

/// Checks one cache unit against the analysable subset.
fn check_unit(level: usize, name: &str, cache: &CacheConfig) -> Result<(), Unsupported> {
    let what = |msg: String| Err(unsupported(format!("L{} {name}: {msg}", level + 1)));
    let geom = cache.geometry();
    if geom.ways() > 1 && cache.replacement() != Replacement::Lru {
        // Direct-mapped caches have no replacement choice, so any
        // policy label is fine there.
        return what(format!(
            "replacement policy {} is not LRU (rule MLC016)",
            cache.replacement()
        ));
    }
    if cache.alloc_policy() != AllocPolicy::WriteAllocate {
        return what("no-write-allocate writes bypass the modeled fill path (rule MLC017)".into());
    }
    if cache.prefetch() != Prefetch::None {
        return what("prefetching inserts blocks the analysis cannot place".into());
    }
    if cache.fetch_blocks() != 1 || cache.sub_blocks() != 1 {
        return what("multi-block fetch / sub-blocking not modeled".into());
    }
    if cache.victim_entries() != 0 {
        return what("victim buffer retains evicted blocks outside the LRU state".into());
    }
    Ok(())
}

/// Verifies `config` falls in the statically analysable subset:
/// per-unit LRU (or direct-mapped), write-allocate, no prefetch, no
/// sub-blocking, no victim buffer; block sizes non-decreasing
/// downstream; and a valid hierarchy overall.
pub fn supported(config: &HierarchyConfig) -> Result<(), Unsupported> {
    config
        .validate()
        .map_err(|e| unsupported(format!("invalid hierarchy: {e}")))?;
    let mut max_block_upstream = 0u64;
    for (i, level) in config.levels.iter().enumerate() {
        let units = level_units(&level.cache);
        for (name, cache) in &units {
            check_unit(i, name, cache)?;
        }
        let min_block = units
            .iter()
            .map(|(_, c)| c.geometry().block_bytes())
            .min()
            .unwrap_or(0);
        let max_block = units
            .iter()
            .map(|(_, c)| c.geometry().block_bytes())
            .max()
            .unwrap_or(0);
        if min_block < max_block_upstream {
            return Err(unsupported(format!(
                "L{} block size {min_block} shrinks below an upstream level's \
                 {max_block_upstream}: one upstream fill would span several blocks",
                i + 1
            )));
        }
        max_block_upstream = max_block_upstream.max(max_block);
    }
    Ok(())
}

/// The units of one level with display names.
fn level_units(cache: &LevelCacheConfig) -> Vec<(&'static str, CacheConfig)> {
    match cache {
        LevelCacheConfig::Unified(c) => vec![("unified", *c)],
        LevelCacheConfig::Split { icache, dcache } => {
            vec![("icache", *icache), ("dcache", *dcache)]
        }
    }
}

/// Whether `kind` is served by the unit named `name` of a level.
fn routes_to(name: &str, kind: AccessKind) -> bool {
    match name {
        "unified" => true,
        "icache" => kind == AccessKind::InstructionFetch,
        "dcache" => kind != AccessKind::InstructionFetch,
        _ => unreachable!("unknown unit name"),
    }
}

/// CAC lattice: never reaches the level / uncertain / always reaches.
const CAC_N: u8 = 0;
const CAC_U: u8 = 1;
const CAC_A: u8 = 2;

/// Runs the full multi-level analysis: per-level CHMC classification
/// with CAC filtering, guaranteed read-miss bounds `[lo, hi]` per
/// level, and worst/best-case read-path cycle bounds.
///
/// The bounds cover **read references** (instruction fetches and
/// loads): `lo ≤ read_misses(level) ≤ hi` for any LRU execution of
/// `records` on `config`, as measured by a cold simulation.
pub fn analyze(
    config: &HierarchyConfig,
    records: &[TraceRecord],
) -> Result<BoundsReport, Unsupported> {
    supported(config)?;
    let writes_present = records.iter().any(|r| r.kind == AccessKind::Write);
    let read_records = records.iter().filter(|r| r.kind.is_read()).count() as u64;

    // cac[p]: classification of position p for the level currently
    // being analysed; everything always arrives at L1. reach[p]: every
    // level analysed so far definitely misses position p (drives lo).
    let mut cac = vec![CAC_A; records.len()];
    let mut reach = vec![true; records.len()];
    let mut levels = Vec::with_capacity(config.levels.len());

    for (li, level) in config.levels.iter().enumerate() {
        let allow_must = li == 0 || !writes_present;
        let mut bounds = LevelBounds::new(&level.name);
        // Next level's CAC, refined unit by unit.
        let mut next_cac = cac.clone();

        for (name, cache) in level_units(&level.cache) {
            let geom = cache.geometry();
            let sets = geom.sets();
            let ways = geom.ways();
            let block_bytes = geom.block_bytes();

            // Route and collect this unit's access sequence. Blocks are
            // tracked for first-touch/written bookkeeping over *all*
            // routed positions, independent of CAC: writeback and
            // write-allocate traffic below L1 can insert blocks the CAC
            // says never arrive as reads.
            let mut accesses = Vec::new();
            let mut touched = BlockSet::default();
            let mut written = BlockSet::default();
            let mut first_touch = vec![false; records.len()];
            for (p, r) in records.iter().enumerate() {
                if !routes_to(name, r.kind) {
                    continue;
                }
                let block = r.addr.block_index(block_bytes);
                if touched.insert(block) {
                    first_touch[p] = true;
                }
                if r.kind == AccessKind::Write {
                    written.insert(block);
                }
                if cac[p] != CAC_N {
                    accesses.push(UnitAccess {
                        pos: p,
                        block,
                        definite: cac[p] == CAC_A,
                    });
                }
            }

            let am_blocked = (li > 0 && writes_present).then_some(&written);
            let chmc = classify_unit(sets, ways, &accesses, allow_must, am_blocked);

            // Accounting: upper bound over read positions that can
            // arrive; lower bound over reads that *definitely* miss at
            // every level so far. A first-miss contributes to hi only at
            // the block's first FM position.
            let mut fm_counted = BlockSet::default();
            let mut is_am = vec![false; records.len()];
            for (a, &c) in accesses.iter().zip(&chmc) {
                let p = a.pos;
                let read = records[p].kind.is_read();
                if read {
                    bounds.reads_max += 1;
                    match c {
                        Chmc::AlwaysHit => bounds.always_hit += 1,
                        Chmc::AlwaysMiss => {
                            bounds.always_miss += 1;
                            bounds.hi += 1;
                        }
                        Chmc::FirstMiss => {
                            bounds.first_miss += 1;
                            if fm_counted.insert(a.block) {
                                bounds.hi += 1;
                            }
                        }
                        Chmc::NotClassified => {
                            bounds.not_classified += 1;
                            bounds.hi += 1;
                        }
                    }
                }
                is_am[p] = c == Chmc::AlwaysMiss;
                // Refine the next level's CAC for this position.
                next_cac[p] = match c {
                    Chmc::AlwaysHit => CAC_N,
                    Chmc::AlwaysMiss if cac[p] == CAC_A => CAC_A,
                    _ => CAC_U,
                };
            }
            for (p, r) in records.iter().enumerate() {
                if !routes_to(name, r.kind) {
                    continue;
                }
                if cac[p] == CAC_N {
                    if r.kind.is_read() {
                        bounds.filtered += 1;
                    }
                    next_cac[p] = CAC_N;
                }
                // A cold first touch of the unit misses regardless of
                // classification; so does a definite always-miss.
                let definite_miss = first_touch[p] || (cac[p] == CAC_A && is_am[p]);
                if r.kind.is_read() && reach[p] && definite_miss {
                    bounds.lo += 1;
                }
                reach[p] = reach[p] && definite_miss;
            }
        }

        debug_assert!(bounds.lo <= bounds.hi);
        levels.push(bounds);
        cac = next_cac;
    }

    // Read-path cycle bounds: every read pays L1's access time; each
    // level's misses pay the next level's read time; last-level misses
    // pay the memory read latency. Write-side and refresh costs are
    // deliberately out of scope (see DESIGN.md §14).
    let mem = memory_read_cycles(config);
    let mut cycles_lo = read_records * config.levels[0].read_cycles;
    let mut cycles_hi = cycles_lo;
    for (li, b) in levels.iter().enumerate() {
        let next = match config.levels.get(li + 1) {
            Some(l) => l.read_cycles,
            None => mem,
        };
        cycles_lo += b.lo * next;
        cycles_hi += b.hi * next;
    }

    Ok(BoundsReport {
        levels,
        trace_records: records.len() as u64,
        read_records,
        writes_widen: writes_present,
        read_cycles_lo: cycles_lo,
        read_cycles_hi: cycles_hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache::{ByteSize, CacheConfig};
    use mlc_sim::machine::{base_machine, single_level, BaseMachine};

    fn reads(addrs: &[u64]) -> Vec<TraceRecord> {
        addrs.iter().map(|&a| TraceRecord::read(a)).collect()
    }

    #[test]
    fn base_machine_is_supported() {
        supported(&base_machine()).expect("base machine is LRU/WB/WA");
    }

    #[test]
    fn random_replacement_is_rejected_when_associative() {
        let cache = CacheConfig::builder()
            .total(ByteSize::kib(4))
            .block_bytes(16)
            .ways(2)
            .replacement(Replacement::Random)
            .build()
            .expect("valid cache");
        let config = single_level(cache, 1, 10.0, 1.0);
        let err = supported(&config).expect_err("random replacement unsupported");
        assert!(err.reason.contains("MLC016"), "{}", err.reason);
    }

    #[test]
    fn direct_mapped_ignores_replacement_label() {
        let cache = CacheConfig::builder()
            .total(ByteSize::kib(4))
            .block_bytes(16)
            .ways(1)
            .replacement(Replacement::Random)
            .build()
            .expect("valid cache");
        let config = single_level(cache, 1, 10.0, 1.0);
        supported(&config).expect("direct-mapped has no replacement choice");
    }

    #[test]
    fn no_write_allocate_is_rejected() {
        let cache = CacheConfig::builder()
            .total(ByteSize::kib(4))
            .block_bytes(16)
            .ways(1)
            .alloc_policy(AllocPolicy::NoWriteAllocate)
            .build()
            .expect("valid cache");
        let config = single_level(cache, 1, 10.0, 1.0);
        let err = supported(&config).expect_err("nwa unsupported");
        assert!(err.reason.contains("MLC017"), "{}", err.reason);
    }

    #[test]
    fn repeated_read_loop_has_tight_bounds() {
        // 64 reads of the same address through the base machine: the
        // first touch must miss everywhere (lo = 1), everything after
        // is an always-hit at L1 (hi = 1 at L1; L2 sees at most the one
        // cold fill).
        let mut records = Vec::new();
        for _ in 0..64 {
            records.push(TraceRecord::read(0x40));
        }
        let report = analyze(&base_machine(), &records).expect("supported");
        assert_eq!(report.levels[0].lo, 1);
        assert_eq!(report.levels[0].hi, 1);
        assert_eq!(report.levels[1].lo, 1);
        assert_eq!(report.levels[1].hi, 1);
    }

    #[test]
    fn always_hit_above_filters_the_level_below() {
        // After the cold miss, every repeat is AH at L1 → CAC N at L2:
        // L2 must see exactly one read arriving.
        let records = reads(&[0x40, 0x40, 0x40, 0x40]);
        let report = analyze(&base_machine(), &records).expect("supported");
        assert_eq!(report.levels[1].filtered, 3);
        assert_eq!(report.levels[1].reads_max, 1);
    }

    #[test]
    fn writes_widen_lower_levels_but_not_l1() {
        let mut records = reads(&[0x40, 0x40]);
        records.push(TraceRecord::write(0x4000));
        let report = analyze(&base_machine(), &records).expect("supported");
        assert!(report.writes_widen);
        // L1 still classifies the repeat as a hit.
        assert_eq!(report.levels[0].hi, 1);
    }

    #[test]
    fn thrash_pattern_yields_nontrivial_exact_bound() {
        // Two blocks ping-pong through a 1-set direct-mapped unified
        // cache: every access misses, and the analysis proves it
        // exactly (lo == hi == n).
        let cache = CacheConfig::builder()
            .total(ByteSize::new(16))
            .block_bytes(16)
            .ways(1)
            .build()
            .expect("valid cache");
        let config = single_level(cache, 1, 10.0, 1.0);
        let records = reads(&[0x00, 0x10, 0x00, 0x10, 0x00, 0x10]);
        let report = analyze(&config, &records).expect("supported");
        assert_eq!(report.levels[0].lo, 6);
        assert_eq!(report.levels[0].hi, 6);
    }

    #[test]
    fn split_l1_routes_ifetch_and_data_separately() {
        // Same address as ifetch and load: the two units are
        // independent, so each sees its own cold miss.
        let records = vec![
            TraceRecord::ifetch(0x40),
            TraceRecord::read(0x40),
            TraceRecord::ifetch(0x40),
            TraceRecord::read(0x40),
        ];
        let report = analyze(&base_machine(), &records).expect("supported");
        assert_eq!(report.levels[0].lo, 2);
        assert_eq!(report.levels[0].hi, 2);
    }

    #[test]
    fn cycle_bounds_track_miss_bounds() {
        let records = reads(&[0x40, 0x40, 0x40]);
        let config = base_machine();
        let report = analyze(&config, &records).expect("supported");
        let mem = memory_read_cycles(&config);
        let l1 = config.levels[0].read_cycles;
        let l2 = config.levels[1].read_cycles;
        let expect = 3 * l1 + report.levels[0].hi * l2 + report.levels[1].hi * mem;
        assert_eq!(report.read_cycles_hi, expect);
        assert!(report.read_cycles_lo <= report.read_cycles_hi);
    }

    #[test]
    fn deeper_hierarchy_is_supported_and_bounded() {
        let config = BaseMachine::new()
            .l1_ways(2)
            .l2_ways(4)
            .build()
            .expect("valid machine");
        let records = reads(&[0x0, 0x40, 0x80, 0x0, 0x40, 0x80]);
        let report = analyze(&config, &records).expect("supported");
        for b in &report.levels {
            assert!(b.lo <= b.hi);
            assert!(b.hi <= b.reads_max);
        }
    }
}
