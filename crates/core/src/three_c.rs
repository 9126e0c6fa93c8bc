//! The three-C miss classification (Hill): compulsory, capacity and
//! conflict misses.
//!
//! The paper's reference [6]/[7] is Hill's thesis and "The Case for
//! Direct-Mapped Caches", whose decomposition explains *why* set
//! associativity helps where it does: conflict misses — the only
//! component associativity can remove — are computed as the difference
//! between a real cache's misses and those of a fully associative LRU
//! cache of equal capacity; capacity misses are the fully associative
//! misses beyond the compulsory (first-touch) ones. The fully
//! associative count comes from [`fully_associative_misses`], an
//! O(1)-per-reference LRU simulation at the cache's capacity; by the
//! inclusion property it is the stack-distance histogram's point there.

use mlc_cache::{Cache, CacheConfig};
use mlc_trace::stackdist::fully_associative_misses;
use mlc_trace::TraceRecord;

/// A trace's misses for one cache organisation, split into the three Cs.
///
/// All counts are over *all* reference kinds (the decomposition is about
/// block reuse, not read/write semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissComponents {
    /// References analysed.
    pub references: u64,
    /// First-touch misses: unavoidable at any size or associativity.
    pub compulsory: u64,
    /// Fully-associative-LRU misses beyond compulsory: the cache is too
    /// small for the working set.
    pub capacity: u64,
    /// Real-cache misses beyond the fully associative count: set
    /// conflicts that more associativity could remove. Clamped at zero —
    /// a set-associative cache can occasionally beat fully associative
    /// LRU on pathological patterns.
    pub conflict: u64,
    /// The real cache's total misses (`compulsory + capacity + conflict`
    /// up to the clamp).
    pub total_misses: u64,
}

impl MissComponents {
    /// Total miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        self.total_misses as f64 / self.references as f64
    }

    /// The conflict component as a fraction of all misses (0 if there
    /// are no misses).
    pub fn conflict_fraction(&self) -> f64 {
        if self.total_misses == 0 {
            0.0
        } else {
            self.conflict as f64 / self.total_misses as f64
        }
    }
}

/// Classifies the misses `config` suffers on `records` into the three
/// Cs. Two passes over the trace: one functional simulation of
/// `config` and one of a fully associative LRU cache of the same
/// capacity and block size.
///
/// # Panics
///
/// Panics if `records` is empty.
pub fn classify_misses(config: CacheConfig, records: &[TraceRecord]) -> MissComponents {
    assert!(!records.is_empty(), "cannot classify an empty trace");
    let mut cache = Cache::new(config);
    for rec in records {
        cache.access(rec.addr, rec.kind);
    }
    let total_misses = cache.stats().total_misses();

    let geom = config.geometry();
    let (fa_misses, compulsory) =
        fully_associative_misses(records.iter().copied(), geom.block_bytes(), geom.blocks());
    let capacity = fa_misses - compulsory;
    let conflict = total_misses.saturating_sub(fa_misses);
    MissComponents {
        references: records.len() as u64,
        compulsory,
        capacity,
        conflict,
        total_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache::ByteSize;

    fn dm_cache(bytes: u64, block: u64) -> CacheConfig {
        CacheConfig::builder()
            .total(ByteSize::new(bytes))
            .block_bytes(block)
            .build()
            .unwrap()
    }

    fn reads(blocks: &[u64]) -> Vec<TraceRecord> {
        blocks.iter().map(|&b| TraceRecord::read(b * 16)).collect()
    }

    #[test]
    fn pure_compulsory() {
        // Distinct blocks only: every miss is a first touch.
        let trace = reads(&[0, 1, 2, 3]);
        let c = classify_misses(dm_cache(256, 16), &trace);
        assert_eq!(c.compulsory, 4);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 0);
        assert_eq!(c.total_misses, 4);
        assert_eq!(c.miss_ratio(), 1.0);
    }

    #[test]
    fn pure_conflict() {
        // Blocks 0 and 16 alias in a 16-set direct-mapped cache but fit
        // comfortably in its 16-block capacity: all repeat misses are
        // conflicts.
        let trace = reads(&[0, 16, 0, 16, 0, 16]);
        let c = classify_misses(dm_cache(256, 16), &trace);
        assert_eq!(c.compulsory, 2);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 4);
        assert!((c.conflict_fraction() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn pure_capacity() {
        // A cyclic sweep over 32 blocks through a 16-block fully
        // associative cache: every reuse is a capacity miss.
        let config = CacheConfig::builder()
            .total(ByteSize::new(256))
            .block_bytes(16)
            .ways(16)
            .build()
            .unwrap();
        let blocks: Vec<u64> = (0..32u64).cycle().take(96).collect();
        let c = classify_misses(config, &reads(&blocks));
        assert_eq!(c.compulsory, 32);
        assert_eq!(c.capacity, 64);
        assert_eq!(c.conflict, 0);
    }

    #[test]
    fn associativity_removes_conflict_only() {
        // The same conflicting pattern on 1-way vs 2-way: the 2-way
        // cache eliminates the conflicts; compulsory stays fixed.
        let trace = reads(&[0, 16, 0, 16, 0, 16, 0, 16]);
        let dm = classify_misses(dm_cache(256, 16), &trace);
        let two_way = classify_misses(
            CacheConfig::builder()
                .total(ByteSize::new(256))
                .block_bytes(16)
                .ways(2)
                .build()
                .unwrap(),
            &trace,
        );
        assert!(dm.conflict > 0);
        assert_eq!(two_way.conflict, 0);
        assert_eq!(dm.compulsory, two_way.compulsory);
        assert!(two_way.total_misses < dm.total_misses);
    }

    #[test]
    fn components_sum_to_total() {
        // On an irregular pattern the identity must hold exactly
        // whenever conflict was not clamped.
        let blocks: Vec<u64> = (0..400u64).map(|i| (i * 7) % 53).collect();
        let c = classify_misses(dm_cache(256, 16), &reads(&blocks));
        assert_eq!(c.compulsory + c.capacity + c.conflict, c.total_misses);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn rejects_empty() {
        classify_misses(dm_cache(256, 16), &[]);
    }
}
