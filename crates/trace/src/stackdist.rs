//! One-pass LRU stack-distance analysis (Mattson et al., 1970).
//!
//! The *stack distance* of a reference is the number of distinct blocks
//! touched since the previous reference to the same block. A fully
//! associative LRU cache of capacity `C` blocks misses exactly the
//! references whose stack distance is ≥ `C` (plus first touches), so a
//! single pass over a trace yields the entire miss-ratio-versus-size
//! curve at once — the classic tool behind curves like the paper's
//! Figure 3, and an independent check of this repository's synthetic
//! workload calibration.
//!
//! [`lru_stack_distances`] is the standard O(N log N) algorithm: a
//! Fenwick tree over reference timestamps holds a 1 at the *most
//! recent* reference time of every live block, so a block's stack
//! distance is the number of live blocks minus a prefix sum up to its
//! previous reference.
//!
//! When only one capacity is wanted, [`fully_associative_misses`]
//! simulates that one fully associative LRU cache in O(1) per reference
//! instead. By the inclusion property its count is the histogram's own
//! [`misses_at`](StackDistanceHistogram::misses_at) point.

use std::collections::hash_map::Entry;

use crate::hash::BlockMap;
use crate::record::TraceRecord;

/// A growable Fenwick (binary indexed) tree over 0/1 values.
///
/// Fenwick trees cannot be extended by appending zeroed nodes (a new
/// node covers a range that includes *earlier* values), so the tree
/// keeps the raw bit array and rebuilds in O(n) whenever the index space
/// doubles — amortised O(1) per element.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
    bits: Vec<bool>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
            bits: vec![false; n],
        }
    }

    fn len(&self) -> usize {
        self.bits.len()
    }

    fn grow_to(&mut self, n: usize) {
        if n > self.bits.len() {
            let target = n.next_power_of_two().max(1024);
            self.bits.resize(target, false);
            self.tree = vec![0; target + 1];
            // Standard O(n) rebuild: seed leaves, then push each node's
            // total into its parent.
            for i in 1..=target {
                if self.bits[i - 1] {
                    self.tree[i] += 1;
                }
                let parent = i + (i & i.wrapping_neg());
                if parent <= target {
                    self.tree[parent] += self.tree[i];
                }
            }
        }
    }

    /// Sets the bit at 1-based index `i` (must currently be clear).
    fn set(&mut self, i: usize) {
        debug_assert!(!self.bits[i - 1]);
        self.bits[i - 1] = true;
        let mut i = i;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Clears the bit at 1-based index `i` (must currently be set).
    fn clear(&mut self, i: usize) {
        debug_assert!(self.bits[i - 1]);
        self.bits[i - 1] = false;
        let mut i = i;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of set bits in `1..=i`.
    fn prefix_sum(&self, i: usize) -> u64 {
        let mut i = i.min(self.len());
        let mut sum = 0u64;
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// The distribution of LRU stack distances of a trace, at block
/// granularity.
///
/// # Examples
///
/// ```
/// use mlc_trace::{stackdist::lru_stack_distances, TraceRecord};
///
/// // a, b, a: the second "a" has stack distance 1 (one distinct block
/// // — "b" — touched in between).
/// let trace = vec![
///     TraceRecord::read(0x00),
///     TraceRecord::read(0x40),
///     TraceRecord::read(0x00),
/// ];
/// let hist = lru_stack_distances(trace, 16);
/// assert_eq!(hist.cold_misses(), 2);
/// assert_eq!(hist.count_at(1), 1);
/// // A 1-block LRU cache misses all three; a 2-block cache hits the
/// // reuse.
/// assert_eq!(hist.miss_ratio_at(1), 1.0);
/// assert!((hist.miss_ratio_at(2) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackDistanceHistogram {
    /// `counts[d]` = references with stack distance exactly `d` (`d = 0`
    /// is an immediate re-reference of the most recent block).
    counts: Vec<u64>,
    cold: u64,
    total: u64,
    block_bytes: u64,
}

impl StackDistanceHistogram {
    /// References that touched a never-before-seen block (compulsory
    /// misses for any cache size).
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Total references analysed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The block granularity the trace was analysed at.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// References with stack distance exactly `d`.
    pub fn count_at(&self, d: usize) -> u64 {
        self.counts.get(d).copied().unwrap_or(0)
    }

    /// Number of references with stack distance ≥ `capacity_blocks`,
    /// plus cold misses — the miss *count* of a fully associative LRU
    /// cache with that many blocks.
    pub fn misses_at(&self, capacity_blocks: u64) -> u64 {
        let from = capacity_blocks as usize;
        let tail: u64 = self.counts.iter().skip(from).sum();
        tail + self.cold
    }

    /// The fully-associative-LRU miss ratio at `capacity_blocks`.
    ///
    /// Returns NaN for an empty histogram.
    pub fn miss_ratio_at(&self, capacity_blocks: u64) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.misses_at(capacity_blocks) as f64 / self.total as f64
        }
    }

    /// The whole miss-ratio curve for a ladder of cache sizes in bytes.
    pub fn miss_ratio_curve(&self, sizes_bytes: &[u64]) -> Vec<(u64, f64)> {
        sizes_bytes
            .iter()
            .map(|&s| (s, self.miss_ratio_at(s / self.block_bytes)))
            .collect()
    }

    /// The largest stack distance observed.
    pub fn max_distance(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// The mean stack distance over re-references (cold misses excluded).
    pub fn mean_distance(&self) -> Option<f64> {
        let reuses: u64 = self.counts.iter().sum();
        if reuses == 0 {
            return None;
        }
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as f64 * c as f64)
            .sum();
        Some(weighted / reuses as f64)
    }
}

/// Computes the LRU stack-distance histogram of `records` at the given
/// (power-of-two) block granularity, in one pass.
///
/// All reference kinds are analysed together (the structure is about
/// reuse, not read/write semantics).
///
/// # Panics
///
/// Panics if `block_bytes` is zero or not a power of two.
pub fn lru_stack_distances<I>(records: I, block_bytes: u64) -> StackDistanceHistogram
where
    I: IntoIterator<Item = TraceRecord>,
{
    assert!(
        block_bytes.is_power_of_two(),
        "block_bytes must be a power of two, got {block_bytes}"
    );
    let mut last_ref: BlockMap<usize> = BlockMap::default();
    let mut fenwick = Fenwick::new(1024);
    let mut counts: Vec<u64> = Vec::new();
    let mut cold = 0u64;
    let mut total = 0u64;
    // 1-based timestamp of the next reference.
    let mut now = 0usize;

    for rec in records {
        now += 1;
        total += 1;
        fenwick.grow_to(now);
        let block = rec.addr.block_index(block_bytes);
        match last_ref.insert(block, now) {
            None => cold += 1,
            Some(prev) => {
                // Distinct blocks touched strictly after `prev`: each has
                // exactly one live timestamp in (prev, now). Every live
                // block has one below `now`, so the count up to `now - 1`
                // is the number of distinct blocks, `last_ref.len()`.
                let depth = last_ref.len() - fenwick.prefix_sum(prev) as usize;
                if counts.len() <= depth {
                    counts.resize(depth + 1, 0);
                }
                counts[depth] += 1;
                fenwick.clear(prev);
            }
        }
        fenwick.set(now);
    }
    StackDistanceHistogram {
        counts,
        cold,
        total,
        block_bytes,
    }
}

/// Simulates one fully associative LRU cache of `capacity_blocks`
/// blocks over `records` at the given (power-of-two) block granularity
/// and returns `(misses, cold)`: its miss count and the first-touch
/// misses among them.
///
/// The result equals the [`lru_stack_distances`] histogram's
/// `(misses_at(capacity_blocks), cold_misses())` for the same trace
/// (Mattson inclusion), at O(1) per reference: each block is interned
/// to a dense id with one hash lookup, and the resident blocks form a
/// doubly linked recency list threaded through `Vec<u32>` links.
///
/// # Panics
///
/// Panics if `block_bytes` is zero or not a power of two, or if the
/// trace touches `u32::MAX` or more distinct blocks.
///
/// # Examples
///
/// ```
/// use mlc_trace::stackdist::fully_associative_misses;
/// use mlc_trace::TraceRecord;
///
/// // a, b, a: a 1-block cache misses all three, a 2-block cache hits
/// // the reuse.
/// let trace = [0x00, 0x40, 0x00].map(TraceRecord::read);
/// assert_eq!(fully_associative_misses(trace, 16, 1), (3, 2));
/// assert_eq!(fully_associative_misses(trace, 16, 2), (2, 2));
/// ```
pub fn fully_associative_misses<I>(records: I, block_bytes: u64, capacity_blocks: u64) -> (u64, u64)
where
    I: IntoIterator<Item = TraceRecord>,
{
    assert!(
        block_bytes.is_power_of_two(),
        "block_bytes must be a power of two, got {block_bytes}"
    );
    const NIL: u32 = u32::MAX;
    let mut ids: BlockMap<u32> = BlockMap::default();
    // Per block id: its neighbours towards the MRU (`prev`) and LRU
    // (`next`) ends, and whether it is resident.
    let mut prev: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut resident: Vec<bool> = Vec::new();
    let (mut head, mut tail) = (NIL, NIL);
    let mut len = 0u64;
    let (mut misses, mut cold) = (0u64, 0u64);

    for rec in records {
        let id = match ids.entry(rec.addr.block_index(block_bytes)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = u32::try_from(resident.len())
                    .ok()
                    .filter(|&id| id != NIL)
                    .expect("fewer than u32::MAX distinct blocks");
                cold += 1;
                prev.push(NIL);
                next.push(NIL);
                resident.push(false);
                *e.insert(id)
            }
        };
        let i = id as usize;
        if resident[i] {
            if head == id {
                continue;
            }
            // Unlink; `id` is not the head, so it has a predecessor.
            let (p, n) = (prev[i], next[i]);
            next[p as usize] = n;
            if n == NIL {
                tail = p;
            } else {
                prev[n as usize] = p;
            }
        } else {
            misses += 1;
            resident[i] = true;
            len += 1;
        }
        // Push to the MRU end.
        prev[i] = NIL;
        next[i] = head;
        if head == NIL {
            tail = id;
        } else {
            prev[head as usize] = id;
        }
        head = id;
        if len > capacity_blocks {
            // Evict the LRU block.
            let t = tail as usize;
            resident[t] = false;
            len -= 1;
            tail = prev[t];
            if tail == NIL {
                head = NIL;
            } else {
                next[tail as usize] = NIL;
            }
        }
    }
    (misses, cold)
}

/// One-pass *all-associativity* analysis at a fixed set count: per-set
/// LRU stack distances (Mattson's inclusion property applied within each
/// set, as in Hill's all-associativity simulation). The returned
/// histogram's `misses_at(a)` is the exact miss count of an `a`-way LRU
/// cache with `sets` sets — for every associativity at once.
///
/// # Panics
///
/// Panics unless `sets` and `block_bytes` are powers of two.
///
/// # Examples
///
/// ```
/// use mlc_trace::{stackdist::associativity_histogram, TraceRecord};
///
/// // Two blocks aliasing in a 4-set cache: direct-mapped thrashes,
/// // 2-way holds both.
/// let trace: Vec<_> = (0..10u64)
///     .map(|i| TraceRecord::read(if i % 2 == 0 { 0x00 } else { 0x100 }))
///     .collect();
/// let hist = associativity_histogram(trace, 4, 64);
/// assert_eq!(hist.misses_at(1), 10); // DM: every access misses
/// assert_eq!(hist.misses_at(2), 2); // 2-way: only the two cold misses
/// ```
pub fn associativity_histogram<I>(records: I, sets: u64, block_bytes: u64) -> StackDistanceHistogram
where
    I: IntoIterator<Item = TraceRecord>,
{
    assert!(
        block_bytes.is_power_of_two(),
        "block_bytes must be a power of two, got {block_bytes}"
    );
    assert!(
        sets.is_power_of_two(),
        "sets must be a power of two, got {sets}"
    );
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    let mut counts: Vec<u64> = Vec::new();
    let mut cold = 0u64;
    let mut total = 0u64;
    for rec in records {
        total += 1;
        let block = rec.addr.block_index(block_bytes);
        let set = (block % sets) as usize;
        let stack = &mut stacks[set];
        match stack.iter().position(|&b| b == block) {
            Some(depth) => {
                if counts.len() <= depth {
                    counts.resize(depth + 1, 0);
                }
                counts[depth] += 1;
                stack.remove(depth);
            }
            None => cold += 1,
        }
        stack.insert(0, block);
    }
    StackDistanceHistogram {
        counts,
        cold,
        total,
        block_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    fn reads(blocks: &[u64]) -> Vec<TraceRecord> {
        blocks.iter().map(|&b| TraceRecord::read(b * 64)).collect()
    }

    #[test]
    fn simple_reuse_pattern() {
        // a b c b a : distances — a,b,c cold; b=1 (c), a=2 (b,c).
        let h = lru_stack_distances(reads(&[0, 1, 2, 1, 0]), 64);
        assert_eq!(h.cold_misses(), 3);
        assert_eq!(h.count_at(0), 0);
        assert_eq!(h.count_at(1), 1);
        assert_eq!(h.count_at(2), 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.max_distance(), Some(2));
    }

    #[test]
    fn immediate_rereference_is_distance_zero() {
        let h = lru_stack_distances(reads(&[7, 7, 7]), 64);
        assert_eq!(h.cold_misses(), 1);
        assert_eq!(h.count_at(0), 2);
        assert_eq!(h.miss_ratio_at(1), 1.0 / 3.0);
    }

    #[test]
    fn cyclic_pattern_distances() {
        // Cycling over k blocks gives distance k-1 for every reuse.
        let k = 5u64;
        let mut seq = Vec::new();
        for _ in 0..10 {
            for b in 0..k {
                seq.push(b);
            }
        }
        let h = lru_stack_distances(reads(&seq), 64);
        assert_eq!(h.cold_misses(), k);
        assert_eq!(h.count_at(4), 45);
        // LRU of capacity 5 holds the whole loop; capacity 4 thrashes.
        assert_eq!(h.misses_at(5), 5);
        assert_eq!(h.misses_at(4), 50);
    }

    #[test]
    fn matches_naive_lru_simulation() {
        use crate::synth::Xoshiro;
        // Differential test: the histogram's miss counts must equal a
        // directly simulated fully associative LRU cache at every size.
        let mut rng = Xoshiro::seed_from_u64(77);
        let dist = crate::synth::StackDepthDistribution::new(0.7, 3.0);
        let mut engine = crate::synth::StackEngine::new(dist, 1 << 16, 9);
        let blocks: Vec<u64> = (0..4000).map(|_| engine.next_unit().0).collect();
        let _ = &mut rng;
        let trace = reads(&blocks);
        let h = lru_stack_distances(trace.iter().copied(), 64);
        for capacity in [1u64, 2, 4, 8, 16, 64, 256] {
            let mut lru: Vec<u64> = Vec::new();
            let mut misses = 0u64;
            for &b in &blocks {
                if let Some(pos) = lru.iter().position(|&x| x == b) {
                    lru.remove(pos);
                } else {
                    misses += 1;
                }
                lru.insert(0, b);
                lru.truncate(capacity as usize);
            }
            assert_eq!(
                h.misses_at(capacity),
                misses,
                "divergence at capacity {capacity}"
            );
            assert_eq!(
                fully_associative_misses(trace.iter().copied(), 64, capacity),
                (misses, h.cold_misses()),
                "counter diverges at capacity {capacity}"
            );
        }
    }

    #[test]
    fn counter_matches_histogram_at_every_capacity() {
        // Includes capacity 0 (every reference misses) and capacities at
        // and beyond the footprint (only cold misses remain).
        let blocks: Vec<u64> = (0..3000u64).map(|i| (i * i + 3 * i) % 211).collect();
        let trace = reads(&blocks);
        let h = lru_stack_distances(trace.iter().copied(), 64);
        for capacity in 0..=260u64 {
            assert_eq!(
                fully_associative_misses(trace.iter().copied(), 64, capacity),
                (h.misses_at(capacity), h.cold_misses()),
                "capacity {capacity}"
            );
        }
        assert_eq!(fully_associative_misses(Vec::new(), 64, 4), (0, 0));
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let blocks: Vec<u64> = (0..2000u64).map(|i| (i * i) % 97).collect();
        let h = lru_stack_distances(reads(&blocks), 64);
        let sizes: Vec<u64> = (0..8).map(|i| 64u64 << i).collect();
        let curve = h.miss_ratio_curve(&sizes);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }

    #[test]
    fn block_granularity_matters() {
        // Two addresses in the same 64B block are one block at 64B
        // granularity but two at 16B.
        let trace = [TraceRecord::read(0x00), TraceRecord::read(0x20)];
        let coarse = lru_stack_distances(trace.iter().copied(), 64);
        let fine = lru_stack_distances(trace.iter().copied(), 16);
        assert_eq!(coarse.cold_misses(), 1);
        assert_eq!(fine.cold_misses(), 2);
    }

    #[test]
    fn empty_trace() {
        let h = lru_stack_distances(Vec::new(), 64);
        assert_eq!(h.total(), 0);
        assert!(h.miss_ratio_at(4).is_nan());
        assert_eq!(h.max_distance(), None);
        assert_eq!(h.mean_distance(), None);
    }

    #[test]
    fn mean_distance_weighted() {
        // distances: 1 and 3 → mean 2.
        let h = lru_stack_distances(reads(&[0, 1, 0, 2, 3, 1]), 64);
        // reuse of 0 at depth 1; reuse of 1 at depth 3.
        assert_eq!(h.count_at(1), 1);
        assert_eq!(h.count_at(3), 1);
        assert_eq!(h.mean_distance(), Some(2.0));
    }

    #[test]
    fn synthetic_generator_matches_its_configured_tail() {
        // End-to-end calibration check: the generator's D-stream stack
        // distances should follow its configured survival function.
        use crate::synth::{StackDepthDistribution, StackEngine};
        let dist = StackDepthDistribution::new(0.85, 9.2);
        let mut engine = StackEngine::new(dist, 1 << 20, 3);
        let blocks: Vec<u64> = (0..200_000).map(|_| engine.next_unit().0).collect();
        let h = lru_stack_distances(reads(&blocks), 64);
        for depth in [64u64, 256, 1024] {
            let measured = h.miss_ratio_at(depth);
            let model = dist.survival(depth);
            assert!(
                (measured - model).abs() / model < 0.35,
                "depth {depth}: measured {measured} vs model {model}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_block_size() {
        lru_stack_distances(Vec::new(), 48);
    }

    #[test]
    fn associativity_histogram_matches_set_associative_lru() {
        // Differential test against a per-set naive LRU cache at every
        // associativity.
        let blocks: Vec<u64> = (0..3000u64).map(|i| (i * 11) % 96).collect();
        let trace = reads(&blocks);
        let sets = 8u64;
        let hist = associativity_histogram(trace.iter().copied(), sets, 64);
        for ways in [1usize, 2, 4, 8] {
            let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
            let mut misses = 0u64;
            for &b in &blocks {
                let set = (b % sets) as usize;
                let stack = &mut stacks[set];
                if let Some(pos) = stack.iter().position(|&x| x == b) {
                    stack.remove(pos);
                } else {
                    misses += 1;
                }
                stack.insert(0, b);
                stack.truncate(ways);
            }
            assert_eq!(hist.misses_at(ways as u64), misses, "{ways}-way");
        }
    }

    #[test]
    fn associativity_histogram_is_monotone_in_ways() {
        let blocks: Vec<u64> = (0..2000u64).map(|i| (i * 7) % 61).collect();
        let hist = associativity_histogram(reads(&blocks), 16, 64);
        let mut prev = u64::MAX;
        for a in 1..=32u64 {
            let m = hist.misses_at(a);
            assert!(m <= prev, "{a}-way: {m} > {prev}");
            prev = m;
        }
        assert_eq!(hist.misses_at(64), hist.cold_misses());
    }

    #[test]
    #[should_panic(expected = "sets must be a power of two")]
    fn associativity_rejects_bad_sets() {
        associativity_histogram(Vec::new(), 3, 64);
    }
}
