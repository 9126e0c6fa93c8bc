//! Age-based abstract cache states for set-associative LRU caches.
//!
//! The three classic abstract interpretations of an LRU cache
//! (Ferdinand & Wilhelm), each assigning tracked blocks an abstract
//! *age* in `0..ways` per set:
//!
//! * **Must**: a block in the state is *guaranteed* resident and its age
//!   is an **upper bound** on the concrete LRU age. Join (control-flow
//!   merge) keeps only blocks guaranteed on both paths, at the maximum
//!   age — the intersection-with-max-age join.
//! * **May**: a block absent from the state is *guaranteed not* resident;
//!   tracked ages are **lower bounds** on the concrete age. Join is the
//!   union-with-min-age.
//! * **Persistence**: ages are upper bounds on the age *since the block
//!   was last loaded, assuming it has not been evicted*; the saturated
//!   age `ways` is ⊤ ("may have been evicted since its load"). A block
//!   whose persistence age never reaches ⊤ at any of its accesses misses
//!   at most once over the whole repetition context. The update below is
//!   the conservative corrected rule (a block ages only when the accessed
//!   block was provably older), avoiding the known unsoundness of the
//!   original persistence update; join is union-with-max-age.
//!
//! Each set is a `Vec<(block, age)>` sorted by block: lookups are a
//! binary search, joins a merge of two sorted runs, and a state walked
//! through a trace allocates only when a set outgrows its capacity.
//!
//! Soundness of the transfer functions is argued case by case in
//! `DESIGN.md` §14; the invariants are exercised by the sim-vs-bounds
//! oracle property suite in `crates/sim/tests/bounds_props.rs`.

/// Which abstract interpretation an [`AbstractCache`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainKind {
    /// Guaranteed-resident blocks; ages are upper bounds.
    Must,
    /// Possibly-resident blocks; ages are lower bounds.
    May,
    /// Age since last load given no eviction; `ways` is ⊤.
    Persistence,
}

/// One set: `(block, age)` pairs sorted by block.
type Set = Vec<(u64, u32)>;

/// One abstract cache state: per-set block ages under one of the three
/// LRU abstract domains.
///
/// Blocks map to sets exactly as in the concrete cache: set index =
/// `block & (sets - 1)` for a power-of-two set count.
#[derive(Debug, PartialEq, Eq)]
pub struct AbstractCache {
    kind: DomainKind,
    ways: u32,
    set_mask: u64,
    sets: Vec<Set>,
}

impl Clone for AbstractCache {
    fn clone(&self) -> Self {
        AbstractCache {
            kind: self.kind,
            ways: self.ways,
            set_mask: self.set_mask,
            sets: self.sets.clone(),
        }
    }

    /// Reuses `self`'s per-set buffers, so a fixpoint round that copies
    /// its entry state allocates nothing once the sets have grown.
    fn clone_from(&mut self, source: &Self) {
        self.kind = source.kind;
        self.ways = source.ways;
        self.set_mask = source.set_mask;
        self.sets.clone_from(&source.sets);
    }
}

impl AbstractCache {
    /// Creates the empty (cold) state: no block is tracked.
    ///
    /// For Must this is ⊤-like "no guarantees"; for May it is the precise
    /// cold cache ("nothing can be resident"); for Persistence it means
    /// "nothing has been loaded yet".
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a positive power of two or `ways` is zero.
    pub fn new(kind: DomainKind, sets: u64, ways: u32) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a positive power of two, got {sets}"
        );
        assert!(ways > 0, "associativity must be positive");
        AbstractCache {
            kind,
            ways,
            set_mask: sets - 1,
            sets: vec![Vec::new(); sets as usize],
        }
    }

    /// The domain this state lives in.
    pub fn kind(&self) -> DomainKind {
        self.kind
    }

    /// The set a block maps to.
    fn set_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    /// The abstract age of `block`, if tracked. For Persistence, the
    /// saturated value `ways` is ⊤ ("possibly evicted since load").
    pub fn age(&self, block: u64) -> Option<u32> {
        let set = &self.sets[self.set_of(block)];
        find(set, block).ok().map(|i| set[i].1)
    }

    /// Whether `block` is in the state.
    pub fn contains(&self, block: u64) -> bool {
        self.age(block).is_some()
    }

    /// Transfer function for an access to `block` that definitely occurs.
    pub fn access(&mut self, block: u64) {
        let ways = self.ways;
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        let old = find(set, block).ok().map(|i| set[i].1);
        let threshold = old.unwrap_or(u32::MAX);
        match self.kind {
            DomainKind::Must => {
                // Blocks whose upper-bound age is below the accessed
                // block's old upper bound may be pushed one step closer
                // to eviction; a bound reaching the associativity is no
                // longer a residency guarantee.
                age_below(set, threshold);
                set.retain(|&(_, a)| a < ways);
            }
            DomainKind::May => {
                // Blocks whose lower-bound age is at or below the
                // accessed block's old lower bound are guaranteed to be
                // pushed down (concrete ages of distinct blocks are
                // distinct); a lower bound reaching the associativity
                // means definitely evicted.
                for (_, a) in set.iter_mut() {
                    if *a <= threshold {
                        *a += 1;
                    }
                }
                set.retain(|&(_, a)| a < ways);
            }
            DomainKind::Persistence => {
                // Conservative corrected rule: a block ages only when the
                // accessed block was provably older (its old upper bound
                // exceeds the block's). Ages saturate at `ways` = ⊤
                // rather than leaving the state: "possibly evicted" is
                // sticky until the block is re-accessed.
                age_below(set, threshold.min(ways));
            }
        }
        set_age(set, block, 0);
    }

    /// Transfer function for an access that may or may not occur (the
    /// multi-level filter's `U` classification): the join of the updated
    /// and unchanged states. Only the touched set can differ between
    /// the two, and the join has a closed form there, computed in place.
    pub fn access_maybe(&mut self, block: u64) {
        let ways = self.ways;
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        let old = find(set, block).ok().map(|i| set[i].1);
        let threshold = old.unwrap_or(u32::MAX);
        // An access only ever raises the other blocks' ages, and only
        // the accessed block can enter the state.
        match self.kind {
            // Intersection, max age: the other blocks as `access` leaves
            // them; the accessed block stays at its old bound if it was
            // guaranteed, and stays out otherwise.
            DomainKind::Must => {
                age_below(set, threshold);
                set.retain(|&(_, a)| a < ways);
            }
            // Union, min age: the other blocks keep their unchanged
            // ages (including any `access` would evict); the accessed
            // block is at age 0.
            DomainKind::May => set_age(set, block, 0),
            // Union, max age: the other blocks as `access` leaves them;
            // the accessed block keeps its old age, or enters at 0.
            DomainKind::Persistence => {
                age_below(set, threshold.min(ways));
                if old.is_none() {
                    set_age(set, block, 0);
                }
            }
        }
    }

    /// Joins `other` into `self` (both flow targets of a merge).
    ///
    /// # Panics
    ///
    /// Panics if the two states differ in domain or geometry.
    pub fn join(&mut self, other: &Self) {
        self.join_changed(other);
    }

    /// Joins `other` into `self` and reports whether `self` changed —
    /// the fixpoint's termination test, without a copy to compare
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the two states differ in domain or geometry.
    pub(crate) fn join_changed(&mut self, other: &Self) -> bool {
        assert_eq!(self.kind, other.kind, "cannot join across domains");
        assert_eq!(self.set_mask, other.set_mask, "set counts differ");
        assert_eq!(self.ways, other.ways, "associativities differ");
        let kind = self.kind;
        let mut changed = false;
        for (a, b) in self.sets.iter_mut().zip(&other.sets) {
            changed |= join_set(kind, a, b);
        }
        changed
    }
}

/// Position of `block` in a sorted set, or where it would be inserted.
fn find(set: &Set, block: u64) -> Result<usize, usize> {
    set.binary_search_by_key(&block, |&(b, _)| b)
}

/// Sets `block`'s age, inserting it in order if absent.
fn set_age(set: &mut Set, block: u64, age: u32) {
    match find(set, block) {
        Ok(i) => set[i].1 = age,
        Err(i) => set.insert(i, (block, age)),
    }
}

/// Increments every age below `limit`.
fn age_below(set: &mut Set, limit: u32) {
    for (_, a) in set.iter_mut() {
        if *a < limit {
            *a += 1;
        }
    }
}

/// Joins one set `b` into `a` under the domain's join by a merge of the
/// two sorted runs; returns whether `a` changed.
fn join_set(kind: DomainKind, a: &mut Set, b: &Set) -> bool {
    match kind {
        // Intersection, maximum age: only guarantees common to both
        // paths survive, at the weaker bound.
        DomainKind::Must => {
            let before = a.len();
            let mut changed = false;
            let mut j = 0;
            a.retain_mut(|(k, av)| {
                while j < b.len() && b[j].0 < *k {
                    j += 1;
                }
                if j < b.len() && b[j].0 == *k {
                    if b[j].1 > *av {
                        *av = b[j].1;
                        changed = true;
                    }
                    true
                } else {
                    false
                }
            });
            changed || a.len() != before
        }
        // Union, minimum age: anything possibly resident on either path
        // is possibly resident, at the younger bound.
        DomainKind::May => merge_union(a, b, u32::min),
        // Union, maximum age: the weaker upper bound on age-since-load;
        // ⊤ (= ways) absorbs.
        DomainKind::Persistence => merge_union(a, b, u32::max),
    }
}

/// Merges sorted `b` into sorted `a` in place, combining the ages of a
/// block present in both with `pick`; returns whether `a` changed.
fn merge_union(a: &mut Set, b: &Set, pick: fn(u32, u32) -> u32) -> bool {
    // Pass 1: update shared blocks and count the blocks only in `b`.
    let mut changed = false;
    let mut fresh = 0;
    let mut i = 0;
    for &(k, bv) in b {
        while i < a.len() && a[i].0 < k {
            i += 1;
        }
        if i < a.len() && a[i].0 == k {
            let v = pick(a[i].1, bv);
            changed |= v != a[i].1;
            a[i].1 = v;
        } else {
            fresh += 1;
        }
    }
    if fresh == 0 {
        return changed;
    }
    // Pass 2: grow `a` and merge from the back, so every entry moves at
    // most once and nothing is overwritten before it is read.
    let mut i = a.len();
    let mut j = b.len();
    a.resize(i + fresh, (0, 0));
    let mut w = a.len();
    while j > 0 {
        let (k, bv) = b[j - 1];
        if i > 0 && a[i - 1].0 > k {
            a[w - 1] = a[i - 1];
            i -= 1;
        } else if i > 0 && a[i - 1].0 == k {
            // Already combined in pass 1.
            a[w - 1] = a[i - 1];
            i -= 1;
            j -= 1;
        } else {
            a[w - 1] = (k, bv);
            j -= 1;
        }
        w -= 1;
    }
    true
}

/// The `BTreeMap`-per-set implementation the sorted vectors replaced,
/// kept as the reference model the randomized test compares against.
#[cfg(test)]
#[allow(dead_code)] // kept whole, including what the test does not call
mod reference {
    use std::collections::BTreeMap;

    use super::DomainKind;

    /// One abstract cache state: per-set `block → age` maps under one of the
    /// three LRU abstract domains.
    ///
    /// Blocks map to sets exactly as in the concrete cache: set index =
    /// `block & (sets - 1)` for a power-of-two set count.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AbstractCache {
        kind: DomainKind,
        ways: u32,
        set_mask: u64,
        sets: Vec<BTreeMap<u64, u32>>,
    }

    impl AbstractCache {
        /// Creates the empty (cold) state: no block is tracked.
        ///
        /// For Must this is ⊤-like "no guarantees"; for May it is the precise
        /// cold cache ("nothing can be resident"); for Persistence it means
        /// "nothing has been loaded yet".
        ///
        /// # Panics
        ///
        /// Panics if `sets` is not a positive power of two or `ways` is zero.
        pub fn new(kind: DomainKind, sets: u64, ways: u32) -> Self {
            assert!(
                sets > 0 && sets.is_power_of_two(),
                "set count must be a positive power of two, got {sets}"
            );
            assert!(ways > 0, "associativity must be positive");
            AbstractCache {
                kind,
                ways,
                set_mask: sets - 1,
                sets: vec![BTreeMap::new(); sets as usize],
            }
        }

        /// The domain this state lives in.
        pub fn kind(&self) -> DomainKind {
            self.kind
        }

        /// The set a block maps to.
        fn set_of(&self, block: u64) -> usize {
            (block & self.set_mask) as usize
        }

        /// The abstract age of `block`, if tracked. For Persistence, the
        /// saturated value `ways` is ⊤ ("possibly evicted since load").
        pub fn age(&self, block: u64) -> Option<u32> {
            self.sets[self.set_of(block)].get(&block).copied()
        }

        /// Whether `block` is in the state.
        pub fn contains(&self, block: u64) -> bool {
            self.age(block).is_some()
        }

        /// Transfer function for an access to `block` that definitely occurs.
        pub fn access(&mut self, block: u64) {
            let ways = self.ways;
            let set_idx = self.set_of(block);
            let set = &mut self.sets[set_idx];
            let old = set.get(&block).copied();
            match self.kind {
                DomainKind::Must => {
                    // Blocks whose upper-bound age is below the accessed
                    // block's old upper bound may be pushed one step closer
                    // to eviction; a bound reaching the associativity is no
                    // longer a residency guarantee.
                    let threshold = old.unwrap_or(u32::MAX);
                    for a in set.values_mut() {
                        if *a < threshold {
                            *a += 1;
                        }
                    }
                    set.retain(|_, a| *a < ways);
                    set.insert(block, 0);
                }
                DomainKind::May => {
                    // Blocks whose lower-bound age is at or below the
                    // accessed block's old lower bound are guaranteed to be
                    // pushed down (concrete ages of distinct blocks are
                    // distinct); a lower bound reaching the associativity
                    // means definitely evicted.
                    let threshold = old.unwrap_or(u32::MAX);
                    for a in set.values_mut() {
                        if *a <= threshold {
                            *a += 1;
                        }
                    }
                    set.retain(|_, a| *a < ways);
                    set.insert(block, 0);
                }
                DomainKind::Persistence => {
                    // Conservative corrected rule: a block ages only when the
                    // accessed block was provably older (its old upper bound
                    // exceeds the block's). Ages saturate at `ways` = ⊤
                    // rather than leaving the state: "possibly evicted" is
                    // sticky until the block is re-accessed.
                    let threshold = old.unwrap_or(u32::MAX);
                    for a in set.values_mut() {
                        if *a < threshold && *a < ways {
                            *a += 1;
                        }
                    }
                    set.insert(block, 0);
                }
            }
        }

        /// Transfer function for an access that may or may not occur (the
        /// multi-level filter's `U` classification): the join of the updated
        /// and unchanged states. Only the touched set is joined — the other
        /// sets are identical on both paths.
        pub fn access_maybe(&mut self, block: u64) {
            let set_idx = self.set_of(block);
            let before = self.sets[set_idx].clone();
            self.access(block);
            let kind = self.kind;
            join_set(kind, &mut self.sets[set_idx], &before);
        }

        /// Joins `other` into `self` (both flow targets of a merge).
        ///
        /// # Panics
        ///
        /// Panics if the two states differ in domain or geometry.
        pub fn join(&mut self, other: &Self) {
            assert_eq!(self.kind, other.kind, "cannot join across domains");
            assert_eq!(self.set_mask, other.set_mask, "set counts differ");
            assert_eq!(self.ways, other.ways, "associativities differ");
            let kind = self.kind;
            for (a, b) in self.sets.iter_mut().zip(&other.sets) {
                join_set(kind, a, b);
            }
        }
    }

    /// Joins one set's map `b` into `a` under the domain's join.
    fn join_set(kind: DomainKind, a: &mut BTreeMap<u64, u32>, b: &BTreeMap<u64, u32>) {
        match kind {
            // Intersection, maximum age: only guarantees common to both
            // paths survive, at the weaker bound.
            DomainKind::Must => {
                a.retain(|k, _| b.contains_key(k));
                for (k, av) in a.iter_mut() {
                    *av = (*av).max(b[k]);
                }
            }
            // Union, minimum age: anything possibly resident on either path
            // is possibly resident, at the younger bound.
            DomainKind::May => {
                for (&k, &bv) in b {
                    a.entry(k)
                        .and_modify(|av| *av = (*av).min(bv))
                        .or_insert(bv);
                }
            }
            // Union, maximum age: the weaker upper bound on age-since-load;
            // ⊤ (= ways) absorbs.
            DomainKind::Persistence => {
                for (&k, &bv) in b {
                    a.entry(k)
                        .and_modify(|av| *av = (*av).max(bv))
                        .or_insert(bv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ages(cache: &AbstractCache, blocks: &[u64]) -> Vec<Option<u32>> {
        blocks.iter().map(|&b| cache.age(b)).collect()
    }

    #[test]
    fn must_tracks_lru_ages_and_evicts_at_ways() {
        // One set, 2 ways; blocks 0, 8, 16 all collide (8 sets would
        // differ — use sets = 1 so every block shares the set).
        let mut m = AbstractCache::new(DomainKind::Must, 1, 2);
        m.access(0);
        m.access(8);
        assert_eq!(ages(&m, &[0, 8]), vec![Some(1), Some(0)]);
        // Re-access of 0: 8 (age 0 < 1) ages, 0 returns to the front.
        m.access(0);
        assert_eq!(ages(&m, &[0, 8]), vec![Some(0), Some(1)]);
        // A third block pushes 8 out of the guarantee.
        m.access(16);
        assert_eq!(ages(&m, &[0, 8, 16]), vec![Some(1), None, Some(0)]);
    }

    #[test]
    fn must_reaccess_does_not_age_older_blocks() {
        let mut m = AbstractCache::new(DomainKind::Must, 1, 4);
        m.access(0);
        m.access(8);
        m.access(16);
        // Accessing 16 again (age 0): nothing younger than it exists, so
        // 0 and 8 keep their ages.
        m.access(16);
        assert_eq!(ages(&m, &[0, 8, 16]), vec![Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn may_keeps_union_of_possibilities() {
        let mut a = AbstractCache::new(DomainKind::May, 1, 2);
        a.access(0);
        let mut b = AbstractCache::new(DomainKind::May, 1, 2);
        b.access(8);
        b.access(0);
        // a: {0: 0}; b: {8: 1, 0: 0}. Join: union with min ages.
        a.join(&b);
        assert_eq!(ages(&a, &[0, 8]), vec![Some(0), Some(1)]);
    }

    #[test]
    fn may_eviction_is_definite() {
        let mut m = AbstractCache::new(DomainKind::May, 1, 2);
        m.access(0);
        m.access(8);
        m.access(16);
        // Three distinct blocks through a 2-way set: 0 is definitely out.
        assert!(!m.contains(0));
        assert!(m.contains(8) && m.contains(16));
    }

    #[test]
    fn must_join_is_intersection_with_max_age() {
        let mut a = AbstractCache::new(DomainKind::Must, 1, 4);
        a.access(0);
        a.access(8);
        let mut b = AbstractCache::new(DomainKind::Must, 1, 4);
        b.access(8);
        b.access(16);
        a.join(&b);
        // Only 8 is guaranteed on both paths; at the weaker (older) age.
        assert_eq!(ages(&a, &[0, 8, 16]), vec![None, Some(1), None]);
    }

    #[test]
    fn persistence_saturates_at_top_and_recovers_on_access() {
        let mut p = AbstractCache::new(DomainKind::Persistence, 1, 2);
        p.access(0);
        p.access(8);
        p.access(16);
        p.access(24);
        // 0 has seen three provably-younger... rather: 8, 16, 24 each aged
        // it once; at ways = 2 it saturates to ⊤ (= 2).
        assert_eq!(p.age(0), Some(2));
        // Re-accessing 0 restores it to age 0 (it is resident *now*).
        p.access(0);
        assert_eq!(p.age(0), Some(0));
    }

    #[test]
    fn persistence_ping_pong_never_reaches_top() {
        // A and B alternate in a 2-way set: each access finds the other
        // block younger or equal, so neither ever ages past 1.
        let mut p = AbstractCache::new(DomainKind::Persistence, 1, 2);
        for _ in 0..8 {
            p.access(0);
            p.access(8);
        }
        assert!(p.age(0).unwrap() < 2);
        assert!(p.age(8).unwrap() < 2);
    }

    #[test]
    fn maybe_access_joins_with_the_unchanged_state() {
        // Must: a maybe-access cannot create a guarantee.
        let mut m = AbstractCache::new(DomainKind::Must, 1, 4);
        m.access_maybe(0);
        assert!(!m.contains(0));
        // But it conservatively ages existing guarantees.
        m.access(8);
        m.access_maybe(0);
        assert_eq!(m.age(8), Some(1));

        // May: a maybe-access does introduce the block (it may now be
        // resident) without aging others.
        let mut y = AbstractCache::new(DomainKind::May, 1, 4);
        y.access(8);
        y.access_maybe(0);
        assert_eq!(y.age(0), Some(0));
        assert_eq!(y.age(8), Some(0));
    }

    /// Random `access` / `access_maybe` / `join` sequences through the
    /// sorted-vector domain and the `BTreeMap` reference model in
    /// lockstep: ages agree after every step, and the join's change flag
    /// agrees with comparing the states before and after.
    #[test]
    fn matches_the_reference_model_on_random_sequences() {
        use mlc_trace::synth::Xoshiro;
        let mut rng = Xoshiro::seed_from_u64(0x5eed);
        for kind in [DomainKind::Must, DomainKind::May, DomainKind::Persistence] {
            for ways in [1u32, 2, 4] {
                for sets in [1u64, 4] {
                    for _ in 0..40 {
                        // Two states of each model, so joins merge
                        // genuinely different histories.
                        let mut fast = [
                            AbstractCache::new(kind, sets, ways),
                            AbstractCache::new(kind, sets, ways),
                        ];
                        let mut slow = [
                            reference::AbstractCache::new(kind, sets, ways),
                            reference::AbstractCache::new(kind, sets, ways),
                        ];
                        // A universe a little larger than the cache.
                        let universe = sets * u64::from(ways) + 3;
                        for step in 0..60 {
                            let side = rng.next_below(2) as usize;
                            let block = rng.next_below(universe);
                            match rng.next_below(3) {
                                0 => {
                                    fast[side].access(block);
                                    slow[side].access(block);
                                }
                                1 => {
                                    fast[side].access_maybe(block);
                                    slow[side].access_maybe(block);
                                }
                                _ => {
                                    let other = fast[1 - side].clone();
                                    let changed = fast[side].join_changed(&other);
                                    let before = slow[side].clone();
                                    slow[side].join(&slow[1 - side].clone());
                                    assert_eq!(
                                        changed,
                                        slow[side] != before,
                                        "{kind:?} {sets}x{ways} step {step}: change flag"
                                    );
                                }
                            }
                            for (f, r) in fast.iter().zip(&slow) {
                                for b in 0..universe {
                                    assert_eq!(
                                        f.age(b),
                                        r.age(b),
                                        "{kind:?} {sets}x{ways} step {step}: block {b}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocks_map_to_distinct_sets() {
        let mut m = AbstractCache::new(DomainKind::Must, 4, 1);
        m.access(0);
        m.access(1);
        m.access(2);
        // Different sets: direct-mapped but no interference.
        assert!(m.contains(0) && m.contains(1) && m.contains(2));
        // Same set as 0 (4 sets): 4 evicts 0's guarantee.
        m.access(4);
        assert!(!m.contains(0));
    }
}
