//! The timing engine: one trace-driven, timing-accurate walk of the
//! hierarchy, priced under `W` timing variants ("lanes") at once.
//!
//! # Timing model
//!
//! Time is counted in integer CPU cycles ("ticks"). The CPU executes one
//! instruction fetch and at most one data access per non-stall cycle;
//! both issue at the cycle's start (the split L1 services them in
//! parallel) and the next cycle begins when every outstanding access of
//! the current cycle has completed.
//!
//! * A read that hits at a level completes after that level's
//!   `read_cycles`; delivering an upstream block wider than the bus costs
//!   one extra bus cycle per additional beat.
//! * A miss pays the level's own access time (its tag check) and then
//!   fetches from downstream, so a read that misses L1 and hits L2 costs
//!   `n_L1 + n_L2` — exactly the structure of the paper's Equation 1, and
//!   its "nominal cache miss penalty of 3 CPU cycles" for an L1 miss that
//!   hits a 3-cycle L2. The requester resumes when its whole block has
//!   arrived, as the paper specifies for both L1 and L2 misses.
//! * Dirty victims enter the evicting level's write buffer. Buffers drain
//!   *lazily*: whenever a demand request is about to use a level, queued
//!   writes that could have started in the level's preceding idle time
//!   are retired first (they may still be in service when the demand
//!   arrives — service is not preempted). A full buffer forces a
//!   synchronous drain, stalling the requester — the paper's
//!   buffer-full stall.
//! * Main memory serialises operations and enforces the refresh gap (see
//!   [`mlc_mem::MainMemory`]).
//!
//! # Lanes
//!
//! Functional behaviour — which references hit, which blocks move —
//! depends only on the reference order, never on cycle times; only the
//! *prices* change. So the engine runs the shared cache model once and
//! carries `[u64; W]` vectors through the timing arithmetic, one lane
//! per timing variant: per lane the clock, busy times, cycle counts,
//! buffer-entry ready times, a main memory and the stall counters;
//! shared the caches, the write-buffer *contents* and every
//! hit/miss/traffic counter.
//!
//! Lazy write-buffer drains are a timing-dependent decision that feeds
//! back into cache state (a drain performs a downstream write). Lane 0
//! — the **decision lane** — makes every drain decision and the other
//! lanes retire the same entries at their own times. Lane 0 is therefore
//! the exact simulation of its configuration; other lanes agree except
//! where their own drain window would have differed. The scalar
//! simulator ([`HierarchySim`](crate::HierarchySim),
//! [`simulate`](crate::simulate)) is the `W = 1` instance.
//!
//! # Observers
//!
//! The engine reports its critical path to an [`Observer`] at fixed
//! points of the walk, with lane-0 values. Sweeps and the plain scalar
//! drivers use the no-op `()` observer, whose hooks compile away;
//! `HierarchySim` attaches the cycle-attribution observer.
//!
//! # ISA tiers
//!
//! The build is portable (baseline SSE2 on x86-64), and SSE2 has no
//! 64-bit compare, so the `[u64; W]` maxima would be scalarised. The
//! walk is therefore compiled once per [`Tier`] — baseline, x86-64-v3
//! (AVX2) and x86-64-v4 (AVX-512) — from one macro body, and
//! [`Engine::run`] takes the best tier the CPU supports, detected once
//! per process, for widths of at least `FEATURE_TIER_MIN_WIDTH`. Other
//! architectures carry only the baseline walk. The arithmetic is
//! integer, so every tier gives bit-identical results.

use std::collections::VecDeque;
use std::sync::OnceLock;

use mlc_cache::{AccessResult, CacheUnit, Fill, FillReason};
use mlc_mem::{BufferedWrite, MainMemory, MemOpKind, MemoryTiming, WriteBuffer};
use mlc_obs::Metrics;
use mlc_trace::{AccessKind, Address, TraceRecord};

use crate::clock::Clock;
use crate::config::{HierarchyConfig, LevelCacheConfig, SimConfigError};
use crate::ledger::Cause;
use crate::metrics::{LevelMetrics, SimResult};

/// Hooks the engine calls at fixed points of its walk, always with
/// lane-0 values (exact at `W = 1`). Every hook defaults to a no-op.
pub(crate) trait Observer {
    /// A trace record is about to be processed.
    fn begin(&mut self) {}
    /// The critical path reached hierarchy element `element` (a level
    /// index, or the level count for main memory).
    fn touch(&mut self, _element: usize) {}
    /// `ticks` of the current record's critical path went to `cause`.
    fn record(&mut self, _cause: Cause, _ticks: u64) {}
    /// Enters work that is off the requester's critical path.
    fn push_suppress(&mut self) {}
    /// Leaves the matching [`Observer::push_suppress`] region.
    fn pop_suppress(&mut self) {}
    /// A read fetch on behalf of level `level` took `ticks` from request
    /// to block arrival.
    fn read_miss_latency(&mut self, _level: usize, _ticks: u64) {}
    /// The current record is a level-0 read miss.
    fn l0_read_miss(&mut self) {}
    /// A write buffer holds `len` entries after an enqueue.
    fn buffer_occupancy(&mut self, _len: usize) {}
    /// The record issued at `start` finished: the clock moved from
    /// `old_now` to `now`, `exec` (0 or 1) of that being its base cycle.
    fn settle(&mut self, _rec: TraceRecord, _start: u64, _exec: u64, _old_now: u64, _now: u64) {}
    /// A new measurement window starts.
    fn reset(&mut self) {}
    /// Checks the observer's own invariants against `elapsed`, lane 0's
    /// ticks since the measurement window began.
    #[cfg(feature = "check-invariants")]
    fn check(&self, _elapsed: u64) -> Result<(), String> {
        Ok(())
    }
}

/// The no-op observer: every hook is empty and compiles away.
impl Observer for () {}

#[inline(always)]
pub(crate) fn splat<const W: usize>(x: u64) -> [u64; W] {
    [x; W]
}

#[inline(always)]
fn vmax<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    let mut out = a;
    for (o, b) in out.iter_mut().zip(b) {
        *o = (*o).max(b);
    }
    out
}

#[inline(always)]
fn vadd<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    let mut out = a;
    for (o, b) in out.iter_mut().zip(b) {
        *o += b;
    }
    out
}

/// Accumulates `max(0, a - b)` per lane into `acc`.
#[inline(always)]
fn vstall<const W: usize>(acc: &mut [u64; W], a: [u64; W], b: [u64; W]) {
    for ((acc, a), b) in acc.iter_mut().zip(a).zip(b) {
        *acc += a.saturating_sub(b);
    }
}

#[inline(always)]
fn side(kind: AccessKind) -> usize {
    usize::from(kind.is_data())
}

/// Per-lane bus timing: fixed width, per-lane cycle time.
#[derive(Debug, Clone, Copy)]
struct LaneBus<const W: usize> {
    width_bytes: u64,
    cycle: [u64; W],
}

impl<const W: usize> LaneBus<W> {
    #[inline(always)]
    fn beat_ticks(&self, beats: u64) -> [u64; W] {
        let mut out = self.cycle;
        for o in out.iter_mut() {
            *o *= beats;
        }
        out
    }

    #[inline(always)]
    fn data_ticks(&self, bytes: u64) -> [u64; W] {
        self.beat_ticks(bytes.div_ceil(self.width_bytes))
    }

    #[inline(always)]
    fn extra_beat_ticks(&self, bytes: u64) -> [u64; W] {
        self.beat_ticks(bytes.div_ceil(self.width_bytes).saturating_sub(1))
    }

    #[inline(always)]
    fn transfer_ticks(&self, bytes: u64) -> [u64; W] {
        vadd(self.cycle, self.data_ticks(bytes))
    }
}

/// When each port of a cache becomes free, per lane. Split caches have
/// independent instruction/data ports (the base machine's L1 services
/// an instruction fetch and a data access in the same cycle); unified
/// caches keep both entries equal.
#[derive(Debug, Clone, Copy)]
struct Ports<const W: usize> {
    split: bool,
    busy: [[u64; W]; 2],
}

impl<const W: usize> Ports<W> {
    fn new(split: bool) -> Self {
        Ports {
            split,
            busy: [splat(0); 2],
        }
    }

    /// When the port serving `kind` becomes free.
    #[inline(always)]
    fn busy_for(&self, kind: AccessKind) -> [u64; W] {
        if self.split {
            self.busy[side(kind)]
        } else {
            self.busy[0]
        }
    }

    /// Marks the port serving `kind` busy until `t` (both ports of a
    /// unified cache). Busy times only move forward.
    #[inline(always)]
    fn set_busy(&mut self, kind: AccessKind, t: [u64; W]) {
        if self.split {
            let s = side(kind);
            self.busy[s] = vmax(self.busy[s], t);
        } else {
            self.busy[0] = vmax(self.busy[0], t);
            self.busy[1] = self.busy[0];
        }
    }

    /// [`Self::set_busy`] for callers that already know `t` dominates the
    /// port's current busy time — every hit fast path computes
    /// `t = max(busy, ..) + latency` — so the max can be a plain store.
    #[inline(always)]
    fn store_busy(&mut self, kind: AccessKind, t: [u64; W]) {
        debug_assert!(
            self.busy_for(kind).iter().zip(&t).all(|(b, t)| t >= b),
            "store_busy requires t >= current busy"
        );
        if self.split {
            self.busy[side(kind)] = t;
        } else {
            self.busy[0] = t;
            self.busy[1] = t;
        }
    }

    /// The latest busy time across both ports.
    #[inline(always)]
    fn busy_any(&self) -> [u64; W] {
        vmax(self.busy[0], self.busy[1])
    }
}

/// One hierarchy level: shared cache and buffer contents, per-lane timing.
#[derive(Debug, Clone)]
struct Level<const W: usize> {
    name: String,
    cache: CacheUnit,
    read_cycles: [u64; W],
    write_cycles: [u64; W],
    /// Bus over which this level refills from (and writes back to) the
    /// next level down.
    refill_bus: LaneBus<W>,
    /// Shared buffer contents; each entry's `ready_at` is lane 0's.
    out_buffer: WriteBuffer,
    /// Per-entry per-lane ready times, parallel to `out_buffer`.
    ready: VecDeque<[u64; W]>,
    /// Port busy times. Unused at level 0, whose ports live in
    /// [`CpuState`] with the rest of the per-record chain.
    ports: Ports<W>,
    /// Bytes fetched into this level from downstream (demand, group,
    /// prefetch and sub-block fills alike).
    fetched_bytes: u64,
    /// Bytes this level pushed downstream through its write buffer.
    writeback_bytes: u64,
}

impl<const W: usize> Level<W> {
    /// The size of the blocks this level evicts dirty (dirty blocks only
    /// arise on the data side of a split level).
    fn dirty_block_bytes(&self) -> u64 {
        match &self.cache {
            CacheUnit::Unified(c) => c.geometry().block_bytes(),
            CacheUnit::Split(s) => s.dcache().geometry().block_bytes(),
        }
    }
}

/// The CPU-side per-record state: clocks, issue tracking and stall
/// accumulators. Kept in a separate `Copy` struct so the bulk-run loop
/// can hold a local copy — the per-record vector arithmetic then chains
/// through registers instead of bouncing every intermediate off the
/// engine struct in memory.
#[derive(Debug, Clone, Copy)]
struct CpuState<const W: usize> {
    now: [u64; W],
    cycle_issue: [u64; W],
    cycle_has_data: bool,
    instructions: u64,
    loads: u64,
    stores: u64,
    read_stall: [u64; W],
    write_stall: [u64; W],
    /// Level-0 ports. Only `cpu_access` reads or writes level-0 busy
    /// state during a record, so it lives here with the clocks — touched
    /// every record, it must stay in registers with the rest of the chain.
    l1: Ports<W>,
}

/// How often (in trace records) the checker walks *every* set of every
/// cache instead of just the sets the current record touched.
#[cfg(feature = "check-invariants")]
const DEEP_CHECK_PERIOD: u64 = 1024;

/// The timing engine at lane width `W`, reporting to observer `O`.
#[derive(Debug, Clone)]
pub(crate) struct Engine<const W: usize, O = ()> {
    lanes: usize,
    clocks: Vec<Clock>,
    levels: Vec<Level<W>>,
    /// One main memory per lane (index < `lanes`): busy state and
    /// refresh-gap waits are timing-dependent.
    memories: Vec<MainMemory>,
    cpu: CpuState<W>,
    measure_start: [u64; W],
    pub(crate) obs: O,
    /// Records checked and each lane's clock after the previous one
    /// (the `check-invariants` feature's bookkeeping).
    #[cfg(feature = "check-invariants")]
    checked: (u64, [u64; W]),
}

impl<const W: usize, O: Observer> Engine<W, O> {
    /// Builds an engine from one configuration per lane (`1..=W` of
    /// them); tail lanes are padded with lane 0's timing.
    ///
    /// # Errors
    ///
    /// Returns a [`SimConfigError`] if any configuration is invalid or
    /// the configurations differ in anything but timing.
    pub(crate) fn new(configs: &[HierarchyConfig], obs: O) -> Result<Self, SimConfigError> {
        debug_assert!(
            !configs.is_empty() && configs.len() <= W,
            "callers pass 1..={W} configs"
        );
        for config in configs {
            config.validate()?;
        }
        let first = &configs[0];
        for (l, config) in configs.iter().enumerate().skip(1) {
            if config.levels.len() != first.levels.len() {
                return Err(SimConfigError::new(format!(
                    "lane {l} has {} levels, lane 0 has {}",
                    config.levels.len(),
                    first.levels.len()
                )));
            }
            for (i, (a, b)) in config.levels.iter().zip(first.levels.iter()).enumerate() {
                let differs = if a.cache != b.cache {
                    "cache organisation"
                } else if a.write_buffer_entries != b.write_buffer_entries {
                    "write_buffer_entries"
                } else if a.refill_bus_bytes != b.refill_bus_bytes {
                    "refill_bus_bytes"
                } else {
                    continue;
                };
                return Err(SimConfigError::new(format!(
                    "lane {l} level {i}: {differs} differs from lane 0 \
                     (a timing sweep varies only timing)"
                )));
            }
        }

        let lanes = configs.len();
        let clocks: Vec<Clock> = configs.iter().map(|c| Clock::new(c.cpu.cycle_ns)).collect();
        // A per-lane timing parameter, padded with lane 0's value.
        let per_lane = |f: &dyn Fn(usize) -> u64| -> [u64; W] {
            let mut out = splat(f(0));
            for (l, o) in out.iter_mut().enumerate().take(lanes) {
                *o = f(l);
            }
            out
        };

        let mut levels = Vec::with_capacity(first.levels.len());
        for (i, lc) in first.levels.iter().enumerate() {
            let cache = match lc.cache {
                LevelCacheConfig::Unified(c) => CacheUnit::unified(c),
                LevelCacheConfig::Split { icache, dcache } => CacheUnit::split(icache, dcache),
            };
            let split = matches!(cache, CacheUnit::Split(_));
            levels.push(Level {
                name: lc.name.clone(),
                cache,
                read_cycles: per_lane(&|l| configs[l].levels[i].read_cycles),
                write_cycles: per_lane(&|l| configs[l].levels[i].write_cycles),
                refill_bus: LaneBus {
                    width_bytes: lc.refill_bus_bytes,
                    cycle: per_lane(&|l| configs[l].refill_bus_cycles(i)),
                },
                out_buffer: WriteBuffer::new(lc.write_buffer_entries),
                ready: VecDeque::new(),
                ports: Ports::new(split),
                fetched_bytes: 0,
                writeback_bytes: 0,
            });
        }
        let memories: Vec<MainMemory> = configs
            .iter()
            .zip(&clocks)
            .map(|(c, clock)| {
                MainMemory::new(MemoryTiming::new(
                    clock.ns_to_cycles(c.memory.read_ns).max(1),
                    clock.ns_to_cycles(c.memory.write_ns).max(1),
                    clock.ns_to_cycles(c.memory.gap_ns),
                ))
            })
            .collect();
        let l1 = Ports::new(levels[0].ports.split);
        Ok(Engine {
            lanes,
            clocks,
            levels,
            memories,
            cpu: CpuState {
                now: splat(0),
                cycle_issue: splat(0),
                cycle_has_data: true, // force a new cycle for a leading data ref
                instructions: 0,
                loads: 0,
                stores: 0,
                read_stall: splat(0),
                write_stall: splat(0),
                l1,
            },
            measure_start: splat(0),
            obs,
            #[cfg(feature = "check-invariants")]
            checked: (0, splat(0)),
        })
    }

    /// Number of configured lanes (`<= W`).
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane width `W`.
    pub(crate) fn width(&self) -> usize {
        W
    }

    /// Lane 0's CPU clock.
    pub(crate) fn clock(&self) -> Clock {
        self.clocks[0]
    }

    /// Lane 0's simulated time in CPU cycles.
    pub(crate) fn now(&self) -> u64 {
        self.cpu.now[0]
    }

    /// The level display names, upstream first.
    pub(crate) fn level_names(&self) -> Vec<String> {
        self.levels.iter().map(|l| l.name.clone()).collect()
    }

    /// Processes a single trace record.
    pub(crate) fn step(&mut self, rec: TraceRecord) {
        self.run([rec]);
    }

    /// Runs every record of `records` on the ISA tier chosen for width
    /// `W` (see [`Tier::for_width`]).
    pub(crate) fn run<I>(&mut self, records: I)
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        self.run_on(Tier::for_width(W), records);
    }

    /// [`Self::run`] on an explicit ISA tier. Every tier computes the
    /// same integer arithmetic, so results are bit-identical across
    /// tiers; only the speed differs.
    ///
    /// # Panics
    ///
    /// Panics if this CPU lacks a feature `tier` is compiled with.
    pub(crate) fn run_on<I>(&mut self, tier: Tier, records: I)
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        assert!(
            tier.supported(),
            "this CPU lacks the {} instruction set",
            tier.name()
        );
        let walk: unsafe fn(&mut Self, I::IntoIter) = match tier {
            Tier::Baseline => baseline::run,
            #[cfg(target_arch = "x86_64")]
            Tier::V3 => v3::run,
            #[cfg(target_arch = "x86_64")]
            Tier::V4 => v4::run,
        };
        // SAFETY: `walk` is `tier`'s instance of the walk, compiled with
        // exactly the target features `tier.supported()` detects, and the
        // assert above checked that this CPU has every one of them.
        unsafe { walk(self, records.into_iter()) }
    }

    /// The one warm-up driver: runs the first `warmup` records, starts a
    /// fresh measurement window, then runs the rest. Each phase is timed
    /// in `metrics` under the matching name of `phases`.
    pub(crate) fn warm_then_measure<I>(
        &mut self,
        records: I,
        warmup: usize,
        metrics: &Metrics,
        phases: [&str; 2],
    ) where
        I: IntoIterator<Item = TraceRecord>,
    {
        let mut iter = records.into_iter();
        let timer = metrics.time_phase(phases[0]);
        self.run(iter.by_ref().take(warmup));
        timer.stop();
        self.reset_measurement();
        let timer = metrics.time_phase(phases[1]);
        self.run(iter);
        timer.stop();
    }

    /// Resets all statistics and starts a fresh measurement window at the
    /// current simulated time in every lane. Cache contents, buffer
    /// contents and all timing state are preserved — this is how warm-up
    /// references are discarded, mirroring the paper's removal of the
    /// cold-start region.
    pub(crate) fn reset_measurement(&mut self) {
        self.measure_start = self.cpu.now;
        self.cpu.instructions = 0;
        self.cpu.loads = 0;
        self.cpu.stores = 0;
        self.cpu.read_stall = splat(0);
        self.cpu.write_stall = splat(0);
        for level in &mut self.levels {
            level.cache.reset_stats();
            level.out_buffer.reset_stats();
            level.fetched_bytes = 0;
            level.writeback_bytes = 0;
        }
        for memory in &mut self.memories {
            memory.reset_stats();
        }
        self.obs.reset();
    }

    /// Lane `l`'s snapshot of the current measurement window.
    pub(crate) fn result(&self, l: usize) -> SimResult {
        SimResult {
            total_cycles: self.cpu.now[l] - self.measure_start[l],
            instructions: self.cpu.instructions,
            cpu_reads: self.cpu.instructions + self.cpu.loads,
            loads: self.cpu.loads,
            stores: self.cpu.stores,
            read_stall_cycles: self.cpu.read_stall[l],
            write_stall_cycles: self.cpu.write_stall[l],
            cpu_cycle_ns: self.clocks[l].cycle_ns(),
            levels: self
                .levels
                .iter()
                .map(|lvl| LevelMetrics {
                    name: lvl.name.clone(),
                    cache: lvl.cache.stats(),
                    write_buffer: lvl.out_buffer.stats(),
                    fetched_bytes: lvl.fetched_bytes,
                    writeback_bytes: lvl.writeback_bytes,
                })
                .collect(),
            memory: self.memories[l].stats(),
        }
    }

    /// One [`SimResult`] per lane in construction order.
    pub(crate) fn results(&self) -> Vec<SimResult> {
        (0..self.lanes).map(|l| self.result(l)).collect()
    }

    /// Drains every write buffer to completion (in upstream-to-downstream
    /// order). Does not advance the execution clock.
    pub(crate) fn drain_all_buffers(&mut self) {
        for j in 0..self.levels.len() {
            while !self.levels[j].out_buffer.is_empty() {
                let t = self.busy_any(j);
                baseline::drain_one(self, j, t);
            }
        }
    }

    /// Flushes all dirty cache blocks downstream (upstream levels first)
    /// and drains every buffer.
    pub(crate) fn flush_all(&mut self) {
        for j in 0..self.levels.len() {
            let dirty = self.levels[j].cache.flush_dirty();
            let bytes = self.levels[j].dirty_block_bytes();
            for addr in dirty {
                let t = self.busy_any(j);
                baseline::push_writeback(self, j, addr, bytes, t);
            }
            // Cascade before flushing the next level so its buffer sees
            // everything from upstream.
            self.drain_all_buffers();
        }
    }

    /// The latest busy time across level `j`'s ports (level 0's live in
    /// the CPU state).
    fn busy_any(&self, j: usize) -> [u64; W] {
        if j == 0 {
            self.cpu.l1.busy_any()
        } else {
            self.levels[j].ports.busy_any()
        }
    }

    /// Per-record invariant checks (`check-invariants` feature): per-lane
    /// clock monotonicity, demand-fill inclusion at level 0, the
    /// observer's own invariants (ledger conservation when one is
    /// attached), and the structural invariants of every touched cache
    /// set, with a periodic full-cache sweep. Panics with the violating
    /// trace-record index and a hierarchy state summary.
    #[cfg(feature = "check-invariants")]
    fn check_invariants(&mut self, st: &CpuState<W>, rec: TraceRecord) {
        let (index, last_now) = self.checked;
        self.checked = (index + 1, st.now);
        if let Err(msg) = self.violation(st, rec, index, last_now) {
            let mut state = String::new();
            for level in &self.levels {
                state.push_str(&format!(
                    "\n  {}: {}, write buffer {} queued",
                    level.name,
                    level.cache.state_summary(),
                    level.out_buffer.len(),
                ));
            }
            panic!(
                "hierarchy invariant violated at trace record {index} \
                 ({:?} {:#x}): {msg}\nhierarchy state (now = {:?}):{state}",
                rec.kind,
                rec.addr.get(),
                &st.now[..self.lanes],
            );
        }
    }

    /// The first invariant record `index` violates, if any.
    #[cfg(feature = "check-invariants")]
    fn violation(
        &self,
        st: &CpuState<W>,
        rec: TraceRecord,
        index: u64,
        last_now: [u64; W],
    ) -> Result<(), String> {
        if let Some(l) = (0..self.lanes).find(|&l| st.now[l] < last_now[l]) {
            return Err(format!(
                "lane {l}: simulated clock moved backwards: {} -> {}",
                last_now[l], st.now[l]
            ));
        }
        // Every read or instruction fetch leaves its demand block resident
        // at level 0 (hit, victim swap-in, or demand fill alike). Writes
        // are exempt: a no-write-allocate miss is forwarded downstream
        // without filling.
        if !rec.kind.is_write() && !self.levels[0].cache.contains_for(rec.addr, rec.kind) {
            return Err("demand block not resident at level 0 after the access".into());
        }
        self.obs.check(st.now[0] - self.measure_start[0])?;
        let deep = index % DEEP_CHECK_PERIOD == DEEP_CHECK_PERIOD - 1;
        for level in &self.levels {
            if deep {
                level.cache.verify_invariants()
            } else {
                level.cache.verify_invariants_at(rec.addr, rec.kind)
            }
            .map_err(|msg| format!("{}: {msg}", level.name))?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// ISA tiers
// ----------------------------------------------------------------------

/// The narrowest lane width that runs on a feature tier when the CPU has
/// one. Chosen from the per-width table in DESIGN.md §15.4: every sweep
/// width (W2 up) gained on the feature tiers, while the scalar `W = 1`
/// walk, whose arithmetic is one lane, did not; it keeps the baseline.
const FEATURE_TIER_MIN_WIDTH: usize = 2;

/// An instruction-set tier the timing walk is compiled for. The build
/// stays portable — baseline code runs anywhere — and each process runs
/// the walk on the best tier its CPU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The target's baseline ISA (SSE2 on x86-64).
    Baseline,
    /// The x86-64-v3 set: AVX2, BMI1/2, FMA, LZCNT, MOVBE.
    #[cfg(target_arch = "x86_64")]
    V3,
    /// The x86-64-v4 set: v3 plus AVX-512 F/BW/CD/DQ/VL.
    #[cfg(target_arch = "x86_64")]
    V4,
}

impl Tier {
    /// Every tier this build carries, lowest first.
    #[cfg(target_arch = "x86_64")]
    pub(crate) const ALL: [Tier; 3] = [Tier::Baseline, Tier::V3, Tier::V4];
    /// Every tier this build carries.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) const ALL: [Tier; 1] = [Tier::Baseline];

    /// The tier's name in manifests and bench provenance.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Tier::V3 => "x86-64-v3",
            #[cfg(target_arch = "x86_64")]
            Tier::V4 => "x86-64-v4",
        }
    }

    /// Whether this CPU has every feature the tier's walk is compiled
    /// with.
    pub(crate) fn supported(self) -> bool {
        match self {
            Tier::Baseline => baseline::supported(),
            #[cfg(target_arch = "x86_64")]
            Tier::V3 => v3::supported(),
            #[cfg(target_arch = "x86_64")]
            Tier::V4 => v4::supported(),
        }
    }

    /// The best tier this CPU supports, detected once per process.
    fn best() -> Tier {
        static BEST: OnceLock<Tier> = OnceLock::new();
        *BEST.get_or_init(|| {
            Tier::ALL
                .into_iter()
                .rfind(|tier| tier.supported())
                .unwrap_or(Tier::Baseline)
        })
    }

    /// The tier the walk takes at lane width `width`.
    pub(crate) fn for_width(width: usize) -> Tier {
        if width >= FEATURE_TIER_MIN_WIDTH {
            Tier::best()
        } else {
            Tier::Baseline
        }
    }
}

/// The timing walk — [`Engine::run`]'s record loop and every function it
/// reaches that carries lane vectors — as free functions compiled with
/// the target features `$feature`. Each [`Tier`] instantiates it once,
/// so the source exists once.
///
/// Every function carries the attribute, not just the entry point: the
/// walk is mutually recursive (`service_fills` → `fetch_block` →
/// `service_fills`, `drain_one` → `write_downstream` → `push_writeback`
/// → `drain_one`), so LLVM keeps parts of it out of line, and an
/// out-of-line function is compiled for the baseline ISA unless it
/// carries the attribute itself.
macro_rules! walk {
    ($($feature:tt),*) => {
        /// Whether this CPU has every feature this instance is compiled
        /// with.
        pub(super) fn supported() -> bool {
            let detected: &[bool] = &[$(is_x86_feature_detected!($feature)),*];
            detected.iter().all(|&d| d)
        }

        /// Runs every record of `records`, holding the CPU state in a
        /// local so the per-record vector arithmetic chains through
        /// registers.
        $(#[target_feature(enable = $feature)])*
        pub(super) fn run<const W: usize, O: Observer, I: Iterator<Item = TraceRecord>>(
            e: &mut Engine<W, O>,
            records: I,
        ) {
            let mut st = e.cpu;
            for rec in records {
                step_on(e, &mut st, rec);
            }
            e.cpu = st;
        }

        /// Processes a single trace record against an explicit CPU state.
        /// `st` is `e.cpu`, passed as a separate local by the bulk loop so
        /// it stays register-resident across records.
        $(#[target_feature(enable = $feature)])*
        #[inline]
        fn step_on<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            st: &mut CpuState<W>,
            rec: TraceRecord,
        ) {
            e.obs.begin();
            let old_now = st.now[0];
            // `exec` is the record's base execute cycle (1 when it opened
            // a cycle, 0 when it shares one); everything else the clock
            // advances is stall.
            let (t, exec) = match rec.kind {
                AccessKind::InstructionFetch => {
                    let t = st.now;
                    let done = cpu_access(e, rec, t, st);
                    st.instructions += 1;
                    let end = vmax(done, vadd(t, splat(1)));
                    vstall(&mut st.read_stall, end, vadd(t, splat(1)));
                    st.now = end;
                    st.cycle_issue = t;
                    st.cycle_has_data = false;
                    (t, 1)
                }
                AccessKind::Read | AccessKind::Write => {
                    // A data reference executes in the cycle opened by the
                    // preceding instruction fetch; a second data record (or
                    // a data-only trace) opens a fresh cycle.
                    let exec = u64::from(st.cycle_has_data);
                    if st.cycle_has_data {
                        st.cycle_issue = st.now;
                        st.now = vadd(st.now, splat(1));
                    }
                    let t = st.cycle_issue;
                    st.cycle_has_data = true;
                    let done = cpu_access(e, rec, t, st);
                    if rec.kind == AccessKind::Write {
                        st.stores += 1;
                        vstall(&mut st.write_stall, done, vadd(t, splat(1)));
                    } else {
                        st.loads += 1;
                        // Only the extension beyond the cycle's current end
                        // is new stall. The issue bound `max(now, t + 1)` is
                        // always `now` here: on the new-cycle path `now` was
                        // just set to `t + 1`, and on the shared-cycle path
                        // (entered only after an instruction fetch)
                        // `now = max(done, t' + 1) >= cycle_issue + 1 = t + 1`.
                        debug_assert_eq!(vmax(st.now, vadd(t, splat(1))), st.now);
                        vstall(&mut st.read_stall, done, st.now);
                    }
                    st.now = vmax(st.now, done);
                    (t, exec)
                }
            };
            e.obs.settle(rec, t[0], exec, old_now, st.now[0]);
            #[cfg(feature = "check-invariants")]
            e.check_invariants(st, rec);
        }

        // --------------------------------------------------------------
        // CPU-side access (level 0)
        // --------------------------------------------------------------

        $(#[target_feature(enable = $feature)])*
        fn cpu_access<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            rec: TraceRecord,
            t: [u64; W],
            st: &mut CpuState<W>,
        ) -> [u64; W] {
            let kind = rec.kind;
            // Hit fast path: identical outcome to the full access below,
            // but skips building an `AccessResult` for the common case.
            if let Some(write_through) = e.levels[0].cache.access_hit(rec.addr, kind) {
                let start = vmax(t, st.l1.busy_for(kind));
                let dur = if kind.is_write() {
                    e.levels[0].write_cycles
                } else {
                    e.levels[0].read_cycles
                };
                let mut done = vadd(start, dur);
                e.obs.touch(0);
                e.obs.record(Cause::Level(0), done[0] - t[0]);
                st.l1.store_busy(kind, done);
                if write_through {
                    done = push_writeback(e, 0, rec.addr, 4, done);
                }
                return done;
            }

            let result = e.levels[0].cache.access(rec.addr, kind);
            let start = vmax(t, st.l1.busy_for(kind));
            debug_assert!(!result.hit, "access_hit covers every plain hit");
            e.obs.touch(0);
            if !kind.is_write() {
                e.obs.l0_read_miss();
            }

            // The miss is detected after the level's own access time — the
            // n_L1 term of the paper's Equation 1 is paid on hits and
            // misses alike.
            let detected = vadd(start, e.levels[0].read_cycles);

            // Victim-buffer hit: a swap costing one extra access time,
            // with no downstream fetch.
            if result.victim_hit {
                let mut done = vadd(detected, e.levels[0].read_cycles);
                if kind.is_write() && !result.write_through {
                    done = vadd(done, e.levels[0].write_cycles);
                }
                e.obs.record(Cause::Level(0), done[0] - t[0]);
                st.l1.set_busy(kind, done);
                done = push_extra_writebacks(e, 0, &result, done);
                if result.write_through {
                    done = push_writeback(e, 0, rec.addr, 4, done);
                }
                return done;
            }

            e.obs.record(Cause::Level(0), detected[0] - t[0]);

            // Miss with no allocation: forward the store downstream.
            // Reads always allocate and therefore fill.
            if result.fills.is_empty() {
                debug_assert!(result.write_through, "read misses always fill");
                st.l1.set_busy(kind, detected);
                return push_writeback(e, 0, rec.addr, 4, detected);
            }

            let need = e.levels[0].cache.block_bytes_for(kind);
            let (completion, chain) = service_fills(e, 0, &result.fills, kind, need, detected);
            let mut completion = push_extra_writebacks(e, 0, &result, completion);
            st.l1.set_busy(kind, chain);

            if kind.is_write() {
                if result.write_through {
                    completion = push_writeback(e, 0, rec.addr, 4, completion);
                } else {
                    // Complete the allocating store into the freshly
                    // filled block (the paper's 2-cycle write).
                    completion = vadd(completion, e.levels[0].write_cycles);
                    e.obs.record(Cause::Level(0), e.levels[0].write_cycles[0]);
                    st.l1.set_busy(kind, completion);
                }
            }
            completion
        }

        /// Fetches every fill of a miss at level `idx` from downstream,
        /// demand block first. Returns `(demand completion, chain end)`:
        /// the requester resumes at the former; the level stays busy with
        /// non-critical fills until the latter.
        $(#[target_feature(enable = $feature)])*
        fn service_fills<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            idx: usize,
            fills: &[Fill],
            kind: AccessKind,
            block_bytes: u64,
            start: [u64; W],
        ) -> ([u64; W], [u64; W]) {
            let mut completion = start;
            let mut chain = start;
            let ordered = fills
                .iter()
                .filter(|f| f.reason == FillReason::Demand)
                .chain(fills.iter().filter(|f| f.reason != FillReason::Demand));
            for fill in ordered {
                let demand = fill.reason == FillReason::Demand;
                // Non-demand fills (prefetched sectors, swap traffic) are
                // off the requester's critical path.
                if !demand {
                    e.obs.push_suppress();
                }
                e.levels[idx].fetched_bytes += fill.bytes;
                let done = fetch_block(e, idx + 1, fill.block, kind, fill.bytes, chain);
                if !kind.is_write() {
                    // The full request-to-return latency is level `idx`'s
                    // read-miss latency.
                    e.obs.read_miss_latency(idx, done[0] - chain[0]);
                }
                chain = done;
                if let Some(wb) = fill.writeback {
                    chain = push_writeback(e, idx, wb, block_bytes, done);
                }
                if demand {
                    completion = chain;
                } else {
                    e.obs.pop_suppress();
                }
            }
            (completion, chain)
        }

        // --------------------------------------------------------------
        // Downstream read path
        // --------------------------------------------------------------

        /// Reads the block of `need_bytes` containing `addr` from level
        /// `idx` (or main memory when `idx` equals the depth), on behalf
        /// of level `idx - 1`. Returns when the block is available to the
        /// requester.
        $(#[target_feature(enable = $feature)])*
        fn fetch_block<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            idx: usize,
            addr: Address,
            kind: AccessKind,
            need_bytes: u64,
            t: [u64; W],
        ) -> [u64; W] {
            if idx == e.levels.len() {
                return memory_read(e, addr, need_bytes, t);
            }
            // Give queued writes from upstream their idle window first,
            // and resolve any read-after-write hazard: if the requested
            // block is still sitting in the upstream write buffer, it must
            // be written down before the read may observe this level.
            drain_ready_before(e, idx - 1, t);
            let t = resolve_raw_hazard(e, idx - 1, addr, need_bytes, t);
            let extra_beats = e.levels[idx - 1].refill_bus.extra_beat_ticks(need_bytes);

            // Hit fast path; a downstream read hit never forwards store
            // data, so the write-through flag is irrelevant here.
            if e.levels[idx].cache.access_hit(addr, kind).is_some() {
                let start = vmax(t, e.levels[idx].ports.busy_for(kind));
                let done = vadd(start, e.levels[idx].read_cycles);
                e.levels[idx].ports.store_busy(kind, done);
                let ret = vadd(done, extra_beats);
                e.obs.touch(idx);
                e.obs.record(Cause::Level(idx), ret[0] - t[0]);
                return ret;
            }

            let result = e.levels[idx].cache.access(addr, kind);
            let start = vmax(t, e.levels[idx].ports.busy_for(kind));
            debug_assert!(!result.hit, "access_hit covers every plain hit");
            e.obs.touch(idx);

            // Tag check at this level (n_L2 in Equation 1) precedes the
            // downstream fetch.
            let detected = vadd(start, e.levels[idx].read_cycles);

            if result.victim_hit {
                // Swap from the victim buffer: one extra access time, no
                // downstream fetch.
                let done = vadd(detected, e.levels[idx].read_cycles);
                e.obs
                    .record(Cause::Level(idx), done[0] + extra_beats[0] - t[0]);
                e.levels[idx].ports.set_busy(kind, done);
                let done = push_extra_writebacks(e, idx, &result, done);
                return vadd(done, extra_beats);
            }

            e.obs.record(Cause::Level(idx), detected[0] - t[0]);
            let my_block = e.levels[idx].cache.block_bytes_for(kind);
            let (completion, chain) = service_fills(e, idx, &result.fills, kind, my_block, detected);
            let completion = push_extra_writebacks(e, idx, &result, completion);
            e.levels[idx].ports.set_busy(kind, chain);
            e.obs.record(Cause::Level(idx), extra_beats[0]);
            vadd(completion, extra_beats)
        }

        /// A main-memory block read issued at `t` over the deepest level's
        /// refill bus (the backplane): one address cycle, the memory
        /// operation (including any refresh-gap wait), then the data
        /// beats.
        $(#[target_feature(enable = $feature)])*
        fn memory_read<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            addr: Address,
            need_bytes: u64,
            t: [u64; W],
        ) -> [u64; W] {
            let deepest = e.levels.len() - 1;
            drain_ready_before(e, deepest, t);
            let t = resolve_raw_hazard(e, deepest, addr, need_bytes, t);
            let bus = e.levels[deepest].refill_bus;
            let arrival = vadd(t, bus.cycle);
            let data = bus.data_ticks(need_bytes);
            let mut out = splat(0);
            let op = e.memories[0].schedule(arrival[0], MemOpKind::Read);
            out[0] = op.end + data[0];
            for l in 1..e.lanes {
                out[l] = e.memories[l].schedule(arrival[l], MemOpKind::Read).end + data[l];
            }
            // Address cycles, then the wait for the memory to free up
            // (busy serialisation + refresh gap), then the operation and
            // data beats — reported in temporal order.
            e.obs.touch(e.levels.len());
            e.obs.record(Cause::Memory, arrival[0] - t[0]);
            e.obs.record(Cause::Refresh, op.start - arrival[0]);
            e.obs.record(Cause::Memory, out[0] - op.start);
            out
        }

        /// Drains level `j`'s buffer until no queued entry overlaps the
        /// block about to be read from downstream (a read-after-write
        /// hazard: the freshest copy of the data is in the buffer, so it
        /// must reach the downstream level first). Returns when the hazard
        /// has cleared.
        $(#[target_feature(enable = $feature)])*
        fn resolve_raw_hazard<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            j: usize,
            addr: Address,
            bytes: u64,
            t: [u64; W],
        ) -> [u64; W] {
            let mut cleared = t;
            // The whole hazard drain is one writeback lump on the
            // requester's critical path; the drains' internals must not
            // report on top.
            e.obs.push_suppress();
            while e.levels[j].out_buffer.overlaps(addr, bytes) {
                let earliest = e.levels[j].ready.front().copied().unwrap_or(cleared);
                cleared = vmax(cleared, drain_one(e, j, vmax(cleared, earliest)));
            }
            e.obs.pop_suppress();
            e.obs.record(Cause::Writeback, cleared[0] - t[0]);
            cleared
        }

        // --------------------------------------------------------------
        // Write path (buffers and drains)
        // --------------------------------------------------------------

        /// Enqueues a write from level `j` toward level `j + 1`. If the
        /// buffer is full, the oldest entry is drained synchronously first
        /// (the paper's buffer-full stall). Returns the tick at which the
        /// entry was accepted (never before `t`) — the producer cannot
        /// proceed earlier.
        $(#[target_feature(enable = $feature)])*
        pub(super) fn push_writeback<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            j: usize,
            addr: Address,
            bytes: u64,
            t: [u64; W],
        ) -> [u64; W] {
            let entry = BufferedWrite {
                addr,
                bytes,
                ready_at: t[0],
            };
            e.levels[j].writeback_bytes += bytes;
            if e.levels[j].out_buffer.try_push(entry) {
                e.levels[j].ready.push_back(t);
                e.obs.buffer_occupancy(e.levels[j].out_buffer.len());
                return t;
            }
            // Full: the producer waits for the oldest entry to retire. The
            // wait is one buffer-full lump; the drain's internals are not
            // separately on the producer's critical path.
            e.obs.push_suppress();
            let accepted = vmax(t, drain_one(e, j, t));
            e.obs.pop_suppress();
            e.obs.record(Cause::BufferFull, accepted[0] - t[0]);
            let pushed = e.levels[j].out_buffer.try_push(BufferedWrite {
                addr,
                bytes,
                ready_at: accepted[0],
            });
            // Invariant: drain_one just popped an entry, so the bounded
            // buffer has at least one free slot for this push.
            debug_assert!(pushed, "buffer must have space after forced drain");
            e.levels[j].ready.push_back(accepted);
            e.obs.buffer_occupancy(e.levels[j].out_buffer.len());
            accepted
        }

        /// Retires queued writes from level `j`'s buffer that could have
        /// started strictly before `t` (i.e. in the downstream's idle
        /// window); demand traffic arriving at `t` has priority over
        /// writes that have not yet started. The *decision* is lane 0's
        /// (see the module docs). Lazy drains are entirely off the
        /// critical path.
        $(#[target_feature(enable = $feature)])*
        fn drain_ready_before<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            j: usize,
            t: [u64; W],
        ) {
            e.obs.push_suppress();
            while let Some(ready) = e.levels[j].ready.front().copied() {
                let downstream_free = if j + 1 == e.levels.len() {
                    let mut free = splat(0);
                    for (l, memory) in e.memories.iter().enumerate() {
                        free[l] = memory.busy_until();
                    }
                    free
                } else {
                    e.levels[j + 1].ports.busy_any()
                };
                let would_start = vmax(ready, downstream_free);
                if would_start[0] >= t[0] {
                    break;
                }
                drain_one(e, j, would_start);
            }
            e.obs.pop_suppress();
        }

        /// Pops and retires the oldest entry of level `j`'s buffer,
        /// returning its completion time (or `earliest` if the buffer was
        /// empty).
        $(#[target_feature(enable = $feature)])*
        pub(super) fn drain_one<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            j: usize,
            earliest: [u64; W],
        ) -> [u64; W] {
            let Some(entry) = e.levels[j].out_buffer.pop() else {
                return earliest;
            };
            let ready = e.levels[j]
                .ready
                // Invariant: every out_buffer push is paired with a ready
                // push, so a successful pop guarantees a ready entry.
                .pop_front()
                .expect("ready times parallel the buffer");
            let start = vmax(earliest, ready);
            write_downstream(e, j, entry.addr, entry.bytes, start)
        }

        /// Performs the downstream write of one buffered entry from level
        /// `j` into level `j + 1` (or main memory), returning its
        /// completion.
        $(#[target_feature(enable = $feature)])*
        fn write_downstream<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            j: usize,
            addr: Address,
            bytes: u64,
            start: [u64; W],
        ) -> [u64; W] {
            let bus = e.levels[j].refill_bus;
            let target = j + 1;
            if target == e.levels.len() {
                let arrival = vadd(start, bus.transfer_ticks(bytes));
                let mut out = splat(0);
                for l in 0..e.lanes {
                    out[l] = e.memories[l].schedule(arrival[l], MemOpKind::Write).end;
                }
                return out;
            }

            // The first data beat overlaps the write's first cycle; extra
            // beats serialise before it, mirroring the read path.
            let arrival = vadd(start, bus.extra_beat_ticks(bytes));

            // Hit fast path: a write hit has no fills and no victim-buffer
            // ejections, so only the write-through forwarding remains.
            if let Some(write_through) = e.levels[target]
                .cache
                .access_hit(addr, AccessKind::Write)
            {
                let wstart = vmax(arrival, e.levels[target].ports.busy_for(AccessKind::Write));
                let mut done = vadd(wstart, e.levels[target].write_cycles);
                if write_through {
                    done = push_writeback(e, target, addr, bytes, done);
                }
                e.levels[target].ports.store_busy(AccessKind::Write, done);
                return done;
            }

            let result = e.levels[target].cache.access(addr, AccessKind::Write);
            let wstart = vmax(arrival, e.levels[target].ports.busy_for(AccessKind::Write));
            debug_assert!(!result.hit, "access_hit covers every plain hit");

            let mut done = if result.victim_hit {
                vadd(
                    vadd(wstart, e.levels[target].read_cycles),
                    e.levels[target].write_cycles,
                )
            } else if result.fills.is_empty() {
                // No-write-allocate target: tag check, then forward
                // further down through the target's own buffer.
                let checked = vadd(wstart, e.levels[target].read_cycles);
                push_writeback(e, target, addr, bytes, checked)
            } else {
                let my_block = e.levels[target].cache.block_bytes_for(AccessKind::Write);
                let detected = vadd(wstart, e.levels[target].read_cycles);
                let (_, chain) =
                    service_fills(e, target, &result.fills, AccessKind::Write, my_block, detected);
                vadd(chain, e.levels[target].write_cycles)
            };

            if result.write_through {
                done = push_writeback(e, target, addr, bytes, done);
            }
            done = push_extra_writebacks(e, target, &result, done);
            e.levels[target].ports.set_busy(AccessKind::Write, done);
            done
        }

        /// Enqueues any victim-buffer ejections an access produced,
        /// returning the time the last one was accepted (never before
        /// `t`).
        $(#[target_feature(enable = $feature)])*
        fn push_extra_writebacks<const W: usize, O: Observer>(
            e: &mut Engine<W, O>,
            j: usize,
            result: &AccessResult,
            t: [u64; W],
        ) -> [u64; W] {
            let mut accepted = t;
            if result.extra_writebacks.is_empty() {
                return accepted;
            }
            let bytes = e.levels[j].dirty_block_bytes();
            // Several ejections push at the same tick; any stall the batch
            // causes is one buffer-full lump on the critical path.
            e.obs.push_suppress();
            for &addr in &result.extra_writebacks {
                accepted = vmax(accepted, push_writeback(e, j, addr, bytes, t));
            }
            e.obs.pop_suppress();
            e.obs.record(Cause::BufferFull, accepted[0] - t[0]);
            accepted
        }
    };
}

/// The walk for the target's baseline ISA: no attribute.
mod baseline {
    use super::*;
    walk!();
}

/// The walk for the x86-64-v3 set.
#[cfg(target_arch = "x86_64")]
mod v3 {
    use super::*;
    walk!("avx2", "bmi1", "bmi2", "fma", "lzcnt", "movbe", "popcnt");
}

/// The walk for the x86-64-v4 set (v3 plus AVX-512).
#[cfg(target_arch = "x86_64")]
mod v4 {
    use super::*;
    walk!(
        "avx2", "bmi1", "bmi2", "fma", "lzcnt", "movbe", "popcnt", "avx512f", "avx512bw",
        "avx512cd", "avx512dq", "avx512vl"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_cases::{pick, rand_machine, rand_trace, retimed};
    use crate::LANE_WIDTHS;
    use mlc_trace::synth::Xoshiro;

    /// Runs `trace` (first quarter warm-up) through a width-`W` engine on
    /// every tier in `tiers`, asserting every lane's result is
    /// bit-identical to the baseline tier's.
    fn assert_tiers_agree<const W: usize>(
        tiers: &[Tier],
        configs: &[HierarchyConfig],
        trace: &[TraceRecord],
        ctx: &str,
    ) {
        let run = |tier: Tier| {
            let mut engine = Engine::<W>::new(&configs[..W], ()).unwrap();
            let (warmup, measured) = trace.split_at(trace.len() / 4);
            engine.run_on(tier, warmup.iter().copied());
            engine.reset_measurement();
            engine.run_on(tier, measured.iter().copied());
            engine.results()
        };
        let baseline = run(Tier::Baseline);
        for &tier in tiers {
            assert_eq!(run(tier), baseline, "W{W} on {}, {ctx}", tier.name());
        }
    }

    /// Every feature tier this CPU supports, at every lane width (the
    /// scalar `W = 1` included), gives bit-identical results to the
    /// baseline walk on the oracle's random shapes and traces.
    #[test]
    fn every_supported_tier_matches_baseline() {
        assert_eq!(
            LANE_WIDTHS,
            [2, 4, 6, 8, 12, 16, 24],
            "widths checked below"
        );
        let tiers: Vec<Tier> = Tier::ALL
            .into_iter()
            .filter(|&tier| tier != Tier::Baseline && tier.supported())
            .collect();
        for case in 0..12u64 {
            let seed = 0x7153_A5E1_u64.wrapping_mul(case + 1);
            let mut rng = Xoshiro::seed_from_u64(seed);
            let config = rand_machine(&mut rng);
            let len = pick(&mut rng, 1_000, 3_000) as usize;
            let trace = rand_trace(&mut rng, len);
            let mut configs = vec![config.clone()];
            configs.extend((1..24).map(|_| retimed(&mut rng, &config)));
            let ctx = format!("case {case} (seed {seed:#x})");
            assert_tiers_agree::<1>(&tiers, &configs, &trace, &ctx);
            assert_tiers_agree::<2>(&tiers, &configs, &trace, &ctx);
            assert_tiers_agree::<4>(&tiers, &configs, &trace, &ctx);
            assert_tiers_agree::<6>(&tiers, &configs, &trace, &ctx);
            assert_tiers_agree::<8>(&tiers, &configs, &trace, &ctx);
            assert_tiers_agree::<12>(&tiers, &configs, &trace, &ctx);
            assert_tiers_agree::<16>(&tiers, &configs, &trace, &ctx);
            assert_tiers_agree::<24>(&tiers, &configs, &trace, &ctx);
        }
    }

    /// The dispatcher only ever picks a tier whose features this CPU has,
    /// and on wide widths it picks the best of them.
    #[test]
    fn dispatch_never_picks_an_unsupported_tier() {
        for width in std::iter::once(1).chain(LANE_WIDTHS) {
            let tier = Tier::for_width(width);
            assert!(tier.supported(), "W{width} picked {}", tier.name());
        }
        let best = Tier::ALL.into_iter().rfind(|tier| tier.supported());
        assert_eq!(Some(Tier::for_width(crate::MAX_LANES)), best);
    }

    #[test]
    fn unified_busy_is_shared() {
        let mut p = Ports::<2>::new(false);
        p.set_busy(AccessKind::Read, [10, 20]);
        assert_eq!(p.busy_for(AccessKind::InstructionFetch), [10, 20]);
        assert_eq!(p.busy_for(AccessKind::Write), [10, 20]);
        assert_eq!(p.busy_any(), [10, 20]);
    }

    #[test]
    fn split_busy_is_per_side() {
        let mut p = Ports::<2>::new(true);
        p.set_busy(AccessKind::InstructionFetch, [10, 3]);
        p.set_busy(AccessKind::Write, [4, 8]);
        assert_eq!(p.busy_for(AccessKind::InstructionFetch), [10, 3]);
        assert_eq!(p.busy_for(AccessKind::Read), [4, 8]);
        assert_eq!(p.busy_any(), [10, 8]);
    }

    #[test]
    fn busy_never_moves_backwards() {
        let mut p = Ports::<2>::new(false);
        p.set_busy(AccessKind::Read, [10, 10]);
        p.set_busy(AccessKind::Read, [5, 12]);
        assert_eq!(p.busy_for(AccessKind::Read), [10, 12]);
    }
}
