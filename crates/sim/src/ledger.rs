//! Cycle attribution: every cycle of `total_cycles` lands in exactly one
//! bucket.
//!
//! The paper's Equation 1 *decomposes* execution time — CPU execute
//! cycles, per-level read-miss stalls, write stalls — but the simulator
//! historically only reported aggregate stall counters, so the
//! decomposition could never be audited term by term. The
//! [`CycleLedger`] closes that gap with a conservation guarantee:
//!
//! > `execute + Σ read_miss[j] + write_buffer_full + writeback +
//! > refresh_wait == SimResult::total_cycles`, exactly, on every run.
//!
//! # How conservation is achieved
//!
//! Attribution is settled once per trace record. While the timing
//! engine walks the hierarchy, the attribution observer `HierarchySim`
//! attaches records the *components* of the access's critical path —
//! tag checks and hit times per level, memory service, refresh-gap
//! waits, buffer-full drains — in temporal order. When the record
//! completes, the engine knows precisely how many cycles the clock
//! advanced (`delta`), how many of those were the base execute cycle
//! (`exec`, 0 or 1), and therefore the exact stall (`delta - exec`). The
//! components are then reconciled against that stall:
//!
//! * components may over-cover the stall (the access's early cycles
//!   overlap a cycle that was already open — e.g. a load sharing its
//!   instruction's cycle): the excess is dropped from the *front*,
//!   because the overlap is always at the start of the access;
//! * components may under-cover it (rare bookkeeping corners): the
//!   remainder falls into a fallback bucket (level 0 for reads, the
//!   writeback bucket for stores).
//!
//! Either way exactly `stall` ticks are attributed, so the buckets sum
//! to `total_cycles` *by construction* — the `check-invariants` feature
//! re-asserts the identity after every record. Conservation is exact;
//! the split between buckets is faithful to the critical path the
//! simulator actually walked, with the front-drop rule deciding ties.
//!
//! Work off the critical path (lazy buffer drains in idle windows,
//! non-demand sector fills, the interior of a forced drain that is
//! already accounted as one buffer-full lump) is *suppressed*: it can
//! never leak into the requester's attribution.

use mlc_obs::{EventKind, EventTracer, Log2Histogram, SimEvent};
use mlc_trace::{AccessKind, TraceRecord};

use crate::engine::Observer;

/// What a span of critical-path ticks was spent on, as recorded by the
/// hierarchy walk (pre-reconciliation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Waiting for / being serviced by cache level `j` (tag check, hit
    /// access, refill beats).
    Level(usize),
    /// Main-memory service: address cycles, the operation itself, data
    /// beats.
    Memory,
    /// A producer stalled on a full write buffer (forced synchronous
    /// drain).
    BufferFull,
    /// Draining buffered writes on the critical path (read-after-write
    /// hazards).
    Writeback,
    /// Waiting for main memory to become available: busy serialisation
    /// plus the refresh gap (Equation 1's `T-recovery` overlap).
    Refresh,
}

/// Exhaustive attribution of simulated cycles, one bucket per cause.
///
/// Obtained from `HierarchySim::ledger()`; covers the measurement
/// window, like `SimResult`. The conservation identity
/// [`CycleLedger::total`]` == SimResult::total_cycles` holds exactly on
/// every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleLedger {
    /// Base execute cycles: one per instruction fetch plus one per data
    /// reference that opened its own cycle (data-only traces).
    pub execute: u64,
    /// Read-stall cycles attributed to each hierarchy element:
    /// `read_miss[j]` for cache level `j` (its tag checks, waits and
    /// refill beats on read critical paths), and one trailing entry —
    /// `read_miss[depth]` — for main-memory service. Length is always
    /// `depth + 1`.
    pub read_miss: Vec<u64>,
    /// Cycles producers spent stalled on full write buffers (forced
    /// synchronous drains).
    pub write_buffer_full: u64,
    /// Write-side stall cycles: store hit/miss service beyond the base
    /// cycle, write-allocate fetches, and read-after-write hazard
    /// drains. Together with `write_buffer_full`, this is the simulated
    /// counterpart of Equation 1's `N_store · z_L1write` term.
    pub writeback: u64,
    /// Cycles critical-path memory requests waited for main memory to
    /// become available (busy serialisation + refresh gap).
    pub refresh_wait: u64,
}

impl CycleLedger {
    /// An empty ledger for a hierarchy of `depth` cache levels.
    pub fn new(depth: usize) -> Self {
        CycleLedger {
            execute: 0,
            read_miss: vec![0; depth + 1],
            write_buffer_full: 0,
            writeback: 0,
            refresh_wait: 0,
        }
    }

    /// Number of cache levels the ledger covers.
    pub fn depth(&self) -> usize {
        self.read_miss.len() - 1
    }

    /// The main-memory read-stall bucket (the last `read_miss` entry).
    pub fn memory_read_miss(&self) -> u64 {
        *self
            .read_miss
            .last()
            .expect("ledger always has a memory bucket")
    }

    /// Sum of all per-level read-miss buckets including main memory.
    pub fn read_miss_total(&self) -> u64 {
        self.read_miss.iter().sum()
    }

    /// Sum of every bucket — equals `SimResult::total_cycles` by the
    /// conservation invariant.
    pub fn total(&self) -> u64 {
        self.execute
            + self.read_miss_total()
            + self.write_buffer_full
            + self.writeback
            + self.refresh_wait
    }

    /// Zeroes every bucket (measurement-window reset).
    pub fn reset(&mut self) {
        self.execute = 0;
        for b in &mut self.read_miss {
            *b = 0;
        }
        self.write_buffer_full = 0;
        self.writeback = 0;
        self.refresh_wait = 0;
    }

    /// The buckets as `(label, cycles)` rows, execute first, using
    /// `level_names` for the per-level read-miss buckets (indices past
    /// the names render as `memory`).
    pub fn rows(&self, level_names: &[&str]) -> Vec<(String, u64)> {
        let mut rows = vec![("execute".to_owned(), self.execute)];
        for (j, &cycles) in self.read_miss.iter().enumerate() {
            let name = level_names
                .get(j)
                .map(|n| format!("read_miss.{n}"))
                .unwrap_or_else(|| "read_miss.memory".to_owned());
            rows.push((name, cycles));
        }
        rows.push(("write_buffer_full".to_owned(), self.write_buffer_full));
        rows.push(("writeback".to_owned(), self.writeback));
        rows.push(("refresh_wait".to_owned(), self.refresh_wait));
        rows
    }

    /// The bucket a reconciled component lands in. Write-path level and
    /// memory time is write cost (Equation 1 folds it into
    /// `z_L1write`), not read-miss stall.
    fn bucket_mut(&mut self, cause: Cause, write_path: bool) -> &mut u64 {
        let depth = self.depth();
        match cause {
            Cause::BufferFull => &mut self.write_buffer_full,
            Cause::Writeback => &mut self.writeback,
            Cause::Refresh => &mut self.refresh_wait,
            Cause::Level(_) | Cause::Memory if write_path => &mut self.writeback,
            Cause::Level(j) => &mut self.read_miss[j.min(depth)],
            Cause::Memory => &mut self.read_miss[depth],
        }
    }

    /// Reconciles one record's scratch components against its measured
    /// `exec`/`stall` split (see the module docs): drops over-coverage
    /// from the front, attributes exactly `stall` ticks, sends any
    /// under-coverage to the fallback bucket.
    fn settle(&mut self, parts: &mut Vec<(Cause, u64)>, exec: u64, stall: u64, write_path: bool) {
        self.execute += exec;
        let sum: u64 = parts.iter().map(|&(_, t)| t).sum();
        let mut skip = sum.saturating_sub(stall);
        let mut remaining = stall;
        for (cause, ticks) in parts.drain(..) {
            let dropped = skip.min(ticks);
            skip -= dropped;
            let take = (ticks - dropped).min(remaining);
            if take > 0 {
                *self.bucket_mut(cause, write_path) += take;
            }
            remaining -= take;
        }
        if remaining > 0 {
            let fallback = if write_path {
                Cause::Writeback
            } else {
                Cause::Level(0)
            };
            *self.bucket_mut(fallback, write_path) += remaining;
        }
    }
}

/// Distribution summaries the simulator collects alongside the ledger,
/// in plain simulator-local storage (recording is two array increments —
/// no locks, no allocation; see the `mlc-obs` histogram docs). Exported
/// into a `Metrics` handle only at phase boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimHistograms {
    /// `read_miss_latency[j]`: cycles from a read miss being detected at
    /// level `j` until its block is available there (demand critical
    /// path only; background write-allocate fetches are excluded).
    pub read_miss_latency: Vec<Log2Histogram>,
    /// Queue depth of every write buffer, sampled after each enqueue
    /// (all levels pooled).
    pub write_buffer_occupancy: Log2Histogram,
    /// Trace records between consecutive level-0 demand read misses.
    pub inter_miss_distance: Log2Histogram,
}

impl SimHistograms {
    /// Empty histograms for a hierarchy of `depth` cache levels.
    pub fn new(depth: usize) -> Self {
        SimHistograms {
            read_miss_latency: vec![Log2Histogram::new(); depth],
            write_buffer_occupancy: Log2Histogram::new(),
            inter_miss_distance: Log2Histogram::new(),
        }
    }

    /// Clears every histogram (measurement-window reset).
    pub fn reset(&mut self) {
        for h in &mut self.read_miss_latency {
            *h = Log2Histogram::new();
        }
        self.write_buffer_occupancy = Log2Histogram::new();
        self.inter_miss_distance = Log2Histogram::new();
    }
}

/// The attribution observer `HierarchySim` attaches to the timing
/// engine: it collects each record's critical-path components, settles
/// them into the [`CycleLedger`], feeds the [`SimHistograms`] and
/// samples the optional event trace.
#[derive(Debug, Clone)]
pub(crate) struct Attribution {
    /// The record in flight's critical-path components, in temporal
    /// order.
    parts: Vec<(Cause, u64)>,
    /// Nesting depth of off-critical-path regions; recording is a no-op
    /// while it is non-zero.
    suppress: u32,
    /// The deepest element the record's critical path reached.
    deepest: u32,
    /// Global index of the record in flight (warm-up included).
    index: u64,
    last_l0_read_miss: Option<u64>,
    pub(crate) ledger: CycleLedger,
    pub(crate) hists: SimHistograms,
    pub(crate) tracer: Option<EventTracer>,
}

impl Attribution {
    /// An empty observer for a hierarchy of `depth` cache levels.
    pub(crate) fn new(depth: usize) -> Self {
        Attribution {
            parts: Vec::new(),
            suppress: 0,
            deepest: 0,
            index: 0,
            last_l0_read_miss: None,
            ledger: CycleLedger::new(depth),
            hists: SimHistograms::new(depth),
            tracer: None,
        }
    }
}

impl Observer for Attribution {
    fn begin(&mut self) {
        self.parts.clear();
        self.deepest = 0;
        debug_assert_eq!(self.suppress, 0, "unbalanced ledger suppression");
    }

    fn touch(&mut self, element: usize) {
        if self.suppress == 0 {
            self.deepest = self.deepest.max(element as u32);
        }
    }

    fn record(&mut self, cause: Cause, ticks: u64) {
        if self.suppress == 0 && ticks > 0 {
            self.parts.push((cause, ticks));
        }
    }

    fn push_suppress(&mut self) {
        self.suppress += 1;
    }

    fn pop_suppress(&mut self) {
        debug_assert!(self.suppress > 0, "pop without matching push");
        self.suppress -= 1;
    }

    fn read_miss_latency(&mut self, level: usize, ticks: u64) {
        // Demand paths only: background fills are suppressed.
        if self.suppress == 0 {
            self.hists.read_miss_latency[level].record(ticks);
        }
    }

    fn l0_read_miss(&mut self) {
        if let Some(last) = self.last_l0_read_miss {
            self.hists.inter_miss_distance.record(self.index - last);
        }
        self.last_l0_read_miss = Some(self.index);
    }

    fn buffer_occupancy(&mut self, len: usize) {
        self.hists.write_buffer_occupancy.record(len as u64);
    }

    fn settle(&mut self, rec: TraceRecord, start: u64, exec: u64, old_now: u64, now: u64) {
        let stall = (now - old_now) - exec;
        self.ledger
            .settle(&mut self.parts, exec, stall, rec.kind.is_write());
        let index = self.index;
        self.index += 1;
        if let Some(tracer) = &mut self.tracer {
            if tracer.wants(index) {
                tracer.push(SimEvent {
                    index,
                    kind: match rec.kind {
                        AccessKind::InstructionFetch => EventKind::Ifetch,
                        AccessKind::Read => EventKind::Read,
                        AccessKind::Write => EventKind::Write,
                    },
                    addr: rec.addr.get(),
                    start_cycle: start,
                    cycles: now - start,
                    stall_cycles: stall,
                    serviced: self.deepest,
                });
            }
        }
    }

    fn reset(&mut self) {
        self.ledger.reset();
        self.hists.reset();
        self.last_l0_read_miss = None;
    }

    #[cfg(feature = "check-invariants")]
    fn check(&self, elapsed: u64) -> Result<(), String> {
        let attributed = self.ledger.total();
        if attributed == elapsed {
            return Ok(());
        }
        Err(format!(
            "cycle ledger broke conservation: {attributed} attributed vs {elapsed} elapsed"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle_one(parts: &[(Cause, u64)], exec: u64, stall: u64, write_path: bool) -> CycleLedger {
        let mut obs = Attribution::new(2);
        obs.begin();
        for &(c, t) in parts {
            obs.record(c, t);
        }
        obs.ledger.settle(&mut obs.parts, exec, stall, write_path);
        obs.ledger
    }

    #[test]
    fn exact_coverage_attributes_in_order() {
        // 1 exec + components [L0:1, L1:3, mem:27] covering a 31-cycle
        // access: 1 tick of over-coverage (the base cycle) drops off the
        // front.
        let l = settle_one(
            &[
                (Cause::Level(0), 1),
                (Cause::Level(1), 3),
                (Cause::Memory, 27),
            ],
            1,
            30,
            false,
        );
        assert_eq!(l.execute, 1);
        assert_eq!(l.read_miss, vec![0, 3, 27]);
        assert_eq!(l.total(), 31);
    }

    #[test]
    fn over_coverage_drops_from_the_front() {
        // An access folded into an already-open cycle: most of its
        // latency overlaps and only the tail is new stall.
        let l = settle_one(&[(Cause::Level(0), 2), (Cause::Memory, 10)], 0, 4, false);
        assert_eq!(l.read_miss, vec![0, 0, 4]);
        assert_eq!(l.total(), 4);
    }

    #[test]
    fn under_coverage_falls_back() {
        let reads = settle_one(&[(Cause::Level(1), 2)], 1, 5, false);
        assert_eq!(reads.read_miss, vec![3, 2, 0], "remainder lands at L0");
        assert_eq!(reads.total(), 6);
        let writes = settle_one(&[], 0, 5, true);
        assert_eq!(writes.writeback, 5, "write remainder lands in writeback");
        assert_eq!(writes.total(), 5);
    }

    #[test]
    fn write_path_folds_level_time_into_writeback() {
        let l = settle_one(
            &[
                (Cause::Level(0), 2),
                (Cause::Memory, 20),
                (Cause::Refresh, 3),
            ],
            1,
            24,
            true,
        );
        assert_eq!(l.writeback, 21, "level + memory time on a store");
        assert_eq!(l.refresh_wait, 3);
        assert_eq!(l.read_miss_total(), 0);
        assert_eq!(l.total(), 25);
    }

    #[test]
    fn suppressed_regions_record_nothing() {
        let mut obs = Attribution::new(2);
        obs.begin();
        obs.push_suppress();
        obs.record(Cause::Memory, 100);
        obs.touch(2);
        obs.read_miss_latency(0, 100);
        obs.pop_suppress();
        obs.record(Cause::Level(0), 1);
        obs.touch(1);
        assert_eq!(obs.deepest, 1);
        assert!(obs.hists.read_miss_latency[0].is_empty());
        obs.ledger.settle(&mut obs.parts, 0, 1, false);
        assert_eq!(obs.ledger.read_miss, vec![1, 0, 0]);
    }

    #[test]
    fn rows_label_every_bucket() {
        let mut l = CycleLedger::new(2);
        l.execute = 10;
        l.read_miss = vec![1, 2, 3];
        l.refresh_wait = 4;
        let rows = l.rows(&["L1", "L2"]);
        let labels: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            labels,
            [
                "execute",
                "read_miss.L1",
                "read_miss.L2",
                "read_miss.memory",
                "write_buffer_full",
                "writeback",
                "refresh_wait"
            ]
        );
        let total: u64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(total, l.total());
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut l = CycleLedger::new(1);
        l.execute = 5;
        l.read_miss[1] = 7;
        l.writeback = 3;
        l.reset();
        assert_eq!(l.total(), 0);
        let mut h = SimHistograms::new(1);
        h.write_buffer_occupancy.record(3);
        h.reset();
        assert!(h.write_buffer_occupancy.is_empty());
    }
}
