//! Timing-decoupled sweep simulation: one functional trace pass priced
//! under many cycle-time variants simultaneously.
//!
//! A grid sweep over L2 cycle times runs the cache model once and carries
//! one timing **lane** per cycle-time variant through the timing engine
//! (see the `engine` module for what each lane carries and why lane 0 is
//! the exact scalar computation).

use mlc_obs::Metrics;
use mlc_trace::TraceRecord;

use crate::config::{HierarchyConfig, SimConfigError};
use crate::engine::{Engine, Tier};
use crate::metrics::SimResult;

/// The largest number of timing variants one [`TimingSweepSim`] carries.
/// [`simulate_timing_sweep`] transparently chunks longer lists.
pub const MAX_LANES: usize = 24;

/// The monomorphized lane widths behind [`TimingSweepSim`]. A request
/// for `n` lanes dispatches to the smallest width `>= n`; tail lanes are
/// computed alongside (their timing parameters are padded with lane 0's
/// values at construction) so the per-lane loops keep a compile-time
/// bound.
pub const LANE_WIDTHS: [usize; 7] = [2, 4, 6, 8, 12, 16, 24];

/// The smallest entry of [`LANE_WIDTHS`] that carries `lanes` lanes
/// (`1..=MAX_LANES`).
fn width_for(lanes: usize) -> usize {
    LANE_WIDTHS
        .into_iter()
        .find(|&w| w >= lanes)
        .unwrap_or(MAX_LANES)
}

/// A multi-lane hierarchy simulator: the timing engine evaluated under
/// up to [`MAX_LANES`] timing variants in a single trace pass.
///
/// All variants must be *functionally identical* — same cache
/// organisations, policies and buffer capacities — and may differ in any
/// timing parameter: level cycle times, bus cycle times, CPU cycle time,
/// memory speeds.
///
/// The lane width is runtime-dispatched: the engine's per-lane loops run
/// over fixed-width `[u64; W]` vectors (unrolled and auto-vectorized, no
/// runtime lane bound), and construction picks the smallest width in
/// [`LANE_WIDTHS`] that fits the request. Small sweeps pay narrow-vector
/// arithmetic; wide cycle ladders still run in one functional pass,
/// which amortizes the shared cache model and trace decode over more
/// grid points — where the one-pass engine's throughput comes from.
///
/// # Examples
///
/// Price the base machine at three L2 cycle times in one pass:
///
/// ```
/// use mlc_sim::machine::BaseMachine;
/// use mlc_sim::sweep::simulate_timing_sweep;
/// use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
///
/// let configs: Vec<_> = [1u64, 3, 5]
///     .iter()
///     .map(|&c| BaseMachine::new().l2_cycles(c).build().unwrap())
///     .collect();
/// let mut gen = MultiProgramGenerator::new(Preset::Mips1.config(7))
///     .expect("preset is valid");
/// let trace = gen.generate_records(20_000);
/// let results = simulate_timing_sweep(&configs, &trace, 5_000)?;
/// assert_eq!(results.len(), 3);
/// assert!(results[0].total_cycles <= results[2].total_cycles);
/// # Ok::<(), mlc_sim::SimConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingSweepSim {
    inner: SweepDispatch,
}

/// The monomorphized widths behind [`TimingSweepSim`], one variant per
/// entry of [`LANE_WIDTHS`]. The wide variants make the enum big, but
/// exactly one lives per sweep pass and it is never moved mid-run, so
/// the by-value layout costs nothing and keeps the dispatch free of
/// indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum SweepDispatch {
    W2(Engine<2>),
    W4(Engine<4>),
    W6(Engine<6>),
    W8(Engine<8>),
    W12(Engine<12>),
    W16(Engine<16>),
    W24(Engine<24>),
}

/// Runs `$body` with `$sim` bound to the engine behind `$inner` (a
/// shared or mutable reference to a [`SweepDispatch`]).
macro_rules! each_width {
    ($inner:expr, $sim:ident => $body:expr) => {
        match $inner {
            SweepDispatch::W2($sim) => $body,
            SweepDispatch::W4($sim) => $body,
            SweepDispatch::W6($sim) => $body,
            SweepDispatch::W8($sim) => $body,
            SweepDispatch::W12($sim) => $body,
            SweepDispatch::W16($sim) => $body,
            SweepDispatch::W24($sim) => $body,
        }
    };
}

impl TimingSweepSim {
    /// Builds a sweep simulator from one configuration per lane,
    /// dispatching to the smallest monomorphized width that fits.
    ///
    /// # Errors
    ///
    /// Returns a [`SimConfigError`] if the list is empty or longer than
    /// [`MAX_LANES`], any configuration is invalid, or the configurations
    /// are not functionally identical (cache organisations, buffer
    /// capacities and bus widths must match; only timing may differ).
    pub fn new(configs: &[HierarchyConfig]) -> Result<Self, SimConfigError> {
        if configs.is_empty() {
            return Err(SimConfigError::new("timing sweep needs at least one lane"));
        }
        if configs.len() > MAX_LANES {
            return Err(SimConfigError::new(format!(
                "timing sweep supports at most {MAX_LANES} lanes, got {}",
                configs.len()
            )));
        }
        let inner = match width_for(configs.len()) {
            2 => SweepDispatch::W2(Engine::new(configs, ())?),
            4 => SweepDispatch::W4(Engine::new(configs, ())?),
            6 => SweepDispatch::W6(Engine::new(configs, ())?),
            8 => SweepDispatch::W8(Engine::new(configs, ())?),
            12 => SweepDispatch::W12(Engine::new(configs, ())?),
            16 => SweepDispatch::W16(Engine::new(configs, ())?),
            _ => SweepDispatch::W24(Engine::new(configs, ())?),
        };
        Ok(TimingSweepSim { inner })
    }

    /// The instruction-set path this sweep's timing walk runs on:
    /// `"baseline"`, `"x86-64-v3"` or `"x86-64-v4"`. The build is
    /// portable; the path is picked once per process from the CPU's
    /// features and the lane width. Every path gives bit-identical
    /// results, so this says how a number was computed, never what it is.
    pub fn isa(&self) -> &'static str {
        Tier::for_width(self.width()).name()
    }

    /// [`Self::isa`] of a sweep over `lanes` configurations (clamped to
    /// `1..=MAX_LANES`, the range one pass carries).
    pub fn isa_for_lanes(lanes: usize) -> &'static str {
        Tier::for_width(width_for(lanes.clamp(1, MAX_LANES))).name()
    }

    /// Number of timing lanes (the number of configurations supplied).
    pub fn lanes(&self) -> usize {
        each_width!(&self.inner, sim => sim.lanes())
    }

    /// The monomorphized vector width carrying those lanes (an entry of
    /// [`LANE_WIDTHS`], `>= self.lanes()`).
    pub fn width(&self) -> usize {
        each_width!(&self.inner, sim => sim.width())
    }

    /// Runs every record of `records` through the hierarchy.
    pub fn run<I>(&mut self, records: I)
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        each_width!(&mut self.inner, sim => sim.run(records))
    }

    /// Processes a single trace record.
    pub fn step(&mut self, rec: TraceRecord) {
        each_width!(&mut self.inner, sim => sim.step(rec))
    }

    /// Runs a slice of records through the hierarchy, dispatching to the
    /// monomorphized width once for the whole slice rather than once per
    /// record — the hot path for bulk simulation.
    pub fn run_slice(&mut self, records: &[TraceRecord]) {
        each_width!(&mut self.inner, sim => sim.run(records.iter().copied()))
    }

    /// Resets all statistics and starts a fresh measurement window at the
    /// current simulated time in every lane.
    pub fn reset_measurement(&mut self) {
        each_width!(&mut self.inner, sim => sim.reset_measurement())
    }

    /// Runs `records` through the engine's warm-up driver (warm up,
    /// reset the measurement window, measure; phases timed in `metrics`).
    pub(crate) fn warm_then_measure(
        &mut self,
        records: &[TraceRecord],
        warmup: usize,
        metrics: &Metrics,
        phases: [&str; 2],
    ) {
        let records = records.iter().copied();
        each_width!(&mut self.inner, sim => sim.warm_then_measure(records, warmup, metrics, phases))
    }

    /// Snapshot of the current measurement window, one [`SimResult`] per
    /// lane in construction order. Functional counters (hits, misses,
    /// traffic, buffer flow) are identical across lanes by construction;
    /// cycle totals, stall counters and memory waits are per-lane.
    pub fn results(&self) -> Vec<SimResult> {
        each_width!(&self.inner, sim => sim.results())
    }
}

/// Runs `records` through a timing sweep over `configs`, discarding the
/// first `warmup` records from the statistics, and returns one
/// [`SimResult`] per configuration (in order). Lists longer than
/// [`MAX_LANES`] are transparently split into several passes.
///
/// # Errors
///
/// Returns a [`SimConfigError`] under the same conditions as
/// [`TimingSweepSim::new`].
pub fn simulate_timing_sweep(
    configs: &[HierarchyConfig],
    records: &[TraceRecord],
    warmup: usize,
) -> Result<Vec<SimResult>, SimConfigError> {
    crate::observe::simulate_timing_sweep_observed(configs, records, warmup, &Metrics::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::simulate_with_warmup;
    use crate::machine::BaseMachine;
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn preset_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
        MultiProgramGenerator::new(Preset::Mips1.config(seed))
            .expect("valid preset")
            .generate_records(n)
    }

    fn base_at(cycles: u64) -> HierarchyConfig {
        BaseMachine::new().l2_cycles(cycles).build().unwrap()
    }

    /// Lane 0 reproduces the scalar simulator cycle-exactly by
    /// construction: same decisions, same order, same arithmetic.
    #[test]
    fn lane0_matches_hierarchy_sim_exactly() {
        let trace = preset_trace(40_000, 3);
        for cycles in [1u64, 3, 7] {
            let solo =
                simulate_with_warmup(base_at(cycles), trace.iter().copied(), 10_000).unwrap();
            let swept =
                simulate_timing_sweep(&[base_at(cycles), base_at(1)], &trace, 10_000).unwrap();
            assert_eq!(swept[0], solo, "decision lane at l2_cycles={cycles}");
        }
    }

    /// All lanes of a sweep agree with per-lane scalar runs on the base
    /// machine's L2 cycle ladder.
    #[test]
    fn lanes_match_scalar_runs() {
        let trace = preset_trace(40_000, 5);
        let ladder = [1u64, 2, 3, 5, 8];
        let configs: Vec<_> = ladder.iter().map(|&c| base_at(c)).collect();
        let swept = simulate_timing_sweep(&configs, &trace, 10_000).unwrap();
        for (&cycles, result) in ladder.iter().zip(&swept) {
            let solo =
                simulate_with_warmup(base_at(cycles), trace.iter().copied(), 10_000).unwrap();
            assert_eq!(result, &solo, "lane at l2_cycles={cycles}");
        }
    }

    /// Every monomorphized width produces the same per-lane results as
    /// scalar runs: the padding lanes never leak into real lanes.
    #[test]
    fn every_width_matches_scalar_runs() {
        let trace = preset_trace(20_000, 7);
        // Lane counts hitting each width: 1→W2, 3→W4, 5→W6, 7→W8,
        // 9→W12, 13→W16, 17→W24.
        for lanes in [1usize, 3, 5, 7, 9, 12, 13, 17] {
            let ladder: Vec<u64> = (1..=lanes as u64).collect();
            let configs: Vec<_> = ladder.iter().map(|&c| base_at(c)).collect();
            let sim = TimingSweepSim::new(&configs).unwrap();
            assert!(sim.width() >= lanes, "width {} < {lanes}", sim.width());
            assert_eq!(sim.lanes(), lanes);
            let swept = simulate_timing_sweep(&configs, &trace, 5_000).unwrap();
            for (&cycles, result) in ladder.iter().zip(&swept) {
                let solo =
                    simulate_with_warmup(base_at(cycles), trace.iter().copied(), 5_000).unwrap();
                assert_eq!(result, &solo, "{lanes}-lane sweep at l2_cycles={cycles}");
            }
        }
    }

    /// Dispatch picks the smallest monomorphized width that fits, and
    /// `isa_for_lanes` names the ISA path of that width.
    #[test]
    fn dispatch_picks_smallest_width() {
        for (lanes, want) in [
            (1, 2),
            (2, 2),
            (3, 4),
            (4, 4),
            (5, 6),
            (6, 6),
            (7, 8),
            (8, 8),
        ]
        .into_iter()
        .chain((9..=12).map(|l| (l, 12)))
        .chain((13..=16).map(|l| (l, 16)))
        .chain((17..=24).map(|l| (l, 24)))
        {
            let configs: Vec<_> = (1..=lanes as u64).map(base_at).collect();
            let sim = TimingSweepSim::new(&configs).unwrap();
            assert_eq!(sim.width(), want, "{lanes} lanes");
            assert!(LANE_WIDTHS.contains(&sim.width()));
            assert_eq!(sim.isa(), TimingSweepSim::isa_for_lanes(lanes));
        }
    }

    #[test]
    fn totals_monotone_in_cycle_time() {
        let trace = preset_trace(30_000, 9);
        let configs: Vec<_> = (1..=6).map(base_at).collect();
        let swept = simulate_timing_sweep(&configs, &trace, 5_000).unwrap();
        for pair in swept.windows(2) {
            assert!(pair[1].total_cycles >= pair[0].total_cycles);
        }
    }

    #[test]
    fn functional_counters_shared_across_lanes() {
        let trace = preset_trace(30_000, 11);
        let swept = simulate_timing_sweep(&[base_at(1), base_at(9)], &trace, 5_000).unwrap();
        let (a, b) = (&swept[0], &swept[1]);
        assert_eq!(a.instructions, b.instructions);
        for (la, lb) in a.levels.iter().zip(b.levels.iter()) {
            assert_eq!(la.cache, lb.cache);
            assert_eq!(la.write_buffer, lb.write_buffer);
            assert_eq!(la.fetched_bytes, lb.fetched_bytes);
            assert_eq!(la.writeback_bytes, lb.writeback_bytes);
        }
        assert_eq!(a.memory.reads, b.memory.reads);
        assert_eq!(a.memory.writes, b.memory.writes);
    }

    #[test]
    fn chunking_handles_more_than_max_lanes() {
        let trace = preset_trace(5_000, 13);
        let configs: Vec<_> = (1..=(MAX_LANES as u64 + 3)).map(base_at).collect();
        let swept = simulate_timing_sweep(&configs, &trace, 1_000).unwrap();
        assert_eq!(swept.len(), MAX_LANES + 3);
        for pair in swept.windows(2) {
            assert!(pair[1].total_cycles >= pair[0].total_cycles);
        }
    }

    #[test]
    fn rejects_functionally_different_lanes() {
        let a = base_at(3);
        let b = BaseMachine::new()
            .l2_total(mlc_cache::ByteSize::kib(256))
            .build()
            .unwrap();
        let err = TimingSweepSim::new(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("cache organisation"));
    }

    #[test]
    fn rejects_empty_and_oversized() {
        assert!(TimingSweepSim::new(&[]).is_err());
        let configs: Vec<_> = (0..MAX_LANES as u64 + 1).map(|_| base_at(3)).collect();
        assert!(TimingSweepSim::new(&configs).is_err());
    }
}
