//! Feeding the `mlc-obs` metrics core from simulation runs.
//!
//! The simulator's hot path never touches a metrics handle —
//! observability here is strictly phase-boundary work: the observed
//! drivers time the warm-up and measurement passes separately, then
//! translate the final [`SimResult`] event counts into named counters.
//! The plain drivers are the same code with a disabled handle.

use mlc_obs::{EventTracer, Metrics};
use mlc_trace::TraceRecord;

use crate::engine::Engine;
use crate::hierarchy::HierarchySim;
use crate::ledger::{Attribution, CycleLedger, SimHistograms};
use crate::metrics::SimResult;
use crate::sweep::{TimingSweepSim, MAX_LANES};
use crate::{HierarchyConfig, SimConfigError};

/// Translates a [`SimResult`] into `mlc-obs` counters under `scope`
/// (e.g. `sim` → `sim.instructions`, `sim.L1D.read_misses`, …).
///
/// Emits the CPU reference mix, per-level access / miss / drain counts,
/// write-buffer-full stalls, read and write stall cycle totals, and the
/// main-memory traffic — the per-phase event counts the paper's
/// Equation 1 decomposition is audited against.
pub fn observe_result(metrics: &Metrics, scope: &str, result: &SimResult) {
    if !metrics.is_enabled() {
        return;
    }
    let events = result.event_counts();
    metrics.add(&format!("{scope}.instructions"), result.instructions);
    metrics.add(&format!("{scope}.cpu_reads"), events.cpu_reads);
    metrics.add(&format!("{scope}.cpu_writes"), events.cpu_writes);
    metrics.add(&format!("{scope}.total_cycles"), result.total_cycles);
    metrics.add(
        &format!("{scope}.read_stall_cycles"),
        result.read_stall_cycles,
    );
    metrics.add(
        &format!("{scope}.write_stall_cycles"),
        result.write_stall_cycles,
    );
    for (i, level) in result.levels.iter().enumerate() {
        let name = &level.name;
        metrics.add(&format!("{scope}.{name}.reads"), events.reads[i]);
        metrics.add(
            &format!("{scope}.{name}.read_misses"),
            events.read_misses[i],
        );
        metrics.add(&format!("{scope}.{name}.writes"), events.writes[i]);
        metrics.add(
            &format!("{scope}.{name}.drained_writebacks"),
            events.dirty_evictions[i],
        );
        metrics.add(
            &format!("{scope}.{name}.buffer_full_stalls"),
            events.buffer_full_stalls[i],
        );
    }
    metrics.add(&format!("{scope}.memory.reads"), events.memory_reads);
    metrics.add(&format!("{scope}.memory.writes"), events.memory_writes);
}

/// Translates a [`CycleLedger`] into `mlc-obs` counters under `scope`:
/// `{scope}.ledger.execute`, `{scope}.ledger.read_miss.<level>` (one per
/// level plus `read_miss.memory`), `{scope}.ledger.write_buffer_full`,
/// `{scope}.ledger.writeback` and `{scope}.ledger.refresh_wait`.
///
/// Because of the conservation invariant, summing every
/// `{scope}.ledger.*` counter in an exported metrics file reproduces
/// `{scope}.total_cycles` exactly — the property ci.sh audits on real
/// output.
pub fn observe_ledger(metrics: &Metrics, scope: &str, ledger: &CycleLedger, level_names: &[&str]) {
    if !metrics.is_enabled() {
        return;
    }
    for (label, cycles) in ledger.rows(level_names) {
        metrics.add(&format!("{scope}.ledger.{label}"), cycles);
    }
}

/// Merges the simulator's [`SimHistograms`] into `metrics` under
/// `scope`: `{scope}.read_miss_latency.<level>`,
/// `{scope}.write_buffer_occupancy` and `{scope}.inter_miss_distance`,
/// exported as `hist` events in the `mlc-metrics/1` JSONL stream.
pub fn observe_histograms(
    metrics: &Metrics,
    scope: &str,
    hists: &SimHistograms,
    level_names: &[&str],
) {
    if !metrics.is_enabled() {
        return;
    }
    for (j, hist) in hists.read_miss_latency.iter().enumerate() {
        let name = level_names.get(j).copied().unwrap_or("memory");
        metrics.observe_hist(&format!("{scope}.read_miss_latency.{name}"), hist);
    }
    metrics.observe_hist(
        &format!("{scope}.write_buffer_occupancy"),
        &hists.write_buffer_occupancy,
    );
    metrics.observe_hist(
        &format!("{scope}.inter_miss_distance"),
        &hists.inter_miss_distance,
    );
}

/// Everything an attributed simulation run produces beyond the plain
/// [`SimResult`]: the conservation-checked cycle ledger, the latency and
/// occupancy histograms, the (optional) sampled event trace, and the
/// level names that label all of them.
#[derive(Debug, Clone)]
pub struct AttributedRun {
    /// The ordinary simulation result (identical to the unattributed
    /// drivers' output).
    pub result: SimResult,
    /// Cycle attribution; `ledger.total() == result.total_cycles`.
    pub ledger: CycleLedger,
    /// Read-miss latency, write-buffer occupancy and inter-miss
    /// distance distributions.
    pub histograms: SimHistograms,
    /// The sampled event trace, when a sampling period was requested.
    pub tracer: Option<EventTracer>,
    /// Hierarchy level names, upstream first.
    pub level_names: Vec<String>,
}

/// [`crate::simulate_with_warmup`] plus full observability: the cycle
/// ledger, histograms, and (when `sample_every` is set) an every-Nth
/// sampled event trace. Ledger counters and histograms are fed into
/// `metrics` at the end of the measurement phase; warm-up activity is
/// excluded from all of them (sampled *events*, keyed to global record
/// indices, do include the warm-up so the trace aligns with the input).
///
/// Cycle-for-cycle identical to the unobserved driver.
///
/// # Errors
///
/// Returns a [`SimConfigError`] if the configuration is invalid.
pub fn simulate_with_warmup_attributed(
    config: HierarchyConfig,
    records: &[TraceRecord],
    warmup: usize,
    metrics: &Metrics,
    sample_every: Option<u64>,
) -> Result<AttributedRun, SimConfigError> {
    let mut sim = HierarchySim::new(config)?;
    if let Some(every) = sample_every {
        sim.attach_tracer(EventTracer::new(every.max(1)));
    }
    sim.engine.warm_then_measure(
        records.iter().copied(),
        warmup,
        metrics,
        ["sim.warmup", "sim.measure"],
    );
    let result = sim.result();
    let level_names = sim.level_names();
    let names: Vec<&str> = level_names.iter().map(String::as_str).collect();
    let Attribution {
        ledger,
        hists,
        tracer,
        ..
    } = sim.engine.obs;
    observe_result(metrics, "sim", &result);
    observe_ledger(metrics, "sim", &ledger, &names);
    observe_histograms(metrics, "sim", &hists, &names);
    Ok(AttributedRun {
        result,
        ledger,
        histograms: hists,
        tracer,
        level_names,
    })
}

/// [`crate::simulate_with_warmup`] with per-phase timing and event
/// counts fed into `metrics`: phases `sim.warmup` and `sim.measure`,
/// counters under the `sim` scope.
///
/// Cycle-for-cycle identical to the unobserved driver.
///
/// # Errors
///
/// Returns a [`SimConfigError`] if the configuration is invalid.
pub fn simulate_with_warmup_observed(
    config: HierarchyConfig,
    records: &[TraceRecord],
    warmup: usize,
    metrics: &Metrics,
) -> Result<SimResult, SimConfigError> {
    let mut engine = Engine::<1>::new(std::slice::from_ref(&config), ())?;
    let phases = ["sim.warmup", "sim.measure"];
    engine.warm_then_measure(records.iter().copied(), warmup, metrics, phases);
    let result = engine.result(0);
    observe_result(metrics, "sim", &result);
    Ok(result)
}

/// [`crate::simulate_timing_sweep`] with phase timing fed into
/// `metrics`: phases `sweep.warmup` and `sweep.measure` accumulate
/// across lane chunks, and the counter `sweep.lane_passes` counts how
/// many [`TimingSweepSim`] passes the configuration list split into.
///
/// # Errors
///
/// Returns a [`SimConfigError`] under the same conditions as
/// [`TimingSweepSim::new`].
pub fn simulate_timing_sweep_observed(
    configs: &[HierarchyConfig],
    records: &[TraceRecord],
    warmup: usize,
    metrics: &Metrics,
) -> Result<Vec<SimResult>, SimConfigError> {
    let mut out = Vec::with_capacity(configs.len());
    for chunk in configs.chunks(MAX_LANES) {
        let mut sim = TimingSweepSim::new(chunk)?;
        metrics.add("sweep.lane_passes", 1);
        sim.warm_then_measure(records, warmup, metrics, ["sweep.warmup", "sweep.measure"]);
        out.extend(sim.results());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::simulate_with_warmup;
    use crate::machine::{base_machine, BaseMachine};
    use crate::sweep::simulate_timing_sweep;
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn preset_trace(n: usize) -> Vec<TraceRecord> {
        MultiProgramGenerator::new(Preset::Mips1.config(11))
            .expect("valid preset")
            .generate_records(n)
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let trace = preset_trace(30_000);
        let metrics = Metrics::enabled();
        let observed =
            simulate_with_warmup_observed(base_machine(), &trace, 7_500, &metrics).unwrap();
        let plain = simulate_with_warmup(base_machine(), trace.iter().copied(), 7_500).unwrap();
        assert_eq!(observed.total_cycles, plain.total_cycles);
        assert_eq!(observed.instructions, plain.instructions);

        let snap = metrics.snapshot();
        let phase_names: Vec<&str> = snap.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(phase_names, ["sim.measure", "sim.warmup"]);
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .1
        };
        assert_eq!(get("sim.instructions"), plain.instructions);
        assert_eq!(get("sim.total_cycles"), plain.total_cycles);
        assert!(get("sim.L1.reads") > 0);
        assert!(get("sim.L2.reads") > 0);
        assert!(get("sim.memory.reads") > 0);
    }

    #[test]
    fn observed_sweep_matches_plain_sweep() {
        let trace = preset_trace(20_000);
        let configs: Vec<HierarchyConfig> = (1..=26)
            .map(|c| {
                BaseMachine::new()
                    .l2_cycles(c)
                    .build()
                    .expect("base machine variants are valid")
            })
            .collect();
        let metrics = Metrics::enabled();
        let observed = simulate_timing_sweep_observed(&configs, &trace, 5_000, &metrics).unwrap();
        let plain = simulate_timing_sweep(&configs, &trace, 5_000).unwrap();
        assert_eq!(observed.len(), plain.len());
        for (a, b) in observed.iter().zip(&plain) {
            assert_eq!(a.total_cycles, b.total_cycles);
        }
        let snap = metrics.snapshot();
        // 26 configs over 24 lanes = 2 passes.
        assert_eq!(snap.counters, vec![("sweep.lane_passes".into(), 2)]);
        assert_eq!(snap.phases.len(), 2);
        assert!(snap.phases.iter().all(|(_, s)| s.calls == 2));
    }

    #[test]
    fn disabled_metrics_change_nothing() {
        let trace = preset_trace(5_000);
        let metrics = Metrics::disabled();
        let observed =
            simulate_with_warmup_observed(base_machine(), &trace, 1_000, &metrics).unwrap();
        let plain = simulate_with_warmup(base_machine(), trace.iter().copied(), 1_000).unwrap();
        assert_eq!(observed.total_cycles, plain.total_cycles);
        assert!(metrics.snapshot().counters.is_empty());
    }
}
