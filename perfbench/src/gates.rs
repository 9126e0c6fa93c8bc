//! Correctness gates. Each takes a workload's outputs and says whether
//! they are right; a failing gate counts as a failed operation. They
//! work on outputs only, so the self-test can corrupt an output and
//! watch the gate catch it.

use mlc_core::{verify_grids, DesignGrid, Explorer, PartialGrid, SweepEngine};
use mlc_sim::machine::BaseMachine;
use mlc_sim::AttributedRun;
use mlc_trace::TraceRecord;
use mlc_wcet::BoundsReport;

use crate::inputs::{grid_digest, GridSpec};

/// The one-pass engine agrees cycle-exact with the exhaustive one on
/// `onepass`, a grid computed for `spec` over `trace`.
pub fn engines_agree(
    trace: &[TraceRecord],
    warmup: usize,
    spec: &GridSpec,
    onepass: &DesignGrid,
) -> Result<(), String> {
    let exhaustive = Explorer::new(trace, warmup)
        .try_l2_grid_with(
            SweepEngine::Exhaustive,
            &BaseMachine::new(),
            &spec.sizes,
            &spec.cycles,
            spec.ways,
        )
        .grid;
    verify_grids(&exhaustive, onepass).map_err(|d| d.to_string())
}

/// Every row of a grid completed.
pub fn complete(grid: &PartialGrid) -> Result<(), String> {
    match grid.failures.first() {
        None => Ok(()),
        Some(f) => Err(format!("{} row(s) failed; first: {f}", grid.failures.len())),
    }
}

/// Two grids are bit-identical (floats compared by bit pattern).
pub fn same_grid(got: &DesignGrid, want: &DesignGrid) -> Result<(), String> {
    if grid_digest(got) == grid_digest(want) {
        Ok(())
    } else {
        Err(format!(
            "grid digest {:016x} differs from the reference {:016x}",
            grid_digest(got),
            grid_digest(want)
        ))
    }
}

/// The cycle ledger's buckets sum to the run's total cycles.
pub fn ledger_conserves(run: &AttributedRun) -> Result<(), String> {
    let (ledger, total) = (run.ledger.total(), run.result.total_cycles);
    if ledger == total {
        Ok(())
    } else {
        Err(format!(
            "ledger buckets sum to {ledger}, total cycles {total}"
        ))
    }
}

/// `lo ≤ measured ≤ hi` for every level's read misses.
pub fn bounds_contain(bounds: &BoundsReport, measured: &[u64]) -> Result<(), String> {
    if bounds.contains(measured) {
        Ok(())
    } else {
        let ranges: Vec<String> = bounds
            .levels
            .iter()
            .map(|b| format!("{}:[{},{}]", b.name, b.lo, b.hi))
            .collect();
        Err(format!(
            "measured read misses {measured:?} outside {}",
            ranges.join(" ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache::ByteSize;
    use mlc_sim::machine::base_machine;
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn trace() -> Vec<TraceRecord> {
        MultiProgramGenerator::new(Preset::Mips1.config(5))
            .expect("valid preset")
            .generate_records(20_000)
    }

    fn spec() -> GridSpec {
        GridSpec {
            sizes: vec![ByteSize::kib(64), ByteSize::kib(256)],
            cycles: vec![1, 3, 6],
            ways: 1,
        }
    }

    fn onepass(trace: &[TraceRecord]) -> PartialGrid {
        let s = spec();
        Explorer::new(trace, 5_000).try_l2_grid_with(
            SweepEngine::OnePass,
            &BaseMachine::new(),
            &s.sizes,
            &s.cycles,
            s.ways,
        )
    }

    #[test]
    fn grid_gates_catch_a_corrupted_cell() {
        let trace = trace();
        let mut grid = onepass(&trace);
        assert_eq!(complete(&grid), Ok(()));
        assert_eq!(engines_agree(&trace, 5_000, &spec(), &grid.grid), Ok(()));
        let good = grid.grid.clone();
        grid.grid.total[1][2] += 1;
        assert!(engines_agree(&trace, 5_000, &spec(), &grid.grid).is_err());
        assert!(same_grid(&grid.grid, &good).is_err());
        grid.grid = good.clone();
        grid.grid.l2_local[0] = f64::from_bits(good.l2_local[0].to_bits() ^ 1);
        assert!(same_grid(&grid.grid, &good).is_err());
    }

    #[test]
    fn ledger_gate_catches_a_lost_cycle() {
        let trace = trace();
        let mut run = mlc_sim::simulate_with_warmup_attributed(
            base_machine(),
            &trace,
            5_000,
            &mlc_obs::Metrics::default(),
            None,
        )
        .expect("valid machine");
        assert_eq!(ledger_conserves(&run), Ok(()));
        run.result.total_cycles += 1;
        assert!(ledger_conserves(&run).is_err());
    }

    #[test]
    fn bounds_gate_catches_a_miss_count_outside() {
        let trace = trace();
        let config = base_machine();
        let bounds = mlc_wcet::analyze(&config, &trace).expect("base machine is supported");
        let result = mlc_sim::simulate(config, trace.iter().copied()).expect("valid machine");
        let mut measured: Vec<u64> = result
            .levels
            .iter()
            .map(|l| l.cache.read_misses())
            .collect();
        assert_eq!(bounds_contain(&bounds, &measured), Ok(()));
        measured[0] = bounds.levels[0].hi + 1;
        assert!(bounds_contain(&bounds, &measured).is_err());
    }
}
