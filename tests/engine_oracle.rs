//! Cross-shape oracle for the one timing engine: seeded random machine
//! shapes × seeded random traces.
//!
//! For every case:
//!
//! * lane 0 of a timing sweep, at every width in `LANE_WIDTHS`, equals
//!   `simulate_with_warmup` of lane 0's configuration;
//! * the attributed simulator's cycle ledger conserves
//!   (`ledger.total() == total_cycles`);
//! * the plain drivers (no-op observer) return the same `SimResult` as
//!   attributed runs.
//!
//! Only lane 0 is asserted. The other lanes follow lane 0's lazy
//! write-buffer drain decisions, so they may differ from their own scalar
//! runs wherever their drain window would have differed.
//!
//! The shapes and traces come from `mlc-sim`'s `random_cases` module,
//! which its ISA-tier equivalence test shares.

use mlc::sim::{
    simulate, simulate_timing_sweep, simulate_with_warmup, simulate_with_warmup_attributed,
    CpuConfig, HierarchyConfig, HierarchySim, LevelCacheConfig, LevelConfig, MemoryConfig,
    TimingSweepSim, LANE_WIDTHS,
};
use mlc::trace::synth::Xoshiro;
use mlc_obs::Metrics;

#[path = "../crates/sim/src/random_cases.rs"]
mod random_cases;
use random_cases::{pick, rand_machine, rand_trace, retimed};

#[test]
fn one_engine_agrees_with_itself_across_shapes_and_widths() {
    const CASES: u64 = 24;
    for case in 0..CASES {
        let seed = 0x5DEE_CE66_D1CE_u64.wrapping_mul(case + 1);
        let mut rng = Xoshiro::seed_from_u64(seed);
        let config = rand_machine(&mut rng);
        let len = pick(&mut rng, 1_000, 4_000) as usize;
        let trace = rand_trace(&mut rng, len);
        let warmup = trace.len() / 4;
        let ctx = format!("case {case} (seed {seed:#x}), machine {config:?}");

        // Attributed runs: the ledger conserves, and the no-op observer
        // drivers return the same results.
        let attributed = simulate_with_warmup_attributed(
            config.clone(),
            &trace,
            warmup,
            &Metrics::disabled(),
            None,
        )
        .unwrap();
        assert_eq!(
            attributed.ledger.total(),
            attributed.result.total_cycles,
            "{ctx}"
        );
        let plain = simulate_with_warmup(config.clone(), trace.iter().copied(), warmup).unwrap();
        assert_eq!(plain, attributed.result, "{ctx}");

        let mut sim = HierarchySim::new(config.clone()).unwrap();
        sim.run(trace.iter().copied());
        assert_eq!(sim.ledger().total(), sim.result().total_cycles, "{ctx}");
        assert_eq!(
            simulate(config.clone(), trace.iter().copied()).unwrap(),
            sim.result(),
            "{ctx}"
        );

        // Lane 0 at every width is the scalar simulation of its config.
        let mut configs = vec![config.clone()];
        configs.extend((1..24).map(|_| retimed(&mut rng, &config)));
        for &width in &LANE_WIDTHS {
            let lanes = &configs[..width];
            assert_eq!(TimingSweepSim::new(lanes).unwrap().width(), width);
            let swept = simulate_timing_sweep(lanes, &trace, warmup).unwrap();
            assert_eq!(swept[0], plain, "W{width} lane 0, {ctx}");
        }
    }
}
