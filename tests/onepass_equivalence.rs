//! The acceptance gate of the one-pass sweep engine: on the paper's base
//! machine, `Explorer::l2_grid` under the one-pass engine must reproduce
//! the exhaustive engine cycle-exact — same total-execution-cycle matrix,
//! bit-identical miss ratios — on a 4-size × 4-cycle-time grid, and on
//! grids as wide as the lane widths the repo benchmark runs (W24 and W6),
//! which take the CPU's widest ISA tier where it has one.

use mlc::cache::ByteSize;
use mlc::core::{size_ladder, verify_grids, Explorer, SweepEngine};
use mlc::sim::machine::BaseMachine;
use mlc::trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc::trace::TraceRecord;

fn trace(preset: Preset, seed: u64, n: usize) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(preset.config(seed))
        .expect("valid preset")
        .generate_records(n)
}

#[test]
fn l2_grid_onepass_matches_exhaustive_on_base_machine() {
    let records = trace(Preset::Vms1, 42, 120_000);
    let explorer = Explorer::new(&records, 30_000);
    let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(256)); // 4 sizes
    let cycles: Vec<u64> = vec![1, 2, 4, 7]; // 4 cycle times
    assert_eq!(sizes.len(), 4);

    let base = BaseMachine::new();
    let exhaustive = explorer.l2_grid_with(SweepEngine::Exhaustive, &base, &sizes, &cycles, 1);
    let onepass = explorer.l2_grid_with(SweepEngine::OnePass, &base, &sizes, &cycles, 1);

    verify_grids(&exhaustive, &onepass)
        .unwrap_or_else(|d| panic!("one-pass engine diverged from exhaustive: {d}"));
    // The default engine is the one-pass path: the public entry point
    // must give the exact same grid.
    let default = explorer.l2_grid(&base, &sizes, &cycles, 1);
    assert_eq!(default, onepass);
}

/// One-pass vs exhaustive on the paper's base machine at `ways`-way L2
/// over `sizes` × `cycles`.
fn assert_engines_agree(records: &[TraceRecord], ways: u32, sizes: &[ByteSize], cycles: &[u64]) {
    let explorer = Explorer::new(records, records.len() / 4);
    let base = BaseMachine::new();
    let exhaustive = explorer.l2_grid_with(SweepEngine::Exhaustive, &base, sizes, cycles, ways);
    let onepass = explorer.l2_grid_with(SweepEngine::OnePass, &base, sizes, cycles, ways);
    verify_grids(&exhaustive, &onepass).unwrap_or_else(|d| {
        panic!(
            "one-pass engine diverged on a {}x{} {ways}-way grid: {d}",
            sizes.len(),
            cycles.len()
        )
    });
}

/// 24 cycle times: one full-width (W24) lane pass per size.
#[test]
fn full_width_grid_matches_exhaustive() {
    let records = trace(Preset::Vms1, 42, 60_000);
    let cycles: Vec<u64> = (1..=24).collect();
    assert_engines_agree(
        &records,
        1,
        &[ByteSize::kib(64), ByteSize::kib(256)],
        &cycles,
    );
}

/// 6 cycle times at a 4-way L2: the benchmark's narrow (W6) pass.
#[test]
fn narrow_associative_grid_matches_exhaustive() {
    let records = trace(Preset::Mips1, 11, 60_000);
    assert_engines_agree(
        &records,
        4,
        &[ByteSize::kib(32), ByteSize::kib(128)],
        &[1, 2, 3, 5, 8, 12],
    );
}

#[test]
fn engines_agree_on_associative_l2_and_slow_memory() {
    let records = trace(Preset::Mips1, 9, 80_000);
    let explorer = Explorer::new(&records, 20_000);
    let sizes = size_ladder(ByteSize::kib(64), ByteSize::kib(128));
    let cycles: Vec<u64> = vec![2, 5];
    let mut base = BaseMachine::new();
    base.l2_ways(4).memory_scale(2.0);
    let exhaustive = explorer.l2_grid_with(SweepEngine::Exhaustive, &base, &sizes, &cycles, 4);
    let onepass = explorer.l2_grid_with(SweepEngine::OnePass, &base, &sizes, &cycles, 4);
    verify_grids(&exhaustive, &onepass)
        .unwrap_or_else(|d| panic!("engines diverged off the base point: {d}"));
}

/// The miss-ratio curve's solo column (now computed by the stack engine
/// on eligible organisations) must agree with the hierarchy runs'
/// invariants: solo, local and global all in [0, 1], local >= global.
#[test]
fn miss_ratio_curve_solo_column_is_consistent() {
    let records = trace(Preset::Mips2, 5, 100_000);
    let explorer = Explorer::new(&records, 25_000);
    let sizes = size_ladder(ByteSize::kib(16), ByteSize::kib(128));
    let curve = explorer.miss_ratio_curve(&BaseMachine::new(), &sizes);
    assert_eq!(curve.len(), sizes.len());
    for p in &curve {
        assert!(
            p.solo > 0.0 && p.solo <= 1.0,
            "solo out of range at {}",
            p.size
        );
        assert!(p.local >= p.global - 1e-12);
    }
    // Solo ratios fall with size on a real workload.
    assert!(curve.last().unwrap().solo < curve[0].solo);
}
