//! Pinned guaranteed-bounds reports.
//!
//! `mlc_wcet::analyze` is deterministic, so its whole `BoundsReport` on
//! a fixed trace is a regression fingerprint of the abstract domains,
//! the fixpoints and the multi-level filter. The expected rows below
//! were printed by the `BTreeMap`-based implementation the sorted
//! per-set vectors replaced; any change to a classification count, a
//! bound or a cycle figure fails here.

use mlc::cache::{ByteSize, CacheConfig};
use mlc::sim::machine::{base_machine, BaseMachine};
use mlc::sim::{HierarchyConfig, LevelCacheConfig, LevelConfig};
use mlc::trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc::trace::TraceRecord;
use mlc_wcet::BoundsReport;

/// The machine shapes: the paper's base machine, a three-level
/// hierarchy, a 4-way L2 and a 2-way L1.
fn shapes() -> Vec<(&'static str, HierarchyConfig)> {
    let mut three_level = base_machine();
    let l3 = CacheConfig::builder()
        .total(ByteSize::mib(2))
        .block_bytes(32)
        .build()
        .expect("valid L3");
    three_level
        .levels
        .push(LevelConfig::new("L3", LevelCacheConfig::Unified(l3), 6));
    let l2_4way = BaseMachine::new()
        .l2_ways(4)
        .build()
        .expect("valid 4-way L2");
    let l1_2way = BaseMachine::new()
        .l1_ways(2)
        .build()
        .expect("valid 2-way L1");
    vec![
        ("base", base_machine()),
        ("three-level", three_level),
        ("l2-4way", l2_4way),
        ("l1-2way", l1_2way),
    ]
}

fn trace(preset: Preset) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(preset.config(5))
        .expect("valid preset")
        .generate_records(20_000)
}

/// One level as `[reads_max, lo, hi, always_hit, always_miss,
/// first_miss, not_classified, filtered]`.
type Row = [u64; 8];

/// The report in pinned form: per-level rows, then `[read_records,
/// read_cycles_lo, read_cycles_hi, writes_widen]`.
fn pinned(report: &BoundsReport) -> (Vec<Row>, [u64; 4]) {
    let rows = report
        .levels
        .iter()
        .map(|b| {
            [
                b.reads_max,
                b.lo,
                b.hi,
                b.always_hit,
                b.always_miss,
                b.first_miss,
                b.not_classified,
                b.filtered,
            ]
        })
        .collect();
    let totals = [
        report.read_records,
        report.read_cycles_lo,
        report.read_cycles_hi,
        u64::from(report.writes_widen),
    ];
    (rows, totals)
}

/// `(trace, shape, level rows, totals)` as printed before the rewrite.
/// `-reads` traces keep only the reads, so the must and persistence
/// analyses also run below L1 (writes switch them off there).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &[Row], [u64; 4])] = &[
    ("mips1", "base", &[[15579, 2191, 2191, 13388, 2191, 0, 0, 0], [2191, 680, 2191, 0, 0, 0, 2191, 13388]], [15579, 40512, 81309, 1]),
    ("mips1", "three-level", &[[15579, 2191, 2191, 13388, 2191, 0, 0, 0], [2191, 680, 2191, 0, 0, 0, 2191, 13388], [2191, 680, 2191, 0, 0, 0, 2191, 13388]], [15579, 50712, 114174, 1]),
    ("mips1", "l2-4way", &[[15579, 2191, 2191, 13388, 2191, 0, 0, 0], [2191, 680, 2191, 0, 0, 0, 2191, 13388]], [15579, 40512, 81309, 1]),
    ("mips1", "l1-2way", &[[15579, 1961, 1961, 13618, 1961, 0, 0, 0], [1961, 680, 1961, 0, 0, 0, 1961, 13618]], [15579, 39822, 74409, 1]),
    ("mips1-reads", "base", &[[15579, 2488, 2488, 13091, 2488, 0, 0, 0], [2488, 884, 884, 1604, 0, 884, 0, 13091]], [15579, 46911, 46911, 0]),
    ("mips1-reads", "three-level", &[[15579, 2488, 2488, 13091, 2488, 0, 0, 0], [2488, 884, 884, 1604, 0, 884, 0, 13091], [884, 884, 884, 0, 0, 884, 0, 14695]], [15579, 60171, 60171, 0]),
    ("mips1-reads", "l2-4way", &[[15579, 2488, 2488, 13091, 2488, 0, 0, 0], [2488, 884, 884, 1604, 0, 884, 0, 13091]], [15579, 46911, 46911, 0]),
    ("mips1-reads", "l1-2way", &[[15579, 2278, 2278, 13301, 2278, 0, 0, 0], [2278, 884, 884, 1394, 0, 884, 0, 13301]], [15579, 46281, 46281, 0]),
    ("ultrix", "base", &[[15700, 2059, 2059, 13641, 2059, 0, 0, 0], [2059, 613, 2059, 0, 0, 0, 2059, 13641]], [15700, 38428, 77470, 1]),
    ("ultrix", "three-level", &[[15700, 2059, 2059, 13641, 2059, 0, 0, 0], [2059, 613, 2059, 0, 0, 0, 2059, 13641], [2059, 613, 2059, 0, 0, 0, 2059, 13641]], [15700, 47623, 108355, 1]),
    ("ultrix", "l2-4way", &[[15700, 2059, 2059, 13641, 2059, 0, 0, 0], [2059, 613, 2059, 0, 0, 0, 2059, 13641]], [15700, 38428, 77470, 1]),
    ("ultrix", "l1-2way", &[[15700, 1923, 1923, 13777, 1923, 0, 0, 0], [1923, 613, 1923, 0, 0, 0, 1923, 13777]], [15700, 38020, 73390, 1]),
    ("ultrix-reads", "base", &[[15700, 2390, 2390, 13310, 2390, 0, 0, 0], [2390, 821, 821, 1569, 0, 821, 0, 13310]], [15700, 45037, 45037, 0]),
    ("ultrix-reads", "three-level", &[[15700, 2390, 2390, 13310, 2390, 0, 0, 0], [2390, 821, 821, 1569, 0, 821, 0, 13310], [821, 821, 821, 0, 0, 821, 0, 14879]], [15700, 57352, 57352, 0]),
    ("ultrix-reads", "l2-4way", &[[15700, 2390, 2390, 13310, 2390, 0, 0, 0], [2390, 821, 821, 1569, 0, 821, 0, 13310]], [15700, 45037, 45037, 0]),
    ("ultrix-reads", "l1-2way", &[[15700, 2237, 2237, 13463, 2237, 0, 0, 0], [2237, 821, 821, 1416, 0, 821, 0, 13463]], [15700, 44578, 44578, 0]),
];

#[test]
fn bounds_reports_match_the_pinned_values() {
    let mut expected = GOLDEN.iter();
    for (name, preset) in [("mips1", Preset::Mips1), ("ultrix", Preset::Ultrix)] {
        let all = trace(preset);
        let reads: Vec<TraceRecord> = all.iter().copied().filter(|r| r.kind.is_read()).collect();
        for (tname, records) in [(name.to_string(), all), (format!("{name}-reads"), reads)] {
            for (sname, config) in shapes() {
                let &(gt, gs, rows, totals) = expected.next().expect("a pinned row per case");
                assert_eq!((gt, gs), (tname.as_str(), sname), "case order");
                let report = mlc_wcet::analyze(&config, &records).expect("supported");
                assert_eq!(
                    pinned(&report),
                    (rows.to_vec(), totals),
                    "{tname} on {sname}"
                );
            }
        }
    }
    assert!(expected.next().is_none(), "every pinned row was checked");
}
