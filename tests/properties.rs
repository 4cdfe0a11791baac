//! Workspace-level property tests: whatever the (small, random) workload
//! and policy, the co-simulated system must preserve its invariants —
//! nothing is lost or double-counted, bandwidth never exceeds the physical
//! peak, and health readings stay well-formed.
//!
//! Randomisation is driven by the in-tree seeded `rand` stand-in (the
//! workspace builds offline, so `proptest` is not available): every case
//! derives from a fixed seed and replays identically, which doubles as a
//! regression anchor — a failure message quotes the case seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sara::core::BufferDirection;
use sara::memctrl::PolicyKind;
use sara::scenarios::Scenario;
use sara::sim::Simulation;
use sara::types::{CoreKind, MegaHertz, MemOp};
use sara::workloads::{CoreSpec, DmaSpec, MeterSpec, PatternSpec, TrafficSpec};

#[derive(Debug, Clone)]
struct RandomDma {
    kind_sel: u8,
    rate_mb_s: f64,
    window: usize,
    is_read: bool,
    pattern_sel: u8,
}

impl RandomDma {
    fn draw(rng: &mut StdRng) -> Self {
        RandomDma {
            kind_sel: rng.gen_range(0u8..4),
            rate_mb_s: rng.gen_range(50.0f64..1500.0),
            window: rng.gen_range(2usize..24),
            is_read: rng.gen_bool(0.5),
            pattern_sel: rng.gen_range(0u8..3),
        }
    }
}

fn build_core(idx: usize, spec: &RandomDma) -> CoreSpec {
    let kinds = [
        CoreKind::Cpu,
        CoreKind::Gpu,
        CoreKind::Display,
        CoreKind::Usb,
    ];
    let kind = kinds[spec.kind_sel as usize % kinds.len()];
    let rate = spec.rate_mb_s * 1e6;
    let pattern = match spec.pattern_sel {
        0 => PatternSpec::Sequential {
            region_bytes: 8 << 20,
        },
        1 => PatternSpec::Random {
            region_bytes: 8 << 20,
        },
        _ => PatternSpec::Strided {
            region_bytes: 8 << 20,
            stride_bytes: 16 << 10,
        },
    };
    // Traffic/meter combinations that are valid for any core kind.
    let (traffic, meter) = match spec.kind_sel % 3 {
        0 => (
            TrafficSpec::Constant { bytes_per_s: rate },
            MeterSpec::Bandwidth {
                target_fraction: 0.9,
                window_ns: 1e5,
            },
        ),
        1 => (
            TrafficSpec::Constant { bytes_per_s: rate },
            MeterSpec::Occupancy {
                direction: if spec.is_read {
                    BufferDirection::ConstantDrain
                } else {
                    BufferDirection::ConstantFill
                },
                capacity_bytes: 128 << 10,
            },
        ),
        _ => (
            TrafficSpec::Poisson { bytes_per_s: rate },
            MeterSpec::Latency {
                limit_ns: 600.0,
                alpha: 0.1,
            },
        ),
    };
    CoreSpec::new(
        kind,
        vec![DmaSpec::new(
            format!("rand-{idx}"),
            if spec.is_read {
                MemOp::Read
            } else {
                MemOp::Write
            },
            traffic,
            pattern,
            meter,
            spec.window,
        )],
    )
}

#[test]
fn random_workloads_preserve_invariants() {
    for case_seed in 0u64..8 {
        let mut rng = StdRng::seed_from_u64(0x9ab5_0000 + case_seed);
        let n_dmas = rng.gen_range(1usize..5);
        let cores: Vec<CoreSpec> = (0..n_dmas)
            .map(|i| build_core(i, &RandomDma::draw(&mut rng)))
            .collect();
        let policy = PolicyKind::ALL[rng.gen_range(0usize..PolicyKind::ALL.len())];
        let scenario = Scenario::new("random", "", MegaHertz::new(1866), cores);
        let mut cfg = scenario.with_policy(policy).config().unwrap();
        cfg.seed = rng.next_u64();
        let mut sim = Simulation::new(cfg).unwrap();
        let report = sim.run_for_ms(0.25);

        // Conservation: completions never exceed admissions; residuals fit
        // in the controller.
        for class in sara::types::CoreClass::ALL {
            let s = report.mc.class(class);
            assert!(s.completed <= s.accepted, "case {case_seed}");
            assert!(s.accepted - s.completed <= 42, "case {case_seed}");
        }
        // DRAM column accesses == controller completions.
        let columns = report.dram.total.reads + report.dram.total.writes;
        assert_eq!(columns, report.mc.total_completed(), "case {case_seed}");
        // Row outcomes partition the column accesses.
        assert_eq!(
            report.dram.total.row_hits
                + report.dram.total.row_misses
                + report.dram.total.row_conflicts,
            columns,
            "case {case_seed}"
        );
        // Bandwidth bounded by the physical peak.
        assert!(report.bandwidth_gbs <= 29.9 + 1e-6, "case {case_seed}");
        // Health readings well-formed.
        for (kind, series) in &report.npi_series {
            for v in series {
                assert!(*v >= 0.0, "case {case_seed}, {kind}: negative NPI");
                assert!(!v.is_nan(), "case {case_seed}, {kind}: NaN NPI");
            }
        }
        // Residency normalised (or all-zero before the first sample).
        for core in &report.cores {
            let total: f64 = core.priority_residency.iter().sum();
            assert!(
                total == 0.0 || (total - 1.0).abs() < 1e-6,
                "case {case_seed}: residency sums to {total}"
            );
        }
    }
}

#[test]
fn per_dma_accounting_is_consistent() {
    for case_seed in 0u64..8 {
        let mut rng = StdRng::seed_from_u64(0xacc7_0000 + case_seed);
        let window = rng.gen_range(1usize..32);
        let rate = rng.gen_range(100.0f64..2000.0);
        let cores = vec![CoreSpec::new(
            CoreKind::Usb,
            vec![DmaSpec::new(
                "stream",
                MemOp::Read,
                TrafficSpec::Constant {
                    bytes_per_s: rate * 1e6,
                },
                PatternSpec::Sequential {
                    region_bytes: 4 << 20,
                },
                MeterSpec::Bandwidth {
                    target_fraction: 0.9,
                    window_ns: 1e5,
                },
                window,
            )],
        )];
        let scenario = Scenario::new("stream", "", MegaHertz::new(1866), cores);
        let mut cfg = scenario.config().unwrap();
        cfg.seed = rng.next_u64();
        let mut sim = Simulation::new(cfg).unwrap();
        let report = sim.run_for_ms(0.25);
        let usb = report.core(CoreKind::Usb).unwrap();
        // A lone stream on an idle memory system always meets its target.
        assert!(!usb.failed, "case {case_seed}: min NPI = {}", usb.min_npi);
        assert_eq!(usb.bytes, usb.completed * 128, "case {case_seed}");
        assert!(usb.mean_latency > 0.0, "case {case_seed}");
    }
}

/// Screener soundness over generated workloads: at every catalog
/// frequency/channel point, a cell the closed-form model classifies
/// `ProvablyInfeasible` must miss its targets under simulation, and a
/// `ProvablyTrivial` cell must meet them. `NeedsSim` cells claim
/// nothing and are skipped — that asymmetry is the screener's whole
/// contract (`sara matrix --screen=verify` enforces the same thing over
/// the built-in catalog; this covers the generated-workload space).
#[test]
fn analytic_screener_is_sound_under_simulation() {
    use sara::scenarios::random_scenario;
    use sara::sim::{analytic_report, ScreenVerdict};

    // The frequency and channel points the built-in catalog exercises
    // (catalog.rs scenario definitions and the ml-inference variants).
    const CATALOG_FREQS: [u32; 4] = [1333, 1600, 1700, 1866];
    const CATALOG_CHANNELS: [usize; 3] = [2, 4, 8];

    let mut decided = 0usize;
    for seed in 0u64..64 {
        let scenario = random_scenario(seed);
        for freq in CATALOG_FREQS {
            for channels in CATALOG_CHANNELS {
                let cfg = Scenario {
                    freq: MegaHertz::new(freq),
                    channels,
                    ..scenario.clone()
                }
                .config()
                .unwrap_or_else(|e| panic!("seed {seed} @{freq}x{channels}: {e}"));
                let analytic = analytic_report(&cfg);
                if analytic.verdict == ScreenVerdict::NeedsSim {
                    continue;
                }
                decided += 1;
                let at = format!(
                    "seed {seed} @{freq} MHz x{channels}ch ({})",
                    analytic.reason
                );
                let report = Simulation::new(cfg)
                    .unwrap_or_else(|e| panic!("{at}: {e}"))
                    .run_for_ms(0.1);
                assert!(
                    report.bandwidth_gbs <= analytic.bound_gbs * (1.0 + 1e-9),
                    "{at}: simulated {} GB/s above the analytic bound {} GB/s",
                    report.bandwidth_gbs,
                    analytic.bound_gbs
                );
                match analytic.verdict {
                    ScreenVerdict::ProvablyInfeasible => assert!(
                        !report.all_targets_met(),
                        "{at}: ProvablyInfeasible cell met every target"
                    ),
                    ScreenVerdict::ProvablyTrivial => assert!(
                        report.all_targets_met(),
                        "{at}: ProvablyTrivial cell missed a target"
                    ),
                    ScreenVerdict::NeedsSim => unreachable!(),
                }
            }
        }
    }
    // The sweep must actually exercise both sides of the contract, not
    // vacuously pass because nothing was decided.
    assert!(
        decided >= 32,
        "only {decided} of 768 points were provably decided; the screener margins drifted"
    );
}
