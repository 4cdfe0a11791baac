//! Quickstart: build a tiny heterogeneous system by hand, run it for a
//! millisecond, and inspect each core's self-reported health.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sara::core::BufferDirection;
use sara::memctrl::PolicyKind;
use sara::scenarios::Scenario;
use sara::sim::Simulation;
use sara::types::{CoreKind, MegaHertz, MemOp};
use sara::workloads::{CoreSpec, DmaSpec, MeterSpec, PatternSpec, TrafficSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three cores with three different notions of QoS (§3.1): a display
    // that must keep its read buffer from running dry, a DSP with an
    // average-latency bound, and a best-effort CPU that soaks whatever
    // bandwidth is left.
    let cores = vec![
        CoreSpec::new(
            CoreKind::Display,
            vec![DmaSpec::new(
                "display-rd",
                MemOp::Read,
                TrafficSpec::Constant { bytes_per_s: 1.2e9 },
                PatternSpec::Sequential {
                    region_bytes: 32 << 20,
                },
                MeterSpec::Occupancy {
                    direction: BufferDirection::ConstantDrain,
                    capacity_bytes: 256 << 10,
                },
                8,
            )],
        ),
        CoreSpec::new(
            CoreKind::Dsp,
            vec![DmaSpec::new(
                "dsp-rd",
                MemOp::Read,
                TrafficSpec::Poisson { bytes_per_s: 0.3e9 },
                PatternSpec::Random {
                    region_bytes: 64 << 20,
                },
                MeterSpec::Latency {
                    limit_ns: 400.0,
                    alpha: 0.05,
                },
                4,
            )],
        ),
        CoreSpec::new(
            CoreKind::Cpu,
            vec![DmaSpec::new(
                "cpu-rd",
                MemOp::Read,
                TrafficSpec::Elastic,
                PatternSpec::Sequential {
                    region_bytes: 128 << 20,
                },
                MeterSpec::BestEffort,
                16,
            )],
        ),
    ];

    // SARA's priority-based policy end to end: self-monitoring DMAs, a
    // priority-aware NoC, the 42-entry controller, LPDDR4-1866.
    let scenario = Scenario::new("quickstart", "three cores", MegaHertz::new(1866), cores);
    let cfg = scenario.with_policy(PolicyKind::Priority).config()?;
    let mut sim = Simulation::new(cfg)?;
    let report = sim.run_for_ms(1.0);

    println!("{}", report.summary());
    for core in &report.cores {
        println!(
            "{:<10} -> NPI {:.2} ({})",
            core.kind.name(),
            core.final_npi,
            if core.failed {
                "below target at some point"
            } else {
                "target met"
            },
        );
    }
    println!(
        "DRAM delivered {:.2} GB/s at {:.1}% row-buffer hit rate",
        report.bandwidth_gbs,
        report.row_hit_rate * 100.0
    );
    Ok(())
}
