//! Extending the system with a custom self-aware core — the paper's
//! scalability argument (§3.1): "a new core can be added or modified
//! without updating the rest of the system".
//!
//! We bolt a second, thermal camera onto the standard camcorder workload:
//! it brings its own buffer-occupancy meter and its own traffic shape, and
//! no other component needs to change.
//!
//! ```sh
//! cargo run --release --example custom_core
//! ```

use sara::core::BufferDirection;
use sara::memctrl::PolicyKind;
use sara::scenarios::catalog;
use sara::sim::Simulation;
use sara::types::{CoreKind, MemOp};
use sara::workloads::{DmaSpec, MeterSpec, PatternSpec, TrafficSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Start from the stock case-A camcorder...
    let mut camcorder = catalog::camcorder_a().with_policy(PolicyKind::Priority);

    // ...and add a thermal camera: another constant-rate sensor writing
    // 400 MB/s through a small staging buffer. Its DMA self-monitors with
    // an occupancy meter; the memory system needs no change at all.
    let thermal = DmaSpec::new(
        "thermal-cam-wr",
        MemOp::Write,
        TrafficSpec::Constant { bytes_per_s: 0.4e9 },
        PatternSpec::Sequential {
            region_bytes: 16 << 20,
        },
        MeterSpec::Occupancy {
            direction: BufferDirection::ConstantFill,
            capacity_bytes: 64 << 10,
        },
        6,
    );
    camcorder
        .cores
        .iter_mut()
        .find(|c| c.kind == CoreKind::Camera)
        .expect("camera present in case A")
        .dmas
        .push(thermal);

    let mut sim = Simulation::new(camcorder.config()?)?;
    let report = sim.run_for_ms(4.0);
    println!("{}", report.summary());

    let camera = report.core(CoreKind::Camera).expect("camera reported");
    println!(
        "camera cluster (incl. thermal DMA): min NPI {:.3} -> {}",
        camera.min_npi,
        if camera.failed {
            "needs retuning"
        } else {
            "both sensors healthy"
        }
    );
    Ok(())
}
