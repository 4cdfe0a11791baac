//! The paper's camcorder use case (Fig. 2): all Table 2 cores recording,
//! snapshotting and previewing simultaneously, under the SARA policy.
//!
//! Runs a quarter frame by default; pass `--full` for a whole 33 ms frame
//! (a few minutes in debug builds, seconds in release).
//!
//! ```sh
//! cargo run --release --example camcorder [-- --full]
//! ```

use sara::memctrl::PolicyKind;
use sara::scenarios::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");
    let duration_ms = if full { 33.334 } else { 8.0 };

    // Table 1's two cases are the catalog entries camcorder-a and -b.
    for name in ["camcorder-a", "camcorder-b"] {
        let case = catalog::by_name(name).expect("a catalog entry");
        let case = case.with_policy(PolicyKind::Priority);
        let report = case.run_for_ms(duration_ms)?;
        println!("== {name} @ {} — priority-based QoS ==", case.freq);
        println!("{}", report.summary());
        if report.all_targets_met() {
            println!("all heterogeneous cores met their targets\n");
        } else {
            println!("targets missed by: {:?}\n", report.failed_cores());
        }
    }
    Ok(())
}
