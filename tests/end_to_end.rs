//! End-to-end integration tests: the full DMA → NoC → controller → DRAM
//! closed loop loses no transaction and reports every core.
//!
//! The paper's claims are checked by `sara repro` (one table, in
//! `crates/cli/src/commands/repro.rs`), at 3 ms in the CLI's integration
//! tests and at the full 33 ms frame in `docs/reproduction.txt`.

use sara::memctrl::PolicyKind;
use sara::scenarios::catalog;
use sara::sim::Simulation;

#[test]
fn conservation_no_transactions_lost() {
    let cfg = catalog::camcorder_a().with_policy(PolicyKind::Priority);
    let cfg = cfg.config().unwrap();
    let mut sim = Simulation::new(cfg).unwrap();
    let report = sim.run_for_ms(1.0);
    // Every class: accepted == completed + still-queued; nothing vanishes.
    let mc = &report.mc;
    for class in sara::types::CoreClass::ALL {
        let s = mc.class(class);
        assert!(
            s.accepted >= s.completed,
            "{class}: completed {} exceeds accepted {}",
            s.completed,
            s.accepted
        );
        assert!(
            s.accepted - s.completed <= 42,
            "{class}: more residual entries than the controller can hold"
        );
    }
    // DRAM column accesses match controller completions.
    let dram_columns = report.dram.total.reads + report.dram.total.writes;
    assert_eq!(dram_columns, mc.total_completed());
}

#[test]
fn report_summary_is_complete() {
    let camcorder = catalog::camcorder_a().with_policy(PolicyKind::Priority);
    let report = camcorder.run_for_ms(0.5).unwrap();
    let summary = report.summary();
    for core in camcorder.cores {
        assert!(
            summary.contains(core.kind.name()),
            "summary must list {}",
            core.kind.name()
        );
    }
    assert_eq!(report.cores.len(), 14);
    assert!(report.elapsed_ms > 0.49 && report.elapsed_ms < 0.51);
}
