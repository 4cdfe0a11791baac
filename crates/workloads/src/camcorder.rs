//! The camcorder use case (Fig. 2, Table 2) — the paper's evaluation
//! workload, scaled to "next-generation MPSoC" traffic (§4).
//!
//! All 13 heterogeneous cores of Table 2 plus the CPU are modelled, each
//! with the traffic class the paper describes: bursty frame sources (video
//! codec, rotator, image processor, JPEG, GPU), constant-rate sources
//! (camera sensor, display refresh, WiFi/USB streams), Poisson
//! latency-sensitive sources (DSP, audio), periodic work units (GPS, modem)
//! and fixed-rate best-effort CPU background traffic.
//!
//! Rates are the repo's calibrated "next-generation" substitution for the
//! proprietary traces the paper used (README, "Provenance"): fixed-demand cores
//! (QoS cores) sum to ≈ 11 GB/s and the best-effort CPU offers ≈ 9 GB/s
//! more, against a 29.9 GB/s dual-channel LPDDR4-1866 peak whose deliverable
//! fraction depends on row-buffer efficiency — the regime all five figures
//! probe: whether each core meets its target depends on the policy, and the
//! delivered total measures how much of the offered load the policy serves.

use sara_types::{CoreKind, MegaHertz, MemOp};

use crate::builders::{
    bandwidth, batch_kib, best_effort, burst_mb as burst, constant_mb as constant, frame_rate,
    latency_ns, occupancy_drain_kib, occupancy_fill_kib, poisson_mb, random_mib, seq_mib as seq,
    strided_mib, work_unit,
};
use crate::spec::{CoreSpec, DmaSpec};

/// The camcorder frame rate (30 fps → 33.3 ms frame period).
pub const FRAMES_PER_SECOND: f64 = 30.0;

/// The two evaluation configurations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestCase {
    /// Case A: all cores active, DRAM at 1866 MHz.
    A,
    /// Case B: GPS, camera, rotator and JPEG inactive, DRAM at 1700 MHz.
    B,
}

impl TestCase {
    /// The DRAM I/O frequency of this case (Table 1).
    pub fn dram_freq(self) -> MegaHertz {
        match self {
            TestCase::A => MegaHertz::new(1866),
            TestCase::B => MegaHertz::new(1700),
        }
    }

    /// Core kinds disabled in this case.
    pub fn inactive(self) -> &'static [CoreKind] {
        match self {
            TestCase::A => &[],
            TestCase::B => &[
                CoreKind::Gps,
                CoreKind::Camera,
                CoreKind::Rotator,
                CoreKind::Jpeg,
            ],
        }
    }

    /// The core specs of this case.
    pub fn cores(self) -> Vec<CoreSpec> {
        let inactive = self.inactive();
        camcorder_cores()
            .into_iter()
            .filter(|c| !inactive.contains(&c.kind))
            .collect()
    }

    /// The critical cores plotted in the paper's NPI figures.
    pub fn critical_cores(self) -> Vec<CoreKind> {
        match self {
            TestCase::A => vec![
                CoreKind::ImageProcessor,
                CoreKind::Rotator,
                CoreKind::VideoCodec,
                CoreKind::Display,
                CoreKind::Camera,
                CoreKind::Usb,
                CoreKind::Gps,
                CoreKind::WiFi,
            ],
            TestCase::B => vec![
                CoreKind::ImageProcessor,
                CoreKind::VideoCodec,
                CoreKind::Display,
                CoreKind::Usb,
                CoreKind::Dsp,
                CoreKind::WiFi,
            ],
        }
    }
}

/// All camcorder cores (case A superset).
///
/// # Examples
///
/// ```
/// use sara_workloads::camcorder_cores;
///
/// let cores = camcorder_cores();
/// assert_eq!(cores.len(), 14); // 13 heterogeneous cores + CPU
/// let total: f64 = cores.iter().map(|c| c.mean_demand_bytes_per_s()).sum();
/// assert!((19.0e9..21.5e9).contains(&total)); // ≈20 GB/s offered (11 QoS + 9 CPU)
/// ```
pub fn camcorder_cores() -> Vec<CoreSpec> {
    vec![
        // --- frame-rate (bursty) media cores -------------------------------
        CoreSpec::new(
            CoreKind::Gpu,
            vec![
                DmaSpec::new(
                    "gpu-rd",
                    MemOp::Read,
                    burst(1100.0),
                    seq(64),
                    frame_rate(),
                    28,
                ),
                DmaSpec::new(
                    "gpu-wr",
                    MemOp::Write,
                    burst(550.0),
                    seq(32),
                    frame_rate(),
                    14,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::ImageProcessor,
            vec![
                DmaSpec::new(
                    "imgproc-rd",
                    MemOp::Read,
                    burst(1000.0),
                    seq(64),
                    frame_rate(),
                    28,
                ),
                DmaSpec::new(
                    "imgproc-wr",
                    MemOp::Write,
                    burst(1300.0),
                    seq(64),
                    frame_rate(),
                    40,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::VideoCodec,
            vec![
                DmaSpec::new(
                    "codec-rd",
                    MemOp::Read,
                    burst(1150.0),
                    seq(64),
                    frame_rate(),
                    28,
                ),
                DmaSpec::new(
                    "codec-wr",
                    MemOp::Write,
                    burst(900.0),
                    seq(64),
                    frame_rate(),
                    22,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::Rotator,
            vec![
                DmaSpec::new(
                    "rotator-rd",
                    MemOp::Read,
                    burst(550.0),
                    seq(32),
                    frame_rate(),
                    14,
                ),
                // Column-order writes: row-buffer adversarial.
                DmaSpec::new(
                    "rotator-wr",
                    MemOp::Write,
                    burst(550.0),
                    strided_mib(32, 64),
                    frame_rate(),
                    14,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::Jpeg,
            vec![
                DmaSpec::new(
                    "jpeg-rd",
                    MemOp::Read,
                    burst(300.0),
                    seq(16),
                    frame_rate(),
                    8,
                ),
                DmaSpec::new(
                    "jpeg-wr",
                    MemOp::Write,
                    burst(150.0),
                    seq(8),
                    frame_rate(),
                    4,
                ),
            ],
        ),
        // --- constant-rate buffered media cores ----------------------------
        CoreSpec::new(
            CoreKind::Camera,
            vec![DmaSpec::new(
                "camera-wr",
                MemOp::Write,
                constant(900.0),
                seq(64),
                occupancy_fill_kib(256),
                8,
            )],
        ),
        CoreSpec::new(
            CoreKind::Display,
            vec![DmaSpec::new(
                "display-rd",
                MemOp::Read,
                constant(1500.0),
                seq(64),
                occupancy_drain_kib(512),
                8,
            )],
        ),
        // --- latency-bounded cores ------------------------------------------
        CoreSpec::new(
            CoreKind::Dsp,
            vec![DmaSpec::new(
                "dsp-rd",
                MemOp::Read,
                poisson_mb(300.0),
                random_mib(64),
                latency_ns(350.0, 0.05),
                4,
            )],
        ),
        CoreSpec::new(
            CoreKind::Audio,
            vec![DmaSpec::new(
                "audio-rd",
                MemOp::Read,
                poisson_mb(8.0),
                random_mib(4),
                latency_ns(800.0, 0.2),
                2,
            )],
        ),
        // --- work-unit (processing time) cores ------------------------------
        CoreSpec::new(
            CoreKind::Gps,
            vec![DmaSpec::new(
                "gps-rd",
                MemOp::Read,
                batch_kib(1024, 5.0e6, 1.5e6), // 1 MiB every 5 ms, due in 1.5 ms
                seq(8),
                work_unit(),
                2,
            )],
        ),
        CoreSpec::new(
            CoreKind::Modem,
            vec![DmaSpec::new(
                "modem-wr",
                MemOp::Write,
                batch_kib(256, 4.0e6, 2.5e6), // 256 KiB every 4 ms, due in 2.5 ms
                seq(8),
                work_unit(),
                4,
            )],
        ),
        // --- bandwidth cores --------------------------------------------------
        CoreSpec::new(
            CoreKind::WiFi,
            vec![DmaSpec::new(
                "wifi-wr",
                MemOp::Write,
                constant(160.0),
                seq(8),
                bandwidth(0.9, 2.0e5), // 90% of rate over a 200 µs window
                4,
            )],
        ),
        CoreSpec::new(
            CoreKind::Usb,
            vec![DmaSpec::new(
                "usb-rd",
                MemOp::Read,
                constant(350.0),
                seq(16),
                bandwidth(0.9, 2.0e5),
                8,
            )],
        ),
        // --- best-effort CPU ---------------------------------------------------
        // Fixed-rate background (≈9 GB/s offered): enough that the weaker
        // policies cannot serve all of it, which is what makes the
        // delivered-bandwidth comparison of Fig. 8 meaningful. No QoS
        // target — the CPU stays at the lowest priority.
        CoreSpec::new(
            CoreKind::Cpu,
            vec![
                DmaSpec::new(
                    "cpu-rd-seq",
                    MemOp::Read,
                    poisson_mb(4500.0),
                    seq(128),
                    best_effort(),
                    48,
                ),
                DmaSpec::new(
                    "cpu-rd-rand",
                    MemOp::Read,
                    poisson_mb(2000.0),
                    random_mib(256),
                    best_effort(),
                    24,
                ),
                DmaSpec::new(
                    "cpu-wr",
                    MemOp::Write,
                    poisson_mb(2500.0),
                    seq(64),
                    best_effort(),
                    32,
                ),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MeterSpec;
    use sara_types::CoreClass;

    #[test]
    fn case_a_has_all_cores() {
        let cores = TestCase::A.cores();
        assert_eq!(cores.len(), 14);
        assert_eq!(TestCase::A.dram_freq().as_u32(), 1866);
    }

    #[test]
    fn case_b_disables_four_cores() {
        let cores = TestCase::B.cores();
        assert_eq!(cores.len(), 10);
        assert_eq!(TestCase::B.dram_freq().as_u32(), 1700);
        for c in &cores {
            assert!(!TestCase::B.inactive().contains(&c.kind));
        }
    }

    #[test]
    fn every_table2_core_present_once() {
        let cores = camcorder_cores();
        for kind in CoreKind::ALL {
            assert_eq!(
                cores.iter().filter(|c| c.kind == kind).count(),
                1,
                "{kind} must appear exactly once"
            );
        }
    }

    #[test]
    fn class_mix_covers_all_queues() {
        let cores = camcorder_cores();
        for class in CoreClass::ALL {
            assert!(
                cores.iter().any(|c| c.kind.class() == class),
                "class {class} must be exercised"
            );
        }
    }

    #[test]
    fn meter_types_match_table2() {
        let cores = camcorder_cores();
        let meter_of = |kind: CoreKind| -> &MeterSpec {
            &cores.iter().find(|c| c.kind == kind).unwrap().dmas[0].meter
        };
        assert!(matches!(meter_of(CoreKind::Gpu), MeterSpec::FrameRate));
        assert!(matches!(meter_of(CoreKind::Dsp), MeterSpec::Latency { .. }));
        assert!(matches!(
            meter_of(CoreKind::Display),
            MeterSpec::Occupancy { .. }
        ));
        assert!(matches!(
            meter_of(CoreKind::Camera),
            MeterSpec::Occupancy { .. }
        ));
        assert!(matches!(
            meter_of(CoreKind::WiFi),
            MeterSpec::Bandwidth { .. }
        ));
        assert!(matches!(
            meter_of(CoreKind::Usb),
            MeterSpec::Bandwidth { .. }
        ));
        assert!(matches!(meter_of(CoreKind::Gps), MeterSpec::WorkUnit));
        assert!(matches!(meter_of(CoreKind::Modem), MeterSpec::WorkUnit));
        assert!(matches!(
            meter_of(CoreKind::Audio),
            MeterSpec::Latency { .. }
        ));
        assert!(matches!(meter_of(CoreKind::Cpu), MeterSpec::BestEffort));
    }

    #[test]
    fn critical_core_lists_match_figures() {
        assert_eq!(TestCase::A.critical_cores().len(), 8);
        assert!(TestCase::B.critical_cores().contains(&CoreKind::Dsp));
        assert!(!TestCase::B.critical_cores().contains(&CoreKind::Camera));
    }

    #[test]
    fn fixed_demand_fits_design_envelope() {
        let total: f64 = camcorder_cores()
            .iter()
            .map(|c| c.mean_demand_bytes_per_s())
            .sum();
        // `sara repro table2`: ~20 GB/s offered against 29.9 GB/s peak.
        assert!((19.0e9..21.5e9).contains(&total), "total = {total}");
    }
}
