//! The built-in scenario catalog: the paper's camcorder plus further
//! allocation problems spanning AR, automotive, mobile, ML offload (at
//! two, four and eight DRAM channels) and a deliberate saturation stress.
//!
//! Every scenario composes the same `TrafficSpec` × `PatternSpec` ×
//! `MeterSpec` vocabulary the camcorder uses (via
//! `sara_workloads::builders`), so each run exercises the full SARA loop:
//! distributed meters, NPI, priority adaptation, and policy-dependent
//! arbitration along the NoC and controller.
//!
//! Offered loads are quoted against the Table 1 LPDDR4 peak of
//! 16 B/cycle × I/O frequency (29.9 GB/s at 1866 MHz): all scenarios except
//! [`saturation`] fit under their platform's peak so a good policy can meet
//! every target, while [`saturation`] and [`adas_overload`] deliberately
//! oversubscribe to probe graceful degradation.

use sara_types::{CoreKind, MegaHertz, MemOp};
use sara_workloads::builders::{
    bandwidth, batch_kib, best_effort, burst_mb, constant_mb, elastic, frame_rate, latency_ns,
    occupancy_drain_kib, occupancy_fill_kib, poisson_mb, random_mib, seq_mib, strided_mib,
    work_unit,
};
use sara_workloads::{CoreSpec, DmaSpec, TestCase};

use crate::governor_spec::GovernorSpec;
use crate::scenario::Scenario;

/// The paper's camcorder, test case A (all 14 cores, 1866 MHz).
pub fn camcorder_a() -> Scenario {
    Scenario::new(
        "camcorder-a",
        "the paper's camcorder use case, all cores active (Table 1 case A)",
        TestCase::A.dram_freq(),
        TestCase::A.cores(),
    )
}

/// The paper's camcorder, test case B (GPS/camera/rotator/JPEG off,
/// 1700 MHz).
pub fn camcorder_b() -> Scenario {
    Scenario::new(
        "camcorder-b",
        "the paper's camcorder use case, four cores inactive (Table 1 case B)",
        TestCase::B.dram_freq(),
        TestCase::B.cores(),
    )
}

/// AR headset: two 90 fps eye-buffer frame sinks, SLAM pose tracking as
/// latency-sensitive Poisson traffic, tracking cameras filling staging
/// buffers, and a render GPU — ≈ 9.5 GB/s of QoS load plus best-effort
/// CPU at 1866 MHz.
pub fn ar_headset() -> Scenario {
    let cores = vec![
        CoreSpec::new(
            CoreKind::Gpu,
            vec![
                DmaSpec::new(
                    "render-rd",
                    MemOp::Read,
                    burst_mb(1600.0),
                    seq_mib(64),
                    frame_rate(),
                    28,
                ),
                DmaSpec::new(
                    "render-wr",
                    MemOp::Write,
                    burst_mb(900.0),
                    seq_mib(32),
                    frame_rate(),
                    22,
                ),
            ],
        ),
        // Two independent eye buffers drained at the panel refresh rate.
        CoreSpec::new(
            CoreKind::Display,
            vec![
                DmaSpec::new(
                    "eye-l-rd",
                    MemOp::Read,
                    constant_mb(1200.0),
                    seq_mib(32),
                    occupancy_drain_kib(512),
                    8,
                ),
                DmaSpec::new(
                    "eye-r-rd",
                    MemOp::Read,
                    constant_mb(1200.0),
                    seq_mib(32),
                    occupancy_drain_kib(512),
                    8,
                ),
            ],
        ),
        // SLAM feature matching: small random reads that must stay fast for
        // pose stability.
        CoreSpec::new(
            CoreKind::Dsp,
            vec![DmaSpec::new(
                "slam-rd",
                MemOp::Read,
                poisson_mb(450.0),
                random_mib(64),
                latency_ns(300.0, 0.05),
                6,
            )],
        ),
        // Inside-out tracking cameras.
        CoreSpec::new(
            CoreKind::Camera,
            vec![
                DmaSpec::new(
                    "track-cam0",
                    MemOp::Write,
                    constant_mb(400.0),
                    seq_mib(16),
                    occupancy_fill_kib(256),
                    6,
                ),
                DmaSpec::new(
                    "track-cam1",
                    MemOp::Write,
                    constant_mb(400.0),
                    seq_mib(16),
                    occupancy_fill_kib(256),
                    6,
                ),
            ],
        ),
        // Reprojection / lens-warp pass.
        CoreSpec::new(
            CoreKind::ImageProcessor,
            vec![
                DmaSpec::new(
                    "warp-rd",
                    MemOp::Read,
                    burst_mb(800.0),
                    seq_mib(32),
                    frame_rate(),
                    20,
                ),
                DmaSpec::new(
                    "warp-wr",
                    MemOp::Write,
                    burst_mb(800.0),
                    strided_mib(32, 64),
                    frame_rate(),
                    20,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::Audio,
            vec![DmaSpec::new(
                "spatial-audio",
                MemOp::Read,
                poisson_mb(12.0),
                random_mib(4),
                latency_ns(800.0, 0.2),
                2,
            )],
        ),
        CoreSpec::new(
            CoreKind::Cpu,
            vec![
                DmaSpec::new(
                    "cpu-rd",
                    MemOp::Read,
                    poisson_mb(3000.0),
                    seq_mib(128),
                    best_effort(),
                    32,
                ),
                DmaSpec::new(
                    "cpu-wr",
                    MemOp::Write,
                    poisson_mb(1500.0),
                    seq_mib(64),
                    best_effort(),
                    16,
                ),
            ],
        ),
    ];
    Scenario::new(
        "ar-headset",
        "90 fps AR headset: dual eye buffers, SLAM latency traffic, tracking cameras",
        MegaHertz::new(1866),
        cores,
    )
    .with_frame_period_ns(1e9 / 90.0)
}

/// Automotive ADAS: four constant-rate cameras, radar/V2X periodic work
/// units with hard deadlines, a sensor-fusion pipeline and a cluster
/// display — ≈ 8.6 GB/s of QoS load at 1600 MHz.
pub fn adas() -> Scenario {
    Scenario::new(
        "adas",
        "automotive ADAS: 4 cameras, radar work units, sensor fusion, cluster display",
        MegaHertz::new(1600),
        adas_cores(700.0, 2200.0),
    )
}

/// Mixed-criticality overload variant of [`adas`]: the same safety-critical
/// sensors but hotter cameras and an unbounded (elastic) infotainment CPU,
/// oversubscribing the platform's lower rungs — the question is who
/// degrades, and how far up the ladder the governor must climb before the
/// answer is "nobody".
pub fn adas_overload() -> Scenario {
    let mut cores = adas_cores(963.0, 0.0);
    // Infotainment goes closed-loop: it will absorb every spare cycle the
    // policy is willing to grant.
    cores.push(CoreSpec::new(
        CoreKind::Cpu,
        vec![
            DmaSpec::new(
                "infotainment-rd",
                MemOp::Read,
                elastic(),
                seq_mib(128),
                best_effort(),
                48,
            ),
            DmaSpec::new(
                "infotainment-wr",
                MemOp::Write,
                elastic(),
                seq_mib(64),
                best_effort(),
                24,
            ),
        ],
    ));
    Scenario::new(
        "adas-overload",
        "ADAS with hot cameras plus an elastic infotainment CPU: mixed-criticality overload",
        MegaHertz::new(1600),
        cores,
    )
    // The catalog's showcase for the online self-aware governor: start on
    // the lowest rung and let the closed loop climb the ladder as the
    // overload bites (see `sara govern --scenarios adas-overload`). The
    // ladder tops out *above* the nominal 1600 MHz platform clock — the
    // governed system is built at the 1866 MHz beat clock — so frequency
    // alone can restore QoS near the top, which is also what lets
    // per-channel control (`sara govern --per-channel`) settle its lanes
    // on different rungs instead of pinning every channel to the ceiling.
    .with_governor(GovernorSpec::new(vec![1120, 1360, 1480, 1600, 1750, 1866]))
}

/// The safety-critical ADAS sensor set. `camera_mb` scales the four
/// cameras; `cpu_mb > 0` adds a rated best-effort CPU (the overload
/// variant substitutes an elastic one).
fn adas_cores(camera_mb: f64, cpu_mb: f64) -> Vec<CoreSpec> {
    let mut cores = vec![
        // Four surround-view cameras filling staging buffers.
        CoreSpec::new(
            CoreKind::Camera,
            vec![
                DmaSpec::new(
                    "cam-front",
                    MemOp::Write,
                    constant_mb(camera_mb),
                    seq_mib(32),
                    occupancy_fill_kib(512),
                    8,
                ),
                DmaSpec::new(
                    "cam-rear",
                    MemOp::Write,
                    constant_mb(camera_mb),
                    seq_mib(32),
                    occupancy_fill_kib(512),
                    8,
                ),
                DmaSpec::new(
                    "cam-left",
                    MemOp::Write,
                    constant_mb(camera_mb),
                    seq_mib(32),
                    occupancy_fill_kib(512),
                    8,
                ),
                DmaSpec::new(
                    "cam-right",
                    MemOp::Write,
                    constant_mb(camera_mb),
                    seq_mib(32),
                    occupancy_fill_kib(512),
                    8,
                ),
            ],
        ),
        // Radar cube processing: 512 KiB every 2 ms, due within 1.5 ms.
        CoreSpec::new(
            CoreKind::Gps,
            vec![DmaSpec::new(
                "radar-rd",
                MemOp::Read,
                batch_kib(512, 2.0e6, 1.5e6),
                seq_mib(8),
                work_unit(),
                4,
            )],
        ),
        // V2X messages: small periodic units with a loose deadline.
        CoreSpec::new(
            CoreKind::Modem,
            vec![DmaSpec::new(
                "v2x-wr",
                MemOp::Write,
                batch_kib(128, 5.0e6, 3.0e6),
                seq_mib(4),
                work_unit(),
                2,
            )],
        ),
        // Fusion: reads all sensor planes each frame, writes the object list.
        CoreSpec::new(
            CoreKind::ImageProcessor,
            vec![
                DmaSpec::new(
                    "fusion-rd",
                    MemOp::Read,
                    burst_mb(1400.0),
                    seq_mib(64),
                    frame_rate(),
                    28,
                ),
                DmaSpec::new(
                    "fusion-wr",
                    MemOp::Write,
                    burst_mb(500.0),
                    seq_mib(16),
                    frame_rate(),
                    12,
                ),
            ],
        ),
        // Emergency-path neural inference: latency-bounded random reads.
        CoreSpec::new(
            CoreKind::Dsp,
            vec![DmaSpec::new(
                "nn-rd",
                MemOp::Read,
                poisson_mb(350.0),
                random_mib(64),
                latency_ns(400.0, 0.05),
                6,
            )],
        ),
        // Instrument-cluster display.
        CoreSpec::new(
            CoreKind::Display,
            vec![DmaSpec::new(
                "cluster-rd",
                MemOp::Read,
                constant_mb(900.0),
                seq_mib(32),
                occupancy_drain_kib(512),
                8,
            )],
        ),
    ];
    if cpu_mb > 0.0 {
        cores.push(CoreSpec::new(
            CoreKind::Cpu,
            vec![DmaSpec::new(
                "cpu-rd",
                MemOp::Read,
                poisson_mb(cpu_mb),
                seq_mib(128),
                best_effort(),
                24,
            )],
        ));
    }
    cores
}

/// Smartphone burst multitasking: a 60 fps game, background JPEG encode,
/// display refresh, WiFi/USB transfers and a heavy bursty CPU — ≈ 7 GB/s
/// of QoS load plus 6 GB/s best-effort at 1700 MHz.
pub fn smartphone_burst() -> Scenario {
    let cores = vec![
        CoreSpec::new(
            CoreKind::Gpu,
            vec![
                DmaSpec::new(
                    "game-rd",
                    MemOp::Read,
                    burst_mb(1500.0),
                    seq_mib(64),
                    frame_rate(),
                    28,
                ),
                DmaSpec::new(
                    "game-wr",
                    MemOp::Write,
                    burst_mb(750.0),
                    seq_mib(32),
                    frame_rate(),
                    18,
                ),
            ],
        ),
        // Background burst: photo-roll JPEG re-encode.
        CoreSpec::new(
            CoreKind::Jpeg,
            vec![
                DmaSpec::new(
                    "jpeg-rd",
                    MemOp::Read,
                    burst_mb(450.0),
                    seq_mib(16),
                    frame_rate(),
                    10,
                ),
                DmaSpec::new(
                    "jpeg-wr",
                    MemOp::Write,
                    burst_mb(200.0),
                    seq_mib(8),
                    frame_rate(),
                    6,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::Display,
            vec![DmaSpec::new(
                "panel-rd",
                MemOp::Read,
                constant_mb(1100.0),
                seq_mib(32),
                occupancy_drain_kib(512),
                8,
            )],
        ),
        CoreSpec::new(
            CoreKind::WiFi,
            vec![DmaSpec::new(
                "wifi-wr",
                MemOp::Write,
                constant_mb(280.0),
                seq_mib(8),
                bandwidth(0.9, 2.0e5),
                4,
            )],
        ),
        CoreSpec::new(
            CoreKind::Usb,
            vec![DmaSpec::new(
                "usb-rd",
                MemOp::Read,
                constant_mb(400.0),
                seq_mib(16),
                bandwidth(0.9, 2.0e5),
                8,
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
        // App-switch storms: heavy, locality-poor bursts of CPU traffic.
        CoreSpec::new(
            CoreKind::Cpu,
            vec![
                DmaSpec::new(
                    "cpu-rd-seq",
                    MemOp::Read,
                    poisson_mb(3500.0),
                    seq_mib(128),
                    best_effort(),
                    40,
                ),
                DmaSpec::new(
                    "cpu-rd-rand",
                    MemOp::Read,
                    poisson_mb(1500.0),
                    random_mib(256),
                    best_effort(),
                    20,
                ),
                DmaSpec::new(
                    "cpu-wr",
                    MemOp::Write,
                    poisson_mb(1000.0),
                    seq_mib(64),
                    best_effort(),
                    16,
                ),
            ],
        ),
    ];
    Scenario::new(
        "smartphone-burst",
        "60 fps gaming plus background JPEG, streams and app-switch CPU storms",
        MegaHertz::new(1700),
        cores,
    )
    .with_frame_period_ns(1e9 / 60.0)
}

/// ML inference offload: weight streaming as large sequential work units,
/// bursty activation writes, a latency-bounded token path and a rated CPU —
/// ≈ 8 GB/s of QoS load at 1866 MHz.
pub fn ml_inference() -> Scenario {
    let cores = vec![
        // The NPU streams 4 MiB weight tiles every 2 ms; a tile late past
        // 1.6 ms stalls the systolic array.
        CoreSpec::new(
            CoreKind::Gpu,
            vec![
                DmaSpec::new(
                    "npu-weights",
                    MemOp::Read,
                    batch_kib(4096, 2.0e6, 1.6e6),
                    seq_mib(256),
                    work_unit(),
                    32,
                ),
                DmaSpec::new(
                    "npu-act-wr",
                    MemOp::Write,
                    burst_mb(900.0),
                    seq_mib(32),
                    frame_rate(),
                    22,
                ),
            ],
        ),
        // Token-generation path: small random embedding-table reads.
        CoreSpec::new(
            CoreKind::Dsp,
            vec![DmaSpec::new(
                "token-rd",
                MemOp::Read,
                poisson_mb(250.0),
                random_mib(128),
                latency_ns(450.0, 0.05),
                4,
            )],
        ),
        // Camera feeding the vision model.
        CoreSpec::new(
            CoreKind::Camera,
            vec![DmaSpec::new(
                "cam-wr",
                MemOp::Write,
                constant_mb(700.0),
                seq_mib(32),
                occupancy_fill_kib(256),
                8,
            )],
        ),
        // Result upload.
        CoreSpec::new(
            CoreKind::WiFi,
            vec![DmaSpec::new(
                "uplink-wr",
                MemOp::Write,
                constant_mb(200.0),
                seq_mib(8),
                bandwidth(0.9, 2.0e5),
                4,
            )],
        ),
        CoreSpec::new(
            CoreKind::Cpu,
            vec![
                DmaSpec::new(
                    "cpu-rd",
                    MemOp::Read,
                    poisson_mb(2500.0),
                    seq_mib(128),
                    best_effort(),
                    28,
                ),
                DmaSpec::new(
                    "cpu-wr",
                    MemOp::Write,
                    poisson_mb(1200.0),
                    seq_mib(64),
                    best_effort(),
                    16,
                ),
            ],
        ),
    ];
    Scenario::new(
        "ml-inference",
        "NPU offload: 4 MiB weight tiles on deadline, bursty activations, token latency path",
        MegaHertz::new(1866),
        cores,
    )
}

/// [`ml_inference`] on a four-channel part: the same NPU offload workload
/// with twice the channel-level parallelism and a channel-skewed address
/// map, so sequential weight streams spread instead of camping on one
/// channel. The catalog's reference scale-out scenario (and the CI anchor
/// for parallel lane stepping).
pub fn ml_inference_4ch() -> Scenario {
    let mut s = ml_inference().with_channels(4);
    s.name = "ml-inference-4ch".to_string();
    s.description =
        "the NPU offload workload on a four-channel part with a channel-skewed map".to_string();
    s
}

/// [`ml_inference`] on an eight-channel part — the widest catalog entry,
/// exercising the lane runtime's scale-out path.
pub fn ml_inference_8ch() -> Scenario {
    let mut s = ml_inference().with_channels(8);
    s.name = "ml-inference-8ch".to_string();
    s.description =
        "the NPU offload workload on an eight-channel part with a channel-skewed map".to_string();
    s
}

/// Saturation stress: ≈ 27 GB/s of rated QoS demand plus an elastic CPU
/// against a 1333 MHz platform with a 21.3 GB/s theoretical peak. No
/// policy can meet every target; the scenario exists to compare *how* each
/// one fails (and to keep the harness honest about overload).
pub fn saturation() -> Scenario {
    let cores = vec![
        CoreSpec::new(
            CoreKind::Gpu,
            vec![
                DmaSpec::new(
                    "gpu-rd",
                    MemOp::Read,
                    burst_mb(4000.0),
                    seq_mib(64),
                    frame_rate(),
                    48,
                ),
                DmaSpec::new(
                    "gpu-wr",
                    MemOp::Write,
                    burst_mb(2000.0),
                    seq_mib(32),
                    frame_rate(),
                    24,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::ImageProcessor,
            vec![
                DmaSpec::new(
                    "imgproc-rd",
                    MemOp::Read,
                    burst_mb(3500.0),
                    seq_mib(64),
                    frame_rate(),
                    48,
                ),
                DmaSpec::new(
                    "imgproc-wr",
                    MemOp::Write,
                    burst_mb(3500.0),
                    strided_mib(64, 64),
                    frame_rate(),
                    48,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::VideoCodec,
            vec![
                DmaSpec::new(
                    "codec-rd",
                    MemOp::Read,
                    burst_mb(3000.0),
                    seq_mib(64),
                    frame_rate(),
                    40,
                ),
                DmaSpec::new(
                    "codec-wr",
                    MemOp::Write,
                    burst_mb(2500.0),
                    seq_mib(64),
                    frame_rate(),
                    32,
                ),
            ],
        ),
        CoreSpec::new(
            CoreKind::Display,
            vec![DmaSpec::new(
                "display-rd",
                MemOp::Read,
                constant_mb(2500.0),
                seq_mib(64),
                occupancy_drain_kib(1024),
                12,
            )],
        ),
        CoreSpec::new(
            CoreKind::Camera,
            vec![DmaSpec::new(
                "camera-wr",
                MemOp::Write,
                constant_mb(2000.0),
                seq_mib(64),
                occupancy_fill_kib(1024),
                12,
            )],
        ),
        CoreSpec::new(
            CoreKind::Dsp,
            vec![DmaSpec::new(
                "dsp-rd",
                MemOp::Read,
                poisson_mb(800.0),
                random_mib(64),
                latency_ns(500.0, 0.05),
                8,
            )],
        ),
        CoreSpec::new(
            CoreKind::Cpu,
            vec![
                DmaSpec::new(
                    "cpu-rd",
                    MemOp::Read,
                    elastic(),
                    seq_mib(128),
                    best_effort(),
                    48,
                ),
                DmaSpec::new(
                    "cpu-wr",
                    MemOp::Write,
                    elastic(),
                    seq_mib(64),
                    best_effort(),
                    24,
                ),
            ],
        ),
    ];
    Scenario::new(
        "saturation",
        "deliberate DRAM oversubscription: 27 GB/s rated demand on a 21 GB/s platform",
        MegaHertz::new(1333),
        cores,
    )
}

/// All built-in scenarios, registry order.
pub fn builtin() -> Vec<Scenario> {
    vec![
        camcorder_a(),
        camcorder_b(),
        ar_headset(),
        adas(),
        adas_overload(),
        smartphone_burst(),
        ml_inference(),
        ml_inference_4ch(),
        ml_inference_8ch(),
        saturation(),
    ]
}

/// Looks a built-in scenario up by its registry name.
pub fn by_name(name: &str) -> Option<Scenario> {
    builtin().into_iter().find(|s| s.name == name)
}

/// The registry names, in catalog order.
pub fn names() -> Vec<String> {
    builtin().into_iter().map(|s| s.name).collect()
}

/// Exports every built-in scenario as a `<name>.scenario.json` file under
/// `dir` (created if needed), returning the written paths in catalog
/// order.
///
/// The written files are the same bytes the golden-file conformance tests
/// pin under `tests/data/`, and the directory is directly runnable with
/// `sara matrix --dir <dir>`.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing a file.
pub fn export_all(dir: impl AsRef<std::path::Path>) -> std::io::Result<Vec<std::path::PathBuf>> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for s in builtin() {
        let path = dir.join(format!("{}{}", s.name, crate::SCENARIO_FILE_SUFFIX));
        std::fs::write(&path, s.to_json())?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_unique_and_large_enough() {
        let names = names();
        // ≥ 8 scenarios beyond the two camcorder cases.
        assert!(names.len() >= 10, "catalog too small: {names:?}");
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        assert!(by_name("ar-headset").is_some());
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn every_scenario_lowers_onto_a_config() {
        for s in builtin() {
            let cfg = s.config().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(cfg.freq, s.freq, "{}", s.name);
            assert!(s.dma_count() >= 5, "{} too trivial", s.name);
        }
    }

    #[test]
    fn export_all_round_trips_through_load_dir() {
        let dir = std::env::temp_dir().join(format!("sara-catalog-{}", std::process::id()));
        let paths = export_all(&dir).unwrap();
        assert_eq!(paths.len(), builtin().len());
        assert!(paths.iter().all(|p| p.exists()));
        // load_dir orders by file name (not catalog order); compare keyed
        // by scenario name.
        let mut loaded = crate::load_dir(&dir).unwrap();
        loaded.sort_by(|a, b| a.name.cmp(&b.name));
        let mut want = builtin();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(loaded, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn channel_variants_scale_the_same_workload() {
        let base = by_name("ml-inference").unwrap();
        for (name, channels) in [("ml-inference-4ch", 4), ("ml-inference-8ch", 8)] {
            let s = by_name(name).unwrap();
            assert_eq!(s.channels, channels, "{name}");
            assert_eq!(s.cores, base.cores, "{name} must keep the workload");
            let cfg = s.config().unwrap();
            assert_eq!(cfg.dram.channels(), channels, "{name}");
        }
        assert_eq!(base.channels, 2);
    }

    #[test]
    fn offered_loads_sit_in_the_intended_regimes() {
        // Feasible scenarios leave headroom under the 16 B/cycle peak...
        for name in ["ar-headset", "adas", "smartphone-burst", "ml-inference"] {
            let s = by_name(name).unwrap();
            let peak = 16.0 * s.freq.as_hz() as f64 / 1e9;
            assert!(
                s.offered_gbs() < 0.85 * peak,
                "{name}: {} GB/s vs peak {peak}",
                s.offered_gbs()
            );
        }
        // ...and the stress scenarios do not.
        let sat = saturation();
        let peak = 16.0 * sat.freq.as_hz() as f64 / 1e9;
        assert!(sat.offered_gbs() > peak, "saturation must oversubscribe");
    }
}
