//! The built-in scenario catalog: the paper's camcorder plus further
//! allocation problems spanning AR, automotive, mobile, ML offload (at
//! two, four and eight DRAM channels) and a deliberate saturation stress.
//!
//! Every entry *is* its `sara-scenario/v1` document under
//! `crates/scenarios/catalog/`, embedded at compile time and read through
//! the one strict reader, [`Scenario::from_json_str`]: a new entry is one
//! file plus one row of the document table.
//!
//! What a document cannot say is why its numbers are what they are.
//!
//! `camcorder-a` and `camcorder-b` are the paper's evaluation workload,
//! the Fig. 2 camcorder in the two Table 1 cases: all 13 heterogeneous
//! cores of Table 2 plus the CPU at 1866 MHz, and the same with GPS,
//! camera, rotator and JPEG inactive at 1700 MHz. Each core carries the
//! traffic class the paper describes: bursty frame sources (video codec,
//! rotator, image processor, JPEG, GPU), constant-rate sources (camera
//! sensor, display refresh, WiFi/USB streams), Poisson latency-sensitive
//! sources (DSP, audio), periodic work units (GPS, modem) and fixed-rate
//! best-effort CPU background traffic. The rates are this repository's
//! calibrated "next-generation MPSoC" substitution for the proprietary
//! traces the paper used (README, "Provenance"): the fixed-demand QoS
//! cores sum to ≈ 11 GB/s and the best-effort CPU offers ≈ 9 GB/s more,
//! enough that the weaker policies cannot serve all of it, which is what
//! makes Fig. 8's delivered-bandwidth comparison meaningful. Against the
//! 29.9 GB/s dual-channel LPDDR4-1866 peak, the deliverable fraction
//! depends on row-buffer efficiency, so whether each core meets its target
//! depends on the policy.
//!
//! Offered loads are quoted against the Table 1 LPDDR4 peak of
//! 16 B/cycle × I/O frequency (29.9 GB/s at 1866 MHz). These entries fit
//! under their platform's peak, so a good policy can meet every target:
//!
//! | entry | rated QoS load | platform |
//! |---|---|---|
//! | `ar-headset` | ≈ 9.5 GB/s, plus a best-effort CPU | 1866 MHz |
//! | `adas` | ≈ 8.6 GB/s | 1600 MHz |
//! | `smartphone-burst` | ≈ 7 GB/s, plus 6 GB/s best-effort | 1700 MHz |
//! | `ml-inference`, `-4ch`, `-8ch` | ≈ 8 GB/s | 1866 MHz on 2, 4 and 8 channels |
//!
//! The four- and eight-channel variants keep `ml-inference`'s workload
//! and use the channel-skewed address map, so sequential weight streams
//! spread over the channels instead of camping on one.
//!
//! Two entries oversubscribe on purpose, to probe graceful degradation.
//! `saturation` offers ≈ 27 GB/s of rated QoS demand plus an elastic CPU
//! against a 1333 MHz platform with a 21.3 GB/s peak: no policy can meet
//! every target, and the entry compares *how* each one fails.
//! `adas-overload` keeps `adas`'s safety-critical sensors but runs hotter
//! cameras and an elastic infotainment CPU, so the question is who
//! degrades, and how far up the ladder the governor must climb before the
//! answer is "nobody". It is the showcase for the online self-aware
//! governor: it starts on the lowest rung and the closed loop climbs as
//! the overload bites (`sara govern --scenarios adas-overload`). Its
//! ladder tops out *above* the nominal 1600 MHz platform clock, because
//! the governed system is built at the 1866 MHz beat clock. So frequency
//! alone can restore QoS near the top, which is also what lets
//! per-channel control (`sara govern --per-channel`) settle its lanes on
//! different rungs instead of pinning every channel to the ceiling.

use crate::scenario::Scenario;

/// `(name, document)` rows, the document being the committed file
/// `catalog/<name>.scenario.json`.
macro_rules! documents {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../catalog/", $name, ".scenario.json")))),*]
    };
}

/// Every entry with its committed document, in registry order.
const DOCUMENTS: [(&str, &str); 10] = documents![
    "camcorder-a",
    "camcorder-b",
    "ar-headset",
    "adas",
    "adas-overload",
    "smartphone-burst",
    "ml-inference",
    "ml-inference-4ch",
    "ml-inference-8ch",
    "saturation",
];

/// Reads a built-in document. Every document is pinned to parse back to
/// its own bytes, so a failure here is a broken build, not bad input.
fn parse(document: &str) -> Scenario {
    Scenario::from_json_str(document).unwrap_or_else(|e| panic!("built-in catalog: {e}"))
}

/// The paper's camcorder, test case A (all 14 cores, 1866 MHz).
pub fn camcorder_a() -> Scenario {
    by_name("camcorder-a").expect("a catalog entry")
}

/// The eight-channel NPU offload entry, `ml-inference-8ch`.
pub fn ml_inference_8ch() -> Scenario {
    by_name("ml-inference-8ch").expect("a catalog entry")
}

/// The oversubscribed stress entry, `saturation`.
pub fn saturation() -> Scenario {
    by_name("saturation").expect("a catalog entry")
}

/// All built-in scenarios, registry order.
pub fn builtin() -> Vec<Scenario> {
    DOCUMENTS
        .iter()
        .map(|(_, document)| parse(document))
        .collect()
}

/// Looks a built-in scenario up by its registry name, reading only that
/// entry.
pub fn by_name(name: &str) -> Option<Scenario> {
    let (_, document) = DOCUMENTS.iter().find(|(n, _)| *n == name)?;
    Some(parse(document))
}

/// The registry names, in catalog order.
pub fn names() -> Vec<String> {
    DOCUMENTS.iter().map(|(name, _)| name.to_string()).collect()
}

/// Exports every built-in scenario as a `<name>.scenario.json` file under
/// `dir` (created if needed), returning the written paths in catalog
/// order.
///
/// The written files are the committed documents under
/// `crates/scenarios/catalog/` byte for byte, and the directory is
/// directly runnable with `sara matrix --dir <dir>`.
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
    use sara_types::{CoreClass, CoreKind};
    use sara_workloads::MeterSpec;

    #[test]
    fn case_a_has_all_cores() {
        let a = camcorder_a();
        assert_eq!(a.cores.len(), 14);
        assert_eq!(a.freq.as_u32(), 1866);
    }

    #[test]
    fn case_b_disables_four_cores() {
        let b = by_name("camcorder-b").unwrap();
        assert_eq!(b.cores.len(), 10);
        assert_eq!(b.freq.as_u32(), 1700);
        let inactive = [
            CoreKind::Gps,
            CoreKind::Camera,
            CoreKind::Rotator,
            CoreKind::Jpeg,
        ];
        for c in &b.cores {
            assert!(!inactive.contains(&c.kind));
        }
    }

    #[test]
    fn every_table2_core_present_once() {
        let cores = camcorder_a().cores;
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
        let cores = camcorder_a().cores;
        for class in CoreClass::ALL {
            assert!(
                cores.iter().any(|c| c.kind.class() == class),
                "class {class} must be exercised"
            );
        }
    }

    #[test]
    fn meter_types_match_table2() {
        let cores = camcorder_a().cores;
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
    fn fixed_demand_fits_design_envelope() {
        let total: f64 = camcorder_a()
            .cores
            .iter()
            .map(|c| c.mean_demand_bytes_per_s())
            .sum();
        // `sara repro table2`: ~20 GB/s offered against 29.9 GB/s peak.
        assert!((19.0e9..21.5e9).contains(&total), "total = {total}");
    }

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
    fn names_read_the_registry_in_order() {
        let built: Vec<String> = builtin().into_iter().map(|s| s.name).collect();
        assert_eq!(names(), built);
    }

    #[test]
    fn every_document_is_named_by_its_table_key() {
        for (name, document) in DOCUMENTS {
            assert_eq!(parse(document).name, name);
        }
    }

    #[test]
    fn the_catalog_directory_holds_exactly_the_table_documents() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("catalog");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let mut want: Vec<String> = DOCUMENTS
            .iter()
            .map(|(name, _)| format!("{name}{}", crate::SCENARIO_FILE_SUFFIX))
            .collect();
        want.sort();
        assert_eq!(files, want, "{}", dir.display());
    }

    #[test]
    fn every_scenario_lowers_onto_a_config() {
        for s in builtin() {
            let cfg = s.config().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(cfg.freq(), s.freq, "{}", s.name);
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
