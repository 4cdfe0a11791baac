//! Conformance suite for the `sara-scenario/v1` file format: round-trip
//! properties over the generator, byte-level determinism, committed golden
//! files per catalog entry, and the error paths a hand-edited file hits.
//!
//! Golden regeneration (after an intentional format or catalog change):
//!
//! ```sh
//! SARA_UPDATE_GOLDENS=1 cargo test --test scenario_format
//! ```

use std::path::PathBuf;

use sara::scenarios::{catalog, random_scenario, Scenario, SCENARIO_FILE_SUFFIX};

/// `parse(emit(s)) == s` value- and byte-exact for ≥ 64 generator seeds.
///
/// The generator composes every traffic/pattern/meter arm with fuzzed
/// magnitudes, so this sweeps the whole vocabulary — and because the
/// catalog's saturation scenario oversubscribes, the format is exercised
/// well outside the feasibility envelope too.
#[test]
fn roundtrip_property_over_generator_seeds() {
    for seed in 0u64..64 {
        let s = random_scenario(seed);
        let text = s.to_json();
        let back =
            Scenario::from_json_str(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert_eq!(back, s, "seed {seed}: value round-trip");
        assert_eq!(back.to_json(), text, "seed {seed}: byte round-trip");
    }
}

/// Extreme u64 seeds (beyond f64's 2^53 integer range) survive exactly.
#[test]
fn large_seeds_roundtrip_exactly() {
    for seed in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 0x5a5a_0001] {
        let s = random_scenario(7).with_seed(seed);
        let back = Scenario::from_json_str(&s.to_json()).unwrap();
        assert_eq!(back.seed, seed);
        assert_eq!(back, s);
    }
}

/// Emission is a pure function: two independent constructions of the same
/// scenario serialize to identical bytes.
#[test]
fn emission_is_byte_deterministic_across_runs() {
    for (a, b) in catalog::builtin().into_iter().zip(catalog::builtin()) {
        assert_eq!(a.to_json(), b.to_json(), "{}", a.name);
    }
    for seed in [0u64, 1, 42, 0xdead_beef] {
        assert_eq!(
            random_scenario(seed).to_json(),
            random_scenario(seed).to_json(),
            "seed {seed}"
        );
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("{name}{SCENARIO_FILE_SUFFIX}"))
}

/// Every catalog entry serializes to exactly the bytes committed under
/// `tests/data/`, and the committed bytes parse back to the entry.
///
/// A diff here means the format or the catalog changed: if intentional,
/// regenerate with `SARA_UPDATE_GOLDENS=1 cargo test --test scenario_format`
/// and commit the result; v1 files must otherwise stay readable forever.
#[test]
fn golden_files_pin_the_format() {
    let update = std::env::var_os("SARA_UPDATE_GOLDENS").is_some();
    for s in catalog::builtin() {
        let path = golden_path(&s.name);
        let emitted = s.to_json();
        if update {
            std::fs::write(&path, &emitted).unwrap();
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(regenerate goldens with SARA_UPDATE_GOLDENS=1 \
                 cargo test --test scenario_format)",
                path.display()
            )
        });
        assert_eq!(
            emitted,
            committed,
            "{} drifted from its golden file {} — if intentional, regenerate \
             with SARA_UPDATE_GOLDENS=1 cargo test --test scenario_format",
            s.name,
            path.display()
        );
        let parsed = Scenario::from_json_file(&path).unwrap();
        assert_eq!(
            parsed, s,
            "{}: golden does not parse back to the entry",
            s.name
        );
    }
}

/// There is exactly one golden per catalog entry — a renamed or removed
/// scenario must not leave a stale file behind.
#[test]
fn no_stale_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let names = catalog::names();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file_name = entry.unwrap().file_name();
        let file_name = file_name.to_str().unwrap();
        // The report-digest golden (`tests/determinism.rs`) shares the
        // directory.
        if file_name == "catalog-report-digests.json" {
            continue;
        }
        let Some(stem) = file_name.strip_suffix(SCENARIO_FILE_SUFFIX) else {
            panic!("unexpected file in tests/data: {file_name}");
        };
        assert!(
            names.iter().any(|n| n == stem),
            "stale golden {file_name}: no catalog entry named {stem:?}"
        );
    }
}

/// The error paths a hand-edited file hits, end to end through the facade:
/// each failure is a ConfigError whose message names the problem.
#[test]
fn error_paths_are_actionable() {
    let good = catalog::by_name("ml-inference").unwrap().to_json();

    // Truncation: a position, not a panic.
    let e = Scenario::from_json_str(&good[..good.len() / 3]).unwrap_err();
    assert!(e.message().contains("line"), "{e}");

    // Unknown keys are named.
    let e = Scenario::from_json_str(&good.replacen("\"policy\"", "\"Policy\"", 1)).unwrap_err();
    assert!(e.message().contains("unknown key \"Policy\""), "{e}");

    // Non-finite numbers arrive as null and are rejected with guidance.
    let e =
        Scenario::from_json_str(&good.replacen("\"duration_ms\": 5", "\"duration_ms\": null", 1))
            .unwrap_err();
    assert!(e.message().contains("non-finite"), "{e}");

    // Not JSON at all.
    assert!(Scenario::from_json_str("scenario: yaml?").is_err());
    // Valid JSON, wrong shape.
    let e = Scenario::from_json_str("[1, 2, 3]").unwrap_err();
    assert!(e.message().contains("expected an object"), "{e}");
}

/// The reader accepts exponent number spellings (`1e21`, `2.5e-7`) that
/// naive readers choke on, and extreme magnitudes round-trip.
#[test]
fn exponent_magnitudes_roundtrip() {
    let s = catalog::by_name("camcorder-b")
        .unwrap()
        .with_frame_period_ns(1e21)
        .with_duration_ms(2.5e-7);
    let text = s.to_json();
    let back = Scenario::from_json_str(&text).unwrap();
    assert_eq!(back.frame_period_ns, 1e21);
    assert_eq!(back.duration_ms, 2.5e-7);
    assert_eq!(back, s);
    assert_eq!(back.to_json(), text);

    // Hand-written exponent spellings read identically to their positional
    // forms (the emitter writes positional decimal; both must parse).
    let spelled = text.replacen(
        &format!("\"frame_period_ns\": {}", 1e21),
        "\"frame_period_ns\": 1e21",
        1,
    );
    assert_ne!(spelled, text, "fixture: replacement must have happened");
    assert_eq!(Scenario::from_json_str(&spelled).unwrap(), s);
}
