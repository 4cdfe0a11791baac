//! Conformance suite for the `sara-scenario/v1` file format: round-trip
//! properties over the generator, byte-level determinism, the committed
//! file of every catalog entry, the error paths a hand-edited file hits, and
//! seeded fuzzing of the JSON reader and the scenario parser.
//!
//! Golden regeneration (after an intentional format or catalog change):
//!
//! ```sh
//! SARA_UPDATE_GOLDENS=1 cargo test --test scenario_format
//! ```

use std::path::PathBuf;

use json::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sara::scenarios::{catalog, random_scenario, Scenario, SCENARIO_FILE_SUFFIX};
use sara::sim::analytic_report;

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
        let s = Scenario {
            seed,
            ..random_scenario(7)
        };
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

#[path = "support/golden.rs"]
mod golden;

/// The directory of the catalog's documents.
fn catalog_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/scenarios/catalog")
}

/// Every catalog entry serializes to exactly the bytes of its committed
/// document under `crates/scenarios/catalog/`, its own golden, and the
/// committed bytes parse back to the entry.
///
/// A diff here means the format or the catalog changed: if intentional,
/// regenerate with `SARA_UPDATE_GOLDENS=1 cargo test --test scenario_format`
/// and commit the result; v1 files must otherwise stay readable forever.
#[test]
fn golden_files_pin_the_format() {
    for s in catalog::builtin() {
        let path = catalog_dir().join(format!("{}{SCENARIO_FILE_SUFFIX}", s.name));
        golden::check(&path, &s.to_json());
        let parsed = Scenario::from_json_file(&path).unwrap();
        assert_eq!(
            parsed, s,
            "{}: committed file does not parse back to the entry",
            s.name
        );
    }
}

/// `tests/data/` holds the pins of simulated output
/// (`tests/determinism.rs`) and no catalog document: every entry's one
/// copy is its document under `crates/scenarios/catalog/`.
#[test]
fn no_stale_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file_name = entry.unwrap().file_name();
        let file_name = file_name.to_str().unwrap();
        assert!(
            !file_name.ends_with(SCENARIO_FILE_SUFFIX),
            "{file_name}: a catalog document's one copy is under crates/scenarios/catalog/"
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
    let s = Scenario {
        frame_period_ns: 1e21,
        duration_ms: 2.5e-7,
        ..catalog::by_name("camcorder-b").unwrap()
    };
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

/// Bytes drawn half the time from JSON's own alphabet, so some inputs get
/// past the first token.
fn random_text(rng: &mut StdRng) -> String {
    const JSON_ALPHABET: &[u8] = b"{}[]\":,\\ \n0123456789.-+eEtruefalsnu";
    let len = rng.gen_range(0usize..256);
    let structural = rng.gen_bool(0.5);
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            if structural {
                JSON_ALPHABET[rng.gen_range(0..JSON_ALPHABET.len())]
            } else {
                rng.gen_range(0u32..256) as u8
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` with one bit of one byte flipped (UTF-8 may break: decoded
/// lossily, as a reader of a damaged file would).
fn flip_one_byte(text: &str, rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    bytes[at] ^= 1 << rng.gen_range(0u32..8);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A random JSON scalar aimed at the format's edges: null, booleans, zero
/// and other tiny integers, huge and negative integers, fractions, any
/// `f64` bit pattern (non-finite ones emit as `null`), and strings.
fn random_scalar(rng: &mut StdRng) -> Value {
    match rng.gen_range(0u32..8) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::UInt(rng.gen_range(0u64..4)),
        3 => Value::UInt(rng.next_u64()),
        4 => Value::Int(-(rng.gen_range(1u64..1 << 40) as i64)),
        5 => Value::Float(rng.gen_range(0.0..2.0)),
        6 => Value::Float(f64::from_bits(rng.next_u64())),
        _ => {
            Value::Str(["", "QoS", "CPU", "sequential", "x"][rng.gen_range(0usize..5)].to_string())
        }
    }
}

/// The number of object members in `v`, nested ones included.
fn member_count(v: &Value) -> usize {
    match v {
        Value::Object(members) => members.iter().map(|(_, v)| 1 + member_count(v)).sum(),
        Value::Array(items) => items.iter().map(member_count).sum(),
        _ => 0,
    }
}

/// Drops the `k`-th object member of `v` (pre-order), or replaces its
/// value with `with`; `true` once done.
fn mutate_member(v: &mut Value, k: &mut usize, with: Option<&Value>) -> bool {
    match v {
        Value::Object(members) => {
            for i in 0..members.len() {
                if *k == 0 {
                    match with {
                        Some(scalar) => members[i].1 = scalar.clone(),
                        None => drop(members.remove(i)),
                    }
                    return true;
                }
                *k -= 1;
                if mutate_member(&mut members[i].1, k, with) {
                    return true;
                }
            }
            false
        }
        Value::Array(items) => items.iter_mut().any(|item| mutate_member(item, k, with)),
        _ => false,
    }
}

/// `json::parse` on arbitrary text: an error always carries a position, a
/// document always re-emits to compact text that parses back to itself.
fn check_json(text: &str) {
    match json::parse(text) {
        Err(e) => assert!(e.line() >= 1 && e.col() >= 1, "{e} for {text:?}"),
        Ok(doc) => {
            let compact = doc.to_string_compact();
            let back = json::parse(&compact).unwrap_or_else(|e| panic!("{e}: {compact}"));
            assert_eq!(back.to_string_compact(), compact, "from {text:?}");
        }
    }
}

/// `Scenario::from_json_str` on a damaged document: a rejection names the
/// scenario, an accepted document round-trips, and it lowers to a system
/// configuration and its analytic bound — what a `"screen":"prune"`
/// submit does to an inline scenario before anything is simulated —
/// without panicking.
fn check_scenario(text: &str) {
    match Scenario::from_json_str(text) {
        Err(e) => assert!(e.message().starts_with("scenario"), "{e} for {text}"),
        Ok(s) => {
            let emitted = s.to_json();
            let back = Scenario::from_json_str(&emitted).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(back, s, "value round-trip of {text}");
            assert_eq!(back.to_json(), emitted, "byte round-trip of {text}");
            if let Ok(cfg) = s.config() {
                analytic_report(&cfg);
            }
        }
    }
}

#[test]
fn json_reader_fuzz_never_panics_and_positions_every_error() {
    let docs: Vec<String> = catalog::builtin().iter().map(Scenario::to_json).collect();
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x0a50_0000 + seed);
        for _ in 0..64 {
            check_json(&random_text(&mut rng));
        }
        for doc in &docs {
            check_json(&flip_one_byte(doc, &mut rng));
            check_json(&doc[..rng.gen_range(0..doc.len())]);
        }
    }
}

#[test]
fn scenario_parser_fuzz_rejects_by_name_or_round_trips_and_lowers() {
    let catalog = catalog::builtin();
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x5ce0_0000 + seed);
        for s in &catalog {
            let text = s.to_json();
            check_scenario(&flip_one_byte(&text, &mut rng));

            // One key dropped, then one value replaced by a random scalar.
            let doc = json::parse(&text).expect("catalog documents parse");
            let n = member_count(&doc);
            for with in [None, Some(random_scalar(&mut rng))] {
                let mut mutant = doc.clone();
                let mut k = rng.gen_range(0..n);
                assert!(mutate_member(&mut mutant, &mut k, with.as_ref()));
                check_scenario(&mutant.to_string_pretty());
            }
        }
    }
}
