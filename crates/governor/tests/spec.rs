//! The govern key table drift gate: `docs/formats.md`'s "Govern dumps"
//! table lists every member `trace::governed_value` emits, at every level
//! and in emission order. If the document and the emitter disagree, the
//! build fails.

use json::Value;
use sara_governor::{run_governed, run_pinned, trace, GovernorSpec};
use sara_scenarios::catalog;
use sara_types::MegaHertz;

/// The `(in, member)` pairs of the table's rows, in document order.
fn documented() -> Vec<(String, String)> {
    let path = format!("{}/../../docs/formats.md", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .skip_while(|l| *l != "## Govern dumps")
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| `"))
        .map(|row| {
            let cells: Vec<&str> = row.trim_matches('|').split(" | ").map(str::trim).collect();
            (
                cells[1].trim_matches('`').to_string(),
                cells[0].trim_matches('`').to_string(),
            )
        })
        .collect()
}

fn keys(level: &str, node: &Value) -> Vec<(String, String)> {
    match node {
        Value::Object(members) => members
            .iter()
            .map(|(key, _)| (level.to_string(), key.clone()))
            .collect(),
        other => panic!("{level} is not an object: {other:?}"),
    }
}

#[test]
fn the_govern_key_table_is_what_governed_value_emits() {
    let s = catalog::by_name("adas").unwrap();
    let spec = GovernorSpec {
        epoch_us: 200.0,
        ..GovernorSpec::new(vec![1120, 1600])
    };
    let governed = run_governed(&s, &spec, 0.4).unwrap();
    let baseline = run_pinned(&s, &spec, MegaHertz::new(spec.start_mhz()), 0.4).unwrap();
    let run = trace::governed_value(&governed, Some(&baseline));
    let member = |key: &str| run.get(key).unwrap_or_else(|| panic!("no {key}"));
    let mut emitted = keys("top level", &run);
    emitted.extend(keys("trace[i]", &member("trace").as_array().unwrap()[0]));
    emitted.extend(keys("outcome", member("outcome")));
    emitted.extend(keys("baseline", member("baseline")));
    assert_eq!(
        documented(),
        emitted,
        "docs/formats.md's govern key table vs trace::governed_value"
    );
}
