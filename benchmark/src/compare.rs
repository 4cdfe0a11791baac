//! `compare A.json B.json`: one row per workload × metric with both
//! medians, their ratio, the bound and a verdict; `sim_digest` equality per
//! workload; non-zero exit when anything is worse.

use json::Value;

use crate::spec::{self, MetricDef};
use crate::stats::{self, Verdict};

/// The values one result document holds for `metric` on `workload`.
pub fn values(doc: &Value, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_array)
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn digests(doc: &Value, workload: &str) -> Vec<String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("sim_digest"))
        .and_then(Value::as_array)
        .map(|ds| {
            ds.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// The metric compared.
    pub def: &'static MetricDef,
    /// Median of the base document's runs.
    pub base: f64,
    /// Median of the other document's runs.
    pub new: f64,
    /// Each side's inter-quartile spread as a share of its median.
    pub spreads: (f64, f64),
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares every metric both documents carry, workload by workload.
pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in spec::WORKLOADS {
        let sections = [
            ("metrics", &spec::END_TO_END[..]),
            ("layers", &spec::PER_LAYER[..]),
        ];
        for (section, defs) in sections {
            for def in defs {
                let va = values(a, workload.name, section, def.name);
                let vb = values(b, workload.name, section, def.name);
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (base, new) = (stats::median(&va), stats::median(&vb));
                let spreads = (stats::spread(&va), stats::spread(&vb));
                rows.push(Row {
                    workload: workload.name,
                    def,
                    base,
                    new,
                    spreads,
                    verdict: stats::verdict(base, new, def.higher_is_better, def.bound, spreads),
                });
            }
        }
    }
    rows
}

/// Prints the comparison and returns whether anything is worse (a metric
/// beyond its bound, or simulated output that changed).
pub fn report(a: &Value, b: &Value) -> bool {
    let rows = rows(a, b);
    println!(
        "{:<15} {:<32} {:>12} {:>12} {:>7} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound", "iqr A", "iqr B"
    );
    for r in &rows {
        println!(
            "{:<15} {:<32} {:>12.4} {:>12.4} {:>7.3} {:>6} {:>6.1}% {:>6.1}%  {}",
            r.workload,
            r.def.name,
            r.base,
            r.new,
            if r.base == 0.0 { 1.0 } else { r.new / r.base },
            r.def.bound.map_or("-".to_string(), |b| format!("{b:.2}")),
            r.spreads.0 * 100.0,
            r.spreads.1 * 100.0,
            r.verdict.label()
        );
    }
    let mut worse = rows.iter().any(|r| r.verdict == Verdict::Worse);
    for workload in spec::WORKLOADS {
        let (da, db) = (digests(a, workload.name), digests(b, workload.name));
        let same = !da.is_empty() && da == db;
        println!(
            "{:<15} sim_digest {}",
            workload.name,
            if same { "identical" } else { "DIFFERS" }
        );
        worse |= !same;
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(job_ms: &[f64]) -> Value {
        let values: Vec<String> = job_ms.iter().map(|v| format!("{v:?}")).collect();
        json::parse(&format!(
            r#"{{"workloads":{{"frame_dense":{{"sim_digest":["ab"],"metrics":{{"job_ms":{{"unit":"ms","values":[{}]}}}}}}}}}}"#,
            values.join(",")
        ))
        .expect("valid document")
    }

    #[test]
    fn rows_judge_medians_against_the_bound() {
        let base = doc(&[100.0, 101.0, 99.0]);
        let same = rows(&base, &doc(&[104.0, 105.0, 103.0]));
        assert_eq!(same.len(), 1);
        assert_eq!(same[0].workload, "frame_dense");
        assert_eq!((same[0].base, same[0].new), (100.0, 104.0));
        assert_eq!(same[0].verdict, Verdict::Ok);
        let bound = same[0].def.bound.expect("end-to-end metrics are bounded");
        let beyond = 100.0 * (1.0 + bound) + 2.0;
        let slow = rows(&base, &doc(&[beyond, beyond + 1.0, beyond - 1.0]));
        assert_eq!(slow[0].verdict, Verdict::Worse);
        let noisy = rows(&base, &doc(&[60.0, 120.0, 180.0]));
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        // A single run per side has no spread and is judged on its value.
        assert_eq!(
            rows(&doc(&[100.0]), &doc(&[150.0]))[0].verdict,
            Verdict::Worse
        );
    }
}
