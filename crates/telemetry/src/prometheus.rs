//! Prometheus text exposition (format 0.0.4): the writer, the label-value
//! escape and the strict checker, sharing one metric-name alphabet.
//!
//! [`encode`] renders every registered metric as `# HELP`/`# TYPE`
//! comments plus sample lines. Metric names may carry a label set in
//! Prometheus syntax (`jobs{client="ci"}`, values spelled by
//! [`escape_label_value`]): the part before the first `{` names the
//! family, the rest rides along on each sample line, so a registry can
//! hold per-label series without a dedicated label model. Histograms
//! become the conventional cumulative `_bucket{le="…"}` series over the
//! non-empty log2 buckets, closed by `le="+Inf"`, `_sum` and `_count`.
//!
//! The output is deterministic: families appear in first-registration
//! order, samples in registration order within a family.
//!
//! [`check`] reads an exposition back and rejects anything the format
//! does not allow — what `sara report` runs on a `sara serve --metrics`
//! scrape.

use std::fmt::Write as _;

use crate::{Histogram, Metric, Registry};

/// Whether `c` may stand at char position `i` of a metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Label names use the same alphabet
/// without `:`.
fn name_char(i: usize, c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty() && name.chars().enumerate().all(|(i, c)| name_char(i, c))
}

/// Splits a registry metric name into `(family, labels)` where `labels`
/// keeps its braces (`{client="ci"}`) or is empty.
fn split_name(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Maps a family name onto the metric-name alphabet, replacing anything
/// else with `_`.
fn sanitize(family: &str) -> String {
    let mut out: String = family
        .chars()
        .enumerate()
        .map(|(i, c)| if name_char(i, c) { c } else { '_' })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Spells `raw` as a label value (the text between the quotes of
/// `client="…"`): `\`, `"` and a newline are backslash-escaped.
pub fn escape_label_value(raw: &str) -> String {
    raw.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn kind_of(m: &Metric) -> (&'static str, &'static str) {
    match m {
        Metric::Counter(_) => ("counter", "monotonic event count"),
        Metric::Gauge(_) => ("gauge", "last-value reading"),
        Metric::Histogram(_) => ("histogram", "log2-bucketed distribution"),
    }
}

/// Appends one histogram's cumulative bucket series. `labels` is the
/// metric's own label set with braces, or empty.
fn encode_histogram(out: &mut String, family: &str, labels: &str, h: &Histogram) {
    // `le` joins the series' own labels inside one brace pair.
    let (labels, le) = match labels.strip_prefix('{').and_then(|l| l.strip_suffix('}')) {
        Some(inner) if !inner.is_empty() => (labels, format!("{inner},le")),
        _ => ("", "le".to_string()),
    };
    let mut cumulative = 0u64;
    for (_, upper, n) in h.buckets() {
        cumulative += n;
        let _ = writeln!(out, "{family}_bucket{{{le}=\"{upper}\"}} {cumulative}");
    }
    let sum = u64::try_from(h.sum()).unwrap_or(u64::MAX);
    let _ = writeln!(out, "{family}_bucket{{{le}=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{family}_sum{labels} {sum}");
    let _ = writeln!(out, "{family}_count{labels} {}", h.count());
}

/// Renders a registry snapshot as Prometheus text exposition 0.0.4.
///
/// # Examples
///
/// ```
/// use sara_telemetry::{prometheus, Registry};
///
/// let mut r = Registry::new();
/// r.counter("cache_hits").add(3);
/// r.counter("jobs{client=\"ci\"}").add(2);
/// r.histogram("sim_us").record(130);
/// let text = prometheus::encode(&r);
/// assert!(text.contains("# TYPE cache_hits counter\ncache_hits 3\n"));
/// assert!(text.contains("jobs{client=\"ci\"} 2\n"));
/// assert!(text.contains("sim_us_bucket{le=\"255\"} 1\n"));
/// ```
pub fn encode(registry: &Registry) -> String {
    // Group by family in first-appearance order: the format requires all
    // samples of one family to form a single block.
    let mut families: Vec<(String, Vec<(&str, &Metric)>)> = Vec::new();
    for (name, metric) in registry.iter() {
        let (family, labels) = split_name(name);
        let family = sanitize(family);
        match families.iter_mut().find(|(f, _)| *f == family) {
            Some((_, members)) => members.push((labels, metric)),
            None => families.push((family, vec![(labels, metric)])),
        }
    }
    let mut out = String::new();
    for (family, members) in &families {
        let (kind, help) = kind_of(members[0].1);
        let _ = writeln!(out, "# HELP {family} {help}");
        let _ = writeln!(out, "# TYPE {family} {kind}");
        for (labels, metric) in members {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{family}{labels} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{family}{labels} {}", g.get());
                }
                Metric::Histogram(h) => encode_histogram(&mut out, family, labels, h),
            }
        }
    }
    out
}

/// Parsed `key="value"` label pairs of one sample, in line order.
type Labels = Vec<(String, String)>;

/// Parses a `key="value",...` label body (escapes: `\\`, `\"`, `\n`).
fn parse_labels(body: &str) -> Option<Labels> {
    let mut labels = Vec::new();
    let mut rest = body;
    loop {
        let eq = rest.find("=\"")?;
        let key = &rest[..eq];
        if !valid_metric_name(key) || key.contains(':') {
            return None;
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest[eq + 2..].char_indices() {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(eq + 2 + i + 1);
                break;
            } else {
                value.push(c);
            }
        }
        labels.push((key.to_string(), value));
        rest = &rest[end?..];
        if rest.is_empty() {
            return Some(labels);
        }
        rest = rest.strip_prefix(',')?;
    }
}

/// Parses one sample line into (member name, labels, value).
fn parse_sample(line: &str) -> Option<(&str, Labels, f64)> {
    let (name_labels, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match name_labels.split_once('{') {
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)?),
        None => (name_labels, Vec::new()),
    };
    if !valid_metric_name(name) {
        return None;
    }
    Some((name, labels, value))
}

/// One parsed sample, tagged with the family its name resolved to.
struct Sample<'a> {
    name: &'a str,
    family: &'a str,
    labels: Labels,
    value: f64,
}

/// Validates a Prometheus text exposition (format 0.0.4) strictly:
/// every family has `# HELP` and exactly one `# TYPE` before its
/// samples, sample lines parse, and histogram families carry cumulative
/// `le`-ascending buckets terminated by `+Inf` whose count matches
/// `_count`, plus `_sum`. Returns the census, e.g. `3 families (2
/// counters, 0 gauges, 1 histogram), 7 samples`.
///
/// # Errors
///
/// The first violation, as `line N: <rule>: "<line>"`, `family F …` or
/// `histogram F: …`.
pub fn check(text: &str) -> Result<String, String> {
    let mut helps: Vec<&str> = Vec::new();
    let mut types: Vec<(&str, &str)> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let fail = |msg: &str| format!("line {}: {msg}: {line:?}", no + 1);
        if line.trim().is_empty() {
            return Err(fail("blank line"));
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').ok_or(fail("HELP without text"))?;
            if !valid_metric_name(name) || help.is_empty() {
                return Err(fail("malformed HELP"));
            }
            helps.push(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').ok_or(fail("TYPE without kind"))?;
            if !valid_metric_name(name) {
                return Err(fail("malformed TYPE name"));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(fail("unknown TYPE kind"));
            }
            if types.iter().any(|(n, _)| *n == name) {
                return Err(fail("duplicate TYPE for family"));
            }
            types.push((name, kind));
            continue;
        }
        if line.starts_with('#') {
            return Err(fail("unknown comment directive"));
        }
        let (name, labels, value) = parse_sample(line).ok_or_else(|| fail("malformed sample"))?;
        if !value.is_finite() {
            return Err(fail("non-finite sample value"));
        }
        // Resolve the family the sample belongs to: histogram members
        // wear `_bucket`/`_sum`/`_count` suffixes, everything else
        // matches its family name exactly.
        let family = match types.iter().find(|(n, _)| *n == name) {
            Some((_, "histogram")) => return Err(fail("bare sample under a histogram TYPE")),
            Some(&(f, _)) => f,
            None => {
                ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suffix| {
                        let base = name.strip_suffix(suffix)?;
                        types.iter().find(|&&(n, k)| n == base && k == "histogram")
                    })
                    .ok_or_else(|| fail("sample precedes its # TYPE"))?
                    .0
            }
        };
        samples.push(Sample {
            name,
            family,
            labels,
            value,
        });
    }
    let count = |kind: &str| types.iter().filter(|(_, k)| *k == kind).count();
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    for &(family, kind) in &types {
        if !helps.contains(&family) {
            return Err(format!("family {family} has no # HELP"));
        }
        let members: Vec<&Sample> = samples.iter().filter(|s| s.family == family).collect();
        if members.is_empty() {
            return Err(format!("family {family} has no samples"));
        }
        if kind == "histogram" {
            check_histogram(family, &members)?;
        }
    }
    let (c, g, h) = (count("counter"), count("gauge"), count("histogram"));
    Ok(format!(
        "{} families ({c} counter{}, {g} gauge{}, {h} histogram{}), {} samples",
        types.len(),
        plural(c),
        plural(g),
        plural(h),
        samples.len()
    ))
}

/// The histogram-specific consistency checks, per label series.
fn check_histogram(family: &str, members: &[&Sample<'_>]) -> Result<(), String> {
    // One logical series per label set minus `le`:
    // (base labels, (le, count) buckets, sum, count).
    type Series = (Labels, Vec<(f64, f64)>, Option<f64>, Option<f64>);
    let mut series: Vec<Series> = Vec::new();
    for m in members {
        let base: Labels = m
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        let i = match series.iter().position(|(b, ..)| *b == base) {
            Some(i) => i,
            None => {
                series.push((base, Vec::new(), None, None));
                series.len() - 1
            }
        };
        let (_, buckets, sum, count) = &mut series[i];
        let le = m.labels.iter().find(|(k, _)| k == "le");
        match (&m.name[family.len()..], le) {
            ("_bucket", None) => {
                return Err(format!("histogram {family}: bucket without an le label"))
            }
            ("_bucket", Some((_, le))) => {
                // `+Inf` parses as infinity.
                let bad = || format!("histogram {family}: bad le value {le:?}");
                buckets.push((le.parse().map_err(|_| bad())?, m.value));
            }
            ("_sum", _) => *sum = Some(m.value),
            _ => *count = Some(m.value),
        }
    }
    for (base, buckets, sum, count) in &series {
        let labels: Vec<String> = base.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        let name = if labels.is_empty() {
            String::new()
        } else {
            format!(" ({})", labels.join(","))
        };
        let fail = |msg: &str| Err(format!("histogram {family}: series{name} {msg}"));
        let Some(&(last_le, last_n)) = buckets.last() else {
            return fail("has no buckets");
        };
        for pair in buckets.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return fail("le values not ascending");
            }
            if pair[1].1 < pair[0].1 {
                return fail("buckets not cumulative");
            }
        }
        if last_le != f64::INFINITY {
            return fail("missing the +Inf bucket");
        }
        let Some(count) = count else {
            return fail(&format!("missing {family}_count"));
        };
        if sum.is_none() {
            return fail(&format!("missing {family}_sum"));
        }
        if last_n != *count {
            return fail(&format!("+Inf bucket {last_n} != count {count}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_expose_one_sample_each() {
        let mut r = Registry::new();
        r.counter("jobs_accepted").add(2);
        r.gauge("depth").set(2.5);
        let text = encode(&r);
        assert_eq!(
            text,
            "# HELP jobs_accepted monotonic event count\n\
             # TYPE jobs_accepted counter\n\
             jobs_accepted 2\n\
             # HELP depth last-value reading\n\
             # TYPE depth gauge\n\
             depth 2.5\n"
        );
    }

    #[test]
    fn labelled_series_share_one_family_block() {
        let mut r = Registry::new();
        r.counter("jobs{client=\"ci\"}").add(1);
        r.counter("other").add(1);
        r.counter("jobs{client=\"dev\"}").add(4);
        let text = encode(&r);
        // Both `jobs` series sit in one block even though `other` was
        // registered between them.
        let jobs_block = "# TYPE jobs counter\n\
                          jobs{client=\"ci\"} 1\n\
                          jobs{client=\"dev\"} 4\n";
        assert!(text.contains(jobs_block), "{text}");
        assert_eq!(text.matches("# TYPE jobs counter").count(), 1);
    }

    #[test]
    fn histograms_emit_cumulative_le_series() {
        let mut r = Registry::new();
        let h = r.histogram("lat_us");
        h.record(3); // bucket [2,3]
        h.record(9); // bucket [8,15]
        h.record(9);
        let text = encode(&r);
        assert!(text.contains("# TYPE lat_us histogram\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"3\"} 1\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"15\"} 3\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_us_sum 21\n"), "{text}");
        assert!(text.contains("lat_us_count 3\n"), "{text}");
    }

    #[test]
    fn family_names_are_sanitized() {
        let mut r = Registry::new();
        r.counter("weird-name.9").add(1);
        let text = encode(&r);
        assert!(text.contains("# TYPE weird_name_9 counter\n"), "{text}");
        assert!(text.contains("weird_name_9 1\n"), "{text}");
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = || {
            let mut r = Registry::new();
            r.counter("a").add(1);
            r.histogram("h").record(100);
            r.counter("b{client=\"x\"}").add(7);
            encode(&r)
        };
        assert_eq!(build(), build());
    }

    /// The writer against the checker: for 64 seeds, a random registry of
    /// counters, gauges and histograms — some families needing
    /// sanitizing, some series labelled with values that need escaping —
    /// encodes to an exposition `check` accepts, with one family per
    /// distinct family name and every label value read back as written.
    #[test]
    fn check_accepts_every_encoded_registry_across_64_seeds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Raw family names, all distinct after sanitizing; the kind is
        // fixed per family (index % 3), as a registry's vocabulary is.
        const FAMILIES: [&str; 6] = ["jobs", "depth", "sim_us", "cache-hits", "9lives", "a:b.c"];
        const VALUE_CHARS: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', ',', '}', '{', '='];
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = Registry::new();
            let mut raw_values = Vec::new();
            for _ in 0..rng.gen_range(1..24usize) {
                let f = rng.gen_range(0..FAMILIES.len());
                let name = if rng.gen_bool(0.5) {
                    let raw: String = (0..rng.gen_range(0..8usize))
                        .map(|_| VALUE_CHARS[rng.gen_range(0..VALUE_CHARS.len())])
                        .collect();
                    let name =
                        format!("{}{{client=\"{}\"}}", FAMILIES[f], escape_label_value(&raw));
                    raw_values.push(raw);
                    name
                } else {
                    FAMILIES[f].to_string()
                };
                match f % 3 {
                    0 => r.counter(&name).add(rng.gen_range(0..1_000_000u64)),
                    1 => r.gauge(&name).set(rng.gen_range(-1e9..1e9)),
                    _ => {
                        let h = r.histogram(&name);
                        for _ in 0..rng.gen_range(0..20usize) {
                            h.record(rng.gen_range(0..u64::MAX) >> rng.gen_range(0..64u32));
                        }
                    }
                }
            }
            let text = encode(&r);
            let census = check(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            let families: std::collections::HashSet<&str> =
                r.iter().map(|(n, _)| split_name(n).0).collect();
            let head = format!("{} families (", families.len());
            assert!(census.starts_with(&head), "seed {seed}: {census}");
            for raw in &raw_values {
                let labelled = format!("x{{client=\"{}\"}} 1", escape_label_value(raw));
                assert_eq!(
                    parse_sample(&labelled).map(|(_, labels, _)| labels),
                    Some(vec![("client".to_string(), raw.clone())]),
                    "seed {seed}: {raw:?}"
                );
            }
        }
    }

    #[test]
    fn check_rejects_malformed_expositions() {
        let cases: &[(&str, &str)] = &[
            ("jobs 1\n", "precedes its # TYPE"),
            ("# TYPE jobs counter\njobs 1\n", "no # HELP"),
            ("# HELP jobs x\n# TYPE jobs counter\n", "no samples"),
            (
                "# HELP jobs x\n# TYPE jobs counter\n# TYPE jobs counter\njobs 1\n",
                "duplicate TYPE",
            ),
            (
                "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
                "not cumulative",
            ),
            (
                "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
                "missing the +Inf bucket",
            ),
            (
                "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n",
                "+Inf bucket 3 != count 2",
            ),
            ("# HELP jobs x\n# TYPE jobs counter\njobs one\n", "malformed sample"),
            ("# HELP jobs x\n# TYPE jobs widget\njobs 1\n", "unknown TYPE kind"),
        ];
        for (text, want) in cases {
            let err = check(text).unwrap_err();
            assert!(
                err.contains(want),
                "{text:?} should fail with {want:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn label_values_may_carry_escapes_and_spaces() {
        let text = "\
# HELP jobs monotonic event count\n\
# TYPE jobs counter\n\
jobs{client=\"a b\\\"c\\\\d\"} 1\n";
        assert!(check(text).unwrap().starts_with("1 families ("));
        assert_eq!(escape_label_value("a b\"c\\d"), "a b\\\"c\\\\d");
    }
}
