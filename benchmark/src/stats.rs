//! The benchmark's own arithmetic: nearest-rank percentiles, the "ten
//! samples beyond" tail rule, quartile spread, the FNV-1a output digest
//! and the regression verdict. Everything here is unit-tested, because a
//! wrong percentile would silently move every later comparison.

/// Nearest-rank percentile of `values` (need not be sorted): the value at
/// 1-based rank `ceil(p / 100 * n)`. `p` is in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a bug in the
/// workload, not a number to report.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps products that are whole in decimal but not in binary (99.9 % of
/// 10 000) from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The median as the nearest-rank 50th percentile.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The percentile every timing is reported at.
///
/// The benchmark runs on a few cores of a shared host. A neighbour's burst
/// slows the simulator by up to 45 % for seconds at a time, so the median
/// over a 30 s run moves by 10 to 30 % between runs of the same code,
/// while the fast end of the distribution — the same deterministic work
/// on an undisturbed core — stays within a few percent. The tenth
/// percentile is that fast end without resting on a single sample.
pub const QUIET: f64 = 10.0;

/// The quiet-host value of the timing `values`: their [`QUIET`]th
/// percentile.
pub fn quiet(values: &[f64]) -> f64 {
    percentile(values, QUIET)
}

/// The tail percentiles a timing may be reported at, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// How many samples must lie beyond a percentile for it to be reported.
pub const BEYOND: usize = 10;

/// Whether percentile `p` of `n` samples has at least [`BEYOND`] samples
/// beyond it.
pub fn resolvable(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= BEYOND
}

/// The highest tail percentile with at least [`BEYOND`] samples beyond it,
/// as `(p, value)`; `None` when even p90 has fewer (under 100 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    TAILS
        .into_iter()
        .find(|&p| resolvable(values.len(), p))
        .map(|p| (p, percentile(values, p)))
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median; 0 for fewer than two
/// samples (a single run has no spread to speak of).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running 64-bit FNV-1a digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Outcome of comparing one metric on one workload between two result
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// comparison cannot tell.
    Unresolved,
    /// The metric has no bound (per-layer): reported, never judged.
    Info,
}

impl Verdict {
    /// The spelling the comparison table prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// By what share of `base` the value `new` is worse (negative = better).
pub fn worse_by(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        base - new
    } else {
        new - base
    };
    delta / base.abs()
}

/// Judges `new` against `base` (both medians) under `bound`, given each
/// side's spread.
pub fn verdict(
    base: f64,
    new: f64,
    higher_is_better: bool,
    bound: Option<f64>,
    spreads: (f64, f64),
) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if spreads.0 > bound || spreads.1 > bound {
        Verdict::Unresolved
    } else if worse_by(base, new, higher_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        // Order of the input does not matter, odd counts pick the middle.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        // The quiet value is the fastest sample up to ten, the second
        // fastest up to twenty.
        assert_eq!(quiet(&v), 1.0);
        assert_eq!(quiet(&[9.0, 5.0, 7.0]), 5.0);
        let w: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(quiet(&w), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let n = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&n(99)), None);
        // 100 samples: p90 is rank 90, ten samples lie beyond it.
        assert_eq!(tail(&n(100)), Some((90.0, 89.0)));
        assert_eq!(tail(&n(199)).unwrap().0, 90.0);
        assert_eq!(tail(&n(200)).unwrap().0, 95.0);
        assert_eq!(tail(&n(999)).unwrap().0, 95.0);
        assert_eq!(tail(&n(1000)), Some((99.0, 989.0)));
        assert_eq!(tail(&n(10_000)).unwrap().0, 99.9);
        assert!(resolvable(1000, 99.0));
        assert!(!resolvable(999, 99.0));
        assert!(!resolvable(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&v) - 5.5 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding piecewise equals folding at once.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let calm = (0.01, 0.02);
        // Lower is better: 10 % slower is inside a 10 % bound, 11 % is not.
        assert_eq!(verdict(100.0, 110.0, false, Some(0.10), calm), Verdict::Ok);
        assert_eq!(
            verdict(100.0, 111.0, false, Some(0.10), calm),
            Verdict::Worse
        );
        assert_eq!(verdict(100.0, 50.0, false, Some(0.10), calm), Verdict::Ok);
        // Higher is better flips the sign.
        assert_eq!(verdict(100.0, 89.0, true, Some(0.10), calm), Verdict::Worse);
        assert_eq!(verdict(100.0, 150.0, true, Some(0.10), calm), Verdict::Ok);
        // A spread wider than the bound on either side decides nothing.
        assert_eq!(
            verdict(100.0, 200.0, false, Some(0.10), (0.01, 0.11)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, false, Some(0.10), (0.2, 0.0)),
            Verdict::Unresolved
        );
        // Per-layer metrics carry no bound and are never judged.
        assert_eq!(verdict(1.0, 9.0, false, None, calm), Verdict::Info);
        assert!((worse_by(200.0, 150.0, true) - 0.25).abs() < 1e-12);
        assert!((worse_by(200.0, 150.0, false) + 0.25).abs() < 1e-12);
    }
}
