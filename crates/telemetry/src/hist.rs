//! Log2-bucketed histograms with exact, order-independent merge.

use json::Value;

/// Bucket index of a value: 0 holds exactly the value 0; bucket `k ≥ 1`
/// holds the range `[2^(k-1), 2^k - 1]`, so a `u64` spans buckets
/// `0..=64`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `k` (see [`bucket_index`]).
#[inline]
fn bucket_lower_bound(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

/// Inclusive upper bound of bucket `k`.
#[inline]
fn bucket_upper_bound(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// A latency distribution in power-of-two buckets.
///
/// The state is all integers (counts, an exact `u128` sum, min/max), so a
/// histogram has one canonical byte representation and [`merge`] — an
/// element-wise add plus min/max folds — is commutative and associative.
/// Merging per-lane shards in *any* order reproduces exactly the histogram
/// a single sequential recorder would have built, which is the property
/// the sequential-vs-parallel determinism suite pins down.
///
/// Quantiles ([`quantile`]) are bucket-resolution upper bounds: the true
/// p99 is guaranteed ≤ the reported value, within a factor of 2. That is
/// deliberately coarse — exact order statistics would need the raw sample
/// stream, which a deterministic bounded accumulator cannot keep.
///
/// Only the buckets up to the highest filled one are stored: a new
/// histogram allocates nothing, and a sample above every filled bucket
/// extends the storage to reach it. Nothing shrinks it, so the stored
/// length is always the highest non-empty bucket plus one, equal states
/// store equal vectors, and a clone allocates exactly the filled range.
///
/// [`merge`]: Histogram::merge
/// [`quantile`]: Histogram::quantile
///
/// # Examples
///
/// ```
/// use sara_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [3, 5, 90, 90, 1200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 3);
/// assert_eq!(h.max(), 1200);
/// assert_eq!(h.quantile(0.5), 127); // p50 upper bound: 90 → bucket [64,127]
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Buckets `0..=k`, `k` the highest non-empty one; empty while no
    /// sample is recorded.
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let k = bucket_index(v);
        match self.buckets.get_mut(k) {
            Some(n) => *n += 1,
            None => self.record_above(k),
        }
    }

    /// Records a sample in bucket `k`, above every filled one.
    #[cold]
    #[inline(never)]
    fn record_above(&mut self, k: usize) {
        self.buckets.resize(k + 1, 0);
        self.buckets[k] = 1;
    }

    /// Folds another histogram's samples into this one, exactly.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += *src;
        }
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 < q ≤ 1.0`), or 0 if empty.
    ///
    /// Uses the nearest-rank definition: the bucket where the cumulative
    /// count first reaches `ceil(q · count)`. Tightened by the observed
    /// extremes, so `quantile(1.0) == max()` exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(k).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(lower, upper, count)` triples in
    /// ascending order (bounds inclusive). This is the raw material for
    /// alternative emissions — the Prometheus encoder turns it into
    /// cumulative `le` series.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (bucket_lower_bound(k), bucket_upper_bound(k), n))
    }

    /// The histogram as one JSON object node.
    ///
    /// Summary fields first, then the non-empty buckets as
    /// `[lower_bound, count]` pairs in ascending order — empty buckets are
    /// elided so sparse distributions stay small. All fields except `mean`
    /// are integers, keeping the emission canonical.
    pub fn to_json_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| Value::Array(vec![bucket_lower_bound(k).into(), n.into()]))
            .collect();
        Value::Object(vec![
            ("count".to_string(), self.count.into()),
            // u128 sums exceed what JSON numbers carry exactly; clamp to
            // u64 (a real overflow needs > 2^64 sample-sum, i.e. decades
            // of simulated cycles times millions of events).
            (
                "sum".to_string(),
                u64::try_from(self.sum).unwrap_or(u64::MAX).into(),
            ),
            ("min".to_string(), self.min().into()),
            ("max".to_string(), self.max.into()),
            ("mean".to_string(), self.mean().into()),
            ("p50".to_string(), self.quantile(0.50).into()),
            ("p90".to_string(), self.quantile(0.90).into()),
            ("p99".to_string(), self.quantile(0.99).into()),
            ("buckets".to_string(), Value::Array(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of buckets: one for zero plus one per bit position of a `u64`.
    const NUM_BUCKETS: usize = 65;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), 64);
        for k in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(k)), k, "lower bound of {k}");
            assert_eq!(bucket_index(bucket_upper_bound(k)), k, "upper bound of {k}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        let json = h.to_json_value().to_string_compact();
        assert!(json.contains("\"buckets\":[]"), "{json}");
    }

    #[test]
    fn summary_statistics_are_exact() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn quantiles_bound_the_true_value() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, true_rank) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let bound = h.quantile(q);
            assert!(bound >= true_rank, "q={q}: {bound} < {true_rank}");
            assert!(bound < true_rank * 2, "q={q}: {bound} ≥ 2×{true_rank}");
        }
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let values: Vec<u64> = (0..500).map(|i| (i * i * 2654435761u64) >> 17).collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut shards = vec![Histogram::new(); 7];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 7].record(v);
        }
        let mut merged = Histogram::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged, whole);
        assert_eq!(
            merged.to_json_value().to_string_compact(),
            whole.to_json_value().to_string_compact()
        );
    }

    /// The determinism keystone: for 64 seeds, sharding a sample stream
    /// and merging the shards in a seeded random order reproduces the
    /// sequential histogram byte-for-byte.
    #[test]
    fn merge_is_order_independent_across_64_seeds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 200 + (seed as usize % 300);
            let values: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix magnitudes so many buckets are exercised.
                    let bits = rng.gen_range(0..40u32);
                    rng.gen_range(0..u64::MAX) >> (63 - bits.min(63))
                })
                .collect();
            let mut whole = Histogram::new();
            for &v in &values {
                whole.record(v);
            }
            let shard_count = 2 + (seed as usize % 9);
            let mut shards = vec![Histogram::new(); shard_count];
            for (i, &v) in values.iter().enumerate() {
                shards[i % shard_count].record(v);
            }
            // Merge shards in a seeded random order.
            let mut order: Vec<usize> = (0..shard_count).collect();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..(i + 1) as u64) as usize;
                order.swap(i, j);
            }
            let mut merged = Histogram::new();
            for &s in &order {
                merged.merge(&shards[s]);
            }
            assert_eq!(merged, whole, "seed {seed}");
            assert_eq!(
                merged.to_json_value().to_string_compact(),
                whole.to_json_value().to_string_compact(),
                "seed {seed}"
            );
        }
    }

    /// The fixed 65-bucket histogram the stored-range representation
    /// replaced, kept as the reference model it must agree with.
    #[derive(Clone)]
    struct Reference {
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
        buckets: [u64; NUM_BUCKETS],
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                buckets: [0; NUM_BUCKETS],
            }
        }

        fn record(&mut self, v: u64) {
            self.count += 1;
            self.sum += u128::from(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.buckets[bucket_index(v)] += 1;
        }

        fn merge(&mut self, other: &Reference) {
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *dst += *src;
            }
        }

        fn min(&self) -> u64 {
            if self.count == 0 {
                0
            } else {
                self.min
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0u64;
            for (k, &n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_upper_bound(k).min(self.max);
                }
            }
            self.max
        }

        fn buckets(&self) -> Vec<(u64, u64, u64)> {
            (0..NUM_BUCKETS)
                .filter(|&k| self.buckets[k] > 0)
                .map(|k| {
                    (
                        bucket_lower_bound(k),
                        bucket_upper_bound(k),
                        self.buckets[k],
                    )
                })
                .collect()
        }

        fn to_json(&self) -> String {
            let mean = if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            };
            let buckets = self
                .buckets()
                .into_iter()
                .map(|(lower, _, n)| Value::Array(vec![lower.into(), n.into()]))
                .collect();
            Value::Object(vec![
                ("count".to_string(), self.count.into()),
                (
                    "sum".to_string(),
                    u64::try_from(self.sum).unwrap_or(u64::MAX).into(),
                ),
                ("min".to_string(), self.min().into()),
                ("max".to_string(), self.max.into()),
                ("mean".to_string(), mean.into()),
                ("p50".to_string(), self.quantile(0.50).into()),
                ("p90".to_string(), self.quantile(0.90).into()),
                ("p99".to_string(), self.quantile(0.99).into()),
                ("buckets".to_string(), Value::Array(buckets)),
            ])
            .to_string_compact()
        }
    }

    /// `h` reads exactly as the reference `r` and stores buckets up to
    /// its highest non-empty one, no further.
    fn assert_agrees(h: &Histogram, r: &Reference, what: &str) {
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (r.count, r.sum, r.min(), r.max),
            "{what}"
        );
        for q in [0.001, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), r.quantile(q), "{what}: q={q}");
        }
        assert_eq!(h.buckets().collect::<Vec<_>>(), r.buckets(), "{what}");
        assert_eq!(h.to_json_value().to_string_compact(), r.to_json(), "{what}");
        let filled = r.buckets.iter().rposition(|&n| n > 0).map_or(0, |k| k + 1);
        assert_eq!(h.buckets.len(), filled, "{what}: stored length");
    }

    /// For 64 seeds, a random script of records, merges and resets over
    /// four histograms leaves the one each step touches agreeing with the
    /// fixed-65-bucket reference; clones allocate exactly their length and a new
    /// histogram allocates nothing. The script reaches 0, `u64::MAX`,
    /// empty↔full merges and short↔long merges in both directions.
    #[test]
    fn stored_buckets_agree_with_the_fixed_reference_across_64_seeds() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Reached: 0, u64::MAX, empty into full, full into empty,
        // short into long, long into short.
        let mut reached = [false; 6];
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pool = vec![(Histogram::new(), Reference::new()); 4];
            for step in 0..200 {
                let i = rng.gen_range(0..pool.len());
                let what = format!("seed {seed} step {step}");
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let v = match rng.gen_range(0..8u32) {
                            0 => 0,
                            1 => u64::MAX,
                            _ => rng.next_u64() >> rng.gen_range(0..64u32),
                        };
                        reached[0] |= v == 0;
                        reached[1] |= v == u64::MAX;
                        pool[i].0.record(v);
                        pool[i].1.record(v);
                    }
                    6..=8 => {
                        let (src, src_ref) = pool[rng.gen_range(0..pool.len())].clone();
                        assert_eq!(src.buckets.capacity(), src.buckets.len(), "{what}: clone");
                        let (dst, src_len) = (pool[i].0.buckets.len(), src.buckets.len());
                        reached[2] |= dst == 0 && src_len > 0;
                        reached[3] |= dst > 0 && src_len == 0;
                        reached[4] |= 0 < dst && dst < src_len;
                        reached[5] |= 0 < src_len && src_len < dst;
                        pool[i].0.merge(&src);
                        pool[i].1.merge(&src_ref);
                    }
                    _ => {
                        pool[i] = (Histogram::new(), Reference::new());
                        assert_eq!(pool[i].0.buckets.capacity(), 0, "{what}: new");
                    }
                }
                assert_agrees(&pool[i].0, &pool[i].1, &what);
            }
        }
        assert_eq!(reached, [true; 6], "the scripts reach every case");
    }
}
