//! Seeded input generation and the summary statistics every metric is
//! reported with: order statistics, quartiles, the tail-percentile rule
//! and the Wilson score interval used by the statistical oracles.

/// Two-sided standard-normal quantile for confidence `1 - 1e-8`: the
/// level of the SMC oracles. At a few hundred runs and `p` near 0.02
/// the Wilson interval under-covers badly (non-coverage up to 6.5e-4 at
/// the nominal 99.99%), which would fail a correct engine about once in
/// 1 500 checks; at this level the exact binomial non-coverage stays
/// below 3e-6 per check.
pub const Z_ORACLE: f64 = 5.730_728_869_267_08;

/// SplitMix64: a tiny, well-mixed generator, so every input the bench
/// derives from `--seed` is reproducible without an RNG dependency.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed: distinct streams of
    /// the same seed are independent.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let v = (self.next_u64() >> 11) as f64;
        v / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = u64::try_from(hi - lo).expect("non-negative span") + 1;
        lo + i64::try_from(self.next_u64() % span).expect("span fits i64")
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = usize::try_from(self.next_u64() % (i as u64 + 1)).expect("index fits");
            items.swap(i, j);
        }
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                #[allow(clippy::cast_precision_loss)]
                let w = 1.0 / (r as f64).powf(s);
                acc += w;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Sorts a copy of `values` (NaN-free by construction: every value is a
/// measured duration, size or count).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of sorted values by linear
/// interpolation between order statistics; `None` when empty.
#[must_use]
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    #[allow(clippy::cast_precision_loss)]
    let rank = p.clamp(0.0, 1.0) * last as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    #[allow(clippy::cast_precision_loss)]
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of unsorted values.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values), 0.5)
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// the spreads `compare` prints match the ones a Python script computes
/// from the same values. A single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    match data.len() {
        0 => None,
        1 => Some((data[0], data[0])),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                #[allow(clippy::cast_precision_loss)]
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// The tail rule: the highest percentile with at least ten samples
/// beyond it. Returns `(percentile, value)` from sorted values, or
/// `None` below 20 samples, where even the median has fewer than ten
/// samples beyond it.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 20 {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    Some((pct, sorted[n - 11]))
}

/// The Wilson score interval for `k` successes in `n` trials at normal
/// quantile `z`.
#[must_use]
pub fn wilson(k: usize, n: usize, z: f64) -> (f64, f64) {
    #[allow(clippy::cast_precision_loss)]
    let (k, n) = (k as f64, n as f64);
    let p = k / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-sided standard-normal quantile for 99.99% confidence.
    const Z_9999: f64 = 3.890_591_886_413_12;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let v = |n: usize| -> Vec<f64> {
            #[allow(clippy::cast_precision_loss)]
            (1..=n).map(|i| i as f64).collect()
        };
        assert_eq!(tail(&v(19)), None);
        // n = 20: only the median has ten samples beyond it.
        assert_eq!(tail(&v(20)), Some((50.0, 10.0)));
        // n = 4000: p99.75, the 3990th value.
        let (p, x) = tail(&v(4000)).expect("tail");
        assert!(close(p, 99.75, 1e-12));
        assert!(close(x, 3990.0, 0.0));
        assert_eq!(v(4000).iter().filter(|&&y| y > x).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn interpolated_quantiles() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.5), Some(25.0));
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(40.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn wilson_matches_textbook_values() {
        // Closed form evaluated independently (Newcombe 1998, eq. 3):
        // 81/263 at 95% -> [0.2553, 0.3662].
        let (lo, hi) = wilson(81, 263, 1.959_963_984_540_054);
        assert!(
            close(lo, 0.255_3, 5e-5) && close(hi, 0.366_2, 5e-5),
            "{lo} {hi}"
        );
        // 15/148 at 95% -> [0.0624, 0.1605] (Newcombe's example 2).
        let (lo, hi) = wilson(15, 148, 1.959_963_984_540_054);
        assert!(
            close(lo, 0.062_4, 5e-5) && close(hi, 0.160_5, 5e-5),
            "{lo} {hi}"
        );
        // 99.99%: 50/2000 -> [0.01457, 0.04256].
        let (lo, hi) = wilson(50, 2000, Z_9999);
        assert!(
            close(lo, 0.014_57, 5e-5) && close(hi, 0.042_56, 5e-5),
            "{lo} {hi}"
        );
        // Boundary cases stay inside [0, 1].
        assert_eq!(wilson(0, 10, Z_9999).0, 0.0);
        assert_eq!(wilson(10, 10, Z_9999).1, 1.0);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut r = Rng::new(7, 0);
        assert!((0..1000)
            .map(|_| r.range(3, 5))
            .all(|x| (3..=5).contains(&x)));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(48, 1.0);
        let mut r = Rng::new(1, 0);
        let mut counts = [0usize; 48];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // Rank 0 carries 1/H(48) ≈ 22.4% of the mass.
        assert!((4000..5000).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    }
}
