//! Measurement statistics following the paper's methodology.
//!
//! The paper (Sect. 5.1) measures every data point with the MPIBlib
//! methodology: *"the sample mean is used, which is calculated by
//! executing the application repeatedly until the sample mean lies in
//! the 95% confidence interval and a precision of 0.025 (2.5%) has been
//! achieved"*. [`sample_adaptive`] implements exactly that stopping
//! rule, with Student-t confidence intervals and Welford accumulation;
//! [`SampleStats::normality`] provides the paper's independence/
//! normality sanity diagnostics (skewness and excess kurtosis of the
//! sample).
//!
//! There is one sampler for both measurement tiers. The supplier may
//! fail (a watchdog timeout on a faulted cluster), and its error is
//! propagated. A sample that exhausts its budget unconverged is what
//! the caller's tier decides: the unwatched tier takes it as it stands
//! ([`AdaptiveAccumulator::finish`]), and the fault-tolerant tier
//! escalates through an outlier-robust rescue ([`mad_filter`]) before
//! giving up with [`SimError::PrecisionNotReached`] carrying the
//! achieved CI width ([`AdaptiveAccumulator::finish_or_rescue`]).

use collsel_mpi::SimError;

/// Stopping rule for adaptive measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Target half-width of the confidence interval relative to the
    /// mean (the paper uses 0.025).
    pub rel_precision: f64,
    /// Minimum number of samples before the rule may fire.
    pub min_reps: usize,
    /// Hard cap on samples.
    pub max_reps: usize,
}

impl Precision {
    /// The paper's setting: 2.5% precision at 95% confidence.
    pub fn paper() -> Self {
        Precision {
            rel_precision: 0.025,
            min_reps: 5,
            max_reps: 200,
        }
    }

    /// A loose, fast setting for smoke tests and benchmarks.
    pub fn quick() -> Self {
        Precision {
            rel_precision: 0.10,
            min_reps: 3,
            max_reps: 10,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the precision is not in `(0, 1)` or the rep bounds are
    /// inconsistent.
    pub fn validate(&self) {
        assert!(
            self.rel_precision > 0.0 && self.rel_precision < 1.0,
            "relative precision must be in (0, 1), got {}",
            self.rel_precision
        );
        assert!(self.min_reps >= 2, "need at least two samples for a CI");
        assert!(self.max_reps >= self.min_reps, "max_reps < min_reps");
    }
}

impl Default for Precision {
    fn default() -> Self {
        Precision::paper()
    }
}

/// Welford online accumulator for mean and variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
///
/// Exact table for small `df`, asymptotic 1.96 beyond 30.
pub fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=60 => 2.00,
        _ => 1.96,
    }
}

/// Result of an adaptive measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Number of samples taken.
    pub n: usize,
    /// Half-width of the 95% confidence interval of the mean.
    pub ci_half_width: f64,
    /// Whether the precision target was met before `max_reps`.
    pub converged: bool,
    /// Sample skewness (0 for a symmetric distribution).
    pub skewness: f64,
    /// Sample excess kurtosis (0 for a normal distribution).
    pub excess_kurtosis: f64,
}

impl SampleStats {
    /// A loose normality diagnostic: moderate skewness and kurtosis.
    /// The paper checks that observations "follow the normal
    /// distribution"; with seeded log-normal jitter this holds for
    /// small σ.
    pub fn normality(&self) -> bool {
        self.skewness.abs() < 2.0 && self.excess_kurtosis.abs() < 7.0
    }
}

/// Incremental state of one adaptive measurement: the MPIBlib stopping
/// rule of [`sample_adaptive`], exposed one batch at a time so several
/// interleaved measurements can share a round-robin driver (the
/// leader-settled family cells of
/// [`measure_family_cell`](crate::measure_family_cell)).
///
/// Feeding the accumulator the same batches in the same order as
/// [`sample_adaptive`] would pull them produces **bit-identical**
/// statistics: the convergence check, the Welford pushes and the final
/// summary reuse the exact float arithmetic of the closed-loop
/// function (which is itself implemented on top of this type).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveAccumulator {
    samples: Vec<f64>,
    acc: Welford,
    batches: usize,
    converged: bool,
}

impl AdaptiveAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        AdaptiveAccumulator::default()
    }

    /// Number of batches pushed so far — the `batch_index` the next
    /// supplier call should receive.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Number of samples accumulated so far.
    pub fn n(&self) -> usize {
        self.acc.count()
    }

    /// Running sample mean.
    pub fn mean(&self) -> f64 {
        self.acc.mean()
    }

    /// Half-width of the running 95% confidence interval of the mean
    /// (infinite below two samples).
    pub fn ci_half_width(&self) -> f64 {
        let n = self.acc.count();
        if n >= 2 {
            t_critical_95(n - 1) * self.acc.std_dev() / (n as f64).sqrt()
        } else {
            f64::INFINITY
        }
    }

    /// Whether the stopping rule would pull no further batch: the
    /// precision target was met or the sample budget is spent.
    pub fn done(&self, precision: &Precision) -> bool {
        self.converged || self.samples.len() >= precision.max_reps
    }

    /// Folds one non-empty batch in and re-evaluates the stopping rule.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or a non-finite sample.
    pub fn push_batch(&mut self, batch: Vec<f64>, precision: &Precision) {
        assert!(!batch.is_empty(), "sample supplier returned an empty batch");
        self.batches += 1;
        for x in batch {
            assert!(x.is_finite(), "non-finite sample {x}");
            self.samples.push(x);
            self.acc.push(x);
        }
        if self.samples.len() >= precision.min_reps {
            let half = t_critical_95(self.acc.count() - 1) * self.acc.std_dev()
                / (self.acc.count() as f64).sqrt();
            let mean = self.acc.mean();
            if mean == 0.0 || half / mean.abs() <= precision.rel_precision {
                self.converged = true;
            }
        }
    }

    /// The final summary over everything pushed so far, converged or
    /// not: the unwatched tier's result.
    pub fn finish(&self) -> SampleStats {
        stats_from(&self.samples, self.converged)
    }

    /// The fault-tolerant tier's summary: a converged sample as
    /// [`finish`](Self::finish) returns it. An unconverged one gets an
    /// outlier-robust rescue: samples outside `k = 3` MADs of the median
    /// ([`mad_filter`]) are dropped and the CI recomputed. If the
    /// filtered sample converges (and still holds at least `min_reps`
    /// points), its statistics are returned with `converged == true`.
    ///
    /// # Errors
    ///
    /// [`SimError::PrecisionNotReached`], carrying the achieved relative
    /// CI half-width, when neither the raw nor the MAD-filtered sample
    /// meets the target.
    pub(crate) fn finish_or_rescue(&self, precision: &Precision) -> Result<SampleStats, SimError> {
        let raw = self.finish();
        if raw.converged {
            return Ok(raw);
        }
        let rel = |s: &SampleStats| {
            if s.mean == 0.0 {
                0.0
            } else {
                s.ci_half_width / s.mean.abs()
            }
        };
        let filtered = mad_filter(&self.samples, 3.0);
        if filtered.len() >= precision.min_reps && filtered.len() < self.samples.len() {
            let rescued = stats_from(&filtered, false);
            if rel(&rescued) <= precision.rel_precision {
                return Ok(SampleStats {
                    converged: true,
                    ..rescued
                });
            }
        }
        Err(SimError::PrecisionNotReached {
            target: precision.rel_precision,
            achieved: rel(&raw),
            samples: raw.n,
        })
    }
}

/// Draws samples from `supplier` until the sample mean lies within
/// `precision.rel_precision` of its 95% confidence interval (or the
/// sample budget runs out), and returns the accumulator it drove.
/// [`finish`](AdaptiveAccumulator::finish) summarises the sample as it
/// stands, converged or not;
/// [`finish_or_rescue`](AdaptiveAccumulator::finish_or_rescue) is the
/// fault-tolerant tier's summary of the same sample.
///
/// `supplier(batch_index)` returns a non-empty batch of fresh samples
/// (letting callers amortise setup over several repetitions); its
/// errors (e.g. a watchdog [`SimError::Timeout`] on a faulted cluster)
/// are propagated.
///
/// # Errors
///
/// Propagates supplier errors.
///
/// # Panics
///
/// Panics if the configuration is invalid or a batch is empty.
pub fn sample_adaptive(
    precision: &Precision,
    mut supplier: impl FnMut(usize) -> Result<Vec<f64>, SimError>,
) -> Result<AdaptiveAccumulator, SimError> {
    precision.validate();
    let mut acc = AdaptiveAccumulator::new();
    while !acc.done(precision) {
        let batch = supplier(acc.batches())?;
        acc.push_batch(batch, precision);
    }
    Ok(acc)
}

/// Builds [`SampleStats`] from a complete sample.
fn stats_from(samples: &[f64], converged: bool) -> SampleStats {
    let mut acc = Welford::new();
    for &x in samples {
        acc.push(x);
    }
    let mean = acc.mean();
    let std_dev = acc.std_dev();
    let n = acc.count();
    let ci_half_width = if n >= 2 {
        t_critical_95(n - 1) * std_dev / (n as f64).sqrt()
    } else {
        f64::INFINITY
    };
    let (skewness, excess_kurtosis) = higher_moments(samples, mean, std_dev);
    SampleStats {
        mean,
        std_dev,
        n,
        ci_half_width,
        converged,
        skewness,
        excess_kurtosis,
    }
}

/// Sample median (average of the central pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Median absolute deviation from the median (unscaled).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let deviations: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Keeps the observations within `k` MADs of the sample median.
///
/// With a zero MAD (at least half the sample identical) only exact
/// ties with the median survive — which is the right call for a
/// measurement stream polluted by a few straggler spikes.
pub fn mad_filter(xs: &[f64], k: f64) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let m = median(xs);
    let spread = mad(xs);
    xs.iter()
        .copied()
        .filter(|x| (x - m).abs() <= k * spread)
        .collect()
}

fn higher_moments(samples: &[f64], mean: f64, std_dev: f64) -> (f64, f64) {
    let n = samples.len() as f64;
    if samples.len() < 3 || std_dev == 0.0 {
        return (0.0, 0.0);
    }
    let m3: f64 = samples
        .iter()
        .map(|x| ((x - mean) / std_dev).powi(3))
        .sum::<f64>()
        / n;
    let m4: f64 = samples
        .iter()
        .map(|x| ((x - mean) / std_dev).powi(4))
        .sum::<f64>()
        / n;
    (m3, m4 - 3.0)
}

// JSON persistence (layout-compatible with the former serde derives).
collsel_support::json_struct!(SampleStats {
    mean,
    std_dev,
    n,
    ci_half_width,
    converged,
    skewness,
    excess_kurtosis
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::unwatched;

    /// The unwatched tier over an infallible supplier.
    fn sample(precision: &Precision, mut supplier: impl FnMut(usize) -> Vec<f64>) -> SampleStats {
        unwatched(sample_adaptive(precision, |b| Ok(supplier(b)))).finish()
    }

    /// The fault-tolerant tier over an infallible supplier.
    fn sample_watched(
        precision: &Precision,
        mut supplier: impl FnMut(usize) -> Vec<f64>,
    ) -> Result<SampleStats, SimError> {
        unwatched(sample_adaptive(precision, |b| Ok(supplier(b)))).finish_or_rescue(precision)
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn t_table_spot_checks() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(10) - 2.228).abs() < 1e-9);
        assert_eq!(t_critical_95(1000), 1.96);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn constant_samples_converge_at_min_reps() {
        let p = Precision::paper();
        let stats = sample(&p, |_| vec![3.5]);
        assert_eq!(stats.n, p.min_reps);
        assert!(stats.converged);
        assert_eq!(stats.mean, 3.5);
        assert_eq!(stats.ci_half_width, 0.0);
    }

    #[test]
    fn noisy_samples_run_until_precision() {
        // Deterministic pseudo-noise around 100 with ~5% spread.
        let mut k = 0u64;
        let stats = sample(&Precision::paper(), move |_| {
            k += 1;
            let wobble = ((k * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
            vec![100.0 * (1.0 + 0.05 * wobble)]
        });
        assert!(stats.converged, "{stats:?}");
        assert!((stats.mean - 100.0).abs() < 2.0);
        assert!(stats.ci_half_width / stats.mean <= 0.025);
    }

    #[test]
    fn hits_max_reps_without_convergence() {
        // Alternating extreme values never tighten the CI to 2.5%.
        let mut flip = false;
        let p = Precision {
            rel_precision: 0.025,
            min_reps: 4,
            max_reps: 12,
        };
        let stats = sample(&p, move |_| {
            flip = !flip;
            vec![if flip { 1.0 } else { 100.0 }]
        });
        assert!(!stats.converged);
        assert_eq!(stats.n, 12);
    }

    #[test]
    fn batches_are_accumulated() {
        let stats = sample(&Precision::paper(), |_| vec![2.0, 2.0, 2.0]);
        assert!(stats.n >= Precision::paper().min_reps);
        assert_eq!(stats.mean, 2.0);
    }

    #[test]
    fn zero_mean_short_circuits() {
        let stats = sample(&Precision::paper(), |_| vec![0.0]);
        assert!(stats.converged);
        assert_eq!(stats.mean, 0.0);
    }

    #[test]
    fn moments_of_symmetric_sample_are_small() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 - 49.5) / 10.0).collect();
        let mean = 0.0;
        let sd = (xs.iter().map(|x| x * x).sum::<f64>() / 99.0).sqrt();
        let (skew, kurt) = higher_moments(&xs, mean, sd);
        assert!(skew.abs() < 1e-9);
        assert!(kurt < 0.0, "uniform-ish sample is platykurtic");
    }

    #[test]
    fn normality_flag() {
        let s = SampleStats {
            mean: 1.0,
            std_dev: 0.1,
            n: 10,
            ci_half_width: 0.01,
            converged: true,
            skewness: 0.2,
            excess_kurtosis: 0.5,
        };
        assert!(s.normality());
        let bad = SampleStats { skewness: 5.0, ..s };
        assert!(!bad.normality());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = sample(&Precision::paper(), |_| Vec::new());
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn mad_filter_removes_spikes() {
        let xs = [10.0, 10.2, 9.8, 10.1, 9.9, 500.0];
        let kept = mad_filter(&xs, 3.0);
        assert_eq!(kept.len(), 5);
        assert!(kept.iter().all(|&x| x < 11.0));
    }

    #[test]
    fn watched_tier_matches_unwatched_on_a_converging_sample() {
        let mk = || {
            let mut k = 0u64;
            move |_: usize| {
                k += 1;
                let wobble = ((k * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                vec![100.0 * (1.0 + 0.05 * wobble)]
            }
        };
        let p = Precision::paper();
        assert_eq!(Ok(sample(&p, mk())), sample_watched(&p, mk()));
    }

    #[test]
    fn supplier_errors_propagate() {
        let p = Precision::quick();
        let timeout = SimError::Timeout {
            deadline: collsel_netsim::SimSpan::from_micros(10),
            detail: "test".into(),
        };
        let outcome = sample_adaptive(&p, |b| {
            if b == 0 {
                Ok(vec![1.0])
            } else {
                Err(timeout.clone())
            }
        });
        assert_eq!(outcome.map(|acc| acc.finish()), Err(timeout));
    }

    #[test]
    fn watched_tier_rescues_with_mad_filter() {
        // Tight cluster around 10 with periodic huge spikes: the raw CI
        // never reaches 2.5%, the filtered one trivially does.
        let mut k = 0usize;
        let p = Precision {
            rel_precision: 0.025,
            min_reps: 5,
            max_reps: 20,
        };
        let Ok(stats) = sample_watched(&p, |_| {
            k += 1;
            vec![if k % 4 == 0 { 500.0 } else { 10.0 }]
        }) else {
            panic!("MAD rescue should save this")
        };
        assert!(stats.converged);
        assert!((stats.mean - 10.0).abs() < 1e-9, "{stats:?}");
        assert!(stats.n < 20, "outliers were dropped");
    }

    #[test]
    fn watched_tier_reports_precision_not_reached() {
        // Alternating extremes: median-based filtering cannot rescue a
        // bimodal sample, so the typed error must carry the CI width.
        let mut flip = false;
        let p = Precision {
            rel_precision: 0.025,
            min_reps: 4,
            max_reps: 12,
        };
        match sample_watched(&p, |_| {
            flip = !flip;
            vec![if flip { 1.0 } else { 100.0 }]
        }) {
            Err(SimError::PrecisionNotReached {
                target,
                achieved,
                samples,
            }) => {
                assert_eq!(target, 0.025);
                assert!(achieved > 0.025);
                assert_eq!(samples, 12);
            }
            other => panic!("expected PrecisionNotReached, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn median_of_empty_panics() {
        let _ = median(&[]);
    }

    #[test]
    #[should_panic(expected = "relative precision")]
    fn invalid_precision_panics() {
        let p = Precision {
            rel_precision: 0.0,
            min_reps: 2,
            max_reps: 5,
        };
        let _ = sample(&p, |_| vec![1.0]);
    }
}
