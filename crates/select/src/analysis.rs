//! Selection-accuracy analysis: the machinery behind the paper's
//! Table 3 and Fig. 5 comparisons.
//!
//! Given measured execution times of every algorithm at a `(p, m)`
//! point, [`MeasuredPoint`] names who actually won and the percentage
//! degradation of any pick against the best, and [`summarise`] condenses
//! a set of degradations — the quantities reported in Table 3. The
//! Table 3 / Fig. 5 row itself (both picks and their degradations) is
//! `collsel_expt::sweep::SweepPoint`.

use collsel_coll::BcastAlg;
use std::collections::BTreeMap;

/// Measured times of every candidate algorithm at one `(p, m)` point,
/// in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// Process count.
    pub p: usize,
    /// Message size in bytes.
    pub m: usize,
    /// Measured mean time per algorithm.
    pub times: BTreeMap<BcastAlg, f64>,
}

impl MeasuredPoint {
    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty or contains non-positive values.
    pub fn new(p: usize, m: usize, times: BTreeMap<BcastAlg, f64>) -> Self {
        assert!(!times.is_empty(), "need at least one measured algorithm");
        assert!(
            times.values().all(|&t| t.is_finite() && t > 0.0),
            "measured times must be positive"
        );
        MeasuredPoint { p, m, times }
    }

    /// The measured best algorithm and its time.
    pub fn best(&self) -> (BcastAlg, f64) {
        let (&alg, &t) = self
            .times
            .iter()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .expect("non-empty");
        (alg, t)
    }

    /// Percentage degradation of `alg` versus the best (0 for the best
    /// itself), i.e. `100·(T_alg − T_best)/T_best` — the bracketed
    /// numbers of Table 3.
    ///
    /// Returns `None` if `alg` was not measured at this point.
    pub fn degradation_pct(&self, alg: BcastAlg) -> Option<f64> {
        let t = *self.times.get(&alg)?;
        let (_, best) = self.best();
        Some(100.0 * (t - best) / best)
    }
}

/// Summary statistics over a set of comparison rows (used in the
/// paper's prose: "near optimal in 50% cases, up to 160% degradation in
/// the remaining").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorSummary {
    /// Fraction of points within 10% of the best (the paper's "near
    /// optimal" yardstick).
    pub near_optimal_fraction: f64,
    /// Worst-case degradation in percent.
    pub max_degradation_pct: f64,
    /// Mean degradation in percent.
    pub mean_degradation_pct: f64,
}

/// Summarises degradations (percent values).
///
/// # Panics
///
/// Panics if `degradations` is empty.
pub fn summarise(degradations: &[f64]) -> SelectorSummary {
    assert!(!degradations.is_empty(), "no comparison points");
    let n = degradations.len() as f64;
    let near = degradations.iter().filter(|&&d| d <= 10.0).count() as f64;
    SelectorSummary {
        near_optimal_fraction: near / n,
        max_degradation_pct: degradations.iter().copied().fold(f64::MIN, f64::max),
        mean_degradation_pct: degradations.iter().sum::<f64>() / n,
    }
}

// JSON persistence (layout-compatible with the former serde derives).
collsel_support::json_struct!(MeasuredPoint { p, m, times });
collsel_support::json_struct!(SelectorSummary {
    near_optimal_fraction,
    max_degradation_pct,
    mean_degradation_pct
});

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> MeasuredPoint {
        let mut times = BTreeMap::new();
        times.insert(BcastAlg::Binomial, 1.0e-3);
        times.insert(BcastAlg::Binary, 1.1e-3);
        times.insert(BcastAlg::Chain, 2.0e-3);
        MeasuredPoint::new(90, 8192, times)
    }

    #[test]
    fn best_is_minimum() {
        let (alg, t) = point().best();
        assert_eq!(alg, BcastAlg::Binomial);
        assert_eq!(t, 1.0e-3);
    }

    #[test]
    fn degradation_percentages() {
        let p = point();
        assert_eq!(p.degradation_pct(BcastAlg::Binomial), Some(0.0));
        let d = p.degradation_pct(BcastAlg::Binary).unwrap();
        assert!((d - 10.0).abs() < 1e-9);
        let d = p.degradation_pct(BcastAlg::Chain).unwrap();
        assert!((d - 100.0).abs() < 1e-9);
        assert_eq!(p.degradation_pct(BcastAlg::Linear), None);
    }

    #[test]
    fn summary_counts_near_optimal() {
        let s = summarise(&[0.0, 3.0, 10.0, 55.0]);
        assert!((s.near_optimal_fraction - 0.75).abs() < 1e-9);
        assert_eq!(s.max_degradation_pct, 55.0);
        assert!((s.mean_degradation_pct - 17.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_times() {
        let mut times = BTreeMap::new();
        times.insert(BcastAlg::Binomial, 0.0);
        let _ = MeasuredPoint::new(2, 2, times);
    }
}
