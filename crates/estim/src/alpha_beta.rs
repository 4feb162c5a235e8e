//! Estimation of the algorithm-specific α and β — the paper's
//! Sect. 4.2.
//!
//! For each broadcast algorithm, a set of communication experiments is
//! run, each consisting of the *modelled broadcast itself* (of `m_i`
//! bytes) followed by a linear gather without synchronisation (of
//! `m_gᵢ` bytes), timed on the root. Each experiment contributes one
//! linear equation in (α, β):
//!
//! ```text
//! (a_bcast + a_gather)·α + (b_bcast + b_gather)·β = T_i
//! ```
//!
//! which is canonicalised to `α + x_i·β = y_i` (the system of the
//! paper's Fig. 4) and solved with the Huber robust regressor.
//!
//! Estimating the parameters *inside the algorithm's own execution
//! context* — rather than from bare point-to-point round-trips — is the
//! paper's second key innovation, and is what lets the models absorb
//! contention, protocol and pipelining effects the Hockney abstraction
//! cannot express.

use crate::measure::{measure_batch, try_measure_batch, RetryPolicy, TimedProgram};
use crate::regress::huber_default;
use crate::stats::{Precision, SampleStats};
use collsel_coll::BcastAlg;
use collsel_model::{derived, FitValidity, GammaTable, Hockney};
use collsel_mpi::{Backend, SimError};
use collsel_netsim::ClusterModel;
use collsel_support::pool::Pool;
use std::collections::BTreeMap;

/// Configuration of the α/β estimation experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaBetaConfig {
    /// Pipeline segment size `m_s` (the paper uses 8 KB).
    pub seg_size: usize,
    /// Broadcast message sizes `m_i` (the paper: 10 sizes, log-spaced
    /// from 8 KB to 4 MB).
    pub msg_sizes: Vec<usize>,
    /// Gather contribution sizes `m_gᵢ` (the paper requires
    /// `m_g ≠ m_s`; one per message size).
    pub gather_sizes: Vec<usize>,
    /// Number of processes in the experiments (the paper uses about
    /// half the cluster on Grisou — 40 — and all 124 on Gros).
    pub p: usize,
    /// Stopping rule per experiment.
    pub precision: Precision,
    /// Execution backend of the measurement simulations (both return
    /// bit-identical statistics; the timing DAG is the campaign hot
    /// path).
    pub backend: Backend,
}

/// `count` sizes log-spaced (inclusive) between `lo` and `hi`.
///
/// # Panics
///
/// Panics if `lo` or `hi` is zero, `lo > hi`, or `count < 2`.
pub fn log_spaced_sizes(lo: usize, hi: usize, count: usize) -> Vec<usize> {
    assert!(lo > 0 && hi > 0, "sizes must be positive");
    assert!(lo <= hi, "lo must not exceed hi");
    assert!(count >= 2, "need at least two sizes");
    let (lo_f, hi_f) = (lo as f64, hi as f64);
    (0..count)
        .map(|i| {
            let t = i as f64 / (count - 1) as f64;
            (lo_f * (hi_f / lo_f).powf(t)).round() as usize
        })
        .collect()
}

impl AlphaBetaConfig {
    /// The paper's configuration for a `p`-process experiment: 8 KB
    /// segments, 10 log-spaced sizes in 8 KB..4 MB, gather
    /// contributions log-spaced in 1..64 KB (distinct from `m_s`).
    pub fn paper(p: usize) -> Self {
        AlphaBetaConfig {
            seg_size: 8 * 1024,
            msg_sizes: log_spaced_sizes(8 * 1024, 4 * 1024 * 1024, 10),
            gather_sizes: log_spaced_sizes(1024, 64 * 1024, 10),
            p,
            precision: Precision::paper(),
            backend: Backend::default(),
        }
    }

    /// A small, fast configuration for tests.
    ///
    /// The gather range matters for conditioning: the canonical
    /// abscissa `x` must vary enough across experiments, which for the
    /// segmented algorithms (whose own per-stage size is pinned to
    /// `m_s`) comes mostly from the `(P-1)·m_g` gather term.
    pub fn quick(p: usize) -> Self {
        AlphaBetaConfig {
            seg_size: 8 * 1024,
            msg_sizes: log_spaced_sizes(8 * 1024, 1024 * 1024, 5),
            gather_sizes: log_spaced_sizes(2 * 1024, 64 * 1024, 5),
            p,
            precision: Precision::quick(),
            backend: Backend::default(),
        }
    }

    fn validate(&self) {
        assert!(self.seg_size > 0, "segment size must be positive");
        assert!(self.p >= 2, "experiments need at least two processes");
        assert_eq!(
            self.msg_sizes.len(),
            self.gather_sizes.len(),
            "one gather size per message size"
        );
        assert!(
            self.msg_sizes.len() >= 2,
            "need at least two experiments to fit two parameters"
        );
    }
}

/// One experiment's canonicalised equation and measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentPoint {
    /// Broadcast message size `m_i`.
    pub msg_size: usize,
    /// Gather contribution size `m_gᵢ`.
    pub gather_size: usize,
    /// Canonical abscissa `x_i = b_i / a_i` (bytes).
    pub x: f64,
    /// Canonical ordinate `y_i = T_i / a_i` (seconds).
    pub y: f64,
    /// The raw measured experiment time.
    pub measured: SampleStats,
}

/// Result of the α/β estimation for one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaBetaEstimate {
    /// The fitted per-algorithm Hockney pair.
    pub hockney: Hockney,
    /// The canonicalised system that was solved.
    pub points: Vec<ExperimentPoint>,
}

impl AlphaBetaEstimate {
    /// Judges whether this fit may be trusted for ranking algorithms.
    ///
    /// Derived from the stored data, never persisted: the fit is valid
    /// when both parameters are finite and non-negative, not jointly
    /// zero, and every underlying experiment's measurement converged to
    /// the precision target. A non-valid verdict carries the reason
    /// (and, for unconverged fits, the worst achieved relative CI
    /// half-width), which the selection layer reports when it falls
    /// back to the Open MPI rules.
    pub fn validity(&self) -> FitValidity {
        let mut all_converged = true;
        let mut worst_ci = 0.0f64;
        for pt in &self.points {
            if !pt.measured.converged {
                all_converged = false;
                let rel = if pt.measured.mean == 0.0 {
                    f64::INFINITY
                } else {
                    pt.measured.ci_half_width / pt.measured.mean.abs()
                };
                worst_ci = worst_ci.max(rel);
            }
        }
        FitValidity::judge(
            self.hockney.alpha,
            self.hockney.beta,
            all_converged,
            worst_ci,
        )
    }
}

/// The experiment cells of one algorithm's estimation, in point order,
/// each with its own seed.
fn experiment_cells(alg: BcastAlg, cfg: &AlphaBetaConfig, seed: u64) -> Vec<(TimedProgram, u64)> {
    cfg.msg_sizes
        .iter()
        .zip(&cfg.gather_sizes)
        .enumerate()
        .map(|(idx, (&m, &m_g))| {
            let program = TimedProgram::BcastGather {
                alg,
                p: cfg.p,
                m,
                m_g,
                seg_size: cfg.seg_size,
            };
            (program, seed.wrapping_add(idx as u64 * 7919))
        })
        .collect()
}

/// The whole algorithm × message-size grid as one batch, algorithm by
/// algorithm, so the pool load-balances across all cells at once
/// instead of synchronising between algorithms.
fn all_experiment_cells(cfg: &AlphaBetaConfig, seed: u64) -> Vec<(TimedProgram, u64)> {
    BcastAlg::ALL
        .iter()
        .enumerate()
        .flat_map(|(i, &alg)| experiment_cells(alg, cfg, seed.wrapping_add((i as u64) << 32)))
        .collect()
}

/// Canonicalises the measured cells and fits (α, β) with the Huber
/// regressor; `measured` is in point order.
fn fit_from_measurements(
    alg: BcastAlg,
    cfg: &AlphaBetaConfig,
    gamma: &GammaTable,
    measured: Vec<SampleStats>,
) -> AlphaBetaEstimate {
    let points: Vec<ExperimentPoint> = cfg
        .msg_sizes
        .iter()
        .zip(&cfg.gather_sizes)
        .zip(measured)
        .map(|((&m, &m_g), measured)| {
            let coeff = derived::bcast_coefficients(alg, cfg.p, m, cfg.seg_size, gamma)
                .plus(derived::gather_linear_coefficients(cfg.p, m_g));
            let (x, y) = coeff.canonicalise(measured.mean);
            ExperimentPoint {
                msg_size: m,
                gather_size: m_g,
                x,
                y,
                measured,
            }
        })
        .collect();
    let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    let fit = huber_default(&xs, &ys);
    AlphaBetaEstimate {
        hockney: Hockney::new(fit.intercept.max(0.0), fit.slope.max(0.0)),
        points,
    }
}

/// Runs the Sect. 4.2 experiments for `alg` and fits (α, β) with the
/// Huber regressor. Negative fitted values (possible when the model's
/// startup count overestimates reality) are clamped to zero, as the
/// Hockney parameters are physical quantities.
///
/// The per-size experiments are independent (each carries its own seed
/// derived from its point index) and fan out across the current
/// [`Pool`]; the fit is bit-identical to serial execution at any thread
/// count.
///
/// # Panics
///
/// Panics if the configuration is invalid or `p` exceeds the cluster.
pub fn estimate_alpha_beta(
    cluster: &ClusterModel,
    alg: BcastAlg,
    cfg: &AlphaBetaConfig,
    gamma: &GammaTable,
    seed: u64,
) -> AlphaBetaEstimate {
    cfg.validate();
    let cells = experiment_cells(alg, cfg, seed);
    let measured = measure_batch(
        cluster,
        &cells,
        &cfg.precision,
        Pool::current(),
        cfg.backend,
    );
    fit_from_measurements(alg, cfg, gamma, measured)
}

/// Runs the estimation for all six broadcast algorithms, the whole
/// grid in one batch.
pub fn estimate_all_alpha_beta(
    cluster: &ClusterModel,
    cfg: &AlphaBetaConfig,
    gamma: &GammaTable,
    seed: u64,
) -> BTreeMap<BcastAlg, AlphaBetaEstimate> {
    cfg.validate();
    let measured = measure_batch(
        cluster,
        &all_experiment_cells(cfg, seed),
        &cfg.precision,
        Pool::current(),
        cfg.backend,
    );
    let n = cfg.msg_sizes.len();
    let mut cells = measured.into_iter();
    BcastAlg::ALL
        .iter()
        .map(|&alg| {
            let alg_cells: Vec<SampleStats> = cells.by_ref().take(n).collect();
            (alg, fit_from_measurements(alg, cfg, gamma, alg_cells))
        })
        .collect()
}

/// Fallible twin of [`estimate_alpha_beta`]: each experiment runs under
/// `policy`'s virtual-time watchdog, and a point whose measurement
/// stalls past every retry or cannot reach the precision target aborts
/// this algorithm's estimation with a typed error — the caller decides
/// whether to skip the algorithm or give up (see
/// [`try_estimate_all_alpha_beta`]).
///
/// # Errors
///
/// Propagates the first [`SimError`] from any experiment.
///
/// # Panics
///
/// Panics if the configuration is invalid or `p` exceeds the cluster.
pub fn try_estimate_alpha_beta(
    cluster: &ClusterModel,
    alg: BcastAlg,
    cfg: &AlphaBetaConfig,
    gamma: &GammaTable,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<AlphaBetaEstimate, SimError> {
    cfg.validate();
    // All cells run even past a failure; the returned error is the
    // first one in point order — the early-exiting serial loop's.
    let measured: Result<Vec<SampleStats>, SimError> = try_measure_batch(
        cluster,
        &experiment_cells(alg, cfg, seed),
        &cfg.precision,
        policy,
        Pool::current(),
        cfg.backend,
    )
    .into_iter()
    .collect();
    Ok(fit_from_measurements(alg, cfg, gamma, measured?))
}

/// Runs the fallible estimation for all six broadcast algorithms,
/// keeping per-algorithm outcomes separate: one algorithm timing out
/// under a fault plan must not discard the five fits that succeeded.
/// The tuner turns `Err` entries into skipped algorithms and the
/// selector falls back to the Open MPI rules for them.
pub fn try_estimate_all_alpha_beta(
    cluster: &ClusterModel,
    cfg: &AlphaBetaConfig,
    gamma: &GammaTable,
    seed: u64,
    policy: &RetryPolicy,
) -> BTreeMap<BcastAlg, Result<AlphaBetaEstimate, SimError>> {
    cfg.validate();
    // Regroup the flat batch per algorithm: each algorithm's outcome is
    // its cells' results folded in point order, so one algorithm's
    // failure leaves the others' fits intact and the reported error
    // matches the serial loop's.
    let outcomes = try_measure_batch(
        cluster,
        &all_experiment_cells(cfg, seed),
        &cfg.precision,
        policy,
        Pool::current(),
        cfg.backend,
    );
    let n = cfg.msg_sizes.len();
    let mut cells = outcomes.into_iter();
    BcastAlg::ALL
        .iter()
        .map(|&alg| {
            let alg_cells: Result<Vec<SampleStats>, SimError> = cells.by_ref().take(n).collect();
            (
                alg,
                alg_cells.map(|measured| fit_from_measurements(alg, cfg, gamma, measured)),
            )
        })
        .collect()
}

// JSON persistence (layout-compatible with the former serde derives).
collsel_support::json_struct!(ExperimentPoint {
    msg_size,
    gather_size,
    x,
    y,
    measured
});
collsel_support::json_struct!(AlphaBetaEstimate { hockney, points });

#[cfg(test)]
mod tests {
    use super::*;
    use collsel_netsim::NoiseParams;

    #[test]
    fn log_spacing_is_constant_in_log() {
        let sizes = log_spaced_sizes(8 * 1024, 4 * 1024 * 1024, 10);
        assert_eq!(sizes.len(), 10);
        assert_eq!(sizes[0], 8 * 1024);
        assert_eq!(sizes[9], 4 * 1024 * 1024);
        let ratios: Vec<f64> = sizes
            .windows(2)
            .map(|w| w[1] as f64 / w[0] as f64)
            .collect();
        for r in &ratios {
            assert!((r - ratios[0]).abs() / ratios[0] < 0.01, "{ratios:?}");
        }
    }

    #[test]
    fn fits_positive_parameters_on_quiet_cluster() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let gamma = GammaTable::from_pairs([(3, 1.08), (5, 1.25), (7, 1.42)]);
        let cfg = AlphaBetaConfig::quick(24);
        let est = estimate_alpha_beta(&cluster, BcastAlg::Binomial, &cfg, &gamma, 1);
        assert!(est.hockney.beta > 0.0, "{:?}", est.hockney);
        assert!(est.hockney.alpha >= 0.0);
        assert_eq!(est.points.len(), 5);
        // The canonical points should be increasing in x.
        for w in est.points.windows(2) {
            assert!(w[1].x > w[0].x);
        }
    }

    #[test]
    fn model_with_fitted_params_tracks_measurement() {
        // Self-consistency: predict the experiment's own configurations
        // within a reasonable factor (the two-parameter Hockney model
        // cannot be tight against the richer simulated network at both
        // ends of the size range).
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let gamma = GammaTable::from_pairs([(3, 1.08), (5, 1.25), (7, 1.42)]);
        let cfg = AlphaBetaConfig::quick(24);
        let est = estimate_alpha_beta(&cluster, BcastAlg::Chain, &cfg, &gamma, 2);
        for pt in &est.points {
            let pred = derived::predict_bcast(
                BcastAlg::Chain,
                cfg.p,
                pt.msg_size,
                cfg.seg_size,
                &gamma,
                &est.hockney,
            ) + est
                .hockney
                .eval(derived::gather_linear_coefficients(cfg.p, pt.gather_size));
            let ratio = pred / pt.measured.mean;
            assert!(
                (0.3..3.0).contains(&ratio),
                "m={} predicted {pred:.6} measured {:.6}",
                pt.msg_size,
                pt.measured.mean
            );
        }
    }

    #[test]
    fn different_algorithms_get_different_parameters() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let gamma = GammaTable::from_pairs([(3, 1.08), (5, 1.25), (7, 1.42)]);
        let cfg = AlphaBetaConfig::quick(8);
        let a = estimate_alpha_beta(&cluster, BcastAlg::Linear, &cfg, &gamma, 3).hockney;
        let b = estimate_alpha_beta(&cluster, BcastAlg::Chain, &cfg, &gamma, 3).hockney;
        assert!(
            (a.beta - b.beta).abs() / a.beta.max(b.beta) > 0.01,
            "context-dependence should separate the fits: {a} vs {b}"
        );
    }

    #[test]
    fn try_estimate_matches_infallible_without_deadline() {
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let gamma = GammaTable::from_pairs([(3, 1.08), (5, 1.25), (7, 1.42)]);
        let cfg = AlphaBetaConfig::quick(8);
        let plain = estimate_alpha_beta(&cluster, BcastAlg::Binomial, &cfg, &gamma, 1);
        let tried = try_estimate_alpha_beta(
            &cluster,
            BcastAlg::Binomial,
            &cfg,
            &gamma,
            1,
            &RetryPolicy::no_deadline(),
        )
        .expect("fault-free estimation succeeds");
        assert_eq!(plain, tried);
        assert!(tried.validity().is_valid(), "{}", tried.validity());
    }

    #[test]
    fn try_estimate_all_keeps_per_algorithm_outcomes() {
        use collsel_netsim::SimSpan;
        let cluster = ClusterModel::gros().with_noise(NoiseParams::OFF);
        let gamma = GammaTable::from_pairs([(3, 1.08), (5, 1.25), (7, 1.42)]);
        let cfg = AlphaBetaConfig::quick(8);
        let policy = RetryPolicy {
            max_attempts: 1,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        };
        let all = try_estimate_all_alpha_beta(&cluster, &cfg, &gamma, 1, &policy);
        assert_eq!(all.len(), BcastAlg::ALL.len());
        for (alg, outcome) in &all {
            let err = outcome.as_ref().expect_err("1 ns budget cannot fit a run");
            assert!(matches!(err, SimError::Timeout { .. }), "{alg:?}: {err}");
        }
    }

    #[test]
    fn validity_flags_unconverged_points() {
        use crate::stats::SampleStats;
        let good = SampleStats {
            mean: 1.0,
            std_dev: 0.0,
            n: 5,
            ci_half_width: 0.0,
            converged: true,
            skewness: 0.0,
            excess_kurtosis: 0.0,
        };
        let bad = SampleStats {
            ci_half_width: 0.2,
            converged: false,
            ..good
        };
        let mk_point = |s: SampleStats| ExperimentPoint {
            msg_size: 1024,
            gather_size: 512,
            x: 1.0,
            y: 1.0,
            measured: s,
        };
        let est = AlphaBetaEstimate {
            hockney: Hockney::new(1e-5, 1e-9),
            points: vec![mk_point(good), mk_point(bad)],
        };
        assert_eq!(est.validity(), FitValidity::Unconverged { achieved: 0.2 });
        let nonfinite = AlphaBetaEstimate {
            // Bypass Hockney::new's asserts: validity() is the defence
            // layer for parameters that arrive via deserialisation.
            hockney: Hockney {
                alpha: f64::NAN,
                beta: 1e-9,
            },
            points: vec![mk_point(good)],
        };
        assert_eq!(nonfinite.validity(), FitValidity::NonFinite);
    }

    #[test]
    #[should_panic(expected = "one gather size per message size")]
    fn validates_size_lists() {
        let cluster = ClusterModel::gros();
        let gamma = GammaTable::ones();
        let mut cfg = AlphaBetaConfig::quick(4);
        cfg.gather_sizes.pop();
        let _ = estimate_alpha_beta(&cluster, BcastAlg::Linear, &cfg, &gamma, 0);
    }
}
