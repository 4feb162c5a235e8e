//! Estimation of the algorithm-specific α and β — the paper's
//! Sect. 4.2, for every collective.
//!
//! For each algorithm, a set of communication experiments is run, each
//! a [`TimedProgram`] that *contains the modelled algorithm itself*,
//! and each contributes one linear equation in (α, β) with the
//! coefficients read off that algorithm's implementation-derived model
//! ([`collectives::coefficients`]):
//!
//! ```text
//! a_i·α + b_i·β = T_i
//! ```
//!
//! canonicalised to `α + x_i·β = y_i` (the system of the paper's
//! Fig. 4) and solved with the Huber robust regressor. Two experiment
//! designs share that one path:
//!
//! * [`AlphaBetaConfig`] — the paper's broadcast design: the modelled
//!   broadcast (of `m_i` bytes) followed by a linear gather without
//!   synchronisation (of `m_gᵢ` bytes), timed on the root
//!   ([`TimedProgram::BcastGather`]); the equation adds the gather's
//!   Eq. 8 coefficients to the broadcast's. Above `m_s` a segmented
//!   algorithm's per-stage size pins to the segment, so the spread of
//!   `x` comes from the gather term;
//! * [`BreadthConfig`] — the design widened to all seven collectives: a
//!   sweep of payload sizes timed with the algorithm alone
//!   ([`TimedProgram::Collective`]). Conditioning instead comes from the
//!   size range: the sweep spans payloads *below* a coarse estimation
//!   segment ([`BREADTH_SEG_SIZE`]), where a segmented algorithm runs a
//!   single segment and `x = b/a` tracks `m` freely, so `x` spans almost
//!   two decades and β separates cleanly from α; the fitted pair is
//!   segment-independent and serves predictions at any runtime segment
//!   size.
//!
//! Every algorithm's experiments are measured in one batch with the
//! rest of its family, and every cell carries a seed derived from its
//! grid position, so the fits are bit-identical at any thread count.
//!
//! Estimating the parameters *inside the algorithm's own execution
//! context* — rather than from bare point-to-point round-trips — is the
//! paper's second key innovation, and is what lets the models absorb
//! contention, protocol and pipelining effects the Hockney abstraction
//! cannot express.

use crate::measure::{try_measure_batch, unwatched, RetryPolicy, TimedProgram};
use crate::regress::huber_default;
use crate::stats::{Precision, SampleStats};
use collsel_coll::{Alg, BcastAlg, Collective};
use collsel_model::derived::gather_linear_coefficients;
use collsel_model::{collectives, FitValidity, GammaTable, Hockney};
use collsel_mpi::{Backend, SimError};
use collsel_netsim::ClusterModel;
use collsel_support::pool::Pool;
use std::collections::BTreeMap;

/// The breadth campaigns' estimation segment size (64 KB, coarse so
/// the sub-segment payload sizes condition the fit — see the module
/// docs). Decision serving evaluates the non-broadcast models at this
/// same segment size, keeping prediction consistent with estimation.
pub const BREADTH_SEG_SIZE: usize = 64 * 1024;

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

    /// One algorithm's experiments, in point order.
    fn programs(&self, alg: BcastAlg) -> Vec<TimedProgram> {
        self.msg_sizes
            .iter()
            .zip(&self.gather_sizes)
            .map(|(&m, &m_g)| TimedProgram::BcastGather {
                alg,
                p: self.p,
                m,
                m_g,
                seg_size: self.seg_size,
            })
            .collect()
    }
}

/// Configuration of a per-collective estimation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BreadthConfig {
    /// Pipeline segment size `m_s` for segmented algorithms.
    pub seg_size: usize,
    /// Payload sizes swept per algorithm
    /// ([`run_collective`](collsel_coll::run_collective)'s convention).
    pub msg_sizes: Vec<usize>,
    /// Number of processes in the experiments.
    pub p: usize,
    /// Stopping rule per measurement.
    pub precision: Precision,
    /// Execution backend of the measurement simulations.
    pub backend: Backend,
}

impl BreadthConfig {
    /// The paper-scale configuration: a 64 KB estimation segment with
    /// 10 log-spaced sizes in 1 KB..4 MB (the sub-segment sizes
    /// condition the fit, see the module docs).
    pub fn paper(p: usize) -> Self {
        BreadthConfig {
            seg_size: BREADTH_SEG_SIZE,
            msg_sizes: log_spaced_sizes(1024, 4 * 1024 * 1024, 10),
            p,
            precision: Precision::paper(),
            backend: Backend::default(),
        }
    }

    /// A small, fast configuration for tests.
    pub fn quick(p: usize) -> Self {
        BreadthConfig {
            seg_size: BREADTH_SEG_SIZE,
            msg_sizes: log_spaced_sizes(1024, 512 * 1024, 5),
            p,
            precision: Precision::quick(),
            backend: Backend::default(),
        }
    }

    fn validate(&self) {
        assert!(self.seg_size > 0, "segment size must be positive");
        assert!(self.p >= 2, "experiments need at least two processes");
        assert!(
            self.msg_sizes.len() >= 2,
            "need at least two experiments to fit two parameters"
        );
    }

    /// One algorithm's sweep, in size order.
    fn programs(&self, alg: Alg) -> Vec<TimedProgram> {
        self.msg_sizes
            .iter()
            .map(|&m| TimedProgram::Collective {
                alg,
                p: self.p,
                m,
                seg_size: self.seg_size,
            })
            .collect()
    }
}

/// One experiment's canonicalised equation and measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentPoint {
    /// Message size `m_i` of the modelled algorithm.
    pub msg_size: usize,
    /// Gather contribution size `m_gᵢ` (0 when the experiment appends
    /// no gather).
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

/// One algorithm's experiments, in point order, each with its
/// measurement outcome.
type Measured = Vec<(TimedProgram, Result<SampleStats, SimError>)>;

/// The one experiment path: every algorithm's `programs`, in point
/// order, measured under `policy` as one batch (so the pool
/// load-balances across the whole grid instead of synchronising between
/// algorithms), then regrouped per algorithm. The cell at point `j` of
/// the `i`-th algorithm runs under seed `seed + (i << 32) + 7919·j`.
fn measure_grid<A: Copy>(
    cluster: &ClusterModel,
    algs: &[A],
    programs: impl Fn(A) -> Vec<TimedProgram>,
    precision: &Precision,
    backend: Backend,
    seed: u64,
    policy: Option<&RetryPolicy>,
) -> Vec<(A, Measured)> {
    let programs: Vec<Vec<TimedProgram>> = algs.iter().map(|&alg| programs(alg)).collect();
    let cells: Vec<(TimedProgram, u64)> = programs
        .iter()
        .enumerate()
        .flat_map(|(i, points)| {
            let alg_seed = seed.wrapping_add((i as u64) << 32);
            points
                .iter()
                .enumerate()
                .map(move |(j, &program)| (program, alg_seed.wrapping_add(j as u64 * 7919)))
        })
        .collect();
    let mut outcomes =
        try_measure_batch(cluster, &cells, precision, policy, Pool::current(), backend).into_iter();
    algs.iter()
        .zip(programs)
        .map(|(&alg, points)| {
            let n = points.len();
            (
                alg,
                points.into_iter().zip(outcomes.by_ref().take(n)).collect(),
            )
        })
        .collect()
}

/// Canonicalises each measured experiment against its program's model
/// and fits (α, β) with the Huber regressor. Negative fitted values
/// (possible when the model's startup count overestimates reality) are
/// clamped to zero, as the Hockney parameters are physical quantities.
/// The first failed measurement in point order — the early-exiting
/// serial loop's — aborts this algorithm's fit instead.
fn fit(measured: Measured, gamma: &GammaTable) -> Result<AlphaBetaEstimate, SimError> {
    let points: Vec<ExperimentPoint> = measured
        .into_iter()
        .map(|(program, outcome)| {
            let measured = outcome?;
            let (msg_size, gather_size, coeff) = match program {
                TimedProgram::BcastGather {
                    alg,
                    p,
                    m,
                    m_g,
                    seg_size,
                } => (
                    m,
                    m_g,
                    collectives::coefficients(Alg::Bcast(alg), p, m, seg_size, gamma)
                        .plus(gather_linear_coefficients(p, m_g)),
                ),
                TimedProgram::Collective {
                    alg,
                    p,
                    m,
                    seg_size,
                } => (m, 0, collectives::coefficients(alg, p, m, seg_size, gamma)),
                other => unreachable!("{other:?} is not an α/β experiment"),
            };
            let (x, y) = coeff.canonicalise(measured.mean);
            Ok(ExperimentPoint {
                msg_size,
                gather_size,
                x,
                y,
                measured,
            })
        })
        .collect::<Result<_, _>>()?;
    let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    let fit = huber_default(&xs, &ys);
    Ok(AlphaBetaEstimate {
        hockney: Hockney::new(fit.intercept.max(0.0), fit.slope.max(0.0)),
        points,
    })
}

/// Unwraps every algorithm's fit of the unwatched tier.
fn unwatched_fits<A: Ord>(
    outcomes: BTreeMap<A, Result<AlphaBetaEstimate, SimError>>,
) -> BTreeMap<A, AlphaBetaEstimate> {
    outcomes
        .into_iter()
        .map(|(alg, outcome)| (alg, unwatched(outcome)))
        .collect()
}

/// [`try_estimate_all_alpha_beta`] on the unwatched tier.
///
/// # Panics
///
/// Panics if the configuration is invalid or `p` exceeds the cluster.
pub fn estimate_all_alpha_beta(
    cluster: &ClusterModel,
    cfg: &AlphaBetaConfig,
    gamma: &GammaTable,
    seed: u64,
) -> BTreeMap<BcastAlg, AlphaBetaEstimate> {
    unwatched_fits(try_estimate_all_alpha_beta(cluster, cfg, gamma, seed, None))
}

/// Runs the Sect. 4.2 experiments for all six broadcast algorithms and
/// fits each one's (α, β), the whole grid in one batch.
///
/// `policy` is the measurement tier ([`try_measure`](crate::try_measure)).
/// Under `Some(policy)` each experiment runs under the policy's
/// virtual-time watchdog, and per-algorithm outcomes stay separate —
/// one algorithm timing out under a fault plan must not discard the
/// five fits that succeeded. An algorithm's error is the first in point
/// order. The tuner turns `Err` entries into skipped algorithms and the
/// selector falls back to the Open MPI rules for them. Under `None`
/// every entry is `Ok`.
///
/// # Panics
///
/// Panics if the configuration is invalid or `p` exceeds the cluster.
pub fn try_estimate_all_alpha_beta(
    cluster: &ClusterModel,
    cfg: &AlphaBetaConfig,
    gamma: &GammaTable,
    seed: u64,
    policy: Option<&RetryPolicy>,
) -> BTreeMap<BcastAlg, Result<AlphaBetaEstimate, SimError>> {
    cfg.validate();
    measure_grid(
        cluster,
        &BcastAlg::ALL,
        |alg| cfg.programs(alg),
        &cfg.precision,
        cfg.backend,
        seed,
        policy,
    )
    .into_iter()
    .map(|(alg, measured)| (alg, fit(measured, gamma)))
    .collect()
}

/// [`try_estimate_collective_family`] on the unwatched tier.
///
/// # Panics
///
/// Panics if the configuration is invalid or `p` exceeds the cluster.
pub fn estimate_collective_family(
    cluster: &ClusterModel,
    collective: Collective,
    cfg: &BreadthConfig,
    gamma: &GammaTable,
    seed: u64,
) -> BTreeMap<Alg, AlphaBetaEstimate> {
    unwatched_fits(try_estimate_collective_family(
        cluster, collective, cfg, gamma, seed, None,
    ))
}

/// Runs the estimation sweep for every algorithm of `collective` and
/// fits each one's (α, β), the whole grid in one batch, keeping
/// per-algorithm outcomes separate under `policy` as
/// [`try_estimate_all_alpha_beta`] does (the tuner skips `Err`
/// algorithms and the selection layer falls back to the fixed rules for
/// them).
///
/// # Panics
///
/// Panics if the configuration is invalid or `p` exceeds the cluster.
pub fn try_estimate_collective_family(
    cluster: &ClusterModel,
    collective: Collective,
    cfg: &BreadthConfig,
    gamma: &GammaTable,
    seed: u64,
    policy: Option<&RetryPolicy>,
) -> BTreeMap<Alg, Result<AlphaBetaEstimate, SimError>> {
    cfg.validate();
    measure_grid(
        cluster,
        collective.algorithms(),
        |alg| cfg.programs(alg),
        &cfg.precision,
        cfg.backend,
        seed,
        policy,
    )
    .into_iter()
    .map(|(alg, measured)| (alg, fit(measured, gamma)))
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
    use collsel_netsim::{NoiseParams, SimSpan};

    fn quiet_gros() -> ClusterModel {
        ClusterModel::gros().with_noise(NoiseParams::OFF)
    }

    fn gamma() -> GammaTable {
        GammaTable::from_pairs([(3, 1.08), (5, 1.25), (7, 1.42)])
    }

    /// A watchdog no measurement can satisfy.
    fn hopeless() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            budget: Some(SimSpan::from_nanos(1)),
            backoff: 1,
        }
    }

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
        let cfg = AlphaBetaConfig::quick(24);
        let est = &estimate_all_alpha_beta(&quiet_gros(), &cfg, &gamma(), 1)[&BcastAlg::Binomial];
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
        let gamma = gamma();
        let cfg = AlphaBetaConfig::quick(24);
        let est = &estimate_all_alpha_beta(&quiet_gros(), &cfg, &gamma, 2)[&BcastAlg::Chain];
        for pt in &est.points {
            let pred = collsel_model::derived::predict_bcast(
                BcastAlg::Chain,
                cfg.p,
                pt.msg_size,
                cfg.seg_size,
                &gamma,
                &est.hockney,
            ) + est
                .hockney
                .eval(gather_linear_coefficients(cfg.p, pt.gather_size));
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
        let fits = estimate_all_alpha_beta(&quiet_gros(), &AlphaBetaConfig::quick(8), &gamma(), 3);
        let (a, b) = (
            fits[&BcastAlg::Linear].hockney,
            fits[&BcastAlg::Chain].hockney,
        );
        assert!(
            (a.beta - b.beta).abs() / a.beta.max(b.beta) > 0.01,
            "context-dependence should separate the fits: {a} vs {b}"
        );
    }

    #[test]
    fn try_estimate_matches_infallible_without_deadline() {
        let cfg = AlphaBetaConfig::quick(8);
        let plain = estimate_all_alpha_beta(&quiet_gros(), &cfg, &gamma(), 1);
        let tried = try_estimate_all_alpha_beta(
            &quiet_gros(),
            &cfg,
            &gamma(),
            1,
            Some(&RetryPolicy::no_deadline()),
        );
        for est in plain.values() {
            assert!(est.validity().is_valid(), "{}", est.validity());
        }
        let plain: BTreeMap<_, _> = plain.into_iter().map(|(alg, est)| (alg, Ok(est))).collect();
        assert_eq!(plain, tried);
    }

    #[test]
    fn try_estimate_all_keeps_per_algorithm_outcomes() {
        let cfg = AlphaBetaConfig::quick(8);
        let all = try_estimate_all_alpha_beta(&quiet_gros(), &cfg, &gamma(), 1, Some(&hopeless()));
        assert_eq!(all.len(), BcastAlg::ALL.len());
        for (alg, outcome) in &all {
            let err = outcome.as_ref().expect_err("1 ns budget cannot fit a run");
            assert!(matches!(err, SimError::Timeout { .. }), "{alg:?}: {err}");
        }
    }

    #[test]
    fn every_collective_family_fits_valid_parameters() {
        let cluster = quiet_gros();
        let cfg = BreadthConfig::quick(8);
        for coll in Collective::ALL {
            let fits = estimate_collective_family(&cluster, coll, &cfg, &gamma(), 1);
            assert_eq!(fits.len(), coll.algorithms().len(), "{coll}");
            for (alg, est) in &fits {
                assert_eq!(alg.collective(), coll);
                // gather_bcast is the one algorithm whose canonical
                // abscissa saturates structurally (both of its stages
                // segment internally at a fixed 8 KB, so x spans less
                // than a factor 3); its β may collapse to the clamp.
                // Every other algorithm must resolve a positive β.
                use collsel_coll::AllgatherAlg;
                if *alg != Alg::Allgather(AllgatherAlg::GatherBcast) {
                    assert!(
                        est.hockney.beta > 0.0,
                        "{}: {:?}",
                        alg.qualified_name(),
                        est.hockney
                    );
                }
                assert_eq!(
                    est.validity(),
                    FitValidity::Valid,
                    "{}: {}",
                    alg.qualified_name(),
                    est.validity()
                );
            }
        }
    }

    #[test]
    fn try_family_keeps_per_algorithm_outcomes() {
        let cluster = quiet_gros();
        let cfg = BreadthConfig::quick(6);
        let scatter = Collective::Scatter;
        let all =
            try_estimate_collective_family(&cluster, scatter, &cfg, &gamma(), 1, Some(&hopeless()));
        assert_eq!(all.len(), scatter.algorithms().len());
        for (alg, outcome) in &all {
            let err = outcome.as_ref().expect_err("1 ns budget cannot fit a run");
            assert!(
                matches!(err, SimError::Timeout { .. }),
                "{}: {err}",
                alg.qualified_name()
            );
        }
        let fine = try_estimate_collective_family(
            &cluster,
            scatter,
            &cfg,
            &gamma(),
            1,
            Some(&RetryPolicy::no_deadline()),
        );
        let plain = estimate_collective_family(&cluster, scatter, &cfg, &gamma(), 1);
        let plain: BTreeMap<_, _> = plain.into_iter().map(|(alg, est)| (alg, Ok(est))).collect();
        assert_eq!(fine, plain);
    }

    #[test]
    fn validity_flags_unconverged_points() {
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
        let mut cfg = AlphaBetaConfig::quick(4);
        cfg.gather_sizes.pop();
        let _ = estimate_all_alpha_beta(&ClusterModel::gros(), &cfg, &GammaTable::ones(), 0);
    }
}
